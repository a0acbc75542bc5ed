//! The HTTP client every suite in this directory talks to a live instance
//! with: one request per connection, HTTP/1.0, so the server closes after
//! the response and `read_to_string` returns.
#![allow(dead_code)] // each suite uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// `(status, body)` of `method target`. A hung server fails the 10 s read
/// timeout instead of hanging the suite.
pub fn request(addr: SocketAddr, method: &str, target: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(conn, "{method} {target} HTTP/1.0\r\nHost: dppr\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let status: u16 =
        raw.split_whitespace().nth(1).expect("status code").parse().expect("numeric status");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

pub fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    request(addr, "GET", target)
}
