//! Per-connection state machine for the event-driven front end.
//!
//! A [`Conn`] owns one non-blocking `TcpStream` plus its input and output
//! buffers. The event loop drives it edge by edge:
//!
//! * readable → [`Conn::fill`] pulls whatever bytes the kernel has, then
//!   [`Conn::next_request`] is called repeatedly to pop complete
//!   (possibly pipelined) requests out of the input buffer;
//! * a routed response is appended with [`Conn::enqueue`] (rendered
//!   straight into the output buffer — the "response queue" is the byte
//!   buffer itself, bounded by [`MAX_PIPELINED_BYTES`]);
//! * writable → [`Conn::flush`] pushes the output buffer out without
//!   blocking, tracking progress for the write-side deadline.
//!
//! Deadlines are the bug-fix half of this module: the old blocking front
//! end had only a read timeout, so a client that sent a request and never
//! read the response pinned a worker thread forever. Here both sides are
//! covered — [`Conn::deadline`] exposes the next instant at which the
//! connection must have made progress, and [`Conn::expired`] says whether
//! it blew it (the loop then drops the connection).

use crate::http::{self, Parsed, Request, Response, MAX_REQUEST_BYTES};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on rendered-but-unflushed response bytes. While the output buffer
/// sits above this, the loop stops parsing further pipelined requests from
/// the connection (they stay buffered) — a client cannot turn a deep
/// pipeline into unbounded server memory.
pub const MAX_PIPELINED_BYTES: usize = 256 * 1024;

/// Why a connection was (or must be) torn down; feeds the server stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Close {
    /// Peer closed / protocol finished (`Connection: close` flushed).
    Done,
    /// I/O error on read or write.
    Error,
    /// No complete request arrived within the read deadline.
    ReadTimeout,
    /// The peer stopped draining our writes past the write deadline.
    WriteTimeout,
}

/// What the event loop should do with the connection after an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep polling.
    Continue,
    /// Tear down now.
    Close(Close),
}

/// One live client connection.
pub struct Conn {
    stream: TcpStream,
    in_buf: Vec<u8>,
    out_buf: Vec<u8>,
    /// Bytes of `out_buf` already written to the socket.
    out_pos: usize,
    /// Set once a `Connection: close` response (or a fatal protocol error
    /// response) is enqueued: flush what is queued, then close. No further
    /// requests are parsed.
    close_after_flush: bool,
    /// Peer sent EOF; serve what is already buffered, then close.
    peer_closed: bool,
    /// Last instant the read side made progress (bytes arrived or a
    /// request completed); the idle/read deadline counts from here.
    last_read: Instant,
    /// Last instant the write side made progress while output was
    /// pending; the write-stall deadline counts from here.
    last_write: Instant,
    /// Requests answered on this connection (keep-alive depth).
    pub served: u64,
    /// Set by the event loop when this connection hit its per-tick
    /// request budget with input possibly still buffered: the shard must
    /// come back next iteration without waiting for socket readiness
    /// (buffered-but-unparsed requests produce no poll edge).
    pub deferred: bool,
}

impl Conn {
    /// Adopts an accepted stream: non-blocking, Nagle off (responses are
    /// single writes; delaying them only hurts latency).
    pub fn new(stream: TcpStream, now: Instant) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            peer_closed: false,
            last_read: now,
            last_write: now,
            served: 0,
            deferred: false,
        })
    }

    /// The underlying socket (for poll registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether response bytes are waiting to be flushed.
    pub fn has_pending_output(&self) -> bool {
        self.out_pos < self.out_buf.len()
    }

    /// Whether the loop should keep parsing requests out of the input
    /// buffer (stops while closing or while the pipeline cap is hit).
    pub fn wants_requests(&self) -> bool {
        !self.close_after_flush && self.out_buf.len() - self.out_pos < MAX_PIPELINED_BYTES
    }

    /// Poll interest for the current state: readable unless the
    /// connection is draining towards close, writable while output is
    /// pending.
    pub fn interest(&self) -> u8 {
        let mut i = 0;
        if !self.close_after_flush && !self.peer_closed {
            i |= minipoll::READABLE;
        }
        if self.has_pending_output() {
            i |= minipoll::WRITABLE;
        }
        i
    }

    /// Reads whatever the kernel has buffered. Returns `Continue` on
    /// `WouldBlock`; flags EOF so the loop can drain remaining requests
    /// and close.
    pub fn fill(&mut self, now: Instant) -> Step {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    return if self.in_buf.is_empty() && !self.has_pending_output() {
                        Step::Close(Close::Done)
                    } else {
                        Step::Continue
                    };
                }
                Ok(n) => {
                    self.last_read = now;
                    self.in_buf.extend_from_slice(&chunk[..n]);
                    // Oversized head: answered by next_request with a 400.
                    if self.in_buf.len() > MAX_REQUEST_BYTES {
                        return Step::Continue;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Step::Close(Close::Error),
            }
        }
    }

    /// Pops the next complete request off the input buffer.
    ///
    /// * `Ok(Some((req, keep_alive)))` — route it; `keep_alive` is what
    ///   the response's `Connection` header must say.
    /// * `Ok(None)` — nothing complete buffered (or parsing is paused).
    /// * `Err(msg)` — protocol violation; the caller should enqueue a 400
    ///   via [`Conn::enqueue`] with `keep_alive = false` and stop reading.
    pub fn next_request(&mut self, now: Instant) -> Result<Option<(Request, bool)>, String> {
        if !self.wants_requests() {
            return Ok(None);
        }
        match http::try_parse(&self.in_buf) {
            Ok(Parsed::Complete { req, consumed, keep_alive }) => {
                self.in_buf.drain(..consumed);
                self.last_read = now;
                self.served += 1;
                Ok(Some((req, keep_alive)))
            }
            Ok(Parsed::Partial) => {
                if self.in_buf.len() > MAX_REQUEST_BYTES {
                    Err("request head exceeds the size limit".to_string())
                } else {
                    Ok(None)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Renders `resp` onto the output buffer. With `keep_alive = false`
    /// the connection drains and closes; no further requests are parsed.
    pub fn enqueue(&mut self, resp: &Response, keep_alive: bool) {
        http::render_response(&mut self.out_buf, resp, keep_alive);
        if !keep_alive {
            self.close_after_flush = true;
        }
    }

    /// Writes as much pending output as the socket accepts. Returns
    /// `Close(Done)` once a draining connection has fully flushed.
    pub fn flush(&mut self, now: Instant) -> Step {
        while self.has_pending_output() {
            match self.stream.write(&self.out_buf[self.out_pos..]) {
                Ok(0) => return Step::Close(Close::Error),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_write = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Step::Close(Close::Error),
            }
        }
        // Fully flushed: reclaim the buffer instead of growing forever.
        self.out_buf.clear();
        self.out_pos = 0;
        if self.close_after_flush || (self.peer_closed && self.in_buf.is_empty()) {
            Step::Close(Close::Done)
        } else {
            Step::Continue
        }
    }

    /// The instant at which this connection, unchanged, must be reaped:
    /// write-stall deadline while output is pending, idle/read deadline
    /// otherwise. Drives the poll timeout.
    pub fn deadline(&self, read_timeout: Duration, write_timeout: Duration) -> Instant {
        if self.has_pending_output() {
            self.last_write + write_timeout
        } else {
            self.last_read + read_timeout
        }
    }

    /// Whether the deadline has passed, and which side blew it.
    pub fn expired(
        &self,
        now: Instant,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Option<Close> {
        if now < self.deadline(read_timeout, write_timeout) {
            return None;
        }
        Some(if self.has_pending_output() { Close::WriteTimeout } else { Close::ReadTimeout })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A loopback pair: (server-side Conn, client stream).
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Conn::new(server, Instant::now()).unwrap(), client)
    }

    fn wait_readable(conn: &Conn) {
        use std::os::fd::AsRawFd;
        let mut fds = [minipoll::PollFd::new(conn.stream().as_raw_fd(), minipoll::READABLE)];
        minipoll::poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
    }

    #[test]
    fn parses_requests_across_segments_and_pipelines() {
        let (mut conn, mut client) = pair();
        let now = Instant::now();
        client.write_all(b"GET /a HTTP/1.1\r\n").unwrap();
        wait_readable(&conn);
        assert_eq!(conn.fill(now), Step::Continue);
        assert!(conn.next_request(now).unwrap().is_none(), "head incomplete");
        client.write_all(b"\r\nGET /b?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        wait_readable(&conn);
        assert_eq!(conn.fill(now), Step::Continue);
        let (r1, ka1) = conn.next_request(now).unwrap().unwrap();
        assert_eq!((r1.path.as_str(), ka1), ("/a", true));
        let (r2, ka2) = conn.next_request(now).unwrap().unwrap();
        assert_eq!((r2.path.as_str(), ka2), ("/b", false));
        assert!(conn.next_request(now).unwrap().is_none());
        assert_eq!(conn.served, 2);
    }

    #[test]
    fn close_after_flush_and_buffer_reset() {
        let (mut conn, mut client) = pair();
        let now = Instant::now();
        conn.enqueue(&Response::new(200, "{}"), true);
        assert!(conn.has_pending_output());
        assert_eq!(conn.flush(now), Step::Continue, "keep-alive stays open");
        assert!(!conn.has_pending_output());
        conn.enqueue(&Response::new(200, "{}"), false);
        assert_eq!(conn.flush(now), Step::Close(Close::Done));
        drop(conn); // the loop drops a Close(..) connection; EOF for the client
        let mut raw = Vec::new();
        client.read_to_end(&mut raw).unwrap();
        let s = String::from_utf8(raw).unwrap();
        assert!(s.contains("Connection: keep-alive"), "{s}");
        assert!(s.contains("Connection: close"), "{s}");
    }

    #[test]
    fn oversized_head_is_a_protocol_error() {
        let (mut conn, mut client) = pair();
        let now = Instant::now();
        // A newline-free stream larger than the cap.
        let junk = vec![b'a'; MAX_REQUEST_BYTES + 1024];
        client.write_all(&junk).unwrap();
        loop {
            wait_readable(&conn);
            assert_eq!(conn.fill(now), Step::Continue);
            if conn.in_buf.len() > MAX_REQUEST_BYTES {
                break;
            }
        }
        assert!(conn.next_request(now).is_err());
    }

    #[test]
    fn deadlines_split_read_and_write_sides() {
        let (mut conn, _client) = pair();
        let now = Instant::now();
        let rt = Duration::from_millis(50);
        let wt = Duration::from_millis(80);
        assert!(conn.expired(now, rt, wt).is_none());
        assert_eq!(conn.expired(now + rt, rt, wt), Some(Close::ReadTimeout));
        conn.enqueue(&Response::new(200, "{}"), true);
        // With pending output the *write* deadline governs.
        assert!(conn.expired(now + rt, rt, wt).is_none());
        assert_eq!(conn.expired(now + wt, rt, wt), Some(Close::WriteTimeout));
    }

    #[test]
    fn eof_with_clean_buffers_closes() {
        let (mut conn, client) = pair();
        drop(client);
        wait_readable(&conn);
        assert_eq!(conn.fill(Instant::now()), Step::Close(Close::Done));
    }
}
