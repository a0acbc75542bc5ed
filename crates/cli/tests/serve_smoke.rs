//! Serve smoke test: spawn the real `dppr` binary with `serve` on an
//! ephemeral port, issue live queries from a raw `TcpStream` client while
//! the update stream slides, then shut it down cleanly over HTTP. This is
//! the test CI's "serve smoke" step runs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn http(addr: &str, method: &str, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to dppr serve");
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(conn, "{method} {target} HTTP/1.0\r\nHost: dppr\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    raw
}

fn wait_for_exit(child: &mut Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("dppr serve did not exit within 30s of /shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn dppr_serve_answers_live_queries_and_shuts_down() {
    // Port 0: the server prints the actual ephemeral address first.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dppr"))
        .args([
            "serve",
            "--preset",
            "toy",
            "--port",
            "0",
            "--threads",
            "2",
            "--num-sources",
            "2",
            "--batch",
            "50",
            "--slide-pause-ms",
            "2",
            "--epsilon",
            "1e-3",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dppr serve");

    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening\thttp://")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    line.clear();
    stdout.read_line(&mut line).expect("graph line");
    assert!(line.starts_with("graph\t"), "unexpected line: {line:?}");
    line.clear();
    stdout.read_line(&mut line).expect("sources line");
    let sources: Vec<String> = line
        .trim()
        .strip_prefix("sources\t")
        .unwrap_or_else(|| panic!("unexpected line: {line:?}"))
        .split(',')
        .map(str::to_string)
        .collect();
    assert_eq!(sources.len(), 2);

    // Well-formed top-k and score responses for a tracked source.
    let s = &sources[0];
    let resp = http(&addr, "GET", &format!("/topk?source={s}&k=3"));
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("Content-Type: application/json"), "{resp}");
    assert!(resp.contains("\"ranking\":[{\"vertex\":"), "{resp}");
    let resp = http(&addr, "GET", &format!("/score?source={s}&v=0"));
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("\"estimate\":") && resp.contains("\"lo\":"), "{resp}");
    // Untracked source → a clean JSON 404, not a hang or crash.
    let resp = http(&addr, "GET", "/topk?source=199999");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    assert!(resp.contains("\"error\":"), "{resp}");
    // The update loop is alive behind the queries.
    let resp = http(&addr, "GET", "/stats");
    assert!(resp.contains("\"updates_applied\":"), "{resp}");

    // Clean shutdown over HTTP: the process exits 0 and prints its report.
    let resp = http(&addr, "POST", "/shutdown");
    assert!(resp.contains("\"shutting_down\":true"), "{resp}");
    let status = wait_for_exit(&mut child);
    assert!(status.success(), "dppr serve exited with {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("summary");
    assert!(rest.contains("queries\t"), "missing summary in: {rest}");
    assert!(rest.contains("cache_hit_rate\t"), "missing summary in: {rest}");
}
