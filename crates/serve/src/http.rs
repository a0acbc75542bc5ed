//! Minimal std-only HTTP/1.1 plumbing: incremental request parsing and
//! response rendering for the event-driven front end.
//!
//! The serving layer speaks just enough HTTP for `curl`, browsers, and
//! load generators: request line + headers parsed incrementally from a
//! byte buffer (so a connection can deliver a request in arbitrarily many
//! TCP segments, or several pipelined requests in one), keep-alive by
//! HTTP/1.1 default with `Connection: close` honored both ways, query
//! parameters percent-decoded, and no bodies read (every endpoint is
//! parameterized through the query string, so `POST /session/open?source=7`
//! works from `curl -X POST` without chunked-body handling).

/// A parsed request line: method, path, and decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased).
    pub method: String,
    /// The path without the query string, e.g. `/topk`.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub params: Vec<(String, String)>,
    /// Whether the request line named `HTTP/1.1` (keep-alive by default).
    pub http11: bool,
}

/// Decodes `%xx` escapes and `+`-for-space in one query-string component.
/// Rejects truncated or non-hex escapes — the caller turns that into a 400
/// rather than handing handlers a raw `a%2Fb`.
pub fn percent_decode(raw: &str) -> Result<String, String> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated percent escape in {raw:?}"))?;
                let hi = (hex[0] as char)
                    .to_digit(16)
                    .ok_or_else(|| format!("invalid percent escape in {raw:?}"))?;
                let lo = (hex[1] as char)
                    .to_digit(16)
                    .ok_or_else(|| format!("invalid percent escape in {raw:?}"))?;
                out.push((hi * 16 + lo) as u8);
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out).map_err(|_| format!("percent escapes in {raw:?} are not valid UTF-8"))
}

impl Request {
    /// Parses a request line like `GET /topk?source=0&k=5 HTTP/1.1`.
    /// Query parameter keys and values are percent-decoded; an invalid
    /// escape fails the parse (the front end answers 400).
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let mut it = line.split_whitespace();
        let method =
            it.next().ok_or_else(|| "empty request line".to_string())?.to_ascii_uppercase();
        let target = it.next().ok_or_else(|| "missing request target".to_string())?;
        if !target.starts_with('/') {
            return Err(format!("request target must be origin-form, got {target:?}"));
        }
        let version = it.next().unwrap_or("");
        if !version.starts_with("HTTP/") {
            return Err(format!("missing HTTP version, got {version:?}"));
        }
        let http11 = version == "HTTP/1.1";
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let params = query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => Ok((percent_decode(k)?, percent_decode(v)?)),
                None => Ok((percent_decode(kv)?, String::new())),
            })
            .collect::<Result<_, String>>()?;
        Ok(Request { method, path: path.to_string(), params, http11 })
    }

    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Parses a query parameter, with a default when absent.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.param(key) {
            None => Ok(default),
            Some(raw) => raw.parse::<T>().map_err(|_| format!("invalid value for {key}: {raw:?}")),
        }
    }

    /// Parses a required query parameter.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.param(key).ok_or_else(|| format!("missing required parameter {key}"))?;
        raw.parse::<T>().map_err(|_| format!("invalid value for {key}: {raw:?}"))
    }

    /// Parses a required float parameter, rejecting `NaN` and `±inf` —
    /// thresholds and accuracy knobs fed into comparisons must be finite
    /// (every comparison against `NaN` is false, which silently turns a
    /// query into nonsense instead of an error).
    pub fn require_finite(&self, key: &str) -> Result<f64, String> {
        let v: f64 = self.require(key)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("non-finite value for {key}: {v}"))
        }
    }

    /// Parses an optional float parameter with a default, rejecting
    /// non-finite values like [`Request::require_finite`].
    pub fn parsed_finite_or(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.parsed_or(key, default)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("non-finite value for {key}: {v}"))
        }
    }
}

/// Cap on request line + headers. A client may not feed a connection more
/// than this without completing a request: past it the buffer would
/// otherwise grow without bound on a newline-free byte stream.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Progress of [`try_parse`] over a connection's input buffer.
#[derive(Debug)]
pub enum Parsed {
    /// No complete head yet — keep the buffer, read more bytes.
    Partial,
    /// One complete request: `consumed` bytes of the buffer belong to it,
    /// and `keep_alive` is the connection's fate after the response
    /// (HTTP/1.1 default, overridden by a `Connection` header either way).
    Complete { req: Request, consumed: usize, keep_alive: bool },
}

/// Incrementally parses one request head (request line + headers) from
/// `buf`. Stateless: call again with the same buffer after reading more
/// bytes until it returns [`Parsed::Complete`], then drain `consumed`
/// bytes and call again for the next pipelined request.
///
/// Errors are protocol violations the caller should answer with a 400 and
/// a close: a malformed request line, an invalid percent escape, a head
/// that is not even ASCII-compatible, or (checked by the caller against
/// [`MAX_REQUEST_BYTES`]) an oversized head.
pub fn try_parse(buf: &[u8]) -> Result<Parsed, String> {
    // Find the end-of-head marker: \r\n\r\n, tolerating bare \n\n from
    // hand-typed clients (netcat).
    let Some((head_end, consumed)) = find_head_end(buf) else {
        return Ok(Parsed::Partial);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "request head is not valid UTF-8".to_string())?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let req = Request::parse_line(request_line)?;
    // Keep-alive: HTTP/1.1 defaults to persistent, HTTP/1.0 to close;
    // a Connection header overrides in either direction.
    let mut keep_alive = req.http11;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    Ok(Parsed::Complete { req, consumed, keep_alive })
}

/// Returns `(head_len, head_len + terminator_len)` of the first complete
/// request head in `buf`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some((i + 1, i + 2));
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some((i + 1, i + 3));
            }
        }
        i += 1;
    }
    None
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// A routed response: status, body, and an optional `Retry-After`
/// hint (load shedding).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (`Arc<str>` so a cache hit is returned without
    /// copying).
    pub body: std::sync::Arc<str>,
    /// Seconds for a `Retry-After` header (503 load shedding).
    pub retry_after: Option<u32>,
    /// `Content-Type` override; `None` means `application/json` (the
    /// default for every endpoint except Prometheus/trace exposition).
    pub content_type: Option<&'static str>,
}

impl Response {
    /// A JSON response with no `Retry-After`.
    pub fn new(status: u16, body: impl Into<std::sync::Arc<str>>) -> Response {
        Response { status, body: body.into(), retry_after: None, content_type: None }
    }

    /// A response with an explicit `Content-Type` (e.g. the Prometheus
    /// text exposition format).
    pub fn with_content_type(
        status: u16,
        content_type: &'static str,
        body: impl Into<std::sync::Arc<str>>,
    ) -> Response {
        Response { status, body: body.into(), retry_after: None, content_type: Some(content_type) }
    }
}

/// Renders a complete HTTP/1.1 response head + body into `out`.
/// `keep_alive` controls the `Connection` header — the caller must close
/// the connection after flushing when it is false.
pub fn render_response(out: &mut Vec<u8>, resp: &Response, keep_alive: bool) {
    use std::io::Write as _;
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type.unwrap_or("application/json"),
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        let _ = write!(out, "Retry-After: {secs}\r\n");
    }
    let _ = write!(out, "Connection: {}\r\n\r\n", if keep_alive { "keep-alive" } else { "close" });
    out.extend_from_slice(resp.body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line_with_params() {
        let r = Request::parse_line("GET /topk?source=0&k=5&flag HTTP/1.0").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/topk");
        assert!(!r.http11);
        assert_eq!(r.param("source"), Some("0"));
        assert_eq!(r.parsed_or("k", 10usize).unwrap(), 5);
        assert_eq!(r.parsed_or("missing", 10usize).unwrap(), 10);
        assert_eq!(r.param("flag"), Some(""));
        assert_eq!(r.require::<u32>("source").unwrap(), 0);
        assert!(r.require::<u32>("k2").is_err());
        assert!(r.parsed_or("source", 1.5f64).is_ok());
    }

    #[test]
    fn parses_bare_paths_and_post() {
        let r = Request::parse_line("post /shutdown HTTP/1.1").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/shutdown");
        assert!(r.params.is_empty());
        assert!(r.http11);
        assert!(Request::parse_line("").is_err());
        assert!(Request::parse_line("GET").is_err());
        // Not HTTP at all: bad target form or missing version token.
        assert!(Request::parse_line("EHLO mail.example.com").is_err());
        assert!(Request::parse_line("GET example.com HTTP/1.1").is_err());
        assert!(Request::parse_line("GET /ok").is_err());
    }

    #[test]
    fn percent_decodes_params() {
        let r =
            Request::parse_line("GET /x?source=a%2Fb&q=hello+world%21&%6bey=1 HTTP/1.1").unwrap();
        assert_eq!(r.param("source"), Some("a/b"));
        assert_eq!(r.param("q"), Some("hello world!"));
        assert_eq!(r.param("key"), Some("1"));
    }

    #[test]
    fn rejects_invalid_percent_escapes() {
        assert!(percent_decode("a%zzb").is_err());
        assert!(percent_decode("trail%2").is_err());
        assert!(percent_decode("trail%").is_err());
        assert!(Request::parse_line("GET /x?k=%GG HTTP/1.1").is_err());
        // A bare % in a key.
        assert!(Request::parse_line("GET /x?%=1 HTTP/1.1").is_err());
        // Escapes decoding to invalid UTF-8 are rejected, not smuggled in.
        assert!(percent_decode("%ff%fe").is_err());
        // Decoded separators do not re-split the query string.
        let r = Request::parse_line("GET /x?k=a%26b%3Dc HTTP/1.1").unwrap();
        assert_eq!(r.param("k"), Some("a&b=c"));
    }

    #[test]
    fn finite_float_helpers_reject_nan_and_inf() {
        let r = Request::parse_line("GET /t?delta=NaN&eps=inf&ok=0.5 HTTP/1.1").unwrap();
        assert!(r.require_finite("delta").is_err());
        assert!(r.require_finite("eps").is_err());
        assert_eq!(r.require_finite("ok").unwrap(), 0.5);
        assert!(r.parsed_finite_or("delta", 1.0).is_err());
        assert_eq!(r.parsed_finite_or("missing", 1.0).unwrap(), 1.0);
        // The plain typed accessors still parse them (callers opt in to
        // finiteness), which is what the finite variants exist to fix.
        assert!(r.require::<f64>("delta").unwrap().is_nan());
    }

    #[test]
    fn try_parse_is_incremental() {
        let full = b"GET /topk?k=3 HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in 0..full.len() {
            match try_parse(&full[..cut]).unwrap() {
                Parsed::Partial => {}
                Parsed::Complete { .. } => panic!("complete at cut {cut}"),
            }
        }
        match try_parse(full).unwrap() {
            Parsed::Complete { req, consumed, keep_alive } => {
                assert_eq!(req.path, "/topk");
                assert_eq!(consumed, full.len());
                assert!(keep_alive);
            }
            Parsed::Partial => panic!("full head must parse"),
        }
    }

    #[test]
    fn try_parse_keep_alive_defaults_and_overrides() {
        let ka = |raw: &[u8]| match try_parse(raw).unwrap() {
            Parsed::Complete { keep_alive, .. } => keep_alive,
            Parsed::Partial => panic!("incomplete"),
        };
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
        // Bare-\n heads (netcat) parse too.
        assert!(ka(b"GET / HTTP/1.1\nHost: x\n\n"));
    }

    #[test]
    fn try_parse_pipelined_requests_consume_in_order() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, rest) = match try_parse(raw).unwrap() {
            Parsed::Complete { req, consumed, keep_alive } => {
                assert!(keep_alive);
                (req, &raw[consumed..])
            }
            Parsed::Partial => panic!("first request must parse"),
        };
        assert_eq!(first.path, "/a");
        match try_parse(rest).unwrap() {
            Parsed::Complete { req, consumed, keep_alive } => {
                assert_eq!(req.path, "/b");
                assert!(!keep_alive);
                assert_eq!(consumed, rest.len());
            }
            Parsed::Partial => panic!("second request must parse"),
        }
    }

    #[test]
    fn try_parse_rejects_garbage() {
        assert!(try_parse(b"\x00\xffbinary\r\n\r\n").is_err());
        assert!(try_parse(b"GET\r\n\r\n").is_err());
    }

    #[test]
    fn renders_responses_with_and_without_retry_after() {
        let mut out = Vec::new();
        render_response(&mut out, &Response::new(200, r#"{"ok":true}"#), true);
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 11\r\n"), "{s}");
        assert!(s.contains("Connection: keep-alive\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\n{\"ok\":true}"), "{s}");

        let mut out = Vec::new();
        let resp = Response {
            status: 503,
            body: r#"{"error":"behind"}"#.into(),
            retry_after: Some(1),
            content_type: None,
        };
        render_response(&mut out, &resp, false);
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("HTTP/1.1 503 Service Unavailable\r\n"), "{s}");
        assert!(s.contains("Retry-After: 1\r\n"), "{s}");
        assert!(s.contains("Connection: close\r\n"), "{s}");
    }
}
