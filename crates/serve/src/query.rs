//! Request dispatch and the handlers that answer from session
//! snapshots: the four cached queries, the cross-session compare, and
//! session control. Telemetry and instance control live in `admin.rs`.

use crate::admin;
use crate::cache::QueryKind;
use crate::epoch::Reader;
use crate::event::Router;
use crate::http::{Request, Response};
use crate::json::{error_body, JsonBuf};
use crate::server::{Control, Ctx};
use crate::snapshot::QuerySnapshot;
use dppr_core::queries::{interval_order, BoundedScore};
use dppr_graph::VertexId;
use std::cmp::Ordering;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc;
use std::sync::Arc;

/// One event-loop shard's router: shared state + its handle on the
/// write loop's control channel.
pub(crate) struct RouterImpl {
    pub(crate) ctx: Arc<Ctx>,
    ctl_tx: mpsc::Sender<Control>,
    shard: usize,
}

impl RouterImpl {
    /// Event-loop shard `shard`'s router.
    pub(crate) fn new(ctx: Arc<Ctx>, ctl_tx: mpsc::Sender<Control>, shard: usize) -> Self {
        RouterImpl { ctx, ctl_tx, shard }
    }
}

impl Router for RouterImpl {
    fn route(&mut self, req: &Request) -> Response {
        route(req, self).unwrap_or_else(|msg| Response::new(400, error_body(&msg)))
    }

    fn observe_http(
        &mut self,
        req: &Request,
        status: u16,
        parse_ns: u64,
        route_ns: u64,
        write_ns: u64,
    ) {
        let m = &self.ctx.metrics;
        m.http_parse.record(parse_ns);
        m.http_route.record(route_ns);
        m.http_write.record(write_ns);
        m.http_request.record(parse_ns + route_ns + write_ns);
        if m.trace_requests.sample() {
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("event").str("request");
            j.key("shard").uint(self.shard as u64);
            j.key("path").str(&req.path);
            j.key("status").uint(status as u64);
            j.key("epoch").uint(self.ctx.domain.epoch());
            j.key("parse_ns").uint(parse_ns);
            j.key("route_ns").uint(route_ns);
            j.key("write_ns").uint(write_ns);
            j.end_obj();
            m.trace.push(j.finish());
        }
    }

    fn on_tick(&mut self, live_conns: usize) {
        self.ctx.shard_connections[self.shard].store(live_conns as u64, Relaxed);
    }
}

type Handler = fn(&Request, &RouterImpl) -> Result<Response, String>;

/// Dispatch: one line per endpoint, with the method it insists on (`""`
/// accepts any — reads are safe to repeat, the three that change state
/// are not). Bodies travel as `Arc<str>` so a cache hit is returned
/// without copying the rendered JSON.
fn route(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    let (method, handler): (&str, Handler) = match req.path.as_str() {
        "/topk" => ("", topk),
        "/score" => ("", score),
        "/threshold" => ("", threshold),
        "/compare" => ("", compare),
        "/compare_sessions" => ("", compare_sessions),
        "/sessions" => ("", sessions),
        "/session/open" => ("POST", |req, r| session_control(req, r, true)),
        "/session/close" => ("POST", |req, r| session_control(req, r, false)),
        "/healthz" => ("", admin::healthz),
        "/metrics" => ("", admin::metrics),
        "/stats" => ("", admin::stats),
        "/series" => ("", admin::series),
        "/trace" => ("", admin::trace),
        "/shutdown" => ("POST", admin::shutdown),
        other => return Ok(Response::new(404, error_body(&format!("unknown endpoint {other}")))),
    };
    if !method.is_empty() && req.method != method {
        return Ok(Response::new(405, error_body(&format!("{} requires {method}", req.path))));
    }
    handler(req, r)
}

fn push_bounded_arr(j: &mut JsonBuf, key: &str, scores: &[BoundedScore]) {
    j.key(key).begin_arr();
    for b in scores {
        j.begin_obj();
        j.key("vertex").uint(b.vertex as u64);
        j.key("estimate").num(b.estimate);
        j.key("lo").num(b.lo);
        j.key("hi").num(b.hi);
        j.end_obj();
    }
    j.end_arr();
}

/// Loads `source`'s published snapshot, or the 404 that says there is no
/// such session.
fn load_session(r: &RouterImpl, source: VertexId) -> Result<Arc<QuerySnapshot>, Response> {
    match r.ctx.registry.lookup(source) {
        Some(entry) => Ok(entry.load(&Reader)),
        None => {
            Err(Response::new(404, error_body(&format!("no open session for source {source}"))))
        }
    }
}

/// Load-shedding gate for the query endpoints: while a slide has been in
/// flight longer than `shed_after`, answer `503 Retry-After` instead of
/// serving a snapshot that lags the stream.
fn shed_check(ctx: &Ctx) -> Option<Response> {
    // A fast-window latency SLO breach sheds too: the error budget is
    // burning now, and queries are the load we can refuse.
    let why = if ctx.slo.shed.load(Relaxed) {
        "latency SLO fast burn; shedding load"
    } else if ctx.lagging() {
        "write loop is behind; retry shortly"
    } else {
        return None;
    };
    ctx.stats.shed.fetch_add(1, Relaxed);
    Some(Response {
        status: 503,
        body: error_body(why).into(),
        retry_after: Some(1),
        content_type: None,
    })
}

/// The skeleton the four cached query endpoints share: count the query,
/// parse its parameters, shed with 503 while the write loop lags, resolve
/// `source=` to its session (404 without one), then answer from the
/// epoch-keyed cache or render `{"source", "epoch", …}` and cache it.
/// An endpoint is its parameter parse plus its body renderer.
fn cached_query<P>(
    req: &Request,
    r: &RouterImpl,
    parse: impl FnOnce(&Request) -> Result<P, String>,
    kind: impl FnOnce(&P) -> QueryKind,
    render: impl FnOnce(&mut JsonBuf, &QuerySnapshot, &P),
) -> Result<Response, String> {
    let ctx = &*r.ctx;
    ctx.stats.queries.fetch_add(1, Relaxed);
    let params = parse(req)?;
    let source: VertexId = req.require("source")?;
    if let Some(shed) = shed_check(ctx) {
        return Ok(shed);
    }
    let snap = match load_session(r, source) {
        Ok(snap) => snap,
        Err(not_found) => return Ok(not_found),
    };
    let (body, _) = ctx.cache.get_or_render(source, kind(&params), snap.epoch(), || {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("source").uint(source as u64);
        j.key("epoch").uint(snap.epoch());
        render(&mut j, &snap, &params);
        j.end_obj();
        j.finish()
    });
    Ok(Response::new(200, body))
}

fn topk(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    cached_query(
        req,
        r,
        |req| req.parsed_or("k", 10usize),
        |&k| QueryKind::TopK(k),
        |j, snap, &k| {
            let ans = snap.top_k(k);
            j.key("epsilon").num(snap.epsilon());
            j.key("k").uint(k as u64);
            j.key("set_is_certain").bool(ans.set_is_certain);
            push_bounded_arr(j, "ranking", &ans.ranking);
        },
    )
}

fn score(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    cached_query(
        req,
        r,
        |req| req.require::<VertexId>("v"),
        |&v| QueryKind::Score(v),
        |j, snap, &v| {
            let b = snap.score(v);
            j.key("epsilon").num(snap.epsilon());
            j.key("vertex").uint(v as u64);
            j.key("estimate").num(b.estimate);
            j.key("lo").num(b.lo);
            j.key("hi").num(b.hi);
        },
    )
}

fn threshold(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    cached_query(
        req,
        r,
        // Finite by construction: NaN would make every comparison false
        // and silently return an empty answer.
        |req| req.require_finite("delta"),
        |delta| QueryKind::Threshold(delta.to_bits()),
        |j, snap, &delta| {
            let ans = snap.above_threshold(delta);
            j.key("delta").num(delta);
            push_bounded_arr(j, "certain", &ans.certain);
            push_bounded_arr(j, "possible", &ans.possible);
        },
    )
}

fn compare(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    cached_query(
        req,
        r,
        |req| Ok((req.require::<VertexId>("a")?, req.require::<VertexId>("b")?)),
        |&(a, b)| QueryKind::Compare(a, b),
        |j, snap, &(a, b)| {
            j.key("a").uint(a as u64);
            j.key("b").uint(b as u64);
            j.key("order").str(order_name(snap.compare(a, b)));
        },
    )
}

/// The `order` field of `/compare` and `/compare_sessions`.
fn order_name(order: Option<Ordering>) -> &'static str {
    match order {
        Some(Ordering::Greater) => "greater",
        Some(Ordering::Less) => "less",
        Some(Ordering::Equal) => "equal",
        None => "undecidable",
    }
}

/// Cross-session comparison: which of two *sessions* ranks vertex `v`
/// higher. The per-session `/compare` reads one snapshot; this one loads
/// both sessions' snapshots — two loads, so possibly one epoch apart —
/// and orders their estimates' ε-intervals by the in-session rule
/// ([`interval_order`]): certain only when the intervals are disjoint, and
/// never `equal`. Not cached: the cache is keyed by one source and one
/// epoch.
fn compare_sessions(req: &Request, r: &RouterImpl) -> Result<Response, String> {
    let ctx = &*r.ctx;
    ctx.stats.queries.fetch_add(1, Relaxed);
    let a: VertexId = req.require("a")?;
    let b: VertexId = req.require("b")?;
    let v: VertexId = req.require("v")?;
    if let Some(shed) = shed_check(ctx) {
        return Ok(shed);
    }
    let (sa, sb) = match (load_session(r, a), load_session(r, b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(not_found), _) | (_, Err(not_found)) => return Ok(not_found),
    };
    let (ba, bb) = (sa.score(v), sb.score(v));
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("a").uint(a as u64);
    j.key("b").uint(b as u64);
    j.key("v").uint(v as u64);
    j.key("epoch_a").uint(sa.epoch());
    j.key("epoch_b").uint(sb.epoch());
    j.key("estimate_a").num(ba.estimate);
    j.key("estimate_b").num(bb.estimate);
    j.key("order").str(order_name(interval_order(&ba, &bb)));
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

fn sessions(_req: &Request, r: &RouterImpl) -> Result<Response, String> {
    let registry = &r.ctx.registry;
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("capacity").uint(registry.capacity() as u64);
    j.key("sessions").begin_arr();
    for s in registry.sources() {
        j.uint(s as u64);
    }
    j.end_arr();
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

/// `POST /session/open` and `/session/close`: hands the request to the
/// write loop, which applies it between batches; the response
/// acknowledges acceptance, not completion.
fn session_control(req: &Request, r: &RouterImpl, open: bool) -> Result<Response, String> {
    let ctx = &*r.ctx;
    let source: VertexId = req.require("source")?;
    if open && source as usize >= ctx.vertex_bound {
        return Err(format!(
            "source {source} is outside the graph's vertex bound {}",
            ctx.vertex_bound
        ));
    }
    let ctl = if open { Control::Open(source) } else { Control::Close(source) };
    let accepted = r.ctl_tx.send(ctl).is_ok();
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("accepted").bool(accepted);
    j.key(if open { "opening" } else { "closing" }).uint(source as u64);
    j.end_obj();
    Ok(Response::new(200, j.finish()))
}

#[cfg(test)]
mod tests {
    use crate::server::{ServeConfig, ServerHandle};
    use dppr_graph::generators::erdos_renyi;
    use dppr_graph::GraphStream;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering::Relaxed;
    use std::time::{Duration, Instant};

    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// One `Connection: close` request: `(status, head, body)`.
    fn request(handle: &ServerHandle, method: &str, target: &str) -> (u16, String, String) {
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        write!(conn, "{method} {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
        let status = head[9..12].parse().unwrap();
        (status, head.to_string(), body.to_string())
    }

    /// A one-slide instance whose write loop is parked: it has cleared the
    /// slide's lag marker and never touches it again, so the marker is the
    /// test's to set.
    fn frozen_instance(shed_after: Duration) -> ServerHandle {
        let stream = GraphStream::directed(erdos_renyi(60, 600, 5)).permuted(1);
        let cfg = ServeConfig { threads: 1, max_slides: 1, shed_after, ..ServeConfig::default() };
        let handle = crate::start(stream, 0.1, &[0], cfg).expect("server starts");
        wait_for("the slide", || handle.epoch() >= 2);
        // The write loop applies control messages only between slides: an
        // open sent after epoch 2 was published lands after that slide
        // cleared its marker.
        request(&handle, "POST", "/session/open?source=1");
        wait_for("the open", || handle.registry().sources().contains(&1));
        handle
    }

    /// Marks a slide as in flight since the instance started, at least
    /// 20 ms ago — longer than any `shed_after` here.
    fn mark_old_slide(handle: &ServerHandle) {
        std::thread::sleep(Duration::from_millis(20));
        handle.ctx.slide_started_ns.store(1, Relaxed);
    }

    #[test]
    fn lagging_write_loop_sheds_queries_and_counts_them() {
        let handle = frozen_instance(Duration::from_millis(5));
        let (status, _, body) = request(&handle, "GET", "/topk?source=0&k=3");
        assert_eq!(status, 200, "{body}");

        mark_old_slide(&handle);
        let shed = handle.stats().shed.load(Relaxed);
        let requests = handle.conn_counters().requests.load(Relaxed);
        let (status, head, body) = request(&handle, "GET", "/topk?source=0&k=3");
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("\r\nRetry-After: 1\r\n"), "{head}");
        assert_eq!(body, r#"{"error":"write loop is behind; retry shortly"}"#);
        let (_, _, health) = request(&handle, "GET", "/healthz");
        assert!(health.contains("\"lagging\":true"), "{health}");
        // Every shed is also a counted request (the `/healthz` one too).
        assert_eq!(handle.stats().shed.load(Relaxed), shed + 1);
        assert_eq!(handle.conn_counters().requests.load(Relaxed), requests + 2);

        handle.ctx.slide_started_ns.store(0, Relaxed);
        let (status, _, body) = request(&handle, "GET", "/topk?source=0&k=3");
        assert_eq!(status, 200, "{body}");
        let (_, _, health) = request(&handle, "GET", "/healthz");
        assert!(health.contains("\"lagging\":false"), "{health}");
        handle.join();
    }

    #[test]
    fn zero_shed_after_never_sheds() {
        let handle = frozen_instance(Duration::ZERO);
        mark_old_slide(&handle);
        let (status, _, body) = request(&handle, "GET", "/topk?source=0&k=3");
        assert_eq!(status, 200, "{body}");
        assert_eq!(handle.stats().shed.load(Relaxed), 0);
        handle.join();
    }
}
