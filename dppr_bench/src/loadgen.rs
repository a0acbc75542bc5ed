//! The load generator: seeded query mix, a keep-alive HTTP/1.1 client,
//! and the open- and closed-loop schedulers.
//!
//! The generator is one sleeping thread. In the open loop a request is
//! due at `start + i / rate` whatever the server does, and its latency
//! runs from that due time, so a stall is charged to every request it
//! delays (no coordinated omission), and so is a generator that left
//! late for whatever reason. The generator paces with `sleep` plus a final
//! spin of at most [`SPIN`]; it never busy-waits a whole interval, because
//! a spinning generator would take one of the two processors away from
//! the server it measures.

use dppr_graph::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest final spin before a due time.
pub const SPIN: Duration = Duration::from_micros(50);

/// A query answered 200 within this limit meets the latency objective.
pub const QUERY_LIMIT_MS: f64 = 5.0;

/// A session's threshold queries ask for about this many vertices: its
/// deltas sit just below its 1st, 10th and 100th highest score.
pub const THRESHOLD_RANKS: [usize; 3] = [1, 10, 100];

/// One session's threshold deltas, one per entry of [`THRESHOLD_RANKS`].
pub type Deltas = [f64; THRESHOLD_RANKS.len()];

/// The deltas for a session whose scores are `scores`, each halfway
/// between the score at its rank and the next score that is clearly lower
/// (by more than `2 * epsilon`, the width of an estimate's error band), so
/// that a run of tied scores is selected whole and a maintained vector
/// that drifts by less than ε keeps selecting the same vertices. A hub
/// session holds such runs: every vertex whose only out-edge points at
/// the source scores `(1 - alpha)` times the source's own score. A delta
/// is never above the top score, so no answer is empty, and an answer has
/// a rank's worth of rows plus the ties (measured sizes: `README.md`).
///
/// # Panics
/// When no score is positive; a source always holds at least `alpha`.
pub fn threshold_deltas(scores: &[f64], epsilon: f64) -> Deltas {
    let mut top: Vec<f64> = scores.iter().copied().filter(|&s| s > 0.0).collect();
    assert!(!top.is_empty(), "a session without a positive score");
    top.sort_by(|a, b| b.total_cmp(a));
    THRESHOLD_RANKS.map(|rank| {
        let at = top[rank.min(top.len()) - 1];
        // Scores are descending: `cut` is the first one clearly lower.
        let cut = top.partition_point(|&s| s >= at - 2.0 * epsilon);
        (top[cut - 1] + top.get(cut).copied().unwrap_or(0.0)) / 2.0
    })
}

/// One query of `serve_load`'s mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    TopK {
        source: VertexId,
        k: usize,
    },
    Score {
        source: VertexId,
        v: VertexId,
    },
    Threshold {
        source: VertexId,
        delta: f64,
    },
    Compare {
        source: VertexId,
        a: VertexId,
        b: VertexId,
    },
}

impl Query {
    /// The request target.
    pub fn target(&self) -> String {
        match *self {
            Query::TopK { source, k } => format!("/topk?source={source}&k={k}"),
            Query::Score { source, v } => format!("/score?source={source}&v={v}"),
            Query::Threshold { source, delta } => {
                format!("/threshold?source={source}&delta={delta}")
            }
            Query::Compare { source, a, b } => format!("/compare?source={source}&a={a}&b={b}"),
        }
    }

    /// The full keep-alive request head.
    pub fn request_bytes(&self) -> Vec<u8> {
        format!("GET {} HTTP/1.1\r\nHost: dppr\r\n\r\n", self.target()).into_bytes()
    }
}

/// Seeded generator of the mix top-k .4 / score .4 / threshold .1 /
/// compare .1, with sessions drawn Zipf(1) so a few are hot and the
/// query cache sees repeats.
pub struct QueryMix {
    rng: SmallRng,
    sources: Vec<VertexId>,
    /// Each session's threshold deltas, parallel to `sources`.
    deltas: Vec<Deltas>,
    /// Cumulative Zipf(1) weights over `sources`, last entry 1.0.
    cumulative: Vec<f64>,
    vertex_bound: u32,
}

impl QueryMix {
    pub fn new(seed: u64, sources: &[VertexId], deltas: &[Deltas], vertex_bound: usize) -> Self {
        assert!(!sources.is_empty() && vertex_bound > 0);
        assert_eq!(sources.len(), deltas.len());
        let total: f64 = (1..=sources.len()).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cumulative = (1..=sources.len())
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        QueryMix {
            rng: SmallRng::seed_from_u64(seed),
            sources: sources.to_vec(),
            deltas: deltas.to_vec(),
            cumulative,
            vertex_bound: vertex_bound as u32,
        }
    }

    /// Index of a session drawn Zipf(1).
    fn session(&mut self) -> usize {
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let i = self.cumulative.partition_point(|&c| c < roll);
        i.min(self.sources.len() - 1)
    }

    /// The next query of the sequence.
    pub fn next_query(&mut self) -> Query {
        let session = self.session();
        let source = self.sources[session];
        let n = self.vertex_bound;
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        if roll < 0.4 {
            Query::TopK {
                source,
                k: self.rng.gen_range(5..25usize),
            }
        } else if roll < 0.8 {
            Query::Score {
                source,
                v: self.rng.gen_range(0..n),
            }
        } else if roll < 0.9 {
            // A few distinct deltas per session, so the cache sees repeats.
            Query::Threshold {
                source,
                delta: self.deltas[session][self.rng.gen_range(0..THRESHOLD_RANKS.len())],
            }
        } else {
            Query::Compare {
                source,
                a: self.rng.gen_range(0..n),
                b: self.rng.gen_range(0..n),
            }
        }
    }
}

/// One keep-alive connection.
pub struct Client {
    conn: BufReader<TcpStream>,
}

/// A framed response.
pub struct HttpReply {
    pub status: u16,
    pub body: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            conn: BufReader::new(c),
        })
    }

    /// Writes one request without waiting for its reply.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.conn.get_mut().write_all(request)
    }

    /// Reads one `Content-Length`-framed reply.
    pub fn recv(&mut self) -> io::Result<HttpReply> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        let mut status = None;
        let mut len = None;
        loop {
            line.clear();
            if self.conn.read_line(&mut line)? == 0 {
                return Err(bad("EOF inside response head"));
            }
            if status.is_none() {
                let code = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|c| c.parse::<u16>().ok());
                status = Some(code.ok_or_else(|| bad("malformed status line"))?);
            } else if line == "\r\n" || line == "\n" {
                break;
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| bad("bad Content-Length"))?,
                    );
                }
            }
        }
        let mut body = vec![0u8; len.ok_or_else(|| bad("missing Content-Length"))?];
        self.conn.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        Ok(HttpReply {
            status: status.expect("status parsed above"),
            body,
        })
    }

    /// One request and its reply.
    pub fn call(&mut self, request: &[u8]) -> io::Result<HttpReply> {
        self.send(request)?;
        self.recv()
    }
}

/// Sleeps until just before `due`, then spins the last [`SPIN`].
pub fn pace_until(due: Instant) {
    let now = Instant::now();
    if let Some(wait) = due.checked_duration_since(now) {
        if wait > SPIN {
            std::thread::sleep(wait - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

/// What a scheduler observed. Latencies are in milliseconds and hold
/// successful requests only; `attempted - latencies_ms.len()` failed.
#[derive(Debug, Default)]
pub struct LoadStats {
    pub attempted: u64,
    pub latencies_ms: Vec<f64>,
    /// How far behind its due time each request was actually sent.
    pub lateness_ms: Vec<f64>,
    /// Requests answered within [`QUERY_LIMIT_MS`].
    pub within_limit: u64,
    /// Wall time from the first due time to the last reply.
    pub wall_s: f64,
}

impl LoadStats {
    pub fn failed(&self) -> u64 {
        self.attempted - self.latencies_ms.len() as u64
    }

    /// Share of attempted requests that met the latency objective; a
    /// failed, shed or wrong reply counts as a miss.
    pub fn slo_ratio(&self) -> f64 {
        self.within_limit as f64 / self.attempted.max(1) as f64
    }

    /// Completed requests per second of wall time.
    pub fn qps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Appends the next chunk of the same phase; wall times add, so the
    /// pauses between chunks are not counted.
    pub fn absorb(&mut self, next: LoadStats) {
        self.attempted += next.attempted;
        self.latencies_ms.extend(next.latencies_ms);
        self.lateness_ms.extend(next.lateness_ms);
        self.within_limit += next.within_limit;
        self.wall_s += next.wall_s;
    }
}

/// Open loop: request `i` is due at `start + i / rate_qps` and `call(i)`
/// performs it synchronously, returning whether it succeeded. A request's
/// latency runs from the time it was due, whether it left late because the
/// callee stalled on an earlier one or because the generator was not given
/// a processor in time; `lateness_ms` reports how late each one left.
pub fn open_loop(rate_qps: f64, count: usize, mut call: impl FnMut(usize) -> bool) -> LoadStats {
    let mut stats = LoadStats {
        latencies_ms: Vec::with_capacity(count),
        lateness_ms: Vec::with_capacity(count),
        ..LoadStats::default()
    };
    let start = Instant::now();
    for i in 0..count {
        let due = start + Duration::from_secs_f64(i as f64 / rate_qps);
        pace_until(due);
        stats.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
        stats.attempted += 1;
        if call(i) {
            let ms = due.elapsed().as_secs_f64() * 1e3;
            stats.latencies_ms.push(ms);
            if ms <= QUERY_LIMIT_MS {
                stats.within_limit += 1;
            }
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// Closed loop over `clients.len()` connections with `depth` requests
/// outstanding on each (pipelined on the connection): a connection's next
/// request leaves when one of its replies has arrived. Sends exactly
/// `count` requests: fixed work, so that every run times the same
/// requests. `next` yields the request bytes and `accept` judges each
/// reply. A connection that fails is abandoned with its outstanding
/// requests counted as failed.
pub fn closed_loop(
    clients: &mut [Client],
    depth: usize,
    count: usize,
    mut next: impl FnMut() -> Vec<u8>,
    mut accept: impl FnMut(&HttpReply) -> bool,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let start = Instant::now();
    let mut in_flight: Vec<VecDeque<Instant>> = vec![VecDeque::with_capacity(depth); clients.len()];
    let mut left = count;
    for _ in 0..depth.max(1) {
        for (client, queue) in clients.iter_mut().zip(&mut in_flight) {
            if left > 0 {
                left -= 1;
                stats.attempted += 1;
                if client.send(&next()).is_ok() {
                    queue.push_back(Instant::now());
                }
            }
        }
    }
    let mut turn = 0usize;
    while in_flight.iter().any(|q| !q.is_empty()) {
        let c = turn % clients.len();
        turn += 1;
        let Some(sent) = in_flight[c].pop_front() else {
            continue;
        };
        match clients[c].recv() {
            Ok(reply) if accept(&reply) => {
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                stats.latencies_ms.push(ms);
                if ms <= QUERY_LIMIT_MS {
                    stats.within_limit += 1;
                }
            }
            Ok(_) => {}
            Err(_) => {
                in_flight[c].clear();
                continue;
            }
        }
        if left > 0 {
            left -= 1;
            stats.attempted += 1;
            if clients[c].send(&next()).is_ok() {
                in_flight[c].push_back(Instant::now());
            }
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_has_the_stated_shares() {
        let sources: Vec<VertexId> = (0..32).collect();
        let deltas = vec![[0.14, 0.05, 0.01]; 32];
        let mut a = QueryMix::new(7, &sources, &deltas, 1000);
        let mut b = QueryMix::new(7, &sources, &deltas, 1000);
        let qa: Vec<Query> = (0..4000).map(|_| a.next_query()).collect();
        let qb: Vec<Query> = (0..4000).map(|_| b.next_query()).collect();
        assert_eq!(qa, qb);
        let share = |f: fn(&Query) -> bool| qa.iter().filter(|q| f(q)).count() as f64 / 4000.0;
        assert!((share(|q| matches!(q, Query::TopK { .. })) - 0.4).abs() < 0.05);
        assert!((share(|q| matches!(q, Query::Score { .. })) - 0.4).abs() < 0.05);
        assert!((share(|q| matches!(q, Query::Threshold { .. })) - 0.1).abs() < 0.03);
        // Zipf(1) over 32 sessions: the hottest takes ~1/H(32) = 0.246.
        let hot = qa
            .iter()
            .filter(|q| {
                matches!(
                    q,
                    Query::TopK { source: 0, .. }
                        | Query::Score { source: 0, .. }
                        | Query::Threshold { source: 0, .. }
                        | Query::Compare { source: 0, .. }
                )
            })
            .count() as f64
            / 4000.0;
        assert!((hot - 0.246).abs() < 0.04, "hot share {hot}");
    }

    /// A hub session's shape: the source, a run of tied scores at 0.85 of
    /// it, then a falling tail. Every delta must select something, about
    /// a rank's worth, and keep doing so when the vector drifts within ε.
    #[test]
    fn threshold_deltas_select_a_ranks_worth_and_never_nothing() {
        const EPS: f64 = 1e-4;
        let mut scores = vec![0.0; 5000];
        scores[7] = 0.1537;
        for s in &mut scores[100..140] {
            *s = 0.1306;
        }
        for (i, s) in scores[1000..3000].iter_mut().enumerate() {
            *s = 0.07 / (1.0 + i as f64 / 40.0);
        }
        let deltas = threshold_deltas(&scores, EPS);
        let rows = |scores: &[f64], delta: f64| {
            let ans = dppr_core::queries::above_threshold_scores(scores, EPS, delta);
            ans.certain.len() + ans.possible.len()
        };
        // Rank 1 is the source alone; rank 10 falls inside the run of 40
        // ties and takes all of it; rank 100 is in the tail.
        assert_eq!(rows(&scores, deltas[0]), 1);
        assert_eq!(rows(&scores, deltas[1]), 41);
        assert!((100..=110).contains(&rows(&scores, deltas[2])));
        assert!(deltas[0] > deltas[1] && deltas[1] > deltas[2] && deltas[2] > 0.0);
        let drifted: Vec<f64> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| (s + EPS * 0.9 * ((i % 3) as f64 - 1.0)).max(0.0))
            .collect();
        assert_eq!(rows(&drifted, deltas[0]), 1);
        assert_eq!(rows(&drifted, deltas[1]), 41);
        assert!((90..=120).contains(&rows(&drifted, deltas[2])));
        // Fewer positive scores than a rank: the lowest one still counts.
        let few = threshold_deltas(&[0.0, 0.15, 0.01], EPS);
        assert_eq!(few, [0.08, 0.005, 0.005]);
    }

    #[test]
    fn targets_are_well_formed() {
        assert_eq!(
            Query::TopK { source: 3, k: 7 }.target(),
            "/topk?source=3&k=7"
        );
        assert_eq!(
            Query::Threshold {
                source: 3,
                delta: 0.25
            }
            .target(),
            "/threshold?source=3&delta=0.25"
        );
        let bytes = Query::Score { source: 1, v: 2 }.request_bytes();
        assert!(bytes.ends_with(b"\r\n\r\n"));
    }

    /// Coordinated omission: a server that stalls once must show up in
    /// the latency of the requests that were due during the stall, not
    /// only in the one request that hit it.
    #[test]
    fn open_loop_charges_a_stall_to_later_requests() {
        const STALL: Duration = Duration::from_millis(60);
        let stats = open_loop(1000.0, 120, |i| {
            if i == 10 {
                std::thread::sleep(STALL);
            }
            true
        });
        assert_eq!(stats.attempted, 120);
        assert_eq!(stats.latencies_ms.len(), 120);
        // Request 10 pays the stall; request 30, due 20 ms into it, was
        // still sent ~40 ms late and is charged that wait; a closed-loop
        // timer would have recorded ~0 for it.
        assert!(stats.latencies_ms[10] >= 60.0);
        assert!(
            stats.latencies_ms[30] >= 30.0,
            "request 30: {} ms",
            stats.latencies_ms[30]
        );
        assert!(stats.lateness_ms[30] >= 30.0);
        // The backlog drains: the last request waits less than the stall
        // (loosely, because the tests beside this one keep the host busy).
        assert!(
            stats.latencies_ms[119] < 60.0,
            "request 119: {} ms",
            stats.latencies_ms[119]
        );
        // More than the one stalled request missed the 5 ms objective.
        assert!(
            stats.within_limit < 110,
            "within limit: {}",
            stats.within_limit
        );
    }

    /// Fixed work: a closed loop sends exactly the requests it was asked
    /// for, however many connections and however deep the pipeline.
    #[test]
    fn closed_loop_sends_exactly_its_count() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers every request head on every connection with "ok".
        let server = std::thread::spawn(move || {
            let mut served = 0usize;
            let conns: Vec<_> = (0..2).map(|_| listener.accept().unwrap().0).collect();
            let workers: Vec<_> = conns
                .into_iter()
                .map(|conn| {
                    std::thread::spawn(move || {
                        let mut reader = BufReader::new(conn);
                        let (mut line, mut n) = (String::new(), 0usize);
                        loop {
                            line.clear();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return n;
                            }
                            if line == "\r\n" {
                                n += 1;
                                let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                                if reader.get_mut().write_all(reply).is_err() {
                                    return n;
                                }
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                served += w.join().unwrap();
            }
            served
        });
        let mut clients: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
        let request = Query::Score { source: 1, v: 2 }.request_bytes();
        for (count, depth) in [(37, 8), (3, 8), (16, 1)] {
            let stats = closed_loop(
                &mut clients,
                depth,
                count,
                || request.clone(),
                |r| r.status == 200 && r.body == "ok",
            );
            assert_eq!(stats.attempted, count as u64);
            assert_eq!(stats.latencies_ms.len(), count);
        }
        drop(clients);
        assert_eq!(server.join().unwrap(), 37 + 3 + 16);
    }

    #[test]
    fn pacing_does_not_run_ahead_of_schedule() {
        let start = Instant::now();
        let stats = open_loop(2000.0, 100, |_| true);
        assert!(start.elapsed() >= Duration::from_micros(49_500));
        assert!(stats.lateness_ms.iter().all(|&ms| ms >= 0.0));
    }
}
