//! The write and read pipelines re-assembled from public calls.
//!
//! `dppr_serve::server` keeps its write loop and its router private, and
//! the engines time `apply_batch` as one number. To see inside them
//! without touching them, the traced run rebuilds the same sequence of
//! public calls here — `StreamDriver::slide_batch`, `Wal::append`,
//! `DynamicGraph::apply`, `restore_invariant_with_degree`, the push
//! kernels, `QuerySnapshot::from_state`, `SessionEntry::publish`,
//! `http::try_parse`, `QueryCache::get_or_render`, `render_response` —
//! with a span around each. The rebuilt pipeline must end in state that
//! is bit-identical to the real one's (`traced_pipeline_identical`), or
//! its spans describe some other program.

use crate::inputs::{ALPHA, INIT_FRACTION};
use crate::span::{SpanId, Tracer};
use dppr_core::invariant::restore_invariant_with_degree;
use dppr_core::par::{parallel_local_push, ParPushBuffers};
use dppr_core::seq::{sequential_local_push, SeqPushBuffers};
use dppr_core::{CounterSnapshot, Counters, PprConfig, PprState, PushVariant};
use dppr_graph::{EdgeUpdate, GraphStream, VertexId};
use dppr_serve::http::{self, Parsed, Request, Response};
use dppr_serve::json::JsonBuf;
use dppr_serve::{
    durability, DurabilityConfig, EpochDomain, QueryCache, QueryKind, QuerySnapshot, Reader,
    SessionRegistry,
};
use dppr_stream::StreamDriver;
use dppr_wal::{Wal, WalOptions, WalRecord};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Which push kernel a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `sequential_local_push` (what `SeqEngine` batched runs).
    Seq,
    /// `parallel_local_push` with `PushVariant::OPT` (what
    /// `ParallelEngine` and `MultiSourcePpr` run).
    Par,
}

enum Bufs {
    Seq(SeqPushBuffers),
    Par(ParPushBuffers),
}

struct Session {
    state: PprState,
    bufs: Bufs,
}

struct Publisher {
    domain: Arc<EpochDomain>,
    registry: SessionRegistry,
}

/// How long the two halves of a boot took.
#[derive(Debug, Clone, Copy)]
pub struct BootTimes {
    /// Applying the initial window to the graph.
    pub ingest_s: f64,
    /// Restoring and pushing every session to convergence on it.
    pub bootstrap_s: f64,
    /// Edges in the initial window.
    pub window_edges: usize,
}

/// What one slide did.
#[derive(Debug, Clone, Copy)]
pub struct SlideOutcome {
    /// Updates handed to the pipeline (inserts + deletes).
    pub offered: usize,
}

/// The write path: window slide → (WAL append) → graph apply → per
/// session restore + push → (estimates → publish).
pub struct WritePipeline {
    driver: StreamDriver,
    sessions: Vec<Session>,
    counters: Counters,
    batch: usize,
    wal: Option<Wal>,
    publisher: Option<Publisher>,
    applied: Vec<(EdgeUpdate, usize)>,
    seeds: Vec<VertexId>,
    slides: u64,
}

impl WritePipeline {
    /// A library pipeline: one session, no WAL, nothing published.
    pub fn library(
        stream: GraphStream,
        source: VertexId,
        epsilon: f64,
        batch: usize,
        kernel: Kernel,
    ) -> (Self, BootTimes) {
        Self::boot(stream, &[source], epsilon, batch, kernel, None, false)
            .expect("a pipeline without a WAL does no I/O")
    }

    /// The server's write loop: `sources.len()` sessions on the parallel
    /// kernel, published under an epoch domain, and with `durable` a WAL
    /// and the epoch-1 base checkpoint exactly as `durable_boot` writes
    /// them.
    pub fn server(
        stream: GraphStream,
        sources: &[VertexId],
        epsilon: f64,
        batch: usize,
        durable: Option<&DurabilityConfig>,
    ) -> io::Result<(Self, BootTimes)> {
        Self::boot(stream, sources, epsilon, batch, Kernel::Par, durable, true)
    }

    fn boot(
        stream: GraphStream,
        sources: &[VertexId],
        epsilon: f64,
        batch: usize,
        kernel: Kernel,
        durable: Option<&DurabilityConfig>,
        publish: bool,
    ) -> io::Result<(Self, BootTimes)> {
        let mut wal = match durable {
            Some(d) => {
                std::fs::create_dir_all(&d.data_dir)?;
                let opts = WalOptions {
                    segment_bytes: d.segment_bytes,
                    fsync: d.fsync,
                };
                Some(Wal::open(&durability::wal_dir(&d.data_dir), opts)?.0)
            }
            None => None,
        };
        let sessions = sources
            .iter()
            .map(|&s| Session {
                state: PprState::new(PprConfig::new(s, ALPHA, epsilon)),
                bufs: match kernel {
                    Kernel::Seq => Bufs::Seq(SeqPushBuffers::new()),
                    Kernel::Par => Bufs::Par(ParPushBuffers::new()),
                },
            })
            .collect();
        let mut p = WritePipeline {
            driver: StreamDriver::new(stream, INIT_FRACTION),
            sessions,
            counters: Counters::new(),
            batch,
            wal: None,
            publisher: None,
            applied: Vec::new(),
            seeds: Vec::new(),
            slides: 0,
        };
        let init = p.driver.take_initial_batch();
        let t = Instant::now();
        p.apply_to_graph(&init);
        let ingest_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for i in 0..p.sessions.len() {
            p.restore(i);
            p.push(i);
        }
        let bootstrap_s = t.elapsed().as_secs_f64();
        if publish {
            let domain = EpochDomain::new(4);
            let registry = SessionRegistry::new(Arc::clone(&domain), sources.len().max(1));
            let epoch = domain.advance();
            for s in &p.sessions {
                let snap = QuerySnapshot::from_state(&s.state, epoch);
                registry.open(s.state.config().source, Arc::new(snap));
            }
            p.publisher = Some(Publisher { domain, registry });
        }
        if let (Some(d), Some(w)) = (durable, wal.as_mut()) {
            let states: Vec<PprState> = p.sessions.iter().map(|s| s.state.clone_values()).collect();
            durability::write_checkpoint(&d.data_dir, 1, p.driver.window_range(), &states)?;
            w.append(&WalRecord::Checkpoint { epoch: 1 })?;
            w.sync()?;
        }
        p.wal = wal;
        let window_edges = p.driver.window().window_len();
        Ok((
            p,
            BootTimes {
                ingest_s,
                bootstrap_s,
                window_edges,
            },
        ))
    }

    /// The server's write loop resumed from one of its own checkpoints,
    /// the way `durable_boot` resumes it: window and graph rebuilt from
    /// the stream, states adopted verbatim, epoch numbering continued.
    /// Nothing is logged.
    pub fn resume_server(
        stream: GraphStream,
        ckpt: durability::LoadedCheckpoint,
        batch: usize,
    ) -> Self {
        let driver = StreamDriver::resume_from(stream, ckpt.window_start, ckpt.window_end);
        let domain = EpochDomain::new(4);
        domain.resume_at(ckpt.epoch);
        let registry = SessionRegistry::new(Arc::clone(&domain), ckpt.states.len().max(1));
        for st in &ckpt.states {
            let snap = QuerySnapshot::from_state(st, ckpt.epoch);
            registry.open(st.config().source, Arc::new(snap));
        }
        let sessions = ckpt
            .states
            .into_iter()
            .map(|state| Session {
                state,
                bufs: Bufs::Par(ParPushBuffers::new()),
            })
            .collect();
        WritePipeline {
            driver,
            sessions,
            counters: Counters::new(),
            batch,
            wal: None,
            publisher: Some(Publisher { domain, registry }),
            applied: Vec::new(),
            seeds: Vec::new(),
            // Bootstrap published epoch 1 and slide `id` publishes `id + 2`.
            slides: ckpt.epoch - 1,
        }
    }

    /// Mutates the graph once, recording each applied update with its
    /// post-update out-degree (the `d_j(u)` of Lemma 3) so the repairs can
    /// be replayed against every session afterwards.
    fn apply_to_graph(&mut self, batch: &[EdgeUpdate]) {
        self.applied.clear();
        self.seeds.clear();
        let g = self.driver.graph_mut();
        for &upd in batch {
            if g.apply(upd) {
                self.applied.push((upd, g.out_degree(upd.src)));
                self.seeds.push(upd.src);
            }
        }
    }

    fn restore(&mut self, i: usize) {
        let n = self.driver.graph().num_vertices();
        let st = &mut self.sessions[i].state;
        st.ensure_len(n);
        for &(upd, dout_after) in &self.applied {
            restore_invariant_with_degree(st, upd.src, upd.dst, upd.op, dout_after);
        }
        self.counters.record_restores(self.applied.len() as u64);
    }

    fn push(&mut self, i: usize) {
        let g = self.driver.graph();
        let s = &mut self.sessions[i];
        match &mut s.bufs {
            Bufs::Seq(b) => sequential_local_push(g, &s.state, &self.seeds, &self.counters, b),
            Bufs::Par(b) => parallel_local_push(
                g,
                &s.state,
                PushVariant::OPT,
                &self.seeds,
                &self.counters,
                b,
            ),
        }
    }

    /// One window slide with a span around every layer call; `None` when
    /// the stream is exhausted.
    pub fn slide(&mut self, tr: &mut Tracer) -> io::Result<Option<SlideOutcome>> {
        let id = self.slides;
        let root = tr.begin("slide", id, None);
        let parent = Some(root);
        let Some(batch) = tr.scope("stream.slide_batch", id, parent, || {
            self.driver.slide_batch(self.batch)
        }) else {
            tr.end(root);
            return Ok(None);
        };
        if let Some(wal) = self.wal.as_mut() {
            let (ws, we) = self.driver.window_range();
            // Bootstrap published epoch 1; slide `id` publishes `id + 2`.
            let epoch = id + 2;
            tr.scope("wal.append", id, parent, || {
                wal.append(&WalRecord::Batch {
                    epoch,
                    window_start: ws as u64,
                    window_end: we as u64,
                    updates: batch.clone(),
                })
            })?;
        }
        tr.scope("graph.apply", id, parent, || self.apply_to_graph(&batch));
        for i in 0..self.sessions.len() {
            tr.scope("core.restore", id, parent, || self.restore(i));
            tr.scope("core.push", id, parent, || self.push(i));
        }
        if let Some(p) = &self.publisher {
            let epoch = p.domain.advance();
            for s in &self.sessions {
                let snap = tr.scope("core.estimates", id, parent, || {
                    QuerySnapshot::from_state(&s.state, epoch)
                });
                tr.scope("serve.publish", id, parent, || {
                    if let Some(entry) = p.registry.peek(s.state.config().source) {
                        entry.publish(&p.domain, Arc::new(snap));
                    }
                });
            }
        }
        tr.end(root);
        self.slides += 1;
        Ok(Some(SlideOutcome {
            offered: batch.len(),
        }))
    }

    /// Cumulative push-work counters over all sessions.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// The graph as of the last slide.
    pub fn graph(&self) -> &dppr_graph::DynamicGraph {
        self.driver.graph()
    }

    /// The maintained state of session `i`.
    pub fn state(&self, i: usize) -> &PprState {
        &self.sessions[i].state
    }

    /// `(source, state fingerprint)` per session, in session order — the
    /// same shape `boot_probe` reports.
    #[cfg(test)]
    fn state_fingerprints(&self) -> Vec<(VertexId, u64)> {
        self.sessions
            .iter()
            .map(|s| {
                (
                    s.state.config().source,
                    dppr_core::persist::state_fingerprint(&s.state),
                )
            })
            .collect()
    }

    /// The registry this pipeline publishes into (server pipelines only).
    pub fn registry(&self) -> Option<&SessionRegistry> {
        self.publisher.as_ref().map(|p| &p.registry)
    }

    /// WAL counters (durable pipelines only).
    pub fn wal_stats(&self) -> Option<dppr_wal::WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }
}

// --- the read path ---------------------------------------------------------

fn push_bounded(j: &mut JsonBuf, b: &dppr_core::queries::BoundedScore) {
    j.begin_obj();
    j.key("vertex").uint(b.vertex as u64);
    j.key("estimate").num(b.estimate);
    j.key("lo").num(b.lo);
    j.key("hi").num(b.hi);
    j.end_obj();
}

/// The body `/topk` must return for `snap`, byte for byte.
pub fn render_topk(
    snap: &QuerySnapshot,
    k: usize,
    tr: Option<(&mut Tracer, u64, SpanId)>,
) -> String {
    let ans = match tr {
        Some((tr, id, parent)) => tr.scope("core.topk", id, Some(parent), || snap.top_k(k)),
        None => snap.top_k(k),
    };
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("source").uint(snap.source() as u64);
    j.key("epoch").uint(snap.epoch());
    j.key("epsilon").num(snap.epsilon());
    j.key("k").uint(k as u64);
    j.key("set_is_certain").bool(ans.set_is_certain);
    j.key("ranking").begin_arr();
    for b in &ans.ranking {
        push_bounded(&mut j, b);
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

fn render_score(snap: &QuerySnapshot, v: VertexId) -> String {
    let b = snap.score(v);
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("source").uint(snap.source() as u64);
    j.key("epoch").uint(snap.epoch());
    j.key("epsilon").num(snap.epsilon());
    j.key("vertex").uint(v as u64);
    j.key("estimate").num(b.estimate);
    j.key("lo").num(b.lo);
    j.key("hi").num(b.hi);
    j.end_obj();
    j.finish()
}

fn render_threshold(snap: &QuerySnapshot, delta: f64) -> String {
    let ans = snap.above_threshold(delta);
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("source").uint(snap.source() as u64);
    j.key("epoch").uint(snap.epoch());
    j.key("delta").num(delta);
    j.key("certain").begin_arr();
    for b in &ans.certain {
        push_bounded(&mut j, b);
    }
    j.end_arr();
    j.key("possible").begin_arr();
    for b in &ans.possible {
        push_bounded(&mut j, b);
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

fn render_compare(snap: &QuerySnapshot, a: VertexId, b: VertexId) -> String {
    let order = match snap.compare(a, b) {
        Some(std::cmp::Ordering::Greater) => "greater",
        Some(std::cmp::Ordering::Less) => "less",
        Some(std::cmp::Ordering::Equal) => "equal",
        None => "undecidable",
    };
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("source").uint(snap.source() as u64);
    j.key("epoch").uint(snap.epoch());
    j.key("a").uint(a as u64);
    j.key("b").uint(b as u64);
    j.key("order").str(order);
    j.end_obj();
    j.finish()
}

/// A parsed query endpoint and its parameters.
#[derive(Clone, Copy)]
enum Routed {
    TopK(usize),
    Score(VertexId),
    Threshold(f64),
    Compare(VertexId, VertexId),
}

/// The read path: bytes → parse → session lookup → cache-or-render →
/// response bytes, against a [`WritePipeline`]'s registry.
pub struct ReadPipeline {
    cache: QueryCache,
    reader: Reader,
    out: Vec<u8>,
    requests: u64,
}

impl ReadPipeline {
    pub fn new(registry: &SessionRegistry, cache_capacity: usize) -> Self {
        ReadPipeline {
            cache: QueryCache::new(cache_capacity),
            reader: registry.domain().register_reader(),
            out: Vec::with_capacity(4096),
            requests: 0,
        }
    }

    /// Serves one request head; returns the status written.
    pub fn serve(
        &mut self,
        registry: &SessionRegistry,
        request: &[u8],
        tr: &mut Tracer,
    ) -> Result<u16, String> {
        let id = self.requests;
        self.requests += 1;
        let root = tr.begin("request", id, None);
        let parent = Some(root);
        let parsed = tr.scope("serve.parse", id, parent, || http::try_parse(request))?;
        let Parsed::Complete {
            req, keep_alive, ..
        } = parsed
        else {
            return Err("incomplete request head".into());
        };
        let resp = self.route(registry, &req, tr, id, root)?;
        self.out.clear();
        tr.scope("serve.write", id, parent, || {
            http::render_response(&mut self.out, &resp, keep_alive)
        });
        tr.end(root);
        Ok(resp.status)
    }

    fn route(
        &mut self,
        registry: &SessionRegistry,
        req: &Request,
        tr: &mut Tracer,
        id: u64,
        root: SpanId,
    ) -> Result<Response, String> {
        let source: VertexId = req.require("source")?;
        let Some(entry) = registry.lookup(source) else {
            return Ok(Response::new(
                404,
                dppr_serve::json::error_body("no open session"),
            ));
        };
        let snap = entry.load(&self.reader);
        let query = match req.path.as_str() {
            "/topk" => Routed::TopK(req.parsed_or("k", 10)?),
            "/score" => Routed::Score(req.require("v")?),
            "/threshold" => Routed::Threshold(req.require_finite("delta")?),
            "/compare" => Routed::Compare(req.require("a")?, req.require("b")?),
            other => return Err(format!("unrouted path {other}")),
        };
        let kind = match query {
            Routed::TopK(k) => QueryKind::TopK(k),
            Routed::Score(v) => QueryKind::Score(v),
            Routed::Threshold(delta) => QueryKind::Threshold(delta.to_bits()),
            Routed::Compare(a, b) => QueryKind::Compare(a, b),
        };
        let span = tr.begin("serve.cache", id, Some(root));
        let (body, _) =
            self.cache
                .get_or_render(snap.source(), kind, snap.epoch(), || match query {
                    Routed::TopK(k) => render_topk(&snap, k, Some((tr, id, span))),
                    Routed::Score(v) => render_score(&snap, v),
                    Routed::Threshold(delta) => render_threshold(&snap, delta),
                    Routed::Compare(a, b) => render_compare(&snap, a, b),
                });
        tr.end(span);
        Ok(Response::new(200, body))
    }

    #[cfg(test)]
    fn cache_stats(&self) -> dppr_serve::CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;
    use crate::loadgen::QueryMix;
    use dppr_core::persist::state_fingerprint;
    use dppr_core::{DynamicPprEngine, ParallelEngine, SeqEngine, UpdateMode};

    /// The rebuilt library pipeline must leave exactly the state the
    /// engines leave, for both kernels.
    #[test]
    fn library_pipeline_matches_the_engines_bit_for_bit() {
        let inputs = generate(9, 6_000, 11);
        let source = crate::inputs::hub_source(&inputs.stream);
        let cfg = PprConfig::new(source, ALPHA, 1e-4);
        for kernel in [Kernel::Seq, Kernel::Par] {
            let mut driver = StreamDriver::new(inputs.stream.clone(), INIT_FRACTION);
            let mut seq = SeqEngine::new(cfg, UpdateMode::Batched);
            let mut par = ParallelEngine::new(cfg, PushVariant::OPT);
            let engine: &mut dyn DynamicPprEngine = match kernel {
                Kernel::Seq => &mut seq,
                Kernel::Par => &mut par,
            };
            driver.bootstrap(engine);
            let (mut pipe, _) =
                WritePipeline::library(inputs.stream.clone(), source, 1e-4, 20, kernel);
            let mut tr = Tracer::with_capacity(1024);
            for _ in 0..25 {
                let batch = driver.slide_batch(20).unwrap();
                engine.apply_batch(driver.graph_mut(), &batch);
                pipe.slide(&mut tr).unwrap().unwrap();
            }
            let want = match kernel {
                Kernel::Seq => state_fingerprint(seq.state()),
                Kernel::Par => state_fingerprint(par.state()),
            };
            assert_eq!(
                pipe.state_fingerprints(),
                vec![(source, want)],
                "{kernel:?}"
            );
            assert_eq!(tr.durations("slide").len(), 25);
        }
    }

    #[test]
    fn read_pipeline_answers_the_whole_mix() {
        let inputs = generate(9, 6_000, 3);
        let sources = dppr_serve::pick_top_degree_sources(&inputs.stream, INIT_FRACTION, 4);
        let (mut pipe, _) =
            WritePipeline::server(inputs.stream.clone(), &sources, 1e-3, 10, None).unwrap();
        let mut tr = Tracer::with_capacity(4096);
        pipe.slide(&mut tr).unwrap().unwrap();
        let registry = pipe.registry().unwrap();
        let mut read = ReadPipeline::new(registry, 64);
        let deltas = vec![[0.14, 0.05, 0.01]; sources.len()];
        let mut mix = QueryMix::new(5, &sources, &deltas, inputs.vertex_bound);
        for _ in 0..200 {
            let q = mix.next_query();
            assert_eq!(
                read.serve(registry, &q.request_bytes(), &mut tr),
                Ok(200),
                "{q:?}"
            );
        }
        let stats = read.cache_stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(
            stats.hits > 0,
            "repeated top-k and threshold queries must hit"
        );
        assert_eq!(tr.durations("request").len(), 200);
        assert!(!tr.durations("core.topk").is_empty());
    }
}
