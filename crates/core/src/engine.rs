//! The engine line-up of the paper's §5.1, behind one trait.
//!
//! * `CPU-Base` — [`SeqEngine`] with [`UpdateMode::PerUpdate`]: restore the
//!   invariant and run the sequential push after **every single** update
//!   (the state-of-the-art of [49] as the paper benchmarks it).
//! * `CPU-Seq` — [`SeqEngine`] with [`UpdateMode::Batched`]: restore the
//!   invariant for the whole batch, then one sequential push.
//! * `CPU-MT` — [`ParallelEngine`]: batch restore + the parallel push of
//!   Algorithms 3/4, with a configurable [`PushVariant`] and thread count.
//!
//! Each restores through [`crate::invariant::absorb_batch`]: the graph
//! absorbs the batch (for `CPU-Base`, the one update) in one pass that
//! records every repair into the engine's reused
//! [`Repairs`](crate::invariant::Repairs), which is then replayed against
//! the state, and the repairs' sources seed the push — the
//! same path [`crate::MultiSourcePpr`] takes for many states, so an engine
//! and a one-session bundle fed the same stream hold the same bits.
//!
//! The Monte-Carlo and Ligra-style baselines implement the same trait from
//! their own crates (`dppr-mc`, `dppr-vc`).

use crate::config::PprConfig;
use crate::counters::{CounterSnapshot, Counters};
use crate::fanout::default_threads;
use crate::invariant::{absorb_batch, Repairs};
use crate::par::{parallel_local_push_opts, ParPushBuffers, PushOpts};
use crate::seq::{sequential_local_push, SeqPushBuffers};
use crate::state::PprState;
use crate::variants::PushVariant;
use dppr_graph::{DynamicGraph, EdgeUpdate, VertexId};
use std::time::{Duration, Instant};

/// Outcome of one [`DynamicPprEngine::apply_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Wall-clock time for the whole batch (restore + push).
    pub latency: Duration,
    /// Updates that actually changed the graph.
    pub applied: usize,
    /// Counter deltas attributable to this batch.
    pub counters: CounterSnapshot,
}

/// A maintained approximate PPR vector that can absorb update batches.
pub trait DynamicPprEngine {
    /// Human-readable engine name (mirrors the paper's legend labels).
    fn name(&self) -> String;

    /// The problem parameters.
    fn config(&self) -> &PprConfig;

    /// Applies one batch of edge updates to `g` *and* to the maintained
    /// PPR vector, leaving the estimate ε-accurate.
    fn apply_batch(&mut self, g: &mut DynamicGraph, batch: &[EdgeUpdate]) -> BatchStats;

    /// The current estimate for one vertex.
    fn estimate(&self, v: VertexId) -> f64;

    /// The full estimate vector.
    fn estimates(&self) -> Vec<f64>;

    /// Cumulative profiling counters (zero if the engine has none).
    fn counters(&self) -> CounterSnapshot {
        CounterSnapshot::default()
    }
}

/// Whether a sequential engine synchronizes per update or per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Restore + push after every single update (`CPU-Base`).
    PerUpdate,
    /// Restore the whole batch, then one push (`CPU-Seq`).
    Batched,
}

/// The sequential local-update engine of Zhang et al. [49].
pub struct SeqEngine {
    state: PprState,
    mode: UpdateMode,
    counters: Counters,
    bufs: SeqPushBuffers,
    repairs: Repairs,
}

impl SeqEngine {
    /// Creates an engine for an empty graph.
    pub fn new(cfg: PprConfig, mode: UpdateMode) -> Self {
        SeqEngine {
            state: PprState::new(cfg),
            mode,
            counters: Counters::new(),
            bufs: SeqPushBuffers::new(),
            repairs: Repairs::default(),
        }
    }

    /// Direct access to the maintained state.
    pub fn state(&self) -> &PprState {
        &self.state
    }
}

impl DynamicPprEngine for SeqEngine {
    fn name(&self) -> String {
        match self.mode {
            UpdateMode::PerUpdate => "CPU-Base".into(),
            UpdateMode::Batched => "CPU-Seq".into(),
        }
    }

    fn config(&self) -> &PprConfig {
        self.state.config()
    }

    fn apply_batch(&mut self, g: &mut DynamicGraph, batch: &[EdgeUpdate]) -> BatchStats {
        let before = self.counters.snapshot();
        let start = Instant::now();
        // `CPU-Base` absorbs and pushes one update at a time, `CPU-Seq`
        // the whole batch at once.
        let part_len = match self.mode {
            UpdateMode::PerUpdate => 1,
            UpdateMode::Batched => batch.len().max(1),
        };
        let mut applied = 0usize;
        for part in batch.chunks(part_len) {
            let seeds = absorb_batch(g, &mut self.state, part, &self.counters, &mut self.repairs);
            sequential_local_push(g, &self.state, seeds, &self.counters, &mut self.bufs);
            applied += self.repairs.list.len();
        }
        self.counters.record_batch();
        BatchStats {
            latency: start.elapsed(),
            applied,
            counters: self.counters.snapshot() - before,
        }
    }

    fn estimate(&self, v: VertexId) -> f64 {
        self.state.p(v)
    }

    fn estimates(&self) -> Vec<f64> {
        self.state.estimates()
    }

    fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }
}

/// The paper's parallel local-update engine (`CPU-MT`).
pub struct ParallelEngine {
    state: PprState,
    variant: PushVariant,
    counters: Counters,
    bufs: ParPushBuffers,
    repairs: Repairs,
    threads: usize,
    opts: PushOpts,
}

impl ParallelEngine {
    /// Creates an engine that fans large frontiers out over every core
    /// ([`default_threads`]).
    pub fn new(cfg: PprConfig, variant: PushVariant) -> Self {
        Self::with_threads(cfg, variant, default_threads())
    }

    /// Creates an engine whose fanned-out iterations use `threads` threads
    /// (the scalability experiment of Figure 10). With `threads = 1` no
    /// iteration ever leaves the calling thread, so equal inputs give
    /// bit-identical states.
    pub fn with_threads(cfg: PprConfig, variant: PushVariant, threads: usize) -> Self {
        ParallelEngine {
            state: PprState::new(cfg),
            variant,
            counters: Counters::new(),
            bufs: ParPushBuffers::new(),
            repairs: Repairs::default(),
            threads,
            opts: PushOpts::default(),
        }
    }

    /// Overrides the push tuning options (granularity ablation).
    pub fn set_opts(&mut self, opts: PushOpts) {
        self.opts = opts;
    }

    /// The push variant this engine runs.
    pub fn variant(&self) -> PushVariant {
        self.variant
    }

    /// Direct access to the maintained state.
    pub fn state(&self) -> &PprState {
        &self.state
    }
}

impl DynamicPprEngine for ParallelEngine {
    fn name(&self) -> String {
        format!("CPU-MT[{}]", self.variant)
    }

    fn config(&self) -> &PprConfig {
        self.state.config()
    }

    fn apply_batch(&mut self, g: &mut DynamicGraph, batch: &[EdgeUpdate]) -> BatchStats {
        let before = self.counters.snapshot();
        let start = Instant::now();
        // Restore the invariant for the whole batch ("repairing the
        // invariant only takes a constant time" per update, §4), serially:
        // the graph mutation itself is inherently sequential.
        let seeds = absorb_batch(g, &mut self.state, batch, &self.counters, &mut self.repairs);
        // One parallel push for the batch.
        parallel_local_push_opts(
            g,
            &self.state,
            self.variant,
            seeds,
            &self.counters,
            &mut self.bufs,
            self.opts,
            self.threads,
        );
        self.counters.record_batch();
        BatchStats {
            latency: start.elapsed(),
            applied: self.repairs.list.len(),
            counters: self.counters.snapshot() - before,
        }
    }

    fn estimate(&self, v: VertexId) -> f64 {
        self.state.p(v)
    }

    fn estimates(&self) -> Vec<f64> {
        self.state.estimates()
    }

    fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fanout::FAN_OUT_MIN;
    use crate::ground_truth::exact_ppr;
    use crate::invariant::max_invariant_violation;
    use crate::persist::state_fingerprint;
    use dppr_graph::generators::{barabasi_albert, erdos_renyi, undirected_to_directed};

    fn batches(seed: u64) -> Vec<Vec<EdgeUpdate>> {
        let edges = erdos_renyi(60, 600, seed);
        edges
            .chunks(50)
            .map(|c| c.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect())
            .collect()
    }

    fn check_engine(engine: &mut dyn DynamicPprEngine) {
        let mut g = DynamicGraph::new();
        let mut total_applied = 0;
        for b in batches(21) {
            let stats = engine.apply_batch(&mut g, &b);
            total_applied += stats.applied;
        }
        assert_eq!(total_applied, 600);
        let cfg = *engine.config();
        let truth = exact_ppr(&g, cfg.source, cfg.alpha, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            let err = (engine.estimate(v) - truth[v as usize]).abs();
            assert!(err <= cfg.epsilon + 1e-9, "{}: vertex {v} error {err} > ε", engine.name());
        }
    }

    #[test]
    fn cpu_base_is_epsilon_accurate() {
        let mut e = SeqEngine::new(PprConfig::new(0, 0.2, 1e-3), UpdateMode::PerUpdate);
        check_engine(&mut e);
        assert_eq!(e.name(), "CPU-Base");
    }

    #[test]
    fn cpu_seq_is_epsilon_accurate() {
        let mut e = SeqEngine::new(PprConfig::new(0, 0.2, 1e-3), UpdateMode::Batched);
        check_engine(&mut e);
        assert_eq!(e.name(), "CPU-Seq");
    }

    #[test]
    fn cpu_mt_all_variants_epsilon_accurate() {
        for variant in PushVariant::ALL {
            let mut e = ParallelEngine::new(PprConfig::new(0, 0.2, 1e-3), variant);
            check_engine(&mut e);
        }
    }

    #[test]
    fn dedicated_pool_engine_works() {
        let mut e = ParallelEngine::with_threads(PprConfig::new(0, 0.2, 1e-3), PushVariant::OPT, 2);
        check_engine(&mut e);
        assert_eq!(e.name(), "CPU-MT[Opt]");
    }

    /// A stream wide enough that its push frontiers pass `FAN_OUT_MIN` (the
    /// users assert it): a 12k-vertex BA graph loaded in one batch, then a
    /// window-style batch that retracts the oldest arcs and inserts fresh
    /// ones.
    pub(crate) fn wide_stream() -> [Vec<EdgeUpdate>; 2] {
        let edges = undirected_to_directed(&barabasi_albert(12_000, 3, 41));
        let load = edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        let slide = edges[..2_000]
            .iter()
            .map(|&(u, v)| EdgeUpdate::delete(u, v))
            .chain(erdos_renyi(12_000, 2_000, 5).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)))
            .collect();
        [load, slide]
    }

    /// `CPU-MT[variant]` with `threads` threads over [`wide_stream`].
    fn run_wide_stream(variant: PushVariant, threads: usize) -> (DynamicGraph, ParallelEngine) {
        let [load, slide] = wide_stream();
        let mut g = DynamicGraph::new();
        let mut e = ParallelEngine::with_threads(PprConfig::new(0, 0.2, 1e-6), variant, threads);
        e.apply_batch(&mut g, &load);
        e.apply_batch(&mut g, &slide);
        assert!(
            e.counters().max_frontier >= FAN_OUT_MIN as u64,
            "stream too narrow to fan out: max frontier {}",
            e.counters().max_frontier
        );
        (g, e)
    }

    #[test]
    fn one_thread_engine_is_deterministic_past_the_fan_out_threshold() {
        let (_, a) = run_wide_stream(PushVariant::OPT, 1);
        let (_, b) = run_wide_stream(PushVariant::OPT, 1);
        // Every round was owned by the calling thread: no CAS, no retry.
        assert_eq!(a.counters().cas_retries, 0);
        assert_eq!(b.counters().cas_retries, 0);
        assert_eq!(state_fingerprint(a.state()), state_fingerprint(b.state()));
    }

    /// Every variant's one-thread push over [`wide_stream`], pinned to
    /// literals: the state's bits and every counter of the work. The
    /// determinism tests compare a run with another of the same build; an
    /// add that a change reorders or rounds differently, or a counter that
    /// a change counts differently, moves these literals.
    #[test]
    fn one_thread_push_is_pinned() {
        let got: Vec<_> = PushVariant::ALL
            .into_iter()
            .map(|variant| {
                let (_, e) = run_wide_stream(variant, 1);
                let c = e.counters();
                let fp = state_fingerprint(e.state());
                let adds = (c.pushes, c.edge_traversals, c.atomic_adds, c.cas_retries);
                let frontiers = (c.enqueued, c.dup_avoided, c.iterations, c.max_frontier);
                (fp, adds, frontiers)
            })
            .collect();
        // At one thread the claim flags enqueue, and turn away, exactly
        // what local duplicate detection does, so each eager/vanilla pair
        // agrees.
        let eager = (
            11_866_952_711_023_298_490,
            (544_230, 3_256_450, 3_800_680, 0),
            (542_122, 2_751_259, 79, 11_152),
        );
        let vanilla = (
            10_121_663_691_472_039_129,
            (970_898, 5_808_321, 5_808_321, 0),
            (968_792, 3_887_102, 95, 12_000),
        );
        assert_eq!(got, [eager, eager, vanilla, vanilla]);
    }

    /// `CPU-Seq` over [`wide_stream`], pinned like the one-thread parallel
    /// push: the state's bits and the work its FIFO kernel counts, in which
    /// every push is an iteration over a frontier of one vertex.
    #[test]
    fn cpu_seq_push_is_pinned() {
        let [load, slide] = wide_stream();
        let mut g = DynamicGraph::new();
        let mut e = SeqEngine::new(PprConfig::new(0, 0.2, 1e-6), UpdateMode::Batched);
        e.apply_batch(&mut g, &load);
        e.apply_batch(&mut g, &slide);
        let c = e.counters();
        let got = (
            state_fingerprint(e.state()),
            c.pushes,
            c.edge_traversals,
            c.iterations,
            c.max_frontier,
        );
        assert_eq!(got, (10_445_728_618_809_296_132, 545_616, 3_261_567, 545_616, 1));
    }

    #[test]
    fn three_thread_engine_stays_within_two_epsilon_of_one_thread() {
        let (_, one) = run_wide_stream(PushVariant::OPT, 1);
        let (g, three) = run_wide_stream(PushVariant::OPT, 3);
        assert!(max_invariant_violation(&g, three.state()) < 1e-9);
        let eps = three.config().epsilon;
        for v in 0..g.num_vertices() as VertexId {
            let d = (three.estimate(v) - one.estimate(v)).abs();
            assert!(d <= 2.0 * eps + 1e-12, "vertex {v}: 3 threads vs 1 differ by {d}");
        }
    }

    /// Every variant over [`wide_stream`] at 2 and 3 threads, whose wide
    /// rounds fan out over the push's crew with a plain take-out and
    /// self-update: every round's frontier is duplicate-free (the kernel
    /// asserts it in this crate's tests, `--release` included), and each
    /// state converges, keeps Eq. 2 and stays within 2ε of the one-thread
    /// run.
    #[test]
    fn fanned_out_variants_keep_frontiers_distinct_and_within_two_epsilon() {
        for variant in PushVariant::ALL {
            let (_, one) = run_wide_stream(variant, 1);
            for threads in [2, 3] {
                let (g, e) = run_wide_stream(variant, threads);
                let at = format!("{variant} at {threads} threads");
                assert!(e.state().converged(), "{at}");
                let violation = max_invariant_violation(&g, e.state());
                assert!(violation < 1e-9, "{at}: invariant off by {violation}");
                let eps = e.config().epsilon;
                for v in 0..g.num_vertices() as VertexId {
                    let d = (e.estimate(v) - one.estimate(v)).abs();
                    assert!(d <= 2.0 * eps + 1e-12, "{at}: vertex {v} off by {d}");
                }
            }
        }
    }

    /// Every variant over [`wide_stream`] at 1, 2 and 3 threads: the
    /// kernel counts its adds per push, not per edge, and they still add
    /// up — one per in-edge walked, plus one per eager self-update — in
    /// the shared rounds too, which no pin holds. A one-thread push
    /// issues no CAS, so it retries none.
    #[test]
    fn counters_add_up_at_any_thread_count() {
        for variant in PushVariant::ALL {
            for threads in [1, 2, 3] {
                let (_, e) = run_wide_stream(variant, threads);
                let c = e.counters();
                let at = format!("{variant} at {threads} threads");
                let self_updates = if variant.eager { c.pushes } else { 0 };
                assert_eq!(c.atomic_adds, c.edge_traversals + self_updates, "{at}");
                if threads == 1 {
                    assert_eq!(c.cas_retries, 0, "{at}");
                }
            }
        }
    }

    #[test]
    fn mixed_insert_delete_batches_keep_invariant() {
        let mut g = DynamicGraph::new();
        let mut e = ParallelEngine::new(PprConfig::new(1, 0.15, 1e-3), PushVariant::OPT);
        let edges = erdos_renyi(50, 400, 3);
        let ins: Vec<EdgeUpdate> = edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        e.apply_batch(&mut g, &ins);
        // Delete half of them, in one batch that also inserts new edges.
        let mut batch: Vec<EdgeUpdate> =
            edges[..200].iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect();
        batch.extend(erdos_renyi(50, 100, 77).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)));
        let stats = e.apply_batch(&mut g, &batch);
        assert!(stats.applied >= 200);
        assert!(max_invariant_violation(&g, e.state()) < 1e-9);
        let cfg = *e.config();
        let truth = exact_ppr(&g, cfg.source, cfg.alpha, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            assert!((e.estimate(v) - truth[v as usize]).abs() <= cfg.epsilon + 1e-9);
        }
    }

    #[test]
    fn batch_stats_report_latency_and_counters() {
        let mut g = DynamicGraph::new();
        let mut e = SeqEngine::new(PprConfig::new(0, 0.3, 1e-2), UpdateMode::Batched);
        let stats = e.apply_batch(&mut g, &[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 0)]);
        assert_eq!(stats.applied, 2);
        assert_eq!(stats.counters.restore_ops, 2);
        assert_eq!(stats.counters.batches, 1);
        assert_eq!(e.counters().batches, 1);
    }

    #[test]
    fn duplicate_updates_in_batch_are_noops() {
        let mut g = DynamicGraph::new();
        let mut e = ParallelEngine::new(PprConfig::new(0, 0.3, 1e-2), PushVariant::OPT);
        let stats = e.apply_batch(
            &mut g,
            &[
                EdgeUpdate::insert(0, 1),
                EdgeUpdate::insert(0, 1), // duplicate
                EdgeUpdate::delete(5, 6), // absent
            ],
        );
        assert_eq!(stats.applied, 1);
        assert_eq!(g.num_edges(), 1);
    }
}
