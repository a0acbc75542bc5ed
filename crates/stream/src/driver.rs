//! The sliding-window driver and its run reports.

use dppr_core::{BatchStats, CounterSnapshot, DynamicPprEngine};
use dppr_graph::{DynamicGraph, GraphStream, SlidingWindow};
use std::time::Duration;

/// One window slide as observed by the driver.
#[derive(Debug, Clone, Copy)]
pub struct SlideRecord {
    /// Slide index (0-based).
    pub slide: usize,
    /// Updates handed to the engine (inserts + deletes, arcs).
    pub batch_updates: usize,
    /// Updates that actually changed the graph.
    pub applied: usize,
    /// Engine latency for the batch.
    pub latency: Duration,
    /// Counter deltas for the batch.
    pub counters: CounterSnapshot,
    /// The paper's `|V^t|` after the slide — vertices with non-zero
    /// degree. O(1) to record (the graph maintains the count).
    pub active_vertices: usize,
}

/// Aggregate of a streaming run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Engine name.
    pub engine: String,
    /// Number of slides executed.
    pub slides: usize,
    /// Total updates handed to the engine.
    pub total_updates: usize,
    /// Sum of per-slide latencies.
    pub total_latency: Duration,
    /// Per-slide records.
    pub records: Vec<SlideRecord>,
}

impl RunSummary {
    /// Sustained throughput in updates (edge insertions + deletions) per
    /// second — the paper's "edges consumed per second".
    pub fn throughput(&self) -> f64 {
        let secs = self.total_latency.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_updates as f64 / secs
        }
    }

    /// Mean per-slide latency.
    pub fn mean_latency(&self) -> Duration {
        if self.slides == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.slides as u32
        }
    }

    /// Maximum per-slide latency.
    pub fn max_latency(&self) -> Duration {
        self.records
            .iter()
            .map(|r| r.latency)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Sum of counter deltas over all recorded slides.
    pub fn total_counters(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for r in &self.records {
            total.pushes += r.counters.pushes;
            total.edge_traversals += r.counters.edge_traversals;
            total.atomic_adds += r.counters.atomic_adds;
            total.cas_retries += r.counters.cas_retries;
            total.enqueued += r.counters.enqueued;
            total.dup_avoided += r.counters.dup_avoided;
            total.iterations += r.counters.iterations;
            total.max_frontier = total.max_frontier.max(r.counters.max_frontier);
            total.frontier_total += r.counters.frontier_total;
            total.restore_ops += r.counters.restore_ops;
            total.batches += r.counters.batches;
        }
        total
    }
}

/// Owns the graph and the window; feeds any engine.
pub struct StreamDriver {
    window: SlidingWindow,
    graph: DynamicGraph,
    bootstrapped: bool,
}

impl StreamDriver {
    /// Creates a driver whose initial window covers `init_fraction` of the
    /// stream (the paper uses 0.1).
    pub fn new(stream: GraphStream, init_fraction: f64) -> Self {
        StreamDriver {
            window: SlidingWindow::new(stream, init_fraction),
            graph: DynamicGraph::new(),
            bootstrapped: false,
        }
    }

    /// Re-creates a driver at an explicit window position `[start, end)`
    /// — the recovery path. The stream is a seeded permutation, so the
    /// window bounds recorded in a checkpoint fully determine its
    /// content; the graph is rebuilt from the window edges directly (no
    /// engine involvement — recovered PPR states come from the
    /// checkpoint, not from re-pushing). The driver comes back already
    /// bootstrapped: the next [`StreamDriver::slide_batch`] continues the
    /// stream exactly where the crashed process would have.
    pub fn resume_from(stream: GraphStream, start: usize, end: usize) -> Self {
        let window = SlidingWindow::resume_at(stream, start, end);
        let mut graph = DynamicGraph::new();
        for u in window.initial_updates() {
            graph.apply(u);
        }
        StreamDriver { window, graph, bootstrapped: true }
    }

    /// Current window bounds `[start, end)` in logical stream positions —
    /// what a checkpoint records so [`StreamDriver::resume_from`] can
    /// rebuild this exact state.
    pub fn window_range(&self) -> (usize, usize) {
        (self.window.start(), self.window.end())
    }

    /// Total logical edges in the backing stream.
    pub fn stream_len(&self) -> usize {
        self.window.stream_len()
    }

    /// Fraction of the stream that has arrived — window end over stream
    /// length, the serving layer's notion of ingest progress.
    pub fn fraction_consumed(&self) -> f64 {
        let n = self.window.stream_len();
        if n == 0 {
            1.0
        } else {
            self.window.end() as f64 / n as f64
        }
    }

    /// The graph as of the last processed batch.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Mutable access to the owned graph, for callers that maintain their
    /// own state (e.g. a multi-source session registry) and therefore apply
    /// the batches from [`StreamDriver::take_initial_batch`] /
    /// [`StreamDriver::slide_batch`] themselves.
    pub fn graph_mut(&mut self) -> &mut DynamicGraph {
        &mut self.graph
    }

    /// The underlying window.
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// Applies the initial window through the engine as one insertion
    /// batch, so its state is converged before sliding starts.
    pub fn bootstrap(&mut self, engine: &mut dyn DynamicPprEngine) -> BatchStats {
        assert!(!self.bootstrapped, "driver already bootstrapped");
        self.bootstrapped = true;
        let init = self.window.initial_updates();
        engine.apply_batch(&mut self.graph, &init)
    }

    /// Marks the driver bootstrapped and hands back the initial-window
    /// insertion batch instead of applying it. For callers whose state is
    /// not a single [`DynamicPprEngine`] (e.g. `dppr-serve`'s multi-source
    /// registry): apply the batch against [`StreamDriver::graph_mut`]
    /// yourself, then pair with [`StreamDriver::slide_batch`].
    pub fn take_initial_batch(&mut self) -> Vec<dppr_graph::EdgeUpdate> {
        assert!(!self.bootstrapped, "driver already bootstrapped");
        self.bootstrapped = true;
        self.window.initial_updates()
    }

    /// Slides the window by `k` logical edges and returns the raw update
    /// batch without applying it; `None` when the stream is exhausted. The
    /// caller applies it against [`StreamDriver::graph_mut`] (this is the
    /// manual counterpart of one [`StreamDriver::run_slides`] iteration).
    pub fn slide_batch(&mut self, k: usize) -> Option<Vec<dppr_graph::EdgeUpdate>> {
        assert!(self.bootstrapped, "bootstrap the engine first");
        self.window.slide(k)
    }

    /// Runs up to `max_slides` slides of `k` logical edges each, stopping
    /// early when the stream is exhausted.
    pub fn run_slides(
        &mut self,
        engine: &mut dyn DynamicPprEngine,
        k: usize,
        max_slides: usize,
    ) -> RunSummary {
        self.run_for(engine, k, max_slides, Duration::MAX)
    }

    /// The slide loop: slides by `k` logical edges and applies each batch
    /// through `engine` until `max_slides` slides have run, the cumulative
    /// engine latency ([`BatchStats::latency`]) has reached `budget` (the
    /// paper's "report the number of edges consumed per second after
    /// running for 5 minutes"), or the stream runs dry.
    pub fn run_for(
        &mut self,
        engine: &mut dyn DynamicPprEngine,
        k: usize,
        max_slides: usize,
        budget: Duration,
    ) -> RunSummary {
        assert!(self.bootstrapped, "bootstrap the engine first");
        let mut summary = RunSummary {
            engine: engine.name(),
            slides: 0,
            total_updates: 0,
            total_latency: Duration::ZERO,
            records: Vec::new(),
        };
        while summary.slides < max_slides && summary.total_latency < budget {
            let Some(batch) = self.window.slide(k) else {
                break;
            };
            let stats = engine.apply_batch(&mut self.graph, &batch);
            summary.records.push(SlideRecord {
                slide: summary.slides,
                batch_updates: batch.len(),
                applied: stats.applied,
                latency: stats.latency,
                counters: stats.counters,
                active_vertices: self.graph.active_vertices(),
            });
            summary.slides += 1;
            summary.total_updates += batch.len();
            summary.total_latency += stats.latency;
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_core::{
        exact_ppr, ParallelEngine, PprConfig, PushVariant, SeqEngine, UpdateMode,
    };
    use dppr_graph::generators::erdos_renyi;
    use dppr_graph::VertexId;

    fn stream() -> GraphStream {
        GraphStream::directed(erdos_renyi(80, 2_000, 42)).permuted(7)
    }

    #[test]
    fn bootstrap_builds_initial_window() {
        let mut d = StreamDriver::new(stream(), 0.1);
        let mut e = ParallelEngine::new(PprConfig::new(0, 0.2, 1e-3), PushVariant::OPT);
        let stats = d.bootstrap(&mut e);
        assert_eq!(stats.applied, 200);
        assert_eq!(d.graph().num_edges(), 200);
    }

    #[test]
    fn slides_track_window_and_stay_accurate() {
        let mut d = StreamDriver::new(stream(), 0.1);
        let mut e = ParallelEngine::new(PprConfig::new(0, 0.2, 1e-3), PushVariant::OPT);
        d.bootstrap(&mut e);
        let summary = d.run_slides(&mut e, 50, 10);
        assert_eq!(summary.slides, 10);
        assert_eq!(summary.total_updates, 10 * 100);
        assert_eq!(d.graph().num_edges(), 200); // window size is invariant
        assert!(summary.throughput() > 0.0);
        assert!(summary.mean_latency() > Duration::ZERO);
        // The maintained estimate matches the from-scratch solution of the
        // final window graph.
        let truth = exact_ppr(d.graph(), 0, 0.2, 1e-12);
        for v in 0..d.graph().num_vertices() as VertexId {
            assert!((e.estimate(v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn stream_exhaustion_stops_early() {
        let mut d = StreamDriver::new(stream(), 0.5);
        let mut e = SeqEngine::new(PprConfig::new(0, 0.2, 1e-2), UpdateMode::Batched);
        d.bootstrap(&mut e);
        // 1000 edges remain → only 2 slides of 400 fit.
        let summary = d.run_slides(&mut e, 400, 100);
        assert_eq!(summary.slides, 2);
    }

    #[test]
    fn run_for_respects_budget() {
        // 1800 edges remain after the 10% window: 180 slides of 10.
        let fresh = || {
            let mut d = StreamDriver::new(stream(), 0.1);
            let mut e = SeqEngine::new(PprConfig::new(0, 0.2, 1e-2), UpdateMode::Batched);
            d.bootstrap(&mut e);
            (d, e)
        };
        // A zero budget runs no slide.
        let (mut d, mut e) = fresh();
        assert_eq!(d.run_for(&mut e, 10, usize::MAX, Duration::ZERO).slides, 0);
        // The budget alone stops the loop: it is checked before each
        // slide, so exactly the last slide carries the total across it.
        let budget = Duration::from_nanos(1);
        let summary = d.run_for(&mut e, 10, usize::MAX, budget);
        assert!(summary.slides > 0 && summary.slides < 180);
        assert!(summary.total_latency >= budget);
        let last = summary.records.last().unwrap().latency;
        assert!(summary.total_latency - last < budget);
        // The cap alone stops the loop, and records are numbered in order.
        let (mut d, mut e) = fresh();
        let summary = d.run_for(&mut e, 10, 7, Duration::MAX);
        assert_eq!(summary.slides, 7);
        assert_eq!(summary.records.len(), 7);
        for (i, r) in summary.records.iter().enumerate() {
            assert_eq!(r.slide, i);
        }
        // Neither bound: the stream runs dry, and a dry stream runs nothing.
        assert_eq!(d.run_for(&mut e, 10, usize::MAX, Duration::MAX).slides, 173);
        assert_eq!(d.run_slides(&mut e, 10, 5).slides, 0);
    }

    #[test]
    #[should_panic(expected = "bootstrap the engine first")]
    fn running_without_bootstrap_panics() {
        let mut d = StreamDriver::new(stream(), 0.1);
        let mut e = SeqEngine::new(PprConfig::new(0, 0.2, 1e-2), UpdateMode::Batched);
        d.run_slides(&mut e, 10, 1);
    }

    #[test]
    fn summary_aggregates_counters() {
        let mut d = StreamDriver::new(stream(), 0.1);
        let mut e = ParallelEngine::new(PprConfig::new(0, 0.2, 1e-3), PushVariant::OPT);
        d.bootstrap(&mut e);
        let summary = d.run_slides(&mut e, 100, 5);
        let total = summary.total_counters();
        assert_eq!(total.batches, 5);
        assert!(total.restore_ops > 0);
    }

    #[test]
    fn manual_batches_match_engine_driven_run() {
        // Driving the window by hand (the serve write loop's shape) must
        // visit exactly the same batches as run_slides.
        let mut manual = StreamDriver::new(stream(), 0.1);
        let mut e1 = SeqEngine::new(PprConfig::new(0, 0.2, 1e-2), UpdateMode::Batched);
        let init = manual.take_initial_batch();
        e1.apply_batch(manual.graph_mut(), &init);
        let mut slides = 0usize;
        while let Some(batch) = manual.slide_batch(75) {
            e1.apply_batch(manual.graph_mut(), &batch);
            slides += 1;
            if slides == 6 {
                break;
            }
        }
        let mut driven = StreamDriver::new(stream(), 0.1);
        let mut e2 = SeqEngine::new(PprConfig::new(0, 0.2, 1e-2), UpdateMode::Batched);
        driven.bootstrap(&mut e2);
        driven.run_slides(&mut e2, 75, 6);
        assert_eq!(manual.graph().num_edges(), driven.graph().num_edges());
        for v in 0..driven.graph().num_vertices() as VertexId {
            assert_eq!(e1.estimate(v), e2.estimate(v), "vertex {v}");
        }
    }

    #[test]
    #[should_panic(expected = "bootstrap the engine first")]
    fn slide_batch_without_bootstrap_panics() {
        let mut d = StreamDriver::new(stream(), 0.1);
        d.slide_batch(10);
    }

    #[test]
    fn resume_from_matches_live_driver() {
        // Drive a window forward, then resume a second driver at the
        // recorded range: graphs must be identical and the next batches
        // must coincide arc for arc.
        let mut live = StreamDriver::new(stream(), 0.1);
        let _ = live.take_initial_batch();
        for _ in 0..4 {
            live.slide_batch(60).unwrap();
        }
        let (start, end) = live.window_range();
        let mut resumed = StreamDriver::resume_from(stream(), start, end);
        assert_eq!(resumed.window_range(), (start, end));
        let mut a: Vec<_> = live.window().window_edges().collect();
        let mut b: Vec<_> = resumed.window().window_edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(resumed.graph().num_edges(), live.window().window_len());
        assert_eq!(live.slide_batch(60), resumed.slide_batch(60));
    }

    #[test]
    fn records_track_active_vertices() {
        let mut d = StreamDriver::new(stream(), 0.1);
        let mut e = SeqEngine::new(PprConfig::new(0, 0.2, 1e-2), UpdateMode::Batched);
        d.bootstrap(&mut e);
        let summary = d.run_slides(&mut e, 50, 3);
        for r in &summary.records {
            assert!(r.active_vertices > 0);
            assert!(r.active_vertices <= d.graph().num_vertices());
        }
        assert_eq!(
            summary.records.last().unwrap().active_vertices,
            d.graph().active_vertices()
        );
    }
}
