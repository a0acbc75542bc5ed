//! Maintenance of many PPR vectors side by side.
//!
//! §2.1 of the paper notes that the general (non-unit) personalization case
//! "can be reduced to the case with the unit vector scenario … by
//! maintaining multiple PPR vectors with different personalized unit
//! vectors", and the indexing systems it aims to serve (HubPPR [46],
//! distributed exact PPR [18]) maintain vectors for many hub vertices.
//! [`MultiSourcePpr`] does exactly that: one [`PprState`] per source,
//! updated against the same graph. The pushes of different sources are
//! independent — each writes its own state and only reads the graph — so
//! [`MultiSourcePpr::apply_batch`] mutates the graph once and then spreads
//! the sessions over every core: `min(cores, sessions)` lanes claim them
//! one at a time from a shared queue, the graph is not copied per lane
//! (the scaling of Lin's distributed fully-personalized PageRank). The
//! core budget is split, not multiplied, so with at least as many
//! sessions as cores every push is a one-thread, bit-reproducible
//! schedule, whose rounds own their state and issue no CAS.
//!
//! The same lanes run every per-session pass of a slide:
//! [`MultiSourcePpr::map_states`] hands each state to a caller's function
//! on them (the serving layer builds its snapshots and its checkpoint
//! copies that way), so one scheduler decides how a slide's sessions
//! share the cores.
//!
//! The module holds no ranking code: [`MultiSourcePpr::top_k`] runs the
//! selection kernel of [`crate::queries`] on a session's vector in place.

use crate::atomic::AtomicF64;
use crate::config::PprConfig;
use crate::counters::Counters;
use crate::fanout::{concat, default_threads, fan_out};
use crate::invariant::{apply_to_graph, replay_repairs, Repairs};
use crate::par::{parallel_local_push, parallel_local_push_opts, ParPushBuffers, PushOpts};
use crate::queries::select;
use crate::seq::dedup_seeds_into;
use crate::state::PprState;
use crate::variants::PushVariant;
use dppr_graph::{DynamicGraph, EdgeUpdate, VertexId};
use std::ops::Range;
use std::sync::Mutex;

/// The push variant every vector in the bundle is maintained with.
const VARIANT: PushVariant = PushVariant::OPT;

/// A bundle of PPR vectors for several sources over one dynamic graph.
pub struct MultiSourcePpr {
    sessions: Vec<PprState>,
    alpha: f64,
    epsilon: f64,
    counters: Counters,
    /// The last batch's repairs, kept so that a batch reuses its buffers.
    repairs: Repairs,
    /// The last batch's seeds, sorted and unique, kept for the same reason.
    seeds: Vec<VertexId>,
    /// One set of push buffers per lane, not per session: the sessions a
    /// lane claims push one after another in its buffers, so their memory
    /// grows with the lane count and not with the session count.
    lanes: Vec<ParPushBuffers>,
}

/// Runs `f` once per item over `lanes = min(cores, items)` lanes (0 cores
/// mean 1), lane 0 on the caller and the others on one fan-out: the lanes
/// claim the items one at a time in index order, and the results come back
/// in index order. `f` also gets the threads its item may use,
/// `max(1, cores / lanes)` (the core budget is split, not multiplied), and
/// its lane's entry of `scratch`, which grows to the lane count. One lane
/// is a plain loop on the calling thread.
fn on_lanes<T: Send, R: Send, L: Default + Send>(
    items: impl ExactSizeIterator<Item = T> + Send,
    cores: usize,
    scratch: &mut Vec<L>,
    f: impl Fn(T, usize, &mut L) -> R + Sync,
) -> Vec<R> {
    let (cores, n) = (cores.max(1), items.len());
    let lanes = cores.min(n).max(1);
    let threads = (cores / lanes).max(1);
    if scratch.len() < lanes {
        scratch.resize_with(lanes, L::default);
    }
    let queue = Mutex::new(items.enumerate());
    let scratch = Mutex::new(scratch.iter_mut());
    let lane = |_: Range<usize>| {
        let mine = scratch.lock().unwrap().next().expect("a scratch entry per lane");
        let mut done = Vec::with_capacity(n);
        loop {
            // Claim, then release the lock before the work: a `while let`
            // on the guard would hold it through the call.
            let next = queue.lock().unwrap().next();
            let Some((i, item)) = next else { return done };
            done.push((i, f(item, threads, &mut *mine)));
        }
    };
    let mut done = fan_out(lanes, lanes, lane, concat);
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

impl MultiSourcePpr {
    /// Creates one maintained vector per source, all with the same α and ε.
    pub fn new(sources: &[VertexId], alpha: f64, epsilon: f64) -> Self {
        let sessions =
            sources.iter().map(|&s| PprState::new(PprConfig::new(s, alpha, epsilon))).collect();
        Self::with_sessions(sessions, alpha, epsilon)
    }

    fn with_sessions(sessions: Vec<PprState>, alpha: f64, epsilon: f64) -> Self {
        let (counters, repairs) = (Counters::new(), Repairs::default());
        let (seeds, lanes) = (Vec::new(), Vec::new());
        MultiSourcePpr { sessions, alpha, epsilon, counters, repairs, seeds, lanes }
    }

    /// Rebuilds a bundle from previously maintained states (e.g. loaded
    /// from a `persist` checkpoint): each state is adopted verbatim —
    /// values, length, and config — so maintenance resumes exactly where
    /// the checkpointed process stopped. α and ε are taken from the first
    /// state; every state must share them (they parameterize
    /// [`MultiSourcePpr::add_source`] for sessions opened later).
    ///
    /// # Panics
    /// When `states` is empty or the states disagree on α/ε.
    pub fn from_states(states: Vec<PprState>) -> Self {
        assert!(!states.is_empty(), "from_states needs at least one state");
        let alpha = states[0].config().alpha;
        let epsilon = states[0].config().epsilon;
        for st in &states {
            assert!(
                st.config().alpha == alpha && st.config().epsilon == epsilon,
                "all restored states must share alpha/epsilon"
            );
        }
        Self::with_sessions(states, alpha, epsilon)
    }

    /// Number of maintained sources.
    pub fn num_sources(&self) -> usize {
        self.sessions.len()
    }

    /// The state maintained for the `i`-th source.
    pub fn state(&self, i: usize) -> &PprState {
        &self.sessions[i]
    }

    /// The source vertex of the `i`-th maintained vector.
    pub fn source(&self, i: usize) -> VertexId {
        self.state(i).config().source
    }

    /// All maintained sources, in index order.
    pub fn sources(&self) -> Vec<VertexId> {
        self.sessions.iter().map(|s| s.config().source).collect()
    }

    /// Cumulative counters across all sources.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Starts maintaining a new source against an **already-populated**
    /// graph and returns its index: a [`PprState::cold_start`] state (which
    /// satisfies the invariant on any graph) is pushed to convergence from
    /// the unit residual at `source`. This is how the serving layer opens a
    /// session mid-stream without replaying the graph's edge history. The
    /// push runs in lane 0's buffers.
    pub fn add_source(&mut self, g: &DynamicGraph, source: VertexId) -> usize {
        let cfg = PprConfig::new(source, self.alpha, self.epsilon);
        let state = PprState::cold_start(cfg, g.num_vertices());
        if self.lanes.is_empty() {
            self.lanes.push(ParPushBuffers::new());
        }
        let bufs = &mut self.lanes[0];
        parallel_local_push(g, &state, VARIANT, &[source], &self.counters, bufs);
        self.sessions.push(state);
        self.sessions.len() - 1
    }

    /// Stops maintaining `source`; `false` if it was not maintained. The
    /// last vector moves into the freed index (swap-remove), so indices
    /// are not stable across a removal.
    pub fn remove_source(&mut self, source: VertexId) -> bool {
        let i = self.sessions.iter().position(|s| s.config().source == source);
        i.map(|i| self.sessions.swap_remove(i)).is_some()
    }

    /// Applies a batch: mutates the graph once on the calling thread, then
    /// repairs and pushes every source's vector over
    /// `lanes = min(default_threads(), sessions)` lanes, lane 0 on the
    /// caller. The lanes claim sessions one at a time in index order, so
    /// sessions given in descending-cost order (the serving layer's
    /// top-out-degree hubs) make a greedy longest-first schedule whose idle
    /// tail is at most one push. Each push runs on
    /// `max(1, default_threads() / lanes)` threads: one thread, and a
    /// deterministic schedule, whenever the sessions fill the cores; a
    /// single session gets every thread.
    pub fn apply_batch(&mut self, g: &mut DynamicGraph, batch: &[EdgeUpdate]) -> usize {
        self.apply_batch_over(g, batch, default_threads())
    }

    /// [`MultiSourcePpr::apply_batch`] on a budget of `cores` threads
    /// (0 means 1) in place of [`default_threads`]: the lane count and
    /// each push's threads follow from it the same way. The tests vary it
    /// to vary the lane count; one core is one lane on the calling thread.
    pub fn apply_batch_over(
        &mut self,
        g: &mut DynamicGraph,
        batch: &[EdgeUpdate],
        cores: usize,
    ) -> usize {
        // The graph absorbs the batch once; its repairs are replayed
        // against every source's state.
        apply_to_graph(g, batch, &mut self.repairs);
        // Sorted and unique once per batch, not once per session: the
        // push's own pass over a sorted, unique slice is then linear.
        dedup_seeds_into(&self.repairs.seeds, &mut self.seeds);
        let (g, repairs, seeds, counters) = (&*g, &self.repairs, &self.seeds, &self.counters);
        on_lanes(self.sessions.iter_mut(), cores, &mut self.lanes, |state, threads, bufs| {
            replay_repairs(g, state, repairs, counters);
            // Each push runs in its lane's buffers, grown by the pushes
            // before it, so a steady-state push allocates nothing (OPT
            // dedups locally and never grows the claim flags).
            let opts = PushOpts::default();
            parallel_local_push_opts(g, state, VARIANT, seeds, counters, bufs, opts, threads);
        });
        counters.record_batch();
        repairs.list.len()
    }

    /// `f` of every session's state, in index order, computed on the lanes
    /// that [`MultiSourcePpr::apply_batch`] pushes on, with the same core
    /// budget.
    pub fn map_states<R: Send>(&self, f: impl Fn(&PprState) -> R + Sync) -> Vec<R> {
        self.map_states_over(f, default_threads())
    }

    /// [`MultiSourcePpr::map_states`] on a budget of `cores` threads.
    fn map_states_over<R: Send>(&self, f: impl Fn(&PprState) -> R + Sync, cores: usize) -> Vec<R> {
        on_lanes(self.sessions.iter(), cores, &mut Vec::<()>::new(), |state, _, _| f(state))
    }

    /// The estimate of `v` w.r.t. the `i`-th source.
    pub fn estimate(&self, i: usize, v: VertexId) -> f64 {
        self.state(i).p(v)
    }

    /// Top-`k` vertices by estimate for the `i`-th source, descending
    /// (ties by ascending id). The workhorse of recommendation queries.
    pub fn top_k(&self, i: usize, k: usize) -> Vec<(VertexId, f64)> {
        select(self.state(i).p_atomics(), AtomicF64::load, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::exact_ppr;
    use crate::invariant::{max_invariant_violation, restore_invariant_with_degree};
    use dppr_graph::generators::erdos_renyi;

    #[test]
    fn maintains_every_source_accurately() {
        let sources = [0u32, 3, 7];
        let mut multi = MultiSourcePpr::new(&sources, 0.2, 1e-3);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(40, 400, 13);
        for chunk in edges.chunks(80) {
            let batch: Vec<EdgeUpdate> =
                chunk.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
            multi.apply_batch(&mut g, &batch);
        }
        for (i, &s) in sources.iter().enumerate() {
            let truth = exact_ppr(&g, s, 0.2, 1e-12);
            assert!(max_invariant_violation(&g, multi.state(i)) < 1e-9);
            for v in 0..g.num_vertices() as VertexId {
                assert!(
                    (multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9,
                    "source {s} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn deletions_propagate_to_all_sources() {
        let sources = [0u32, 1];
        let mut multi = MultiSourcePpr::new(&sources, 0.3, 1e-3);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(20, 150, 5);
        let ins: Vec<EdgeUpdate> = edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        multi.apply_batch(&mut g, &ins);
        let del: Vec<EdgeUpdate> =
            edges[..50].iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect();
        let applied = multi.apply_batch(&mut g, &del);
        assert_eq!(applied, 50);
        for (i, &s) in sources.iter().enumerate() {
            let truth = exact_ppr(&g, s, 0.3, 1e-12);
            for v in 0..g.num_vertices() as VertexId {
                assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
            }
        }
    }

    #[test]
    fn add_source_on_populated_graph_is_epsilon_accurate() {
        let mut multi = MultiSourcePpr::new(&[0], 0.2, 1e-3);
        let mut g = DynamicGraph::new();
        let edges = erdos_renyi(40, 400, 99);
        let ins: Vec<EdgeUpdate> = edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        multi.apply_batch(&mut g, &ins);
        // Open a session for vertex 7 against the live graph.
        let i = multi.add_source(&g, 7);
        assert_eq!(i, 1);
        assert_eq!(multi.source(i), 7);
        assert_eq!(multi.sources(), vec![0, 7]);
        assert!(max_invariant_violation(&g, multi.state(i)) < 1e-9);
        let truth = exact_ppr(&g, 7, 0.2, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
        }
        // And the late-opened source keeps tracking subsequent batches.
        let more: Vec<EdgeUpdate> =
            erdos_renyi(40, 80, 123).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        multi.apply_batch(&mut g, &more);
        let truth = exact_ppr(&g, 7, 0.2, 1e-12);
        for v in 0..g.num_vertices() as VertexId {
            assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
        }
    }

    #[test]
    fn from_states_resumes_bitwise_identically() {
        use crate::persist::state_fingerprint;
        // Run one bundle over two batches; rebuild a second bundle from
        // states cloned mid-way and replay the second batch: both ends
        // must agree bit-for-bit (the crash-recovery contract).
        let edges = erdos_renyi(40, 400, 21);
        let (first, second) = edges.split_at(300);
        let b1: Vec<EdgeUpdate> = first.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        let b2: Vec<EdgeUpdate> = second.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();

        let mut live = MultiSourcePpr::new(&[0, 5], 0.2, 1e-3);
        let mut g_live = DynamicGraph::new();
        live.apply_batch(&mut g_live, &b1);
        let snapshot: Vec<PprState> =
            (0..live.num_sources()).map(|i| live.state(i).clone_values()).collect();
        live.apply_batch(&mut g_live, &b2);

        let mut resumed = MultiSourcePpr::from_states(snapshot);
        assert_eq!(resumed.sources(), vec![0, 5]);
        let mut g_resumed = DynamicGraph::new();
        // Rebuild the graph as of the snapshot, then replay the tail.
        for &(u, v) in first {
            g_resumed.insert_edge(u, v);
        }
        resumed.apply_batch(&mut g_resumed, &b2);
        for i in 0..2 {
            assert_eq!(
                state_fingerprint(resumed.state(i)),
                state_fingerprint(live.state(i)),
                "source index {i}"
            );
        }
    }

    fn fingerprints(m: &MultiSourcePpr) -> Vec<(VertexId, u64)> {
        use crate::persist::state_fingerprint;
        (0..m.num_sources()).map(|i| (m.source(i), state_fingerprint(m.state(i)))).collect()
    }

    /// Five sources over inserts then deletes, with a session opened and
    /// one closed between batches: the maintained states and the work
    /// counted do not depend on how many lanes the core budget gave them.
    #[test]
    fn states_and_counters_do_not_depend_on_the_lane_count() {
        let edges = erdos_renyi(60, 900, 77);
        let mut batches: Vec<Vec<EdgeUpdate>> = edges
            .chunks(150)
            .map(|c| c.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect())
            .collect();
        batches.push(edges[..200].iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect());
        batches.push(edges[300..450].iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect());
        let run = |cores: usize| {
            let mut multi = MultiSourcePpr::new(&[0, 3, 7, 11, 20], 0.2, 1e-4);
            let mut g = DynamicGraph::new();
            for (i, batch) in batches.iter().enumerate() {
                multi.apply_batch_over(&mut g, batch, cores);
                match i {
                    2 => assert_eq!(multi.add_source(&g, 31), 5),
                    4 => assert!(multi.remove_source(3)),
                    _ => {}
                }
            }
            assert_eq!(multi.sources(), vec![0, 31, 7, 11, 20]);
            let c = multi.counters().snapshot();
            (fingerprints(&multi), c.restore_ops, c.pushes)
        };
        let one = run(1);
        assert!(one.2 > 0, "the stream pushed nothing");
        // 2, 3 and 5 lanes; 12 cores give each of the 5 lanes 2 threads,
        // which stay sequential below `PushOpts::seq_threshold`.
        for cores in [2, 3, 7, 12] {
            assert_eq!(run(cores), one, "{cores} cores");
        }
    }

    /// Lanes that use up the core budget leave every push one thread, so
    /// the bundle is bit-reproducible even where a push would fan out.
    #[test]
    fn a_full_lane_budget_is_deterministic_past_the_fan_out_threshold() {
        use crate::fanout::FAN_OUT_MIN;
        let [load, slide] = crate::engine::tests::wide_stream();
        let run = || {
            let mut multi = MultiSourcePpr::new(&[0, 1], 0.2, 1e-6);
            let mut g = DynamicGraph::new();
            // Two cores for two sessions: two lanes of one thread.
            multi.apply_batch_over(&mut g, &load, 2);
            multi.apply_batch_over(&mut g, &slide, 2);
            let c = multi.counters().snapshot();
            assert!(c.max_frontier >= FAN_OUT_MIN as u64, "max frontier {}", c.max_frontier);
            // Lanes share no residual, and no push had a second thread.
            assert_eq!(c.cas_retries, 0);
            fingerprints(&multi)
        };
        assert_eq!(run(), run());
    }

    /// `map_states` calls `f` once per session on at most
    /// `min(cores, sessions)` lanes and returns the results in index order,
    /// although the first session's call finishes last.
    #[test]
    fn map_states_returns_one_result_per_session_in_index_order() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        for sources in [&[][..], &[4], &[9, 2, 7, 0, 5]] {
            let multi = MultiSourcePpr::new(sources, 0.2, 1e-3);
            for cores in [1, 2, 3, 7] {
                let (calls, lanes) = (AtomicUsize::new(0), Mutex::new(HashSet::new()));
                let source = |st: &PprState| {
                    calls.fetch_add(1, Relaxed);
                    lanes.lock().unwrap().insert(std::thread::current().id());
                    if st.config().source == sources[0] {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    st.config().source
                };
                let got = multi.map_states_over(source, cores);
                assert_eq!(got, sources, "{} sessions, {cores} cores", sources.len());
                assert_eq!(calls.into_inner(), sources.len());
                let lanes = lanes.into_inner().unwrap().len();
                assert!(lanes <= cores.min(sources.len()), "{lanes} lanes on {cores} cores");
            }
        }
        let multi = MultiSourcePpr::new(&[3, 1], 0.2, 1e-3);
        assert_eq!(multi.map_states(|st| st.config().source), [3, 1]);
    }

    /// Two sessions on two cores push one thread each over
    /// [`crate::engine::tests::wide_stream`]; their bits and the work
    /// counted are pinned to literals.
    #[test]
    fn one_thread_push_is_pinned() {
        let [load, slide] = crate::engine::tests::wide_stream();
        let mut multi = MultiSourcePpr::new(&[0, 1], 0.2, 1e-6);
        let mut g = DynamicGraph::new();
        multi.apply_batch_over(&mut g, &load, 2);
        multi.apply_batch_over(&mut g, &slide, 2);
        let want = [(0, 11_866_952_711_023_298_490), (1, 14_812_820_352_697_794_727)];
        assert_eq!(fingerprints(&multi), want);
        let c = multi.counters().snapshot();
        let work = (c.pushes, c.edge_traversals, c.atomic_adds);
        assert_eq!(work, (1_018_036, 6_096_008, 7_114_044));
        let frontiers = (c.enqueued, c.dup_avoided, c.iterations);
        assert_eq!(frontiers, (1_014_128, 5_102_793, 153));
    }

    /// The library engine and the serving bundle absorb a batch the same
    /// way: `CPU-MT[Opt]` on one thread and a one-session bundle on one
    /// core, fed [`crate::engine::tests::wide_stream`], hold the same bits
    /// after every batch and count the same work.
    #[test]
    fn one_thread_engine_equals_a_one_session_bundle() {
        use crate::engine::{DynamicPprEngine, ParallelEngine};
        use crate::persist::state_fingerprint;
        let [load, slide] = crate::engine::tests::wide_stream();
        let cfg = PprConfig::new(0, 0.2, 1e-6);
        let mut engine = ParallelEngine::with_threads(cfg, PushVariant::OPT, 1);
        let mut multi = MultiSourcePpr::new(&[0], 0.2, 1e-6);
        let (mut g_engine, mut g_multi) = (DynamicGraph::new(), DynamicGraph::new());
        for batch in [&load, &slide] {
            let applied = engine.apply_batch(&mut g_engine, batch).applied;
            assert_eq!(multi.apply_batch_over(&mut g_multi, batch, 1), applied);
            assert_eq!(state_fingerprint(engine.state()), state_fingerprint(multi.state(0)));
        }
        let work = |c: crate::CounterSnapshot| (c.restore_ops, c.pushes, c.atomic_adds);
        assert_eq!(work(engine.counters()), work(multi.counters().snapshot()));
    }

    /// What `apply_batch` must equal when the sessions fill the cores:
    /// per session, in index order, the invariant repairs and then a
    /// one-thread push, with the bundle's `add_source` and `remove_source`
    /// (at `reshape`) mirrored by hand.
    fn one_thread_reference(
        sources: &[VertexId],
        batches: &[Vec<EdgeUpdate>],
        reshape: impl Fn(&mut Vec<PprState>, &DynamicGraph, &Counters),
    ) -> (Vec<(VertexId, u64)>, Counters) {
        use crate::persist::state_fingerprint;
        let counters = Counters::new();
        let mut sessions: Vec<PprState> =
            sources.iter().map(|&s| PprState::new(PprConfig::new(s, 0.2, 1e-6))).collect();
        let mut g = DynamicGraph::new();
        for (i, batch) in batches.iter().enumerate() {
            let mut applied = Vec::new();
            for &upd in batch {
                if g.apply(upd) {
                    applied.push((upd, g.out_degree(upd.src)));
                }
            }
            let seeds: Vec<VertexId> = applied.iter().map(|(upd, _)| upd.src).collect();
            for state in &mut sessions {
                state.ensure_len(g.num_vertices());
                for &(upd, d) in &applied {
                    restore_invariant_with_degree(state, upd.src, upd.dst, upd.op, d);
                }
                counters.record_restores(applied.len() as u64);
                let (opts, variant) = (PushOpts::default(), PushVariant::OPT);
                let mut bufs = ParPushBuffers::new();
                parallel_local_push_opts(&g, state, variant, &seeds, &counters, &mut bufs, opts, 1);
            }
            if i == 0 {
                reshape(&mut sessions, &g, &counters);
            }
        }
        let fps = sessions.iter().map(|st| (st.config().source, state_fingerprint(st)));
        (fps.collect(), counters)
    }

    /// At least as many sessions as cores, over a stream whose pushes
    /// reach `FAN_OUT_MIN`, with a session opened and one closed between
    /// batches: every maintained state is bit-identical to the one-thread
    /// reference, with the same work counted, no CAS lost, and two runs
    /// agree.
    #[test]
    fn sessions_over_every_core_push_the_one_thread_schedule() {
        use crate::fanout::{default_threads, FAN_OUT_MIN};
        let [load, slide] = crate::engine::tests::wide_stream();
        // A small first batch keeps the opened session's cold-start push
        // below the fan-out threshold, so it is one thread too.
        let batches = [load[..300].to_vec(), load[300..].to_vec(), slide];
        let sources: Vec<VertexId> = (0..default_threads().max(2) as VertexId).collect();
        const OPENED: VertexId = 50;
        let run = || {
            let mut multi = MultiSourcePpr::new(&sources, 0.2, 1e-6);
            let mut g = DynamicGraph::new();
            for (i, batch) in batches.iter().enumerate() {
                multi.apply_batch(&mut g, batch);
                if i == 0 {
                    assert!((OPENED as usize) < g.num_vertices());
                    assert_eq!(multi.add_source(&g, OPENED), sources.len());
                    assert!(multi.remove_source(1));
                }
            }
            (fingerprints(&multi), multi.counters().snapshot())
        };
        let (fps, c) = run();
        assert!(c.max_frontier >= FAN_OUT_MIN as u64, "max frontier {}", c.max_frontier);
        assert_eq!(c.cas_retries, 0, "a push had a second thread");
        let (want, rc) = one_thread_reference(&sources, &batches, |sessions, g, counters| {
            let cfg = PprConfig::new(OPENED, 0.2, 1e-6);
            let state = PprState::cold_start(cfg, g.num_vertices());
            let (opts, variant) = (PushOpts::default(), PushVariant::OPT);
            let mut bufs = ParPushBuffers::new();
            parallel_local_push_opts(g, &state, variant, &[OPENED], counters, &mut bufs, opts, 1);
            sessions.push(state);
            sessions.swap_remove(1);
        });
        assert_eq!(fps, want);
        let rc = rc.snapshot();
        assert_eq!((c.restore_ops, c.pushes), (rc.restore_ops, rc.pushes));
        let (again, c2) = run();
        assert_eq!(again, fps);
        assert_eq!((c2.restore_ops, c2.pushes), (c.restore_ops, c.pushes));
    }

    /// A push that panics — here on its convergence `debug_assert`, tripped
    /// by a poisoned residual the batch's seeds never reach — surfaces on
    /// the caller whether the lane that claimed it is the caller's own or a
    /// spawned one.
    #[cfg(debug_assertions)]
    #[test]
    fn a_panic_inside_a_lane_resurfaces_on_the_caller() {
        let ins: Vec<EdgeUpdate> =
            erdos_renyi(20, 150, 5).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        for poisoned in [0, 3] {
            let mut multi = MultiSourcePpr::new(&[0, 1, 2, 3], 0.2, 1e-3);
            let mut g = DynamicGraph::new();
            multi.apply_batch(&mut g, &ins);
            multi.state(poisoned).set_r(19, f64::INFINITY);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                multi.apply_batch(&mut g, &[EdgeUpdate::insert(25, 26)])
            }));
            assert!(r.is_err(), "panic in session {poisoned}'s lane was swallowed");
        }
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn from_states_rejects_empty() {
        let _ = MultiSourcePpr::from_states(Vec::new());
    }

    #[test]
    fn remove_source_swaps_last_into_slot() {
        let mut multi = MultiSourcePpr::new(&[0, 3, 7], 0.2, 1e-3);
        assert!(multi.remove_source(0));
        assert!(!multi.remove_source(0));
        assert_eq!(multi.num_sources(), 2);
        // 7 swapped into index 0.
        assert_eq!(multi.sources(), vec![7, 3]);
        // The survivors still update correctly.
        let mut g = DynamicGraph::new();
        let ins: Vec<EdgeUpdate> =
            erdos_renyi(20, 150, 5).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        multi.apply_batch(&mut g, &ins);
        for i in 0..multi.num_sources() {
            let s = multi.source(i);
            let truth = exact_ppr(&g, s, 0.2, 1e-12);
            for v in 0..g.num_vertices() as VertexId {
                assert!((multi.estimate(i, v) - truth[v as usize]).abs() <= 1e-3 + 1e-9);
            }
        }
    }
}
