//! `ParallelLocalPush` (Algorithm 3) and `OptParallelPush` (Algorithm 4).
//!
//! One iteration of the push runs two parallel sessions separated by a
//! barrier (the end of a `Crew::run` is the paper's `synchronize`):
//!
//! * **Vanilla order** (Algorithm 3): *self-update* first — every frontier
//!   vertex `u` takes out its residual (the paper's atomic
//!   `w = swap(Rs(u), 0)`, here a load and a store, see below) and banks
//!   `α·w` into the estimate — then *neighbor-propagation* of the stale
//!   snapshot `w` to the in-neighbors.
//! * **Eager order** (Algorithm 4): *neighbor-propagation* first, reading
//!   the freshest `ru = Rs(u)` at the moment `u` is processed (so residual
//!   that arrived from concurrently-pushing neighbors is propagated in the
//!   same iteration — this is *eager propagation*, §4.1), then a consistent
//!   *self-update* that subtracts exactly the `ru` that was propagated and
//!   re-enqueues `u` if what accumulated since still exceeds ε (the second
//!   frontier-generation pass, Algorithm 4 lines 22–23).
//!
//! Frontier generation is either **local duplicate detection** (§4.2): the
//! atomic add's before/after pair shows exactly one updater the crossing of
//! the ±ε threshold (residuals move monotonically within a phase), and only
//! that updater enqueues — or the baseline **atomic-flag dedup**: a shared
//! per-vertex claim bit, standing in for the synchronizing `UniqueEnqueue`
//! of Algorithm 3.
//!
//! **Owned and shared rounds.** The paper's `atomicAdd` exists for rounds
//! in which several threads scatter into one residual vector. A round
//! whose sessions are one part — `threads = 1`, or a frontier under
//! [`PushOpts::seq_threshold`] — runs on the calling thread alone, and no
//! other thread reads or writes the state until it returns. Such a round
//! is *owned*: every read-modify-write on it (the `propagate` scatter and
//! the claim flags) is a relaxed load and a store, in the same order and
//! with the same arithmetic, so the state is bit-identical to the CAS
//! schedule's and no CAS is issued. A round that fans out is *shared*:
//! only its scatter keeps the CAS loop and its retry count. The vanilla
//! take-out and the eager self-update are a load and a store in every
//! round, since each touches only its own frontier vertex, frontiers name
//! no vertex twice (checked every round in debug builds and this crate's
//! tests), and no other thread writes that residual during the session.
//! The choice is made once per round, by the rule the fan-outs schedule
//! with ([`one_part`]); every scatter add goes through
//! [`AtomicF64::fetch_add_round`](crate::atomic::AtomicF64::fetch_add_round).
//!
//! **Branch-free frontier generation.** Local duplicate detection decides
//! on every in-edge whether its add enqueued the target, and about one add
//! in six does: as a branch, that decision is taken at random, and each
//! mispredict throws away the loads of the next edges' `r[v]` and
//! `1/dout(v)` already in flight. So the scatter makes room for a push's
//! whole in-span at the end of the next frontier once, writes every
//! in-neighbor into the next free slot and keeps it by advancing the end
//! by `!was_active & now_active`; `dup_avoided` sums `was_active`, and the
//! adds and edges walked are counted once per push from the span's length.
//! The eager self-update re-enqueues through the same kept slot. The body
//! is monomorphised on ownership, so an owned round's loop holds no CAS
//! and no retry count. Every add and every enqueue happens in the same
//! order with the same arithmetic as a branch would make them, so states
//! and counters are the same bits. The flag variants still branch: they
//! claim a shared bit only for a target that is active.
//!
//! **One crew per push.** The first round that fans out opens the push's
//! one `with_crew` scope with `threads − 1` helpers, and every later
//! shared session is handed to them through the crew's barrier, its input
//! moved into the crew's slot. Rounds that never fan out never start a
//! crew, so a one-thread push spawns no thread.
//!
//! **Latency hiding.** Once the scatter stopped branching, a push is bound
//! by memory latency: its first loads — `r[u]`, `u`'s in-span header, the
//! in-span itself, and in session 2 `p[u]` — each depend on the frontier
//! member, come in data-dependent order and miss one after another. So
//! every session prefetches ahead of the member it works on:
//! `ReadAndPropagate` (eager session 1) prefetches `r` and the in-span
//! header of the member [`AHEAD`] = 8 places on, and the in-span of the
//! member [`SPAN_AHEAD`] = 4 places on (finding the span reads the header
//! prefetched four members earlier); `SelfUpdate` (eager session 2)
//! prefetches `p` of the member 8 places on; the vanilla `TakeOut`
//! prefetches `r` and `p`, and `Propagate` the header and span, at the
//! same distances. Every prefetch goes through one helper
//! (`crate::prefetch`), a hint that never faults and changes no value, so
//! states and counters are the same bits. The header's address comes from
//! [`DynamicGraph::in_header_hint`], so the graph keeps its pool private,
//! and the span's from the first slot of `in_neighbors`. Together with
//! the round buffers below, this raised `dppr_bench`'s `serve_write`
//! `updates_per_s` by a median 1.18× over 12 pairs against the kernel
//! without either, higher in all 12 (2-core x86-64 host).
//!
//! **Round buffers.** A round reads its frontier from [`ParPushBuffers`]
//! and writes its entry log and next frontier into the same buffers; the
//! next frontier then swaps with the old one. A caller that keeps one
//! `ParPushBuffers` across pushes (an engine, or one per lane of
//! [`crate::multi`]) makes an owned round allocate nothing once the
//! buffers have grown to its frontiers. A round that fans out still
//! gives each part an accumulator of its own and merges them in range
//! order.
//!
//! Five alternatives were weighed and left out:
//! * a process-wide pool instead of a crew per push. Running borrowed
//!   closures on threads that outlive the call needs `unsafe` lifetime
//!   erasure, and the pool would park idle threads inside every server,
//!   whose pushes run one thread per lane;
//! * the kernel keeps taking `&PprState`. An owned round on `&mut PprState`
//!   (`AtomicU64::get_mut` per element) would be a second kernel body
//!   beside the shared one, and relaxed loads and stores already compile
//!   to plain moves on x86-64;
//! * [`crate::seq`]'s FIFO kernel stays separate. Its schedule differs (one
//!   vertex at a time, not frontier rounds), so sharing this inner loop
//!   would change the sequential engine's results and speed;
//! * safe demand loads ("touches") of the members ahead instead of
//!   prefetches. A prototype measured no gain;
//! * a blocked gather that reads the in-span headers of a block of members
//!   into a local array before pushing them. A prototype measured the
//!   push's time 6 % lower, but the change won only 3 of 6 `dppr_bench`
//!   pairs.

use crate::config::Phase;
use crate::counters::{CounterSnapshot, Counters};
use crate::fanout::{default_threads, one_part, with_crew, Crew, FAN_OUT_MIN};
use crate::prefetch::prefetch;
use crate::seq::{dedup_seeds_into, lockstep, LockstepTrace};
use crate::state::PprState;
use crate::variants::PushVariant;
use dppr_graph::{DynamicGraph, VertexId};
use std::mem::take;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// How many frontier members ahead a session prefetches the state entries
/// it will read and the member's in-span header.
const AHEAD: usize = 8;

/// How many members ahead a propagating session prefetches the in-span
/// itself: nearer than [`AHEAD`], because finding the span reads the
/// header that was prefetched at [`AHEAD`].
const SPAN_AHEAD: usize = 4;

/// Tuning knobs for the parallel push.
#[derive(Debug, Clone, Copy)]
pub struct PushOpts {
    /// Frontiers smaller than this run the iteration on one thread — the
    /// same body on the calling thread, i.e. the one-worker schedule of the
    /// parallel push. CilkPlus gets this behaviour for free from lazy task
    /// stealing; here a fanned-out session costs a hand-off through the
    /// push's crew and back (a few µs, more once a helper has parked), so
    /// the explicit threshold avoids paying two barriers per iteration for
    /// a ten-vertex frontier, and a push whose frontiers all stay below it
    /// starts no crew. Such a round is also CAS-free: it owns the state and
    /// adds with a load and a store. `0` fans every iteration out,
    /// `usize::MAX` none (the granularity ablation bench runs both).
    pub seq_threshold: usize,
}

impl Default for PushOpts {
    fn default() -> Self {
        PushOpts { seq_threshold: FAN_OUT_MIN }
    }
}

/// Reusable scratch for the parallel push: the round buffers, which an
/// owned round reads and writes in place, and the claim-flag array used
/// by the non-`local_dup` variants, grown only by their pushes. A caller
/// that keeps one across pushes allocates nothing in a push whose
/// frontiers fit what earlier pushes grew.
#[derive(Debug, Default)]
pub struct ParPushBuffers {
    claimed: Vec<AtomicBool>,
    rounds: RoundBufs,
}

impl ParPushBuffers {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.claimed.len() < n {
            self.claimed.resize_with(n, AtomicBool::default);
        }
    }
}

/// The buffers a push's rounds run in. A round reads `frontier`, writes
/// its entry log into `entries` and the next frontier into `next`, which
/// then swaps with `frontier`; a round that fans out hands its input to
/// the crew and takes the merged next frontier back.
#[derive(Debug, Default)]
struct RoundBufs {
    /// The push's seeds, sorted and unique.
    seeds: Vec<VertexId>,
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    entries: Vec<(VertexId, f64)>,
    /// One bit per vertex for [`distinct`], all clear between its calls;
    /// sized only in builds that check.
    seen: Vec<u64>,
}

/// A session's output: the next-frontier candidates, the `(u, ru)` entry
/// log `E` of Algorithm 4 (the `(u, w)` snapshots of Algorithm 3), and the
/// work counted. An owned round fills one built on the push's buffers; a
/// fanned-out session gives each part its own, and merging appends in
/// range order, so frontier generation itself never contends on shared
/// state and a one-thread run enqueues in frontier order.
struct SessAcc {
    next: Vec<VertexId>,
    entries: Vec<(VertexId, f64)>,
    work: CounterSnapshot,
}

impl SessAcc {
    /// A part's accumulator, with room up front for what the part fills —
    /// one entry per item, and the next frontier — and nothing it does
    /// not: growing these by `realloc` from empty, iteration after
    /// iteration, is what two pushes running side by side contend on (the
    /// allocator grows and trims its heaps under one process-wide kernel
    /// lock).
    fn for_part(session: &Session, range: &Range<usize>) -> SessAcc {
        let (next, entries) = match session {
            Session::TakeOut(_) => (0, range.len()),
            Session::ReadAndPropagate(_) => (range.len(), range.len()),
            Session::Propagate(_) | Session::SelfUpdate(_) => (range.len(), 0),
        };
        SessAcc {
            next: Vec::with_capacity(next),
            entries: Vec::with_capacity(entries),
            work: CounterSnapshot::default(),
        }
    }

    fn append(&mut self, mut other: SessAcc) {
        self.next.append(&mut other.next);
        self.entries.append(&mut other.entries);
        self.work += other.work;
    }

    fn merge(mut self, other: SessAcc) -> SessAcc {
        self.append(other);
        self
    }
}

/// One round's schedule, decided once at its start: `owned` records that
/// its sessions are one part on the calling thread, whose scatter adds and
/// claims are loads and stores; otherwise they fan out over the push's
/// crew.
#[derive(Clone, Copy)]
struct Round {
    phase: Phase,
    owned: bool,
}

/// Sets a claim flag and returns whether it was already set: a `swap` in a
/// shared round, a load and a store in an owned one.
#[inline]
fn claim(flag: &AtomicBool, owned: bool) -> bool {
    if owned {
        let was = flag.load(Ordering::Relaxed);
        flag.store(true, Ordering::Relaxed);
        was
    } else {
        flag.swap(true, Ordering::Relaxed)
    }
}

/// One parallel session's input, moved into the crew's slot when its round
/// fans out.
enum Session {
    /// Algorithm 3's self-update: take out each frontier vertex's residual.
    TakeOut(Vec<VertexId>),
    /// Algorithm 3's neighbor-propagation of the taken-out snapshots.
    Propagate(Vec<(VertexId, f64)>),
    /// Algorithm 4's neighbor-propagation of each frontier vertex's fresh
    /// residual.
    ReadAndPropagate(Vec<VertexId>),
    /// Algorithm 4's consistent self-update of what was propagated.
    SelfUpdate(Vec<(VertexId, f64)>),
}

impl Session {
    fn len(&self) -> usize {
        match self {
            Session::TakeOut(us) | Session::ReadAndPropagate(us) => us.len(),
            Session::Propagate(es) | Session::SelfUpdate(es) => es.len(),
        }
    }

    /// The input's buffer back, for the next round to reuse.
    fn into_buffers(self) -> (Vec<VertexId>, Vec<(VertexId, f64)>) {
        match self {
            Session::TakeOut(us) | Session::ReadAndPropagate(us) => (us, Vec::new()),
            Session::Propagate(es) | Session::SelfUpdate(es) => (Vec::new(), es),
        }
    }
}

/// The crew a push's fanned-out sessions run on.
type PushCrew<'w> = Crew<'w, (Session, Round), SessAcc>;

/// Whether `frontier` names no vertex twice. The take-out and the
/// self-update touch only the round's frontier vertices, each in one part,
/// which is what lets them read and write a residual with a plain load
/// and store even when the round fans out. `seen` has a clear bit per
/// vertex id and is left clear, so the check allocates nothing.
fn distinct(frontier: &[VertexId], seen: &mut [u64]) -> bool {
    let mut once = true;
    for &u in frontier {
        let (word, bit) = (&mut seen[u as usize / 64], 1 << (u % 64));
        once &= *word & bit == 0;
        *word |= bit;
    }
    for &u in frontier {
        seen[u as usize / 64] = 0;
    }
    once
}

struct Ctx<'a> {
    g: &'a DynamicGraph,
    state: &'a PprState,
    alpha: f64,
    eps: f64,
    variant: PushVariant,
    claimed: &'a [AtomicBool],
}

impl Ctx<'_> {
    /// Neighbor-propagation for one frontier vertex: transfer
    /// `(1−α)·w / dout(v)` to every in-neighbor `v` and generate frontier
    /// candidates according to the variant's dedup scheme. The choice of
    /// add is made here, once per push, by monomorphising the scatter.
    #[inline]
    fn propagate(&self, u: VertexId, w: f64, round: Round, acc: &mut SessAcc) {
        let scaled = (1.0 - self.alpha) * w;
        let nbrs = self.g.in_neighbors(u);
        if round.owned {
            self.scatter::<true>(nbrs, scaled, round.phase, acc);
        } else {
            self.scatter::<false>(nbrs, scaled, round.phase, acc);
        }
        // One add per in-edge walked, counted once per push.
        let deg = nbrs.len() as u64;
        acc.work.pushes += 1;
        acc.work.edge_traversals += deg;
        acc.work.atomic_adds += deg;
    }

    /// The scatter of one push over `nbrs`, its adds loads and stores when
    /// `OWNED`. Every in-neighbor is written into the next free slot of
    /// `acc.next` and kept only if it is enqueued, so local duplicate
    /// detection takes no branch on the residual it just read; the flag
    /// variants still branch to claim the bit.
    #[inline]
    fn scatter<const OWNED: bool>(
        &self,
        nbrs: &[VertexId],
        scaled: f64,
        phase: Phase,
        acc: &mut SessAcc,
    ) {
        let r = self.state.r_atomics();
        let base = acc.next.len();
        acc.next.resize(base + nbrs.len(), 0);
        let slots = &mut acc.next[base..];
        let (mut n, mut dup_avoided, mut retries) = (0, 0, 0);
        // Division-free inner loop: multiply by the graph-maintained 1/dout
        // (v has the edge v→u, so dout(v) ≥ 1).
        for &v in nbrs {
            let inc = scaled * self.g.inv_out_degree(v);
            let r_pre = r[v as usize].fetch_add_round(inc, OWNED, &mut retries);
            let now_active = phase.active(r_pre + inc, self.eps);
            let kept = if self.variant.local_dup {
                // Only the add that crosses the threshold enqueues; one
                // that finds `v` already active leaves it to whoever
                // crossed it — the detection the shared-flag scheme would
                // have paid an atomic for.
                let was_active = phase.active(r_pre, self.eps);
                dup_avoided += was_active as u64;
                !was_active & now_active
            } else if now_active {
                let taken = claim(&self.claimed[v as usize], OWNED);
                dup_avoided += taken as u64;
                !taken
            } else {
                false
            };
            slots[n] = v;
            n += kept as usize;
        }
        acc.next.truncate(base + n);
        acc.work.enqueued += n as u64;
        acc.work.dup_avoided += dup_avoided;
        acc.work.cas_retries += retries;
    }

    /// Algorithm 3's take-out for one frontier vertex: `w = Rs(u)`,
    /// `Rs(u) = 0`, bank `α·w`.
    #[inline]
    fn take_out(&self, u: VertexId, acc: &mut SessAcc) {
        let r = &self.state.r_atomics()[u as usize];
        let w = r.load();
        r.store(0.0);
        let p = &self.state.p_atomics()[u as usize];
        p.store(p.load() + self.alpha * w);
        acc.entries.push((u, w));
    }

    /// Algorithm 4's self-update for one frontier vertex (lines 19–23):
    /// bank `α·ru`, subtract the consistent `ru`, and return whether the
    /// residual that accumulated since the session-1 read still exceeds ε,
    /// i.e. whether `u` is re-enqueued.
    ///
    /// Flag discipline in the eager+flags variant: `u`'s claim flag is set
    /// for as long as `u` is scheduled (in `FQ` or `FQ'`), which is what
    /// stops session 1 from re-enqueueing a vertex that is about to drain.
    /// Here the flag is kept if `u` re-enters the frontier and released
    /// otherwise.
    #[inline]
    fn eager_self_update(&self, u: VertexId, ru: f64, phase: Phase) -> bool {
        let p = &self.state.p_atomics()[u as usize];
        p.store(p.load() + self.alpha * ru);
        let r = &self.state.r_atomics()[u as usize];
        let after = r.load() - ru;
        r.store(after);
        let kept = phase.active(after, self.eps);
        if !kept && !self.variant.local_dup {
            self.claimed[u as usize].store(false, Ordering::Relaxed);
        }
        kept
    }

    /// Prefetches what a propagation will read first: the in-span header
    /// of the member [`AHEAD`] pushes on, and the in-span of the member
    /// [`SPAN_AHEAD`] pushes on.
    #[inline(always)]
    fn prefetch_spans(&self, header_of: Option<VertexId>, span_of: Option<VertexId>) {
        if let Some((off, len)) = header_of.and_then(|v| self.g.in_header_hint(v)) {
            prefetch(off);
            prefetch(len);
        }
        if let Some(first) = span_of.and_then(|v| self.g.in_neighbors(v).first()) {
            prefetch(first);
        }
    }

    /// One part of a session: its items in `range`, appended to `acc`.
    /// The take-out and the self-update touch only their own item's
    /// vertex, which no other part holds ([`distinct`]) and no other
    /// thread writes during the session: their load and store need no
    /// CAS. Only `propagate`'s scatter, which several parts aim at one
    /// residual, keeps it in a shared round. Every session prefetches
    /// some members ahead what its loads of a member will miss on.
    fn fill(&self, session: &Session, round: Round, range: Range<usize>, acc: &mut SessAcc) {
        let (r, p) = (self.state.r_atomics(), self.state.p_atomics());
        match session {
            Session::TakeOut(us) => {
                let us = &us[range];
                for (i, &u) in us.iter().enumerate() {
                    if let Some(&a) = us.get(i + AHEAD) {
                        prefetch(&r[a as usize]);
                        prefetch(&p[a as usize]);
                    }
                    self.take_out(u, acc);
                }
            }
            Session::Propagate(es) => {
                let es = &es[range];
                for (i, &(u, w)) in es.iter().enumerate() {
                    let ahead = |d: usize| es.get(i + d).map(|&(v, _)| v);
                    self.prefetch_spans(ahead(AHEAD), ahead(SPAN_AHEAD));
                    self.propagate(u, w, round, acc);
                }
            }
            Session::ReadAndPropagate(us) => {
                let us = &us[range];
                for (i, &u) in us.iter().enumerate() {
                    if let Some(&a) = us.get(i + AHEAD) {
                        prefetch(&r[a as usize]);
                    }
                    self.prefetch_spans(
                        us.get(i + AHEAD).copied(),
                        us.get(i + SPAN_AHEAD).copied(),
                    );
                    // The *current* residual: it may keep growing under us,
                    // and whatever arrives after the read is left by the
                    // consistent subtraction of session 2.
                    let ru = r[u as usize].load();
                    acc.entries.push((u, ru));
                    self.propagate(u, ru, round, acc);
                }
            }
            Session::SelfUpdate(es) => {
                // The same kept-slot append as the scatter's: every member
                // is written, and kept if it re-enters the frontier.
                let es = &es[range];
                let base = acc.next.len();
                acc.next.resize(base + es.len(), 0);
                let slots = &mut acc.next[base..];
                let mut n = 0;
                for (i, &(u, ru)) in es.iter().enumerate() {
                    if let Some(&(a, _)) = es.get(i + AHEAD) {
                        prefetch(&p[a as usize]);
                    }
                    slots[n] = u;
                    n += self.eager_self_update(u, ru, round.phase) as usize;
                }
                acc.next.truncate(base + n);
                acc.work.atomic_adds += es.len() as u64;
                acc.work.enqueued += n as u64;
            }
        }
    }

    /// One session of `round`, its output appended to `acc`: on the
    /// calling thread if the round is owned, else over `crew`, whose merged
    /// result is the session's barrier. Hands the input's buffer back for
    /// reuse (an empty one when the crew took it).
    fn session(
        &self,
        session: Session,
        round: Round,
        crew: Option<&PushCrew<'_>>,
        acc: &mut SessAcc,
    ) -> (Vec<VertexId>, Vec<(VertexId, f64)>) {
        let n = session.len();
        if round.owned {
            self.fill(&session, round, 0..n, acc);
            return session.into_buffers();
        }
        let crew = crew.expect("a round that fans out runs on the push's crew");
        acc.append(crew.run((session, round), n, SessAcc::merge));
        Default::default()
    }

    /// One push round over `b.frontier`, leaving the next frontier there:
    /// Algorithm 4's two sessions — neighbor-propagation on fresh reads,
    /// then the consistent self-update with its second frontier-generation
    /// pass — or Algorithm 3's — self-update (stale snapshot), then
    /// neighbor-propagation. Both write into `b`'s buffers, so an owned
    /// round allocates nothing once they have grown to its frontiers.
    fn round(
        &self,
        b: &mut RoundBufs,
        round: Round,
        crew: Option<&PushCrew<'_>>,
    ) -> CounterSnapshot {
        let mut acc = SessAcc {
            next: take(&mut b.next),
            entries: take(&mut b.entries),
            work: Default::default(),
        };
        acc.next.clear();
        acc.entries.clear();
        let frontier = take(&mut b.frontier);
        // In the eager order, a frontier vertex that accumulated more than
        // ε since its read goes straight back into the frontier, after
        // session 1's crossings. (With local duplicate detection this
        // enqueue cannot duplicate: session 1 never enqueues current
        // members, whose before-values already satisfy the push condition.
        // With flags, the member's claim is held until this very check.)
        let (first, second): (_, fn(_) -> _) = if self.variant.eager {
            (Session::ReadAndPropagate(frontier), Session::SelfUpdate)
        } else {
            (Session::TakeOut(frontier), Session::Propagate)
        };
        let (frontier, _) = self.session(first, round, crew, &mut acc);
        let entries = take(&mut acc.entries);
        let (_, entries) = self.session(second(entries), round, crew, &mut acc);
        (b.frontier, b.next, b.entries) = (acc.next, frontier, entries);
        acc.work
    }
}

/// A push between rounds: the phase it is in, the buffers holding that
/// phase's next frontier, the work counted so far, and what decides
/// whether a round fans out.
struct Push<'b> {
    bufs: &'b mut RoundBufs,
    /// Index into [`Phase::BOTH`].
    phase: usize,
    work: CounterSnapshot,
    opts: PushOpts,
    threads: usize,
}

impl Push<'_> {
    /// The phase's first frontier: its active seeds. Positive pushes only
    /// ever *add* probability mass, so the only candidates for the
    /// negative phase are the seeds themselves (Algorithm 3 line 4 written
    /// work-efficiently).
    fn start_phase(&mut self, ctx: &Ctx) {
        let phase = Phase::BOTH[self.phase];
        let active = |&u: &VertexId| phase.active(ctx.state.r(u), ctx.eps);
        let RoundBufs { seeds, frontier, .. } = &mut *self.bufs;
        frontier.clear();
        frontier.extend(seeds.iter().copied().filter(active));
        // Flag discipline differs by ordering (see `eager_self_update`):
        // * vanilla+flags: a member's flag is cleared when its frontier
        //   starts (it was zeroed, so any re-crossing is a genuine
        //   re-activation);
        // * eager+flags: a member's flag stays set while scheduled, so
        //   session 1 cannot re-enqueue a vertex whose pending self-update
        //   is about to drain it — only session 2's re-check puts it back.
        if ctx.variant.eager && !ctx.variant.local_dup {
            for &u in frontier.iter() {
                ctx.claimed[u as usize].store(true, Ordering::Relaxed);
            }
        }
    }

    /// Runs rounds to convergence. Rounds that stay on the caller need no
    /// crew; the first that fans out, met with none, opens the push's one
    /// crew and runs it and every later round there.
    fn run(&mut self, ctx: &Ctx, crew: Option<&PushCrew<'_>>) {
        loop {
            let len = self.bufs.frontier.len();
            if len == 0 {
                self.phase += 1;
                if self.phase == Phase::BOTH.len() {
                    return;
                }
                self.start_phase(ctx);
                continue;
            }
            let threads = if len < self.opts.seq_threshold { 1 } else { self.threads };
            let round = Round { phase: Phase::BOTH[self.phase], owned: one_part(len, threads) };
            if !round.owned && crew.is_none() {
                let work = |job: &(Session, Round), range: Range<usize>| {
                    let mut acc = SessAcc::for_part(&job.0, &range);
                    ctx.fill(&job.0, job.1, range, &mut acc);
                    acc
                };
                return with_crew(self.threads, work, |crew| self.run(ctx, Some(crew)));
            }
            if cfg!(any(test, debug_assertions)) {
                let RoundBufs { frontier, seen, .. } = &mut *self.bufs;
                assert!(distinct(frontier, seen), "a frontier names a vertex twice");
            }
            self.work.iterations += 1;
            self.work.max_frontier = self.work.max_frontier.max(len as u64);
            let work = ctx.round(self.bufs, round, crew);
            debug_assert_eq!(work.pushes, len as u64, "one push per frontier member");
            self.work += work;
            if !ctx.variant.eager && !ctx.variant.local_dup {
                // Release the claim flags so next iteration's members can
                // be re-enqueued if they re-activate.
                for &v in &self.bufs.frontier {
                    ctx.claimed[v as usize].store(false, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Runs the parallel local push to convergence from the given seed
/// vertices with default [`PushOpts`] on [`default_threads`] threads. On
/// return every residual lies within `[−ε, ε]`.
pub fn parallel_local_push(
    g: &DynamicGraph,
    state: &PprState,
    variant: PushVariant,
    seeds: &[VertexId],
    counters: &Counters,
    bufs: &mut ParPushBuffers,
) {
    let opts = PushOpts::default();
    parallel_local_push_opts(g, state, variant, seeds, counters, bufs, opts, default_threads())
}

/// [`parallel_local_push`] with explicit tuning options and thread count.
/// An iteration whose frontier is shorter than `opts.seq_threshold` runs on
/// one thread whatever `threads` says, and issues no CAS; with
/// `threads = 1` every iteration does, and the push is deterministic. The
/// first iteration that fans out opens one `with_crew` scope for the rest
/// of the push; no thread outlives the call.
///
/// The positive phase runs first, then the negative one, each seeded from
/// the seeds whose residual is active in it.
pub fn parallel_local_push_opts(
    g: &DynamicGraph,
    state: &PprState,
    variant: PushVariant,
    seeds: &[VertexId],
    counters: &Counters,
    bufs: &mut ParPushBuffers,
    opts: PushOpts,
    threads: usize,
) {
    if !variant.local_dup {
        bufs.ensure(g.num_vertices());
    }
    let ParPushBuffers { claimed, rounds } = bufs;
    // Every frontier member indexes the residuals, so their length bounds
    // the bits the check needs.
    let words = state.r_atomics().len().div_ceil(64);
    if cfg!(any(test, debug_assertions)) && rounds.seen.len() < words {
        rounds.seen.resize(words, 0);
    }
    let ctx = Ctx {
        g,
        state,
        alpha: state.config().alpha,
        eps: state.config().epsilon,
        variant,
        claimed,
    };
    dedup_seeds_into(seeds, &mut rounds.seeds);
    rounds.frontier.clear();
    let work = CounterSnapshot::default();
    let mut push = Push { bufs: rounds, phase: 0, work, opts, threads };
    push.start_phase(&ctx);
    push.run(&ctx, None);
    counters.add(&push.work);
    debug_assert!(state.max_abs_residual() <= ctx.eps + 1e-12);
}

/// Lemma 4's `R^p`: the lock-step push with the **vanilla** parallel push's
/// stale reads (every frontier residual taken out at the start of its
/// iteration), simulated deterministically on one thread, recording
/// `‖Rs‖₁` after every iteration. Pair it with
/// [`crate::seq::sequential_push_lockstep`], which runs the same loop with
/// fresh reads.
pub fn parallel_push_lockstep(
    g: &DynamicGraph,
    state: &PprState,
    seeds: &[VertexId],
) -> LockstepTrace {
    lockstep(g, state, seeds, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PprConfig;
    use crate::invariant::max_invariant_violation;
    use crate::invariant::{absorb_batch, Repairs};
    use crate::seq::sequential_push_lockstep;
    use dppr_graph::EdgeUpdate;

    /// Figure 1/2/3 graph (paper ids −1): 2→1, 3→1, 3→2, 4→3, 1→4.
    fn figure_graph() -> DynamicGraph {
        DynamicGraph::from_edges([(1, 0), (2, 0), (2, 1), (3, 2), (0, 3)])
    }

    fn figure_state() -> PprState {
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        for (v, (p, r)) in
            [(0.5, 0.0625), (0.25, 0.0), (0.1875, 0.0), (0.0625, 0.0625)].into_iter().enumerate()
        {
            st.set_p(v as u32, p);
            st.set_r(v as u32, r);
        }
        st
    }

    #[test]
    fn figure2_batch_parallel_matches_paper() {
        // Batch {v1→v2, v4→v1}; Figure 2(d) expects (paper rounding):
        // P = [0.5781, 0.25, 0.1875, 0.1718], R = [0.0546, 0.0781, 0.039, 0.039].
        // The vanilla variant reproduces the figure exactly (the figure's
        // trace snapshots residuals at iteration start).
        let mut g = figure_graph();
        let mut st = figure_state();
        let c = Counters::new();
        let batch = [EdgeUpdate::insert(0, 1), EdgeUpdate::insert(3, 0)];
        let mut r = Repairs::default();
        assert_eq!(absorb_batch(&mut g, &mut st, &batch, &c, &mut r), [0, 3]);
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::VANILLA, &[0, 3], &c, &mut bufs);

        assert!((st.p(0) - 0.578125).abs() < 1e-12);
        assert!((st.p(3) - 0.171875).abs() < 1e-12);
        assert!((st.r(0) - 0.0546875).abs() < 1e-12);
        assert!((st.r(1) - 0.078125).abs() < 1e-12);
        assert!((st.r(2) - 0.0390625).abs() < 1e-12);
        assert!((st.r(3) - 0.0390625).abs() < 1e-12);
        assert!(st.converged());
        assert!(max_invariant_violation(&g, &st) < 1e-12);
        // Convergence "in one iteration" (Example 2).
        assert_eq!(c.snapshot().iterations, 1);
        assert_eq!(c.snapshot().pushes, 2);
    }

    #[test]
    fn figure2_all_variants_converge_with_invariant() {
        for variant in PushVariant::ALL {
            let mut g = figure_graph();
            let mut st = figure_state();
            let c = Counters::new();
            let batch = [EdgeUpdate::insert(0, 1), EdgeUpdate::insert(3, 0)];
            absorb_batch(&mut g, &mut st, &batch, &c, &mut Repairs::default());
            let mut bufs = ParPushBuffers::new();
            parallel_local_push(&g, &st, variant, &[0, 3], &c, &mut bufs);
            assert!(st.converged(), "{variant} did not converge");
            assert!(max_invariant_violation(&g, &st) < 1e-12, "{variant} broke the invariant");
        }
    }

    #[test]
    fn figure3_parallel_loss_is_one_extra_push() {
        // Figure 3: the parallel push spends 5 operations where the
        // sequential one needs 4 (v3 is pushed twice).
        let g = figure_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut st = PprState::new(cfg);
        st.ensure_len(4);
        st.set_p(0, 0.0);
        st.set_r(0, 1.0);
        let c = Counters::new();
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::VANILLA, &[0], &c, &mut bufs);
        assert_eq!(c.snapshot().pushes, 5);
        assert!((st.p(0) - 0.5).abs() < 1e-12);
        assert!((st.p(1) - 0.25).abs() < 1e-12);
        assert!((st.p(2) - 0.1875).abs() < 1e-12);
        assert!((st.p(3) - 0.0625).abs() < 1e-12);
        assert!((st.r(0) - 0.0625).abs() < 1e-12);
        assert!((st.r(3) - 0.0625).abs() < 1e-12);
        assert!(st.converged());
    }

    #[test]
    fn figure3_lockstep_traces_match_lemma4() {
        // ‖R^p(x)‖₁ ≥ ‖R^q(x)‖₁ for every common iteration (Lemma 4).
        let g = figure_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mk = || {
            let mut st = PprState::new(cfg);
            st.ensure_len(4);
            st.set_p(0, 0.0);
            st.set_r(0, 1.0);
            st
        };
        let sp = mk();
        let par_trace = parallel_push_lockstep(&g, &sp, &[0]);
        let sq = mk();
        let seq_trace = sequential_push_lockstep(&g, &sq, &[0]);
        assert_eq!(par_trace.pushes, 5);
        assert_eq!(seq_trace.pushes, 4);
        assert_eq!(par_trace.frontier_sizes, vec![1, 2, 2]);
        assert_eq!(seq_trace.frontier_sizes, vec![1, 2, 1]);
        for (i, (p, q)) in
            par_trace.l1_after_iteration.iter().zip(&seq_trace.l1_after_iteration).enumerate()
        {
            assert!(p >= q, "iteration {i}: parallel ‖R‖₁={p} < sequential {q}");
        }
    }

    #[test]
    fn eager_beats_vanilla_on_figure3_ops() {
        // Eager propagation exists precisely to reclaim Figure 3's lost
        // push: v2's contribution reaches v3 before v3's own push.
        // (Deterministic here: scheduling order does not
        // matter because the claim is about operation *counts* after
        // convergence, which are schedule-independent on this tiny DAG of
        // dependencies... they are not in general — so we assert only that
        // eager never does *more* pushes than vanilla on this instance.)
        let g = figure_graph();
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let run = |variant: PushVariant| {
            let mut st = PprState::new(cfg);
            st.ensure_len(4);
            st.set_p(0, 0.0);
            st.set_r(0, 1.0);
            let c = Counters::new();
            let mut bufs = ParPushBuffers::new();
            parallel_local_push(&g, &st, variant, &[0], &c, &mut bufs);
            assert!(st.converged());
            assert!(max_invariant_violation(&g, &st) < 1e-12);
            c.snapshot().pushes
        };
        assert!(run(PushVariant::OPT) <= run(PushVariant::VANILLA));
    }

    #[test]
    fn all_variants_agree_with_sequential_on_random_updates() {
        use crate::seq::{sequential_local_push, SeqPushBuffers};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let cfg = PprConfig::new(0, 0.15, 1e-3);
        let mut rng = SmallRng::seed_from_u64(5);
        // A shared random update script.
        let mut script: Vec<EdgeUpdate> = Vec::new();
        for _ in 0..400 {
            let u = rng.gen_range(0..40u32);
            let v = rng.gen_range(0..40u32);
            script.push(if rng.gen_bool(0.8) {
                EdgeUpdate::insert(u, v)
            } else {
                EdgeUpdate::delete(u, v)
            });
        }

        // Reference: sequential engine over 10-update batches.
        let mut g_ref = DynamicGraph::new();
        let mut st_ref = PprState::new(cfg);
        let c = Counters::new();
        let mut sbufs = SeqPushBuffers::new();
        let mut r = Repairs::default();
        for chunk in script.chunks(10) {
            let seeds = absorb_batch(&mut g_ref, &mut st_ref, chunk, &c, &mut r);
            sequential_local_push(&g_ref, &st_ref, seeds, &c, &mut sbufs);
        }
        assert!(st_ref.converged());

        for variant in PushVariant::ALL {
            let mut g = DynamicGraph::new();
            let mut st = PprState::new(cfg);
            let mut bufs = ParPushBuffers::new();
            for chunk in script.chunks(10) {
                let seeds = absorb_batch(&mut g, &mut st, chunk, &c, &mut r);
                parallel_local_push(&g, &st, variant, seeds, &c, &mut bufs);
                assert!(st.converged(), "{variant} left residuals over ε");
            }
            assert!(max_invariant_violation(&g, &st) < 1e-9, "{variant} broke the invariant");
            // Both are ε-approximations of the same exact vector, so they
            // can differ by at most 2ε.
            for v in 0..40u32 {
                let d = (st.p(v) - st_ref.p(v)).abs();
                assert!(
                    d <= 2.0 * cfg.epsilon + 1e-12,
                    "{variant}: vertex {v} differs from sequential by {d}"
                );
            }
        }
    }

    /// Only the flag variants read claim flags, so only their pushes grow
    /// the array: a local-dup session carries none.
    #[test]
    fn claim_flags_are_allocated_only_by_the_flag_variants() {
        use dppr_graph::generators::erdos_renyi;
        let g = DynamicGraph::from_edges(erdos_renyi(1_000, 5_000, 3));
        assert_eq!(g.num_vertices(), 1_000);
        for variant in PushVariant::ALL {
            let st = PprState::cold_start(PprConfig::new(0, 0.2, 1e-4), g.num_vertices());
            let c = Counters::new();
            let mut bufs = ParPushBuffers::new();
            parallel_local_push(&g, &st, variant, &[0], &c, &mut bufs);
            assert!(c.snapshot().pushes > 1, "{variant} pushed nothing");
            let want = if variant.local_dup { 0 } else { g.num_vertices() };
            assert_eq!(bufs.claimed.len(), want, "{variant}");
        }
    }

    #[test]
    fn empty_seed_push_is_noop() {
        let g = figure_graph();
        let st = figure_state();
        let c = Counters::new();
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::OPT, &[], &c, &mut bufs);
        assert_eq!(c.snapshot().pushes, 0);
    }

    #[test]
    fn negative_batch_drains() {
        // Delete-only batch drives residuals negative; the second phase
        // must drain them for every variant.
        for variant in PushVariant::ALL {
            let mut g = figure_graph();
            let mut st = figure_state();
            // Bring the state to convergence on a bigger residual first so
            // deletions have something to subtract.
            let c = Counters::new();
            let mut bufs = ParPushBuffers::new();
            let mut r = Repairs::default();
            absorb_batch(&mut g, &mut st, &[EdgeUpdate::insert(0, 1)], &c, &mut r);
            parallel_local_push(&g, &st, variant, &[0], &c, &mut bufs);
            let batch = [EdgeUpdate::delete(2, 0), EdgeUpdate::delete(2, 1)];
            let seeds = absorb_batch(&mut g, &mut st, &batch, &c, &mut r);
            parallel_local_push(&g, &st, variant, seeds, &c, &mut bufs);
            assert!(st.converged(), "{variant}");
            assert!(max_invariant_violation(&g, &st) < 1e-12, "{variant}");
        }
    }
}
