//! Heap allocations of a steady-state slide: `MultiSourcePpr::apply_batch`
//! on one lane, counted by a global allocator that counts per thread.
//!
//! Once a lane's push buffers, the bundle's repair and seed buffers and
//! every state have grown to what the stream needs, a slide allocates a
//! fixed handful of times: not once per session, not once per round. The
//! count is pinned to a literal, so a change that brings back a
//! per-session or per-round allocation fails here. One lane keeps every
//! push on the calling thread, where the count is kept; the debug build
//! (with its duplicate-free frontier check) and the optimised build count
//! the same.

#![allow(unsafe_code)] // the counting allocator below; the workspace denies it everywhere else

use dppr_core::MultiSourcePpr;
use dppr_graph::generators::{barabasi_albert, undirected_to_directed};
use dppr_graph::{DynamicGraph, EdgeUpdate, VertexId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting the allocations and reallocations of each thread.
struct Counting;

thread_local! {
    /// Allocations made on this thread. A `const`-initialised `Cell` has
    /// no destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its caller's arguments to `System`, whose
// contract is the caller's; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations of one steady-state slide at one lane: the lane's list
/// of per-session results. A slide with more sessions or more rounds than
/// another makes no more of them.
const PER_SLIDE: u64 = 1;

/// Two slides over a chunk of arcs: one retracts them, the next inserts
/// them again. The vertex set stays put, and so do the graph's spans,
/// whose room the deletes free for the inserts.
fn retract_and_restore(arcs: &[(VertexId, VertexId)]) -> [Vec<EdgeUpdate>; 2] {
    let updates = |op: fn(VertexId, VertexId) -> EdgeUpdate| {
        arcs.iter().map(|&(u, v)| op(u, v)).collect::<Vec<_>>()
    };
    [updates(EdgeUpdate::delete), updates(EdgeUpdate::insert)]
}

/// Loads a BA graph into a bundle of the `sessions` oldest (best
/// connected) vertices, warms it over `slides` three times, then returns
/// each slide's allocations and push rounds on the fourth pass.
fn steady_slides(sessions: VertexId, slides: &[Vec<EdgeUpdate>]) -> Vec<(u64, u64)> {
    let arcs = undirected_to_directed(&barabasi_albert(3_000, 3, 7));
    let load: Vec<EdgeUpdate> = arcs.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
    let sources: Vec<VertexId> = (0..sessions).collect();
    let mut multi = MultiSourcePpr::new(&sources, 0.2, 1e-5);
    let mut g = DynamicGraph::new();
    multi.apply_batch_over(&mut g, &load, 1);
    for batch in slides.iter().cycle().take(3 * slides.len()) {
        multi.apply_batch_over(&mut g, batch, 1);
    }
    let mut out = Vec::new();
    for batch in slides {
        let rounds = multi.counters().snapshot().iterations;
        let before = ALLOCATIONS.with(Cell::get);
        multi.apply_batch_over(&mut g, batch, 1);
        let made = ALLOCATIONS.with(Cell::get) - before;
        out.push((made, multi.counters().snapshot().iterations - rounds));
    }
    out
}

/// Slides of 2 arcs and of 50 arcs, the larger pushing over twice the
/// rounds of the smaller, at 8 and at 32 sessions: every steady-state
/// slide makes [`PER_SLIDE`] allocations.
#[test]
fn a_steady_state_slide_allocates_the_same_at_any_session_or_round_count() {
    let arcs = undirected_to_directed(&barabasi_albert(3_000, 3, 7));
    let slides = |arcs: &[(VertexId, VertexId)], size| -> Vec<Vec<EdgeUpdate>> {
        arcs.chunks(size).take(2).flat_map(retract_and_restore).collect()
    };
    let (few, many) = (slides(&arcs[2_000..], 2), slides(&arcs, 50));
    for sessions in [8, 32] {
        let (few, many) = (steady_slides(sessions, &few), steady_slides(sessions, &many));
        let most_rounds_of_few = few.iter().map(|&(_, rounds)| rounds).max().unwrap();
        for &(_, rounds) in &many {
            assert!(rounds >= 2 * most_rounds_of_few, "{sessions} sessions: {few:?} {many:?}");
        }
        for (allocations, rounds) in few.into_iter().chain(many) {
            let at = format!("{sessions} sessions, a slide of {rounds} rounds");
            assert_eq!(allocations, PER_SLIDE, "{at}");
        }
    }
}
