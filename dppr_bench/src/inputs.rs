//! Seeded inputs. The same `--seed` gives the same stream, sources and
//! query sequence; the program under test only ever sees these.

use dppr_graph::generators::{rmat_stream, RmatParams};
use dppr_graph::{GraphStream, VertexId};
use std::time::{Duration, Instant};

/// Sliding-window warm-up share (the paper's 10 %).
pub const INIT_FRACTION: f64 = 0.1;
/// Teleport probability used throughout.
pub const ALPHA: f64 = 0.15;

/// Derives an independent seed for one purpose from the run seed
/// (splitmix64 finaliser), so R-MAT generation, stream permutation and
/// the query mix never share a random sequence.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sizes of the two library workloads.
#[derive(Debug, Clone, Copy)]
pub struct PushSpec {
    pub scale: u32,
    pub edges: usize,
    /// Logical edges per slide: 1 % of the window, the paper's setting.
    pub batch: usize,
    pub epsilon: f64,
    /// Slides every repetition completes whatever its time box; exact
    /// counts and the traced-pipeline identity are taken over them.
    pub prefix_slides: usize,
}

impl PushSpec {
    pub fn standard() -> Self {
        PushSpec {
            scale: 18,
            edges: 2_000_000,
            batch: 2_000,
            epsilon: 1e-5,
            prefix_slides: 40,
        }
    }

    pub fn smoke() -> Self {
        PushSpec {
            scale: 11,
            edges: 30_000,
            batch: 30,
            epsilon: 1e-4,
            prefix_slides: 10,
        }
    }
}

/// Sizes of the two server workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub scale: u32,
    pub edges: usize,
    pub sessions: usize,
    pub epsilon: f64,
    pub cache_capacity: usize,
    /// Logical edges per slide.
    pub batch: usize,
    /// Pause after each slide (zero: the writer runs flat out).
    pub slide_pause: Duration,
    /// WAL + checkpoints on during the timed repetitions.
    pub durable: bool,
    /// Offered query rate of the open-loop phase.
    pub open_qps: f64,
    /// Connections of the closed-loop phase.
    pub closed_conns: usize,
    /// Requests kept outstanding on each of them.
    pub closed_depth: usize,
    /// Requests per chunk of the closed loop: fixed work, timed as one
    /// sample between two reference ticks.
    pub closed_chunk: usize,
    /// Slides the crash image of the recovery phase holds in its WAL tail.
    pub recovery_slides: usize,
    /// The open loop runs in chunks this long, a reference tick between
    /// them.
    pub chunk_s: f64,
}

impl ServeSpec {
    pub fn read() -> Self {
        ServeSpec {
            scale: 16,
            edges: 600_000,
            sessions: 32,
            epsilon: 1e-4,
            cache_capacity: 4096,
            batch: 200,
            slide_pause: Duration::from_millis(200),
            durable: false,
            open_qps: 1000.0,
            closed_conns: 2,
            closed_depth: 64,
            closed_chunk: 8_000,
            recovery_slides: 32,
            chunk_s: 0.25,
        }
    }

    pub fn write() -> Self {
        ServeSpec {
            batch: 250,
            slide_pause: Duration::ZERO,
            durable: true,
            open_qps: 100.0,
            closed_conns: 1,
            ..Self::read()
        }
    }

    /// Shrinks either spec to a graph that boots in milliseconds.
    pub fn smoke(self) -> Self {
        ServeSpec {
            scale: 10,
            edges: 12_000,
            sessions: 4,
            batch: if self.durable { 20 } else { 10 },
            // Never zero: a writer this small would finish its slides
            // before the bench's poller thread has started to watch it.
            slide_pause: self
                .slide_pause
                .clamp(Duration::from_millis(1), Duration::from_millis(4)),
            open_qps: self.open_qps * 4.0,
            closed_chunk: 100,
            recovery_slides: 4,
            chunk_s: 0.02,
            ..self
        }
    }
}

/// A generated stream and how long generating it took.
pub struct Inputs {
    pub stream: GraphStream,
    /// One past the largest vertex id in the stream.
    pub vertex_bound: usize,
    /// R-MAT sampling plus permutation; excluded from `setup_s`.
    pub gen_s: f64,
}

/// R-MAT edge stream of `edges` arcs over `2^scale` vertices in a seeded
/// random arrival order.
pub fn generate(scale: u32, edges: usize, seed: u64) -> Inputs {
    let t = Instant::now();
    let raw = rmat_stream(scale, edges, RmatParams::default(), derive_seed(seed, 1));
    let stream = GraphStream::directed(raw).permuted(derive_seed(seed, 2));
    let vertex_bound = stream.vertex_bound();
    Inputs {
        stream,
        vertex_bound,
        gen_s: t.elapsed().as_secs_f64(),
    }
}

/// The hub source of the library workloads: the top out-degree vertex
/// of the initial window. The paper draws from the top-10 bucket, but on
/// R-MAT that bucket spans a 3x range of degree, and with it of push
/// work, so a draw from it turns the seed into the largest source of
/// run-to-run spread. The top vertex has the same expected degree for
/// every seed.
pub fn hub_source(stream: &GraphStream) -> VertexId {
    dppr_serve::pick_top_degree_sources(stream, INIT_FRACTION, 1)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = generate(8, 2_000, 5);
        let b = generate(8, 2_000, 5);
        let c = generate(8, 2_000, 6);
        let edges = |i: &Inputs| {
            (0..i.stream.len())
                .map(|k| i.stream.edge_at(k))
                .collect::<Vec<_>>()
        };
        assert_eq!(edges(&a), edges(&b));
        assert_ne!(edges(&a), edges(&c));
        assert_eq!(hub_source(&a.stream), hub_source(&b.stream));
    }

    #[test]
    fn derived_seeds_differ_by_purpose() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
    }
}
