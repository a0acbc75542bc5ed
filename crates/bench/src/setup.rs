//! Workload and engine construction shared across the figures.

use dppr_core::{DynamicPprEngine, ParallelEngine, PprConfig, PushVariant, SeqEngine, UpdateMode};
use dppr_graph::presets::Dataset;
use dppr_graph::VertexId;
use dppr_mc::MonteCarloEngine;
use dppr_stream::{pick_top_degree_source, StreamDriver};
use dppr_vc::LigraEngine;
use std::time::{Duration, Instant};

/// How large a run a figure should do. `Quick` keeps every
/// figure reproducible in seconds; `Full` mirrors the paper's relative
/// scales (minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small datasets, few slides — CI-friendly smoke scale.
    Quick,
    /// The preset datasets at their configured sizes.
    Full,
}

impl ExperimentScale {
    /// Datasets to sweep at this scale.
    pub fn datasets(self) -> Vec<Dataset> {
        use dppr_graph::presets;
        match self {
            ExperimentScale::Quick => vec![presets::small_sim(), presets::youtube_sim()],
            ExperimentScale::Full => presets::all(),
        }
    }

    /// Number of slides to average over (paper: 100, or 10 for Twitter).
    pub fn slides(self) -> usize {
        match self {
            ExperimentScale::Quick => 10,
            ExperimentScale::Full => 50,
        }
    }
}

/// The engine line-up of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Sequential push, per-update synchronization.
    CpuBase,
    /// Sequential push, batched restore.
    CpuSeq,
    /// Parallel push with the given variant.
    CpuMt(PushVariant),
    /// Incremental Monte-Carlo with `walks_per_vertex × |V|` walks.
    MonteCarlo { walks_per_vertex: usize },
    /// Vertex-centric (Ligra-style) implementation.
    Ligra,
}

/// Builds an engine for a graph with `num_vertices` vertices.
pub fn build_engine(
    kind: EngineKind,
    cfg: PprConfig,
    num_vertices: usize,
    seed: u64,
) -> Box<dyn DynamicPprEngine> {
    match kind {
        EngineKind::CpuBase => Box::new(SeqEngine::new(cfg, UpdateMode::PerUpdate)),
        EngineKind::CpuSeq => Box::new(SeqEngine::new(cfg, UpdateMode::Batched)),
        EngineKind::CpuMt(variant) => Box::new(ParallelEngine::new(cfg, variant)),
        EngineKind::MonteCarlo { walks_per_vertex } => {
            Box::new(MonteCarloEngine::new(cfg, (walks_per_vertex * num_vertices).max(1_000), seed))
        }
        EngineKind::Ligra => Box::new(LigraEngine::new(cfg)),
    }
}

/// A fully prepared workload: stream, chosen source, and sizing info.
pub struct Workload {
    /// Dataset name.
    pub name: String,
    /// The timestamped stream (undirectedness already encoded).
    pub dataset: Dataset,
    /// Stream permutation seed.
    pub seed: u64,
    /// Chosen source vertex.
    pub source: VertexId,
    /// Vertex bound of the stream.
    pub num_vertices: usize,
    /// Logical edges in the initial window.
    pub window_len: usize,
}

impl Workload {
    /// Prepares a workload: permutes the stream, materializes the initial
    /// window once to choose a source from the `top_bucket` largest
    /// out-degrees, and records sizing.
    pub fn prepare(dataset: Dataset, seed: u64, init_fraction: f64, top_bucket: usize) -> Self {
        let stream = dataset.stream(seed);
        let window = dppr_graph::SlidingWindow::new(stream, init_fraction);
        let source = pick_top_degree_source(&window.to_graph(), top_bucket, seed ^ 0xABCD);
        Workload {
            name: dataset.name.to_string(),
            num_vertices: window.stream().vertex_bound(),
            window_len: window.window_len(),
            dataset,
            seed,
            source,
        }
    }

    /// A fresh driver over this workload's stream.
    pub fn driver(&self, init_fraction: f64) -> StreamDriver {
        StreamDriver::new(self.dataset.stream(self.seed), init_fraction)
    }

    /// Default ε for the dataset.
    pub fn epsilon(&self) -> f64 {
        self.dataset.default_epsilon
    }

    /// A config with the paper's default α.
    pub fn config(&self, epsilon: f64) -> PprConfig {
        PprConfig::new(self.source, 0.15, epsilon)
    }
}

/// Runs `kind` over `workload` and returns the slide summary. One fresh
/// driver and engine per call, so engines never share state.
pub fn run_engine(
    kind: EngineKind,
    workload: &Workload,
    epsilon: f64,
    batch: usize,
    max_slides: usize,
    budget: Duration,
) -> dppr_stream::RunSummary {
    let cfg = workload.config(epsilon);
    let mut engine = build_engine(kind, cfg, workload.num_vertices, workload.seed);
    let mut driver = workload.driver(0.1);
    driver.bootstrap(engine.as_mut());
    driver.run_for(engine.as_mut(), batch, max_slides, budget)
}

/// Formats a `Duration` as fractional milliseconds for TSV output.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `n` runs of `body`, each after an untimed `reset`, and returns
/// `(median, min, max)` — the ablations' clock. The extremes are returned
/// because a median alone cannot tell a difference from noise.
pub fn median_of<R>(
    n: usize,
    mut reset: impl FnMut(),
    mut body: impl FnMut() -> R,
) -> (Duration, Duration, Duration) {
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            reset();
            let start = Instant::now();
            std::hint::black_box(body());
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    (samples[n / 2], samples[0], samples[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_graph::presets;

    #[test]
    fn workload_preparation_is_deterministic() {
        let a = Workload::prepare(presets::toy(), 3, 0.1, 10);
        let b = Workload::prepare(presets::toy(), 3, 0.1, 10);
        assert_eq!(a.source, b.source);
        assert_eq!(a.window_len, b.window_len);
        assert!(a.window_len > 0);
    }

    /// The figures' legend is each engine's own `name()`, the paper's.
    #[test]
    fn engine_labels() {
        let cfg = PprConfig::new(0, 0.15, 1e-3);
        let name = |kind| build_engine(kind, cfg, 100, 1).name();
        assert_eq!(name(EngineKind::CpuBase), "CPU-Base");
        assert_eq!(name(EngineKind::CpuSeq), "CPU-Seq");
        assert_eq!(name(EngineKind::CpuMt(PushVariant::OPT)), "CPU-MT[Opt]");
        assert_eq!(name(EngineKind::MonteCarlo { walks_per_vertex: 1 }), "Monte-Carlo");
        assert_eq!(name(EngineKind::Ligra), "Ligra");
    }

    #[test]
    fn build_each_engine_kind() {
        let cfg = PprConfig::new(0, 0.15, 1e-3);
        for kind in [
            EngineKind::CpuBase,
            EngineKind::CpuSeq,
            EngineKind::CpuMt(PushVariant::OPT),
            EngineKind::MonteCarlo { walks_per_vertex: 1 },
            EngineKind::Ligra,
        ] {
            let e = build_engine(kind, cfg, 100, 1);
            assert!(!e.name().is_empty());
        }
    }
}
