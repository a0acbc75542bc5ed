//! Named synthetic datasets mirroring the paper's evaluation graphs (§5.1).
//!
//! The paper evaluates on five SNAP graphs. Those files are not available
//! offline, so each preset is a seeded generator configuration whose *shape*
//! (degree skew, average degree, directedness convention) matches the
//! original at laptop scale:
//!
//! | preset        | paper graph  | model  | ~vertices | ~logical edges |
//! |---------------|--------------|--------|-----------|----------------|
//! | `youtube_sim` | Youtube      | BA(3)  | 30 000    | 90 000 (und.)  |
//! | `pokec_sim`   | Pokec        | R-MAT  | 65 536    | 600 000 (dir.) |
//! | `lj_sim`      | LiveJournal  | BA(7)  | 100 000   | 700 000 (und.) |
//! | `orkut_sim`   | Orkut        | BA(19) | 60 000    | 1 140 000 (und.)|
//! | `twitter_sim` | Twitter-2010 | R-MAT  | 131 072   | 2 000 000 (dir.)|

use crate::generators::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use crate::stream::GraphStream;
use crate::types::VertexId;

/// A named, reproducible dataset: logical edges plus the directedness
/// convention for streaming.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Preset name (e.g. `"lj-sim"`).
    pub name: &'static str,
    /// Logical edges. For undirected datasets each pair is stored once and
    /// expands to two arcs on arrival.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Whether edges follow the undirected (two-arc) convention.
    pub undirected: bool,
    /// A sensible error threshold ε for this graph's scale; chosen so the
    /// per-slide work is comparable (relative to graph size) to the paper's
    /// default ε = 10⁻⁷ on million-node graphs.
    pub default_epsilon: f64,
}

impl Dataset {
    /// Builds the timestamped stream under the random edge permutation
    /// arrival model.
    pub fn stream(&self, seed: u64) -> GraphStream {
        let s = if self.undirected {
            GraphStream::undirected(self.edges.clone())
        } else {
            GraphStream::directed(self.edges.clone())
        };
        s.permuted(seed)
    }

    /// Number of directed arcs the full dataset would materialize.
    pub fn num_arcs(&self) -> usize {
        self.edges.len() * if self.undirected { 2 } else { 1 }
    }
}

/// Youtube stand-in: small, sparse, undirected (BA preferential attachment).
pub fn youtube_sim() -> Dataset {
    Dataset {
        name: "youtube-sim",
        edges: barabasi_albert(30_000, 3, 0xFEED_0001),
        undirected: true,
        default_epsilon: 1e-6,
    }
}

/// Pokec stand-in: mid-size directed power-law graph (R-MAT).
pub fn pokec_sim() -> Dataset {
    Dataset {
        name: "pokec-sim",
        edges: rmat(16, 600_000, RmatParams::default(), 0xFEED_0002),
        undirected: false,
        default_epsilon: 1e-6,
    }
}

/// LiveJournal stand-in: undirected BA with the paper's average degree (~14).
pub fn lj_sim() -> Dataset {
    Dataset {
        name: "lj-sim",
        edges: barabasi_albert(100_000, 7, 0xFEED_0003),
        undirected: true,
        default_epsilon: 1e-6,
    }
}

/// Orkut stand-in: dense undirected BA (paper Orkut has und. degree ~78).
pub fn orkut_sim() -> Dataset {
    Dataset {
        name: "orkut-sim",
        edges: barabasi_albert(60_000, 19, 0xFEED_0004),
        undirected: true,
        default_epsilon: 1e-6,
    }
}

/// Twitter stand-in: the largest preset, directed R-MAT with Graph500 skew.
pub fn twitter_sim() -> Dataset {
    Dataset {
        name: "twitter-sim",
        edges: rmat(17, 2_000_000, RmatParams::default(), 0xFEED_0005),
        undirected: false,
        default_epsilon: 1e-5,
    }
}

/// The largest stand-in: a 1M-vertex BA graph whose ~16M arcs exceed
/// last-level caches, reproducing the DRAM-bound regime where the paper's
/// parallel speedups live (its graphs are 30M–1.4B edges). Generation
/// takes ~15 s; used by the `--full` experiment runs.
pub fn big_sim() -> Dataset {
    Dataset {
        name: "big-sim",
        edges: barabasi_albert(1_000_000, 8, 0xFEED_0042),
        undirected: true,
        default_epsilon: 1e-5,
    }
}

/// A tiny ER graph for unit tests and doc examples.
pub fn toy() -> Dataset {
    Dataset {
        name: "toy",
        edges: erdos_renyi(200, 1_000, 0xFEED_0006),
        undirected: false,
        default_epsilon: 1e-4,
    }
}

/// A small-but-nontrivial BA graph for fast benchmarks.
pub fn small_sim() -> Dataset {
    Dataset {
        name: "small-sim",
        edges: barabasi_albert(5_000, 5, 0xFEED_0007),
        undirected: true,
        default_epsilon: 1e-5,
    }
}

/// The five paper-shaped presets, smallest first.
pub fn all() -> Vec<Dataset> {
    vec![youtube_sim(), pokec_sim(), lj_sim(), orkut_sim(), twitter_sim()]
}

/// Looks up a preset by name (accepts both `lj-sim` and `lj_sim` spellings).
pub fn by_name(name: &str) -> Option<Dataset> {
    match name.replace('_', "-").as_str() {
        "youtube-sim" => Some(youtube_sim()),
        "pokec-sim" => Some(pokec_sim()),
        "lj-sim" => Some(lj_sim()),
        "orkut-sim" => Some(orkut_sim()),
        "twitter-sim" => Some(twitter_sim()),
        "big-sim" => Some(big_sim()),
        "toy" => Some(toy()),
        "small-sim" => Some(small_sim()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_is_deterministic() {
        let a = toy();
        let b = toy();
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.num_arcs(), 1_000);
    }

    #[test]
    fn small_sim_doubles_arcs() {
        let d = small_sim();
        assert!(d.undirected);
        assert_eq!(d.num_arcs(), d.edges.len() * 2);
    }

    #[test]
    fn by_name_resolves_both_spellings() {
        assert!(by_name("lj-sim").is_some());
        assert!(by_name("lj_sim").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn stream_is_seeded() {
        let d = toy();
        let s1 = d.stream(9);
        let s2 = d.stream(9);
        assert_eq!(s1.edge_at(0), s2.edge_at(0));
        assert_eq!(s1.len(), d.edges.len());
    }
}
