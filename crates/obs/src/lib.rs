//! dppr-obs: std-only observability primitives for the dppr stack.
//!
//! Three pieces, mirroring how the paper instruments its kernels
//! (per-phase timing rather than end-to-end black boxes):
//!
//! - [`hist`]: fixed-bucket log-scale atomic histograms (~×1.2 per
//!   bucket) with exact snapshot merging and p50/p90/p99/p999 extraction
//!   at bucket resolution.
//! - [`registry`]: the Prometheus text-format writer ([`PromText`]); it
//!   renders what its caller hands it and keeps no list of metrics.
//! - [`trace`]: every-Nth sampling and a bounded JSON-lines ring for
//!   end-to-end request/slide traces.
//! - [`series`]: a fixed-capacity ring of periodic metric snapshots
//!   with windowed last/min/max/avg/rate queries — the substrate the
//!   SLO burn-rate evaluation and `/series` endpoint read from.
//! - [`process`]: best-effort `/proc/self` gauges (RSS, open fds,
//!   thread count).
//!
//! Nothing here knows about PPR, HTTP, or the WAL — the serving layer
//! owns metric names and trace schemas; this crate owns the mechanics.

pub mod hist;
pub mod process;
pub mod registry;
pub mod series;
pub mod trace;

pub use hist::{bounds, bucket_index, HistSnapshot, Histogram};
pub use process::ProcessStats;
pub use registry::{escape_label_value, PromText, Unit};
pub use series::{SeriesRing, SeriesWindow};
pub use trace::{Sampler, TraceRing};
