//! `dppr-serve` — concurrent query serving over maintained PPR vectors.
//!
//! The paper's premise is that PPR must stay fresh *while* a high-rate
//! update stream mutates the graph; the systems it aims to serve (HubPPR,
//! distributed exact PPR, and the online-serving framing of Zhang et al.
//! and Lin) all answer per-source queries continuously. This crate is that
//! read path:
//!
//! * [`epoch`] — single-writer / many-reader snapshot publication: an
//!   `RwLock<Arc<QuerySnapshot>>` per session, held for one `Arc` clone or
//!   one swap, plus the instance's epoch counter. Readers can never
//!   observe a torn state; `Arc` frees a snapshot after its last holder.
//! * [`snapshot`] — [`QuerySnapshot`], an immutable `(estimates, ε,
//!   epoch)` frozen at the publication point, answering top-k / score /
//!   threshold / compare via the slice-based query kernels in
//!   `dppr_core::queries`.
//! * [`registry`] — the [`SessionRegistry`]: many tracked sources over one
//!   `MultiSourcePpr`, with open/close and LRU eviction past a capacity
//!   budget.
//! * [`cache`] — the [`QueryCache`], keyed by `(source, query, params)`
//!   and implicitly invalidated by every epoch bump.
//! * [`http`] / [`json`] — a hand-rolled HTTP/1.1 + JSON layer (the build
//!   environment is offline: no tokio, no serde, no hyper). Requests are
//!   parsed incrementally ([`http::try_parse`]) with percent-decoded
//!   query params; responses carry explicit keep-alive semantics.
//! * [`conn`] — the per-connection state machine: non-blocking reads into
//!   a bounded head buffer, pipelined request extraction, buffered
//!   writes, and read/write deadline accounting.
//! * [`event`] — the readiness-polled serving loop: one `poll(2)` shard
//!   per thread (via the vendored `minipoll` wrapper), each owning its
//!   connections outright, fed by a bounded accept queue with
//!   `503 Retry-After` load shedding when full.
//! * [`server`] — the assembled instance's shared types (`ServeConfig`,
//!   `ServerStats`, `ServerHandle`), with the code along its seams:
//!   `boot` (start + recovery), `writer` (the one write loop sliding
//!   `StreamDriver` batches — graph once, sessions over
//!   `ServeConfig::write_shards` push lanes — epoch publication after
//!   every batch, durability acks), `query` (dispatch + query handlers,
//!   shedding while a slide lags the stream) and `admin` (telemetry +
//!   control).
//! * [`metrics`] — the pipeline histograms and the tables that describe
//!   every histogram's and every scalar's `/metrics` family, `/stats` key
//!   and `/series` column once.
//! * [`durability`] — checkpoints + the `dppr-wal` write-ahead log: every
//!   slide batch is logged before its epoch publishes, a background
//!   checkpointer snapshots session states, and a restarted instance
//!   recovers as *newest checkpoint + WAL-tail replay* (torn final
//!   records are truncated away).
//! * [`signals`] — SIGTERM/SIGINT → graceful shutdown: drain in-flight
//!   connections, flush the WAL, write a final checkpoint.
//! * [`audit`] — the observer thread: online accuracy audits against a
//!   sequential ground-truth solve (`dppr_audit_*`), the in-process
//!   metrics time-series behind `GET /series`, and SLO burn-rate
//!   evaluation (`dppr_slo_*`, the `/healthz` degraded reason, and the
//!   latency-breach shed flag).
//!
//! Start one with [`start`]; drive it with `dppr serve` from the CLI.

mod admin;
pub mod audit;
mod boot;
pub mod cache;
pub mod conn;
pub mod durability;
pub mod epoch;
pub mod event;
pub mod http;
pub mod json;
pub mod metrics;
mod query;
pub mod registry;
pub mod server;
pub mod signals;
pub mod snapshot;
mod writer;

pub use cache::{CacheStats, QueryCache, QueryKind};
pub use conn::{Close, Conn, Step};
pub use durability::{DurabilityConfig, RecoveryReport};
pub use dppr_wal::FsyncPolicy;
pub use epoch::{EpochDomain, Reader, SnapshotCell};
pub use event::{ConnCounters, Router, ShardConfig};
pub use http::{Request, Response};
pub use metrics::ServerMetrics;
pub use registry::{OpenOutcome, SessionEntry, SessionRegistry};
pub use boot::{boot_probe, pick_top_degree_sources, start, BootProbe};
pub use server::{ServeConfig, ServeReport, ServerHandle, ServerStats};
pub use snapshot::QuerySnapshot;
