//! Deterministic metrics and live progress streaming for the SNBC pipeline.
//!
//! This crate is the *quantitative* observability layer, sitting between
//! `snbc-trace` (timelines: *when* did each phase run) and `snbc-telemetry`
//! (run reports: *what* did a finished run do). Its one record is the typed
//! `snbc-progress/2` event ([`ProgressEvent`]: `learn-epoch`, `verify-rung`,
//! `interval-query`, `cex`, `reseed`, `round`, `wave`, `cache-hit`,
//! `cache-miss`, `job-start`, `job-done`); every artifact is a view of the
//! event log:
//!
//! * **What is the pipeline doing while it runs?** — a [`Progress`] writer
//!   serializes events as line-buffered NDJSON with monotonically
//!   increasing sequence numbers, so a consumer can follow a `snbc batch`
//!   run round-by-round.
//! * **What are the aggregate counts?** — the [`Metrics`] registry records
//!   the events it is sent and folds them into counters and fixed-bucket
//!   histograms ([`MetricsSnapshot`], the `snbc-metrics/2` JSON document)
//!   and into Prometheus text exposition ([`prom::to_prometheus`],
//!   textfile-collector style — no network).
//! * **What did a cached race do?** — a batch job's cache entry stores its
//!   canonical event record ([`Progress::record`]); a hit replays it into
//!   the stream and the registry alike.
//!
//! # Determinism model
//!
//! One fork/merge rule serves every view: concurrent producers (racing
//! candidates) record into private buffers ([`Progress::fork_buffer`]) and
//! the single-threaded race loop drains them in a **fixed index order** at
//! a barrier ([`Progress::drain_into`]). Because every producer is
//! deterministic in isolation and the drain order is fixed, the merged
//! event sequence — and therefore the stream and every fold over it — is
//! byte-identical at any worker count.
//!
//! Wall-clock and cache-temperature effects are quarantined rather than
//! forbidden: live NDJSON lines carry a `t_us` timestamp and the
//! environmental `cache-hit`/`cache-miss` events, while the **canonical**
//! stream mode strips `t_us` and skips environmental events, and
//! [`Metrics::snapshot`] with `canonical = true` skips them too. The
//! canonical artifacts are byte-identical across `SNBC_THREADS` settings
//! *and* across cold/warm cache runs (`tests/progress_determinism.rs` holds
//! that line); the live artifacts are for humans and dashboards.
//!
//! All timestamps come from [`snbc_trace::now_us`] — the workspace's single
//! sanctioned clock — so this crate never reads `Instant` directly.

pub mod progress;
pub mod prom;
pub mod registry;

pub use progress::{EventSink, Progress, ProgressEvent, Scope, PROGRESS_SCHEMA};
pub use registry::{buckets, HistogramSnapshot, Metrics, MetricsSnapshot, METRICS_SCHEMA};

// The hand-rolled JSON module both schemas serialize through; re-exported
// (like `snbc-telemetry` does) so downstream crates need no direct
// `snbc-trace` dependency to parse progress lines.
pub use snbc_trace::json;
