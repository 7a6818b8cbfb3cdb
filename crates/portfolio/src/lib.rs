//! **snbc-portfolio** — portfolio CEGIS racing and the batch certificate
//! service for the SNBC reproduction.
//!
//! The paper's CEGIS loop (Algorithm 1) is sensitive to its starting point:
//! the learner's seed, the multiplier shape (`λ` degree), the SOS
//! multiplier degree, and the §3 mesh granularity all steer which barrier
//! basin the loop lands in, and a configuration that certifies `C_k` in two
//! rounds may plateau for ten under a neighboring seed. This crate turns
//! that sensitivity into throughput, in two layers:
//!
//! - [`race`](race()) ([`grid`] + [`race`](mod@race)): expand a
//!   [`ConfigGrid`] into K candidate configurations and advance all of them
//!   in lock-step waves — one CEGIS round per candidate per wave, scheduled
//!   over [`snbc_par`] — stopping at the first wave in which any candidate
//!   certifies. The winner is the **lowest grid index** among that wave's
//!   certified candidates, which makes the result bitwise independent of
//!   `SNBC_THREADS`.
//! - [`run_batch`] ([`jobs`] + [`cache`] + [`batch`]): a job-file front-end
//!   (`snbc batch jobs.json`) over the racer with a content-addressed
//!   on-disk certificate cache, so re-verifying a fleet of systems is one
//!   lookup per already-solved job. Batch reports
//!   ([`BatchOutcome::report_json`], schema `snbc-batch-report/1`) are
//!   byte-deterministic across thread counts and cache temperature.
//!
//! The racing contract, slice scheduling, cache-key schema, and report
//! schema are documented in `docs/PORTFOLIO.md`.

// Solver library code returns typed errors and surfaces every Result: a
// panic or a dropped error here aborts or silently corrupts certificate
// synthesis (docs/AUDIT.md).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok,
    clippy::no_effect_underscore_binding
)]

pub mod batch;
pub mod cache;
pub mod grid;
pub mod jobs;
pub mod race;

pub use batch::{
    run_batch, BatchOptions, BatchOutcome, JobOutcome, JobResult, SystemResolver, REPORT_SCHEMA,
};
pub use cache::{CacheKey, CachedEntry, CertificateCache, KEY_SCHEMA};
pub use grid::{CandidateConfig, ConfigGrid};
pub use jobs::{BatchError, BatchSpec, JobSource, JobSpec, JOBS_SCHEMA};
pub use race::{race, RaceOutcome, RaceWinner};
