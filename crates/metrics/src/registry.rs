//! The metric registry: a fold over the `snbc-progress` event log.
//!
//! A recording [`Metrics`] handle is a [`Progress::buffer`] that records
//! every event delivered to it; [`Metrics::snapshot`] folds that log into
//! counters and fixed-bucket histograms. Producers never touch the registry
//! directly — they emit events into a [`Progress`] fanout that carries the
//! registry's [`Metrics::sink`] — so each fact is recorded exactly once and
//! the registry needs no fork/merge rule of its own: concurrent producers
//! record into buffers that are drained in a fixed order, and the
//! fold sees events in that order at any `SNBC_THREADS` setting.
//!
//! Every entry comes from exactly one event kind:
//!
//! | event            | entries folded from it |
//! |------------------|------------------------|
//! | `learn-epoch`    | `rounds` +1 |
//! | `verify-rung`    | `verify_rung_feasible` or `verify_rung_infeasible` +1 |
//! | `cex`            | `cex_points` +`points`; `cex_points_per_round` ← `points`; `interval_fallbacks` +1 on a fallback |
//! | `interval-query` | `boxes` +`boxes`; `boxes_per_query` ← `boxes` |
//! | `reseed`         | `reseeds` +1 |
//! | `job-done`       | `jobs` +1; `jobs_certified` +1 if certified; `candidates`, `waves` summed; `waves_per_race` ← `waves` |
//! | `cache-hit`, `cache-miss` | `cache_hit`, `cache_miss` +1 (environmental) |
//!
//! Histograms use **static bucket grids** (see [`buckets`]), so bucket
//! counts are integer adds and the only float state is each histogram's
//! sum, accumulated in log order.
//!
//! # Environmental metrics
//!
//! Entries folded from environmental events (cache temperature) are
//! flagged `env`. A canonical snapshot ([`Metrics::snapshot`]`(true)`)
//! skips them, which is what makes it byte-identical across cold/warm cache
//! runs; the full snapshot (and the Prometheus exposition built from it)
//! includes everything.

use snbc_trace::json::Value;

use crate::progress::{Progress, ProgressEvent};

/// Schema tag of the snapshot document.
pub const METRICS_SCHEMA: &str = "snbc-metrics/2";

/// Static bucket grids, one per histogram.
pub mod buckets {
    /// Counterexample points fed back per CEGIS round.
    pub const POINTS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    /// Race waves per job.
    pub const WAVES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    /// Interval-oracle boxes processed per query.
    pub const BOXES: &[f64] = &[100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];
}

/// A metric registry: cheap to clone, inert when off.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    log: Progress,
}

impl Metrics {
    /// A disabled registry: its sink is off and its snapshot empty.
    pub fn off() -> Metrics {
        Metrics::default()
    }

    /// A fresh recording registry.
    pub fn recording() -> Metrics {
        Metrics {
            log: Progress::buffer(),
        }
    }

    /// The sink that records into this registry, to be placed in a
    /// [`Progress::fanout`] next to any stream (an off handle when the
    /// registry is off).
    pub fn sink(&self) -> Progress {
        self.log.clone()
    }

    /// Folds the recorded events into a snapshot, sorted by metric name.
    /// With `canonical = true`, environmental events are skipped — the
    /// canonical snapshot is the artifact that must be byte-identical
    /// across thread counts and cache temperature.
    pub fn snapshot(&self, canonical: bool) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (_, ev) in self.log.events() {
            if !(canonical && ev.is_environmental()) {
                snap.fold(&ev);
            }
        }
        snap.counters.sort_by_key(|c| c.name);
        snap.hists.sort_by_key(|h| h.name);
        snap
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    pub name: &'static str,
    pub value: u64,
    pub env: bool,
}

/// One histogram in a snapshot: per-bucket counts (not cumulative; the
/// Prometheus writer accumulates), the grid, and the sum/count pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    pub bounds: &'static [f64],
    /// One slot per bound plus the overflow bucket (`> bounds.last()`).
    pub counts: Vec<u64>,
    pub sum: f64,
    pub count: u64,
}

/// A registry snapshot; serializes to the `snbc-metrics/2` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub hists: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds one event (see the module docs for the table).
    fn fold(&mut self, ev: &ProgressEvent) {
        match ev {
            ProgressEvent::LearnEpoch { .. } => self.add("rounds", 1),
            ProgressEvent::VerifyRung { feasible, .. } => self.add(
                if *feasible {
                    "verify_rung_feasible"
                } else {
                    "verify_rung_infeasible"
                },
                1,
            ),
            ProgressEvent::Cex {
                points,
                interval_fallback,
                ..
            } => {
                self.add("cex_points", *points);
                self.observe("cex_points_per_round", buckets::POINTS, *points as f64);
                if *interval_fallback {
                    self.add("interval_fallbacks", 1);
                }
            }
            ProgressEvent::IntervalQuery { boxes, .. } => {
                self.add("boxes", *boxes);
                self.observe("boxes_per_query", buckets::BOXES, *boxes as f64);
            }
            ProgressEvent::Reseed { .. } => self.add("reseeds", 1),
            ProgressEvent::JobDone {
                certified,
                candidates,
                waves,
                ..
            } => {
                self.add("jobs", 1);
                if *certified {
                    self.add("jobs_certified", 1);
                }
                self.add("candidates", *candidates);
                self.add("waves", *waves);
                self.observe("waves_per_race", buckets::WAVES, *waves as f64);
            }
            ProgressEvent::CacheHit => self.add_env("cache_hit"),
            ProgressEvent::CacheMiss => self.add_env("cache_miss"),
            ProgressEvent::JobStart { .. }
            | ProgressEvent::Round { .. }
            | ProgressEvent::Wave { .. } => {}
        }
    }

    fn counter_mut(&mut self, name: &'static str, env: bool) -> &mut u64 {
        let i = match self.counters.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.counters.push(CounterSnapshot { name, value: 0, env });
                self.counters.len() - 1
            }
        };
        &mut self.counters[i].value
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        let value = self.counter_mut(name, false);
        *value = value.saturating_add(delta);
    }

    fn add_env(&mut self, name: &'static str) {
        *self.counter_mut(name, true) += 1;
    }

    fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        let i = match self.hists.iter().position(|h| h.name == name) {
            Some(i) => i,
            None => {
                self.hists.push(HistogramSnapshot {
                    name,
                    bounds,
                    counts: vec![0; bounds.len() + 1],
                    sum: 0.0,
                    count: 0,
                });
                self.hists.len() - 1
            }
        };
        let hist = &mut self.hists[i];
        let bucket = bounds.iter().position(|&b| value <= b).unwrap_or(bounds.len());
        hist.counts[bucket] += 1;
        hist.sum += value;
        hist.count += 1;
    }

    /// The `snbc-metrics/2` JSON document.
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(c.name.to_string())),
                    ("value".to_string(), Value::Int(c.value)),
                    ("env".to_string(), Value::Bool(c.env)),
                ])
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|h| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(h.name.to_string())),
                    (
                        "bounds".to_string(),
                        Value::Arr(h.bounds.iter().map(|&b| Value::Num(b)).collect()),
                    ),
                    (
                        "counts".to_string(),
                        Value::Arr(h.counts.iter().map(|&c| Value::Int(c)).collect()),
                    ),
                    ("sum".to_string(), Value::Num(h.sum)),
                    ("count".to_string(), Value::Int(h.count)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string())),
            ("counters".to_string(), Value::Arr(counters)),
            ("histograms".to_string(), Value::Arr(hists)),
        ])
    }

    /// Pretty `snbc-metrics/2` text (the `--metrics-json` artifact).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Convenience lookup of a counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
}
