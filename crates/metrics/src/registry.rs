//! The typed metric registry: counters, gauges, fixed-bucket histograms.
//!
//! A [`Metrics`] handle is a cheap clone (an `Arc` around the registry, or
//! nothing at all when off — the off handle makes every operation a no-op so
//! instrumented code needs no `if` forests). Concurrent producers do **not**
//! share a registry: each gets a [`Metrics::fork`] and the driver calls
//! [`Metrics::merge`] in a fixed order at a barrier, which keeps every
//! float accumulation order — histogram sums, gauge last-writes —
//! independent of `SNBC_THREADS`.
//!
//! Histograms use **static bucket grids** (see [`buckets`]): the grid is
//! part of the observation site, not runtime state, so two forks of the
//! same histogram always have index-aligned buckets and merging is an
//! elementwise integer add — bitwise deterministic by construction.
//!
//! # Environmental metrics
//!
//! Counters and gauges recorded via [`Metrics::add_env`] /
//! [`Metrics::gauge_env`] are marked *environmental*: they describe the
//! machine or run conditions (cache temperature, wall clock) rather than
//! the mathematical run. A canonical snapshot
//! ([`Metrics::snapshot`]`(true)`) excludes them, which is what makes the
//! snapshot byte-identical across cold/warm cache runs; the full snapshot
//! (and the Prometheus exposition built from it) includes everything.

use std::sync::{Arc, Mutex, MutexGuard};

use snbc_trace::json::{self, Value};

/// Schema tag of the snapshot document.
pub const METRICS_SCHEMA: &str = "snbc-metrics/1";

/// Static bucket grids shared by every observation site of a histogram.
///
/// Grids are `&'static` by convention so the same name can never be
/// observed against two different grids from different call sites — the
/// registry additionally ignores (in release) or flags (in debug) an
/// observation whose grid disagrees with the histogram's first one.
pub mod buckets {
    /// Counterexample points fed back per CEGIS round.
    pub const POINTS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    /// Final learner loss per round (log-ish grid).
    pub const LOSS: &[f64] = &[1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];
    /// Race waves per job.
    pub const WAVES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
    /// Interval-oracle boxes processed per query.
    pub const BOXES: &[f64] = &[100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];
}

#[derive(Debug, Default)]
struct Counter {
    name: String,
    value: u64,
    env: bool,
}

#[derive(Debug)]
struct Gauge {
    name: String,
    value: f64,
    env: bool,
}

#[derive(Debug)]
struct Hist {
    name: String,
    bounds: Vec<f64>,
    /// One slot per bound plus the overflow bucket (`> bounds.last()`).
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// Registry state behind a handle. Entries keep insertion order; snapshots
/// sort by name, so the serialized form is independent of which fork
/// introduced a metric first.
#[derive(Debug, Default)]
struct Registry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    hists: Vec<Hist>,
}

/// A handle to a metric registry; cheap to clone, no-op when off.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    rec: Option<Arc<Mutex<Registry>>>,
}

impl Metrics {
    /// A disabled handle: every operation is a no-op.
    pub fn off() -> Metrics {
        Metrics { rec: None }
    }

    /// A fresh recording registry.
    pub fn recording() -> Metrics {
        Metrics {
            rec: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// A fresh independent registry when this handle records, otherwise an
    /// off handle. Forks are how concurrent producers (racing candidates,
    /// batch jobs) record without sharing state; the driver merges them in
    /// a fixed order with [`Metrics::merge`].
    pub fn fork(&self) -> Metrics {
        if self.is_recording() {
            Metrics::recording()
        } else {
            Metrics::off()
        }
    }

    fn lock(&self) -> Option<MutexGuard<'_, Registry>> {
        // A poisoned lock only means another thread panicked mid-update;
        // the registry itself is a flat bag of counters and stays usable.
        self.rec.as_ref().map(|m| match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        })
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.add_impl(name, delta, false);
    }

    /// Adds `delta` to an **environmental** counter (cache temperature,
    /// retry counts — anything a canonical snapshot must exclude).
    pub fn add_env(&self, name: &str, delta: u64) {
        self.add_impl(name, delta, true);
    }

    fn add_impl(&self, name: &str, delta: u64, env: bool) {
        if let Some(mut reg) = self.lock() {
            if let Some(i) = reg.counters.iter().position(|c| c.name == name) {
                let c = &mut reg.counters[i];
                c.value = c.value.saturating_add(delta);
                c.env |= env;
            } else {
                reg.counters.push(Counter {
                    name: name.to_string(),
                    value: delta,
                    env,
                });
            }
        }
    }

    /// Sets the gauge `name` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        self.gauge_impl(name, value, false);
    }

    /// Sets an **environmental** gauge (excluded from canonical snapshots).
    pub fn gauge_env(&self, name: &str, value: f64) {
        self.gauge_impl(name, value, true);
    }

    fn gauge_impl(&self, name: &str, value: f64, env: bool) {
        if let Some(mut reg) = self.lock() {
            if let Some(i) = reg.gauges.iter().position(|g| g.name == name) {
                let g = &mut reg.gauges[i];
                g.value = value;
                g.env |= env;
            } else {
                reg.gauges.push(Gauge {
                    name: name.to_string(),
                    value,
                    env,
                });
            }
        }
    }

    /// Observes `value` into the fixed-bucket histogram `name`. The grid is
    /// the histogram's identity: pass the same static grid (see
    /// [`buckets`]) at every observation site. An observation against a
    /// mismatched grid is dropped (and flagged in debug builds) rather than
    /// corrupting bucket alignment.
    pub fn observe(&self, name: &str, bounds: &'static [f64], value: f64) {
        if let Some(mut reg) = self.lock() {
            let idx = match reg.hists.iter().position(|h| h.name == name) {
                Some(i) => i,
                None => {
                    reg.hists.push(Hist {
                        name: name.to_string(),
                        bounds: bounds.to_vec(),
                        counts: vec![0; bounds.len() + 1],
                        sum: 0.0,
                        count: 0,
                    });
                    reg.hists.len() - 1
                }
            };
            let hist = &mut reg.hists[idx];
            if hist.bounds != bounds {
                debug_assert!(false, "histogram `{name}` observed with a different grid");
                return;
            }
            let bucket = hist
                .bounds
                .iter()
                .position(|&b| value <= b)
                .unwrap_or(hist.bounds.len());
            hist.counts[bucket] += 1;
            hist.sum += value;
            hist.count += 1;
        }
    }

    /// Merges `child`'s registry into this one, entry by entry in the
    /// child's insertion order: counters add, gauges overwrite (the merged
    /// child's value wins), histogram buckets add elementwise. Call this in
    /// a **fixed order** over forks (grid index, job index) — that order is
    /// what makes float accumulation (histogram sums) deterministic.
    pub fn merge(&self, child: &Metrics) {
        let snap = child.snapshot(false);
        self.merge_snapshot(&snap);
    }

    /// Merges a parsed snapshot (e.g. a per-job registry replayed from the
    /// certificate cache) into this registry. Identical semantics to
    /// [`Metrics::merge`].
    pub fn merge_snapshot(&self, snap: &MetricsSnapshot) {
        for c in &snap.counters {
            self.add_impl(&c.name, c.value, c.env);
        }
        for g in &snap.gauges {
            self.gauge_impl(&g.name, g.value, g.env);
        }
        if let Some(mut reg) = self.lock() {
            for h in &snap.hists {
                if let Some(i) = reg.hists.iter().position(|x| x.name == h.name) {
                    let existing = &mut reg.hists[i];
                    if existing.bounds != h.bounds {
                        debug_assert!(false, "histogram `{}` merged with a different grid", h.name);
                        continue;
                    }
                    for (slot, add) in existing.counts.iter_mut().zip(&h.counts) {
                        *slot += add;
                    }
                    existing.sum += h.sum;
                    existing.count += h.count;
                } else {
                    reg.hists.push(Hist {
                        name: h.name.clone(),
                        bounds: h.bounds.clone(),
                        counts: h.counts.clone(),
                        sum: h.sum,
                        count: h.count,
                    });
                }
            }
        }
    }

    /// Snapshots the registry, sorted by metric name. With `canonical =
    /// true`, environmental entries are excluded — the canonical snapshot
    /// is the artifact that must be byte-identical across thread counts and
    /// cache temperature.
    pub fn snapshot(&self, canonical: bool) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Some(reg) = self.lock() {
            for c in &reg.counters {
                if canonical && c.env {
                    continue;
                }
                snap.counters.push(CounterSnapshot {
                    name: c.name.clone(),
                    value: c.value,
                    env: c.env,
                });
            }
            for g in &reg.gauges {
                if canonical && g.env {
                    continue;
                }
                snap.gauges.push(GaugeSnapshot {
                    name: g.name.clone(),
                    value: g.value,
                    env: g.env,
                });
            }
            for h in &reg.hists {
                snap.hists.push(HistogramSnapshot {
                    name: h.name.clone(),
                    bounds: h.bounds.clone(),
                    counts: h.counts.clone(),
                    sum: h.sum,
                    count: h.count,
                });
            }
        }
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        snap.hists.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
    pub env: bool,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    pub name: String,
    pub value: f64,
    pub env: bool,
}

/// One histogram in a snapshot: per-bucket counts (not cumulative; the
/// Prometheus writer accumulates), the grid, and the sum/count pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub sum: f64,
    pub count: u64,
}

/// A point-in-time registry snapshot; serializes to the `snbc-metrics/1`
/// document and back **byte-identically** (floats carry their exact IEEE
/// bit patterns next to the human-readable value, in the style of the
/// `snbc-cache-key/1` canonical document).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub hists: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The `snbc-metrics/1` JSON document.
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(c.name.clone())),
                    ("value".to_string(), Value::Int(c.value)),
                    ("env".to_string(), Value::Bool(c.env)),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|g| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(g.name.clone())),
                    // `value` is for humans (null when non-finite); `bits`
                    // is authoritative and keeps the round-trip byte-exact.
                    ("value".to_string(), Value::Num(g.value)),
                    ("bits".to_string(), Value::Int(g.value.to_bits())),
                    ("env".to_string(), Value::Bool(g.env)),
                ])
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|h| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(h.name.clone())),
                    (
                        "bounds".to_string(),
                        Value::Arr(h.bounds.iter().map(|&b| Value::Num(b)).collect()),
                    ),
                    (
                        "counts".to_string(),
                        Value::Arr(h.counts.iter().map(|&c| Value::Int(c)).collect()),
                    ),
                    ("sum".to_string(), Value::Num(h.sum)),
                    ("sum_bits".to_string(), Value::Int(h.sum.to_bits())),
                    ("count".to_string(), Value::Int(h.count)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string())),
            ("counters".to_string(), Value::Arr(counters)),
            ("gauges".to_string(), Value::Arr(gauges)),
            ("histograms".to_string(), Value::Arr(hists)),
        ])
    }

    /// Pretty `snbc-metrics/1` text (the `--metrics-json` artifact).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses an `snbc-metrics/1` document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a wrong/missing schema tag, or missing fields.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(Value::as_str) {
            Some(METRICS_SCHEMA) => {}
            other => return Err(format!("expected schema {METRICS_SCHEMA:?}, got {other:?}")),
        }
        let name_of = |o: &Value| -> Result<String, String> {
            o.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| "metric entry missing `name`".to_string())
        };
        let env_of = |o: &Value| matches!(o.get("env"), Some(Value::Bool(true)));
        let mut snap = MetricsSnapshot::default();
        for c in arr(&v, "counters")? {
            snap.counters.push(CounterSnapshot {
                name: name_of(c)?,
                value: c
                    .get("value")
                    .and_then(Value::as_u64)
                    .ok_or("counter missing `value`")?,
                env: env_of(c),
            });
        }
        for g in arr(&v, "gauges")? {
            snap.gauges.push(GaugeSnapshot {
                name: name_of(g)?,
                value: f64::from_bits(
                    g.get("bits")
                        .and_then(Value::as_u64)
                        .ok_or("gauge missing `bits`")?,
                ),
                env: env_of(g),
            });
        }
        for h in arr(&v, "histograms")? {
            let bounds = h
                .get("bounds")
                .and_then(Value::as_array)
                .ok_or("histogram missing `bounds`")?
                .iter()
                .map(|b| b.as_f64().ok_or("non-numeric bound"))
                .collect::<Result<Vec<f64>, _>>()?;
            let counts = h
                .get("counts")
                .and_then(Value::as_array)
                .ok_or("histogram missing `counts`")?
                .iter()
                .map(|c| c.as_u64().ok_or("non-integer bucket count"))
                .collect::<Result<Vec<u64>, _>>()?;
            if counts.len() != bounds.len() + 1 {
                return Err("histogram bucket/bound arity mismatch".to_string());
            }
            snap.hists.push(HistogramSnapshot {
                name: name_of(h)?,
                bounds,
                counts,
                sum: f64::from_bits(
                    h.get("sum_bits")
                        .and_then(Value::as_u64)
                        .ok_or("histogram missing `sum_bits`")?,
                ),
                count: h
                    .get("count")
                    .and_then(Value::as_u64)
                    .ok_or("histogram missing `count`")?,
            });
        }
        Ok(snap)
    }

    /// Convenience lookup of a counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Convenience lookup of a gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}

fn arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array `{key}`"))
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = Metrics::recording();
        m.add("rounds", 2);
        m.add("rounds", 3);
        m.gauge("loss", 0.5);
        m.gauge("loss", 0.25);
        let snap = m.snapshot(false);
        assert_eq!(snap.counter("rounds"), 5);
        assert_eq!(snap.gauge("loss"), Some(0.25));
        // Off handles are inert.
        let off = Metrics::off();
        off.add("rounds", 7);
        assert_eq!(off.snapshot(false).counters.len(), 0);
    }

    #[test]
    fn histogram_buckets_and_merge_are_index_aligned() {
        let a = Metrics::recording();
        let b = a.fork();
        for v in [0.0, 1.0, 3.0, 100.0] {
            a.observe("points", buckets::POINTS, v);
        }
        for v in [2.0, 5.0] {
            b.observe("points", buckets::POINTS, v);
        }
        a.merge(&b);
        let snap = a.snapshot(false);
        let h = &snap.hists[0];
        assert_eq!(h.bounds, buckets::POINTS.to_vec());
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 111.0);
        // Buckets: ≤0:1 (0.0), ≤1:1 (1.0), ≤2:1 (2.0), ≤4:1 (3.0),
        // ≤8:1 (5.0), ≤16:0, ≤32:0, ≤64:0, overflow:1 (100.0).
        assert_eq!(h.counts, vec![1, 1, 1, 1, 1, 0, 0, 0, 1]);

        // Merging forks in index order is associative on integer buckets:
        // the same observations split differently give the same snapshot.
        let c = Metrics::recording();
        for v in [0.0, 1.0, 3.0, 100.0, 2.0, 5.0] {
            c.observe("points", buckets::POINTS, v);
        }
        assert_eq!(c.snapshot(false).hists[0].counts, h.counts);
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let m = Metrics::recording();
        m.add("waves", 9);
        m.add_env("cache_hit", 1);
        m.gauge("margin", -1.0 / 3.0);
        m.gauge_env("wall_us", 123.0);
        m.observe("loss", buckets::LOSS, 0.05);
        let text = m.snapshot(false).to_json_string();
        let back = MetricsSnapshot::parse(&text).expect("parses");
        assert_eq!(back.to_json_string(), text, "byte-identical round-trip");
    }

    #[test]
    fn canonical_snapshot_excludes_environmental_entries() {
        let m = Metrics::recording();
        m.add("waves", 4);
        m.add_env("cache_miss", 1);
        m.gauge_env("wall_us", 1.0);
        let full = m.snapshot(false);
        let canon = m.snapshot(true);
        assert_eq!(full.counters.len(), 2);
        assert_eq!(canon.counters.len(), 1);
        assert_eq!(canon.counter("waves"), 4);
        assert!(canon.gauges.is_empty());
    }

    #[test]
    fn merge_snapshot_matches_direct_merge() {
        let direct = Metrics::recording();
        let via_snapshot = Metrics::recording();
        let child = Metrics::recording();
        child.add("rounds", 3);
        child.observe("points", buckets::POINTS, 7.0);
        direct.merge(&child);
        let snap_text = child.snapshot(false).to_json_string();
        let parsed = MetricsSnapshot::parse(&snap_text).expect("parses");
        via_snapshot.merge_snapshot(&parsed);
        assert_eq!(
            direct.snapshot(false).to_json_string(),
            via_snapshot.snapshot(false).to_json_string()
        );
    }

    #[test]
    fn non_finite_gauges_survive_the_round_trip() {
        let m = Metrics::recording();
        m.gauge("bad", f64::NEG_INFINITY);
        let text = m.snapshot(false).to_json_string();
        assert!(text.contains("\"value\": null"), "humans see null");
        let back = MetricsSnapshot::parse(&text).expect("parses");
        assert_eq!(back.gauge("bad").map(f64::to_bits), Some(f64::NEG_INFINITY.to_bits()));
        assert_eq!(back.to_json_string(), text);
    }
}
