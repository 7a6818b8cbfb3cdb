//! Content-addressed on-disk certificate cache.
//!
//! A cache entry is keyed by the canonical compact JSON (`snbc-cache-key/1`)
//! of everything that determines a race's outcome bit-for-bit: the system
//! (name, dimension, vector field, set constraints and boxes), the trained
//! controller (layer sizes, activation, and the **exact parameter bit
//! stream** — every weight as its IEEE-754 bit pattern, so the byte-exact
//! `key.json` comparison below covers controller identity in full), every
//! deterministic configuration knob, the candidate grid, and the solver
//! version. `time_limit` is deliberately **excluded**: it can change
//! *whether* a run finishes, never *what* it produces, and the cache only
//! ever stores certified outcomes.
//!
//! The key text is hashed (two independent 64-bit FNV-1a passes → 32 hex
//! characters) into a directory name holding four artifacts:
//!
//! ```text
//! <cache>/<hash>/key.json          # the canonical key, for collision checks
//! <cache>/<hash>/result.json       # the job result (snbc-batch-report/1 shape)
//! <cache>/<hash>/certificate.txt   # the SafetyCertificate, human-readable
//! <cache>/<hash>/progress.ndjson   # the race's canonical snbc-progress/2 record
//! ```
//!
//! The last is the job's **event record**: a `stream-start` header, then
//! the canonical (seq- and job-less) events its race emitted. On a cache
//! hit `run_batch` replays it into the progress stream and the metric
//! registry alike, which is what keeps the canonical stream and the
//! canonical metrics snapshot byte-identical between cold and warm runs.
//!
//! A lookup re-reads `key.json` and compares it byte-for-byte with the
//! probe's canonical text, so even a full 128-bit hash collision degrades to
//! a cache miss, never to a wrong certificate. Entries are staged in a
//! sibling temp directory and published with a single atomic `rename`, so
//! concurrent batch runs sharing a cache dir (and crashes mid-store) can
//! never expose a torn entry.

use std::path::{Path, PathBuf};

use snbc::SnbcConfig;
use snbc_dynamics::{Ccds, SemiAlgebraicSet};
use snbc_nn::Mlp;
use snbc_telemetry::json::Value;

use crate::grid::ConfigGrid;
use crate::jobs::BatchError;

/// Schema tag of the canonical key document.
pub const KEY_SCHEMA: &str = "snbc-cache-key/1";

/// A fully resolved cache key: the canonical JSON text plus its hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    canonical: String,
    hash: String,
}

impl CacheKey {
    /// Builds the key for racing `grid` over `system` under `controller` and
    /// `base` — see the module docs for exactly what is hashed.
    pub fn new(system: &Ccds, controller: &Mlp, base: &SnbcConfig, grid: &ConfigGrid) -> CacheKey {
        let canonical = key_json(system, controller, base, grid).to_compact_string();
        let hash = hash128_hex(canonical.as_bytes());
        CacheKey { canonical, hash }
    }

    /// The canonical `snbc-cache-key/1` JSON text.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 32-hex-character content hash (the cache directory name).
    pub fn hash(&self) -> &str {
        &self.hash
    }
}

/// The on-disk cache: a directory of content-addressed entries.
#[derive(Debug, Clone)]
pub struct CertificateCache {
    dir: PathBuf,
}

/// A cached entry, as returned by [`CertificateCache::lookup`].
#[derive(Debug, Clone)]
pub struct CachedEntry {
    /// The stored `result.json` text.
    pub result_json: String,
    /// The stored certificate text, when the entry has one.
    pub certificate: Option<String>,
    /// The stored event record, when the entry has one.
    pub progress_ndjson: Option<String>,
}

impl CertificateCache {
    /// Opens (lazily — no I/O happens here) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> CertificateCache {
        CertificateCache { dir: dir.into() }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks `key` up. Any failure — missing entry, unreadable files, or a
    /// key-byte mismatch (hash collision) — is reported as a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedEntry> {
        let entry = self.dir.join(key.hash());
        let stored_key = std::fs::read_to_string(entry.join("key.json")).ok()?;
        if stored_key != key.canonical() {
            return None;
        }
        let result_json = std::fs::read_to_string(entry.join("result.json")).ok()?;
        let certificate = std::fs::read_to_string(entry.join("certificate.txt")).ok();
        let progress_ndjson = std::fs::read_to_string(entry.join("progress.ndjson")).ok();
        Some(CachedEntry {
            result_json,
            certificate,
            progress_ndjson,
        })
    }

    /// Stores a result (and its certificate and event record, when present)
    /// under `key`.
    ///
    /// The entry is written into a private temp directory and published with
    /// one atomic `rename`, so a reader (or a crash) can never observe a
    /// torn entry — `key.json` present with `result.json` half-written.
    /// When an entry already exists (a concurrent `snbc batch` sharing the
    /// cache dir, or a stale entry that failed validation and triggered a
    /// re-race), it is replaced; losing that swap to another writer is fine,
    /// because entries are content-addressed and the bytes can only be
    /// replaced by equivalent bytes.
    pub fn store(
        &self,
        key: &CacheKey,
        result_json: &str,
        certificate: Option<&str>,
        progress_ndjson: Option<&str>,
    ) -> Result<(), BatchError> {
        use std::sync::atomic::{self, Ordering};
        #[expect(clippy::disallowed_types, reason = "names staging dirs only: the counter never reaches an entry's bytes")]
        static STORE_SEQ: atomic::AtomicU64 = atomic::AtomicU64::new(0);

        let entry = self.dir.join(key.hash());
        let io = |path: &Path, e: std::io::Error| BatchError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        // Unique per process × call, so two writers never share a staging dir.
        let tmp = self.dir.join(format!(
            "{}.tmp-{}-{}",
            key.hash(),
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&tmp).map_err(|e| io(&tmp, e))?;
        let staged = (|| -> Result<(), BatchError> {
            let key_path = tmp.join("key.json");
            std::fs::write(&key_path, key.canonical()).map_err(|e| io(&key_path, e))?;
            let result_path = tmp.join("result.json");
            std::fs::write(&result_path, result_json).map_err(|e| io(&result_path, e))?;
            if let Some(cert) = certificate {
                let cert_path = tmp.join("certificate.txt");
                std::fs::write(&cert_path, cert).map_err(|e| io(&cert_path, e))?;
            }
            if let Some(events) = progress_ndjson {
                let events_path = tmp.join("progress.ndjson");
                std::fs::write(&events_path, events).map_err(|e| io(&events_path, e))?;
            }
            Ok(())
        })();
        if let Err(e) = staged {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort teardown: the staging failure is the real error"
            )]
            let _ = std::fs::remove_dir_all(&tmp);
            return Err(e);
        }
        if std::fs::rename(&tmp, &entry).is_ok() {
            return Ok(());
        }
        // The entry path is occupied (renaming a directory onto a non-empty
        // one fails). Clear it and retry once; if another writer repopulates
        // it first, accept their equivalent entry and discard ours. The
        // retried rename reports any failure that matters here.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a failed clear shows up as the retried rename's error"
        )]
        let _ = std::fs::remove_dir_all(&entry);
        match std::fs::rename(&tmp, &entry) {
            Ok(()) => Ok(()),
            Err(e) => {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort teardown of the losing staging dir"
                )]
                let _ = std::fs::remove_dir_all(&tmp);
                if entry.join("key.json").is_file() {
                    Ok(())
                } else {
                    Err(io(&entry, e))
                }
            }
        }
    }
}

/// The canonical key document. Every `f64` knob is encoded as its exact IEEE
/// bit pattern (`f64::to_bits`) so the text never depends on float
/// formatting; human-readable floats appear only in display artifacts.
fn key_json(system: &Ccds, controller: &Mlp, base: &SnbcConfig, grid: &ConfigGrid) -> Value {
    Value::Obj(vec![
        ("schema".to_string(), Value::Str(KEY_SCHEMA.to_string())),
        (
            "solver".to_string(),
            Value::Obj(vec![(
                "snbc_version".to_string(),
                Value::Str(env!("CARGO_PKG_VERSION").to_string()),
            )]),
        ),
        ("system".to_string(), system_json(system)),
        ("controller".to_string(), controller_json(controller)),
        ("config".to_string(), config_json(base)),
        ("grid".to_string(), grid.to_json()),
    ])
}

fn system_json(system: &Ccds) -> Value {
    Value::Obj(vec![
        ("name".to_string(), Value::Str(system.name().to_string())),
        ("nvars".to_string(), Value::Int(system.nvars() as u64)),
        (
            "field".to_string(),
            Value::Arr(
                system
                    .field()
                    .iter()
                    .map(|p| Value::Str(p.to_string()))
                    .collect(),
            ),
        ),
        ("init".to_string(), set_json(system.init())),
        ("domain".to_string(), set_json(system.domain())),
        ("unsafe".to_string(), set_json(system.unsafe_set())),
    ])
}

fn set_json(set: &SemiAlgebraicSet) -> Value {
    Value::Obj(vec![
        (
            "polys".to_string(),
            Value::Arr(
                set.polys()
                    .iter()
                    .map(|p| Value::Str(p.to_string()))
                    .collect(),
            ),
        ),
        (
            "box".to_string(),
            Value::Arr(
                set.bounding_box()
                    .iter()
                    .flat_map(|&(lo, hi)| [Value::Int(lo.to_bits()), Value::Int(hi.to_bits())])
                    .collect(),
            ),
        ),
    ])
}

fn controller_json(controller: &Mlp) -> Value {
    Value::Obj(vec![
        (
            "layers".to_string(),
            Value::Arr(
                controller
                    .layer_sizes()
                    .iter()
                    .map(|&s| Value::Int(s as u64))
                    .collect(),
            ),
        ),
        (
            "activation".to_string(),
            Value::Str(format!("{:?}", controller.activation())),
        ),
        // The complete parameter stream, bit-exact. A digest here would
        // punch a hole in the `key.json` byte-compare collision guard: two
        // controllers with colliding digests would key identically and a
        // wrong certificate could be served. Controllers are small MLPs, so
        // the full stream costs little and closes that hole.
        (
            "params".to_string(),
            Value::Arr(
                controller
                    .params()
                    .iter()
                    .map(|&p| Value::Int(p.to_bits()))
                    .collect(),
            ),
        ),
    ])
}

fn config_json(cfg: &SnbcConfig) -> Value {
    let bits = |f: f64| Value::Int(f.to_bits());
    Value::Obj(vec![
        ("batch".to_string(), Value::Int(cfg.batch as u64)),
        (
            "max_iterations".to_string(),
            Value::Int(cfg.max_iterations as u64),
        ),
        (
            "reseed_after_plateau".to_string(),
            Value::Int(cfg.reseed_after_plateau as u64),
        ),
        ("seed".to_string(), Value::Int(cfg.seed)),
        (
            "approx".to_string(),
            Value::Obj(vec![
                ("degree".to_string(), Value::Int(u64::from(cfg.approx.degree))),
                ("mesh_spacing".to_string(), bits(cfg.approx.mesh_spacing)),
                (
                    "max_mesh_points".to_string(),
                    Value::Int(cfg.approx.max_mesh_points as u64),
                ),
            ]),
        ),
        (
            "learner".to_string(),
            Value::Obj(vec![
                ("learning_rate".to_string(), bits(cfg.learner.learning_rate)),
                ("epochs".to_string(), Value::Int(cfg.learner.epochs as u64)),
                ("epsilon".to_string(), bits(cfg.learner.epsilon)),
                ("leaky_slope".to_string(), bits(cfg.learner.leaky_slope)),
                ("weight_init".to_string(), bits(cfg.learner.weights.0)),
                ("weight_unsafe".to_string(), bits(cfg.learner.weights.1)),
                ("weight_flow".to_string(), bits(cfg.learner.weights.2)),
                ("loss_target".to_string(), bits(cfg.learner.loss_target)),
                ("weight_decay".to_string(), bits(cfg.learner.weight_decay)),
            ]),
        ),
        (
            "verifier".to_string(),
            Value::Obj(vec![
                (
                    "multiplier_degree".to_string(),
                    Value::Int(u64::from(cfg.verifier.multiplier_degree)),
                ),
                (
                    "lambda_degree".to_string(),
                    Value::Int(u64::from(cfg.verifier.lambda_degree)),
                ),
                ("epsilon1".to_string(), bits(cfg.verifier.epsilon1)),
                ("epsilon2".to_string(), bits(cfg.verifier.epsilon2)),
            ]),
        ),
        (
            "cex".to_string(),
            Value::Obj(vec![
                ("restarts".to_string(), Value::Int(cfg.cex.restarts as u64)),
                ("steps".to_string(), Value::Int(cfg.cex.steps as u64)),
                ("step_size".to_string(), bits(cfg.cex.step_size)),
                (
                    "ball_samples".to_string(),
                    Value::Int(cfg.cex.ball_samples as u64),
                ),
                ("seed".to_string(), Value::Int(cfg.cex.seed)),
            ]),
        ),
    ])
}

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x9e37_79b9_7f4a_7c15;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(offset: u64, bytes: &[u8]) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128 hash bits as 32 hex characters: two FNV-1a passes over the same
/// bytes from independent offset bases. Not cryptographic — the byte-exact
/// `key.json` comparison in [`CertificateCache::lookup`] is the correctness
/// guarantee; the hash only spreads entries across directories.
fn hash128_hex(bytes: &[u8]) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a64(FNV_OFFSET_A, bytes),
        fnv1a64(FNV_OFFSET_B, bytes)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::benchmarks;
    use snbc_nn::{train_controller, ControllerTraining};

    fn c3_key(seed_axis: Vec<u64>) -> CacheKey {
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 50,
                ..Default::default()
            },
        );
        let grid = ConfigGrid {
            seeds: seed_axis,
            ..Default::default()
        };
        CacheKey::new(&bench.system, &controller, &SnbcConfig::default(), &grid)
    }

    #[test]
    fn key_is_stable_and_grid_sensitive() {
        let a = c3_key(vec![1, 2]);
        let b = c3_key(vec![1, 2]);
        let c = c3_key(vec![2, 1]);
        assert_eq!(a, b, "same inputs, same canonical key");
        assert_ne!(a.hash(), c.hash(), "axis order is part of the key");
        assert_eq!(a.hash().len(), 32);
        assert!(a.canonical().starts_with("{\"schema\":\"snbc-cache-key/1\""));
    }

    /// Any single differing parameter bit must change the canonical key:
    /// controller identity is covered by the byte-exact `key.json`
    /// comparison itself, not by a collision-prone digest.
    #[test]
    fn key_covers_the_full_controller_parameter_stream() {
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 50,
                ..Default::default()
            },
        );
        let mut tweaked = controller.clone();
        let mut params = tweaked.params().to_vec();
        params[0] = f64::from_bits(params[0].to_bits() ^ 1);
        tweaked.set_params(&params);
        let grid = ConfigGrid::default();
        let a = CacheKey::new(&bench.system, &controller, &SnbcConfig::default(), &grid);
        let b = CacheKey::new(&bench.system, &tweaked, &SnbcConfig::default(), &grid);
        assert_ne!(a.canonical(), b.canonical(), "one flipped bit must re-key");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let key = c3_key(vec![1]);
        let dir = std::env::temp_dir().join(format!("snbc-cache-test-{}", key.hash()));
        let cache = CertificateCache::new(&dir);
        assert!(cache.lookup(&key).is_none(), "cold cache misses");
        cache
            .store(
                &key,
                "{\"certified\":true}",
                Some("certificate body"),
                Some("{\"ev\":\"job-done\"}\n"),
            )
            .unwrap();
        let hit = cache.lookup(&key).expect("warm cache hits");
        assert_eq!(hit.result_json, "{\"certified\":true}");
        assert_eq!(hit.certificate.as_deref(), Some("certificate body"));
        assert_eq!(hit.progress_ndjson.as_deref(), Some("{\"ev\":\"job-done\"}\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn collision_with_different_key_bytes_is_a_miss() {
        let key = c3_key(vec![1]);
        let other = c3_key(vec![1, 2]);
        let dir = std::env::temp_dir().join(format!("snbc-cache-test-x-{}", key.hash()));
        let cache = CertificateCache::new(&dir);
        cache.store(&key, "{}", None, None).unwrap();
        // Forge a directory under `other`'s hash holding `key`'s key bytes.
        let forged = dir.join(other.hash());
        std::fs::create_dir_all(&forged).unwrap();
        std::fs::write(forged.join("key.json"), key.canonical()).unwrap();
        std::fs::write(forged.join("result.json"), "{}").unwrap();
        assert!(cache.lookup(&other).is_none(), "key bytes must match exactly");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
