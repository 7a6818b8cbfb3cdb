//! The configuration grid a race expands: seeds × multiplier shapes
//! (`lambda_degree`) × SOS multiplier degrees × §3 mesh granularities.
//!
//! The expansion order is **fixed** (seeds outermost, mesh innermost) and a
//! candidate's position in that expansion is its *grid index* — the
//! tie-breaker of the deterministic winner rule (`docs/PORTFOLIO.md`).

use snbc::SnbcConfig;
use snbc_telemetry::json::Value;

/// Axes of the candidate grid. Every combination becomes one racing
/// candidate, in the fixed nesting order `seeds → lambda_degrees →
/// multiplier_degrees → mesh_points`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGrid {
    /// RNG seeds for network initialization and sampling (`SnbcConfig::seed`).
    pub seeds: Vec<u64>,
    /// Multiplier shapes: the verifier's `lambda_degree` (0 ⇒ constant λ).
    pub lambda_degrees: Vec<u32>,
    /// SOS S-procedure multiplier degrees (`VerifierConfig::multiplier_degree`).
    pub multiplier_degrees: Vec<u32>,
    /// §3 abstraction mesh budgets (`ApproxOptions::max_mesh_points`).
    pub mesh_points: Vec<usize>,
}

impl Default for ConfigGrid {
    /// Three seeds against the default shape axes — the smallest grid that
    /// exercises the racing rule without multiplying solver cost.
    fn default() -> Self {
        ConfigGrid {
            seeds: vec![1, 2, 3],
            lambda_degrees: vec![1],
            multiplier_degrees: vec![2],
            mesh_points: vec![20_000],
        }
    }
}

impl ConfigGrid {
    /// Number of candidates the grid expands to.
    pub fn len(&self) -> usize {
        self.seeds.len()
            * self.lambda_degrees.len()
            * self.multiplier_degrees.len()
            * self.mesh_points.len()
    }

    /// Whether the expansion is empty (any axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into candidate configurations in the fixed order;
    /// `CandidateConfig::index` is the expansion position.
    pub fn expand(&self) -> Vec<CandidateConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &seed in &self.seeds {
            for &lambda_degree in &self.lambda_degrees {
                for &multiplier_degree in &self.multiplier_degrees {
                    for &mesh_points in &self.mesh_points {
                        out.push(CandidateConfig {
                            index: out.len(),
                            seed,
                            lambda_degree,
                            multiplier_degree,
                            mesh_points,
                        });
                    }
                }
            }
        }
        out
    }

    /// Canonical JSON for the cache key: axis order and element order are
    /// preserved exactly as configured (two grids with the same axes in a
    /// different order race in a different order, so they key differently).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "seeds".to_string(),
                Value::Arr(self.seeds.iter().map(|&s| Value::Int(s)).collect()),
            ),
            (
                "lambda_degrees".to_string(),
                Value::Arr(
                    self.lambda_degrees
                        .iter()
                        .map(|&d| Value::Int(u64::from(d)))
                        .collect(),
                ),
            ),
            (
                "multiplier_degrees".to_string(),
                Value::Arr(
                    self.multiplier_degrees
                        .iter()
                        .map(|&d| Value::Int(u64::from(d)))
                        .collect(),
                ),
            ),
            (
                "mesh_points".to_string(),
                Value::Arr(self.mesh_points.iter().map(|&m| Value::Int(m as u64)).collect()),
            ),
        ])
    }
}

/// One expanded grid point: the configuration a single racing candidate runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateConfig {
    /// Position in the grid expansion — the deterministic tie-breaker: among
    /// all candidates certified at the end of a wave, the lowest index wins.
    pub index: usize,
    /// `SnbcConfig::seed` for this candidate.
    pub seed: u64,
    /// `VerifierConfig::lambda_degree` (the multiplier shape axis).
    pub lambda_degree: u32,
    /// `VerifierConfig::multiplier_degree`.
    pub multiplier_degree: u32,
    /// `ApproxOptions::max_mesh_points`.
    pub mesh_points: usize,
}

impl CandidateConfig {
    /// Applies this grid point to a base configuration. The counterexample
    /// RNG gets its own per-candidate stream derived from the candidate seed
    /// (the same per-unit seeding idiom as `crates/core/src/cex.rs`), so
    /// candidates never share a random sequence however they are scheduled.
    pub fn apply(&self, base: &SnbcConfig) -> SnbcConfig {
        let mut cfg = base.clone();
        cfg.seed = self.seed;
        cfg.cex.seed = base.cex.seed.wrapping_add(self.seed.wrapping_mul(7919));
        cfg.verifier.lambda_degree = self.lambda_degree;
        cfg.verifier.multiplier_degree = self.multiplier_degree;
        cfg.approx.max_mesh_points = self.mesh_points;
        cfg
    }

    /// Canonical JSON used inside batch reports and cached results.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("index".to_string(), Value::Int(self.index as u64)),
            ("seed".to_string(), Value::Int(self.seed)),
            ("lambda_degree".to_string(), Value::Int(u64::from(self.lambda_degree))),
            (
                "multiplier_degree".to_string(),
                Value::Int(u64::from(self.multiplier_degree)),
            ),
            ("mesh_points".to_string(), Value::Int(self.mesh_points as u64)),
        ])
    }

    /// Rebuilds a candidate from its report JSON.
    pub fn from_json(v: &Value) -> Result<CandidateConfig, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("candidate config missing `{name}`"))
        };
        let out_of_range = |name: &str| format!("candidate config `{name}` is out of range");
        let index = |name: &str| usize::try_from(field(name)?).map_err(|_| out_of_range(name));
        let degree = |name: &str| u32::try_from(field(name)?).map_err(|_| out_of_range(name));
        Ok(CandidateConfig {
            index: index("index")?,
            seed: field("seed")?,
            lambda_degree: degree("lambda_degree")?,
            multiplier_degree: degree("multiplier_degree")?,
            mesh_points: index("mesh_points")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_order_is_seeds_outermost_mesh_innermost() {
        let grid = ConfigGrid {
            seeds: vec![7, 8],
            lambda_degrees: vec![0, 1],
            multiplier_degrees: vec![2],
            mesh_points: vec![100, 200],
        };
        let cands = grid.expand();
        assert_eq!(cands.len(), 8);
        assert_eq!(grid.len(), 8);
        assert_eq!(
            cands.iter().map(|c| c.index).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        // First four share seed 7; mesh toggles fastest.
        assert!(cands[..4].iter().all(|c| c.seed == 7));
        assert_eq!((cands[0].mesh_points, cands[1].mesh_points), (100, 200));
        assert_eq!((cands[0].lambda_degree, cands[2].lambda_degree), (0, 1));
        assert_eq!(cands[4].seed, 8);
    }

    #[test]
    fn apply_overrides_the_base_config() {
        let base = SnbcConfig::default();
        let c = CandidateConfig {
            index: 3,
            seed: 42,
            lambda_degree: 0,
            multiplier_degree: 4,
            mesh_points: 500,
        };
        let cfg = c.apply(&base);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.verifier.lambda_degree, 0);
        assert_eq!(cfg.verifier.multiplier_degree, 4);
        assert_eq!(cfg.approx.max_mesh_points, 500);
        assert_ne!(cfg.cex.seed, base.cex.seed);
        // Round-trips through report JSON.
        let back = CandidateConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        let grid = ConfigGrid {
            seeds: vec![],
            ..Default::default()
        };
        assert!(grid.is_empty());
        assert!(grid.expand().is_empty());
    }
}
