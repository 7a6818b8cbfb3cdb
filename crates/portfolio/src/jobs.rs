//! The `snbc-batch-jobs/1` input schema: a list of racing jobs for the
//! batch certificate service.
//!
//! ```json
//! {
//!   "schema": "snbc-batch-jobs/1",
//!   "jobs": [
//!     {
//!       "name": "c3-default",
//!       "benchmark": 3,
//!       "grid": { "seeds": [1, 2] },
//!       "max_iterations": 12,
//!       "controller_epochs": 300
//!     },
//!     { "name": "my-plant", "system": "examples/system.json" }
//!   ]
//! }
//! ```
//!
//! Parsing is strict: every diagnostic is a typed [`BatchError`] carrying
//! the offending job index, and **unknown fields at any level are errors**
//! (a typo like `"seed"` for `"seeds"` must not silently race the default
//! grid). Malformed input never panics.

use std::fmt;

use snbc_telemetry::json::{self, Value};

use crate::grid::ConfigGrid;

/// Schema tag expected at the top of a jobs document.
pub const JOBS_SCHEMA: &str = "snbc-batch-jobs/1";

/// Everything that can go wrong preparing or running a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The jobs document is not valid, at the document level.
    Parse(String),
    /// Job `index` (0-based position in the `jobs` array) is invalid.
    Job {
        /// 0-based position of the offending job.
        index: usize,
        /// What is wrong with it.
        message: String,
    },
    /// An I/O failure reading inputs or writing cache/report artifacts.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        message: String,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Parse(m) => write!(f, "invalid jobs document: {m}"),
            BatchError::Job { index, message } => write!(f, "job #{index}: {message}"),
            BatchError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Where a job's system and controller come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// Paper benchmark `C_k`, `k ∈ 1..=14` (`snbc_dynamics::benchmarks`).
    Benchmark(usize),
    /// A system file resolved by the caller (the CLI passes the path to its
    /// own `parse_system` loader via the batch resolver).
    System(String),
}

/// One batch job: a named system plus the grid to race over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Display name, unique per document (reports and progress lines key on
    /// it; uniqueness is enforced at parse time).
    pub name: String,
    /// The system/controller source.
    pub source: JobSource,
    /// The candidate grid. Missing axes take [`ConfigGrid::default`] values.
    pub grid: ConfigGrid,
    /// Override of `SnbcConfig::max_iterations` for this job.
    pub max_iterations: Option<usize>,
    /// Override of the controller-training epoch count for benchmark jobs.
    pub controller_epochs: Option<usize>,
}

/// A parsed jobs document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpec {
    /// The jobs, in document order.
    pub jobs: Vec<JobSpec>,
}

impl BatchSpec {
    /// Parses a `snbc-batch-jobs/1` document. See the module docs for the
    /// format; any defect yields a typed [`BatchError`], never a panic.
    pub fn parse(text: &str) -> Result<BatchSpec, BatchError> {
        let doc = json::parse(text).map_err(|e| BatchError::Parse(e.to_string()))?;
        let top = doc
            .as_object()
            .ok_or_else(|| BatchError::Parse("top level must be an object".to_string()))?;
        for (key, _) in top {
            if key != "schema" && key != "jobs" {
                return Err(BatchError::Parse(format!("unknown top-level field `{key}`")));
            }
        }
        match doc.get("schema").and_then(Value::as_str) {
            Some(JOBS_SCHEMA) => {}
            Some(other) => {
                return Err(BatchError::Parse(format!(
                    "unsupported schema `{other}` (expected `{JOBS_SCHEMA}`)"
                )))
            }
            None => {
                return Err(BatchError::Parse(format!(
                    "missing `schema` field (expected `{JOBS_SCHEMA}`)"
                )))
            }
        }
        let jobs_json = doc
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or_else(|| BatchError::Parse("missing `jobs` array".to_string()))?;
        if jobs_json.is_empty() {
            return Err(BatchError::Parse("`jobs` array is empty".to_string()));
        }
        let mut jobs = Vec::with_capacity(jobs_json.len());
        for (index, job) in jobs_json.iter().enumerate() {
            jobs.push(parse_job(index, job)?);
        }
        for (index, job) in jobs.iter().enumerate() {
            if jobs[..index].iter().any(|prior| prior.name == job.name) {
                return Err(BatchError::Job {
                    index,
                    message: format!("duplicate job name `{}`", job.name),
                });
            }
        }
        Ok(BatchSpec { jobs })
    }
}

fn parse_job(index: usize, job: &Value) -> Result<JobSpec, BatchError> {
    let err = |message: String| BatchError::Job { index, message };
    let fields = job
        .as_object()
        .ok_or_else(|| err("must be an object".to_string()))?;
    const KNOWN: [&str; 6] = [
        "name",
        "benchmark",
        "system",
        "grid",
        "max_iterations",
        "controller_epochs",
    ];
    for (key, _) in fields {
        if !KNOWN.contains(&key.as_str()) {
            return Err(err(format!("unknown field `{key}`")));
        }
    }
    let name = job
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| err("missing string field `name`".to_string()))?
        .to_string();
    if name.is_empty() {
        return Err(err("`name` must be non-empty".to_string()));
    }
    let source = match (job.get("benchmark"), job.get("system")) {
        (Some(_), Some(_)) => {
            return Err(err(
                "`benchmark` and `system` are mutually exclusive".to_string()
            ))
        }
        (Some(b), None) => {
            let k = b
                .as_u64()
                .ok_or_else(|| err("`benchmark` must be an integer".to_string()))?;
            // `benchmarks::benchmark` panics outside 1..=14; reject here so a
            // bad job is a typed error with its index, not a panic mid-batch.
            match usize::try_from(k) {
                Ok(k) if (1..=14).contains(&k) => JobSource::Benchmark(k),
                _ => return Err(err(format!("`benchmark` must be in 1..=14, got {k}"))),
            }
        }
        (None, Some(s)) => JobSource::System(
            s.as_str()
                .ok_or_else(|| err("`system` must be a string path".to_string()))?
                .to_string(),
        ),
        (None, None) => return Err(err("needs `benchmark` or `system`".to_string())),
    };
    let grid = match job.get("grid") {
        Some(g) => parse_grid(index, g)?,
        None => ConfigGrid::default(),
    };
    if grid.is_empty() {
        return Err(err("grid expands to zero candidates".to_string()));
    }
    let usize_field = |field: &str| -> Result<Option<usize>, BatchError> {
        match job.get(field) {
            None => Ok(None),
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| err(format!("`{field}` must be an integer")))?;
                if n == 0 {
                    return Err(err(format!("`{field}` must be positive")));
                }
                usize::try_from(n)
                    .map(Some)
                    .map_err(|_| err(format!("`{field}` value {n} is out of range")))
            }
        }
    };
    Ok(JobSpec {
        name,
        source,
        grid,
        max_iterations: usize_field("max_iterations")?,
        controller_epochs: usize_field("controller_epochs")?,
    })
}

fn parse_grid(index: usize, g: &Value) -> Result<ConfigGrid, BatchError> {
    let err = |message: String| BatchError::Job { index, message };
    let fields = g
        .as_object()
        .ok_or_else(|| err("`grid` must be an object".to_string()))?;
    const AXES: [&str; 4] = ["seeds", "lambda_degrees", "multiplier_degrees", "mesh_points"];
    for (key, _) in fields {
        if !AXES.contains(&key.as_str()) {
            return Err(err(format!("unknown grid axis `{key}`")));
        }
    }
    let axis = |name: &str| -> Result<Option<Vec<u64>>, BatchError> {
        match g.get(name) {
            None => Ok(None),
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or_else(|| err(format!("grid axis `{name}` must be an array")))?;
                arr.iter()
                    .map(|e| {
                        e.as_u64()
                            .ok_or_else(|| err(format!("grid axis `{name}` must hold integers")))
                    })
                    .collect::<Result<Vec<u64>, BatchError>>()
                    .map(Some)
            }
        }
    };
    let defaults = ConfigGrid::default();
    // Narrow an axis to `T`, rejecting values above `max` (and any value
    // `T` cannot hold).
    fn narrow<T: TryFrom<u64> + PartialOrd>(
        vals: Option<Vec<u64>>,
        max: T,
        fail: impl Fn(u64) -> BatchError,
    ) -> Result<Option<Vec<T>>, BatchError> {
        vals.map(|vals| {
            vals.into_iter()
                .map(|v| T::try_from(v).ok().filter(|t| *t <= max).ok_or_else(|| fail(v)))
                .collect()
        })
        .transpose()
    }
    let exceeds = |name: &'static str, max: u64| {
        move |v: u64| err(format!("grid axis `{name}` value {v} exceeds {max}"))
    };
    let lambda = narrow(axis("lambda_degrees")?, 8u32, exceeds("lambda_degrees", 8))?;
    let mult = narrow(axis("multiplier_degrees")?, 8u32, exceeds("multiplier_degrees", 8))?;
    Ok(ConfigGrid {
        seeds: axis("seeds")?.unwrap_or(defaults.seeds),
        lambda_degrees: lambda.unwrap_or(defaults.lambda_degrees),
        multiplier_degrees: mult.unwrap_or(defaults.multiplier_degrees),
        mesh_points: narrow(axis("mesh_points")?, usize::MAX, |v| {
            err(format!("grid axis `mesh_points` value {v} is out of range"))
        })?
        .unwrap_or(defaults.mesh_points),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "schema": "snbc-batch-jobs/1",
        "jobs": [
            {"name": "a", "benchmark": 3, "grid": {"seeds": [1, 2]},
             "max_iterations": 12, "controller_epochs": 300},
            {"name": "b", "system": "examples/system.json"}
        ]
    }"#;

    #[test]
    fn parses_a_well_formed_document() {
        let spec = BatchSpec::parse(GOOD).unwrap();
        assert_eq!(spec.jobs.len(), 2);
        assert_eq!(spec.jobs[0].source, JobSource::Benchmark(3));
        assert_eq!(spec.jobs[0].grid.seeds, vec![1, 2]);
        assert_eq!(spec.jobs[0].grid.lambda_degrees, vec![1], "default axis");
        assert_eq!(spec.jobs[0].max_iterations, Some(12));
        assert_eq!(
            spec.jobs[1].source,
            JobSource::System("examples/system.json".to_string())
        );
        assert_eq!(spec.jobs[1].grid, ConfigGrid::default());
    }

    #[test]
    fn unknown_fields_carry_the_job_index() {
        let bad = r#"{"schema": "snbc-batch-jobs/1", "jobs": [
            {"name": "a", "benchmark": 3},
            {"name": "b", "benchmark": 4, "grd": {}}
        ]}"#;
        match BatchSpec::parse(bad) {
            Err(BatchError::Job { index: 1, message }) => {
                assert!(message.contains("unknown field `grd`"), "{message}")
            }
            other => panic!("expected job error, got {other:?}"),
        }
        let bad_axis = r#"{"schema": "snbc-batch-jobs/1", "jobs": [
            {"name": "a", "benchmark": 3, "grid": {"seed": [1]}}
        ]}"#;
        match BatchSpec::parse(bad_axis) {
            Err(BatchError::Job { index: 0, message }) => {
                assert!(message.contains("unknown grid axis `seed`"), "{message}")
            }
            other => panic!("expected job error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_defective_documents_without_panicking() {
        for (text, needle) in [
            ("not json", "invalid jobs document"),
            ("[]", "top level must be an object"),
            (r#"{"jobs": []}"#, "missing `schema`"),
            (r#"{"schema": "snbc-batch-jobs/2", "jobs": []}"#, "unsupported schema"),
            (r#"{"schema": "snbc-batch-jobs/1", "jobs": []}"#, "empty"),
            (r#"{"schema": "snbc-batch-jobs/1"}"#, "missing `jobs`"),
            (
                r#"{"schema": "snbc-batch-jobs/1", "jobs": [{"name": "a"}]}"#,
                "needs `benchmark` or `system`",
            ),
            (
                r#"{"schema": "snbc-batch-jobs/1", "jobs": [{"name": "a", "benchmark": 15}]}"#,
                "1..=14",
            ),
            (
                r#"{"schema": "snbc-batch-jobs/1", "jobs": [{"name": "a", "benchmark": 1, "system": "x"}]}"#,
                "mutually exclusive",
            ),
            (
                r#"{"schema": "snbc-batch-jobs/1", "jobs": [{"name": "a", "benchmark": 1, "grid": {"seeds": []}}]}"#,
                "zero candidates",
            ),
            (
                r#"{"schema": "snbc-batch-jobs/1", "jobs": [{"name": "a", "benchmark": 1}, {"name": "a", "benchmark": 2}]}"#,
                "duplicate job name",
            ),
            (
                r#"{"schema": "snbc-batch-jobs/1", "jobs": [{"name": "a", "benchmark": 1, "max_iterations": 0}]}"#,
                "must be positive",
            ),
        ] {
            let e = BatchSpec::parse(text).expect_err(text).to_string();
            assert!(e.contains(needle), "`{e}` should mention `{needle}`");
        }
    }
}
