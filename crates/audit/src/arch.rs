//! Architectural rules: each crate's `Cargo.toml` dependencies must respect
//! the DESIGN.md dependency DAG, and only the sanctioned external crates
//! (`rand`, `proptest`, `criterion`) may appear.
//!
//! The DAG encoded here is the one DESIGN.md §"Workspace inventory" draws
//! (bottom-up): `trace` is the bottom-most leaf; `telemetry` and `par` sit
//! just above it and are usable from any layer;
//! `linalg` → {`lp`, `sdp`} → `sos`; `poly` → {`sos`, `interval`, `nn`,
//! `dynamics`}; `autodiff` → `nn`;
//! {`sos`,`interval`,`nn`,`dynamics`} → `core` → `baselines` → `bench`.
//! A crate may depend on any crate strictly below it in that layering; the
//! table lists the full transitive allowance per crate so the check is a
//! simple subset test.

use crate::rules::{Finding, Rule};

/// Sanctioned external dependencies (DESIGN.md: "No other dependencies").
pub const SANCTIONED_EXTERNAL: &[&str] = &["rand", "proptest", "criterion"];

/// Allowed *internal* dependencies per crate directory name.
pub fn allowed_internal(crate_dir: &str) -> Option<&'static [&'static str]> {
    const FOUNDATION: &[&str] = &[];
    // `trace` is the bottom-most observability crate; `telemetry` mirrors its
    // spans into an attached trace sink, `par` labels worker threads, and
    // `metrics` (registry + progress stream) reuses trace's canonical JSON.
    const OBSERVABILITY: &[&str] = &["snbc-trace"];
    const SOLVER_CORE: &[&str] = &[
        "snbc-linalg",
        "snbc-trace",
        "snbc-telemetry",
        "snbc-par",
    ];
    const SOS: &[&str] = &["snbc-linalg", "snbc-poly", "snbc-lp", "snbc-sdp"];
    const INTERVAL: &[&str] = &[
        "snbc-linalg",
        "snbc-poly",
        "snbc-par",
        "snbc-trace",
    ];
    const NN: &[&str] = &[
        "snbc-linalg",
        "snbc-poly",
        "snbc-autodiff",
        "snbc-interval",
    ];
    const DYNAMICS: &[&str] = &["snbc-linalg", "snbc-poly"];
    const CORE: &[&str] = &[
        "snbc-trace",
        "snbc-telemetry",
        "snbc-metrics",
        "snbc-par",
        "snbc-linalg",
        "snbc-poly",
        "snbc-lp",
        "snbc-sdp",
        "snbc-sos",
        "snbc-interval",
        "snbc-nn",
        "snbc-dynamics",
    ];
    const BASELINES: &[&str] = &[
        "snbc-trace",
        "snbc-telemetry",
        "snbc-par",
        "snbc-linalg",
        "snbc-poly",
        "snbc-lp",
        "snbc-sdp",
        "snbc-sos",
        "snbc-interval",
        "snbc-nn",
        "snbc-dynamics",
        "snbc",
    ];
    const BENCH: &[&str] = &[
        "snbc-trace",
        "snbc-telemetry",
        "snbc-metrics",
        "snbc-par",
        "snbc-linalg",
        "snbc-poly",
        "snbc-lp",
        "snbc-sdp",
        "snbc-sos",
        "snbc-interval",
        "snbc-nn",
        "snbc-dynamics",
        "snbc",
        "snbc-baselines",
        "snbc-portfolio",
    ];
    // The racing/batch layer sits directly above `snbc` (core): it drives
    // `CegisEngine` over `snbc-par` and shares core's observability stack.
    const PORTFOLIO: &[&str] = &[
        "snbc-trace",
        "snbc-telemetry",
        "snbc-metrics",
        "snbc-par",
        "snbc-poly",
        "snbc-nn",
        "snbc-dynamics",
        "snbc",
    ];
    const CLI: &[&str] = &[
        "snbc-trace",
        "snbc-telemetry",
        "snbc-metrics",
        "snbc-par",
        "snbc-linalg",
        "snbc-poly",
        "snbc-lp",
        "snbc-sdp",
        "snbc-sos",
        "snbc-interval",
        "snbc-nn",
        "snbc-dynamics",
        "snbc",
        "snbc-baselines",
        "snbc-portfolio",
    ];

    Some(match crate_dir {
        "linalg" | "poly" | "autodiff" | "audit" | "trace" => FOUNDATION,
        "telemetry" | "par" | "metrics" => OBSERVABILITY,
        "lp" | "sdp" => SOLVER_CORE,
        "sos" => SOS,
        "interval" => INTERVAL,
        "nn" => NN,
        "dynamics" => DYNAMICS,
        "core" => CORE,
        "portfolio" => PORTFOLIO,
        "baselines" => BASELINES,
        "bench" => BENCH,
        "cli" => CLI,
        _ => return None,
    })
}

/// A dependency entry parsed out of a `Cargo.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    pub name: String,
    /// `dependencies`, `dev-dependencies`, or `build-dependencies`.
    pub section: String,
    pub line: usize,
}

/// Minimal line-based `Cargo.toml` parser: section headers + dependency names.
/// Handles `name = "ver"`, `name.workspace = true`, `name = { ... }`, and
/// `package = "renamed"` inside inline tables.
pub fn parse_dependencies(manifest: &str) -> Vec<DepEntry> {
    let mut deps = Vec::new();
    let mut section = String::new();
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let dep_section = match section.as_str() {
            "dependencies" | "dev-dependencies" | "build-dependencies" => section.clone(),
            // `[target.'cfg(..)'.dependencies]` and workspace tables are out
            // of scope for this workspace; treat everything else as non-dep.
            _ => continue,
        };
        if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            // `rand.workspace = true` → dep name `rand`.
            let name = key.split('.').next().unwrap_or(key).trim_matches('"');
            if name.is_empty() {
                continue;
            }
            // If an inline table renames the package, audit the real package.
            let real = line
                .find("package")
                .and_then(|p| line[p..].find('"').map(|q| p + q + 1))
                .and_then(|start| {
                    line[start..]
                        .find('"')
                        .map(|end| line[start..start + end].to_string())
                })
                .unwrap_or_else(|| name.to_string());
            deps.push(DepEntry {
                name: real,
                section: dep_section,
                line: idx + 1,
            });
        }
    }
    deps
}

/// Audit one crate manifest against the DAG and the sanctioned-externals set.
pub fn check_manifest(crate_dir: &str, rel_path: &str, manifest: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(allowed) = allowed_internal(crate_dir) else {
        findings.push(Finding {
            rule: Rule::Arch,
            file: rel_path.to_string(),
            line: 1,
            message: format!(
                "crate `{crate_dir}` is not part of the DESIGN.md dependency DAG — add it to snbc-audit's arch table"
            ),
            chain: Vec::new(),
        });
        return findings;
    };
    for dep in parse_dependencies(manifest) {
        let internal = dep.name.starts_with("snbc");
        if dep.section == "build-dependencies" {
            findings.push(Finding {
                rule: Rule::Arch,
                file: rel_path.to_string(),
                line: dep.line,
                message: format!("build-dependency `{}` — the workspace bans build scripts", dep.name),
                chain: Vec::new(),
            });
            continue;
        }
        if internal {
            if !allowed.contains(&dep.name.as_str()) {
                findings.push(Finding {
                    rule: Rule::Arch,
                    file: rel_path.to_string(),
                    line: dep.line,
                    message: format!(
                        "dependency `{}` violates the DESIGN.md DAG for crate `{}`",
                        dep.name, crate_dir
                    ),
                    chain: Vec::new(),
                });
            }
        } else if !SANCTIONED_EXTERNAL.contains(&dep.name.as_str()) {
            findings.push(Finding {
                rule: Rule::Arch,
                file: rel_path.to_string(),
                line: dep.line,
                message: format!(
                    "external dependency `{}` is not sanctioned (allowed: {})",
                    dep.name,
                    SANCTIONED_EXTERNAL.join(", ")
                ),
                chain: Vec::new(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workspace_and_inline_deps() {
        let manifest = r#"
[package]
name = "x"

[dependencies]
snbc-linalg.workspace = true
rand = { version = "0.8" }

[dev-dependencies]
proptest.workspace = true
"#;
        let deps = parse_dependencies(manifest);
        let names: Vec<_> = deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["snbc-linalg", "rand", "proptest"]);
        assert_eq!(deps[2].section, "dev-dependencies");
    }

    #[test]
    fn lp_may_use_linalg_but_not_poly() {
        let ok = "[dependencies]\nsnbc-linalg.workspace = true\n";
        assert!(check_manifest("lp", "crates/lp/Cargo.toml", ok).is_empty());
        let bad = "[dependencies]\nsnbc-poly.workspace = true\n";
        let findings = check_manifest("lp", "crates/lp/Cargo.toml", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("violates the DESIGN.md DAG"));
    }

    #[test]
    fn unsanctioned_external_dep_is_flagged() {
        let bad = "[dependencies]\nnalgebra = \"0.32\"\n";
        let findings = check_manifest("linalg", "crates/linalg/Cargo.toml", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("not sanctioned"));
    }

    #[test]
    fn build_dependencies_are_banned() {
        let bad = "[build-dependencies]\ncc = \"1\"\n";
        let findings = check_manifest("poly", "crates/poly/Cargo.toml", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("build-dependency"));
    }

    #[test]
    fn unknown_crate_is_flagged() {
        let findings = check_manifest("mystery", "crates/mystery/Cargo.toml", "[dependencies]\n");
        assert_eq!(findings.len(), 1);
    }
}
