//! Portable safety certificates: a self-contained, re-checkable record of a
//! successful synthesis run.
//!
//! A [`SafetyCertificate`] bundles everything a third party needs to validate
//! the safety claim without trusting the synthesis pipeline: the barrier
//! `B(x)`, the multiplier `λ(x)`, the controller abstraction `h(x)` with its
//! error bound `σ*`, and the system description it refers to. It serializes
//! to a line-oriented text format readable by this crate's own polynomial
//! parser (no serialization dependencies), and [`SafetyCertificate::validate`]
//! re-runs both soundness paths — the SOS/LMI feasibility tests and the
//! δ-complete interval check.

use std::fmt;
use std::str::FromStr;

use snbc_dynamics::Ccds;
use snbc_interval::BranchAndBound;
use snbc_poly::Polynomial;

use crate::{
    recheck_with_intervals, PolynomialInclusion, SnbcResult, Verifier, VerifierConfig,
};

/// The largest Gram basis [`SafetyCertificate::validate`] builds an SOS
/// program for. The largest that the synthesized certificates of Table 1
/// (C1–C14) need is 105 monomials, C14's flow condition; a certificate
/// whose degrees would need more than this cap is refused before any
/// program is built, since the program's Schur complement grows with the
/// fourth power of the basis.
const MAX_GRAM_BASIS: usize = 256;

/// A portable record of a verified barrier certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyCertificate {
    /// Name of the system the certificate refers to.
    pub system: String,
    /// The barrier certificate `B(x)`.
    pub barrier: Polynomial,
    /// The multiplier `λ(x)` witnessing the flow condition.
    pub lambda: Polynomial,
    /// The polynomial controller abstraction `h(x)`.
    pub controller: Polynomial,
    /// The verified abstraction error bound `σ*`.
    pub sigma_star: f64,
}

impl SafetyCertificate {
    /// Extracts the certificate from a successful synthesis result.
    pub fn from_result(system_name: impl Into<String>, result: &SnbcResult) -> Self {
        SafetyCertificate {
            system: system_name.into(),
            barrier: result.barrier.clone(),
            lambda: result.lambda.clone(),
            controller: result.inclusion.h.clone(),
            sigma_star: result.inclusion.sigma_star,
        }
    }

    /// Re-validates the certificate against a system from scratch: the three
    /// LMI feasibility tests and (optionally, `deep = true`) the independent
    /// interval re-check.
    ///
    /// The flow condition (15) searches for a multiplier `λ(x)` of the
    /// certificate's own λ degree. For a certificate that synthesis produced
    /// that is the flow SDP synthesis solved; for any certificate it narrows
    /// the λ family and never widens it, since a λ of degree `d` is also one
    /// of degree `d + 1`.
    ///
    /// Returns `true` only when every check passes. A certificate whose
    /// polynomials use variables beyond the system's state does not
    /// validate, and neither does one whose degrees would need an SOS
    /// program with a Gram basis of more than 256 monomials: no program is
    /// built for it.
    pub fn validate(&self, system: &Ccds, deep: bool) -> bool {
        let n = system.nvars();
        if [&self.barrier, &self.lambda, &self.controller]
            .iter()
            .any(|p| p.nvars() > n)
        {
            return false;
        }
        if self.largest_gram_basis(system) > MAX_GRAM_BASIS {
            return false;
        }
        let inclusion = PolynomialInclusion {
            h: self.controller.clone(),
            sigma_tilde: self.sigma_star,
            sigma_star: self.sigma_star,
            lipschitz: 0.0,
            covering_radius: 0.0,
            mesh_points: 0,
        };
        let cfg = VerifierConfig {
            lambda_degree: self.lambda.degree(),
            ..VerifierConfig::default()
        };
        let verifier = Verifier::new(system, &inclusion, cfg);
        let outcome = verifier.verify(&self.barrier);
        if !outcome.is_certified() {
            return false;
        }
        if deep {
            let lambda = outcome.flow.lambda.as_ref().unwrap_or(&self.lambda);
            if !recheck_with_intervals(
                &self.barrier,
                lambda,
                system,
                &inclusion,
                &BranchAndBound::default(),
                &snbc_telemetry::Telemetry::off(),
            ) {
                return false;
            }
        }
        true
    }
}

impl SafetyCertificate {
    /// The largest Gram basis among the SOS certificates of the three
    /// conditions that [`SafetyCertificate::validate`] would solve,
    /// saturating above [`MAX_GRAM_BASIS`], from degrees alone. Each
    /// certificate's degree is that of its expression with the top rung's
    /// SOS multipliers; the flow's Lie derivative is bounded through the
    /// closed loop `u = h(x) + w`, every input replaced by a polynomial of
    /// `h`'s degree (at least 1 with the error variable `w`).
    fn largest_gram_basis(&self, system: &Ccds) -> usize {
        let n = system.nvars();
        let multiplier = VerifierConfig::default().multiplier_degree / 2 * 2;
        let with_multipliers = |set: &snbc_dynamics::SemiAlgebraicSet| {
            set.polys().iter().map(|g| g.degree() + multiplier).max().unwrap_or(0)
        };
        let db = self.barrier.degree();
        let robust = self.sigma_star > 1e-12;
        let du = if robust {
            self.controller.degree().max(1)
        } else {
            self.controller.degree()
        };
        let closed_loop = system
            .field()
            .iter()
            .flat_map(|f| f.iter())
            .map(|(m, _)| {
                let e = m.exponents();
                let x: u32 = e.iter().take(n).sum();
                let u: u32 = e.iter().skip(n).sum();
                x.saturating_add(u.saturating_mul(du))
            })
            .max()
            .unwrap_or(0);
        let init = db.max(with_multipliers(system.init()));
        let unsafe_ = db.max(with_multipliers(system.unsafe_set()));
        let flow = db
            .saturating_add(closed_loop)
            .saturating_sub(1)
            .max(self.lambda.degree().saturating_add(db))
            .max(with_multipliers(system.domain()))
            .max(if robust { 2 + multiplier } else { 0 });
        let gram = |nvars: usize, degree: u32| {
            // C(nvars + d, nvars) for d = ⌈degree/2⌉, one factor at a time
            // (each partial product is itself a binomial coefficient).
            let half = u128::from(degree.div_ceil(2));
            let mut c: u128 = 1;
            for i in 1..=nvars as u128 {
                c = c * (half + i) / i;
                if c > MAX_GRAM_BASIS as u128 {
                    return MAX_GRAM_BASIS + 1;
                }
            }
            usize::try_from(c).unwrap_or(MAX_GRAM_BASIS + 1)
        };
        gram(n, init)
            .max(gram(n, unsafe_))
            .max(gram(n + usize::from(robust), flow))
    }
}

/// The line-oriented text format: `key: value` pairs, polynomials in the
/// crate's own syntax.
impl fmt::Display for SafetyCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "snbc-certificate v1")?;
        writeln!(f, "system: {}", self.system)?;
        writeln!(f, "barrier: {}", self.barrier)?;
        writeln!(f, "lambda: {}", self.lambda)?;
        writeln!(f, "controller: {}", self.controller)?;
        writeln!(f, "sigma_star: {}", self.sigma_star)
    }
}

/// Error parsing a serialized certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseCertificateError {
    message: String,
}

impl fmt::Display for ParseCertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid certificate: {}", self.message)
    }
}

impl std::error::Error for ParseCertificateError {}

impl FromStr for SafetyCertificate {
    type Err = ParseCertificateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: &str| ParseCertificateError {
            message: m.to_string(),
        };
        let mut lines = s.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| err("empty input"))?;
        if header.trim() != "snbc-certificate v1" {
            return Err(err("missing `snbc-certificate v1` header"));
        }
        let mut system = None;
        let mut barrier = None;
        let mut lambda = None;
        let mut controller = None;
        let mut sigma_star = None;
        for line in lines {
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| err("expected `key: value`"))?;
            let value = value.trim();
            match key.trim() {
                "system" => system = Some(value.to_string()),
                "barrier" => {
                    barrier =
                        Some(value.parse::<Polynomial>().map_err(|e| err(&e.to_string()))?)
                }
                "lambda" => {
                    lambda = Some(value.parse::<Polynomial>().map_err(|e| err(&e.to_string()))?)
                }
                "controller" => {
                    controller =
                        Some(value.parse::<Polynomial>().map_err(|e| err(&e.to_string()))?)
                }
                "sigma_star" => match value.parse::<f64>() {
                    Ok(v) if v.is_finite() && v >= 0.0 => sigma_star = Some(v),
                    _ => return Err(err("sigma_star must be a finite number ≥ 0")),
                },
                other => return Err(err(&format!("unknown key `{other}`"))),
            }
        }
        Ok(SafetyCertificate {
            system: system.ok_or_else(|| err("missing system"))?,
            barrier: barrier.ok_or_else(|| err("missing barrier"))?,
            lambda: lambda.ok_or_else(|| err("missing lambda"))?,
            controller: controller.ok_or_else(|| err("missing controller"))?,
            sigma_star: sigma_star.ok_or_else(|| err("missing sigma_star"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::SemiAlgebraicSet;

    fn toy_certificate() -> (Ccds, SafetyCertificate) {
        let sys = Ccds::new(
            "toy",
            vec!["-x0 + x1".parse().unwrap()],
            SemiAlgebraicSet::box_set(&[(-0.5, 0.5)]),
            SemiAlgebraicSet::box_set(&[(-2.0, 2.0)]),
            SemiAlgebraicSet::box_set(&[(1.5, 2.0)]),
        );
        let cert = SafetyCertificate {
            system: "toy".into(),
            barrier: "1 - x0^2".parse().unwrap(),
            lambda: Polynomial::zero(),
            controller: Polynomial::zero(),
            sigma_star: 0.0,
        };
        (sys, cert)
    }

    #[test]
    fn round_trips_through_text() {
        let (_, cert) = toy_certificate();
        let text = cert.to_string();
        let back: SafetyCertificate = text.parse().unwrap();
        assert_eq!(cert, back);
    }

    #[test]
    fn validates_genuine_certificate() {
        let (sys, cert) = toy_certificate();
        assert!(cert.validate(&sys, true));
    }

    #[test]
    fn rejects_tampered_certificate() {
        let (sys, mut cert) = toy_certificate();
        cert.barrier = "x0".parse().unwrap(); // not a barrier
        assert!(!cert.validate(&sys, false));
    }

    /// ẋ₀ = −x₀ + 0.6·x₀² + u under h = 0, σ* = 0, with B = 1 − x₀². No
    /// constant λ proves the flow condition on Ψ = [−2, 2] (best margin
    /// about −4.4e-2), a linear one reaches only about −1.5e-8 (inside the
    /// SOS layer's acceptance tolerance), and a quadratic one about +0.13.
    fn quadratic_drift_certificate(lambda: &str) -> (Ccds, SafetyCertificate) {
        let sys = Ccds::new(
            "drift",
            vec!["-x0 + 0.6*x0^2 + x1".parse().unwrap()],
            SemiAlgebraicSet::box_set(&[(-0.5, 0.5)]),
            SemiAlgebraicSet::box_set(&[(-2.0, 2.0)]),
            SemiAlgebraicSet::box_set(&[(1.5, 2.0)]),
        );
        let cert = SafetyCertificate {
            system: "drift".into(),
            barrier: "1 - x0^2".parse().unwrap(),
            lambda: lambda.parse().unwrap(),
            controller: Polynomial::zero(),
            sigma_star: 0.0,
        };
        (sys, cert)
    }

    #[test]
    fn validates_at_the_certificates_own_lambda_degree() {
        // A constant λ: the check searches constants only, and none works.
        let (sys, cert) = quadratic_drift_certificate("-1");
        assert_eq!(cert.lambda.degree(), 0);
        assert!(!cert.validate(&sys, false), "no constant λ proves the flow condition");
        // The same barrier carrying a quadratic λ is accepted.
        let (sys, cert) = quadratic_drift_certificate("-1 + x0^2");
        assert_eq!(cert.lambda.degree(), 2);
        assert!(cert.validate(&sys, false), "a quadratic λ proves the flow condition");
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!("".parse::<SafetyCertificate>().is_err());
        assert!("wrong header".parse::<SafetyCertificate>().is_err());
        let missing = "snbc-certificate v1\nsystem: x\n";
        let e = missing.parse::<SafetyCertificate>().unwrap_err();
        assert!(e.to_string().contains("missing barrier"));
        let unknown = "snbc-certificate v1\nfoo: bar\n";
        assert!(unknown.parse::<SafetyCertificate>().is_err());
    }
}
