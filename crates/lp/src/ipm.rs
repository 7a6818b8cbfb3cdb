use snbc_linalg::{vec_ops, Matrix};

use crate::LpError;

/// Options controlling the interior-point LP solver.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Maximum interior-point iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on relative residuals and duality measure.
    pub tolerance: f64,
    /// Fraction-to-the-boundary step damping.
    pub step_fraction: f64,
    /// Diagonal regularization added to the normal equations.
    pub regularization: f64,
    /// Telemetry sink; each solve records an `"lp"` span with its iteration
    /// count and final duality measure μ. The default no-op sink costs one
    /// pointer check per solve.
    pub telemetry: snbc_telemetry::Telemetry,
}

impl Default for LpOptions {
    fn default() -> Self {
        LpOptions {
            max_iterations: 200,
            tolerance: 1e-8,
            step_fraction: 0.995,
            regularization: 1e-12,
            telemetry: snbc_telemetry::Telemetry::off(),
        }
    }
}

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Converged to the requested tolerance.
    Optimal,
    /// Stopped early at a usable but less accurate point.
    NearOptimal,
}

/// Solution of a standard-form LP `min cᵀx  s.t.  Ax = b, x ≥ 0`.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Primal variables.
    pub x: Vec<f64>,
    /// Dual variables (multipliers of `Ax = b`).
    pub y: Vec<f64>,
    /// Dual slacks.
    pub s: Vec<f64>,
    /// Objective value `cᵀx`.
    pub objective: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Final duality measure `μ = xᵀs / n` at the returned iterate.
    pub mu: f64,
    /// Termination status.
    pub status: LpStatus,
}

/// Solution of an inequality-form LP `min cᵀz  s.t.  Gz ≤ g` with free `z`.
#[derive(Debug, Clone)]
pub struct InequalitySolution {
    /// Primal variables of the inequality-form problem.
    pub z: Vec<f64>,
    /// Objective value `cᵀz`.
    pub objective: f64,
    /// Iterations used by the underlying standard-form solve.
    pub iterations: usize,
    /// Termination status.
    pub status: LpStatus,
}

/// Solves `min cᵀx  s.t.  Ax = b, x ≥ 0` with Mehrotra's predictor–corrector
/// method on dense normal equations `A·D·Aᵀ` (size = `A.nrows()`).
///
/// # Errors
///
/// * [`LpError::Dimension`] — inconsistent input sizes;
/// * [`LpError::IterationLimit`] — no convergence within the budget;
/// * [`LpError::Infeasible`] / [`LpError::Unbounded`] — detected divergence of
///   the iterates;
/// * [`LpError::Numerical`] — normal equations could not be factorized even
///   with regularization.
pub fn solve_standard(a: &Matrix, b: &[f64], c: &[f64], opts: &LpOptions) -> Result<LpSolution, LpError> {
    solve_standard_rows(&a.transpose(), b, c, opts)
}

/// [`solve_standard`] given `Aᵀ`, whose rows are `A`'s columns: the
/// interior-point core reads each column of `A` as one contiguous row of
/// `Aᵀ` (the inequality form's `G` as it stands).
fn solve_standard_rows(
    at: &Matrix,
    b: &[f64],
    c: &[f64],
    opts: &LpOptions,
) -> Result<LpSolution, LpError> {
    // Telemetry wrapper: a no-op sink skips everything but one null check;
    // the inner loop itself is untouched either way.
    let _span = opts.telemetry.span("lp");
    let result = solve_standard_inner(at, b, c, opts);
    if opts.telemetry.is_recording() {
        match &result {
            Ok(sol) => {
                opts.telemetry.add("iterations", sol.iterations as u64);
                opts.telemetry.gauge("duality_mu", sol.mu);
                opts.telemetry.gauge("objective", sol.objective);
                opts.telemetry.flag("optimal", matches!(sol.status, LpStatus::Optimal));
            }
            Err(LpError::IterationLimit { iterations, mu }) => {
                opts.telemetry.add("iterations", *iterations as u64);
                opts.telemetry.gauge("duality_mu", *mu);
                opts.telemetry.flag("optimal", false);
            }
            Err(_) => opts.telemetry.flag("optimal", false),
        }
    }
    result
}

/// The interior-point core on `at = Aᵀ` (`n × m`). Every product is the
/// one a loop over `A` forms, summed in the same order: `A·v` is
/// `at.tr_matvec(v)`, `Aᵀ·v` is `at.matvec(v)`, and the normal equations
/// and `AAᵀ` accumulate over `at`'s rows.
fn solve_standard_inner(
    at: &Matrix,
    b: &[f64],
    c: &[f64],
    opts: &LpOptions,
) -> Result<LpSolution, LpError> {
    let (m, n) = (at.ncols(), at.nrows());
    if b.len() != m {
        return Err(LpError::Dimension(format!(
            "b has length {} but A has {} rows",
            b.len(),
            m
        )));
    }
    if c.len() != n {
        return Err(LpError::Dimension(format!(
            "c has length {} but A has {} columns",
            c.len(),
            n
        )));
    }
    if n == 0 || m == 0 {
        return Err(LpError::Dimension("empty problem".into()));
    }

    // Mehrotra's heuristic starting point.
    let (mut x, mut y, mut s) = starting_point(at, b, c)?;

    let bnorm = vec_ops::norm2(b).max(1.0);
    let cnorm = vec_ops::norm2(c).max(1.0);

    // Best iterate seen so far, by the merit max(rp, rd, μ): near machine
    // precision the normal equations degrade and residuals can oscillate, so
    // we never return anything worse than the best visited point.
    let mut best: Option<BestIterate> = None;
    let trace = opts.telemetry.trace();

    for iter in 0..opts.max_iterations {
        // Residuals.
        let ax = at.tr_matvec(&x);
        let rp: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let aty = at.matvec(&y);
        let rd: Vec<f64> = c
            .iter()
            .zip(&aty)
            .zip(&s)
            .map(|((ci, ayi), si)| ci - ayi - si)
            .collect();
        let mu = vec_ops::dot(&x, &s) / n as f64;
        // Interior-point invariants: x, s stay strictly positive (so μ, their
        // scaled inner product, is non-negative) and every iterate is finite.
        snbc_linalg::sanitize::check_invariant("lp::ipm duality measure", mu >= 0.0, mu);
        snbc_linalg::sanitize::check_positive("lp::ipm primal iterate x", &x);
        snbc_linalg::sanitize::check_positive("lp::ipm dual slack s", &s);
        snbc_linalg::sanitize::check_finite("lp::ipm dual iterate y", &y);

        let rp_rel = vec_ops::norm2(&rp) / bnorm;
        let rd_rel = vec_ops::norm2(&rd) / cnorm;
        let cx = vec_ops::dot(c, &x);
        let by = vec_ops::dot(b, &y);
        let gap_rel = (cx - by).abs() / (1.0 + cx.abs());

        let merit = rp_rel.max(rd_rel).max(mu).max(gap_rel * 0.1);
        if best.as_ref().is_none_or(|(m, ..)| merit < *m) {
            best = Some((merit, x.clone(), y.clone(), s.clone(), iter));
        }
        if rp_rel < opts.tolerance && rd_rel < opts.tolerance && mu < opts.tolerance {
            // Terminal iterate: no step taken, no factorization spent.
            trace.ipm_iter(
                "lp",
                snbc_trace::IpmSample {
                    iter: iter as u64,
                    mu,
                    rp_rel,
                    rd_rel,
                    gap_rel,
                    ..Default::default()
                },
            );
            return Ok(LpSolution {
                objective: cx,
                x,
                y,
                s,
                iterations: iter,
                mu,
                status: LpStatus::Optimal,
            });
        }
        // Numerical floor: once complementarity is far below the attainable
        // feasibility level, further iterations only oscillate.
        if mu < 1e-4 * opts.tolerance && rp_rel.max(rd_rel) > opts.tolerance {
            break;
        }

        // Crude divergence checks: an unbounded primal drives ‖x‖ → ∞ while
        // the duals stay bounded; primal infeasibility drives the duals.
        let xnorm = vec_ops::norm_inf(&x);
        let ynorm = vec_ops::norm_inf(&y).max(vec_ops::norm_inf(&s));
        if xnorm > 1e14 || ynorm > 1e14 {
            return Err(if ynorm > xnorm {
                LpError::Infeasible
            } else {
                LpError::Unbounded
            });
        }

        // Normal equations matrix M = A·diag(x/s)·Aᵀ + reg·I.
        let d: Vec<f64> = x.iter().zip(&s).map(|(xi, si)| xi / si).collect();
        let mut mm = Matrix::zeros(m, m);
        for k in 0..n {
            let dk = d[k];
            // Sparse-coefficient skip; exactness is intended.
            if dk == 0.0 {
                continue;
            }
            let col = at.row(k);
            for i in 0..m {
                let v = dk * col[i];
                if v == 0.0 {
                    continue;
                }
                for (mij, cj) in mm.row_mut(i)[i..].iter_mut().zip(&col[i..]) {
                    *mij += v * cj;
                }
            }
        }
        for i in 0..m {
            for j in 0..i {
                mm[(i, j)] = mm[(j, i)];
            }
            mm[(i, i)] += opts.regularization * (1.0 + mm[(i, i)]);
        }
        let mut chol_spent = 1u64;
        let chol = match mm.cholesky() {
            Ok(chol) => chol,
            Err(_) => {
                // Retry with heavier regularization once.
                for i in 0..m {
                    mm[(i, i)] += 1e-8 * (1.0 + mm[(i, i)]);
                }
                chol_spent += 1;
                mm.cholesky()?
            }
        };

        // Predictor (affine) direction: rc = x∘s.
        let rc_aff: Vec<f64> = x.iter().zip(&s).map(|(xi, si)| xi * si).collect();
        let (dx_aff, _dy_aff, ds_aff) = solve_kkt(at, &chol, &d, &rp, &rd, &rc_aff, &x, &s);
        let alpha_p_aff = max_step(&x, &dx_aff);
        let alpha_d_aff = max_step(&s, &ds_aff);
        let mu_aff = {
            let mut acc = 0.0;
            for i in 0..n {
                acc += (x[i] + alpha_p_aff * dx_aff[i]) * (s[i] + alpha_d_aff * ds_aff[i]);
            }
            acc / n as f64
        };
        let sigma = if mu > 0.0 { (mu_aff / mu).powi(3).clamp(1e-8, 1.0) } else { 0.1 };

        // Corrector: rc = x∘s + dx_aff∘ds_aff − σμ·1.
        let rc: Vec<f64> = (0..n)
            .map(|i| x[i] * s[i] + dx_aff[i] * ds_aff[i] - sigma * mu)
            .collect();
        let (dx, dy, ds) = solve_kkt(at, &chol, &d, &rp, &rd, &rc, &x, &s);

        let alpha_p = (opts.step_fraction * max_step(&x, &dx)).min(1.0);
        let alpha_d = (opts.step_fraction * max_step(&s, &ds)).min(1.0);

        vec_ops::axpy(alpha_p, &dx, &mut x);
        vec_ops::axpy(alpha_d, &dy, &mut y);
        vec_ops::axpy(alpha_d, &ds, &mut s);

        trace.ipm_iter(
            "lp",
            snbc_trace::IpmSample {
                iter: iter as u64,
                mu,
                rp_rel,
                rd_rel,
                gap_rel,
                alpha_p,
                alpha_d,
                cholesky: chol_spent,
            },
        );
    }

    // Return the best visited iterate if it is reasonably converged.
    if let Some((merit, bx, by, bs, iter)) = best {
        if merit < 1e-6 {
            let objective = vec_ops::dot(c, &bx);
            let mu = vec_ops::dot(&bx, &bs) / n as f64;
            return Ok(LpSolution {
                x: bx,
                y: by,
                s: bs,
                objective,
                iterations: iter,
                mu,
                status: if merit < opts.tolerance {
                    LpStatus::Optimal
                } else {
                    LpStatus::NearOptimal
                },
            });
        }
    }
    let mu = vec_ops::dot(&x, &s) / n as f64;
    Err(LpError::IterationLimit {
        iterations: opts.max_iterations,
        mu,
    })
}

/// Solves the Newton system given the factorized normal equations
/// (`at = Aᵀ`).
#[allow(clippy::too_many_arguments)]
fn solve_kkt(
    at: &Matrix,
    chol: &snbc_linalg::Cholesky,
    d: &[f64],
    rp: &[f64],
    rd: &[f64],
    rc: &[f64],
    _x: &[f64],
    s: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = at.nrows();
    // rhs = rp + A·S⁻¹·(rc + X·rd)  with D = X/S:
    // A·S⁻¹·rc + A·D·rd.
    let mut tmp = vec![0.0; n];
    for i in 0..n {
        tmp[i] = rc[i] / s[i] + d[i] * rd[i];
    }
    let mut rhs = at.tr_matvec(&tmp);
    for (r, p) in rhs.iter_mut().zip(rp) {
        *r += p;
    }
    let dy = chol.solve(&rhs);
    // ds = rd − Aᵀdy; dx = −S⁻¹·rc − D·ds.
    let atdy = at.matvec(&dy);
    let ds: Vec<f64> = rd.iter().zip(&atdy).map(|(r, v)| r - v).collect();
    let dx: Vec<f64> = (0..n).map(|i| -rc[i] / s[i] - d[i] * ds[i]).collect();
    (dx, dy, ds)
}

/// Largest step `α ∈ (0, 1e30]` with `v + α·dv ≥ 0`.
fn max_step(v: &[f64], dv: &[f64]) -> f64 {
    let mut alpha = f64::INFINITY;
    for (vi, di) in v.iter().zip(dv) {
        if *di < 0.0 {
            alpha = alpha.min(-vi / di);
        }
    }
    alpha.min(1.0e30)
}

/// A primal–dual iterate `(x, y, s)`.
type Iterate = (Vec<f64>, Vec<f64>, Vec<f64>);

/// The best iterate visited: `(merit, x, y, s, iteration)`.
type BestIterate = (f64, Vec<f64>, Vec<f64>, Vec<f64>, usize);

/// Mehrotra's starting point: least-squares estimates shifted into the
/// positive orthant (`at = Aᵀ`).
fn starting_point(at: &Matrix, b: &[f64], c: &[f64]) -> Result<Iterate, LpError> {
    let m = at.ncols();
    // AAᵀ with a little regularization: entry (i, j) sums Aᵢₖ·Aⱼₖ over k
    // ascending, one row of Aᵀ at a time.
    let mut aat = Matrix::zeros(m, m);
    for k in 0..at.nrows() {
        let r = at.row(k);
        for i in 0..m {
            for (aij, rj) in aat.row_mut(i)[i..].iter_mut().zip(&r[i..]) {
                *aij += r[i] * rj;
            }
        }
    }
    for i in 0..m {
        for j in 0..i {
            aat[(i, j)] = aat[(j, i)];
        }
        aat[(i, i)] += 1e-10 * (1.0 + aat[(i, i)]);
    }
    let chol = aat.cholesky()?;
    // x̃ = Aᵀ(AAᵀ)⁻¹ b;  ỹ = (AAᵀ)⁻¹ A c;  s̃ = c − Aᵀỹ.
    let w = chol.solve(b);
    let x0 = at.matvec(&w);
    let ac = at.tr_matvec(c);
    let y0 = chol.solve(&ac);
    let aty = at.matvec(&y0);
    let s0: Vec<f64> = c.iter().zip(&aty).map(|(ci, v)| ci - v).collect();

    let dx = (-x0.iter().copied().fold(f64::INFINITY, f64::min)).max(0.0) + 0.1;
    let ds = (-s0.iter().copied().fold(f64::INFINITY, f64::min)).max(0.0) + 0.1;
    let mut x: Vec<f64> = x0.iter().map(|v| v + dx).collect();
    let mut s: Vec<f64> = s0.iter().map(|v| v + ds).collect();
    // Second-stage shift balancing the complementarity products.
    let xs = vec_ops::dot(&x, &s);
    let sum_s: f64 = s.iter().sum();
    let sum_x: f64 = x.iter().sum();
    let dx2 = 0.5 * xs / sum_s.max(1e-12);
    let ds2 = 0.5 * xs / sum_x.max(1e-12);
    for v in &mut x {
        *v += dx2;
    }
    for v in &mut s {
        *v += ds2;
    }
    Ok((x, y0, s))
}

/// Solves `min cᵀz  s.t.  Gz ≤ g` with free `z`, via its standard-form dual.
///
/// The dual is `min gᵀw  s.t.  Gᵀw = −c, w ≥ 0`; the multipliers of that
/// problem's equality constraints recover `z` directly, so the factorization
/// size is `z.len()` — independent of the number of inequality rows. This is
/// what makes dense Chebyshev meshes with thousands of points cheap.
///
/// # Errors
///
/// Same as [`solve_standard`]; note that infeasibility of the *dual* signals
/// unboundedness of the inequality-form problem and vice versa.
pub fn solve_inequality(
    c: &[f64],
    g_mat: &Matrix,
    g_rhs: &[f64],
    opts: &LpOptions,
) -> Result<InequalitySolution, LpError> {
    let (rows, cols) = (g_mat.nrows(), g_mat.ncols());
    if c.len() != cols {
        return Err(LpError::Dimension(format!(
            "c has length {} but G has {} columns",
            c.len(),
            cols
        )));
    }
    if g_rhs.len() != rows {
        return Err(LpError::Dimension(format!(
            "g has length {} but G has {} rows",
            g_rhs.len(),
            rows
        )));
    }
    // Gᵀ is the standard form's A; its columns are G's rows, read in place.
    let b: Vec<f64> = c.iter().map(|v| -v).collect();
    let sol = match solve_standard_rows(g_mat, &b, g_rhs, opts) {
        Ok(sol) => sol,
        Err(LpError::Infeasible) => return Err(LpError::Unbounded),
        Err(LpError::Unbounded) => return Err(LpError::Infeasible),
        Err(e) => return Err(e),
    };
    // Standard-form dual variables y satisfy Gz ≤ g with z = −y and the
    // objective cᵀz = −bᵀy = gᵀw at optimum. Derivation: the standard-form
    // dual is max bᵀy s.t. Aᵀy ≤ c_std, i.e. max (−c)ᵀy s.t. G y ≤ g,
    // which matches min cᵀz s.t. Gz ≤ g under z = y.
    let z = sol.y.clone();
    let objective = vec_ops::dot(c, &z);
    Ok(InequalitySolution {
        z,
        objective,
        iterations: sol.iterations,
        status: sol.status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_form_textbook() {
        // min −3x₀ − 5x₁  s.t.  x₀ + s₁ = 4, 2x₁ + s₂ = 12, 3x₀ + 2x₁ + s₃ = 18.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 2.0, 0.0, 1.0, 0.0],
            &[3.0, 2.0, 0.0, 0.0, 1.0],
        ]);
        let b = [4.0, 12.0, 18.0];
        let c = [-3.0, -5.0, 0.0, 0.0, 0.0];
        let sol = solve_standard(&a, &b, &c, &LpOptions::default()).unwrap();
        assert!((sol.objective + 36.0).abs() < 1e-6, "objective {}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-5);
        assert!((sol.x[1] - 6.0).abs() < 1e-5);
    }

    #[test]
    fn inequality_form_box() {
        // min −z₀ − z₁  s.t.  z ≤ (1, 2), −z ≤ 0 ⇒ optimum −3 at (1, 2).
        let g = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[-1.0, 0.0],
            &[0.0, -1.0],
        ]);
        let sol = solve_inequality(&[-1.0, -1.0], &g, &[1.0, 2.0, 0.0, 0.0], &LpOptions::default())
            .unwrap();
        assert!((sol.objective + 3.0).abs() < 1e-6);
        assert!((sol.z[0] - 1.0).abs() < 1e-5);
        assert!((sol.z[1] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn chebyshev_fit_line_through_parabola() {
        // Best uniform linear fit to y = x² on {−1, −0.5, 0, 0.5, 1} has error
        // 0.5 at the Chebyshev points (equioscillation): p(x) = x²-ish → fit
        // a + b·x with minimal max error = 0.5, a = 0.5, b = 0.
        let xs = [-1.0, -0.5, 0.0, 0.5, 1.0];
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut rhs = Vec::new();
        for &x in &xs {
            let k = x * x;
            // (a + b·x) − t ≤ k  and −(a + b·x) − t ≤ −k.
            rows.push(vec![1.0, x, -1.0]);
            rhs.push(k);
            rows.push(vec![-1.0, -x, -1.0]);
            rhs.push(-k);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let g = Matrix::from_rows(&row_refs);
        let sol = solve_inequality(&[0.0, 0.0, 1.0], &g, &rhs, &LpOptions::default()).unwrap();
        assert!((sol.objective - 0.5).abs() < 1e-6, "objective {}", sol.objective);
        assert!((sol.z[0] - 0.5).abs() < 1e-5, "a = {}", sol.z[0]);
        assert!(sol.z[1].abs() < 1e-5, "b = {}", sol.z[1]);
    }

    #[test]
    fn detects_unbounded() {
        // min −z  with z ≤ ∞ constraint only trivially: z − t*0 ≤ 1 has
        // recession direction? Use: min −z₀ s.t. −z₀ ≤ 0 (z₀ ≥ 0, unbounded above).
        let g = Matrix::from_rows(&[&[-1.0]]);
        let r = solve_inequality(&[-1.0], &g, &[0.0], &LpOptions::default());
        assert!(matches!(r, Err(LpError::Unbounded) | Err(LpError::IterationLimit { .. })));
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_standard(&a, &[1.0], &[0.0; 3], &LpOptions::default()),
            Err(LpError::Dimension(_))
        ));
        assert!(matches!(
            solve_standard(&a, &[1.0, 2.0], &[0.0; 2], &LpOptions::default()),
            Err(LpError::Dimension(_))
        ));
    }

    #[test]
    fn degenerate_rows_still_solve() {
        // Duplicate constraint rows make AAᵀ singular without regularization.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]]);
        let b = [1.0, 1.0];
        let c = [1.0, 2.0, 3.0];
        let sol = solve_standard(&a, &b, &c, &LpOptions::default()).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }
}
