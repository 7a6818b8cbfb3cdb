//! Bit-for-bit oracle of the LP interior-point core. The core runs on
//! `Aᵀ` (for the §3 Chebyshev LP, the inequality matrix `G` as assembled),
//! reading each column of `A` as one contiguous row. The loop over `A` it
//! replaced is kept below verbatim as the reference; both must return the
//! same bits for `x`, `y`, `s`, the objective, μ, the iteration count and
//! the status, on textbook LPs and on Chebyshev LPs of small MLPs.

use snbc_linalg::{vec_ops, Matrix};
use snbc_lp::{solve_inequality, solve_standard, LpError, LpOptions, LpSolution, LpStatus};
use snbc_nn::{Activation, Mlp};
use snbc_poly::monomial_basis;

// ---------------------------------------------------------------------------
// The reference: the interior-point core over `A`, verbatim.

#[expect(clippy::type_complexity, reason = "kept verbatim as the bitwise reference")]
fn reference_solve(
    a: &Matrix,
    b: &[f64],
    c: &[f64],
    opts: &LpOptions,
) -> Result<LpSolution, LpError> {
    let (m, n) = (a.nrows(), a.ncols());
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
    let (mut x, mut y, mut s) = starting_point(a, b, c)?;

    let bnorm = vec_ops::norm2(b).max(1.0);
    let cnorm = vec_ops::norm2(c).max(1.0);

    // Best iterate seen so far, by the merit max(rp, rd, μ): near machine
    // precision the normal equations degrade and residuals can oscillate, so
    // we never return anything worse than the best visited point.
    let mut best: Option<(f64, Vec<f64>, Vec<f64>, Vec<f64>, usize)> = None;
    let trace = opts.telemetry.trace();

    for iter in 0..opts.max_iterations {
        // Residuals.
        let ax = a.matvec(&x);
        let rp: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let aty = a.tr_matvec(&y);
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
            let col = a.col(k);
            for i in 0..m {
                let v = dk * col[i];
                if v == 0.0 {
                    continue;
                }
                for j in i..m {
                    mm[(i, j)] += v * col[j];
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
        let (dx_aff, _dy_aff, ds_aff) = solve_kkt(a, &chol, &d, &rp, &rd, &rc_aff, &x, &s);
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
        let (dx, dy, ds) = solve_kkt(a, &chol, &d, &rp, &rd, &rc, &x, &s);

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

/// Solves the Newton system given the factorized normal equations.
#[allow(clippy::too_many_arguments)]
fn solve_kkt(
    a: &Matrix,
    chol: &snbc_linalg::Cholesky,
    d: &[f64],
    rp: &[f64],
    rd: &[f64],
    rc: &[f64],
    _x: &[f64],
    s: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = a.ncols();
    // rhs = rp + A·S⁻¹·(rc + X·rd)  with D = X/S:
    // A·S⁻¹·rc + A·D·rd.
    let mut tmp = vec![0.0; n];
    for i in 0..n {
        tmp[i] = rc[i] / s[i] + d[i] * rd[i];
    }
    let mut rhs = a.matvec(&tmp);
    for (r, p) in rhs.iter_mut().zip(rp) {
        *r += p;
    }
    let dy = chol.solve(&rhs);
    // ds = rd − Aᵀdy; dx = −S⁻¹·rc − D·ds.
    let atdy = a.tr_matvec(&dy);
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

/// Mehrotra's starting point: least-squares estimates shifted into the
/// positive orthant.
#[expect(clippy::type_complexity, reason = "kept verbatim as the bitwise reference")]
fn starting_point(a: &Matrix, b: &[f64], c: &[f64]) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>), LpError> {
    let m = a.nrows();
    // AAᵀ with a little regularization.
    let mut aat = Matrix::zeros(m, m);
    for i in 0..m {
        for j in i..m {
            let mut acc = 0.0;
            let ri = a.row(i);
            let rj = a.row(j);
            for k in 0..a.ncols() {
                acc += ri[k] * rj[k];
            }
            aat[(i, j)] = acc;
            aat[(j, i)] = acc;
        }
    }
    for i in 0..m {
        aat[(i, i)] += 1e-10 * (1.0 + aat[(i, i)]);
    }
    let chol = aat.cholesky()?;
    // x̃ = Aᵀ(AAᵀ)⁻¹ b;  ỹ = (AAᵀ)⁻¹ A c;  s̃ = c − Aᵀỹ.
    let w = chol.solve(b);
    let x0 = a.tr_matvec(&w);
    let ac = a.matvec(c);
    let y0 = chol.solve(&ac);
    let aty = a.tr_matvec(&y0);
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

// ---------------------------------------------------------------------------

fn assert_same(got: &Result<LpSolution, LpError>, want: &Result<LpSolution, LpError>, what: &str) {
    let (got, want) = match (got, want) {
        (Ok(g), Ok(w)) => (g, w),
        (Err(g), Err(w)) => {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}: errors differ");
            return;
        }
        _ => panic!("{what}: {got:?} vs reference {want:?}"),
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
    assert_eq!(bits(&got.y), bits(&want.y), "{what}: y");
    assert_eq!(bits(&got.s), bits(&want.s), "{what}: s");
    assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "{what}: objective");
    assert_eq!(got.mu.to_bits(), want.mu.to_bits(), "{what}: mu");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.status, want.status, "{what}: status");
}

/// The standard form of `min cᵀz s.t. Gz ≤ g` that `solve_inequality`
/// solves: `A = Gᵀ`, `b = −c`, costs `g`.
fn check_inequality(c: &[f64], g: &Matrix, rhs: &[f64], what: &str) {
    let opts = LpOptions::default();
    let a = g.transpose();
    let b: Vec<f64> = c.iter().map(|v| -v).collect();
    let want = reference_solve(&a, &b, rhs, &opts);
    assert_same(&solve_standard(&a, &b, rhs, &opts), &want, what);
    let ineq = solve_inequality(c, g, rhs, &opts).expect("inequality LP solves");
    let want = want.expect("reference solves");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ineq.z), bits(&want.y), "{what}: z");
    assert_eq!(ineq.objective.to_bits(), vec_ops::dot(c, &want.y).to_bits(), "{what}: objective");
    assert_eq!(ineq.iterations, want.iterations, "{what}: iterations");
    assert_eq!(ineq.status, want.status, "{what}: status");
}

/// The §3 Chebyshev LP of `net` over `points` with a degree-`degree` basis,
/// assembled row by row as `snbc::approximate_controller` does.
fn chebyshev_lp(net: &Mlp, points: &[Vec<f64>], degree: u32) -> (Vec<f64>, Matrix, Vec<f64>) {
    let basis = monomial_basis(net.input_dim(), degree);
    let v = basis.len();
    let m = points.len();
    let mut g = Matrix::zeros(2 * m, v + 1);
    let mut rhs = vec![0.0; 2 * m];
    for (i, y) in points.iter().enumerate() {
        let k = net.forward(y);
        for (j, mono) in basis.iter().enumerate() {
            let phi = mono.eval(y);
            g[(2 * i, j)] = phi;
            g[(2 * i + 1, j)] = -phi;
        }
        g[(2 * i, v)] = -1.0;
        g[(2 * i + 1, v)] = -1.0;
        rhs[2 * i] = k;
        rhs[2 * i + 1] = -k;
    }
    let mut c = vec![0.0; v + 1];
    c[v] = 1.0;
    (c, g, rhs)
}

fn grid(n: usize, per_axis: usize, r: f64) -> Vec<Vec<f64>> {
    let mut pts = vec![vec![]];
    for _ in 0..n {
        let mut next = Vec::new();
        for p in &pts {
            for i in 0..per_axis {
                let mut q: Vec<f64> = p.clone();
                q.push(-r + 2.0 * r * i as f64 / (per_axis - 1) as f64);
                next.push(q);
            }
        }
        pts = next;
    }
    pts
}

#[test]
fn textbook_lps_match_the_reference_bitwise() {
    let opts = LpOptions::default();
    let a = Matrix::from_rows(&[
        &[1.0, 0.0, 1.0, 0.0, 0.0],
        &[0.0, 2.0, 0.0, 1.0, 0.0],
        &[3.0, 2.0, 0.0, 0.0, 1.0],
    ]);
    let (b, c) = ([4.0, 12.0, 18.0], [-3.0, -5.0, 0.0, 0.0, 0.0]);
    assert_same(&solve_standard(&a, &b, &c, &opts), &reference_solve(&a, &b, &c, &opts), "textbook");
    let dup = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]]);
    let (b, c) = ([1.0, 1.0], [1.0, 2.0, 3.0]);
    assert_same(&solve_standard(&dup, &b, &c, &opts), &reference_solve(&dup, &b, &c, &opts), "degenerate rows");
    let unbounded = Matrix::from_rows(&[&[-1.0]]);
    assert_same(
        &solve_standard(&unbounded.transpose(), &[1.0], &[0.0], &opts),
        &reference_solve(&unbounded.transpose(), &[1.0], &[0.0], &opts),
        "unbounded dual",
    );
    let boxed = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 0.0], &[0.0, -1.0]]);
    check_inequality(&[-1.0, -1.0], &boxed, &[1.0, 2.0, 0.0, 0.0], "box");
    let xs = [-1.0, -0.5, 0.0, 0.5, 1.0];
    let rows: Vec<Vec<f64>> = xs
        .iter()
        .flat_map(|&x| [vec![1.0, x, -1.0], vec![-1.0, -x, -1.0]])
        .collect();
    let rhs: Vec<f64> = xs.iter().flat_map(|&x| [x * x, -x * x]).collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    check_inequality(&[0.0, 0.0, 1.0], &Matrix::from_rows(&refs), &rhs, "parabola fit");
}

#[test]
fn chebyshev_lps_of_small_mlps_match_the_reference_bitwise() {
    // Rectangular meshes (2-D and 3-D, degrees 1–3) and a 5-D Halton set,
    // each under 2 000 points.
    let cases: [(usize, usize, u32); 4] = [(2, 31, 2), (2, 21, 3), (3, 11, 2), (4, 6, 1)];
    for (seed, (n, per_axis, degree)) in cases.into_iter().enumerate() {
        let net = Mlp::new(&[n, 8, 1], Activation::Tanh, seed as u64 + 3);
        let (c, g, rhs) = chebyshev_lp(&net, &grid(n, per_axis, 1.5), degree);
        check_inequality(&c, &g, &rhs, &format!("{n}-D grid, degree {degree}"));
    }
    let net = Mlp::new(&[5, 10, 1], Activation::Tanh, 11);
    let points = snbc_dynamics::sample_box_halton(&[(-2.0, 2.0); 5], 1500);
    let (c, g, rhs) = chebyshev_lp(&net, &points, 1);
    check_inequality(&c, &g, &rhs, "5-D Halton, degree 1");
}
