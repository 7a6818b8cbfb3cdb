//! Dense two-phase primal simplex.
//!
//! An independent LP implementation used to cross-validate the interior-point
//! solver in tests (two solvers agreeing on random instances is a strong
//! correctness signal) and to solve tiny LPs exactly where an active-set
//! answer is convenient.

use snbc_linalg::Matrix;

use crate::LpError;

/// Result of a simplex solve on a standard-form LP.
#[derive(Debug, Clone)]
pub struct SimplexSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
    /// Indices of the final basis.
    pub basis: Vec<usize>,
}

const EPS: f64 = 1e-9;

/// Solves `min cᵀx  s.t.  Ax = b, x ≥ 0` by the two-phase tableau simplex.
///
/// Intended for small/medium dense problems (tests, cross-checks); the
/// interior-point method in [`crate::solve_standard`] is the production path.
///
/// # Errors
///
/// * [`LpError::Infeasible`] — phase 1 ends with positive artificial cost;
/// * [`LpError::Unbounded`] — an entering column has no positive pivot;
/// * [`LpError::IterationLimit`] — cycling guard tripped.
pub fn solve(a: &Matrix, b: &[f64], c: &[f64]) -> Result<SimplexSolution, LpError> {
    let (m, n) = (a.nrows(), a.ncols());
    if b.len() != m || c.len() != n {
        return Err(LpError::Dimension("simplex input size mismatch".into()));
    }
    // Ensure b ≥ 0 by flipping row signs.
    let mut tab = Matrix::zeros(m, n + m);
    let mut rhs = vec![0.0; m];
    for i in 0..m {
        let flip = if b[i] < 0.0 { -1.0 } else { 1.0 };
        for j in 0..n {
            tab[(i, j)] = flip * a[(i, j)];
        }
        tab[(i, n + i)] = 1.0; // artificial
        rhs[i] = flip * b[i];
    }
    let mut basis: Vec<usize> = (n..n + m).collect();

    // Phase 1: minimize sum of artificials.
    let phase1_cost: Vec<f64> = (0..n + m).map(|j| if j >= n { 1.0 } else { 0.0 }).collect();
    let obj1 = run_phases(&mut tab, &mut rhs, &mut basis, &phase1_cost, n + m)?;
    if obj1 > 1e-7 {
        return Err(LpError::Infeasible);
    }
    // Drive remaining artificials out of the basis where possible.
    for i in 0..m {
        if basis[i] >= n {
            // Find a structural column with a nonzero pivot in this row.
            if let Some(j) = (0..n).find(|&j| tab[(i, j)].abs() > EPS) {
                pivot(&mut tab, &mut rhs, &mut basis, i, j);
            }
        }
    }

    // Phase 2 on structural columns only (artificials pinned by huge cost).
    let mut phase2_cost = vec![0.0; n + m];
    phase2_cost[..n].copy_from_slice(c);
    for cost in phase2_cost.iter_mut().skip(n) {
        *cost = 1e30; // effectively forbid re-entering artificials
    }
    let objective = run_phases(&mut tab, &mut rhs, &mut basis, &phase2_cost, n)?;

    let mut x = vec![0.0; n];
    for (i, &bi) in basis.iter().enumerate() {
        if bi < n {
            x[bi] = rhs[i];
        }
    }
    Ok(SimplexSolution {
        x,
        objective,
        basis,
    })
}

/// Runs simplex iterations for the given costs; returns the final objective.
fn run_phases(
    tab: &mut Matrix,
    rhs: &mut [f64],
    basis: &mut [usize],
    cost: &[f64],
    allowed_cols: usize,
) -> Result<f64, LpError> {
    let m = tab.nrows();
    let max_iter = 50 * (tab.ncols() + m);
    for _ in 0..max_iter {
        // Reduced costs: c_j − c_Bᵀ B⁻¹ A_j; the tableau is kept in B⁻¹A form,
        // so reduced cost = c_j − Σᵢ c_{basis[i]}·tab[i][j].
        let mut entering = None;
        let mut best = -EPS;
        for j in 0..allowed_cols {
            if basis.contains(&j) {
                continue;
            }
            let mut r = cost[j];
            for i in 0..m {
                r -= cost[basis[i]] * tab[(i, j)];
            }
            if r < best {
                best = r;
                entering = Some(j);
            }
        }
        let Some(j) = entering else {
            let obj = (0..m).map(|i| cost[basis[i]] * rhs[i]).sum();
            return Ok(obj);
        };
        // Ratio test.
        let mut leaving = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let aij = tab[(i, j)];
            if aij > EPS {
                let ratio = rhs[i] / aij;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leaving.is_some_and(|l: usize| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(i) = leaving else {
            return Err(LpError::Unbounded);
        };
        pivot(tab, rhs, basis, i, j);
    }
    Err(LpError::IterationLimit {
        iterations: max_iter,
        mu: f64::NAN,
    })
}

fn pivot(tab: &mut Matrix, rhs: &mut [f64], basis: &mut [usize], row: usize, col: usize) {
    let m = tab.nrows();
    let ncols = tab.ncols();
    let p = tab[(row, col)];
    for j in 0..ncols {
        tab[(row, j)] /= p;
    }
    rhs[row] /= p;
    for i in 0..m {
        if i == row {
            continue;
        }
        let f = tab[(i, col)];
        // Exact zero needs no elimination; a tolerance here would corrupt
        // the tableau.
        if f == 0.0 {
            continue;
        }
        for j in 0..ncols {
            let v = f * tab[(row, j)];
            tab[(i, j)] -= v;
        }
        rhs[i] -= f * rhs[row];
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_standard, LpOptions};

    #[test]
    fn matches_textbook() {
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 2.0, 0.0, 1.0, 0.0],
            &[3.0, 2.0, 0.0, 0.0, 1.0],
        ]);
        let b = [4.0, 12.0, 18.0];
        let c = [-3.0, -5.0, 0.0, 0.0, 0.0];
        let sol = solve(&a, &b, &c).unwrap();
        assert!((sol.objective + 36.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x₀ = −1 with x₀ ≥ 0.
        let a = Matrix::from_rows(&[&[1.0]]);
        assert!(matches!(solve(&a, &[-1.0], &[1.0]), Err(LpError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        // min −x₀ s.t. x₀ − x₁ = 0 (both can grow).
        let a = Matrix::from_rows(&[&[1.0, -1.0]]);
        assert!(matches!(
            solve(&a, &[0.0], &[-1.0, 0.0]),
            Err(LpError::Unbounded)
        ));
    }

    #[test]
    fn agrees_with_ipm_on_random_instances() {
        // Deterministic pseudo-random feasible LPs: pick x* ≥ 0, b = A x*.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _case in 0..10 {
            let (m, n) = (4, 9);
            let a = Matrix::from_fn(m, n, |_, _| next() * 2.0 - 1.0);
            let xstar: Vec<f64> = (0..n).map(|_| next() + 0.1).collect();
            let b = a.matvec(&xstar);
            let c: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
            let sx = solve(&a, &b, &c);
            let ip = solve_standard(&a, &b, &c, &LpOptions::default());
            match (sx, ip) {
                (Ok(s), Ok(p)) => {
                    assert!(
                        (s.objective - p.objective).abs() < 1e-5 * (1.0 + s.objective.abs()),
                        "simplex {} vs ipm {}",
                        s.objective,
                        p.objective
                    );
                }
                (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
                (s, p) => panic!("solver disagreement: {s:?} vs {p:?}"),
            }
        }
    }
}
