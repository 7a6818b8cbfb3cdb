use std::collections::BTreeMap;

use snbc_linalg::Matrix;
use snbc_poly::{monomial_basis, Monomial, Polynomial};
use snbc_sdp::{BlockShape, SdpProblem, SdpSolver};

use crate::SosError;

/// Handle to an unknown polynomial declared in a [`SosProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnknownId(usize);

#[derive(Debug, Clone)]
enum UnknownKind {
    /// SOS polynomial with Gram matrix over the given monomial basis.
    Sos { basis: Vec<Monomial> },
    /// Free polynomial with unconstrained coefficients over the given basis.
    Free { basis: Vec<Monomial> },
}

/// An affine polynomial expression
/// `constant(x) + Σᵢ multiplierᵢ(x) · unknownᵢ(x)`.
///
/// The building block of SOS constraints: the LMI problems (13)–(15) of the
/// paper are all of this shape with known multipliers (the set polynomials
/// `θᵢ, ψᵢ, ξᵢ` and the learned `B`) and unknown SOS/free polynomials.
#[derive(Debug, Clone, Default)]
pub struct SosExpr {
    constant: Polynomial,
    terms: Vec<(UnknownId, Polynomial)>,
}

impl SosExpr {
    /// The zero expression.
    pub fn new() -> Self {
        SosExpr::default()
    }

    /// An expression consisting of a known polynomial only.
    pub fn from_poly(p: Polynomial) -> Self {
        SosExpr {
            constant: p,
            terms: Vec::new(),
        }
    }

    /// Adds `multiplier(x) · unknown(x)`.
    pub fn add_term(mut self, multiplier: Polynomial, unknown: UnknownId) -> Self {
        self.terms.push((unknown, multiplier));
        self
    }

    /// Adds `coeff · unknown(x)`.
    pub fn add_scaled_unknown(self, coeff: f64, unknown: UnknownId) -> Self {
        self.add_term(Polynomial::constant(coeff), unknown)
    }
}

/// Declarative SOS feasibility program; see the [crate docs](crate) for the
/// overall picture and an example.
#[derive(Debug, Clone)]
pub struct SosProgram {
    nvars: usize,
    unknowns: Vec<UnknownKind>,
    /// Constraints of the form `expr ≡ 0`.
    zero_constraints: Vec<SosExpr>,
    /// Cap on the feasibility margin variable `t` (keeps the SDP bounded).
    pub margin_cap: f64,
    /// Feasibility acceptance threshold: a solved margin `t* > −tolerance`
    /// counts as feasible. Exact SOS decompositions with rank-deficient Gram
    /// matrices (e.g. perfect squares) have a true optimal margin of 0, which
    /// the interior-point solver reports as a tiny negative number.
    pub margin_tolerance: f64,
}

impl SosProgram {
    /// Creates an empty program over `nvars` variables.
    pub fn new(nvars: usize) -> Self {
        SosProgram {
            nvars,
            unknowns: Vec::new(),
            zero_constraints: Vec::new(),
            margin_cap: 1.0,
            margin_tolerance: 1e-7,
        }
    }

    /// Number of ambient variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Declares an unknown SOS polynomial of degree ≤ `degree` (rounded down
    /// to even); its Gram matrix ranges over the basis `[x]_{degree/2}`.
    pub fn add_sos(&mut self, degree: u32) -> UnknownId {
        let basis = monomial_basis(self.nvars, degree / 2);
        self.unknowns.push(UnknownKind::Sos { basis });
        UnknownId(self.unknowns.len() - 1)
    }

    /// Declares an unknown free polynomial of degree ≤ `degree`.
    pub fn add_free(&mut self, degree: u32) -> UnknownId {
        self.add_free_restricted(degree, self.nvars)
    }

    /// Declares an unknown free polynomial of degree ≤ `degree` that may only
    /// mention the first `nvars` ambient variables. Used for the multiplier
    /// `λ(x)` in the flow condition (15), which ranges over `x` but not over
    /// the controller-error variable `w`.
    ///
    /// # Panics
    ///
    /// Panics if `nvars` exceeds the program's ambient dimension.
    pub fn add_free_restricted(&mut self, degree: u32, nvars: usize) -> UnknownId {
        assert!(
            nvars <= self.nvars,
            "restricted variable count {nvars} exceeds ambient {}",
            self.nvars
        );
        let basis = monomial_basis(nvars, degree);
        self.unknowns.push(UnknownKind::Free { basis });
        UnknownId(self.unknowns.len() - 1)
    }

    /// Requires `expr(x) ≡ 0` as a polynomial identity.
    pub fn require_zero(&mut self, expr: SosExpr) {
        self.zero_constraints.push(expr);
    }

    /// Requires `expr(x) ∈ Σ[x]`: an internal SOS certificate unknown `c` is
    /// created and `expr − c ≡ 0` is imposed. Returns the certificate's id.
    pub fn require_sos(&mut self, expr: SosExpr) -> UnknownId {
        // Degree bound of the expression decides the certificate basis.
        let mut deg = expr.constant.degree();
        for (id, q) in &expr.terms {
            let ud = match &self.unknowns[id.0] {
                UnknownKind::Sos { basis } => 2 * basis.iter().map(Monomial::degree).max().unwrap_or(0),
                UnknownKind::Free { basis } => basis.iter().map(Monomial::degree).max().unwrap_or(0),
            };
            deg = deg.max(q.degree() + ud);
        }
        let cert = self.add_sos(deg + deg % 2);
        let expr = expr.add_scaled_unknown(-1.0, cert);
        self.require_zero(expr);
        cert
    }

    /// Compiles and solves the program with the default SDP solver settings.
    ///
    /// # Errors
    ///
    /// See [`SosProgram::solve`].
    pub fn solve_default(&self) -> Result<SosSolution, SosError> {
        self.solve(&SdpSolver::default())
    }

    /// Compiles the program to a block SDP (with margin maximization) and
    /// solves it.
    ///
    /// # Errors
    ///
    /// * [`SosError::Invalid`] — empty program or malformed expression;
    /// * [`SosError::Infeasible`] — solved, but the achieved margin is not
    ///   positive (no strictly feasible certificate of these degrees);
    /// * [`SosError::Solver`] — the SDP solver failed.
    pub fn solve(&self, solver: &SdpSolver) -> Result<SosSolution, SosError> {
        if self.zero_constraints.is_empty() {
            return Err(SosError::Invalid("no constraints".into()));
        }
        // Block layout: one dense block per SOS unknown, then one diag block
        // for all free coefficients (split +/−), then one diag block
        // [t⁺, t⁻, slack] for the feasibility margin.
        let mut shapes = Vec::new();
        let mut sos_block = vec![usize::MAX; self.unknowns.len()];
        let mut free_offset = vec![usize::MAX; self.unknowns.len()];
        let mut free_len = 0usize;
        for (i, u) in self.unknowns.iter().enumerate() {
            match u {
                UnknownKind::Sos { basis } => {
                    sos_block[i] = shapes.len();
                    shapes.push(BlockShape::Dense(basis.len()));
                }
                UnknownKind::Free { basis } => {
                    free_offset[i] = free_len;
                    free_len += basis.len();
                }
            }
        }
        let free_block = shapes.len();
        if free_len > 0 {
            shapes.push(BlockShape::Diag(2 * free_len));
        }
        let margin_block = shapes.len();
        shapes.push(BlockShape::Diag(3));

        let mut sdp = SdpProblem::new(shapes);
        // Objective: maximize t = t⁺ − t⁻ ⇒ min −t⁺ + t⁻.
        sdp.set_cost(margin_block, 0, 0, -1.0);
        sdp.set_cost(margin_block, 1, 1, 1.0);
        // t⁺ − t⁻ + s = margin_cap.
        let kcap = sdp.add_constraint(self.margin_cap);
        sdp.set_coefficient(kcap, margin_block, 0, 0, 1.0);
        sdp.set_coefficient(kcap, margin_block, 1, 1, -1.0);
        sdp.set_coefficient(kcap, margin_block, 2, 2, 1.0);

        // One equality constraint per monomial per expression.
        for expr in &self.zero_constraints {
            let mut rows: BTreeMap<Monomial, usize> = BTreeMap::new();
            let mut row =
                |sdp: &mut SdpProblem, m: &Monomial| -> usize {
                    *rows.entry(m.clone()).or_insert_with(|| sdp.add_constraint(0.0))
                };
            // Known part moves to the rhs: Σ contributions = −constant_μ.
            // We instead keep rhs 0 and record the constant as part of the
            // constraint right-hand side directly below.
            for (m, c) in expr.constant.iter() {
                let k = row(&mut sdp, m);
                // ⟨A, X⟩ = b: put the constant on the rhs.
                add_rhs(&mut sdp, k, -c);
            }
            for (id, q) in &expr.terms {
                if q.is_zero() {
                    continue;
                }
                match &self.unknowns[id.0] {
                    UnknownKind::Sos { basis } => {
                        let blk = sos_block[id.0];
                        for a in 0..basis.len() {
                            for bidx in a..basis.len() {
                                let mab = basis[a].mul(&basis[bidx]);
                                for (qm, qc) in q.iter() {
                                    let target = mab.mul(qm);
                                    let k = row(&mut sdp, &target);
                                    sdp.set_coefficient(k, blk, a, bidx, qc);
                                    // Margin shift: G = H + t·I touches only
                                    // the diagonal.
                                    if a == bidx {
                                        sdp.set_coefficient(k, margin_block, 0, 0, qc);
                                        sdp.set_coefficient(k, margin_block, 1, 1, -qc);
                                    }
                                }
                            }
                        }
                    }
                    UnknownKind::Free { basis } => {
                        let off = free_offset[id.0];
                        for (ci, cm) in basis.iter().enumerate() {
                            for (qm, qc) in q.iter() {
                                let target = cm.mul(qm);
                                let k = row(&mut sdp, &target);
                                let pos = 2 * (off + ci);
                                sdp.set_coefficient(k, free_block, pos, pos, qc);
                                sdp.set_coefficient(k, free_block, pos + 1, pos + 1, -qc);
                            }
                        }
                    }
                }
            }
        }

        let sol = solver.solve(&sdp)?;
        let margin_diag = sol.x.block(margin_block).as_diag()?;
        let t = margin_diag[0] - margin_diag[1];

        // Extract the unknowns (shifting Gram diagonals by t).
        let mut polys = Vec::with_capacity(self.unknowns.len());
        let mut grams = Vec::with_capacity(self.unknowns.len());
        for (i, u) in self.unknowns.iter().enumerate() {
            match u {
                UnknownKind::Sos { basis } => {
                    let h = sol.x.block(sos_block[i]).as_dense()?.clone();
                    let mut g = h;
                    for a in 0..g.nrows() {
                        g[(a, a)] += t;
                    }
                    // Debug-build check: the extracted Gram block G = H + t·I
                    // must be finite and symmetric (H is a primal SDP
                    // iterate), and PSD up to the margin shift:
                    // λ_min(G) ≥ min(t, 0) − tol since H ⪰ 0 up to solver
                    // tolerance. The λ_min computation is itself gated so
                    // the release build does no extra work.
                    if cfg!(debug_assertions) {
                        snbc_linalg::sanitize::check_finite(
                            "sos::gram extraction",
                            g.as_slice(),
                        );
                        let mut asym: f64 = 0.0;
                        for a in 0..g.nrows() {
                            for b in (a + 1)..g.ncols() {
                                asym = asym.max((g[(a, b)] - g[(b, a)]).abs());
                            }
                        }
                        let scale = 1.0 + g.norm_fro();
                        snbc_linalg::sanitize::check_invariant(
                            "sos::gram symmetric",
                            asym <= 1e-8 * scale,
                            asym,
                        );
                        let lmin = g.min_eigenvalue().unwrap_or(f64::NAN);
                        snbc_linalg::sanitize::check_invariant(
                            "sos::gram psd up to margin shift",
                            lmin >= t.min(0.0) - 1e-6 * scale,
                            lmin,
                        );
                    }
                    let mut p = Polynomial::zero();
                    for a in 0..basis.len() {
                        for bidx in 0..basis.len() {
                            p.add_term(g[(a, bidx)], basis[a].mul(&basis[bidx]));
                        }
                    }
                    polys.push(p);
                    grams.push(Some((basis.clone(), g)));
                }
                UnknownKind::Free { basis } => {
                    let d = sol.x.block(free_block).as_diag()?;
                    let off = free_offset[i];
                    let mut p = Polynomial::zero();
                    for (ci, cm) in basis.iter().enumerate() {
                        let v = d[2 * (off + ci)] - d[2 * (off + ci) + 1];
                        p.add_term(v, cm.clone());
                    }
                    polys.push(p);
                    grams.push(None);
                }
            }
        }

        let solution = SosSolution {
            polys,
            grams,
            margin: t,
            sdp_iterations: sol.iterations,
        };
        if t <= -self.margin_tolerance {
            return Err(SosError::Infeasible { margin: t });
        }
        Ok(solution)
    }
}

/// Adjusts the right-hand side of constraint `k` by `delta`.
fn add_rhs(sdp: &mut SdpProblem, k: usize, delta: f64) {
    // SdpProblem stores rhs immutably through add_constraint; emulate
    // accumulation with a tiny shim: we rebuild by tracking here.
    sdp.add_rhs(k, delta);
}

/// Witness returned by a successful [`SosProgram::solve`].
#[derive(Debug, Clone)]
pub struct SosSolution {
    polys: Vec<Polynomial>,
    grams: Vec<Option<(Vec<Monomial>, Matrix)>>,
    margin: f64,
    sdp_iterations: usize,
}

impl SosSolution {
    /// The solved polynomial for an unknown.
    pub fn poly(&self, id: UnknownId) -> &Polynomial {
        &self.polys[id.0]
    }

    /// The Gram matrix and its monomial basis for an SOS unknown (`None` for
    /// free unknowns).
    pub fn gram(&self, id: UnknownId) -> Option<(&[Monomial], &Matrix)> {
        self.grams[id.0].as_ref().map(|(b, g)| (b.as_slice(), g))
    }

    /// The achieved feasibility margin `t*` (min eigenvalue shift applied to
    /// every Gram block); strictly positive for accepted certificates.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Interior-point iterations used by the compiled SDP.
    pub fn sdp_iterations(&self) -> usize {
        self.sdp_iterations
    }

    /// Residual `‖expr‖∞` of an identity under the solved unknowns: how
    /// closely `expr ≡ 0` holds with the numerical solution plugged in.
    pub fn residual(&self, expr: &SosExpr) -> f64 {
        let mut p = expr.constant.clone();
        for (id, q) in &expr.terms {
            p += &(q * &self.polys[id.0]);
        }
        p.max_abs_coeff()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certifies_simple_sos() {
        // x² + 2x + 1 = (x+1)².
        let p: Polynomial = "x0^2 + 2*x0 + 1".parse().unwrap();
        let mut prog = SosProgram::new(1);
        let cert = prog.require_sos(SosExpr::from_poly(p.clone()));
        let sol = prog.solve_default().unwrap();
        // (x+1)² is SOS on the boundary of the cone (rank-1 Gram): the
        // optimal margin is exactly 0.
        assert!(sol.margin() > -1e-7);
        // Certificate reproduces the polynomial.
        let diff = &p - sol.poly(cert);
        assert!(diff.max_abs_coeff() < 1e-5, "residual {}", diff.max_abs_coeff());
    }

    #[test]
    fn rejects_negative_polynomial() {
        // −x² − 1 is negative everywhere: not SOS.
        let p: Polynomial = "-x0^2 - 1".parse().unwrap();
        let mut prog = SosProgram::new(1);
        prog.require_sos(SosExpr::from_poly(p));
        assert!(matches!(
            prog.solve_default(),
            Err(SosError::Infeasible { .. }) | Err(SosError::Solver(_))
        ));
    }

    #[test]
    fn rejects_indefinite_polynomial() {
        // x (changes sign): not SOS.
        let p: Polynomial = "x0".parse().unwrap();
        let mut prog = SosProgram::new(1);
        prog.require_sos(SosExpr::from_poly(p));
        assert!(prog.solve_default().is_err());
    }

    #[test]
    fn motzkin_like_multiplier_problem() {
        // Positivstellensatz toy: certify x ≥ 0 on [0, 1] via
        // x = σ₀ + σ₁·x·(1−x) is impossible for deg σ₁ = 0? Actually
        // x − σ₁·x(1−x) SOS with σ₁ = 1 gives x − x + x² = x². Feasible.
        let x: Polynomial = "x0".parse().unwrap();
        let g: Polynomial = "x0*(1 - x0)".parse().unwrap();
        let mut prog = SosProgram::new(1);
        let sigma = prog.add_sos(0);
        let expr = SosExpr::from_poly(x).add_term(-&g, sigma);
        prog.require_sos(expr);
        let sol = prog.solve_default().unwrap();
        // The certificate x² is on the cone boundary; margin ≈ 0 is correct.
        assert!(sol.margin() > -1e-7);
        // σ must be a (numerically) nonnegative constant.
        assert!(sol.poly(sigma).constant_term() >= -1e-7);
    }

    #[test]
    fn free_unknown_interpolates() {
        // Find free λ (deg 0) with  (2 − λ)·x² ∈ SOS and (λ − 1)·x² ∈ SOS:
        // any λ ∈ [1, 2] works; the margin maximization picks an interior λ.
        let x2: Polynomial = "x0^2".parse().unwrap();
        let mut prog = SosProgram::new(1);
        let lam = prog.add_free(0);
        let e1 = SosExpr::from_poly(x2.scale(2.0)).add_term(-&x2, lam);
        let e2 = SosExpr::from_poly(-&x2).add_term(x2.clone(), lam);
        prog.require_sos(e1);
        prog.require_sos(e2);
        let sol = prog.solve_default().unwrap();
        let l = sol.poly(lam).constant_term();
        assert!((0.9..=2.1).contains(&l), "lambda = {l}");
    }

    #[test]
    fn residual_of_solution_is_small() {
        let p: Polynomial = "x0^2 + x1^2 + 2".parse().unwrap();
        let mut prog = SosProgram::new(2);
        let cert = prog.require_sos(SosExpr::from_poly(p.clone()));
        let sol = prog.solve_default().unwrap();
        let expr = SosExpr::from_poly(p).add_scaled_unknown(-1.0, cert);
        assert!(sol.residual(&expr) < 1e-5);
    }

    #[test]
    fn empty_program_invalid() {
        let prog = SosProgram::new(1);
        assert!(matches!(prog.solve_default(), Err(SosError::Invalid(_))));
    }
}
