use snbc_linalg::{vec_ops, Cholesky, Matrix};

use std::ops::Range;

use crate::problem::{entries_dot, sparse_times_dense_into, Entry};
use crate::{Block, BlockMatrix, BlockShape, SdpError, SdpProblem};

/// Termination status of an SDP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdpStatus {
    /// Converged to the requested tolerance.
    Optimal,
    /// Stopped at a usable but less accurate point.
    NearOptimal,
}

/// Solution of an SDP.
#[derive(Debug, Clone)]
pub struct SdpSolution {
    /// Primal block variable `X`.
    pub x: BlockMatrix,
    /// Dual multipliers `y`.
    pub y: Vec<f64>,
    /// Dual slack `Z = C − Aᵀy`.
    pub z: BlockMatrix,
    /// `⟨C, X⟩`.
    pub primal_objective: f64,
    /// `bᵀy`.
    pub dual_objective: f64,
    /// Final duality measure `⟨X, Z⟩ / N`.
    pub mu: f64,
    /// Final relative primal residual.
    pub primal_residual: f64,
    /// Final relative dual residual.
    pub dual_residual: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Termination status.
    pub status: SdpStatus,
}

/// Infeasible primal–dual interior-point SDP solver (HKM direction with
/// Mehrotra predictor–corrector), the workhorse behind the paper's LMI
/// feasibility tests (13)–(15).
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct SdpSolver {
    /// Maximum interior-point iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on relative residuals and duality measure.
    pub tolerance: f64,
    /// Fraction-to-the-boundary step damping.
    pub step_fraction: f64,
    /// Diagonal regularization for the Schur complement.
    pub regularization: f64,
    /// Optional wall-clock budget for one solve; on expiry the best visited
    /// iterate is returned if usable, else
    /// [`SdpError::IterationLimit`]. Lets callers with an overall deadline
    /// (the paper's 7200 s `OT`) bound even a single large solve.
    pub time_limit: Option<std::time::Duration>,
    /// Telemetry sink; each solve records an `"sdp"` span with IPM iteration
    /// and Cholesky factorization counts plus the final duality measure μ and
    /// residuals. The default no-op sink costs one pointer check per solve —
    /// the iteration loop itself is never instrumented.
    pub telemetry: snbc_telemetry::Telemetry,
}

impl Default for SdpSolver {
    fn default() -> Self {
        SdpSolver {
            max_iterations: 100,
            tolerance: 1e-7,
            step_fraction: 0.98,
            regularization: 1e-14,
            time_limit: None,
            telemetry: snbc_telemetry::Telemetry::off(),
        }
    }
}

/// Solves with one round of iterative refinement (the Schur complement is
/// often ill-conditioned near convergence; refinement recovers a few digits
/// of primal feasibility at negligible cost).
fn solve_refined(chol: &Cholesky, rhs: &[f64]) -> Vec<f64> {
    let mut x = chol.solve(rhs);
    for _ in 0..2 {
        // r = rhs − M·x computed through the factorization's L·Lᵀ.
        let r = chol.residual(rhs, &x);
        let dx = chol.solve(&r);
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
    }
    x
}

/// Per-iteration factorization data for one block.
enum Scaling {
    Dense {
        zinv: Matrix,
        x: Matrix,
        x_chol: Cholesky,
        z_chol: Cholesky,
    },
    Diag {
        x: Vec<f64>,
        z: Vec<f64>,
    },
}

/// Estimated multiply–adds below which an interior-point phase (the block
/// factorizations, the Schur rows) runs as one inline chunk. On the
/// persistent pool, a 2-core host split the Schur rows profitably from
/// about 10⁴ multiply–adds: 109 µs inline against 65–97 µs on two workers
/// at 2.2·10⁴, 1.36 ms against 0.71 ms at 1.8·10⁵ (`parallel_phase_probe`,
/// docs/PERFORMANCE.md, "Parallel thresholds"). The chunk grid only decides
/// which worker fills which disjoint output, so any value gives the same
/// bits.
const MIN_PARALLEL_WORK: usize = 1 << 14;

/// Summed cubed dense-block orders below which the primal and dual step
/// lengths run one after the other on the calling thread (see
/// [`SdpSolver::step_pair`]): each is a Jacobi eigenvalue sweep per dense
/// block, about `sweeps·n³` multiply–adds.
const MIN_PARALLEL_STEP_WORK: usize = 1 << 8;

/// Items per chunk for a parallel phase over `items` items whose estimated
/// cost is `work` multiply–adds: one item per chunk, or all of them in one
/// chunk when the phase is too small to pay for a spawn.
fn grain(items: usize, work: usize) -> usize {
    if work < MIN_PARALLEL_WORK {
        items.max(1)
    } else {
        1
    }
}

/// One constraint's entries in one dense block, as the Schur assembly reads
/// them.
struct DenseRun {
    /// The constraint `l`.
    constraint: usize,
    /// Its entries in this block, in stored order (`SchurIndex::entries`).
    entries: Range<usize>,
    /// The block rows those entries touch, ascending and deduplicated
    /// (`SchurIndex::rows`): the only rows of `A_l·X` that can be nonzero.
    rows: Range<usize>,
}

/// The Schur assembly's view of one block.
enum BlockRuns {
    /// The constraints touching a dense block, ascending.
    Dense(Vec<DenseRun>),
    /// A diagonal block's coalesced coefficients, grouped both ways:
    /// `per_index[i]` = the constraints touching index `i`, each with the
    /// *sum* of its entry values there, ascending in constraint;
    /// `per_constraint[k]` = the transpose view, ascending in `i`.
    Diag {
        per_index: Vec<Vec<(usize, f64)>>,
        per_constraint: Vec<Vec<(usize, f64)>>,
    },
}

/// The structure of the constraint matrices that every Schur assembly reads,
/// built once per solve (the sparsity pattern does not change between
/// iterations; only `X`, `Z⁻¹` and the diagonal ratios `x/z` do).
struct SchurIndex {
    blocks: Vec<BlockRuns>,
    /// Every constraint's entries regrouped by block, in stored order within
    /// a block. The problem's own entry lists are left in their order, which
    /// `entries_dot` and `adjoint_accumulate` sum across blocks.
    entries: Vec<Entry>,
    rows: Vec<usize>,
}

impl SchurIndex {
    fn new(problem: &SdpProblem) -> Self {
        let m = problem.num_constraints();
        let mut entries = Vec::new();
        let mut rows = Vec::new();
        let mut blocks = Vec::with_capacity(problem.shapes().len());
        for (j, shape) in problem.shapes().iter().enumerate() {
            let in_block =
                |l: usize| problem.constraint_entries(l).iter().filter(move |e| e.block == j);
            blocks.push(match *shape {
                BlockShape::Dense(_) => {
                    let mut runs = Vec::new();
                    for l in 0..m {
                        let e0 = entries.len();
                        entries.extend(in_block(l).copied());
                        if entries.len() == e0 {
                            continue;
                        }
                        let r0 = rows.len();
                        let mut touched: Vec<usize> =
                            entries[e0..].iter().flat_map(|e| [e.row, e.col]).collect();
                        touched.sort_unstable();
                        touched.dedup();
                        rows.extend(touched);
                        runs.push(DenseRun {
                            constraint: l,
                            entries: e0..entries.len(),
                            rows: r0..rows.len(),
                        });
                    }
                    BlockRuns::Dense(runs)
                }
                BlockShape::Diag(n) => {
                    let mut per_index: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
                    for l in 0..m {
                        for e in in_block(l) {
                            match per_index[e.row].iter_mut().find(|(cl, _)| *cl == l) {
                                Some((_, cv)) => *cv += e.value,
                                None => per_index[e.row].push((l, e.value)),
                            }
                        }
                    }
                    let mut per_constraint: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
                    for (i, group) in per_index.iter().enumerate() {
                        for &(l, v) in group {
                            per_constraint[l].push((i, v));
                        }
                    }
                    BlockRuns::Diag { per_index, per_constraint }
                }
            });
        }
        SchurIndex { blocks, entries, rows }
    }
}

/// Fills row `k` of the Schur complement (columns `k..m`). For dense blocks,
/// a row needs only `U_k = Z⁻¹·(A_k·X)` — a single n×n product alive at once
/// (the full per-block cache would be O(m·n²) memory — hundreds of MB for
/// the large joint programs) — held in per-worker `scratch` so the
/// interior-point iterations do not allocate per row.
///
/// Only the rows of `A_k·X` that `A_k` touches can be nonzero, so `U_k` sums
/// over those rows alone, ascending, with the GEMM kernel's exact-zero skip.
/// The products left out are exact zeros, and a sum that starts at +0.0
/// never becomes −0.0, so adding them would change no bit of `U_k`; for the
/// same reason a constraint without entries in a block adds nothing to its
/// cell. Blocks are visited ascending and each block's entries in stored
/// order, the accumulation order of the dense product this replaces.
// audit:hot
fn assemble_schur_row(
    index: &SchurIndex,
    scalings: &[Scaling],
    ratios: &[Vec<f64>],
    scratch: &mut [Option<(Matrix, Matrix)>],
    k: usize,
    row: &mut [f64],
) {
    for (j, (runs, scaling)) in index.blocks.iter().zip(scalings).enumerate() {
        match (runs, scaling) {
            (BlockRuns::Dense(runs), Scaling::Dense { zinv, x, .. }) => {
                let at = runs.partition_point(|r| r.constraint < k);
                let Some(own) = runs.get(at).filter(|r| r.constraint == k) else {
                    continue;
                };
                let touched = &index.rows[own.rows.clone()];
                let n = zinv.nrows();
                // Lazy per-worker scratch: two n×n buffers per dense block,
                // allocated on the block's first row and reused for every
                // later row this worker owns.
                // audit:allow(hot-alloc)
                let (ax, uk) = scratch[j]
                    .get_or_insert_with(|| (Matrix::zeros(n, n), Matrix::zeros(n, n)));
                sparse_times_dense_into(&index.entries[own.entries.clone()], touched, x, ax);
                for i in 0..n {
                    let zrow = zinv.row(i);
                    let urow = uk.row_mut(i);
                    urow.fill(0.0);
                    for &r in touched {
                        let a = zrow[r];
                        // The GEMM kernel's sparse skip; exactness is intended.
                        if a == 0.0 {
                            continue;
                        }
                        for (u, axv) in urow.iter_mut().zip(ax.row(r)) {
                            *u += a * axv;
                        }
                    }
                }
                for run in &runs[at..] {
                    let mut acc = 0.0;
                    for e in &index.entries[run.entries.clone()] {
                        // tr(A_l · U_k) with A_l symmetric-sparse.
                        if e.row == e.col {
                            acc += e.value * uk[(e.row, e.col)];
                        } else {
                            acc += e.value * (uk[(e.row, e.col)] + uk[(e.col, e.row)]);
                        }
                    }
                    row[run.constraint] += acc;
                }
            }
            (BlockRuns::Diag { per_index, per_constraint }, Scaling::Diag { .. }) => {
                // M_kl += Σᵢ a_k[i]·a_l[i]·xᵢ/zᵢ, i ascending.
                let d = &ratios[j];
                for &(i, aki) in &per_constraint[k] {
                    let di = d[i];
                    let group = &per_index[i];
                    for &(l, ali) in &group[group.partition_point(|&(l, _)| l < k)..] {
                        row[l] += aki * ali * di;
                    }
                }
            }
            // The index is built from the problem's block shapes and
            // `factor_blocks` keeps the same kinds, so kinds never differ.
            _ => {}
        }
    }
}

/// Assembles the upper triangle (columns `k..m` of every row `k`) of the
/// Schur complement `M_{kl} = Σⱼ tr(A_{kj} Zⱼ⁻¹ A_{lj} Xⱼ)`.
fn assemble_schur(index: &SchurIndex, scalings: &[Scaling], m: usize) -> Matrix {
    let mut big_m = Matrix::zeros(m, m);
    // Per-iteration half of the diagonal-block data: `d = x/z`.
    let ratios: Vec<Vec<f64>> = scalings
        .iter()
        .map(|s| match s {
            Scaling::Diag { x, z } => x.iter().zip(z).map(|(xi, zi)| xi / zi).collect(),
            Scaling::Dense { .. } => Vec::new(),
        })
        .collect();
    // Row-parallel assembly: each worker owns a disjoint run of rows of
    // the row-major `M`; `assemble_schur_row` fills one row from the
    // per-worker scratch. Per-cell accumulation runs blocks-ascending
    // then indices-ascending, exactly the serial order: the assembled
    // matrix is bitwise identical at any thread count and any grain.
    let work = m * scalings
        .iter()
        .map(|s| match s {
            Scaling::Dense { zinv, .. } => zinv.nrows() * zinv.nrows(),
            Scaling::Diag { .. } => 0,
        })
        .sum::<usize>()
        + m * m / 2;
    let rows_per_chunk = grain(m, work);
    snbc_par::par_for_chunks_scratch(
        big_m.as_mut_slice(),
        m * rows_per_chunk,
        || vec![None::<(Matrix, Matrix)>; scalings.len()],
        |scratch, c, rows| {
            let first = c * rows_per_chunk;
            for (r, row) in rows.chunks_mut(m).enumerate() {
                assemble_schur_row(index, scalings, &ratios, scratch, first + r, row);
            }
        },
    );
    big_m
}

impl SdpSolver {
    /// Solves the SDP.
    ///
    /// # Errors
    ///
    /// * [`SdpError::Invalid`] — malformed problem;
    /// * [`SdpError::IterationLimit`] — no convergence within the budget;
    /// * [`SdpError::Infeasible`] / [`SdpError::Unbounded`] — detected
    ///   divergence of the iterates;
    /// * [`SdpError::Numerical`] — unrecoverable factorization failure.
    pub fn solve(&self, problem: &SdpProblem) -> Result<SdpSolution, SdpError> {
        // Telemetry wrapper: metrics are aggregated in plain locals inside
        // the solve and emitted once here, so the recording sink allocates
        // nothing in the iteration loop (and the no-op sink costs a null
        // check).
        let _span = self.telemetry.span("sdp");
        let mut cholesky_count: usize = 0;
        let result = self.solve_inner(problem, &mut cholesky_count);
        if self.telemetry.is_recording() {
            self.telemetry.label("workers", &snbc_par::threads().to_string());
            self.telemetry.add("cholesky", cholesky_count as u64);
            match &result {
                Ok(sol) => {
                    self.telemetry.add("iterations", sol.iterations as u64);
                    self.telemetry.gauge("duality_mu", sol.mu);
                    self.telemetry.gauge("primal_residual", sol.primal_residual);
                    self.telemetry.gauge("dual_residual", sol.dual_residual);
                    self.telemetry
                        .flag("optimal", matches!(sol.status, SdpStatus::Optimal));
                }
                Err(SdpError::IterationLimit {
                    iterations,
                    mu,
                    rp_rel,
                    rd_rel,
                    gap_rel,
                }) => {
                    self.telemetry.add("iterations", *iterations as u64);
                    self.telemetry.gauge("duality_mu", *mu);
                    // Final iterate's residual history: without these gauges a
                    // budget-limited solve is indistinguishable from a
                    // diverged one in the run report.
                    self.telemetry.gauge("primal_residual", *rp_rel);
                    self.telemetry.gauge("dual_residual", *rd_rel);
                    self.telemetry.gauge("gap_rel", *gap_rel);
                    self.telemetry.flag("optimal", false);
                }
                Err(_) => self.telemetry.flag("optimal", false),
            }
        }
        result
    }

    fn solve_inner(
        &self,
        problem: &SdpProblem,
        cholesky_count: &mut usize,
    ) -> Result<SdpSolution, SdpError> {
        problem.validate()?;
        let index = SchurIndex::new(problem);
        let shapes = problem.shapes().to_vec();
        let m = problem.num_constraints();
        let b = problem.rhs().to_vec();
        let big_n = shapes.iter().map(|s| s.order()).sum::<usize>() as f64;

        // Initial iterates: scaled identities.
        let c_mat = problem.cost_matrix();
        let cnorm = c_mat.norm_fro();
        let mut anorm_max: f64 = 1.0;
        let mut init_scale: f64 = 10.0;
        for k in 0..m {
            let ak = problem.constraint_matrix(k);
            let an = ak.norm_fro();
            anorm_max = anorm_max.max(an);
            init_scale = init_scale.max(big_n.sqrt() * (1.0 + b[k].abs()) / (1.0 + an));
        }
        let mut x = BlockMatrix::identity(&shapes);
        x.scale_mut(init_scale);
        let mut z = BlockMatrix::identity(&shapes);
        z.scale_mut((1.0 + cnorm.max(anorm_max)).max(10.0));
        let mut y = vec![0.0; m];

        let bnorm = 1.0 + vec_ops::norm2(&b);
        let cnorm1 = 1.0 + cnorm;

        let mut best: Option<(f64, BlockMatrix, Vec<f64>, BlockMatrix, usize)> = None;
        let t0 = snbc_trace::Stopwatch::start();
        let trace = self.telemetry.trace();
        // Last iterate's convergence state, for IterationLimit diagnostics.
        let mut last_res = (f64::NAN, f64::NAN, f64::NAN);

        for iter in 0..self.max_iterations {
            let chol_at_entry = *cholesky_count;
            if let Some(limit) = self.time_limit {
                if t0.elapsed() > limit {
                    break; // fall through to the best-iterate return below
                }
            }
            // Residuals.
            let ax = problem.apply(&x);
            let rp: Vec<f64> = b.iter().zip(&ax).map(|(bi, a)| bi - a).collect();
            // Rd = C − Aᵀy − Z.
            let mut rd = c_mat.clone();
            problem.adjoint_accumulate(&y, -1.0, &mut rd);
            rd.axpy(-1.0, &z)?;

            let xz = x.dot(&z)?;
            let mu = xz / big_n;
            // Interior-point invariants: X and Z stay in the PSD cone interior
            // so ⟨X,Z⟩ ≥ 0, and every iterate stays finite (a NaN/∞ entry
            // makes the Frobenius norm non-finite).
            snbc_linalg::sanitize::check_invariant("sdp duality measure", xz >= 0.0, xz);
            snbc_linalg::sanitize::check_finite(
                "sdp iterates (‖X‖, ‖Z‖, ‖y‖)",
                &[x.norm_fro(), z.norm_fro(), vec_ops::norm2(&y)],
            );
            let pobj = problem.cost_dot(&x);
            let dobj = vec_ops::dot(&b, &y);
            let rp_rel = vec_ops::norm2(&rp) / bnorm;
            let rd_rel = rd.norm_fro() / cnorm1;
            let gap_rel = xz.abs() / (1.0 + pobj.abs() + dobj.abs());
            last_res = (rp_rel, rd_rel, gap_rel);


            let merit = rp_rel.max(rd_rel).max(gap_rel);
            if best.as_ref().is_none_or(|(bm, ..)| merit < *bm) {
                best = Some((merit, x.clone(), y.clone(), z.clone(), iter));
            }
            // Endgame divergence: as μ → 0 the scaled systems lose accuracy
            // and primal feasibility can deteriorate irrecoverably; once the
            // merit is far above the best visited, further iterations only
            // burn time.
            if let Some((bm, ..)) = &best {
                if mu < 1e-9 && merit > 50.0 * bm.max(1e-12) {
                    break;
                }
            }

            if rp_rel < self.tolerance && rd_rel < self.tolerance && gap_rel < self.tolerance {
                // Terminal iterate: no step is taken, so the step lengths are
                // zero and no factorizations were spent this round.
                trace.ipm_iter(
                    "sdp",
                    snbc_trace::IpmSample {
                        iter: iter as u64,
                        mu,
                        rp_rel,
                        rd_rel,
                        gap_rel,
                        ..Default::default()
                    },
                );
                return Ok(SdpSolution {
                    primal_objective: pobj,
                    dual_objective: dobj,
                    mu,
                    primal_residual: rp_rel,
                    dual_residual: rd_rel,
                    x,
                    y,
                    z,
                    iterations: iter,
                    status: SdpStatus::Optimal,
                });
            }

            // Divergence heuristics.
            let xnorm = x.norm_fro();
            let yznorm = vec_ops::norm_inf(&y).max(z.norm_fro());
            if xnorm > 1e13 || yznorm > 1e13 {
                return Err(if yznorm > xnorm {
                    SdpError::Infeasible
                } else {
                    SdpError::Unbounded
                });
            }
            if mu < 1e-6 * self.tolerance && rp_rel.max(rd_rel) > self.tolerance {
                break; // numerical floor, return best below
            }

            // Factor blocks.
            let scalings = self.factor_blocks(&x, &z, cholesky_count)?;

            // Schur complement M and the shared pieces of the rhs.
            let schur = self.build_schur(&index, &scalings, m, cholesky_count)?;

            // Predictor: ν = 0, no corrector.
            let (dx_aff, _dy_aff, dz_aff) =
                self.direction(problem, &scalings, &schur, &rp, &rd, &x, 0.0, None)?;
            let (alpha_p_aff, alpha_d_aff) = self.step_pair(&x, &dx_aff, &z, &dz_aff, &scalings)?;
            // μ after the affine step.
            let mut x_aff = x.clone();
            x_aff.axpy(alpha_p_aff.min(1.0), &dx_aff)?;
            let mut z_aff = z.clone();
            z_aff.axpy(alpha_d_aff.min(1.0), &dz_aff)?;
            let mu_aff = x_aff.dot(&z_aff)? / big_n;
            let sigma = if mu > 0.0 {
                (mu_aff / mu).powi(3).clamp(1e-6, 1.0)
            } else {
                0.1
            };

            // Corrector.
            let (dx, dy, dz) = self.direction(
                problem,
                &scalings,
                &schur,
                &rp,
                &rd,
                &x,
                sigma * mu,
                Some((&dz_aff, &dx_aff)),
            )?;

            let (step_p, step_d) = self.step_pair(&x, &dx, &z, &dz, &scalings)?;
            let alpha_p = (self.step_fraction * step_p).min(1.0);
            let alpha_d = (self.step_fraction * step_d).min(1.0);

            x.axpy(alpha_p, &dx)?;
            vec_ops::axpy(alpha_d, &dy, &mut y);
            z.axpy(alpha_d, &dz)?;

            trace.ipm_iter(
                "sdp",
                snbc_trace::IpmSample {
                    iter: iter as u64,
                    mu,
                    rp_rel,
                    rd_rel,
                    gap_rel,
                    alpha_p,
                    alpha_d,
                    cholesky: (*cholesky_count - chol_at_entry) as u64,
                },
            );
        }

        if let Some((merit, bx, by, bz, iter)) = best {
            if merit < 2e-3 {
                let pobj = problem.cost_dot(&bx);
                let dobj = vec_ops::dot(&b, &by);
                let mu = bx.dot(&bz)? / big_n;
                return Ok(SdpSolution {
                    primal_objective: pobj,
                    dual_objective: dobj,
                    mu,
                    primal_residual: merit,
                    dual_residual: merit,
                    x: bx,
                    y: by,
                    z: bz,
                    iterations: iter,
                    status: if merit < self.tolerance {
                        SdpStatus::Optimal
                    } else {
                        SdpStatus::NearOptimal
                    },
                });
            }
        }
        let mu = x.dot(&z)? / big_n;
        Err(SdpError::IterationLimit {
            iterations: self.max_iterations,
            mu,
            rp_rel: last_res.0,
            rd_rel: last_res.1,
            gap_rel: last_res.2,
        })
    }

    fn factor_blocks(
        &self,
        x: &BlockMatrix,
        z: &BlockMatrix,
        cholesky_count: &mut usize,
    ) -> Result<Vec<Scaling>, SdpError> {
        // One independent Cholesky pair per dense block; chunks of blocks
        // are dealt across the pool and folded back in block order, so
        // parallel == serial bitwise. A small iteration is one chunk.
        let xbs = x.blocks();
        let zbs = z.blocks();
        let work = xbs
            .iter()
            .map(|b| match b {
                Block::Dense(xm) => xm.nrows().pow(3),
                Block::Diag(xd) => xd.len(),
            })
            .sum();
        let factor = |j: usize| {
            let mut count = 0usize;
            let scaling = match (&xbs[j], &zbs[j]) {
                (Block::Dense(xm), Block::Dense(zm)) => {
                    count += 1;
                    let z_chol = zm.cholesky().or_else(|_| {
                        // Tiny perturbation rescue.
                        let mut p = zm.clone();
                        for i in 0..p.nrows() {
                            p[(i, i)] += 1e-12 * (1.0 + p[(i, i)].abs());
                        }
                        count += 1;
                        p.cholesky()
                    })?;
                    count += 1;
                    let x_chol = xm.cholesky().or_else(|_| {
                        let mut p = xm.clone();
                        for i in 0..p.nrows() {
                            p[(i, i)] += 1e-12 * (1.0 + p[(i, i)].abs());
                        }
                        count += 1;
                        p.cholesky()
                    })?;
                    Scaling::Dense {
                        zinv: z_chol.inverse(),
                        x: xm.clone(),
                        x_chol,
                        z_chol,
                    }
                }
                (Block::Diag(xd), Block::Diag(zd)) => Scaling::Diag {
                    x: xd.clone(),
                    z: zd.clone(),
                },
                _ => return Err(SdpError::BlockMismatch { op: "factor_blocks" }),
            };
            Ok::<(Scaling, usize), SdpError>((scaling, count))
        };
        let factored = snbc_par::par_map_reduce(
            xbs.len(),
            grain(xbs.len(), work),
            |blocks| blocks.map(factor).collect::<Vec<_>>(),
            |mut acc, chunk| {
                acc.extend(chunk);
                acc
            },
        )
        .unwrap_or_default();
        let mut out = Vec::with_capacity(factored.len());
        for r in factored {
            let (scaling, count) = r?;
            // Serial index-ascending fold over the already-ordered
            // par_map_reduce output; integer count.
            *cholesky_count += count;
            out.push(scaling);
        }
        Ok(out)
    }

    /// Builds and factors the Schur complement
    /// `M_{kl} = Σⱼ tr(A_{kj} Zⱼ⁻¹ A_{lj} Xⱼ)` (symmetrized).
    fn build_schur(
        &self,
        index: &SchurIndex,
        scalings: &[Scaling],
        m: usize,
        cholesky_count: &mut usize,
    ) -> Result<Cholesky, SdpError> {
        let mut big_m = assemble_schur(index, scalings, m);
        // Symmetrize (HKM's Schur matrix is only approximately symmetric) and
        // regularize.
        for k in 0..m {
            for l in (k + 1)..m {
                big_m[(l, k)] = big_m[(k, l)];
            }
            big_m[(k, k)] += self.regularization * (1.0 + big_m[(k, k)]);
        }
        // Factor in place, each panel's row-independent phases on the pool;
        // a failed factorization hands the matrix back as it was.
        let rows = |data: &mut [f64], len: usize, body: &(dyn Fn(usize, &mut [f64]) + Sync)| {
            snbc_par::par_for_chunks(data, len, body);
        };
        *cholesky_count += 1;
        let (_, mut big_m) = match Cholesky::factor_in_place(big_m, &rows) {
            Ok(chol) => return Ok(chol),
            Err(failed) => failed,
        };
        for k in 0..m {
            big_m[(k, k)] += 1e-7 * (1.0 + big_m[(k, k)]);
        }
        *cholesky_count += 1;
        Cholesky::factor_in_place(big_m, &rows).map_err(|(e, _)| SdpError::from(e))
    }

    /// Computes the HKM direction for centering parameter `nu` (= σμ), with an
    /// optional Mehrotra second-order correction `(dZ_aff, dX_aff)`.
    #[allow(clippy::too_many_arguments)]
    fn direction(
        &self,
        problem: &SdpProblem,
        scalings: &[Scaling],
        schur: &Cholesky,
        rp: &[f64],
        rd: &BlockMatrix,
        x: &BlockMatrix,
        nu: f64,
        correction: Option<(&BlockMatrix, &BlockMatrix)>,
    ) -> Result<(BlockMatrix, Vec<f64>, BlockMatrix), SdpError> {
        let shapes: Vec<_> = problem.shapes().to_vec();
        let m = problem.num_constraints();

        // Rc_j = ν·Zⱼ⁻¹ − Xⱼ − Zⱼ⁻¹·(dZ_aff·dX_aff)ⱼ.
        let mut rc = BlockMatrix::zeros(&shapes);
        for (j, scaling) in scalings.iter().enumerate() {
            match scaling {
                Scaling::Dense { zinv, .. } => {
                    let n = zinv.nrows();
                    let mut blk = zinv.scale(nu);
                    let xj = x.block(j).as_dense()?;
                    for i in 0..n {
                        for c in 0..n {
                            blk[(i, c)] -= xj[(i, c)];
                        }
                    }
                    if let Some((dz_aff, dx_aff)) = correction {
                        let prod = dz_aff
                            .block(j)
                            .as_dense()?
                            .matmul(dx_aff.block(j).as_dense()?);
                        let corr = zinv.matmul(&prod);
                        for i in 0..n {
                            for c in 0..n {
                                blk[(i, c)] -= corr[(i, c)];
                            }
                        }
                    }
                    // The correction product is not symmetric; symmetrize so
                    // the sparse inner products (which assume symmetry) and
                    // the final dX agree.
                    blk.symmetrize();
                    *rc.block_mut(j) = Block::Dense(blk);
                }
                Scaling::Diag { x: xd, z: zd } => {
                    let mut blk: Vec<f64> = xd
                        .iter()
                        .zip(zd)
                        .map(|(xi, zi)| nu / zi - xi)
                        .collect();
                    if let Some((dz_aff, dx_aff)) = correction {
                        let dzd = dz_aff.block(j).as_diag()?;
                        let dxd = dx_aff.block(j).as_diag()?;
                        for (i, b) in blk.iter_mut().enumerate() {
                            *b -= dzd[i] * dxd[i] / zd[i];
                        }
                    }
                    *rc.block_mut(j) = Block::Diag(blk);
                }
            }
        }

        // rhs_k = rp_k − ⟨A_k, Rc⟩ + ⟨A_k, Z⁻¹·Rd·X⟩.
        let mut zrdx = BlockMatrix::zeros(&shapes);
        for (j, scaling) in scalings.iter().enumerate() {
            match scaling {
                Scaling::Dense { zinv, x: xj, .. } => {
                    let mut prod = zinv.matmul(rd.block(j).as_dense()?).matmul(xj);
                    // Z⁻¹·Rd·X is not symmetric; ⟨A, M⟩ = ⟨A, sym(M)⟩ for the
                    // symmetric constraint matrices, so symmetrize before the
                    // sparse dot products.
                    prod.symmetrize();
                    *zrdx.block_mut(j) = Block::Dense(prod);
                }
                Scaling::Diag { x: xd, z: zd } => {
                    let rdd = rd.block(j).as_diag()?;
                    let blk: Vec<f64> = (0..xd.len()).map(|i| rdd[i] * xd[i] / zd[i]).collect();
                    *zrdx.block_mut(j) = Block::Diag(blk);
                }
            }
        }
        let mut rhs = vec![0.0; m];
        for (k, r) in rhs.iter_mut().enumerate() {
            let entries = problem.constraint_entries(k);
            *r = rp[k] - entries_dot(entries, &rc) + entries_dot(entries, &zrdx);
        }

        let dy = solve_refined(schur, &rhs);

        // dZ = Rd − Aᵀdy.
        let mut dz = rd.clone();
        problem.adjoint_accumulate(&dy, -1.0, &mut dz);

        // dX = Rc − Z⁻¹·dZ·X, symmetrized.
        let mut dx = rc;
        for (j, scaling) in scalings.iter().enumerate() {
            match scaling {
                Scaling::Dense { zinv, x: xj, .. } => {
                    let prod = zinv.matmul(dz.block(j).as_dense()?).matmul(xj);
                    let blk = dx.block_mut(j);
                    if let Block::Dense(d) = blk {
                        for i in 0..d.nrows() {
                            for c in 0..d.ncols() {
                                d[(i, c)] -= prod[(i, c)];
                            }
                        }
                        d.symmetrize();
                    }
                }
                Scaling::Diag { x: xd, z: zd } => {
                    let dzd: Vec<f64> = dz.block(j).as_diag()?.to_vec();
                    if let Block::Diag(d) = dx.block_mut(j) {
                        for i in 0..d.len() {
                            d[i] -= dzd[i] * xd[i] / zd[i];
                        }
                    }
                }
            }
        }
        Ok((dx, dy, dz))
    }

    /// The primal and dual step lengths `max_step(X, dX)` and
    /// `max_step(Z, dZ)`, side by side on the pool when the dense blocks'
    /// eigenvalue problems are large enough to pay for a region. The two
    /// are independent, so running them apart changes no bit. Each runs in
    /// a `max-step` trace span (index 0 primal, 1 dual).
    fn step_pair(
        &self,
        x: &BlockMatrix,
        dx: &BlockMatrix,
        z: &BlockMatrix,
        dz: &BlockMatrix,
        scalings: &[Scaling],
    ) -> Result<(f64, f64), SdpError> {
        let work: usize = scalings
            .iter()
            .map(|s| match s {
                Scaling::Dense { zinv, .. } => zinv.nrows().pow(3),
                Scaling::Diag { .. } => 0,
            })
            .sum();
        let trace = self.telemetry.trace();
        let step = |primal: bool| {
            // One span per step length, primal first, on whichever thread
            // runs it: the same events serially and in parallel.
            let span = trace.begin_span("max-step", Some(u64::from(!primal)));
            let alpha = if primal {
                self.max_step(x, dx, scalings, true)
            } else {
                self.max_step(z, dz, scalings, false)
            };
            trace.end_span("max-step", span);
            alpha
        };
        if work < MIN_PARALLEL_STEP_WORK {
            return Ok((step(true)?, step(false)?));
        }
        let (p, d) = snbc_par::join(|| step(true), || step(false));
        Ok((p?, d?))
    }

    /// Largest `α` keeping `V + α·dV` in the PSD cone (capped at 1e6).
    fn max_step(
        &self,
        v: &BlockMatrix,
        dv: &BlockMatrix,
        scalings: &[Scaling],
        primal: bool,
    ) -> Result<f64, SdpError> {
        let mut alpha = 1.0e6_f64;
        for (j, (vb, db)) in v.blocks().iter().zip(dv.blocks()).enumerate() {
            match (vb, db) {
                (Block::Dense(_), Block::Dense(dm)) => {
                    // λ_min of L⁻¹·dV·L⁻ᵀ where V = L·Lᵀ.
                    let chol = match &scalings[j] {
                        Scaling::Dense { x_chol, z_chol, .. } => {
                            if primal {
                                x_chol
                            } else {
                                z_chol
                            }
                        }
                        Scaling::Diag { .. } => {
                            return Err(SdpError::BlockMismatch { op: "max_step" })
                        }
                    };
                    let mut ws = chol.inv_congruence(dm);
                    ws.symmetrize();
                    let lmin = ws.min_eigenvalue()?;
                    if lmin < 0.0 {
                        alpha = alpha.min(-1.0 / lmin);
                    }
                }
                (Block::Diag(vd), Block::Diag(dd)) => {
                    for (vi, di) in vd.iter().zip(dd) {
                        if *di < 0.0 {
                            alpha = alpha.min(-vi / di);
                        }
                    }
                }
                _ => return Err(SdpError::BlockMismatch { op: "max_step" }),
            }
        }
        Ok(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockShape;

    fn default_solver() -> SdpSolver {
        SdpSolver::default()
    }

    /// The Schur assembly as it was before the per-solve index, verbatim:
    /// a full `U_k = Z⁻¹·(A_k·X)` GEMM per row and dense block, the
    /// per-iteration diagonal precompute, and a scan of every constraint's
    /// entries per block. The bitwise reference for `assemble_schur`.
    fn reference_schur(problem: &SdpProblem, scalings: &[Scaling], m: usize) -> Matrix {
        struct DiagPre {
            d: Vec<f64>,
            per_index: Vec<Vec<(usize, f64)>>,
            per_constraint: Vec<Vec<(usize, f64)>>,
        }
        fn dense_times(entries: &[Entry], block: usize, x: &Matrix, out: &mut Matrix) {
            out.as_mut_slice().fill(0.0);
            for e in entries.iter().filter(|e| e.block == block) {
                let v = e.value;
                {
                    let xr = x.row(e.col);
                    let or = out.row_mut(e.row);
                    for (o, xv) in or.iter_mut().zip(xr) {
                        *o += v * xv;
                    }
                }
                if e.row != e.col {
                    let xr = x.row(e.row);
                    let or = out.row_mut(e.col);
                    for (o, xv) in or.iter_mut().zip(xr) {
                        *o += v * xv;
                    }
                }
            }
        }
        let mut big_m = Matrix::zeros(m, m);
        let mut diag: Vec<Option<DiagPre>> = Vec::with_capacity(scalings.len());
        for (j, scaling) in scalings.iter().enumerate() {
            let Scaling::Diag { x, z } = scaling else {
                diag.push(None);
                continue;
            };
            let d: Vec<f64> = x.iter().zip(z).map(|(xi, zi)| xi / zi).collect();
            let mut per_index: Vec<Vec<(usize, f64)>> = vec![Vec::new(); d.len()];
            for k in 0..m {
                for e in problem.constraint_entries(k).iter().filter(|e| e.block == j) {
                    match per_index[e.row].iter_mut().find(|(ck, _)| *ck == k) {
                        Some((_, cv)) => *cv += e.value,
                        None => per_index[e.row].push((k, e.value)),
                    }
                }
            }
            let mut per_constraint: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
            for (i, group) in per_index.iter().enumerate() {
                for &(k, v) in group {
                    per_constraint[k].push((i, v));
                }
            }
            diag.push(Some(DiagPre { d, per_index, per_constraint }));
        }
        for k in 0..m {
            let row = big_m.row_mut(k);
            let entries_k = problem.constraint_entries(k);
            for (j, scaling) in scalings.iter().enumerate() {
                match scaling {
                    Scaling::Dense { zinv, x, .. } => {
                        if entries_k.iter().all(|e| e.block != j) {
                            continue;
                        }
                        let n = zinv.nrows();
                        let mut ax = Matrix::zeros(n, n);
                        dense_times(entries_k, j, x, &mut ax);
                        let uk = zinv.matmul(&ax);
                        for l in k..m {
                            let entries_l = problem.constraint_entries(l);
                            let mut acc = 0.0;
                            for e in entries_l.iter().filter(|e| e.block == j) {
                                if e.row == e.col {
                                    acc += e.value * uk[(e.row, e.col)];
                                } else {
                                    acc += e.value * (uk[(e.row, e.col)] + uk[(e.col, e.row)]);
                                }
                            }
                            row[l] += acc;
                        }
                    }
                    Scaling::Diag { .. } => {
                        let pre = diag[j].as_ref().expect("diag precompute");
                        for &(i, aki) in &pre.per_constraint[k] {
                            let di = pre.d[i];
                            for &(l, ali) in &pre.per_index[i] {
                                if l >= k {
                                    row[l] += aki * ali * di;
                                }
                            }
                        }
                    }
                }
            }
        }
        big_m
    }

    /// Deterministic values in [−1, 1) (LCG), so shapes need no RNG crate.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// An SOS-shaped program over the monomials `1, x, …, x^(g−1)`: one
    /// constraint per coefficient of `x^d`, matching a Gram block (order
    /// `g`, a Hankel pattern), a multiplier Gram block (order 3, shifted by
    /// `x²`) whose entries spread over several constraints, and a diagonal
    /// block holding a split free scalar, a margin on every even-degree
    /// constraint and a coefficient entered twice (coalesced). Odd
    /// constraints store their entries in a different block order, and one
    /// Gram position is entered twice.
    fn sos_shaped_problem(g: usize) -> SdpProblem {
        let mut p = SdpProblem::new(vec![
            BlockShape::Dense(g),
            BlockShape::Diag(4),
            BlockShape::Dense(3),
        ]);
        for d in 0..(2 * g - 1) {
            let k = p.add_constraint(d as f64);
            let gram = |p: &mut SdpProblem| {
                for r in 0..g {
                    if d >= r && d - r >= r && d - r < g {
                        let c = d - r;
                        p.set_coefficient(k, 0, r, c, if r == c { 1.0 } else { 0.5 });
                    }
                }
            };
            let mult = |p: &mut SdpProblem| {
                for r in 0..3 {
                    for c in r..3 {
                        if r + c + 2 == d {
                            p.set_coefficient(k, 2, r, c, -0.7 - 0.1 * (r as f64));
                        }
                    }
                }
            };
            let scalars = |p: &mut SdpProblem| {
                if d <= 2 {
                    p.set_coefficient(k, 1, 0, 0, 1.5);
                    p.set_coefficient(k, 1, 1, 1, -1.5);
                }
                if d % 2 == 0 {
                    p.set_coefficient(k, 1, 2, 2, -1.0);
                }
                if d % 3 == 1 {
                    p.set_coefficient(k, 1, 3, 3, 0.25);
                    p.set_coefficient(k, 1, 3, 3, 0.5);
                }
            };
            if d % 2 == 0 {
                gram(&mut p);
                mult(&mut p);
                scalars(&mut p);
            } else {
                scalars(&mut p);
                mult(&mut p);
                gram(&mut p);
            }
            if d == 4 && g > 3 {
                p.set_coefficient(k, 0, 1, 3, 0.125);
            }
        }
        p
    }

    /// A symmetric `n×n` matrix of LCG values with exact zeros wherever
    /// `zero(i, j)` holds (a −0.0 on odd diagonals, +0.0 elsewhere).
    fn patterned(n: usize, seed: u64, zero: impl Fn(usize, usize) -> bool) -> Matrix {
        let mut state = seed;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = if zero(i, j) {
                    if i == j && i % 2 == 1 {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    lcg(&mut state)
                };
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    fn dense_scaling(zinv: Matrix, x: Matrix) -> Scaling {
        let n = x.nrows();
        let id = Matrix::identity(n).cholesky().expect("identity factors");
        Scaling::Dense {
            zinv,
            x,
            x_chol: id.clone(),
            z_chol: id,
        }
    }

    #[test]
    fn schur_assembly_matches_the_dense_reference_bitwise() {
        for (case, &g) in [3usize, 6, 11].iter().enumerate() {
            let p = sos_shaped_problem(g);
            let m = p.num_constraints();
            let seed = 17 + case as u64;
            // Exact zeros in Z⁻¹ (a checkerboard corner) and in A_k·X (X's
            // row and column 1 vanish, so rows that A_k touches can be zero).
            let scalings = vec![
                dense_scaling(
                    patterned(g, seed, |i, j| (i + j) % 4 == 1),
                    patterned(g, seed + 100, |i, j| i == 1 || j == 1),
                ),
                Scaling::Diag {
                    x: (0..4).map(|i| 0.5 + i as f64 * 0.3).collect(),
                    z: (0..4).map(|i| 2.0 - i as f64 * 0.4).collect(),
                },
                dense_scaling(
                    patterned(3, seed + 200, |i, j| i == 0 && j == 2),
                    patterned(3, seed + 300, |_, _| false),
                ),
            ];
            let want = reference_schur(&p, &scalings, m);
            let got = assemble_schur(&SchurIndex::new(&p), &scalings, m);
            for k in 0..m {
                for l in 0..m {
                    assert_eq!(
                        got[(k, l)].to_bits(),
                        want[(k, l)].to_bits(),
                        "g = {g}: M[{k}][{l}] = {} vs {}",
                        got[(k, l)],
                        want[(k, l)]
                    );
                }
            }
        }
    }

    /// Not a correctness test: each parallel phase of an interior-point
    /// iteration at one and at two threads, across the sizes around its
    /// threshold (docs/PERFORMANCE.md, "Parallel thresholds"). Run it with
    /// `cargo test --release -p snbc-sdp --lib -- --ignored --nocapture phase_probe`.
    #[test]
    #[ignore = "perf probe, run manually with --release --ignored --nocapture"]
    fn parallel_phase_probe() {
        /// Best of 15 runs at one and at two threads, alternating, in µs.
        fn best_pair(f: &mut dyn FnMut()) -> (f64, f64) {
            let mut best = [f64::INFINITY; 2];
            for rep in 0..32 {
                let t = rep % 2;
                snbc_par::set_threads(Some(t + 1));
                let watch = snbc_trace::Stopwatch::start();
                f();
                let us = watch.elapsed().as_secs_f64() * 1e6;
                if rep >= 2 {
                    best[t] = best[t].min(us);
                }
            }
            snbc_par::set_threads(None);
            (best[0], best[1])
        }
        println!("phase            size      work   1 thread (us)  2 threads (us)");
        for g in [8usize, 12, 16, 22, 28, 36, 45] {
            let p = sos_shaped_problem(g);
            let m = p.num_constraints();
            let index = SchurIndex::new(&p);
            let scalings = vec![
                dense_scaling(patterned(g, 1, |_, _| false), patterned(g, 2, |_, _| false)),
                Scaling::Diag {
                    x: vec![1.0; 4],
                    z: vec![2.0; 4],
                },
                dense_scaling(patterned(3, 3, |_, _| false), patterned(3, 4, |_, _| false)),
            ];
            let work = m * (g * g + 9) + m * m / 2;
            let mut run = || {
                std::hint::black_box(assemble_schur(&index, &scalings, m));
            };
            let (one, two) = best_pair(&mut run);
            println!("schur rows   g={g:<3} m={m:<4} {work:>8} {one:>15.1} {two:>15.1}");
        }
        for g in [6usize, 10, 15, 21, 28, 36] {
            let shapes = [BlockShape::Dense(g)];
            let spd = |seed: u64| {
                let b = patterned(g, seed, |_, _| false);
                let mut a = b.matmul(&b);
                for i in 0..g {
                    a[(i, i)] += g as f64;
                }
                a
            };
            let mut x = BlockMatrix::identity(&shapes);
            *x.block_mut(0) = Block::Dense(spd(5));
            let mut z = BlockMatrix::identity(&shapes);
            *z.block_mut(0) = Block::Dense(spd(6));
            let mut dx = BlockMatrix::zeros(&shapes);
            *dx.block_mut(0) = Block::Dense(patterned(g, 7, |_, _| false));
            let mut dz = BlockMatrix::zeros(&shapes);
            *dz.block_mut(0) = Block::Dense(patterned(g, 8, |_, _| false));
            let scalings = vec![Scaling::Dense {
                zinv: Matrix::identity(g),
                x: spd(5),
                x_chol: spd(5).cholesky().expect("SPD"),
                z_chol: spd(6).cholesky().expect("SPD"),
            }];
            let solver = default_solver();
            let mut run = || {
                std::hint::black_box(solver.step_pair(&x, &dx, &z, &dz, &scalings).expect("steps"));
            };
            let (one, two) = best_pair(&mut run);
            println!("step pair    n={g:<9} {:>8} {one:>15.1} {two:>15.1}", g * g * g);
        }
        let rows = |data: &mut [f64], len: usize, body: &(dyn Fn(usize, &mut [f64]) + Sync)| {
            snbc_par::par_for_chunks(data, len, body);
        };
        for m in [67usize, 100, 150, 211, 331, 496] {
            let b = patterned(m, 9, |_, _| false);
            let mut a = b.matmul(&b);
            for i in 0..m {
                a[(i, i)] += m as f64;
            }
            let mut run = || {
                std::hint::black_box(Cholesky::factor_in_place(a.clone(), &rows).expect("SPD"));
            };
            let (one, two) = best_pair(&mut run);
            println!("cholesky     m={m:<9} {:>8} {one:>15.1} {two:>15.1}", m * m * m / 3);
        }
    }

    #[test]
    fn min_trace_with_unit_diagonal() {
        // min tr(X) s.t. X₀₀ = 1, X₁₁ = 1 ⇒ 2.
        let mut p = SdpProblem::new(vec![BlockShape::Dense(2)]);
        p.set_cost(0, 0, 0, 1.0);
        p.set_cost(0, 1, 1, 1.0);
        let k0 = p.add_constraint(1.0);
        p.set_coefficient(k0, 0, 0, 0, 1.0);
        let k1 = p.add_constraint(1.0);
        p.set_coefficient(k1, 0, 1, 1, 1.0);
        let sol = default_solver().solve(&p).unwrap();
        assert!((sol.primal_objective - 2.0).abs() < 1e-5);
        assert!(sol.x.min_eigenvalue().unwrap() > -1e-8);
    }

    #[test]
    fn off_diagonal_coupling() {
        // min X₀₀ + X₁₁ s.t. 2·X₀₁ (counted twice) = 2 ⇒ X₀₁ = 1, optimum 2
        // with X = ones (PSD boundary).
        let mut p = SdpProblem::new(vec![BlockShape::Dense(2)]);
        p.set_cost(0, 0, 0, 1.0);
        p.set_cost(0, 1, 1, 1.0);
        let k = p.add_constraint(1.0);
        p.set_coefficient(k, 0, 0, 1, 0.5); // ⟨A,X⟩ = X₀₁ (0.5 mirrored → ×2)
        let sol = default_solver().solve(&p).unwrap();
        assert!((sol.primal_objective - 2.0).abs() < 1e-4, "{}", sol.primal_objective);
    }

    #[test]
    fn diag_block_is_an_lp() {
        // min x₀ + 2x₁ s.t. x₀ + x₁ = 1, x ≥ 0 ⇒ 1.
        let mut p = SdpProblem::new(vec![BlockShape::Diag(2)]);
        p.set_cost(0, 0, 0, 1.0);
        p.set_cost(0, 1, 1, 2.0);
        let k = p.add_constraint(1.0);
        p.set_coefficient(k, 0, 0, 0, 1.0);
        p.set_coefficient(k, 0, 1, 1, 1.0);
        let sol = default_solver().solve(&p).unwrap();
        assert!((sol.primal_objective - 1.0).abs() < 1e-5);
        assert!((sol.x.block(0).as_diag().unwrap()[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn mixed_blocks() {
        // min tr(Xd) + s  s.t.  Xd₀₀ = 1, Xd₀₁·2·0.5 + s = 2 (s ≥ 0 diag).
        let mut p = SdpProblem::new(vec![BlockShape::Dense(2), BlockShape::Diag(1)]);
        p.set_cost(0, 0, 0, 1.0);
        p.set_cost(0, 1, 1, 1.0);
        p.set_cost(1, 0, 0, 1.0);
        let k0 = p.add_constraint(1.0);
        p.set_coefficient(k0, 0, 0, 0, 1.0);
        let k1 = p.add_constraint(2.0);
        p.set_coefficient(k1, 0, 0, 1, 0.5);
        p.set_coefficient(k1, 1, 0, 0, 1.0);
        let sol = default_solver().solve(&p).unwrap();
        // With X₀₀ = 1: choose X₀₁ = t, s = 2 − t, X₁₁ ≥ t². Cost = 1 + t² + 2 − t,
        // minimized at t = 1/2 ⇒ 1 + 0.25 + 1.5 = 2.75.
        assert!((sol.primal_objective - 2.75).abs() < 1e-4, "{}", sol.primal_objective);
    }

    #[test]
    fn weak_duality_holds() {
        let mut p = SdpProblem::new(vec![BlockShape::Dense(3)]);
        for i in 0..3 {
            p.set_cost(0, i, i, (i + 1) as f64);
        }
        p.set_cost(0, 0, 2, 0.3);
        let k0 = p.add_constraint(2.0);
        p.set_coefficient(k0, 0, 0, 0, 1.0);
        p.set_coefficient(k0, 0, 1, 1, 1.0);
        let k1 = p.add_constraint(1.0);
        p.set_coefficient(k1, 0, 1, 2, 0.5);
        let sol = default_solver().solve(&p).unwrap();
        assert!(sol.primal_objective >= sol.dual_objective - 1e-5);
        assert!(sol.x.min_eigenvalue().unwrap() > -1e-7);
        assert!(sol.z.min_eigenvalue().unwrap() > -1e-7);
    }

    #[test]
    fn infeasible_diagonal() {
        // x ≥ 0 with x₀ = −1.
        let mut p = SdpProblem::new(vec![BlockShape::Diag(1)]);
        p.set_cost(0, 0, 0, 1.0);
        let k = p.add_constraint(-1.0);
        p.set_coefficient(k, 0, 0, 0, 1.0);
        let r = default_solver().solve(&p);
        assert!(
            matches!(r, Err(SdpError::Infeasible) | Err(SdpError::IterationLimit { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn feasibility_margin_problem() {
        // The SOS-layer pattern: max t s.t. X − t·I ⪰ 0 written as
        // X = H + t·I, H ⪰ 0, t ≤ 1, with X₀₀ = 2, X₁₁ = 2, X₀₁ = 1.
        // max t ⇔ min −t. Variables: H (dense 2), t (diag split t⁺, slack).
        // Constraints: H₀₀ + t = 2; H₁₁ + t = 2; H₀₁ = 1; t + s = 1.
        let mut p = SdpProblem::new(vec![BlockShape::Dense(2), BlockShape::Diag(2)]);
        p.set_cost(1, 0, 0, -1.0); // min −t
        let k0 = p.add_constraint(2.0);
        p.set_coefficient(k0, 0, 0, 0, 1.0);
        p.set_coefficient(k0, 1, 0, 0, 1.0);
        let k1 = p.add_constraint(2.0);
        p.set_coefficient(k1, 0, 1, 1, 1.0);
        p.set_coefficient(k1, 1, 0, 0, 1.0);
        let k2 = p.add_constraint(1.0);
        p.set_coefficient(k2, 0, 0, 1, 0.5);
        let k3 = p.add_constraint(1.0);
        p.set_coefficient(k3, 1, 0, 0, 1.0);
        p.set_coefficient(k3, 1, 1, 1, 1.0);
        let sol = default_solver().solve(&p).unwrap();
        // X = [[2,1],[1,2]] has λmin = 1, and t ≤ 1 binds ⇒ t* = 1.
        assert!((sol.primal_objective + 1.0).abs() < 1e-4, "{}", sol.primal_objective);
    }
}
