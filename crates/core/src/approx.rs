//! Polynomial inclusion of NN controllers (§3 of the paper).
//!
//! Given a controller `k(x)` over the domain box, computes a polynomial
//! `h(x)` of preassigned degree minimizing the sampled uniform error
//! (the Chebyshev approximation problem (4), relaxed to the LP (5)), and the
//! sound error bound `σ* = σ̃ + ½·s·L` of Theorem 2, so that
//! `k(x) ∈ h(x) + [−σ*, σ*]` for all `x` in the box.

use snbc_linalg::Matrix;
use snbc_lp::{solve_inequality, LpOptions};
use snbc_poly::{monomial_basis, Polynomial};

use crate::SnbcError;

/// Options for [`approximate_controller`].
#[derive(Debug, Clone)]
pub struct ApproxOptions {
    /// Degree `d` of the approximating polynomial `h`.
    pub degree: u32,
    /// Rectangular mesh spacing `s` (the paper suggests `s = 0.05` in 2-D;
    /// the effective spacing grows when the point cap binds).
    pub mesh_spacing: f64,
    /// Cap on mesh points. A full rectangular mesh is used while it fits
    /// under the cap; beyond that a deterministic Halton set of exactly
    /// `max_mesh_points` points stands in. Its reported covering radius is
    /// not a covering radius for caps of 2048 points or more (see
    /// `build_mesh`), so there Theorem 2's `σ̃ + r·L` is not a sound bound;
    /// [`approximate_mlp`] is sound when one of its branch-and-bound rungs
    /// certifies.
    pub max_mesh_points: usize,
    /// LP solver options.
    pub lp: LpOptions,
    /// Telemetry sink. When recording, the abstraction emits an `"approx"`
    /// span with the Theorem 2 quantities (σ̃, σ*, L, r_cov, mesh size) and
    /// forwards itself to the Chebyshev LP if `lp.telemetry` is off.
    pub telemetry: snbc_telemetry::Telemetry,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions {
            degree: 2,
            mesh_spacing: 0.1,
            max_mesh_points: 20_000,
            lp: LpOptions::default(),
            telemetry: snbc_telemetry::Telemetry::off(),
        }
    }
}

/// The verified abstraction `k(x) ∈ h(x) + [−σ*, σ*]` produced by §3.
#[derive(Debug, Clone)]
pub struct PolynomialInclusion {
    /// The approximating polynomial `h(x, h̃)`.
    pub h: Polynomial,
    /// Sampled Chebyshev error `σ̃` (LP optimum).
    pub sigma_tilde: f64,
    /// Sound uniform bound `σ* = σ̃ + r_cov·L` (Theorem 2; `r_cov` is the
    /// covering radius of the mesh, `½·s·√n` for the rectangular mesh).
    pub sigma_star: f64,
    /// Lipschitz constant used for the gap term.
    pub lipschitz: f64,
    /// Covering radius of the sample set.
    pub covering_radius: f64,
    /// Number of mesh points used.
    pub mesh_points: usize,
}

/// Computes the polynomial inclusion of a controller over a box (Theorem 2).
///
/// `controller` is any scalar function (typically [`snbc_nn::Mlp::forward`]);
/// `lipschitz` must be a valid Lipschitz constant of it on the box w.r.t.
/// the Euclidean norm (use [`snbc_nn::Mlp::lipschitz_bound`]).
///
/// # Errors
///
/// Returns [`SnbcError::Approximation`] if the Chebyshev LP cannot be solved
/// and [`SnbcError::Config`] for degenerate inputs.
///
/// # Example
///
/// ```
/// use snbc::{approximate_controller, ApproxOptions};
///
/// // A controller that is already a polynomial is reproduced exactly.
/// let k = |x: &[f64]| -2.0 * x[0] + 0.5 * x[0] * x[0];
/// let inc = approximate_controller(&k, 2.5, &[(-1.0, 1.0)], &ApproxOptions::default())?;
/// assert!(inc.sigma_tilde < 1e-6);
/// assert!((inc.h.eval(&[0.5]) - (-0.875)).abs() < 1e-5);
/// # Ok::<(), snbc::SnbcError>(())
/// ```
pub fn approximate_controller(
    controller: &(dyn Fn(&[f64]) -> f64 + Sync),
    lipschitz: f64,
    domain: &[(f64, f64)],
    opts: &ApproxOptions,
) -> Result<PolynomialInclusion, SnbcError> {
    if domain.is_empty() {
        return Err(SnbcError::Config("empty domain".into()));
    }
    if !(lipschitz >= 0.0) {
        return Err(SnbcError::Config("Lipschitz constant must be nonnegative".into()));
    }
    let n = domain.len();
    let _span = opts.telemetry.span("approx");

    // Build the mesh.
    let (points, covering_radius) = build_mesh(domain, opts);
    let m = points.len();

    // Basis and LP: variables z = (h ∈ ℝᵛ, t); constraints
    //   φ(yᵢ)ᵀh − t ≤ k(yᵢ) and −φ(yᵢ)ᵀh − t ≤ −k(yᵢ).
    //
    // Mesh points are independent, so the expensive part — the controller
    // forward passes and monomial evaluations — runs as fixed chunks through
    // `par_map_collect`; the G/rhs rows are then assembled serially in chunk
    // order, so every matrix entry lands exactly where the serial loop put
    // it. Below MIN_PARALLEL_MESH points a single chunk keeps the whole
    // thing inline (one worker ⇒ snbc-par never spawns).
    let basis = monomial_basis(n, opts.degree);
    let v = basis.len();
    let chunk = if m < MIN_PARALLEL_MESH { m.max(1) } else { MESH_CHUNK };
    let trace = opts.telemetry.trace();
    let points_ref = &points;
    let basis_ref = &basis;
    let chunks: Vec<(Vec<f64>, Vec<f64>)> =
        snbc_par::par_map_collect(m.div_ceil(chunk).max(1), |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(m);
            let span = trace.begin_span("mesh-chunk", Some(c as u64));
            let mut ks = Vec::with_capacity(hi - lo);
            let mut phis = Vec::with_capacity((hi - lo) * v);
            for y in &points_ref[lo..hi] {
                ks.push(controller(y));
                for mono in basis_ref {
                    phis.push(mono.eval(y));
                }
            }
            trace.end_span("mesh-chunk", span);
            (ks, phis)
        });
    let mut g = Matrix::zeros(2 * m, v + 1);
    let mut rhs = vec![0.0; 2 * m];
    for (c, (ks, phis)) in chunks.iter().enumerate() {
        for (r, &k) in ks.iter().enumerate() {
            let i = c * chunk + r;
            for j in 0..v {
                let phi = phis[r * v + j];
                g[(2 * i, j)] = phi;
                g[(2 * i + 1, j)] = -phi;
            }
            g[(2 * i, v)] = -1.0;
            g[(2 * i + 1, v)] = -1.0;
            rhs[2 * i] = k;
            rhs[2 * i + 1] = -k;
        }
    }
    let mut c = vec![0.0; v + 1];
    c[v] = 1.0; // min t
    let lp_opts = if opts.telemetry.is_recording() && !opts.lp.telemetry.is_recording() {
        let mut fwd = opts.lp.clone();
        fwd.telemetry = opts.telemetry.clone();
        fwd
    } else {
        opts.lp.clone()
    };
    let sol = solve_inequality(&c, &g, &rhs, &lp_opts)?;
    let sigma_tilde = sol.objective.max(0.0);
    let h = Polynomial::from_coeffs(&sol.z[..v], &basis);

    let inc = PolynomialInclusion {
        sigma_star: sigma_tilde + covering_radius * lipschitz,
        h,
        sigma_tilde,
        lipschitz,
        covering_radius,
        mesh_points: m,
    };
    record_inclusion(&opts.telemetry, &inc);
    Ok(inc)
}

/// Mesh points per parallel evaluation chunk. The chunk grid is a pure
/// function of the mesh size, so the assembled LP is bitwise identical at
/// any thread count.
const MESH_CHUNK: usize = 64;

/// Meshes smaller than this are evaluated as a single inline chunk: the
/// spawn cost dwarfs the per-point work (see docs/PERFORMANCE.md for the
/// measured crossover on the quickstart problem).
const MIN_PARALLEL_MESH: usize = 256;

/// Emits the Theorem 2 quantities of a finished inclusion on the current span.
fn record_inclusion(t: &snbc_telemetry::Telemetry, inc: &PolynomialInclusion) {
    if !t.is_recording() {
        return;
    }
    t.add("mesh_points", inc.mesh_points as u64);
    t.gauge("sigma_tilde", inc.sigma_tilde);
    t.gauge("sigma_star", inc.sigma_star);
    t.gauge("lipschitz", inc.lipschitz);
    t.gauge("covering_radius", inc.covering_radius);
}

/// Builds the sample set and its covering radius.
///
/// The rectangular mesh's radius `½·s·√n` is exact. The Halton branch
/// draws the first `min(2048, 4N)` points of the same sequence as probes
/// and skips the first `min(N, probes)` of them, which are the mesh itself;
/// for `N ≥ 2048` (every cap in use: 3000 and 20 000) no probe is left, so
/// the radius returned is the volume bound `½·(vol/N)^{1/n}`. That is a
/// lower bound on any covering radius of `N` points, not an upper one, so
/// `σ̃ + r·L` from it is not a sound Theorem 2 bound.
fn build_mesh(domain: &[(f64, f64)], opts: &ApproxOptions) -> (Vec<Vec<f64>>, f64) {
    let n = domain.len();
    // Points per dimension at the requested spacing.
    let counts: Vec<usize> = domain
        .iter()
        .map(|&(lo, hi)| ((hi - lo) / opts.mesh_spacing).ceil().max(1.0) as usize + 1)
        .collect();
    let total: f64 = counts.iter().map(|&c| c as f64).product();
    if total <= opts.max_mesh_points as f64 {
        // Full rectangular mesh; covering radius ½·s·√n with the effective
        // per-dimension spacing.
        let mut pts = vec![vec![]];
        let mut radius2 = 0.0;
        for (d, &(lo, hi)) in domain.iter().enumerate() {
            let k = counts[d];
            let step = if k > 1 { (hi - lo) / (k - 1) as f64 } else { 0.0 };
            radius2 += (step / 2.0) * (step / 2.0);
            let mut next = Vec::with_capacity(pts.len() * k);
            for p in &pts {
                for i in 0..k {
                    let mut q = p.clone();
                    q.push(lo + step * i as f64);
                    next.push(q);
                }
            }
            pts = next;
        }
        (pts, radius2.sqrt())
    } else {
        // Halton fallback. The covering radius is *estimated* by probing and
        // then inflated by a safety factor — probing lower-bounds the true
        // radius, so the raw estimate would make the Theorem 2 bound
        // optimistic. Below 2048 points only the probes past the mesh's own
        // prefix are new; at 2048 or more there are none and the volume
        // bound stands alone (see the function docs). Callers needing a
        // verified band should prefer [`approximate_mlp`], whose
        // branch-and-bound certification of |k − h| ≤ σ* does not depend on
        // this estimate at all.
        const COVERING_SAFETY: f64 = 1.5;
        let pts = snbc_dynamics::sample_box_halton(domain, opts.max_mesh_points);
        let probes = snbc_dynamics::sample_box_halton(
            domain,
            2_048.min(4 * opts.max_mesh_points),
        );
        let mut rcov: f64 = 0.0;
        for probe in probes.iter().skip(opts.max_mesh_points.min(probes.len())) {
            let d2 = pts
                .iter()
                .map(|p| {
                    p.iter()
                        .zip(probe)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                })
                .fold(f64::INFINITY, f64::min);
            rcov = rcov.max(d2.sqrt());
        }
        // Volume-based lower bound on any covering radius of N points: the
        // probed estimate must at least reach it.
        let vol: f64 = domain.iter().map(|&(lo, hi)| hi - lo).product();
        let vol_bound = (vol / opts.max_mesh_points as f64).powf(1.0 / n as f64) * 0.5;
        (pts, (rcov * COVERING_SAFETY).max(vol_bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_polynomial_controllers() {
        let k = |x: &[f64]| 1.0 - x[0] + 0.25 * x[0] * x[1];
        let opts = ApproxOptions {
            degree: 2,
            mesh_spacing: 0.25,
            ..Default::default()
        };
        let inc =
            approximate_controller(&k, 2.0, &[(-1.0, 1.0), (-1.0, 1.0)], &opts).unwrap();
        assert!(inc.sigma_tilde < 1e-6, "sigma_tilde = {}", inc.sigma_tilde);
        assert!((inc.h.eval(&[0.3, -0.7]) - k(&[0.3, -0.7])).abs() < 1e-5);
    }

    #[test]
    fn sigma_star_bounds_true_error_tanh() {
        // k(x) = tanh(2x): degree-3 fit; σ* must dominate the true sup error.
        let k = |x: &[f64]| (2.0 * x[0]).tanh();
        let lipschitz = 2.0;
        let opts = ApproxOptions {
            degree: 3,
            mesh_spacing: 0.05,
            ..Default::default()
        };
        let inc = approximate_controller(&k, lipschitz, &[(-1.0, 1.0)], &opts).unwrap();
        let mut true_sup: f64 = 0.0;
        for i in 0..=1000 {
            let x = -1.0 + 2.0 * i as f64 / 1000.0;
            true_sup = true_sup.max((k(&[x]) - inc.h.eval(&[x])).abs());
        }
        assert!(
            inc.sigma_star >= true_sup - 1e-9,
            "sigma* {} < true sup {true_sup}",
            inc.sigma_star
        );
        // And the fit should be decent.
        assert!(inc.sigma_tilde < 0.1, "sigma_tilde = {}", inc.sigma_tilde);
    }

    #[test]
    fn finer_mesh_tightens_sigma_tilde() {
        // Remark 1: σ̃ grows toward σ as s shrinks (monotone in the sampled
        // max), so a finer mesh gives σ̃ closer to the true sup from below
        // while σ* shrinks because the Lipschitz gap dominates.
        let k = |x: &[f64]| x[0].sin();
        let mk = |s: f64| {
            let opts = ApproxOptions {
                degree: 3,
                mesh_spacing: s,
                ..Default::default()
            };
            approximate_controller(&k, 1.0, &[(-2.0, 2.0)], &opts).unwrap()
        };
        let coarse = mk(0.5);
        let fine = mk(0.05);
        assert!(fine.sigma_star < coarse.sigma_star);
        assert!(fine.sigma_tilde >= coarse.sigma_tilde - 1e-9);
    }

    #[test]
    fn halton_fallback_engages_in_high_dim() {
        let k = |x: &[f64]| x.iter().sum::<f64>();
        let opts = ApproxOptions {
            degree: 1,
            mesh_spacing: 0.05,
            max_mesh_points: 500,
            ..Default::default()
        };
        let domain = vec![(-1.0, 1.0); 6];
        let inc = approximate_controller(&k, 3.0, &domain, &opts).unwrap();
        assert_eq!(inc.mesh_points, 500);
        assert!(inc.covering_radius > 0.0);
        assert!(inc.sigma_tilde < 1e-4); // linear target, representable up to LP tolerance
    }

    #[test]
    fn rejects_bad_config() {
        let k = |_: &[f64]| 0.0;
        assert!(matches!(
            approximate_controller(&k, 1.0, &[], &ApproxOptions::default()),
            Err(SnbcError::Config(_))
        ));
        assert!(matches!(
            approximate_controller(&k, f64::NAN, &[(-1.0, 1.0)], &ApproxOptions::default()),
            Err(SnbcError::Config(_))
        ));
    }
}

/// Computes the polynomial inclusion of an MLP controller with a **verified**
/// error bound certified by interval branch-and-bound (mean-value form),
/// falling back to the Theorem 2 Lipschitz bound when certification does not
/// tighten it.
///
/// In high dimension the rectangular mesh is replaced by a capped Halton set
/// whose covering radius — and hence the `½sL` gap term — grows quickly; the
/// direct certification of `|k(x) − h(x)| ≤ σ` over the box sidesteps that
/// conservatism entirely while remaining sound up to rounding (interval
/// arithmetic over-approximates both the network and the polynomial, with
/// round-to-nearest bounds; see [`snbc_interval::Interval`]).
///
/// The certification climbs a ladder of σ rungs and keeps the first one the
/// branch-and-bound proves. Before the ladder, a short deterministic
/// gradient ascent on `±(k − h)` from the worst Halton probes looks for a
/// concrete point with a large `|k − h|`, the *witness*; a rung the witness
/// already exceeds (by more than the rounding margin) could only end
/// refuted or out of budget, so it is skipped without a search. The
/// witness is reported as the `witness` gauge on the `approx` span: the
/// lower end of the gap that σ* closes from above.
///
/// # Errors
///
/// Same as [`approximate_controller`].
///
/// # Example
///
/// ```no_run
/// use snbc::{approximate_mlp, ApproxOptions};
/// use snbc_nn::{Activation, Mlp};
///
/// let net = Mlp::new(&[2, 8, 1], Activation::Tanh, 1);
/// let inc = approximate_mlp(&net, &[(-1.0, 1.0), (-1.0, 1.0)], &ApproxOptions::default())?;
/// assert!(inc.sigma_star >= inc.sigma_tilde);
/// # Ok::<(), snbc::SnbcError>(())
/// ```
pub fn approximate_mlp(
    mlp: &snbc_nn::Mlp,
    domain: &[(f64, f64)],
    opts: &ApproxOptions,
) -> Result<PolynomialInclusion, SnbcError> {
    // This wrapper owns the "approx" span so σ* is reported *after* the
    // branch-and-bound tightening below; the inner call runs with its own
    // telemetry off (the LP still reports into the shared recorder). The
    // trace sink is still forwarded so the inner mesh evaluation emits its
    // per-chunk `mesh-chunk` worker spans.
    let telemetry = opts.telemetry.clone();
    let _span = telemetry.span("approx");
    let mut inner = opts.clone();
    inner.telemetry = snbc_telemetry::Telemetry::off().with_trace(telemetry.trace().clone());
    if telemetry.is_recording() && !inner.lp.telemetry.is_recording() {
        inner.lp.telemetry = telemetry.clone();
    }
    let mut base = approximate_controller(
        &|x| mlp.forward(x),
        mlp.lipschitz_bound(),
        domain,
        &inner,
    )?;
    // Escalating σ levels between the sampled optimum and the Lipschitz
    // fallback; accept the first level branch-and-bound can certify. A cheap
    // dense probe seeds the first level (a level below the probed sup can
    // never certify), and the box budget grows with the dimension, where
    // each bound-tightening split costs more.
    let n = domain.len();
    let kernel = InclusionKernel::new(mlp, &base.h);
    let probes = snbc_dynamics::sample_box_halton(domain, 4000);
    let (probed, starts) = worst_probes(&kernel, &probes);
    let witness = refute_ascent(&kernel, domain, &probes, &starts);
    let budget = 60_000usize.saturating_mul(1 + n / 4);
    let mut sigma = (probed * 1.2 + 1e-4).max(base.sigma_tilde);
    while sigma < base.sigma_star {
        // A rung below the witness cannot certify: the leaf box holding the
        // witness point bounds |k − h| from above by at least the witness
        // (up to rounding), so that box is never discharged.
        if witness <= sigma + REFUTE_MARGIN
            && certify_inclusion_error(&kernel, domain, sigma, budget, telemetry.trace())
        {
            base.sigma_star = sigma;
            break;
        }
        sigma *= 1.5;
    }
    record_inclusion(&telemetry, &base);
    if telemetry.is_recording() {
        telemetry.gauge("witness", witness);
    }
    Ok(base)
}

/// Probes with the largest `|k − h|` that start the refutation ascent.
const REFUTE_STARTS: usize = 8;

/// Steps of each refutation ascent: 8 × 40 evaluations, well under a
/// millisecond, against branch-and-bound searches of up to 10⁵ boxes.
const REFUTE_STEPS: usize = 40;

/// First ascent step, as a fraction of each box width.
const REFUTE_STEP: f64 = 0.05;

/// How far the witness must exceed a rung before the rung is skipped. The
/// per-box bounds and the witness value carry round-to-nearest error of a
/// few ulps of quantities of order one (~1e-15); the smallest gap between
/// a witness and a rung it skips on the benchmark rows is 1.4e-5 (C8 at
/// its Table 1 seed).
const REFUTE_MARGIN: f64 = 1e-9;

/// Evaluates `|k − h|` at every probe. Returns the largest value (the
/// ladder's seed) and the [`REFUTE_STARTS`] probes with the largest values
/// as `(|k − h|, index)`, largest first, ties broken by the lower index.
/// Both are exact under any chunking, so they are bitwise identical at any
/// thread count.
fn worst_probes(kernel: &InclusionKernel<'_>, probes: &[Vec<f64>]) -> (f64, Vec<(f64, usize)>) {
    snbc_par::par_map_reduce(
        probes.len(),
        512,
        |r| {
            let mut s = kernel.point_scratch();
            let mut worst: f64 = 0.0;
            let mut top = Vec::with_capacity(REFUTE_STARTS + 1);
            for i in r {
                let d = kernel.difference_at(&probes[i], &mut s).abs();
                worst = worst.max(d);
                top.push((d, i));
                keep_worst(&mut top);
            }
            (worst, top)
        },
        merge_worst,
    )
    .unwrap_or((0.0, Vec::new()))
}

/// Merges two chunks' `(largest value, worst probes)`.
fn merge_worst(a: (f64, Vec<(f64, usize)>), b: (f64, Vec<(f64, usize)>)) -> (f64, Vec<(f64, usize)>) {
    let (mut top, more) = (a.1, b.1);
    top.extend(more);
    keep_worst(&mut top);
    (a.0.max(b.0), top)
}

/// Sorts by decreasing value, then increasing index, and keeps the first
/// [`REFUTE_STARTS`] entries.
fn keep_worst(top: &mut Vec<(f64, usize)>) {
    top.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    top.truncate(REFUTE_STARTS);
}

/// Projected gradient ascent on `±(k − h)` from each start, in the start's
/// sign, with steps normalised in box-width units (×1.5 after an
/// improvement, ×0.5 after a miss) and clamped to the domain. Serial, so
/// the result does not depend on the thread count. Returns the largest
/// `|k − h|` evaluated at any point — every point lies in the domain, so
/// no σ below it can bound `|k − h|` there.
fn refute_ascent(
    kernel: &InclusionKernel<'_>,
    domain: &[(f64, f64)],
    probes: &[Vec<f64>],
    starts: &[(f64, usize)],
) -> f64 {
    let n = domain.len();
    let widths: Vec<f64> = domain.iter().map(|&(lo, hi)| hi - lo).collect();
    let mut s = kernel.point_scratch();
    let (mut x, mut cand, mut g) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut witness: f64 = 0.0;
    for &(_, start) in starts {
        x.copy_from_slice(&probes[start]);
        let d = kernel.difference_at(&x, &mut s);
        witness = witness.max(d.abs());
        let sign = if d < 0.0 { -1.0 } else { 1.0 };
        let mut fx = sign * d;
        kernel.difference_gradient(&x, &mut s, &mut g);
        let mut step = REFUTE_STEP;
        for _ in 0..REFUTE_STEPS {
            let norm = g
                .iter()
                .zip(&widths)
                .map(|(gi, w)| (gi * w) * (gi * w))
                .sum::<f64>()
                .sqrt();
            if !(norm > 0.0) {
                break;
            }
            for (i, c) in cand.iter_mut().enumerate() {
                let (lo, hi) = domain[i];
                *c = (x[i] + sign * step * widths[i] * (g[i] * widths[i]) / norm).clamp(lo, hi);
            }
            let dc = kernel.difference_at(&cand, &mut s);
            witness = witness.max(dc.abs());
            if sign * dc > fx {
                std::mem::swap(&mut x, &mut cand);
                fx = sign * dc;
                step *= 1.5;
                kernel.difference_gradient(&x, &mut s, &mut g);
            } else {
                step *= 0.5;
            }
        }
    }
    witness
}

/// Branch-and-bound proof of `|k(x) − h(x)| ≤ σ` over the box, combining
/// three sound per-box bounds and taking the tightest:
///
/// * the direct interval extension,
/// * the mean-value form `d(x) ∈ d(mid) + ∇d(box)·(box − mid)`,
/// * a CROWN-style *chord relaxation* of single-hidden-layer tanh networks:
///   each neuron's activation is enclosed between two parallel lines with
///   the chord slope, giving `k(x) ∈ aᵀx + b + [e_lo, e_hi]` with an exact
///   affine part — the envelope collapses for near-linear controllers and is
///   what keeps 9–12-dimensional certification tractable.
///
/// Each box is bounded by [`InclusionKernel::bounds`]. Box evaluations run
/// through the deterministic parallel wave engine
/// ([`snbc_interval::wave_search`]) with one kernel scratch per evaluation
/// chunk; when `trace` records, per-chunk `bb-boxes` spans show the fan-out
/// per worker in the Perfetto timeline.
fn certify_inclusion_error(
    kernel: &InclusionKernel<'_>,
    domain: &[(f64, f64)],
    sigma: f64,
    max_boxes: usize,
    trace: &snbc_trace::Trace,
) -> bool {
    use snbc_interval::{wave_search, widest_axis, BoxEval, Interval};
    let root: Vec<Interval> = domain.iter().map(|&(lo, hi)| Interval::new(lo, hi)).collect();
    let outcome = wave_search(root, max_boxes, trace, || kernel.box_scratch(), |s, bx| {
        let d_mid = kernel.midpoint_difference(s, bx);
        if d_mid.abs() > sigma {
            // Concrete violation of this σ level: abort the whole search.
            return BoxEval::Refuted { witness: s.mid.clone(), value: d_mid };
        }
        let [direct, mv, chord] = kernel.bounds(s, bx, d_mid);
        if direct.min(mv).min(chord) <= sigma {
            return BoxEval::Discharged;
        }
        match widest_axis(bx) {
            Some((_, width)) if width >= 1e-6 => BoxEval::Split,
            // Cannot prove at this precision: give up on this σ level.
            _ => BoxEval::Refuted { witness: s.mid.clone(), value: d_mid },
        }
    });
    outcome.refuted.is_none() && outcome.exhausted.is_none()
}

/// A polynomial compiled for repeated evaluation: coefficients, and each
/// monomial's nonzero exponents as `(variable, exponent)` pairs, in
/// [`Polynomial::iter`] order.
struct FlatPoly {
    coeffs: Vec<f64>,
    monomials: Monomials,
}

/// Monomials as runs of `(variable, exponent)` factors, ascending by variable.
#[derive(Default)]
struct Monomials {
    runs: Vec<std::ops::Range<usize>>,
    factors: Vec<(usize, u32)>,
}

impl Monomials {
    fn push(&mut self, m: &snbc_poly::Monomial) {
        let start = self.factors.len();
        for (i, &e) in m.exponents().iter().enumerate() {
            if e > 0 {
                self.factors.push((i, e));
            }
        }
        self.runs.push(start..self.factors.len());
    }

    /// `x^α` as [`snbc_poly::Monomial::eval`] forms it.
    fn value_at(&self, t: usize, x: &[f64]) -> f64 {
        let mut v = 1.0;
        for &(i, e) in &self.factors[self.runs[t].clone()] {
            for _ in 0..e {
                v *= x[i];
            }
        }
        v
    }

    /// The interval term of [`snbc_interval::eval_range`]: the product of
    /// the box's coordinate powers, `pows[i·max_exp + e − 1] = boxᵢᵉ`.
    fn range_on(&self, t: usize, pows: &[snbc_interval::Interval], max_exp: usize) -> snbc_interval::Interval {
        let mut term = snbc_interval::Interval::point(1.0);
        for &(i, e) in &self.factors[self.runs[t].clone()] {
            term = term * pows[i * max_exp + e as usize - 1];
        }
        term
    }
}

impl FlatPoly {
    fn new(p: &Polynomial) -> Self {
        let mut monomials = Monomials::default();
        let mut coeffs = Vec::with_capacity(p.num_terms());
        for (m, c) in p.iter() {
            coeffs.push(c);
            monomials.push(m);
        }
        FlatPoly { coeffs, monomials }
    }

    /// Same operations, in the same order, as [`Polynomial::eval`].
    // audit:hot
    fn value_at(&self, x: &[f64]) -> f64 {
        self.coeffs
            .iter()
            .enumerate()
            .map(|(t, c)| c * self.monomials.value_at(t, x))
            .sum()
    }

    /// Same operations, in the same order, as [`snbc_interval::eval_range`].
    // audit:hot
    fn range_on(&self, pows: &[snbc_interval::Interval], max_exp: usize) -> snbc_interval::Interval {
        let mut acc = snbc_interval::Interval::point(0.0);
        for (t, &c) in self.coeffs.iter().enumerate() {
            acc = acc + self.monomials.range_on(t, pows, max_exp) * c;
        }
        acc
    }
}

/// Where a monomial of the chord bound's `aᵀx + b₀ − h` gets its affine part.
#[derive(Clone, Copy)]
enum AffinePart {
    /// Only `h` has this monomial.
    None,
    /// The constant `b₀`.
    Constant,
    /// The coefficient `aᵢ` of `xᵢ`.
    Var(usize),
}

/// The monomials of `aᵀx + b₀ − h` (all of them, before any exact-zero
/// coefficient is dropped) in [`Polynomial::iter`] order, with the affine
/// part and `h`'s coefficient each contributes.
struct ChordPoly {
    parts: Vec<(AffinePart, Option<f64>)>,
    monomials: Monomials,
}

impl ChordPoly {
    fn new(h: &Polynomial, n: usize) -> Self {
        use snbc_poly::Monomial;
        let mut merged: std::collections::BTreeMap<Monomial, (AffinePart, Option<f64>)> =
            std::collections::BTreeMap::new();
        merged.insert(Monomial::one(), (AffinePart::Constant, None));
        for i in 0..n {
            merged.insert(Monomial::var(i), (AffinePart::Var(i), None));
        }
        for (m, c) in h.iter() {
            merged.entry(m.clone()).or_insert((AffinePart::None, None)).1 = Some(c);
        }
        let mut monomials = Monomials::default();
        let mut parts = Vec::with_capacity(merged.len());
        for (m, part) in &merged {
            monomials.push(m);
            parts.push(*part);
        }
        ChordPoly { parts, monomials }
    }
}

/// [`Polynomial::add_term`]'s rule for keeping a coefficient: anything but
/// an exact zero (a NaN is kept).
fn kept(c: f64) -> bool {
    !(c.abs() <= 0.0)
}

/// The per-box bounds of `|k − h|` for one [`approximate_mlp`] call, compiled
/// once: `h`, its partials and the chord bound's `aᵀx + b₀ − h` monomials.
/// Every bound repeats the floating-point operations of the references it
/// replaced, in their order — [`snbc_nn::Mlp::forward`],
/// [`Polynomial::eval`], [`snbc_nn::Mlp::forward_interval`],
/// [`snbc_nn::Mlp::gradient_interval`], [`snbc_interval::eval_range`] and
/// the chord relaxation over a [`Polynomial`] — so every verdict, and σ*,
/// is bit for bit what they give; the unit tests pin this box by box.
/// Per box it computes each coordinate's interval powers, each hidden
/// unit's pre-activation interval and `tanh` at its two ends once, shared
/// by the three bounds, and allocates nothing.
struct InclusionKernel<'a> {
    mlp: &'a snbc_nn::Mlp,
    n: usize,
    /// Largest exponent of any variable in `h` (at least 1).
    max_exp: usize,
    h: FlatPoly,
    h_grad: Vec<FlatPoly>,
    /// Present for single-hidden-layer tanh networks.
    chord: Option<ChordPoly>,
    /// Per weight layer: offset of its weights in the flat parameters, and
    /// of its units among the hidden units (hidden layers only).
    param_offsets: Vec<usize>,
    unit_offsets: Vec<usize>,
    hidden_units: usize,
    widest: usize,
}

/// Scratch of the point evaluations (midpoints, probes, the ascent).
struct PointScratch {
    pre: Vec<f64>,
    act: Vec<f64>,
    adj: Vec<f64>,
    next: Vec<f64>,
}

/// Scratch of one box evaluation; one per wave-engine evaluation chunk.
struct BoxScratch {
    mid: Vec<f64>,
    point: PointScratch,
    pows: Vec<snbc_interval::Interval>,
    pre: Vec<snbc_interval::Interval>,
    act: Vec<snbc_interval::Interval>,
    deriv: Vec<snbc_interval::Interval>,
    tanh_lo: Vec<f64>,
    tanh_hi: Vec<f64>,
    adj: Vec<snbc_interval::Interval>,
    next: Vec<snbc_interval::Interval>,
    scaled: Vec<snbc_interval::Interval>,
    affine: Vec<f64>,
}

impl<'a> InclusionKernel<'a> {
    fn new(mlp: &'a snbc_nn::Mlp, h: &Polynomial) -> Self {
        let n = mlp.input_dim();
        let sizes = mlp.layer_sizes();
        let mut param_offsets = Vec::with_capacity(sizes.len() - 1);
        let mut unit_offsets = Vec::with_capacity(sizes.len() - 1);
        let (mut p, mut u) = (0, 0);
        for w in sizes.windows(2) {
            param_offsets.push(p);
            unit_offsets.push(u);
            p += w[0] * w[1] + w[1];
            u += w[1];
        }
        let hidden_units = u - sizes[sizes.len() - 1];
        let max_exp = h
            .iter()
            .flat_map(|(m, _)| m.exponents().iter().copied())
            .max()
            .unwrap_or(0)
            .max(1) as usize;
        let chord = (sizes.len() == 3 && mlp.activation() == snbc_nn::Activation::Tanh)
            .then(|| ChordPoly::new(h, n));
        InclusionKernel {
            mlp,
            n,
            max_exp,
            h: FlatPoly::new(h),
            h_grad: (0..n).map(|i| FlatPoly::new(&h.partial(i))).collect(),
            chord,
            param_offsets,
            unit_offsets,
            hidden_units,
            widest: sizes.iter().copied().max().unwrap_or(1),
        }
    }

    fn point_scratch(&self) -> PointScratch {
        PointScratch {
            pre: vec![0.0; self.hidden_units],
            act: vec![0.0; self.hidden_units],
            adj: vec![0.0; self.widest],
            next: vec![0.0; self.widest],
        }
    }

    fn box_scratch(&self) -> BoxScratch {
        use snbc_interval::Interval;
        let zero = Interval::point(0.0);
        BoxScratch {
            mid: vec![0.0; self.n],
            point: self.point_scratch(),
            pows: vec![zero; self.n * self.max_exp],
            pre: vec![zero; self.hidden_units],
            act: vec![zero; self.hidden_units],
            deriv: vec![zero; self.hidden_units],
            tanh_lo: vec![0.0; self.hidden_units],
            tanh_hi: vec![0.0; self.hidden_units],
            adj: vec![zero; self.widest],
            next: vec![zero; self.widest],
            scaled: vec![zero; self.widest],
            affine: vec![0.0; self.n],
        }
    }

    /// `k(x)` with [`snbc_nn::Mlp::forward`]'s operations, keeping each
    /// hidden unit's pre-activation and activation in `s`.
    // audit:hot
    fn controller_at(&self, x: &[f64], s: &mut PointScratch) -> f64 {
        let sizes = self.mlp.layer_sizes();
        let params = self.mlp.params();
        let act_fn = self.mlp.activation();
        let layers = sizes.len() - 1;
        for li in 0..layers - 1 {
            let (fan_in, fan_out) = (sizes[li], sizes[li + 1]);
            let (p, u) = (self.param_offsets[li], self.unit_offsets[li]);
            let (below, cur) = s.act.split_at_mut(u);
            let input = if li == 0 { x } else { &below[u - fan_in..] };
            for o in 0..fan_out {
                let mut acc = params[p + fan_in * fan_out + o];
                for (w, a) in params[p + o * fan_in..p + (o + 1) * fan_in].iter().zip(input) {
                    acc += w * a;
                }
                s.pre[u + o] = acc;
                cur[o] = act_fn.activate(acc);
            }
        }
        let fan_in = sizes[layers - 1];
        let p = self.param_offsets[layers - 1];
        let u = self.hidden_units;
        let input = if layers == 1 { x } else { &s.act[u - fan_in..u] };
        let mut out = params[p + fan_in];
        for (w, a) in params[p..p + fan_in].iter().zip(input) {
            out += w * a;
        }
        out
    }

    /// `k(x) − h(x)`, bit for bit `mlp.forward(x) − h.eval(x)`.
    fn difference_at(&self, x: &[f64], s: &mut PointScratch) -> f64 {
        self.controller_at(x, s) - self.h.value_at(x)
    }

    /// `∇k(x) − ∇h(x)` into `grad`, by point backprop from the forward state
    /// [`Self::difference_at`] left in `s` for the same `x`.
    fn difference_gradient(&self, x: &[f64], s: &mut PointScratch, grad: &mut [f64]) {
        let sizes = self.mlp.layer_sizes();
        let params = self.mlp.params();
        let act_fn = self.mlp.activation();
        let layers = sizes.len() - 1;
        s.adj[0] = 1.0;
        for li in (0..layers).rev() {
            let (fan_in, fan_out) = (sizes[li], sizes[li + 1]);
            let p = self.param_offsets[li];
            if li + 1 < layers {
                let u = self.unit_offsets[li];
                for o in 0..fan_out {
                    s.adj[o] *= act_fn.slope(s.pre[u + o], s.act[u + o]);
                }
            }
            s.next[..fan_in].fill(0.0);
            for o in 0..fan_out {
                let a = s.adj[o];
                for (d, w) in s.next[..fan_in].iter_mut().zip(&params[p + o * fan_in..]) {
                    *d += a * w;
                }
            }
            std::mem::swap(&mut s.adj, &mut s.next);
        }
        for (i, g) in grad.iter_mut().enumerate() {
            *g = s.adj[i] - self.h_grad[i].value_at(x);
        }
    }

    /// `d(mid) = k(mid) − h(mid)` of the box, leaving the midpoint in `s.mid`.
    fn midpoint_difference(&self, s: &mut BoxScratch, bx: &[snbc_interval::Interval]) -> f64 {
        for (m, iv) in s.mid.iter_mut().zip(bx) {
            *m = iv.mid();
        }
        self.difference_at(&s.mid, &mut s.point)
    }

    /// The direct, mean-value and chord bounds of `max |k − h|` over the
    /// box (`∞` for the chord bound of other network shapes).
    // audit:hot
    fn bounds(&self, s: &mut BoxScratch, bx: &[snbc_interval::Interval], d_mid: f64) -> [f64; 3] {
        let max_exp = self.max_exp;
        for (iv, pows) in bx.iter().zip(s.pows.chunks_mut(max_exp)) {
            let mut e = 0;
            for p in pows {
                e += 1;
                *p = snbc_interval::Interval::powi(*iv, e);
            }
        }
        // Direct form.
        let k_range = self.network_ranges(s, bx);
        let diff = k_range - self.h.range_on(&s.pows, max_exp);
        let direct = diff.hi().abs().max(diff.lo().abs());
        // Mean-value form.
        self.gradient_ranges(s);
        let mut mv = d_mid.abs();
        for (i, iv) in bx.iter().enumerate() {
            let g = s.adj[i] - self.h_grad[i].range_on(&s.pows, max_exp);
            let gmax = g.hi().abs().max(g.lo().abs());
            mv += gmax * iv.width() * 0.5;
        }
        // Chord relaxation.
        let chord = match &self.chord {
            Some(c) => self.chord_bound(c, s),
            None => f64::INFINITY,
        };
        [direct, mv, chord]
    }

    /// The network's output interval ([`snbc_nn::Mlp::forward_interval`]),
    /// recording each hidden unit's pre-activation, activation and
    /// derivative intervals for the gradient and chord bounds.
    // audit:hot
    fn network_ranges(&self, s: &mut BoxScratch, bx: &[snbc_interval::Interval]) -> snbc_interval::Interval {
        use snbc_interval::Interval;
        use snbc_nn::{interval_activation, interval_activation_derivative, Activation};
        let sizes = self.mlp.layer_sizes();
        let params = self.mlp.params();
        let act_fn = self.mlp.activation();
        let layers = sizes.len() - 1;
        let mut out = Interval::point(0.0);
        for li in 0..layers {
            let (fan_in, fan_out) = (sizes[li], sizes[li + 1]);
            let (p, u) = (self.param_offsets[li], self.unit_offsets[li]);
            let (below, cur) = s.act.split_at_mut(u);
            let input = if li == 0 { bx } else { &below[u - fan_in..] };
            for o in 0..fan_out {
                let mut acc = Interval::point(params[p + fan_in * fan_out + o]);
                for (a, w) in input.iter().zip(&params[p + o * fan_in..p + (o + 1) * fan_in]) {
                    acc = acc + *a * *w;
                }
                if li + 1 == layers {
                    out = acc;
                    continue;
                }
                s.pre[u + o] = acc;
                if act_fn == Activation::Tanh {
                    // tanh at the two ends, shared by the activation and
                    // derivative ranges here and the chord envelope
                    // (`t * t` is `t.powi(2)`: one correctly rounded product).
                    let (tl, th) = (acc.lo().tanh(), acc.hi().tanh());
                    s.tanh_lo[u + o] = tl;
                    s.tanh_hi[u + o] = th;
                    cur[o] = Interval::new(tl, th);
                    let (dl, dh) = (1.0 - tl * tl, 1.0 - th * th);
                    let hi = if acc.contains(0.0) { 1.0 } else { dl.max(dh) };
                    s.deriv[u + o] = Interval::new(dl.min(dh), hi);
                } else {
                    cur[o] = interval_activation(act_fn, acc);
                    s.deriv[u + o] = interval_activation_derivative(act_fn, acc);
                }
            }
        }
        out
    }

    /// Per-coordinate ranges of `∇k` into `s.adj[..n]`
    /// ([`snbc_nn::Mlp::gradient_interval`]'s backward pass over the
    /// derivative ranges [`Self::network_ranges`] left in `s`).
    // audit:hot
    fn gradient_ranges(&self, s: &mut BoxScratch) {
        use snbc_interval::Interval;
        let sizes = self.mlp.layer_sizes();
        let params = self.mlp.params();
        let layers = sizes.len() - 1;
        s.adj[0] = Interval::point(1.0);
        for li in (0..layers).rev() {
            let (fan_in, fan_out) = (sizes[li], sizes[li + 1]);
            let p = self.param_offsets[li];
            for o in 0..fan_out {
                let d = if li + 1 == layers {
                    Interval::point(1.0)
                } else {
                    s.deriv[self.unit_offsets[li] + o]
                };
                s.scaled[o] = s.adj[o] * d;
            }
            s.next[..fan_in].fill(Interval::point(0.0));
            for o in 0..fan_out {
                let sc = s.scaled[o];
                for (g, w) in s.next[..fan_in].iter_mut().zip(&params[p + o * fan_in..]) {
                    *g = *g + sc * *w;
                }
            }
            std::mem::swap(&mut s.adj, &mut s.next);
        }
    }

    /// The chord relaxation of a single-hidden-layer tanh network:
    /// `k(x) ∈ aᵀx + b₀ + env`, bounded together with `−h` term by term.
    // audit:hot
    fn chord_bound(&self, c: &ChordPoly, s: &mut BoxScratch) -> f64 {
        use snbc_interval::Interval;
        let n = self.n;
        let hidden = self.hidden_units;
        let params = self.mlp.params();
        let (b1_off, w2_off) = (n * hidden, n * hidden + hidden);
        s.affine.fill(0.0);
        let mut b0 = params[w2_off + hidden];
        let mut env = Interval::point(0.0);
        for j in 0..hidden {
            let z = s.pre[j];
            let (slope, dev) = chord_envelope(z.lo(), z.hi(), s.tanh_lo[j], s.tanh_hi[j]);
            let v = params[w2_off + j];
            let vs = v * slope;
            for (a, w) in s.affine.iter_mut().zip(&params[j * n..(j + 1) * n]) {
                *a += vs * w;
            }
            b0 += vs * params[b1_off + j];
            env = env + dev * v;
        }
        // Range of (aᵀx + b₀ − h(x)) over the box, term by term as
        // `&affine − h` would hold it: affine coefficients and merged sums
        // that are exactly zero are dropped.
        let mut acc = Interval::point(0.0);
        for (t, &(part, h_coeff)) in c.parts.iter().enumerate() {
            let affine = match part {
                AffinePart::None => None,
                AffinePart::Constant => (b0.abs() > 0.0).then_some(b0),
                AffinePart::Var(i) => kept(s.affine[i]).then_some(s.affine[i]),
            };
            let coeff = match (affine, h_coeff) {
                (Some(a), None) => a,
                (a, Some(hc)) => {
                    let merged = a.unwrap_or(0.0) + -hc;
                    if !kept(merged) {
                        continue;
                    }
                    merged
                }
                (None, None) => continue,
            };
            acc = acc + c.monomials.range_on(t, &s.pows, self.max_exp) * coeff;
        }
        let r = acc + env;
        r.hi().abs().max(r.lo().abs())
    }
}

/// Parallel-chord envelope of `tanh` on `[l, u]` given `tl = tanh(l)` and
/// `tu = tanh(u)`: returns `(s, dev)` with `tanh(z) ∈ s·z + dev` for all
/// `z ∈ [l, u]`.
fn chord_envelope(l: f64, u: f64, tl: f64, tu: f64) -> (f64, snbc_interval::Interval) {
    let width = u - l;
    let s = if width < 1e-12 {
        1.0 - tl * tl
    } else {
        (tu - tl) / width
    };
    // g(z) = tanh(z) − s·z is extremal at the endpoints or where
    // tanh'(z) = s ⇔ tanh(z) = ±√(1−s).
    let (gl, gu) = (tl - s * l, tu - s * u);
    let mut lo = gl.min(gu);
    let mut hi = gl.max(gu);
    if (0.0..=1.0).contains(&s) {
        let t = (1.0 - s).sqrt();
        for root in [t.atanh(), (-t).atanh()] {
            if root.is_finite() && root > l && root < u {
                let g = root.tanh() - s * root;
                lo = lo.min(g);
                hi = hi.max(g);
            }
        }
    }
    (s, snbc_interval::Interval::new(lo, hi))
}

#[cfg(test)]
mod chord_tests {
    use super::*;
    use snbc_interval::Interval;
    use snbc_nn::{Activation, Mlp};

    #[test]
    fn tanh_envelope_is_sound() {
        for (l, u) in [(-3.0, 2.0), (-0.5, 0.5), (0.1, 4.0), (-4.0, -1.0)] {
            let (s, dev) = chord_envelope(l, u, l.tanh(), u.tanh());
            for i in 0..=100 {
                let z = l + (u - l) * i as f64 / 100.0;
                let g = z.tanh() - s * z;
                assert!(
                    dev.lo() - 1e-12 <= g && g <= dev.hi() + 1e-12,
                    "envelope {dev} misses g({z}) = {g} on [{l}, {u}]"
                );
            }
        }
    }

    #[test]
    fn chord_bound_is_sound_and_tighter_when_near_linear() {
        let net = Mlp::new(&[3, 8, 1], Activation::Tanh, 9);
        let h: Polynomial = "0.1*x0 - 0.2*x1".parse().unwrap();
        let bx = vec![Interval::new(-0.8, 0.8); 3];
        let kernel = InclusionKernel::new(&net, &h);
        let mut s = kernel.box_scratch();
        let d_mid = kernel.midpoint_difference(&mut s, &bx);
        let [_, _, bound] = kernel.bounds(&mut s, &bx, d_mid);
        assert!(bound.is_finite(), "single hidden layer tanh has a chord bound");
        // Probe the true sup.
        let mut sup: f64 = 0.0;
        for p in snbc_dynamics::sample_box_halton(&[(-0.8, 0.8); 3], 4000) {
            sup = sup.max((net.forward(&p) - h.eval(&p)).abs());
        }
        assert!(bound >= sup - 1e-9, "chord bound {bound} < probed sup {sup}");
    }

    #[test]
    fn chord_bound_none_for_deep_networks() {
        let net = Mlp::new(&[2, 4, 4, 1], Activation::Tanh, 1);
        let kernel = InclusionKernel::new(&net, &Polynomial::zero());
        assert!(kernel.chord.is_none());
    }
}

#[cfg(test)]
mod kernel_oracle_tests {
    use super::*;
    use snbc_interval::{eval_range, widest_axis, Interval};
    use snbc_nn::{Activation, Mlp};

    /// The per-box computations of the branch-and-bound closure that
    /// [`InclusionKernel`] replaced, kept verbatim as its reference:
    /// `[d(mid), direct, mean-value, chord]`.
    fn reference_bounds(mlp: &Mlp, h: &Polynomial, bx: &[Interval]) -> [f64; 4] {
        let n = bx.len();
        let h_grad: Vec<Polynomial> = (0..n).map(|i| h.partial(i)).collect();
        let mid: Vec<f64> = bx.iter().map(|iv| iv.mid()).collect();
        let d_mid = mlp.forward(&mid) - h.eval(&mid);
        // Direct form.
        let k_range = mlp.forward_interval(bx);
        let h_range = eval_range(h, bx);
        let direct = (k_range - h_range).hi().abs().max((k_range - h_range).lo().abs());
        // Mean-value form.
        let kg = mlp.gradient_interval(bx);
        let mut mv = d_mid.abs();
        for (i, iv) in bx.iter().enumerate() {
            let hg = eval_range(&h_grad[i], bx);
            let gmax = (kg[i] - hg).hi().abs().max((kg[i] - hg).lo().abs());
            mv += gmax * iv.width() * 0.5;
        }
        // Chord relaxation.
        let chord = chord_bound(mlp, h, bx).unwrap_or(f64::INFINITY);
        [d_mid, direct, mv, chord]
    }

    /// CROWN-style bound of `max |k(x) − h(x)|` over the box for
    /// single-hidden-layer tanh MLPs; `None` for other shapes.
    fn chord_bound(mlp: &Mlp, h: &Polynomial, bx: &[Interval]) -> Option<f64> {
        if mlp.layer_sizes().len() != 3 || mlp.activation() != Activation::Tanh {
            return None;
        }
        let n = mlp.input_dim();
        let hidden = mlp.layer_sizes()[1];
        let w1 = mlp.weight_matrix(0);
        let w2 = mlp.weight_matrix(1);
        let params = mlp.params();
        let b1_off = n * hidden;
        let b2_off = b1_off + hidden + hidden;
        let out_bias = params[b2_off];

        // Affine enclosure of the network: k(x) ∈ aᵀx + b0 + [e_lo, e_hi].
        let mut a = vec![0.0; n];
        let mut b0 = out_bias;
        let mut env = Interval::point(0.0);
        for j in 0..hidden {
            // Pre-activation range (exact for the affine map).
            let mut z = Interval::point(params[b1_off + j]);
            for (i, iv) in bx.iter().enumerate() {
                z = z + *iv * w1[(j, i)];
            }
            let (l, u) = (z.lo(), z.hi());
            let (slope, dev) = tanh_chord_envelope(l, u);
            let v = w2[(0, j)];
            for (i, ai) in a.iter_mut().enumerate() {
                *ai += v * slope * w1[(j, i)];
            }
            b0 += v * slope * params[b1_off + j];
            env = env + dev * v;
        }
        // Range of (aᵀx + b0 − h(x)) over the box, plus the envelope.
        let mut affine = Polynomial::constant(b0);
        for (i, &ai) in a.iter().enumerate() {
            affine.add_term(ai, snbc_poly::Monomial::var(i));
        }
        let poly_part = &affine - h;
        let r = eval_range(&poly_part, bx) + env;
        Some(r.hi().abs().max(r.lo().abs()))
    }

    /// Parallel-chord envelope of `tanh` on `[l, u]`: returns `(s, dev)` with
    /// `tanh(z) ∈ s·z + dev` for all `z ∈ [l, u]`.
    fn tanh_chord_envelope(l: f64, u: f64) -> (f64, Interval) {
        let width = u - l;
        let s = if width < 1e-12 {
            1.0 - l.tanh().powi(2)
        } else {
            (u.tanh() - l.tanh()) / width
        };
        // g(z) = tanh(z) − s·z is extremal at the endpoints or where
        // tanh'(z) = s ⇔ tanh(z) = ±√(1−s).
        let g = |z: f64| z.tanh() - s * z;
        let mut lo = g(l).min(g(u));
        let mut hi = g(l).max(g(u));
        if (0.0..=1.0).contains(&s) {
            let t = (1.0 - s).sqrt();
            for root in [t.atanh(), (-t).atanh()] {
                if root.is_finite() && root > l && root < u {
                    lo = lo.min(g(root));
                    hi = hi.max(g(root));
                }
            }
        }
        (s, Interval::new(lo, hi))
    }

    /// xorshift64*: a fixed, dependency-free stream for the box sample.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Boxes shaped like the branch-and-bound's: random bisection paths
    /// (widest axis, left or right child) of depth 0–27 from the root.
    fn bb_boxes(domain: &[(f64, f64)], count: usize, rng: &mut Stream) -> Vec<Vec<Interval>> {
        let root: Vec<Interval> = domain.iter().map(|&(lo, hi)| Interval::new(lo, hi)).collect();
        (0..count)
            .map(|_| {
                let mut bx = root.clone();
                for _ in 0..rng.next() % 28 {
                    let (axis, _) = widest_axis(&bx).expect("non-empty box");
                    let (l, r) = bx[axis].split();
                    bx[axis] = if rng.next() % 2 == 0 { l } else { r };
                }
                bx
            })
            .collect()
    }

    /// A random `h` over every monomial of degree ≤ `degree`: a dominant
    /// linear part, as fitted controllers have, plus small terms.
    fn random_h(n: usize, degree: u32, rng: &mut Stream) -> Polynomial {
        let basis = monomial_basis(n, degree);
        let coeffs: Vec<f64> = basis
            .iter()
            .map(|m| {
                let scale = if m.degree() == 1 { 0.8 } else { 0.05 };
                scale * (2.0 * rng.unit() - 1.0)
            })
            .collect();
        Polynomial::from_coeffs(&coeffs, &basis)
    }

    fn assert_kernel_matches(net: &Mlp, h: &Polynomial, domain: &[(f64, f64)], rng: &mut Stream) {
        let kernel = InclusionKernel::new(net, h);
        let mut s = kernel.box_scratch();
        for bx in bb_boxes(domain, 250, rng) {
            let want = reference_bounds(net, h, &bx);
            let d_mid = kernel.midpoint_difference(&mut s, &bx);
            let [direct, mv, chord] = kernel.bounds(&mut s, &bx, d_mid);
            let got = [d_mid, direct, mv, chord];
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{:?} bound {k} on {bx:?}: kernel {g:e}, reference {w:e}",
                    net.layer_sizes()
                );
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_bounds_bitwise() {
        let mut rng = Stream(0x9e37_79b9_7f4a_7c15);
        let cases: [(&[usize], Activation, u32, f64); 9] = [
            (&[2, 8, 1], Activation::Tanh, 2, 1.5),
            (&[2, 8, 1], Activation::Tanh, 3, 2.0),
            (&[4, 10, 1], Activation::Tanh, 2, 1.0),
            (&[6, 10, 1], Activation::Tanh, 1, 2.0),
            (&[3, 5, 4, 1], Activation::Tanh, 2, 1.0),
            (&[3, 6, 1], Activation::Relu, 2, 1.0),
            (&[2, 5, 1], Activation::LeakyRelu(0.1), 2, 1.0),
            (&[2, 4, 1], Activation::Linear, 1, 1.0),
            (&[3, 1], Activation::Tanh, 1, 1.0),
        ];
        for (seed, (sizes, act, degree, r)) in cases.into_iter().enumerate() {
            let mut net = Mlp::new(sizes, act, seed as u64 + 1);
            // Nonzero biases, so every parameter reaches the bounds.
            let params: Vec<f64> = net.params().iter().map(|&p| p + 0.1 * (rng.unit() - 0.5)).collect();
            net.set_params(&params);
            let n = sizes[0];
            let domain: Vec<(f64, f64)> = (0..n).map(|i| (-r + 0.1 * i as f64, r)).collect();
            let h = random_h(n, degree, &mut rng);
            assert_kernel_matches(&net, &h, &domain, &mut rng);
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_a_fitted_inclusion() {
        // A Chebyshev fit of the controller itself: h's linear part tracks
        // the network's chord slopes closely, the regime of the
        // high-dimensional rows.
        let mut rng = Stream(7);
        let net = Mlp::new(&[2, 8, 1], Activation::Tanh, 3);
        let domain = [(-1.5, 1.5), (-1.0, 2.0)];
        let opts = ApproxOptions {
            mesh_spacing: 0.25,
            ..Default::default()
        };
        let fitted =
            approximate_controller(&|x| net.forward(x), net.lipschitz_bound(), &domain, &opts).unwrap();
        assert_kernel_matches(&net, &fitted.h, &domain, &mut rng);
        // h whose linear part is the chord's own `aᵀx` on the root box:
        // every linear coefficient of `aᵀx + b₀ − h` cancels to exactly
        // zero there and must be dropped.
        let kernel = InclusionKernel::new(&net, &Polynomial::zero());
        let mut s = kernel.box_scratch();
        let root: Vec<Interval> = domain.iter().map(|&(lo, hi)| Interval::new(lo, hi)).collect();
        let d_mid = kernel.midpoint_difference(&mut s, &root);
        kernel.bounds(&mut s, &root, d_mid);
        let mut h = Polynomial::zero();
        for (i, &a) in s.affine.iter().enumerate() {
            h.add_term(a, snbc_poly::Monomial::var(i));
        }
        h.add_term(0.25, snbc_poly::Monomial::new(vec![1, 1]));
        let kernel = InclusionKernel::new(&net, &h);
        let mut s = kernel.box_scratch();
        let d_mid = kernel.midpoint_difference(&mut s, &root);
        let [direct, mv, chord] = kernel.bounds(&mut s, &root, d_mid);
        let want = reference_bounds(&net, &h, &root);
        assert_eq!([d_mid, direct, mv, chord].map(f64::to_bits), want.map(f64::to_bits));
    }

    /// Times the reference computations and the kernel on the same
    /// branch-and-bound-shaped boxes of Table 1 rows (their controllers and
    /// `h`), single-threaded:
    /// `cargo test --release -p snbc -- --ignored --nocapture inclusion_kernel_perf_probe`.
    #[test]
    #[ignore = "timing probe, not a check"]
    fn inclusion_kernel_perf_probe() {
        use snbc_dynamics::benchmarks;
        use snbc_nn::{train_controller, ControllerTraining};
        for k in [1, 3, 6, 8, 9, 10, 12, 13] {
            let bench = benchmarks::benchmark(k);
            let domain = bench.system.domain().bounding_box();
            let net = train_controller(domain, bench.target_law, &ControllerTraining::default());
            let mut opts = ApproxOptions::default();
            if domain.len() >= 5 {
                opts.max_mesh_points = 3000;
                opts.degree = 1;
            }
            let h = approximate_controller(&|x| net.forward(x), net.lipschitz_bound(), domain, &opts)
                .unwrap()
                .h;
            let boxes = bb_boxes(domain, 100_000, &mut Stream(k as u64));
            let clock = std::time::Instant::now();
            let mut sink = 0.0;
            for bx in &boxes {
                sink += reference_bounds(&net, &h, bx)[1];
            }
            let before = clock.elapsed().as_secs_f64() * 1e6 / boxes.len() as f64;
            let kernel = InclusionKernel::new(&net, &h);
            let mut s = kernel.box_scratch();
            let clock = std::time::Instant::now();
            for bx in &boxes {
                let d_mid = kernel.midpoint_difference(&mut s, bx);
                sink -= kernel.bounds(&mut s, bx, d_mid)[0];
            }
            let after = clock.elapsed().as_secs_f64() * 1e6 / boxes.len() as f64;
            println!("{}: {before:.2} → {after:.2} µs per box ({:.1}×), check {sink:e}", bench.name, before / after);
        }
    }

    #[test]
    fn tanh_square_is_powi_two() {
        // The kernel and the derivative map spell `t.powi(2)` as `t * t`.
        let mut rng = Stream(3);
        for _ in 0..100_000 {
            let t = (8.0 * (2.0 * rng.unit() - 1.0)).tanh();
            assert_eq!((1.0 - t * t).to_bits(), (1.0 - t.powi(2)).to_bits(), "t = {t:e}");
        }
    }

    #[test]
    fn worst_probes_rank_by_value_then_index() {
        let mut top = vec![(0.5, 3), (0.7, 9), (0.5, 1), (0.9, 4)];
        top.extend((10..20).map(|i| (0.1, i)));
        keep_worst(&mut top);
        assert_eq!(top.len(), REFUTE_STARTS);
        assert_eq!(&top[..4], &[(0.9, 4), (0.7, 9), (0.5, 1), (0.5, 3)]);
        assert_eq!(top[4], (0.1, 10));
    }

    #[test]
    fn ascent_gradient_matches_finite_differences() {
        let net = Mlp::new(&[3, 5, 4, 1], Activation::Tanh, 4);
        let h: Polynomial = "0.3*x0 - 0.1*x1*x2 + 0.05*x2^2".parse().unwrap();
        let kernel = InclusionKernel::new(&net, &h);
        let mut s = kernel.point_scratch();
        let x = [0.2, -0.4, 0.7];
        let mut g = [0.0; 3];
        kernel.difference_at(&x, &mut s);
        kernel.difference_gradient(&x, &mut s, &mut g);
        for i in 0..3 {
            let (mut xp, mut xm) = (x, x);
            xp[i] += 1e-6;
            xm[i] -= 1e-6;
            let d = |p: &[f64]| net.forward(p) - h.eval(p);
            let fd = (d(&xp) - d(&xm)) / 2e-6;
            assert!((g[i] - fd).abs() < 1e-6, "∂/∂x{i}: {} vs {fd}", g[i]);
        }
        assert_eq!(
            kernel.difference_at(&x, &mut s).to_bits(),
            (net.forward(&x) - h.eval(&x)).to_bits()
        );
    }
}

#[cfg(test)]
mod mlp_inclusion_tests {
    use super::*;
    use snbc_nn::{Activation, Mlp};

    #[test]
    fn certified_bound_is_sound_and_tighter() {
        let net = Mlp::new(&[2, 8, 1], Activation::Tanh, 3);
        let domain = [(-1.5, 1.5), (-1.5, 1.5)];
        let opts = ApproxOptions::default();
        let lip = approximate_controller(&|x| net.forward(x), net.lipschitz_bound(), &domain, &opts)
            .unwrap();
        let cert = approximate_mlp(&net, &domain, &opts).unwrap();
        assert!(cert.sigma_star <= lip.sigma_star + 1e-12);
        // Soundness against dense probing.
        let mut sup: f64 = 0.0;
        for p in snbc_dynamics::sample_box_halton(&domain, 20_000) {
            sup = sup.max((net.forward(&p) - cert.h.eval(&p)).abs());
        }
        assert!(sup <= cert.sigma_star + 1e-9, "probed {sup} > certified {}", cert.sigma_star);
    }

    #[test]
    fn high_dimension_certification_beats_lipschitz_gap() {
        // 6-D: the Halton covering radius makes the Lipschitz bound useless;
        // the interval certification stays near the sampled error.
        let net = Mlp::new(&[6, 8, 1], Activation::Tanh, 5);
        let domain = vec![(-2.0, 2.0); 6];
        let opts = ApproxOptions {
            max_mesh_points: 2000,
            ..Default::default()
        };
        let cert = approximate_mlp(&net, &domain, &opts).unwrap();
        let lip_gap = net.lipschitz_bound() * cert.covering_radius;
        assert!(
            cert.sigma_star < 0.5 * (cert.sigma_tilde + lip_gap),
            "certified {} not tighter than Lipschitz {}",
            cert.sigma_star,
            cert.sigma_tilde + lip_gap
        );
    }
}
