//! Golden §3 inclusions of the Table 1 rows C8–C14, and the verdicts behind
//! the refute-before-prove ladder of `snbc::approximate_mlp`.
//!
//! The ladder skips every σ rung that a concrete point (the `witness` gauge
//! on the `approx` span) already exceeds, instead of running the interval
//! branch-and-bound on it. That must never change σ*: the pinned bits below
//! were produced by the ladder that searched every rung, and the verdict
//! test runs that search, kept verbatim, on each rung the ladder now skips.

use std::sync::OnceLock;
use std::time::Duration;

use snbc::{approximate_mlp, ApproxOptions, PolynomialInclusion};
use snbc_dynamics::benchmarks;
use snbc_interval::{eval_range, wave_search, widest_axis, BoxEval, Interval};
use snbc_nn::{train_controller, Activation, ControllerTraining, Mlp};
use snbc_poly::Polynomial;
use snbc_telemetry::Telemetry;
use snbc_trace::Trace;

/// `(row, controller seed, σ* bits, σ̃ bits, h)`, from the release build
/// that searched every rung: C8–C14 at the Table 1 controller seed (7), and
/// C9 at seed 8, whose witness is within 9% of the rung that certifies, so a
/// looser skip test would change its σ*.
const GOLDEN: [(usize, u64, u64, u64, &str); 8] = [
    (8, 7, 0x3faa6fcbf7772376, 0x3f9d49f2b82404ad, "0.0000010730572474601324*x0^2 + 0.0000681491777997954*x0*x1 + 0.00017014530895753706*x0*x2 + 0.00001127697951387041*x0*x3 + 0.00008002514274710307*x1^2 + 0.0002551060696534144*x1*x2 - 0.000020036524159115094*x1*x3 - 0.0006089083388606776*x2^2 - 0.00004910477871720104*x2*x3 + 0.00000021097644811606456*x3^2 - 0.001312927549373857*x0 - 0.0005322605503483952*x1 - 0.4860793178560772*x2 + 0.0007400083803267701*x3 + 0.0002987045199191133"),
    (9, 7, 0x3f96d2597e67c143, 0x3f92daa305ad1e79, "-0.000048749059510252205*x0 - 0.0003733312084327278*x1 + 0.00047506656972203036*x2 + 0.0005932249624063511*x3 - 0.49229110328146375*x4 + 0.0005599345131252705"),
    (10, 7, 0x3f9bfbeb1b86805c, 0x3f973c17f327acc4, "0.00029059066197519007*x0 + 0.0002585751836253556*x1 + 0.00001800287970122817*x2 - 0.000610877734966688*x3 + 0.0010990945133688061*x4 - 0.4906516375667427*x5 + 0.0008365032655853016"),
    (11, 7, 0x3f9bfbeb1b86805c, 0x3f973c17f327acc4, "0.00029059066197519007*x0 + 0.0002585751836253556*x1 + 0.00001800287970122817*x2 - 0.000610877734966688*x3 + 0.0010990945133688061*x4 - 0.4906516375667427*x5 + 0.0008365032655853016"),
    (12, 7, 0x3fa40ed5631ae818, 0x3f962c7ca085654c, "-0.48939213207347254*x0 + 0.0002938316476328809*x1 + 0.001114787007475444*x2 + 0.0014645761469061942*x3 - 0.00014166825781732455*x4 - 0.0003298773562065013*x5 - 0.00075691996940292*x6 + 0.0020151840583224247"),
    (13, 7, 0x3fa51b3257dc4f5c, 0x3f9749f624ff767e, "-0.48852943402285376*x0 + 0.0005052964995456078*x1 + 0.00017982750176385624*x2 - 0.0015554994864526027*x3 + 0.0012139327895392515*x4 - 0.00040552519088221607*x5 + 0.001751210479461231*x6 + 0.0005970078254280824*x7 + 0.0003731570173224058*x8 - 0.00001072948298486767"),
    (9, 8, 0x3f9b1d92f9181cdc, 0x3f9682ccbd25c43e, "-0.00012135929496739635*x0 + 0.0004568649912317589*x1 - 0.0014210582449150264*x2 - 0.0001889703026240064*x3 - 0.49060549764853834*x4 + 0.000799841462526991"),
    (14, 7, 0x3fa426b622e03c0c, 0x3f964e108c2ec144, "-0.0001619991241981641*x0 + 0.0005796278888576762*x1 + 0.0005308749151331*x2 - 0.00002443079440899484*x3 + 0.00000726676017102469*x4 - 0.4896138288135947*x5 - 0.0010117734810373418*x6 + 0.0003030351217859082*x7 - 0.0010256459025255224*x8 + 0.0007434770151989084*x9 - 0.0004105346936067014*x10 + 0.0001413575376592525*x11 - 0.00017342433850249251"),
];

/// The rounding margin of the ladder's skip test (`witness > σ + 1e-9`).
const REFUTE_MARGIN: f64 = 1e-9;

/// Runs `approximate_mlp` with a recording sink; returns the inclusion and
/// the `witness` gauge.
fn inclusion(net: &Mlp, domain: &[(f64, f64)], opts: &ApproxOptions) -> (PolynomialInclusion, f64) {
    let telemetry = Telemetry::recording();
    let opts = ApproxOptions {
        telemetry: telemetry.clone(),
        ..opts.clone()
    };
    let inc = approximate_mlp(net, domain, &opts).expect("inclusion");
    let report = telemetry.report().expect("recording sink yields a report");
    let witness = report
        .root
        .find("approx")
        .and_then(|a| a.gauge("witness"))
        .expect("witness gauge on the approx span");
    (inc, witness)
}

/// A Table 1 row's controller, domain and §3 options, with its inclusion
/// and witness.
struct Row {
    controller: Mlp,
    domain: Vec<(f64, f64)>,
    inclusion: PolynomialInclusion,
    witness: f64,
}

fn table1_row(k: usize) -> Row {
    controller_row(k, ControllerTraining::default().seed)
}

fn controller_row(k: usize, seed: u64) -> Row {
    let bench = benchmarks::benchmark(k);
    let training = ControllerTraining {
        seed,
        ..Default::default()
    };
    let controller =
        train_controller(bench.system.domain().bounding_box(), bench.target_law, &training);
    let cfg = snbc_bench::snbc_config_for(&bench, Duration::from_secs(7200));
    let domain = bench.system.domain().bounding_box().to_vec();
    let (inclusion, witness) = inclusion(&controller, &domain, &cfg.approx);
    Row {
        controller,
        domain,
        inclusion,
        witness,
    }
}

/// C8 is shared by its golden and verdict tests: its 20 000-point
/// Chebyshev LP is the costliest inclusion here.
fn c8() -> &'static Row {
    static ROW: OnceLock<Row> = OnceLock::new();
    ROW.get_or_init(|| table1_row(8))
}

fn assert_golden(k: usize, seed: u64, row: &Row) {
    let (.., sigma_star, sigma_tilde, h) = GOLDEN
        .into_iter()
        .find(|g| (g.0, g.1) == (k, seed))
        .expect("row has a golden entry");
    let inc = &row.inclusion;
    assert_eq!(inc.sigma_star.to_bits(), sigma_star, "C{k}: σ* = {:e}", inc.sigma_star);
    assert_eq!(inc.sigma_tilde.to_bits(), sigma_tilde, "C{k}: σ̃ = {:e}", inc.sigma_tilde);
    assert_eq!(inc.h.to_string(), h, "C{k}: h");
    assert!(
        row.witness <= inc.sigma_star,
        "C{k}: |k − h| = {:e} at a point, above the certified σ* = {:e}",
        row.witness,
        inc.sigma_star
    );
}

#[test]
fn c8_inclusion_is_pinned() {
    assert_golden(8, 7, c8());
}

#[test]
fn c9_inclusion_is_pinned() {
    assert_golden(9, 7, &table1_row(9));
}

#[test]
fn c9_inclusion_near_its_witness_is_pinned() {
    assert_golden(9, 8, &controller_row(9, 8));
}

#[test]
fn c10_inclusion_is_pinned() {
    assert_golden(10, 7, &table1_row(10));
}

#[test]
fn c11_inclusion_is_pinned() {
    assert_golden(11, 7, &table1_row(11));
}

#[test]
fn c12_inclusion_is_pinned() {
    assert_golden(12, 7, &table1_row(12));
}

#[test]
fn c13_inclusion_is_pinned() {
    assert_golden(13, 7, &table1_row(13));
}

#[test]
fn c14_inclusion_is_pinned() {
    assert_golden(14, 7, &table1_row(14));
}

/// The rungs the ladder skipped: those below the accepted σ* that the
/// witness exceeds. The rung sequence is the ladder's own: σ₁ =
/// max(1.2·probed + 1e-4, σ̃) from the 4000-point Halton probe, then ×1.5
/// while below the Theorem 2 bound.
fn skipped_rungs(net: &Mlp, domain: &[(f64, f64)], inc: &PolynomialInclusion, witness: f64) -> Vec<f64> {
    let mut probed: f64 = 0.0;
    for p in snbc_dynamics::sample_box_halton(domain, 4000) {
        probed = probed.max((net.forward(&p) - inc.h.eval(&p)).abs());
    }
    let theorem2 = inc.sigma_tilde + inc.covering_radius * inc.lipschitz;
    let mut skipped = Vec::new();
    let mut sigma = (probed * 1.2 + 1e-4).max(inc.sigma_tilde);
    while sigma < theorem2 && sigma.to_bits() != inc.sigma_star.to_bits() {
        if witness > sigma + REFUTE_MARGIN {
            skipped.push(sigma);
        }
        sigma *= 1.5;
    }
    skipped
}

#[test]
fn c8_skipped_rung_is_one_the_full_search_rejects() {
    // Degree-2 h at the Table 1 seed: the witness skips the first rung.
    let row = c8();
    let skipped = skipped_rungs(&row.controller, &row.domain, &row.inclusion, row.witness);
    assert!(!skipped.is_empty(), "C8's first rung is skipped");
    let budget = 60_000 * (1 + row.domain.len() / 4);
    for sigma in skipped {
        assert!(
            !certify_searching(&row.controller, &row.inclusion.h, &row.domain, sigma, budget),
            "C8 rung {sigma:e}"
        );
    }
}

#[test]
fn constructed_2d_skipped_rungs_are_ones_the_full_search_rejects() {
    // Two steep tanh ridges whose crossing is a spot of |k − h| ≈ 1.56
    // that the mesh and the Halton probe miss (probed ≈ 0.84), so the
    // ascent's witness skips two rungs.
    let (st, c0, c1, hw) = (100.0, -0.25, 0.15, 0.01);
    let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, 1);
    net.set_params(&[
        st, 0.0, st, 0.0, 0.0, st, 0.0, st, // W1: units 0, 1 read x0; 2, 3 read x1
        -st * (c0 - hw), -st * (c0 + hw), -st * (c1 - hw), -st * (c1 + hw),
        0.5, -0.5, 0.55, -0.5, 0.0,
    ]);
    let domain = [(-1.0, 1.0); 2];
    let (inc, witness) = inclusion(&net, &domain, &ApproxOptions::default());
    let skipped = skipped_rungs(&net, &domain, &inc, witness);
    assert_eq!(skipped.len(), 2, "the constructed spot skips two rungs");
    for sigma in skipped {
        assert!(!certify_searching(&net, &inc.h, &domain, sigma, 60_000), "2-D rung {sigma:e}");
    }
}

// ---------------------------------------------------------------------------
// The branch-and-bound search of one rung before the per-box kernel, kept
// verbatim (only the wave engine's scratch arguments are new).

fn certify_searching(
    mlp: &Mlp,
    h: &Polynomial,
    domain: &[(f64, f64)],
    sigma: f64,
    max_boxes: usize,
) -> bool {
    let n = domain.len();
    let h_grad: Vec<Polynomial> = (0..n).map(|i| h.partial(i)).collect();
    let root: Vec<Interval> = domain.iter().map(|&(lo, hi)| Interval::new(lo, hi)).collect();
    let outcome = wave_search(root, max_boxes, &Trace::off(), || (), |(), bx| {
        let mid: Vec<f64> = bx.iter().map(|iv| iv.mid()).collect();
        let d_mid = mlp.forward(&mid) - h.eval(&mid);
        if d_mid.abs() > sigma {
            // Concrete violation of this σ level: abort the whole search.
            return BoxEval::Refuted { witness: mid, value: d_mid };
        }
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
        if direct.min(mv).min(chord) <= sigma {
            return BoxEval::Discharged;
        }
        match widest_axis(bx) {
            Some((_, width)) if width >= 1e-6 => BoxEval::Split,
            // Cannot prove at this precision: give up on this σ level.
            _ => BoxEval::Refuted { witness: mid, value: d_mid },
        }
    });
    outcome.refuted.is_none() && outcome.exhausted.is_none()
}

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
