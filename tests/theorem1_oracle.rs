//! Theorem 1's three conditions, checked through `snbc::theorem1`, against
//! the hand-built queries each site wrote out before they shared one
//! definition: the δ-complete counterexample fallback and the gradient-ascent
//! search of the CEGIS engine, and the SMT stand-in of the FOSSIL and
//! NNCChecker baselines. (The deep certificate check's box counts are pinned
//! by the strict `snbc-bench check --suite interval` baseline.)
//!
//! The `reference` module keeps those queries verbatim. On fixed C3 and C6
//! candidates, the shared definition must build the same polynomials (`==`
//! compares exact coefficients) over the same regions, and the interval
//! checks must return the same `CheckReport` (verdict, witness bits, box
//! counts). `PINNED` records the reference's verdicts and box counts, so a
//! change to the reference itself shows too.

use snbc::cex::{find_counterexample, CexConfig, ViolatedCondition};
use snbc::{Learner, LearnerConfig, Strictness, Theorem1, TrainingSets};
use snbc_dynamics::benchmarks;
use snbc_dynamics::Ccds;
use snbc_interval::{BranchAndBound, CheckReport, Verdict};
use snbc_poly::Polynomial;
use snbc_telemetry::Trace;

/// The queries as each site built them by hand.
mod reference {
    use snbc_dynamics::{Ccds, SemiAlgebraicSet};
    use snbc_interval::{BranchAndBound, CheckReport, Interval, Verdict};
    use snbc_poly::{lie_derivative, Polynomial};

    /// The engine's δ-complete fallback: one query per condition, with the
    /// bounds 0 / 1e-12 / 0 and σ ≥ 1e-9.
    pub fn fallback(
        system: &Ccds,
        b: &Polynomial,
        lambda: &Polynomial,
        closed_robust: &[Polynomial],
        sigma_star: f64,
    ) -> [(Polynomial, CheckReport); 3] {
        let bb = BranchAndBound {
            delta: 1e-3,
            max_boxes: 200_000,
            ..Default::default()
        };
        let boxed = |set: &SemiAlgebraicSet| -> Vec<Interval> {
            set.bounding_box()
                .iter()
                .map(|&(lo, hi)| Interval::new(lo, hi))
                .collect()
        };
        let init = bb.check_at_least(b, &boxed(system.init()), system.init().polys(), 0.0);
        let neg_b = -b;
        let unsafe_ = bb.check_at_least(
            &neg_b,
            &boxed(system.unsafe_set()),
            system.unsafe_set().polys(),
            1e-12,
        );
        let lie = lie_derivative(b, closed_robust);
        let expr = &lie - &(lambda * b);
        let mut dom = boxed(system.domain());
        let sigma = sigma_star.max(1e-9);
        dom.push(Interval::new(-sigma, sigma));
        let flow = bb.check_at_least(&expr, &dom, system.domain().polys(), 0.0);
        [(b.clone(), init), (neg_b, unsafe_), (expr, flow)]
    }

    /// The flow-violation polynomial `−(L_f B − λB)` over `(x, w)`.
    pub fn flow_violation(
        b: &Polynomial,
        lambda: &Polynomial,
        closed_robust: &[Polynomial],
    ) -> Polynomial {
        let lie = lie_derivative(b, closed_robust);
        -&(&lie - &(lambda * b))
    }

    /// The domain `Ψ` extended with the error coordinate `w ∈ [−σ*, σ*]`.
    pub fn extended_domain(system: &Ccds, sigma_star: f64) -> SemiAlgebraicSet {
        let sigma = sigma_star.max(1e-9);
        let mut bounds = system.domain().bounding_box().to_vec();
        bounds.push((-sigma, sigma));
        SemiAlgebraicSet::from_polys(system.domain().polys().to_vec(), &bounds)
    }

    /// The gradient-ascent search's violation polynomials and regions:
    /// `−B` on Θ, `B` on Ξ, and `−(L_f B − λB)` on Ψ × [−σ*, σ*].
    pub fn ascent(
        system: &Ccds,
        b: &Polynomial,
        lambda: &Polynomial,
        closed_robust: &[Polynomial],
        sigma_star: f64,
    ) -> [(Polynomial, SemiAlgebraicSet); 3] {
        [
            (-b, system.init().clone()),
            (b.clone(), system.unsafe_set().clone()),
            (
                flow_violation(b, lambda, closed_robust),
                extended_domain(system, sigma_star),
            ),
        ]
    }

    /// The SMT baselines' three-condition check: in order, stopping at the
    /// first undecided query. Returns each query run.
    pub fn smt(
        b: &Polynomial,
        lambda: &Polynomial,
        system: &Ccds,
        sigma: f64,
        closed_robust: &[Polynomial],
        bb: &BranchAndBound,
    ) -> Vec<(Polynomial, CheckReport)> {
        let boxed = |bounds: &[(f64, f64)]| -> Vec<Interval> {
            bounds.iter().map(|&(lo, hi)| Interval::new(lo, hi)).collect()
        };
        let mut out = Vec::new();
        let r = bb.check_at_least(
            b,
            &boxed(system.init().bounding_box()),
            system.init().polys(),
            0.0,
        );
        let stop = matches!(r.verdict, Verdict::Unknown { .. });
        out.push((b.clone(), r));
        if stop {
            return out;
        }
        let neg_b = -b;
        let r = bb.check_at_least(
            &neg_b,
            &boxed(system.unsafe_set().bounding_box()),
            system.unsafe_set().polys(),
            1e-12,
        );
        let stop = matches!(r.verdict, Verdict::Unknown { .. });
        out.push((neg_b, r));
        if stop {
            return out;
        }
        let lie = lie_derivative(b, closed_robust);
        let expr = &lie - &(lambda * b);
        let mut dom = boxed(system.domain().bounding_box());
        dom.push(Interval::new(-sigma.max(1e-9), sigma.max(1e-9)));
        let r = bb.check_at_least(&expr, &dom, system.domain().polys(), 0.0);
        out.push((expr, r));
        out
    }
}

/// A fixed candidate: `B` and `λ` from the benchmark's network shapes after
/// `epochs` of training, under `u = h(x) + w`, `h = −0.5·x0`, `|w| ≤ σ*`.
struct Fixture {
    label: String,
    system: Ccds,
    closed_robust: Vec<Polynomial>,
    sigma_star: f64,
    b: Polynomial,
    lambda: Polynomial,
}

impl Fixture {
    /// The shared definition, as the three sites build it.
    fn theorem(&self) -> Theorem1<'_> {
        let (b, lambda) = (&self.b, &self.lambda);
        let closed = &self.closed_robust;
        Theorem1::new(&self.system, b, lambda, closed, self.sigma_star, Strictness::SEARCH)
    }
}

fn fixture(row: usize, epochs: usize, sigma_star: f64) -> Fixture {
    let bench = benchmarks::benchmark(row);
    let n = bench.system.nvars();
    let closed_robust = bench.system.close_loop_with_error(&"-0.5*x0".parse().unwrap());
    let cfg = LearnerConfig {
        epochs,
        ..Default::default()
    };
    let mut learner = Learner::with_shapes(n, &bench.nn_b_hidden, &bench.lambda_spec, 1, cfg);
    if epochs > 0 {
        learner.train(&closed_robust, sigma_star, &TrainingSets::sample(&bench.system, 300, 3));
    }
    Fixture {
        label: format!("{}/{epochs}", bench.name),
        system: bench.system,
        closed_robust,
        sigma_star,
        b: learner.barrier_polynomial().prune(1e-9),
        lambda: learner.lambda_polynomial(),
    }
}

/// Per fixture, the reference queries' verdicts and box counts (`h` holds,
/// `v` violated, `u` unknown): the fallback, and the SMT check at the
/// baselines' 20 M-box budget and at a 1 000-box budget.
const PINNED: [(&str, [&str; 3]); 4] = [
    ("C3/0", ["v1 v1 v3", "v1 v1 v3", "v1 v1 v3"]),
    ("C3/300", ["h1 h1 h4665", "h1 h1 h4665", "h1 h1 u1000"]),
    ("C6/0", ["h1 v7 v7", "h1 v7 v7", "h1 v7 v7"]),
    ("C6/300", ["v39 h1 v249", "v39 h1 v249", "v39 h1 v249"]),
];

fn fixtures() -> impl Iterator<Item = (Fixture, [&'static str; 3])> {
    let params = [(3, 0, 0.05), (3, 300, 0.05), (6, 0, 0.0), (6, 300, 0.02)];
    params.into_iter().zip(PINNED).map(|((row, epochs, sigma_star), (label, pins))| {
        let f = fixture(row, epochs, sigma_star);
        assert_eq!(f.label, label);
        (f, pins)
    })
}

/// Verdicts and box counts, as `PINNED` writes them.
fn summary(queries: &[(Polynomial, CheckReport)]) -> String {
    let one = |r: &CheckReport| match r.verdict {
        Verdict::Holds => format!("h{}", r.boxes_processed),
        Verdict::Violated { .. } => format!("v{}", r.boxes_processed),
        Verdict::Unknown { .. } => format!("u{}", r.boxes_processed),
    };
    queries.iter().map(|(_, r)| one(r)).collect::<Vec<_>>().join(" ")
}

fn bb(max_boxes: usize) -> BranchAndBound {
    BranchAndBound {
        delta: 1e-3,
        max_boxes,
        ..Default::default()
    }
}

/// Checks the conditions in order through the shared definition, stopping
/// after the first verdict `stop` names.
fn shared_checks(
    f: &Fixture,
    bb: &BranchAndBound,
    stop: impl Fn(&Verdict) -> bool,
) -> Vec<(Polynomial, CheckReport)> {
    let theorem = f.theorem();
    let mut out = Vec::new();
    for kind in ViolatedCondition::ALL {
        let condition = theorem.condition(kind);
        let r = condition.check(bb, &Trace::off());
        let done = stop(&r.verdict);
        out.push((condition.poly.into_owned(), r));
        if done {
            break;
        }
    }
    out
}

/// Same polynomials and the same reports, both by `==` on exact values.
fn assert_same(
    label: &str,
    shared: &[(Polynomial, CheckReport)],
    reference: &[(Polynomial, CheckReport)],
) {
    assert_eq!(shared.len(), reference.len(), "{label}: number of queries");
    for ((p, r), (rp, rr)) in shared.iter().zip(reference) {
        assert_eq!(p, rp, "{label}: polynomial");
        assert_eq!(r, rr, "{label}: report");
    }
}

#[test]
fn fallback_queries_match_the_hand_built_ones() {
    for (f, pins) in fixtures() {
        let reference =
            reference::fallback(&f.system, &f.b, &f.lambda, &f.closed_robust, f.sigma_star);
        assert_eq!(summary(&reference), pins[0], "{}", f.label);
        let shared = shared_checks(&f, &bb(200_000), |_| false);
        assert_same(&f.label, &shared, &reference);
    }
}

#[test]
fn ascent_searches_match_the_hand_built_ones() {
    let cfg = CexConfig {
        seed: 18,
        ..Default::default()
    };
    for (f, _) in fixtures() {
        let reference =
            reference::ascent(&f.system, &f.b, &f.lambda, &f.closed_robust, f.sigma_star);
        let theorem = f.theorem();
        for (kind, (v, set)) in ViolatedCondition::ALL.into_iter().zip(&reference) {
            let condition = theorem.condition(kind);
            assert_eq!(&-condition.poly.as_ref(), v, "{} {kind:?}: violation", f.label);
            assert_eq!(condition.region.bounding_box(), set.bounding_box());
            assert_eq!(condition.region.polys(), set.polys());
            let shared = format!("{:?}", condition.search(&cfg));
            let hand_built = format!("{:?}", find_counterexample(v, set, kind, &cfg));
            assert_eq!(shared, hand_built, "{} {kind:?}: counterexample", f.label);
        }
    }
}

#[test]
fn smt_queries_match_the_hand_built_ones() {
    for (f, pins) in fixtures() {
        for (site, max_boxes) in [(1, 20_000_000), (2, 1_000)] {
            let bb = bb(max_boxes);
            let reference =
                reference::smt(&f.b, &f.lambda, &f.system, f.sigma_star, &f.closed_robust, &bb);
            assert_eq!(summary(&reference), pins[site], "{}", f.label);
            let undecided = |v: &Verdict| matches!(v, Verdict::Unknown { .. });
            let shared = shared_checks(&f, &bb, undecided);
            assert_same(&f.label, &shared, &reference);
        }
    }
}
