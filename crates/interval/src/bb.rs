//! δ-complete branch-and-prune over boxes, built on a deterministic
//! parallel *wave engine* (see [`wave_search`]).
//!
//! # The wave engine and the determinism contract
//!
//! The classic branch-and-prune loop is a serial depth-first stack: pop a
//! box, bound the polynomial on it, prune / accept / split. Boxes are
//! independent once popped, so the expensive per-box work (range bounding,
//! midpoint evaluation) parallelizes — but a naive parallel queue makes the
//! *order* in which boxes are examined depend on thread scheduling, and with
//! it the box counts, the reported witness, and the budget cutoff point.
//! That violates the workspace contract that `SNBC_THREADS` never changes an
//! output bit (docs/PARALLELISM.md).
//!
//! The wave engine keeps the contract by making the exploration order a
//! *pure function of the problem*:
//!
//! 1. a serial driver takes a fixed-size **wave** of boxes off the top of
//!    the depth-first stack (top first, i.e. classic DFS order);
//! 2. every box in the wave is evaluated — independently and in parallel
//!    via [`snbc_par::par_map_collect`], which stores results in
//!    index-ordered slots;
//! 3. the verdicts are merged **serially in wave order**: the first refuted
//!    box in wave order wins, δ-undecided boxes update the most-suspicious
//!    candidate with a strict `<` (ties keep the earlier box), and split
//!    children are pushed back in fixed order.
//!
//! Which boxes form a wave, what each evaluation returns, and how verdicts
//! merge are all independent of the worker count; threads change wall-clock
//! only. Small waves (fewer than [`MIN_PARALLEL_WAVE`] boxes) skip the
//! parallel machinery entirely — same results, no spawn overhead — which is
//! what keeps sub-second problems from paying for threads they cannot use
//! (see docs/PERFORMANCE.md for the measured crossover).

use snbc_poly::Polynomial;
use snbc_trace::Trace;

use crate::{bernstein_range, eval_range, Interval};

/// Range-bounding method used by the branch-and-prune loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RangeTightening {
    /// Term-wise interval evaluation (cheapest per box).
    #[default]
    Interval,
    /// Bernstein-form enclosures (more work per box, far fewer boxes on
    /// dependency-heavy polynomials; falls back to intervals beyond the
    /// tensor-size cap).
    Bernstein,
}

/// Outcome of a δ-complete check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The inequality holds everywhere in the region (a proof).
    Holds,
    /// A concrete point violating the inequality was found.
    Violated {
        /// The violating point.
        witness: Vec<f64>,
        /// The (violating) value of the checked polynomial there.
        value: f64,
    },
    /// Undecided at precision δ: boxes of width < δ remain where the bound
    /// could not be proven, the hallmark weak answer of δ-complete solvers.
    Unknown {
        /// Midpoint of the most suspicious remaining box.
        witness: Vec<f64>,
        /// Interval lower bound of the polynomial on that box.
        value: f64,
    },
}

/// Statistics-bearing result of [`BranchAndBound::check_at_least`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// The decision.
    pub verdict: Verdict,
    /// Boxes examined by the branch-and-prune loop.
    pub boxes_processed: usize,
    /// Deepest subdivision level reached.
    pub max_depth: usize,
}

// ---------------------------------------------------------------------------
// The deterministic wave engine

/// Verdict of one box evaluation inside [`wave_search`].
#[derive(Debug, Clone, PartialEq)]
pub enum BoxEval {
    /// The box is fully discharged (proven, or pruned as infeasible).
    Discharged,
    /// A concrete refutation: the whole search stops with this witness.
    Refuted {
        /// The refuting point.
        witness: Vec<f64>,
        /// The value observed there.
        value: f64,
    },
    /// The box is too small to split further but could not be discharged;
    /// it becomes a candidate for the most-suspicious δ-box.
    Undecided {
        /// The box midpoint.
        witness: Vec<f64>,
        /// A score; the candidate with the smallest score wins (strict
        /// `<`, so ties keep the earliest box in exploration order).
        value: f64,
    },
    /// Split the box along its widest dimension and keep searching.
    Split,
}

/// Result of a [`wave_search`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveOutcome {
    /// First refutation in exploration order, if any.
    pub refuted: Option<(Vec<f64>, f64)>,
    /// Most suspicious δ-undecided box (smallest score, earliest wins ties).
    pub suspicious: Option<(Vec<f64>, f64)>,
    /// Boxes evaluated before the search ended.
    pub boxes_processed: usize,
    /// Deepest subdivision level reached.
    pub max_depth: usize,
    /// The next pending box, when the box budget ran out with work still
    /// pending.
    pub exhausted: Option<Vec<Interval>>,
}

/// Boxes taken per wave: bounds frontier memory at `O(wave · depth)` while
/// giving the workers enough independent boxes to stay busy.
const WAVE_TARGET: usize = 256;

/// Boxes per traced evaluation chunk inside a wave. The chunk grid depends
/// only on the wave length, so trace span counts are thread-count-invariant.
const EVAL_CHUNK: usize = 16;

/// Waves shorter than this run inline on the caller: the per-wave spawn
/// cost (~tens of µs) exceeds the per-box work for small frontiers, which
/// is exactly the regime of sub-second quickstart-sized problems.
pub const MIN_PARALLEL_WAVE: usize = 64;

/// Deterministic parallel branch-and-bound driver.
///
/// Explores the tree rooted at `root` depth-first in waves (see the wave
/// engine discussion in the crate docs), evaluating each box with `eval`
/// and splitting
/// [`BoxEval::Split`] boxes along their widest dimension. Stops at the first
/// [`BoxEval::Refuted`] box in exploration order, or when `max_boxes`
/// evaluations have been spent. The result is bitwise identical at any
/// `SNBC_THREADS` setting.
///
/// `scratch` builds the evaluator's reusable state (buffers that keep a
/// box evaluation allocation-free), in the style of
/// [`snbc_par::par_for_chunks_scratch`]: once per parallel evaluation chunk,
/// and once per search for the waves that run inline. Scratch contents must
/// not influence verdicts.
///
/// When `trace` is recording, each parallel evaluation chunk emits a
/// `bb-boxes` span on the worker that ran it, so Perfetto timelines and the
/// self-time profile show the branch-and-bound fan-out per worker.
pub fn wave_search<S, I, F>(
    root: Vec<Interval>,
    max_boxes: usize,
    trace: &Trace,
    scratch: I,
    eval: F,
) -> WaveOutcome
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[Interval]) -> BoxEval + Sync,
{
    let mut stack: Vec<(Vec<Interval>, usize)> = vec![(root, 0)];
    let mut inline_scratch: Option<S> = None;
    let mut boxes_processed = 0usize;
    let mut max_depth = 0usize;
    let mut suspicious: Option<(Vec<f64>, f64)> = None;

    while let Some(top) = stack.last() {
        let remaining = max_boxes.saturating_sub(boxes_processed);
        if remaining == 0 {
            return WaveOutcome {
                refuted: None,
                suspicious,
                boxes_processed,
                max_depth,
                exhausted: Some(top.0.clone()),
            };
        }
        let w = WAVE_TARGET.min(stack.len()).min(remaining);
        let mut wave = stack.split_off(stack.len() - w);
        wave.reverse(); // wave[0] is the former stack top: classic DFS order
        boxes_processed += w;

        let evals: Vec<BoxEval> = if w < MIN_PARALLEL_WAVE {
            // Same computation, no spawns: the engine below this size is
            // pure overhead (docs/PERFORMANCE.md). Identical bits either way.
            let s = inline_scratch.get_or_insert_with(&scratch);
            wave.iter().map(|(bx, _)| eval(s, bx)).collect()
        } else {
            let wave_ref = &wave;
            let (scratch, eval) = (&scratch, &eval);
            let chunks: Vec<Vec<BoxEval>> =
                snbc_par::par_map_collect(w.div_ceil(EVAL_CHUNK), |c| {
                    let lo = c * EVAL_CHUNK;
                    let hi = (lo + EVAL_CHUNK).min(w);
                    let span = trace.begin_span("bb-boxes", Some(c as u64));
                    let mut s = scratch();
                    let out: Vec<BoxEval> =
                        wave_ref[lo..hi].iter().map(|(bx, _)| eval(&mut s, bx)).collect();
                    trace.end_span("bb-boxes", span);
                    out
                });
            chunks.into_iter().flatten().collect()
        };

        // Serial merge in wave (= exploration) order.
        let mut splits: Vec<(Vec<Interval>, usize)> = Vec::new();
        for ((bx, depth), ev) in wave.into_iter().zip(evals) {
            max_depth = max_depth.max(depth);
            match ev {
                BoxEval::Discharged => {}
                BoxEval::Refuted { witness, value } => {
                    return WaveOutcome {
                        refuted: Some((witness, value)),
                        suspicious,
                        boxes_processed,
                        max_depth,
                        exhausted: None,
                    };
                }
                BoxEval::Undecided { witness, value } => {
                    let better = suspicious.as_ref().is_none_or(|(_, v)| value < *v);
                    if better {
                        suspicious = Some((witness, value));
                    }
                }
                BoxEval::Split => {
                    let Some((axis, _)) = widest_axis(&bx) else {
                        continue; // 0-dimensional: nothing to split
                    };
                    let (l, r) = bx[axis].split();
                    let mut left = bx.clone();
                    left[axis] = l;
                    let mut right = bx;
                    right[axis] = r;
                    splits.push((left, depth + 1));
                    splits.push((right, depth + 1));
                }
            }
        }
        // Children of earlier wave boxes land nearer the stack top, and for
        // each split the right child is explored first — the same order the
        // serial DFS produced.
        for pair in splits.chunks(2).rev() {
            for child in pair {
                stack.push(child.clone());
            }
        }
    }

    WaveOutcome {
        refuted: None,
        suspicious,
        boxes_processed,
        max_depth,
        exhausted: None,
    }
}

/// Index and width of the widest dimension of a box (`None` for empty boxes).
/// This is the branch-and-prune split rule: halving the widest axis shrinks
/// the box diameter fastest, which is what drives the Lipschitz-style range
/// bounds toward convergence.
pub fn widest_axis(bx: &[Interval]) -> Option<(usize, f64)> {
    bx.iter()
        .enumerate()
        .map(|(i, iv)| (i, iv.width()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

// ---------------------------------------------------------------------------
// The δ-complete decision procedure

/// δ-complete branch-and-prune verifier for polynomial inequalities over
/// boxes — the reproduction's stand-in for dReal (see the
/// [crate docs](crate)).
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    /// Precision: boxes narrower than this in every dimension are no longer
    /// split; an undecided such box yields [`Verdict::Unknown`].
    pub delta: f64,
    /// Budget on processed boxes (guards the exponential worst case, standing
    /// in for the paper's 7200 s timeout).
    pub max_boxes: usize,
    /// Range-bounding method.
    pub tightening: RangeTightening,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            delta: 1e-3,
            max_boxes: 2_000_000,
            tightening: RangeTightening::default(),
        }
    }
}

impl BranchAndBound {
    /// Decides whether `p(x) ≥ bound` for all `x` in `domain` satisfying
    /// `gᵢ(x) ≥ 0` for every side constraint.
    ///
    /// A [`Verdict::Violated`] witness is a concrete point in the constrained
    /// region where `p < bound` (validated by direct evaluation). If the box
    /// budget is exhausted the current most-suspicious box is reported as
    /// [`Verdict::Unknown`].
    ///
    /// Box evaluations run in parallel through the deterministic
    /// [`wave_search`] engine: the verdict, the witness, and the box counts
    /// are bitwise identical at any `SNBC_THREADS` setting
    /// (`tests/par_determinism.rs` enforces this end to end).
    ///
    /// # Panics
    ///
    /// Panics if `domain` has fewer coordinates than the polynomials use.
    pub fn check_at_least(
        &self,
        p: &Polynomial,
        domain: &[Interval],
        constraints: &[Polynomial],
        bound: f64,
    ) -> CheckReport {
        self.check_at_least_traced(p, domain, constraints, bound, &Trace::off())
    }

    /// [`BranchAndBound::check_at_least`] with an attached trace sink: the
    /// wave engine emits per-chunk `bb-boxes` spans on the workers that
    /// evaluate them (see docs/TRACING.md).
    pub fn check_at_least_traced(
        &self,
        p: &Polynomial,
        domain: &[Interval],
        constraints: &[Polynomial],
        bound: f64,
        trace: &Trace,
    ) -> CheckReport {
        let range_of = |p: &Polynomial, bx: &[Interval]| match self.tightening {
            RangeTightening::Interval => eval_range(p, bx),
            RangeTightening::Bernstein => bernstein_range(p, bx),
        };
        let outcome = wave_search(domain.to_vec(), self.max_boxes, trace, || (), |(), bx| {
            // Constraint pruning: if some gᵢ is provably negative on the box,
            // the region does not intersect it.
            if constraints.iter().any(|g| range_of(g, bx).hi() < 0.0) {
                return BoxEval::Discharged;
            }
            let range = range_of(p, bx);
            if range.lo() >= bound {
                return BoxEval::Discharged; // proven on this box
            }
            // Try the midpoint as a concrete counterexample.
            let mid: Vec<f64> = bx.iter().map(|i| i.mid()).collect();
            let feasible = constraints.iter().all(|g| g.eval(&mid) >= 0.0);
            if feasible {
                let v = p.eval(&mid);
                if v < bound {
                    return BoxEval::Refuted {
                        witness: mid,
                        value: v,
                    };
                }
            }
            // Box too small to split further: δ-undecided. A 0-dimensional
            // box has no axis to split, so it is terminal by definition.
            let Some((_, width)) = widest_axis(bx) else {
                return BoxEval::Discharged;
            };
            if width < self.delta {
                return BoxEval::Undecided {
                    witness: mid,
                    value: range.lo(),
                };
            }
            BoxEval::Split
        });

        let verdict = if let Some((witness, value)) = outcome.refuted {
            Verdict::Violated { witness, value }
        } else if let Some(pending) = outcome.exhausted {
            // Without a δ-box, the pending box's midpoint and its interval
            // lower bound.
            let (witness, value) = outcome.suspicious.unwrap_or_else(|| {
                let mid = pending.iter().map(|iv| iv.mid()).collect();
                (mid, range_of(p, &pending).lo())
            });
            Verdict::Unknown { witness, value }
        } else if let Some((witness, value)) = outcome.suspicious {
            Verdict::Unknown { witness, value }
        } else {
            Verdict::Holds
        };
        CheckReport {
            verdict,
            boxes_processed: outcome.boxes_processed,
            max_depth: outcome.max_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box(n: usize) -> Vec<Interval> {
        vec![Interval::new(-1.0, 1.0); n]
    }

    #[test]
    fn proves_positive_polynomial() {
        let p: Polynomial = "x0^2 + x1^2 + 0.5".parse().unwrap();
        let r = BranchAndBound::default().check_at_least(&p, &unit_box(2), &[], 0.0);
        assert_eq!(r.verdict, Verdict::Holds);
    }

    #[test]
    fn finds_violation_with_valid_witness() {
        let p: Polynomial = "x0^2 + x1^2 - 0.5".parse().unwrap();
        let r = BranchAndBound::default().check_at_least(&p, &unit_box(2), &[], 0.0);
        match r.verdict {
            Verdict::Violated { witness, value } => {
                assert!(value < 0.0);
                assert!((p.eval(&witness) - value).abs() < 1e-12);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn constraint_restricts_region() {
        // p = x₀ is negative on [−1,0) but we constrain to x₀ ≥ 0.25.
        let p: Polynomial = "x0".parse().unwrap();
        let g: Polynomial = "x0 - 0.25".parse().unwrap();
        let r = BranchAndBound::default().check_at_least(&p, &unit_box(1), &[g], 0.0);
        assert_eq!(r.verdict, Verdict::Holds);
    }

    #[test]
    fn boundary_case_is_delta_undecided_or_proven() {
        // p = x² ≥ 0 is tight at 0: interval arithmetic proves each box
        // eventually (powi is exact for even powers), so this should hold.
        let p: Polynomial = "x0^2".parse().unwrap();
        let r = BranchAndBound::default().check_at_least(&p, &unit_box(1), &[], 0.0);
        assert_eq!(r.verdict, Verdict::Holds);
    }

    #[test]
    fn strict_bound_on_touching_polynomial_is_unknown() {
        // x² ≥ 1e−12 fails only at the single point 0; δ-completeness yields
        // Unknown (cannot prove, cannot produce a strict violation if the
        // midpoint never lands exactly at 0... it does: mid of [−1,1] is 0).
        let p: Polynomial = "x0^2".parse().unwrap();
        let r = BranchAndBound::default().check_at_least(&p, &unit_box(1), &[], 1e-12);
        assert!(matches!(
            r.verdict,
            Verdict::Violated { .. } | Verdict::Unknown { .. }
        ));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // (x₀²+x₁²−1)² + 1e−4 holds everywhere but the interval dependency
        // problem along the circle forces deep subdivision; a 10-box budget
        // cannot finish.
        let p: Polynomial = "(x0^2 + x1^2 - 1)^2 + 0.0001".parse().unwrap();
        let bb = BranchAndBound {
            delta: 1e-12,
            max_boxes: 10,
            ..Default::default()
        };
        let r = bb.check_at_least(&p, &unit_box(2), &[], 0.0);
        // Tiny budget: can't finish.
        assert!(matches!(r.verdict, Verdict::Unknown { .. }));
        assert!(r.boxes_processed >= 10);
    }

    #[test]
    fn bernstein_tightening_prunes_faster() {
        // Dependency-heavy positivity query: (x−y)² + 0.01 > 0.
        let p: Polynomial = "(x0 - x1)^2 + 0.01".parse().unwrap();
        let dom = unit_box(2);
        let interval = BranchAndBound::default().check_at_least(&p, &dom, &[], 0.0);
        let bern = BranchAndBound {
            tightening: RangeTightening::Bernstein,
            ..Default::default()
        }
        .check_at_least(&p, &dom, &[], 0.0);
        assert_eq!(interval.verdict, Verdict::Holds);
        assert_eq!(bern.verdict, Verdict::Holds);
        assert!(
            bern.boxes_processed * 4 <= interval.boxes_processed,
            "bernstein {} boxes vs interval {}",
            bern.boxes_processed,
            interval.boxes_processed
        );
    }

    #[test]
    fn dimension_blowup_is_measurable() {
        // The number of boxes grows with dimension for a tight bound — the
        // phenomenon that makes SMT-style verification stall in Table 1.
        let mk = |n: usize| {
            let terms: Vec<String> = (0..n).map(|i| format!("x{i}^2")).collect();
            let p: Polynomial = format!("{} + 0.001", terms.join("+")).parse().unwrap();
            BranchAndBound::default()
                .check_at_least(&p, &unit_box(n), &[], 0.0)
                .boxes_processed
        };
        assert!(mk(1) <= mk(3), "box count should not shrink with dimension");
    }

    #[test]
    fn traced_check_emits_worker_chunk_spans() {
        // A dependency-heavy proof processes enough boxes to cross
        // MIN_PARALLEL_WAVE, so the traced run must contain `bb-boxes`
        // chunk spans — and the same verdict as the untraced run.
        let p: Polynomial = "(x0 - x1)^2 + 0.01".parse().unwrap();
        let dom = unit_box(2);
        let bb = BranchAndBound::default();
        let plain = bb.check_at_least(&p, &dom, &[], 0.0);
        let trace = Trace::recording();
        let traced = bb.check_at_least_traced(&p, &dom, &[], 0.0, &trace);
        assert_eq!(plain, traced, "tracing must not change the result");
        let dump = trace.dump().expect("recording trace dumps");
        let spans = dump
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| {
                matches!(&e.kind, snbc_trace::EventKind::SpanBegin { name, .. } if name == "bb-boxes")
            })
            .count();
        assert!(spans > 0, "expected bb-boxes spans in the traced run");
    }

    #[test]
    fn a_budget_spent_before_any_delta_box_reports_the_pending_box_bound() {
        // (x0 − x1)² + 0.01, expanded: interval arithmetic cannot prove it
        // on a wide box and no midpoint refutes it, so ten boxes end the
        // search with nothing narrower than δ.
        let p: Polynomial = "x0^2 - 2*x0*x1 + x1^2 + 0.01".parse().unwrap();
        let bb = BranchAndBound {
            max_boxes: 10,
            ..Default::default()
        };
        let report = bb.check_at_least(&p, &unit_box(2), &[], 0.0);
        let Verdict::Unknown { witness, value } = &report.verdict else {
            panic!("expected Unknown, got {report:?}");
        };
        assert_eq!(report.boxes_processed, 10);
        assert!(value.is_finite() && *value < 0.0, "lower bound {value}");
        // The witness is a box midpoint, and the bound is that box's.
        assert!(witness.iter().all(|w| (-1.0..=1.0).contains(w)), "{witness:?}");
        assert_eq!(report, report.clone());
    }

    #[test]
    fn wave_search_engine_is_deterministic_across_thread_counts() {
        // Direct engine-level check (the end-to-end leg lives in
        // tests/par_determinism.rs): identical outcome at 1 vs 4 workers.
        let p: Polynomial = "(x0^2 + x1^2 - 1)^2 + 0.0001".parse().unwrap();
        let run = |threads: usize| {
            snbc_par::set_threads(Some(threads));
            let r = BranchAndBound::default().check_at_least(&p, &unit_box(2), &[], 0.0);
            snbc_par::set_threads(None);
            r
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }
}
