//! The interior-point solver's parallel phases change no bit at any worker
//! count: the Schur rows, the block factorizations, the paired step lengths
//! and the row-parallel Schur Cholesky all write disjoint, index-owned
//! outputs with the serial operation order. The program below is large
//! enough to take every one of them in parallel.

use std::sync::{Mutex, MutexGuard};

use snbc_linalg::{Cholesky, LinalgError, Matrix};
use snbc_sdp::{BlockShape, SdpProblem, SdpSolution, SdpSolver};
use snbc_telemetry::Telemetry;
use snbc_trace::{EventKind, Trace};

/// Both tests change the worker count; run them one at a time.
static THREADS: Mutex<()> = Mutex::new(());

#[expect(clippy::disallowed_methods, reason = "serialises tests that set the worker count; no result passes through it")]
fn threads_lock() -> MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_threads<R>(t: usize, f: impl FnOnce() -> R) -> R {
    snbc_par::set_threads(Some(t));
    let r = f();
    snbc_par::set_threads(None);
    r
}

/// Deterministic values in [−1, 1).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// The exponent vectors of every monomial in `nv` variables of degree at
/// most `d`, by degree.
fn monomials(nv: usize, d: u32) -> Vec<Vec<u32>> {
    let mut out = vec![vec![0; nv]];
    let mut last = vec![vec![0; nv]];
    for _ in 0..d {
        let mut next: Vec<Vec<u32>> = Vec::new();
        for m in &last {
            // Raise variables at or after the last one raised, so each
            // monomial appears once.
            let from = m.iter().rposition(|&e| e > 0).unwrap_or(0);
            for v in from..nv {
                let mut r = m.clone();
                r[v] += 1;
                next.push(r);
            }
        }
        out.extend(next.iter().cloned());
        last = next;
    }
    out
}

fn add(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// An SOS program shaped like C9's degree-2 flow condition: six variables
/// (five states and the controller error `w`), a Gram block over the 28
/// monomials of degree ≤ 2, two multiplier Gram blocks over the 7 of degree
/// ≤ 1 (for the state ball and the `w` band), and the margin block. The
/// identity `p = zᵀ(G + t·I)z + ψ₁·σ₁ + ψ₂·σ₂` gives one constraint per
/// monomial of degree ≤ 4 plus the margin cap: m = 211. `p = zᵀPz` with
/// `P` positive definite, so the program is feasible.
fn flow_shaped_program() -> SdpProblem {
    let nv = 6;
    let quads = monomials(nv, 4);
    let gram = monomials(nv, 2);
    let lin = monomials(nv, 1);
    let row = |m: &[u32]| quads.iter().position(|q| q == m).expect("degree ≤ 4");
    let unit = |v: usize, e: u32| {
        let mut m = vec![0; nv];
        m[v] = e;
        m
    };
    // ψ₁ = 1 − Σ xᵥ² over the states, ψ₂ = 0.25 − w².
    let psi1: Vec<(Vec<u32>, f64)> = std::iter::once((vec![0; nv], 1.0))
        .chain((0..5).map(|v| (unit(v, 2), -1.0)))
        .collect();
    let psi2 = vec![(vec![0; nv], 0.25), (unit(5, 2), -1.0)];

    let (g, s1, s2, margin) = (0, 1, 2, 3);
    let mut p = SdpProblem::new(vec![
        BlockShape::Dense(gram.len()),
        BlockShape::Dense(lin.len()),
        BlockShape::Dense(lin.len()),
        BlockShape::Diag(3),
    ]);
    // p's coefficients from P = B·Bᵀ + I.
    let mut state = 11;
    let b = Matrix::from_fn(gram.len(), gram.len(), |_, _| lcg(&mut state));
    let mut pm = b.matmul(&b.transpose());
    for i in 0..gram.len() {
        pm[(i, i)] += 1.0;
    }
    let mut rhs = vec![0.0; quads.len()];
    for (i, bi) in gram.iter().enumerate() {
        for (j, bj) in gram.iter().enumerate() {
            rhs[row(&add(bi, bj))] += pm[(i, j)];
        }
    }
    for r in rhs {
        p.add_constraint(r);
    }
    for (i, bi) in gram.iter().enumerate() {
        for (j, bj) in gram.iter().enumerate().skip(i) {
            let k = row(&add(bi, bj));
            p.set_coefficient(k, g, i, j, 1.0);
            if i == j {
                // The margin: t·zᵀz.
                p.set_coefficient(k, margin, 0, 0, 1.0);
                p.set_coefficient(k, margin, 1, 1, -1.0);
            }
        }
    }
    for (block, psi) in [(s1, &psi1), (s2, &psi2)] {
        for (i, bi) in lin.iter().enumerate() {
            for (j, bj) in lin.iter().enumerate().skip(i) {
                for (beta, c) in psi {
                    let k = row(&add(beta, &add(bi, bj)));
                    p.set_coefficient(k, block, i, j, *c);
                }
            }
        }
    }
    // Maximize t = t⁺ − t⁻ subject to t⁺ − t⁻ + s = 1.
    p.set_cost(margin, 0, 0, -1.0);
    p.set_cost(margin, 1, 1, 1.0);
    let cap = p.add_constraint(1.0);
    p.set_coefficient(cap, margin, 0, 0, 1.0);
    p.set_coefficient(cap, margin, 1, 1, -1.0);
    p.set_coefficient(cap, margin, 2, 2, 1.0);
    p
}

/// Every bit of a solution the comparison covers.
fn bits(sol: &SdpSolution) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    for m in [&sol.x, &sol.z] {
        for blk in m.blocks() {
            match (blk.as_dense(), blk.as_diag()) {
                (Ok(d), _) => out.extend(d.as_slice().iter().map(|v| v.to_bits())),
                (_, Ok(d)) => out.extend(d.iter().map(|v| v.to_bits())),
                _ => unreachable!("a block is dense or diagonal"),
            }
        }
    }
    out.extend(sol.y.iter().map(|v| v.to_bits()));
    out.push(sol.primal_objective.to_bits());
    out.push(sol.dual_objective.to_bits());
    out.push(sol.iterations as u64);
    out
}

#[test]
fn an_sdp_past_every_parallel_threshold_solves_to_the_same_bits() {
    let _lock = threads_lock();
    let problem = flow_shaped_program();
    assert_eq!(problem.num_constraints(), 211);
    let solve = |t: usize| {
        let trace = Trace::recording();
        let solver = SdpSolver {
            telemetry: Telemetry::recording().with_trace(trace.clone()),
            ..SdpSolver::default()
        };
        let sol = with_threads(t, || solver.solve(&problem)).expect("the program is feasible");
        (sol, trace.dump().expect("recording trace dumps"))
    };
    let (serial, _) = solve(1);
    assert!(
        serial.primal_objective < 0.0,
        "a positive margin: {}",
        serial.primal_objective
    );
    let want = bits(&serial);
    for t in [2, 4] {
        let (sol, dump) = solve(t);
        assert_eq!(bits(&sol), want, "SNBC_THREADS={t}");
        // Not vacuous: a step length of this solve ran on a pool worker,
        // inside the `sdp` span.
        let main = dump
            .tracks
            .iter()
            .find(|tr| tr.label == "main")
            .expect("a main track");
        let sdp = |begin: bool| {
            main.events.iter().find_map(|e| match &e.kind {
                EventKind::SpanBegin { name, .. } if begin && name == "sdp" => Some(e.ts_us),
                EventKind::SpanEnd { name, .. } if !begin && name == "sdp" => Some(e.ts_us),
                _ => None,
            })
        };
        let (t0, t1) = (
            sdp(true).expect("sdp begins"),
            sdp(false).expect("sdp ends"),
        );
        let on_workers = dump
            .tracks
            .iter()
            .filter(|tr| tr.label != "main")
            .flat_map(|tr| &tr.events)
            .filter(|e| {
                matches!(&e.kind, EventKind::SpanBegin { name, .. } if name == "max-step")
                    && (t0..=t1).contains(&e.ts_us)
            })
            .count();
        assert!(
            on_workers > 0,
            "SNBC_THREADS={t}: no step length ran on a worker"
        );
    }
}

/// `B·Bᵀ + n·I` of LCG values.
fn spd(n: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let b = Matrix::from_fn(n, n, |_, _| lcg(&mut state));
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn par_rows(data: &mut [f64], len: usize, body: &(dyn Fn(usize, &mut [f64]) + Sync)) {
    snbc_par::par_for_chunks(data, len, body);
}

#[test]
fn the_row_parallel_schur_cholesky_matches_the_serial_factor_bitwise() {
    let _lock = threads_lock();
    for (case, &n) in [33usize, 97, 211, 331].iter().enumerate() {
        let a = spd(n, 40 + case as u64);
        let want = a.cholesky().expect("SPD");
        for t in [1, 2, 4] {
            let got = with_threads(t, || Cholesky::factor_in_place(a.clone(), &par_rows))
                .unwrap_or_else(|(e, _)| panic!("n = {n}: {e}"));
            let (g, w) = (got.l().as_slice(), want.l().as_slice());
            assert!(
                g.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits()),
                "n = {n}, threads = {t}: factors differ"
            );
        }
    }
    // A broken pivot in the first, a middle and the last panel: the same
    // index and pivot bits as the serial factorization, and the matrix
    // comes back as it went in.
    for (n, bad) in [(211usize, 5usize), (211, 100), (331, 330)] {
        let mut a = spd(n, 77 + bad as u64);
        a[(bad, bad)] = -1.0;
        let Err(LinalgError::NotPositiveDefinite { index, pivot }) = a.cholesky() else {
            panic!("n = {n}: the serial factorization must fail");
        };
        for t in [1, 2, 4] {
            match with_threads(t, || Cholesky::factor_in_place(a.clone(), &par_rows)) {
                Err((LinalgError::NotPositiveDefinite { index: i, pivot: v }, back)) => {
                    assert_eq!(
                        (i, v.to_bits()),
                        (index, pivot.to_bits()),
                        "n = {n}, threads = {t}"
                    );
                    assert!(
                        back.as_slice()
                            .iter()
                            .zip(a.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "n = {n}, threads = {t}: the matrix was not restored"
                    );
                }
                other => panic!(
                    "n = {n}, threads = {t}: expected a pivot failure, got {:?}",
                    other.err().map(|e| e.0)
                ),
            }
        }
    }
}
