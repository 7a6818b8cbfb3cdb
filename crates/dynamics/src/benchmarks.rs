//! The evaluation benchmark suite: the Academic 3D example (eq. (18)) and
//! reconstructions of C1–C14 from Table 1.
//!
//! The DAC paper cites each benchmark's dynamics from the literature
//! (\[3, 4, 5, 8, 9, 13, 16\] in its bibliography) without reprinting them.
//! This module reconstructs a suite with **exactly the published
//! signatures** — state dimension `n_x`, field degree `d_f`, and the NN
//! shapes of the `NN_B(x)` / `NN_λ(x)` columns — drawing on the publicly
//! known members of those families (the Darboux system of \[16\], polynomial
//! academic systems of \[3, 4\], bilinear stabilization chains of \[13\],
//! linear signalling cascades of \[9\], and a linearized quadcopter model of
//! \[8\]). Every entry documents its provenance in [`Benchmark::citation`].
//! Table 1's claims are about *scaling in `n_x` and `d_f`* and about which
//! tool solves which instance; those properties depend only on the preserved
//! signatures.
//!
//! Each benchmark also carries the stabilizing feedback law used as the
//! regression target for controller pre-training (the documented substitute
//! for the paper's DDPG training — the synthesis pipeline consumes only the
//! resulting fixed network).

use snbc_poly::Polynomial;

use crate::{Ccds, SemiAlgebraicSet};

/// Shape of the multiplier network `λ(x)` (Table 1's `NN_λ(x)` column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LambdaSpec {
    /// A trainable constant (the `c` entries).
    Constant,
    /// A linear network with the given hidden widths.
    Linear(Vec<usize>),
}

/// One benchmark instance: the controlled system plus everything Table 1
/// records about how SNBC is configured on it.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name (`C1` … `C14`, or `Academic3D`).
    pub name: &'static str,
    /// Row index in Table 1 (0 for the running example).
    pub index: usize,
    /// The controlled system `⟨f, Θ, Ψ⟩` with unsafe set `Ξ`.
    pub system: Ccds,
    /// Stabilizing feedback law regressed by the NN controller.
    pub target_law: fn(&[f64]) -> f64,
    /// Hidden widths of the quadratic network for `B(x)` (`NN_B(x)`).
    pub nn_b_hidden: Vec<usize>,
    /// Multiplier network shape (`NN_λ(x)`).
    pub lambda_spec: LambdaSpec,
    /// Where the reconstruction draws from.
    pub citation: &'static str,
    /// Published `d_f` (sanity-checked against the constructed field).
    pub d_f: u32,
}

fn p(s: &str) -> Polynomial {
    s.parse().expect("benchmark polynomial literal")
}

fn boxes(n: usize, half: f64) -> Vec<(f64, f64)> {
    vec![(-half, half); n]
}

/// The running example of §5 (eq. (18)): the academic 3D model with
/// `Ψ = [−2.2, 2.2]³`, `Θ = [−0.4, 0.4]³`, `Ξ = [2, 2.2]³`.
pub fn academic_3d() -> Benchmark {
    let field = vec![
        p("x2 + 8*x1"),        // ẋ = z + 8y
        p("-x1 + x2"),         // ẏ = −y + z
        p("-x2 - x0^2 + x3"),  // ż = −z − x² + u
    ];
    let system = Ccds::new(
        "Academic3D",
        field,
        SemiAlgebraicSet::box_set(&boxes(3, 0.4)),
        SemiAlgebraicSet::box_set(&boxes(3, 2.2)),
        SemiAlgebraicSet::box_set(&[(2.0, 2.2), (2.0, 2.2), (2.0, 2.2)]),
    );
    Benchmark {
        name: "Academic3D",
        index: 0,
        system,
        target_law: |x| -2.0 * x[0] - 8.0 * x[1] - 3.0 * x[2],
        nn_b_hidden: vec![10],
        lambda_spec: LambdaSpec::Linear(vec![5]),
        citation: "eq. (18) of the paper itself (Example 1)",
        d_f: 2,
    }
}

/// Benchmark `C_i` for `i ∈ 1..=14`.
///
/// # Panics
///
/// Panics for indices outside `1..=14`.
pub fn benchmark(i: usize) -> Benchmark {
    let b = match i {
        1 => Benchmark {
            name: "C1",
            index: 1,
            system: Ccds::new(
                "C1",
                vec![p("x1"), p("-2*x0 - 3*x1 + 0.25*x0^3 + x2")],
                SemiAlgebraicSet::box_set(&boxes(2, 0.3)),
                SemiAlgebraicSet::box_set(&boxes(2, 2.0)),
                SemiAlgebraicSet::box_set(&[(1.4, 1.9), (1.4, 1.9)]),
            ),
            target_law: |x| -x[0],
            nn_b_hidden: vec![10],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "cubic academic system family of Chesi [4]",
            d_f: 3,
        },
        2 => Benchmark {
            name: "C2",
            index: 2,
            system: Ccds::new(
                "C2",
                vec![p("-x0 + 0.5*x0^2*x1"), p("-x1 + x2")],
                SemiAlgebraicSet::box_set(&boxes(2, 0.3)),
                SemiAlgebraicSet::box_set(&boxes(2, 1.2)),
                SemiAlgebraicSet::box_set(&[(0.9, 1.1), (0.9, 1.1)]),
            ),
            target_law: |x| -0.5 * x[1],
            nn_b_hidden: vec![10],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "bilinear-cubic BMI benchmark family of Chen et al. [3]",
            d_f: 3,
        },
        3 => Benchmark {
            name: "C3",
            index: 3,
            system: Ccds::new(
                "C3",
                vec![p("x1"), p("-x0 - x1 + 0.5*x0^2 + x2")],
                SemiAlgebraicSet::box_set(&boxes(2, 0.3)),
                SemiAlgebraicSet::box_set(&boxes(2, 2.0)),
                SemiAlgebraicSet::box_set(&[(1.4, 1.9), (1.4, 1.9)]),
            ),
            target_law: |x| -0.5 * x[0],
            nn_b_hidden: vec![5],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "quadratic academic system family of Chesi [4]",
            d_f: 2,
        },
        4 => Benchmark {
            name: "C4",
            index: 4,
            system: Ccds::new(
                "C4",
                vec![p("x1 + 2*x0*x1"), p("-x0 + 2*x0^2 - x1^2 + x2")],
                SemiAlgebraicSet::box_set(&boxes(2, 0.3)),
                SemiAlgebraicSet::box_set(&boxes(2, 2.0)),
                SemiAlgebraicSet::box_set(&[(1.5, 2.0), (1.5, 2.0)]),
            ),
            target_law: |x| -x[1],
            nn_b_hidden: vec![20],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "Darboux system of Zeng et al. [16] with control channel",
            d_f: 2,
        },
        5 => Benchmark {
            name: "C5",
            index: 5,
            system: Ccds::new(
                "C5",
                vec![p("x1"), p("-x0 - x1 + 0.33*x0^3 + x2")],
                SemiAlgebraicSet::box_set(&boxes(2, 0.3)),
                SemiAlgebraicSet::box_set(&boxes(2, 1.8)),
                SemiAlgebraicSet::box_set(&[(1.3, 1.7), (1.3, 1.7)]),
            ),
            target_law: |x| -0.3 * x[0],
            nn_b_hidden: vec![5],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "Darboux-type cubic benchmark of Zeng et al. [16]",
            d_f: 3,
        },
        6 => Benchmark {
            name: "C6",
            index: 6,
            system: Ccds::new(
                "C6",
                vec![
                    p("x1"),
                    p("x2"),
                    p("-x0 - 2*x1 - 2*x2 + 0.2*x0^3 + x3"),
                ],
                SemiAlgebraicSet::box_set(&boxes(3, 0.3)),
                SemiAlgebraicSet::box_set(&boxes(3, 2.0)),
                SemiAlgebraicSet::box_set(&[(1.4, 1.9), (1.4, 1.9), (1.4, 1.9)]),
            ),
            target_law: |x| -0.5 * x[0],
            nn_b_hidden: vec![5],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "3-D cubic chain of Chen et al. [3]",
            d_f: 3,
        },
        7 => Benchmark {
            name: "C7",
            index: 7,
            system: Ccds::new(
                "C7",
                vec![
                    p("-x0 + x1"),
                    p("-x1 + 0.25*x2^2"),
                    p("-x2 + x3"),
                ],
                SemiAlgebraicSet::box_set(&boxes(3, 0.3)),
                SemiAlgebraicSet::box_set(&boxes(3, 2.0)),
                SemiAlgebraicSet::box_set(&[(1.4, 1.9), (1.4, 1.9), (1.4, 1.9)]),
            ),
            target_law: |x| -x[2],
            nn_b_hidden: vec![5],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "NN-controller case study family of Deshmukh et al. [5]",
            d_f: 2,
        },
        8 => Benchmark {
            name: "C8",
            index: 8,
            system: Ccds::new(
                "C8",
                vec![
                    p("x1"),
                    p("-x0 - x1 + 0.25*x2^3"),
                    p("x3"),
                    p("-x2 - x3 + x4"),
                ],
                SemiAlgebraicSet::ball(&[0.0; 4], 0.3),
                SemiAlgebraicSet::ball(&[0.0; 4], 2.0),
                SemiAlgebraicSet::ball(&[1.5, 0.0, 0.0, 0.0], 0.25),
            ),
            target_law: |x| -0.5 * x[2],
            nn_b_hidden: vec![5],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "coupled-oscillator cubic system family of Chesi [4]",
            d_f: 3,
        },
        9 => Benchmark {
            name: "C9",
            index: 9,
            system: Ccds::new(
                "C9",
                chain_quadratic(5),
                SemiAlgebraicSet::ball(&[0.0; 5], 0.3),
                SemiAlgebraicSet::ball(&[0.0; 5], 2.0),
                SemiAlgebraicSet::ball(&[1.5, 0.0, 0.0, 0.0, 0.0], 0.25),
            ),
            target_law: |x| -0.5 * x[4],
            nn_b_hidden: vec![10],
            lambda_spec: LambdaSpec::Linear(vec![5, 5]),
            citation: "bilinear stabilization chains of Sassi & Sankaranarayanan [13]",
            d_f: 2,
        },
        10 => Benchmark {
            name: "C10",
            index: 10,
            system: Ccds::new(
                "C10",
                chain_quadratic(6),
                SemiAlgebraicSet::ball(&[0.0; 6], 0.3),
                SemiAlgebraicSet::ball(&[0.0; 6], 2.0),
                SemiAlgebraicSet::ball(&[1.5, 0.0, 0.0, 0.0, 0.0, 0.0], 0.25),
            ),
            target_law: |x| -0.5 * x[5],
            nn_b_hidden: vec![15],
            lambda_spec: LambdaSpec::Constant,
            citation: "6-D quadratic benchmark family of Zeng et al. [16]",
            d_f: 2,
        },
        11 => Benchmark {
            name: "C11",
            index: 11,
            system: Ccds::new(
                "C11",
                chain_cubic(6),
                SemiAlgebraicSet::ball(&[0.0; 6], 0.3),
                SemiAlgebraicSet::ball(&[0.0; 6], 2.0),
                SemiAlgebraicSet::ball(&[1.5, 0.0, 0.0, 0.0, 0.0, 0.0], 0.25),
            ),
            target_law: |x| -0.5 * x[5],
            nn_b_hidden: vec![20],
            lambda_spec: LambdaSpec::Constant,
            citation: "6-D cubic benchmark family of Chen et al. [3]",
            d_f: 3,
        },
        12 => Benchmark {
            name: "C12",
            index: 12,
            system: Ccds::new(
                "C12",
                cascade_linear(7),
                SemiAlgebraicSet::ball(&[0.0; 7], 0.3),
                SemiAlgebraicSet::ball(&[0.0; 7], 2.0),
                SemiAlgebraicSet::ball(&[1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.25),
            ),
            target_law: |x| -0.5 * x[0],
            nn_b_hidden: vec![20],
            lambda_spec: LambdaSpec::Linear(vec![5]),
            citation: "linear signalling cascade, systems-biology model of Klipp et al. [9]",
            d_f: 1,
        },
        13 => Benchmark {
            name: "C13",
            index: 13,
            system: Ccds::new(
                "C13",
                cascade_linear(9),
                SemiAlgebraicSet::ball(&[0.0; 9], 0.3),
                SemiAlgebraicSet::ball(&[0.0; 9], 2.0),
                SemiAlgebraicSet::ball(&[1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.25),
            ),
            target_law: |x| -0.5 * x[0],
            nn_b_hidden: vec![15],
            lambda_spec: LambdaSpec::Constant,
            citation: "longer linear cascade of Klipp et al. [9]",
            d_f: 1,
        },
        14 => Benchmark {
            name: "C14",
            index: 14,
            system: Ccds::new(
                "C14",
                quadcopter_12(),
                SemiAlgebraicSet::ball(&[0.0; 12], 0.3),
                SemiAlgebraicSet::ball(&[0.0; 12], 2.0),
                SemiAlgebraicSet::ball(
                    &[1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    0.25,
                ),
            ),
            target_law: |x| -0.5 * x[5],
            nn_b_hidden: vec![20],
            lambda_spec: LambdaSpec::Constant,
            citation: "linearized 12-state quadcopter model from the dReal benchmarks [8]",
            d_f: 1,
        },
        other => panic!("benchmark index {other} outside 1..=14"),
    };
    debug_assert_eq!(b.system.field_degree(), b.d_f.max(1), "{}: d_f mismatch", b.name);
    b
}

/// All 14 Table 1 benchmarks in order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    (1..=14).map(benchmark).collect()
}

/// Contractive chain with quadratic coupling:
/// `ẋᵢ = −xᵢ + 0.25·xᵢ₊₁²` for `i < n−1`, `ẋ_{n−1} = −x_{n−1} + u`.
fn chain_quadratic(n: usize) -> Vec<Polynomial> {
    let mut f = Vec::with_capacity(n);
    for i in 0..n - 1 {
        f.push(p(&format!("-x{i} + 0.25*x{}^2", i + 1)));
    }
    f.push(p(&format!("-x{} + x{}", n - 1, n)));
    f
}

/// Contractive chain with cubic coupling:
/// `ẋᵢ = −xᵢ + 0.2·xᵢ₊₁³` for `i < n−1`, `ẋ_{n−1} = −x_{n−1} + u`.
fn chain_cubic(n: usize) -> Vec<Polynomial> {
    let mut f = Vec::with_capacity(n);
    for i in 0..n - 1 {
        f.push(p(&format!("-x{i} + 0.2*x{}^3", i + 1)));
    }
    f.push(p(&format!("-x{} + x{}", n - 1, n)));
    f
}

/// Linear signalling cascade: the input drives the first species, each
/// downstream species is produced from its predecessor and degrades.
fn cascade_linear(n: usize) -> Vec<Polynomial> {
    let mut f = Vec::with_capacity(n);
    f.push(p(&format!("-0.5*x0 + x{n}")));
    for i in 1..n {
        f.push(p(&format!("0.5*x{} - 0.5*x{i}", i - 1)));
    }
    f
}

/// Linearized 12-state quadcopter: position/velocity pairs per axis with
/// damped dynamics, attitude (roll, pitch, yaw) with damped rates, thrust
/// input on the vertical velocity channel. `d_f = 1`.
fn quadcopter_12() -> Vec<Polynomial> {
    // States: 0..3 positions (x, y, z), 3..6 velocities, 6..9 angles
    // (φ, θ, ψ), 9..12 angular rates (p, q, r); input u = x12.
    let mut f = Vec::with_capacity(12);
    // ṗᵢ = vᵢ
    for i in 0..3 {
        f.push(p(&format!("x{}", i + 3)));
    }
    // v̇x = −vx + 0.5θ; v̇y = −vy − 0.5φ; v̇z = −pz − vz + u.
    f.push(p("-x3 + 0.5*x7"));
    f.push(p("-x4 - 0.5*x6"));
    f.push(p("-x2 - x5 + x12"));
    // Attitude: φ̇ = p, θ̇ = q, ψ̇ = r.
    for i in 0..3 {
        f.push(p(&format!("x{}", i + 9)));
    }
    // Rates: damped second-order: ṗ = −φ − p, q̇ = −θ − q, ṙ = −ψ − r.
    for i in 0..3 {
        f.push(p(&format!("-x{} - x{}", i + 6, i + 9)));
    }
    // Positions x, y have no direct feedback: add gentle position damping so
    // the closed loop is contractive on the whole domain.
    f[0] = p("x3 - 0.2*x0");
    f[1] = p("x4 - 0.2*x1");
    f
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exact in binary floating point")]
mod tests {
    use super::*;
    use crate::simulate;

    #[test]
    fn signatures_match_table_one() {
        let expected: [(usize, u32); 14] = [
            (2, 3),
            (2, 3),
            (2, 2),
            (2, 2),
            (2, 3),
            (3, 3),
            (3, 2),
            (4, 3),
            (5, 2),
            (6, 2),
            (6, 3),
            (7, 1),
            (9, 1),
            (12, 1),
        ];
        for (i, (nx, df)) in expected.iter().enumerate() {
            let b = benchmark(i + 1);
            assert_eq!(b.system.nvars(), *nx, "{} n_x", b.name);
            assert_eq!(b.system.field_degree(), *df, "{} d_f", b.name);
            assert_eq!(b.d_f, *df, "{} recorded d_f", b.name);
        }
    }

    #[test]
    fn academic_3d_matches_equation_18() {
        let b = academic_3d();
        // At (x, y, z) = (1, 1, 1) with u = 0: (z+8y, −y+z, −z−x²) = (9, 0, −2).
        let dx = b.system.eval_field(&[1.0, 1.0, 1.0], 0.0);
        assert_eq!(dx, vec![9.0, 0.0, -2.0]);
        // And u enters ż affinely.
        let dxu = b.system.eval_field(&[1.0, 1.0, 1.0], 2.5);
        assert_eq!(dxu[2], 0.5);
    }

    #[test]
    fn target_laws_stabilize_from_initial_corners() {
        // Every benchmark's closed loop under the *target* law keeps
        // trajectories from Θ's sampled points inside Ψ and out of Ξ for a
        // 10-second horizon — the qualitative property the DDPG controllers
        // of the paper provide.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut cases = all_benchmarks();
        cases.push(academic_3d());
        for b in &cases {
            for x0 in b.system.init().sample(5, &mut rng) {
                let traj = simulate(&b.system, b.target_law, &x0, 0.01, 1000);
                assert!(
                    !traj.enters(b.system.unsafe_set()),
                    "{}: trajectory from {x0:?} enters the unsafe set",
                    b.name
                );
                assert!(
                    traj.max_norm() < 50.0,
                    "{}: trajectory from {x0:?} diverges",
                    b.name
                );
            }
        }
    }

    #[test]
    fn initial_and_unsafe_sets_disjoint() {
        for b in all_benchmarks() {
            let c = b.system.unsafe_set().box_center();
            assert!(
                !b.system.init().contains(&c),
                "{}: unsafe center inside init set",
                b.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=14")]
    fn out_of_range_panics() {
        let _ = benchmark(15);
    }
}
