//! The racing driver: K candidate CEGIS loops advanced in deterministic
//! round-robin waves over `snbc-par`.
//!
//! # Scheduling and the winner rule
//!
//! The race expands a [`ConfigGrid`] into candidates and advances **all**
//! live candidates by exactly one cooperative slice per wave — a slice is
//! either the candidate's setup (§3 abstraction + network/sample
//! initialization) or one whole CEGIS round of its [`snbc::CegisEngine`].
//! Slices within a wave run in parallel via `snbc_par::par_for_chunks`
//! (chunk length 1: each candidate is a disjoint `&mut` unit), and the wave
//! boundary is a barrier.
//!
//! Because every candidate is bitwise deterministic in isolation (per-
//! candidate seeds, `snbc-par` inside the slice) and the wave barrier fixes
//! *when* winners are compared, the race outcome depends only on the grid —
//! never on `SNBC_THREADS` or scheduling luck: among all candidates that
//! have certified by the end of a wave, **the lowest grid index wins**. A
//! candidate that certifies in a later wave than another can never win over
//! it, and within a wave the index decides.
//!
//! To keep that contract load-invariant, racing candidates are budgeted by
//! **round count only**: the base config's wall-clock `time_limit` is
//! neutralized per candidate (a slow machine must not flip a candidate from
//! `InProgress` to `TimedOut` and change the winner), and `max_iterations`
//! — which also caps the wave loop — is the deterministic budget. The
//! one-shot [`Snbc::synthesize`] timeout contract is unchanged outside the
//! racer.
//!
//! # Observability
//!
//! Each candidate records into its own [`Telemetry::fork`] so concurrent
//! spans cannot interleave; after the race only the winner's span tree is
//! adopted (in deterministic position) under the `race` span, alongside the
//! `candidates_launched` / `waves` / `race_winner_index` counters.
//!
//! Each candidate's engine also emits its progress events into one private
//! buffer ([`Progress::fork_buffer`]). At every wave barrier the buffers
//! drain into the race's sink in grid-index order, followed by a `wave`
//! event. That sink is whatever the caller fanned out — a stream, a metric
//! registry, a cache record — so every view sees one thread-count-invariant
//! event order.

use snbc::{CegisEngine, CegisStatus, Snbc, SnbcConfig, SnbcResult};
use snbc_dynamics::benchmarks::Benchmark;
use snbc_metrics::{Progress, ProgressEvent};
use snbc_nn::Mlp;
use snbc_telemetry::Telemetry;

use crate::grid::{CandidateConfig, ConfigGrid};

/// Result of one race.
#[derive(Debug)]
pub struct RaceOutcome {
    /// The deterministic winner, if any candidate certified.
    pub winner: Option<RaceWinner>,
    /// Number of candidates the grid expanded to.
    pub candidates_launched: usize,
    /// Waves executed (setup wave included) before the race settled.
    pub waves: usize,
    /// Candidates whose setup failed (§3 LP infeasible), as
    /// `(grid index, message)` pairs in grid order.
    pub failures: Vec<(usize, String)>,
}

/// The winning candidate and its verified certificate.
#[derive(Debug)]
pub struct RaceWinner {
    /// The grid point that won.
    pub config: CandidateConfig,
    /// Its synthesis result (barrier, multiplier, margins, timings).
    pub result: SnbcResult,
}

/// One racing unit: a candidate configuration plus its cooperative state.
struct Candidate {
    cfg: CandidateConfig,
    tele: Telemetry,
    /// Private event buffer, drained into the race's sink in grid-index
    /// order at each wave barrier (see the module docs on determinism).
    prog: Progress,
    lane: Lane,
}

enum Lane {
    /// Not yet constructed; the next slice runs setup (§3 abstraction).
    Pending(Box<SnbcConfig>),
    /// Mid-CEGIS; the next slice runs one round.
    Running(Box<CegisEngine>),
    /// Reached a terminal CEGIS status.
    Done(CegisStatus),
    /// Setup failed (§3 LP infeasible); the candidate is out of the race.
    Failed(String),
}

impl Candidate {
    /// Runs one cooperative slice. No-op once the candidate is settled.
    fn advance(&mut self, bench: &Benchmark, controller: &Mlp) {
        // Temporarily park a cheap placeholder so the lane can be moved out.
        let lane = std::mem::replace(&mut self.lane, Lane::Failed(String::new()));
        self.lane = match lane {
            Lane::Pending(cfg) => {
                let snbc = Snbc::new(*cfg)
                    .with_telemetry(self.tele.clone())
                    .with_progress(self.prog.clone());
                match snbc.engine(bench, controller) {
                    Ok(engine) => Lane::Running(Box::new(engine)),
                    Err(e) => Lane::Failed(e.to_string()),
                }
            }
            Lane::Running(mut engine) => {
                let status = engine.step();
                if status.is_terminal() {
                    Lane::Done(status)
                } else {
                    Lane::Running(engine)
                }
            }
            settled => settled,
        };
    }

    fn certified(&self) -> bool {
        matches!(&self.lane, Lane::Done(s) if s.is_certified())
    }

    /// Whether the candidate still has work to do.
    fn live(&self) -> bool {
        matches!(self.lane, Lane::Pending(_) | Lane::Running(_))
    }
}

/// Races the grid's candidates on a benchmark with its pre-trained
/// controller and returns the deterministic winner (lowest grid index among
/// the candidates certified at the end of the settling wave), or `None` when
/// every candidate exhausts its iteration budget or fails setup. The base
/// config's wall-clock `time_limit` is neutralized per candidate — racing
/// budgets by deterministic round count, see the module docs.
///
/// Records a `race` span on `telemetry` carrying `candidates_launched`,
/// `waves`, and (when a winner exists) `race_winner_index`, with the
/// winner's full CEGIS span tree adopted beneath it. The candidates' events
/// reach `progress` in grid-index order at each wave barrier, each wave
/// closed by a `wave` event; when `progress` is off, no event is built.
pub fn race(
    bench: &Benchmark,
    controller: &Mlp,
    base: &SnbcConfig,
    grid: &ConfigGrid,
    telemetry: &Telemetry,
    progress: &Progress,
) -> RaceOutcome {
    let span = telemetry.span("race");
    let mut candidates: Vec<Candidate> = grid
        .expand()
        .into_iter()
        .map(|cfg| {
            // Budget by round count only: a wall-clock limit is machine- and
            // load-dependent, so a candidate tripping `TimedOut` near the
            // budget could flip the winner between runs and break the
            // bitwise-determinism contract. `max_iterations` (which also
            // caps the wave loop below) is the racing budget.
            let mut applied = cfg.apply(base);
            applied.time_limit = std::time::Duration::MAX;
            Candidate {
                tele: telemetry.fork(),
                prog: progress.fork_buffer().with_candidate(cfg.index as u64),
                lane: Lane::Pending(Box::new(applied)),
                cfg,
            }
        })
        .collect();
    let launched = candidates.len();

    // Wave cap: one setup slice, at most `max_iterations` rounds, plus one
    // slack slice for the terminal-status bookkeeping — a race can never
    // need more, so the cap only guards against bookkeeping bugs.
    let max_waves = base.max_iterations + 2;
    let mut waves = 0usize;
    while waves < max_waves {
        if candidates.iter().all(|c| !c.live()) {
            break;
        }
        waves += 1;
        snbc_par::par_for_chunks(&mut candidates, 1, |_idx, unit| {
            for cand in unit {
                cand.advance(bench, controller);
            }
        });
        // Barrier: the wave is complete for *every* candidate before any
        // winner is declared, so the set of certified candidates at this
        // point is independent of the worker count. Candidate event buffers
        // drain here, in grid-index order — the one serialization point
        // that keeps the merged stream independent of `SNBC_THREADS`.
        if progress.is_on() {
            for cand in &candidates {
                cand.prog.drain_into(progress);
            }
            let live = candidates.iter().filter(|c| c.live()).count();
            let certified = candidates.iter().filter(|c| c.certified()).count();
            progress.emit(ProgressEvent::Wave {
                wave: waves as u64,
                live: live as u64,
                certified: certified as u64,
            });
        }
        if candidates.iter().any(Candidate::certified) {
            break;
        }
    }

    telemetry.add("candidates_launched", launched as u64);
    telemetry.add("waves", waves as u64);
    let failures: Vec<(usize, String)> = candidates
        .iter()
        .filter_map(|c| match &c.lane {
            Lane::Failed(msg) => Some((c.cfg.index, msg.clone())),
            _ => None,
        })
        .collect();
    let winner = candidates
        .iter()
        .position(Candidate::certified)
        .and_then(|i| {
            telemetry.add("race_winner_index", candidates[i].cfg.index as u64);
            telemetry.adopt(&candidates[i].tele);
            let cand = candidates.swap_remove(i);
            match cand.lane {
                Lane::Done(CegisStatus::Certified(result)) => Some(RaceWinner {
                    config: cand.cfg,
                    result: *result,
                }),
                _ => None,
            }
        });
    drop(span);
    RaceOutcome {
        winner,
        candidates_launched: launched,
        waves,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snbc_dynamics::benchmarks;
    use snbc_nn::{train_controller, ControllerTraining};

    fn c3_setup() -> (Benchmark, Mlp) {
        let bench = benchmarks::benchmark(3);
        let controller = train_controller(
            bench.system.domain().bounding_box(),
            bench.target_law,
            &ControllerTraining {
                epochs: 300,
                ..Default::default()
            },
        );
        (bench, controller)
    }

    #[test]
    fn race_winner_matches_solo_synthesis() {
        let (bench, controller) = c3_setup();
        let base = SnbcConfig {
            max_iterations: 12,
            ..Default::default()
        };
        let grid = ConfigGrid {
            seeds: vec![1, 2],
            lambda_degrees: vec![1],
            multiplier_degrees: vec![2],
            mesh_points: vec![20_000],
        };
        let telemetry = Telemetry::recording();
        let _root = telemetry.span("test");
        let outcome = race(&bench, &controller, &base, &grid, &telemetry, &Progress::off());
        let winner = outcome.winner.expect("some candidate certifies");
        assert_eq!(outcome.candidates_launched, 2);
        assert!(outcome.waves >= 2, "setup wave + at least one round");

        // The winner's certificate must equal the one the solo driver finds
        // with the same candidate configuration.
        let cands = grid.expand();
        let solo = Snbc::new(cands[winner.config.index].apply(&base))
            .synthesize(&bench, &controller)
            .expect("solo run certifies too");
        assert_eq!(winner.result.barrier, solo.barrier);
        assert_eq!(winner.result.lambda, solo.lambda);
        assert_eq!(winner.result.iterations, solo.iterations);
    }

    #[test]
    fn empty_grid_has_no_winner() {
        let (bench, controller) = c3_setup();
        let grid = ConfigGrid {
            seeds: vec![],
            ..Default::default()
        };
        let telemetry = Telemetry::off();
        let outcome = race(
            &bench,
            &controller,
            &SnbcConfig::default(),
            &grid,
            &telemetry,
            &Progress::off(),
        );
        assert!(outcome.winner.is_none());
        assert_eq!(outcome.candidates_launched, 0);
        assert_eq!(outcome.waves, 0);
    }
}
