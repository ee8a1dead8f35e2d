//! One-call experiment helpers: run a (goal, server, user) triple over many
//! seeds and summarize.
//!
//! Most experiment code in this workspace follows the same skeleton — spawn
//! world, build execution, run, evaluate. This module packages that skeleton
//! so downstream experiments are one function call, with the same
//! deterministic seed-forking discipline as [`crate::helpful`] and
//! [`crate::validate`].
//!
//! Trials are independent by construction — each forks its own rng stream
//! from the root seed — so the harness fans them out over [`crate::par`].
//! Results are aggregated in trial order, which makes every report
//! bit-identical to the sequential loop regardless of `GOC_THREADS`.

use crate::exec::Execution;
use crate::goal::{CompactGoal, CompactMonitor, FiniteGoal, FiniteMonitor};
use crate::par;
use crate::rng::GocRng;
use crate::strategy::{BoxedServer, BoxedUser};

/// Summary of repeated runs of one pairing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuccessReport {
    /// Trials in which the goal was achieved.
    pub successes: u32,
    /// Trials run.
    pub trials: u32,
    /// Rounds to success per successful trial (finite goals: rounds at
    /// halt; compact goals: settle round).
    pub rounds: Vec<u64>,
}

impl SuccessReport {
    /// Success fraction in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.successes as f64 / self.trials as f64
    }

    /// `true` if every trial succeeded.
    pub fn always(&self) -> bool {
        self.trials > 0 && self.successes == self.trials
    }

    /// Mean rounds-to-success over the successful trials.
    ///
    /// Returns `None` when **no** trial succeeded (`rounds` is empty): a mean
    /// over zero samples is undefined, and returning `Some(0.0)` would make a
    /// total failure look like an instant success.
    pub fn mean_rounds(&self) -> Option<f64> {
        if self.rounds.is_empty() {
            return None;
        }
        Some(self.rounds.iter().sum::<u64>() as f64 / self.rounds.len() as f64)
    }

    /// Maximum rounds-to-success over the successful trials.
    ///
    /// Returns `None` when no trial succeeded, for the same reason as
    /// [`SuccessReport::mean_rounds`].
    pub fn max_rounds(&self) -> Option<u64> {
        self.rounds.iter().max().copied()
    }

    /// 95th-percentile rounds-to-success over the successful trials
    /// (nearest-rank: the smallest recorded value ≥ 95% of the sample), or
    /// `None` when no trial succeeded.
    pub fn p95_rounds(&self) -> Option<u64> {
        if self.rounds.is_empty() {
            return None;
        }
        let mut sorted = self.rounds.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() * 95).div_ceil(100).max(1);
        Some(sorted[rank - 1])
    }
}

/// Runs a finite goal `trials` times with fresh server/user instances and
/// seeds forked from `seed`; reports successes and rounds-to-halt.
///
/// # Examples
///
/// ```
/// use goc_core::harness::finite_success;
/// use goc_core::prelude::*;
/// use goc_core::toy;
///
/// let goal = toy::MagicWordGoal::new("hi");
/// let report = finite_success(
///     &goal,
///     &|| Box::new(toy::RelayServer::with_shift(2)),
///     &|| Box::new(toy::SayThrough::compensating("hi", 2)),
///     8,
///     200,
///     42,
/// );
/// assert!(report.always());
/// ```
pub fn finite_success<G: FiniteGoal + Sync>(
    goal: &G,
    server: &(dyn Fn() -> BoxedServer + Sync),
    user: &(dyn Fn() -> BoxedUser + Sync),
    trials: u32,
    horizon: u64,
    seed: u64,
) -> SuccessReport {
    let outcomes = par::par_map(trials as usize, |trial| {
        let mut span = crate::obs::span("harness.trial", trial as u64);
        let mut rng = GocRng::seed_from_u64(seed).fork(trial as u64);
        let world = goal.spawn_world(&mut rng);
        let mut exec = Execution::new(world, server(), user(), rng);
        let mut referee = FiniteMonitor::start(goal, &exec);
        let t = referee.run(&mut exec, horizon);
        let v = referee.verdict(&t);
        span.set_exit(v.rounds);
        (v.achieved, v.rounds)
    });
    collect_report(trials, outcomes)
}

/// Runs a compact goal `trials` times; success = achieved with a
/// stabilization window of `window`; "rounds" records the settle round
/// (last bad prefix).
pub fn compact_success<G: CompactGoal + Sync>(
    goal: &G,
    server: &(dyn Fn() -> BoxedServer + Sync),
    user: &(dyn Fn() -> BoxedUser + Sync),
    trials: u32,
    horizon: u64,
    window: u64,
    seed: u64,
) -> SuccessReport {
    let outcomes = par::par_map(trials as usize, |trial| {
        let mut span = crate::obs::span("harness.trial", trial as u64);
        let mut rng = GocRng::seed_from_u64(seed).fork(trial as u64);
        let world = goal.spawn_world(&mut rng);
        let mut exec = Execution::new(world, server(), user(), rng);
        let mut monitor = CompactMonitor::start(goal, &exec);
        monitor.run_for(&mut exec, horizon);
        let v = monitor.verdict();
        let settle = v.last_bad_prefix.unwrap_or(0);
        span.set_exit(settle);
        (v.achieved(window), settle)
    });
    collect_report(trials, outcomes)
}

/// Folds per-trial `(succeeded, rounds)` outcomes — already in trial order,
/// courtesy of [`par::par_map`] — into a report identical to the one the
/// sequential loop would build.
fn collect_report(trials: u32, outcomes: Vec<(bool, u64)>) -> SuccessReport {
    let mut successes = 0;
    let mut rounds = Vec::new();
    for (achieved, r) in outcomes {
        if achieved {
            successes += 1;
            rounds.push(r);
        }
    }
    SuccessReport { successes, trials, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensing::Deadline;
    use crate::strategy::SilentServer;
    use crate::toy;
    use crate::universal::CompactUniversalUser;

    #[test]
    fn finite_success_counts_and_rounds() {
        let goal = toy::MagicWordGoal::new("hi");
        let report = finite_success(
            &goal,
            &|| Box::new(toy::RelayServer::with_shift(1)),
            &|| Box::new(toy::SayThrough::compensating("hi", 1)),
            5,
            100,
            1,
        );
        assert!(report.always());
        assert_eq!(report.rate(), 1.0);
        assert_eq!(report.rounds.len(), 5);
        assert!(report.mean_rounds().unwrap() < 10.0);
        assert!(report.max_rounds().unwrap() < 10);
    }

    #[test]
    fn finite_failure_is_counted() {
        let goal = toy::MagicWordGoal::new("hi");
        let report = finite_success(
            &goal,
            &|| Box::new(SilentServer),
            &|| Box::new(toy::SayThrough::new("hi")),
            3,
            100,
            2,
        );
        assert_eq!(report.successes, 0);
        assert_eq!(report.rate(), 0.0);
        assert!(!report.always());
        assert!(report.mean_rounds().is_none());
        assert!(report.max_rounds().is_none());
    }

    #[test]
    fn compact_success_reports_settle_rounds() {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let report = compact_success(
            &goal,
            &|| Box::new(toy::RelayServer::with_shift(2)),
            &|| {
                Box::new(CompactUniversalUser::new(
                    Box::new(toy::caesar_class("hi", 4, true)),
                    Box::new(Deadline::new(toy::ack_sensing(), 8)),
                ))
            },
            3,
            3_000,
            300,
            3,
        );
        assert!(report.always(), "{report:?}");
        assert!(report.max_rounds().unwrap() < 2_700);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SuccessReport { successes: 0, trials: 0, rounds: vec![] };
        assert_eq!(r.rate(), 0.0);
        assert!(!r.always());
    }

    #[test]
    fn no_success_statistics_are_none_not_zero() {
        // All-failed reports must not masquerade as instant successes.
        let r = SuccessReport { successes: 0, trials: 7, rounds: vec![] };
        assert_eq!(r.mean_rounds(), None);
        assert_eq!(r.max_rounds(), None);
        assert_eq!(r.p95_rounds(), None);
    }

    #[test]
    fn p95_is_nearest_rank() {
        let r = |rounds: Vec<u64>| SuccessReport {
            successes: rounds.len() as u32,
            trials: rounds.len() as u32,
            rounds,
        };
        assert_eq!(r(vec![42]).p95_rounds(), Some(42));
        // 20 samples: rank ceil(0.95·20) = 19 → second-largest.
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(r(twenty).p95_rounds(), Some(19));
        // Unsorted input is sorted internally.
        assert_eq!(r(vec![9, 1, 5]).p95_rounds(), Some(9));
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let goal = toy::MagicWordGoal::new("hi");
        let run = || {
            finite_success(
                &goal,
                &|| Box::new(toy::RelayServer::with_shift(1)),
                &|| Box::new(toy::SayThrough::compensating("hi", 1)),
                8,
                100,
                11,
            )
        };
        let seq = crate::par::with_thread_count(1, run);
        let par4 = crate::par::with_thread_count(4, run);
        assert_eq!(seq, par4);
    }
}
