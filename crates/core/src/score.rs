//! Quantitative goals: graded achievement instead of a binary referee.
//!
//! The full version of the paper (ECCC TR09-075) considers the *value* or
//! *quality* of goal achievement, not just its possibility. A [`ScoredGoal`]
//! assigns each world history a score in `[0, 1]`; binary referees are the
//! special case {0, 1}. Scores let experiments compare *how well* different
//! users achieve the same goal — e.g. the fraction of transmission
//! challenges delivered in time, or target visits per thousand rounds —
//! which is where the cost of universality (the enumeration prefix) becomes
//! visible even when everyone eventually succeeds.

use crate::exec::Transcript;
use crate::goal::{Goal, StateOf};
use crate::rng::GocRng;
use crate::strategy::{BoxedServer, BoxedUser};

/// A goal with a graded referee.
pub trait ScoredGoal: Goal {
    /// Scores a (finite) world-state history in `[0, 1]`.
    ///
    /// Implementations should be monotone in achievement quality: 0 for a
    /// worthless history, 1 for a perfect one.
    fn score(&self, history: &[StateOf<Self>]) -> f64;
}

/// Scores a recorded transcript under a scored goal.
///
/// # Panics
///
/// If the transcript is unrecorded (see
/// [`Execution::recording`](crate::exec::Execution::recording)).
pub fn evaluate_score<G: ScoredGoal>(goal: &G, transcript: &Transcript<StateOf<G>>) -> f64 {
    goal.score(transcript.world_states()).clamp(0.0, 1.0)
}

/// Mean and worst-case score of a pairing across seeded trials.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreReport {
    /// Per-trial scores.
    pub scores: Vec<f64>,
}

impl ScoreReport {
    /// Mean score (0 if no trials ran).
    pub fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        self.scores.iter().sum::<f64>() / self.scores.len() as f64
    }

    /// Minimum score (0 if no trials ran).
    pub fn min(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        self.scores.iter().cloned().fold(f64::INFINITY, f64::min).clamp(0.0, 1.0)
    }
}

/// Runs `trials` seeded executions of `horizon` rounds and scores each.
///
/// # Examples
///
/// See `tests/quality.rs` and the [`ScoredGoal`] implementations on
/// `goc_goals::transmission::TransmissionGoal` and
/// `goc_goals::navigation::NavigationGoal`.
pub fn score_pairing<G: ScoredGoal>(
    goal: &G,
    server: &dyn Fn() -> BoxedServer,
    user: &dyn Fn() -> BoxedUser,
    trials: u32,
    horizon: u64,
    seed: u64,
) -> ScoreReport {
    let mut scores = Vec::with_capacity(trials as usize);
    for trial in 0..trials {
        let mut rng = GocRng::seed_from_u64(seed).fork(trial as u64);
        let world = goal.spawn_world(&mut rng);
        let mut exec = crate::exec::Execution::new(world, server(), user(), rng).recording();
        let t = exec.run_for(horizon);
        scores.push(evaluate_score(goal, &t));
    }
    ScoreReport { scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::GoalKind;
    use crate::toy::{CompactMagicWordGoal, MagicState};

    /// Graded magic-word goal: score = fraction of window-sized intervals in
    /// which the word was heard.
    impl ScoredGoal for CompactMagicWordGoal {
        fn score(&self, history: &[MagicState]) -> f64 {
            let Some(last) = history.last() else { return 0.0 };
            if last.round == 0 {
                return 0.0;
            }
            // heard_count is cumulative; a pipelined say-every-round user
            // gets the word heard nearly every round.
            (last.heard_count as f64 / last.round as f64).clamp(0.0, 1.0)
        }
    }

    #[test]
    fn informed_user_scores_high_and_silent_user_scores_zero() {
        use crate::toy;
        let goal = CompactMagicWordGoal::new("hi", 16);
        assert_eq!(goal.kind(), GoalKind::Compact);

        let informed = score_pairing(
            &goal,
            &|| Box::new(toy::RelayServer::default()),
            &|| Box::new(toy::SayThrough::persistent("hi")),
            3,
            300,
            1,
        );
        assert!(informed.mean() > 0.8, "informed mean {}", informed.mean());
        assert!(informed.min() > 0.8);

        let silent = score_pairing(
            &goal,
            &|| Box::new(toy::RelayServer::default()),
            &|| Box::new(crate::strategy::SilentUser),
            3,
            300,
            2,
        );
        assert_eq!(silent.mean(), 0.0);
    }

    #[test]
    fn universal_user_pays_a_visible_quality_tax() {
        use crate::sensing::Deadline;
        use crate::toy;
        use crate::universal::CompactUniversalUser;
        let goal = CompactMagicWordGoal::new("hi", 16);
        // Short horizon: the enumeration prefix costs score.
        let universal = score_pairing(
            &goal,
            &|| Box::new(toy::RelayServer::with_shift(6)),
            &|| {
                Box::new(CompactUniversalUser::new(
                    Box::new(toy::caesar_class("hi", 8, true)),
                    Box::new(Deadline::new(toy::ack_sensing(), 8)),
                ))
            },
            3,
            400,
            3,
        );
        let informed = score_pairing(
            &goal,
            &|| Box::new(toy::RelayServer::with_shift(6)),
            &|| Box::new(toy::SayThrough::compensating_persistent("hi", 6)),
            3,
            400,
            3,
        );
        assert!(universal.mean() > 0.0, "universal eventually scores");
        assert!(
            universal.mean() < informed.mean(),
            "enumeration prefix must cost quality: {} vs {}",
            universal.mean(),
            informed.mean()
        );
        // At a long horizon the tax amortizes away.
        let universal_long = score_pairing(
            &goal,
            &|| Box::new(toy::RelayServer::with_shift(6)),
            &|| {
                Box::new(CompactUniversalUser::new(
                    Box::new(toy::caesar_class("hi", 8, true)),
                    Box::new(Deadline::new(toy::ack_sensing(), 8)),
                ))
            },
            3,
            8_000,
            3,
        );
        assert!(
            universal_long.mean() > 0.8,
            "amortized score {}",
            universal_long.mean()
        );
    }

    #[test]
    fn evaluate_score_clamps() {
        let goal = CompactMagicWordGoal::new("hi", 16);
        let t = Transcript {
            state: MagicState { heard_count: 0, last_heard_round: None, round: 0 },
            history: Some(crate::exec::History { world_states: vec![], view: Default::default() }),
            rounds: 0,
            stop: crate::exec::StopReason::HorizonExhausted,
        };
        assert_eq!(evaluate_score(&goal, &t), 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = ScoreReport { scores: vec![] };
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0.0);
    }
}
