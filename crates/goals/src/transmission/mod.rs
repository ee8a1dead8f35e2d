//! **The transmission goal** — deliver the world's challenges back to it
//! intact, through a server that garbles everything with an unknown byte
//! transformation.
//!
//! This is the Shannon-flavoured goal the paper contrasts itself against:
//! here the *content* is known (the world announces it), and the entire
//! difficulty is the lack of a shared language with the server. It is a
//! **compact** goal: fresh challenges keep coming, and success means all but
//! finitely many of them are delivered in time.
//!
//! The module also hosts [`ProbingUser`], the *learning* user that
//! reconstructs the transformation from the world's echoes instead of
//! enumerating a transform class — the concrete face of the paper's closing
//! remark that efficient algorithms exist for broad special cases (and of
//! the Juba–Vempala on-line-learning connection, crate `goc-learning`).

mod sensing;
mod servers;
mod users;
mod world;

pub use sensing::{ok_sensing, OkSensing};
pub use servers::{PipeServer, Transform};
pub use users::{transform_class, EncoderUser, ProbingUser};
pub use world::{parse_broadcast, ChannelState, ChannelWorld, Feedback};

use goc_core::goal::{CompactGoal, Goal, GoalKind};
use goc_core::rng::GocRng;

/// The compact transmission goal.
///
/// A prefix is acceptable iff the current challenge is either answered or
/// younger than `grace` rounds — so an execution succeeds iff all but
/// finitely many challenges are delivered within the grace period.
#[derive(Clone, Debug)]
pub struct TransmissionGoal {
    challenge_len: usize,
    period: u64,
    grace: u64,
}

impl TransmissionGoal {
    /// A goal with `challenge_len`-byte challenges, a fresh challenge every
    /// `period` rounds, and a delivery grace of `grace` rounds.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `grace >= period` (unanswerable
    /// schedules are not forgiving).
    pub fn new(challenge_len: usize, period: u64, grace: u64) -> Self {
        assert!(challenge_len > 0, "challenge_len must be positive");
        assert!(period > 0 && grace > 0, "period and grace must be positive");
        assert!(grace < period, "grace must be shorter than the period");
        TransmissionGoal { challenge_len, period, grace }
    }

    /// The challenge length in bytes.
    pub fn challenge_len(&self) -> usize {
        self.challenge_len
    }

    /// The challenge period in rounds.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The delivery grace in rounds.
    pub fn grace(&self) -> u64 {
        self.grace
    }
}

impl Goal for TransmissionGoal {
    type World = ChannelWorld;

    fn spawn_world(&self, rng: &mut GocRng) -> ChannelWorld {
        ChannelWorld::new(self.challenge_len, self.period, rng)
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Compact
    }

    fn name(&self) -> String {
        "transmission".to_string()
    }
}

impl CompactGoal for TransmissionGoal {
    type Memory = ();

    fn prefix_acceptable(&self, _: &mut (), last: &ChannelState) -> bool {
        last.answered || last.round.saturating_sub(last.challenge_round) <= self.grace
    }
}

impl goc_core::score::ScoredGoal for TransmissionGoal {
    /// Quality = fraction of issued challenges delivered in time.
    fn score(&self, history: &[ChannelState]) -> f64 {
        let Some(last) = history.last() else { return 0.0 };
        if last.issued == 0 {
            return 0.0;
        }
        last.completed as f64 / last.issued as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoding;
    use goc_core::exec::Execution;
    use goc_core::goal::evaluate_compact;
    use goc_core::prelude::*;

    fn run_user(
        user: BoxedUser,
        transform: Transform,
        horizon: u64,
        seed: u64,
    ) -> goc_core::goal::CompactVerdict {
        let goal = TransmissionGoal::new(3, 40, 20);
        let mut rng = GocRng::seed_from_u64(seed);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(PipeServer::new(transform)),
            user,
            rng,
        )
        .recording();
        let t = exec.run_for(horizon);
        evaluate_compact(&goal, &t)
    }

    #[test]
    fn matching_encoder_sustains_the_goal() {
        let t = Transform::Enc(Encoding::Xor(0x5a));
        let v = run_user(Box::new(EncoderUser::new(t.clone())), t, 800, 1);
        assert!(v.achieved(200), "verdict: {v:?}");
    }

    #[test]
    fn mismatched_encoder_fails_forever() {
        let v = run_user(
            Box::new(EncoderUser::new(Transform::Enc(Encoding::Xor(1)))),
            Transform::Enc(Encoding::Xor(2)),
            800,
            2,
        );
        assert!(!v.achieved(200), "verdict: {v:?}");
        assert!(v.bad_prefixes > 100);
    }

    #[test]
    fn probing_user_learns_any_table() {
        // A seeded 256-byte permutation: enumeration over tables would need
        // to guess the seed; the prober just learns the mapping.
        let v = run_user(Box::new(ProbingUser::new()), Transform::Table(1234), 3000, 3);
        assert!(v.achieved(300), "verdict: {v:?}");
    }

    #[test]
    fn probing_user_handles_structured_transforms_as_well() {
        let v = run_user(Box::new(ProbingUser::new()), Transform::Enc(Encoding::Rot(200)), 3000, 4);
        assert!(v.achieved(300), "verdict: {v:?}");
    }

    #[test]
    fn constructor_validation() {
        assert!(std::panic::catch_unwind(|| TransmissionGoal::new(0, 10, 5)).is_err());
        assert!(std::panic::catch_unwind(|| TransmissionGoal::new(3, 10, 10)).is_err());
        let g = TransmissionGoal::new(3, 10, 5);
        assert_eq!((g.challenge_len(), g.period(), g.grace()), (3, 10, 5));
        assert_eq!(g.kind(), GoalKind::Compact);
    }
}
