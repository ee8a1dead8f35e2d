//! The bridge: running the on-line learners inside the *actual*
//! goal-oriented-communication simulator.
//!
//! This is the operational half of the Juba–Vempala equivalence: a
//! multi-session **transmission** goal, where each session poses one
//! challenge, the policy commits to a response (by choosing which user
//! strategy to field), the response travels through the real
//! [`PipeServer`], and the *feedback is
//! exactly the world's echo* — `OK` or `GOT:<bytes>` — from which the policy
//! eliminates hypotheses, with no oracle access to the hidden transform.

use crate::class::{HypothesisClass, TransformClass};
use crate::policy::SessionPolicy;
use goc_core::exec::Execution;
use goc_core::msg::{Message, UserIn, UserOut};
use goc_core::rng::GocRng;
use goc_core::strategy::{StepCtx, UserStrategy, WorldStrategy};
use goc_goals::transmission::{parse_broadcast, ChannelWorld, Feedback, PipeServer, Transform};

/// A user that transmits one fixed payload as soon as it sees a challenge,
/// then stays silent — one session's worth of behaviour.
#[derive(Clone, Debug)]
struct OneShotSender {
    payload: Vec<u8>,
    sent: bool,
}

impl UserStrategy for OneShotSender {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        if self.sent || parse_broadcast(input.from_world.as_bytes()).is_none() {
            return UserOut::silence();
        }
        self.sent = true;
        UserOut::to_server(Message::from_bytes(self.payload.clone()))
    }

    fn name(&self) -> String {
        "one-shot-sender".to_string()
    }
}

/// Outcome of a bridged multi-session run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BridgeReport {
    /// Sessions played.
    pub sessions: u64,
    /// Sessions whose challenge was not delivered intact.
    pub mistakes: u64,
    /// Session index of the last mistake, if any.
    pub last_mistake: Option<u64>,
}

impl BridgeReport {
    /// `true` if the learner stopped missing at some point.
    pub fn converged(&self) -> bool {
        match self.last_mistake {
            None => true,
            Some(last) => last + 1 < self.sessions,
        }
    }
}

/// Runs `sessions` one-challenge episodes of the transmission goal with the
/// hidden transform `class.transforms()[concept]`, letting `policy` pick the
/// response each session and updating it from the world's echo alone.
///
/// # Panics
///
/// Panics if `concept` is out of range or `challenge_len == 0`.
pub fn run_bridge(
    class: &TransformClass,
    concept: usize,
    policy: &mut dyn SessionPolicy,
    sessions: u64,
    challenge_len: usize,
    rng: &mut GocRng,
) -> BridgeReport {
    assert!(concept < class.len(), "concept index out of range");
    let hidden: Transform = class.transforms()[concept].clone();
    let mut mistakes = 0;
    let mut last_mistake = None;

    for session in 0..sessions {
        let mut session_rng = rng.fork(session);
        // One fresh world per session (period long enough that the single
        // challenge stands for the whole episode).
        let world = ChannelWorld::new(challenge_len, 1_000, &mut session_rng);
        let challenge = world.state().challenge.clone();

        let responses: Vec<Vec<u8>> =
            (0..class.len()).map(|h| class.respond(h, &challenge)).collect();
        let prediction = policy.predict(&responses);

        let mut exec = Execution::new(
            world,
            Box::new(PipeServer::new(hidden.clone())),
            Box::new(OneShotSender { payload: prediction.clone(), sent: false }),
            session_rng,
        )
        .recording();
        let t = exec.run_for(8);

        // Extract the echo: what did the world actually receive?
        let mut received: Option<Vec<u8>> = None;
        for ev in t.view().iter() {
            match parse_broadcast(ev.received.from_world.as_bytes()) {
                Some((_, Feedback::Ok)) => {
                    received = Some(challenge.clone());
                    break;
                }
                Some((_, Feedback::Got(bytes))) => {
                    received = Some(bytes);
                    break;
                }
                _ => {}
            }
        }

        let success = t.state.answered;
        if !success {
            mistakes += 1;
            last_mistake = Some(session);
        }

        // Full-information update from the echo: hypothesis h is consistent
        // iff applying h's transform to what we sent yields what the world
        // reported receiving.
        if let Some(received) = received {
            let correct: Vec<bool> = class
                .transforms()
                .iter()
                .map(|th| th.apply(&prediction) == received)
                .collect();
            policy.update(&responses, &correct);
        }
    }
    BridgeReport { sessions, mistakes, last_mistake }
}

/// The **bandit** bridge: the same multi-session transmission game against a
/// [feedback-poor world](ChannelWorld::without_echo) that never echoes
/// misdeliveries. Policies only learn whether *their own* session succeeded
/// — the information regime of a single in-execution universal user, where
/// full-information learners like halving lose their log2 N edge.
pub fn run_bandit_bridge(
    class: &TransformClass,
    concept: usize,
    policy: &mut dyn crate::bandit::BanditPolicy,
    sessions: u64,
    challenge_len: usize,
    rng: &mut GocRng,
) -> BridgeReport {
    assert!(concept < class.len(), "concept index out of range");
    let hidden: Transform = class.transforms()[concept].clone();
    let mut mistakes = 0;
    let mut last_mistake = None;

    for session in 0..sessions {
        let mut session_rng = rng.fork(session);
        let world = ChannelWorld::without_echo(challenge_len, 1_000, &mut session_rng);
        let challenge = world.state().challenge.clone();

        let played = policy.choose(&mut session_rng);
        let prediction = class.respond(played, &challenge);

        let mut exec = Execution::new(
            world,
            Box::new(PipeServer::new(hidden.clone())),
            Box::new(OneShotSender { payload: prediction, sent: false }),
            session_rng,
        );
        let t = exec.run_for(8);

        let success = t.state.answered;
        if !success {
            mistakes += 1;
            last_mistake = Some(session);
        }
        policy.observe(played, success);
    }
    BridgeReport { sessions, mistakes, last_mistake }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::SequentialElimination;
    use crate::policy::{EnumerationPolicy, HalvingPolicy};

    fn table_class(n: usize) -> TransformClass {
        TransformClass::new((0..n).map(|i| Transform::Table(1_000 + i as u64)).collect())
    }

    #[test]
    fn enumeration_in_simulator_pays_linear_mistakes() {
        let class = table_class(10);
        let concept = 7;
        let mut policy = EnumerationPolicy::new(class.len());
        let mut rng = GocRng::seed_from_u64(11);
        let report = run_bridge(&class, concept, &mut policy, 60, 4, &mut rng);
        assert!(report.converged(), "{report:?}");
        assert_eq!(report.mistakes, concept as u64, "{report:?}");
    }

    #[test]
    fn halving_in_simulator_pays_log_mistakes() {
        let class = table_class(32);
        let mut policy = HalvingPolicy::new(class.len());
        let mut rng = GocRng::seed_from_u64(12);
        let report = run_bridge(&class, 31, &mut policy, 60, 4, &mut rng);
        assert!(report.converged(), "{report:?}");
        assert!(report.mistakes <= 6, "expected ≤ log2(32)+1, got {}", report.mistakes);
    }

    #[test]
    fn echo_feedback_never_eliminates_the_true_concept() {
        let class = table_class(8);
        let concept = 5;
        let mut policy = HalvingPolicy::new(class.len());
        let mut rng = GocRng::seed_from_u64(13);
        let _ = run_bridge(&class, concept, &mut policy, 40, 4, &mut rng);
        assert!(policy.version_space() >= 1);
        // The surviving hypothesis must behave like the concept.
        let report = {
            let mut rng2 = GocRng::seed_from_u64(14);
            run_bridge(&class, concept, &mut policy, 10, 4, &mut rng2)
        };
        assert_eq!(report.mistakes, 0, "converged learner keeps delivering");
    }

    #[test]
    fn identity_concept_never_misses() {
        let mut transforms = vec![Transform::Enc(goc_goals::codec::Encoding::Identity)];
        transforms.extend((0..3).map(Transform::Table));
        let class = TransformClass::new(transforms);
        let mut policy = EnumerationPolicy::new(class.len());
        let mut rng = GocRng::seed_from_u64(15);
        let report = run_bridge(&class, 0, &mut policy, 20, 3, &mut rng);
        assert_eq!(report.mistakes, 0);
        assert!(report.converged());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_concept_panics() {
        let class = table_class(2);
        let mut policy = EnumerationPolicy::new(2);
        let mut rng = GocRng::seed_from_u64(16);
        let _ = run_bridge(&class, 2, &mut policy, 5, 2, &mut rng);
    }

    #[test]
    fn bandit_bridge_sequential_elimination_pays_linear() {
        let class = table_class(8);
        let mut policy = SequentialElimination::new(8);
        let mut rng = GocRng::seed_from_u64(21);
        let report = run_bandit_bridge(&class, 7, &mut policy, 60, 4, &mut rng);
        assert!(report.converged(), "{report:?}");
        assert_eq!(report.mistakes, 7);
    }

    #[test]
    fn bandit_bridge_gives_halving_no_edge() {
        // Without echoes there is nothing for a version-space learner to
        // eliminate except the played hypothesis, so sequential elimination
        // is already optimal: assert the mistake count equals the concept
        // index exactly (the bandit lower bound for this ordering).
        let class = table_class(12);
        let mut policy = SequentialElimination::new(12);
        let mut rng = GocRng::seed_from_u64(22);
        let report = run_bandit_bridge(&class, 11, &mut policy, 80, 4, &mut rng);
        assert_eq!(report.mistakes, 11);
    }
}
