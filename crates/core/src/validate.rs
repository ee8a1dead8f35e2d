//! Monte-Carlo validators for the **safety** and **viability** of sensing.
//!
//! Theorem 1's hypotheses are properties of a sensing function relative to a
//! goal and a class of servers (paper §3):
//!
//! - *Finite safety*: positive indications are obtained only on acceptable
//!   histories. Checked by [`finite_safety`]: replay sensing along sampled
//!   executions and verify the referee accepts at every positive.
//! - *Finite viability*: with each helpful server, **some** strategy in the
//!   class obtains a positive indication. Checked by [`finite_viability`].
//! - *Compact safety*: if the current pairing does not lead to achieving the
//!   goal, negative indications keep arriving (infinitely often — at a
//!   bounded horizon: at least once in the trailing window). Checked by
//!   [`compact_safety`].
//! - *Compact viability*: with a pairing that achieves the goal, only
//!   finitely many negatives occur (none in the trailing window). Checked by
//!   [`compact_viability`].
//!
//! The validators *replay* the sensing function over recorded user views —
//! legitimate because sensing is, by definition, a function of the view.

use crate::enumeration::StrategyEnumerator;
use crate::exec::{Execution, Transcript};
use crate::goal::{
    evaluate_compact, evaluate_finite, CompactGoal, FiniteGoal, FiniteMonitor, StateOf,
};
use crate::helpful::TrialConfig;
use crate::rng::GocRng;
use crate::sensing::{Indication, Sensing};
use crate::strategy::{BoxedServer, Halt};

/// A factory for fresh sensing instances.
pub type MakeSensing<'a> = &'a dyn Fn() -> Box<dyn Sensing>;

/// A factory for fresh server instances.
pub type MakeServer<'a> = &'a dyn Fn() -> BoxedServer;

/// One observed violation of a sensing property.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which strategy index was running.
    pub strategy_index: usize,
    /// The trial seed fork in which the violation occurred.
    pub trial: u32,
    /// The round of the offending indication (safety) or the horizon
    /// (viability).
    pub round: u64,
    /// Human-readable description.
    pub detail: String,
}

/// Outcome of a validator run.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Indications (safety) or pairings (viability) checked.
    pub checks: u64,
    /// Violations found (empty = property held on every sample).
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// `true` if no violation was observed.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays `sensing` over a transcript's view, returning each round's
/// indication.
pub fn replay_sensing<S: Clone + std::fmt::Debug>(
    sensing: &mut dyn Sensing,
    transcript: &Transcript<S>,
) -> Vec<Indication> {
    transcript.view().iter().map(|ev| sensing.observe(ev)).collect()
}

/// Validates **finite safety**: for every sampled (strategy, server, seed)
/// and every round at which sensing reports `Positive`, the world history up
/// to that round must be acceptable.
///
/// The referee is consulted with the user's halt verdict if the user had
/// halted by then, else with an empty halt — matching how the Levin user
/// halts on a positive.
pub fn finite_safety<G: FiniteGoal>(
    goal: &G,
    servers: &[MakeServer<'_>],
    class: &dyn StrategyEnumerator,
    sensing: MakeSensing<'_>,
    cfg: &TrialConfig,
) -> ValidationReport {
    let n = class.len().expect("finite_safety requires a finite class");
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (server_id, make_server) in servers.iter().enumerate() {
        for index in 0..n {
            for trial in 0..cfg.trials {
                let mut rng =
                    GocRng::seed_from_u64(cfg.seed).fork((server_id as u64) << 32 | trial as u64);
                let world = goal.spawn_world(&mut rng);
                let user = class.strategy(index).expect("index in range");
                let mut exec = Execution::new(world, make_server(), user, rng).recording();
                let t = exec.run(cfg.horizon);
                let mut s = sensing();
                let states = t.world_states();
                let mut referee = FiniteMonitor::new(goal);
                referee.push(&states[0]);
                for (i, ind) in replay_sensing(&mut *s, &t).into_iter().enumerate() {
                    checks += 1;
                    // History after round i = states[..= i + 1].
                    let last = &states[i + 1];
                    referee.push(last);
                    if ind.is_positive() {
                        let halt = t.halt().cloned().unwrap_or_else(Halt::empty);
                        if !referee.accepts(last, &halt) {
                            violations.push(Violation {
                                strategy_index: index,
                                trial,
                                round: i as u64,
                                detail: format!(
                                    "positive indication on unacceptable history (server #{server_id})"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    ValidationReport { checks, violations }
}

/// Validates **finite viability**: for each server (all assumed helpful),
/// some strategy in the class obtains a positive indication in every trial.
pub fn finite_viability<G: FiniteGoal>(
    goal: &G,
    servers: &[MakeServer<'_>],
    class: &dyn StrategyEnumerator,
    sensing: MakeSensing<'_>,
    cfg: &TrialConfig,
) -> ValidationReport {
    let n = class.len().expect("finite_viability requires a finite class");
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (server_id, make_server) in servers.iter().enumerate() {
        checks += 1;
        let mut witness = None;
        'search: for index in 0..n {
            for trial in 0..cfg.trials {
                let mut rng =
                    GocRng::seed_from_u64(cfg.seed).fork((server_id as u64) << 32 | trial as u64);
                let world = goal.spawn_world(&mut rng);
                let user = class.strategy(index).expect("index in range");
                let mut exec = Execution::new(world, make_server(), user, rng).recording();
                let t = exec.run(cfg.horizon);
                let mut s = sensing();
                if !replay_sensing(&mut *s, &t).iter().any(|i| i.is_positive()) {
                    continue 'search; // this strategy failed a trial
                }
            }
            witness = Some(index);
            break;
        }
        if witness.is_none() {
            violations.push(Violation {
                strategy_index: usize::MAX,
                trial: 0,
                round: cfg.horizon,
                detail: format!(
                    "no strategy obtained a positive indication with server #{server_id}"
                ),
            });
        }
    }
    ValidationReport { checks, violations }
}

/// Validates **compact safety**: for every sampled pairing whose execution
/// does *not* achieve the goal, negative indications must keep arriving —
/// at least one in the trailing `cfg.window` rounds of the horizon.
pub fn compact_safety<G: CompactGoal>(
    goal: &G,
    servers: &[MakeServer<'_>],
    class: &dyn StrategyEnumerator,
    sensing: MakeSensing<'_>,
    cfg: &TrialConfig,
) -> ValidationReport {
    let n = class.len().expect("compact_safety requires a finite class");
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (server_id, make_server) in servers.iter().enumerate() {
        for index in 0..n {
            for trial in 0..cfg.trials {
                let mut rng =
                    GocRng::seed_from_u64(cfg.seed).fork((server_id as u64) << 32 | trial as u64);
                let world = goal.spawn_world(&mut rng);
                let user = class.strategy(index).expect("index in range");
                let mut exec = Execution::new(world, make_server(), user, rng).recording();
                let t = exec.run_for(cfg.horizon);
                if evaluate_compact(goal, &t).achieved(cfg.window) {
                    continue; // safety constrains only failing pairings
                }
                checks += 1;
                let mut s = sensing();
                let inds = replay_sensing(&mut *s, &t);
                let tail_start = inds.len().saturating_sub(cfg.window as usize);
                let neg_in_tail = inds[tail_start..].iter().any(|i| i.is_negative());
                if !neg_in_tail {
                    violations.push(Violation {
                        strategy_index: index,
                        trial,
                        round: cfg.horizon,
                        detail: format!(
                            "failing pairing with server #{server_id} produced no negative in the trailing window"
                        ),
                    });
                }
            }
        }
    }
    ValidationReport { checks, violations }
}

/// Validates **compact viability**: for each server, some strategy both
/// achieves the goal and receives no negative indication in the trailing
/// window (its negatives are finite), in every trial.
pub fn compact_viability<G: CompactGoal>(
    goal: &G,
    servers: &[MakeServer<'_>],
    class: &dyn StrategyEnumerator,
    sensing: MakeSensing<'_>,
    cfg: &TrialConfig,
) -> ValidationReport {
    let n = class.len().expect("compact_viability requires a finite class");
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (server_id, make_server) in servers.iter().enumerate() {
        checks += 1;
        let mut witness = None;
        'search: for index in 0..n {
            for trial in 0..cfg.trials {
                let mut rng =
                    GocRng::seed_from_u64(cfg.seed).fork((server_id as u64) << 32 | trial as u64);
                let world = goal.spawn_world(&mut rng);
                let user = class.strategy(index).expect("index in range");
                let mut exec = Execution::new(world, make_server(), user, rng).recording();
                let t = exec.run_for(cfg.horizon);
                if !evaluate_compact(goal, &t).achieved(cfg.window) {
                    continue 'search;
                }
                let mut s = sensing();
                let inds = replay_sensing(&mut *s, &t);
                let tail_start = inds.len().saturating_sub(cfg.window as usize);
                if inds[tail_start..].iter().any(|i| i.is_negative()) {
                    continue 'search;
                }
            }
            witness = Some(index);
            break;
        }
        if witness.is_none() {
            violations.push(Violation {
                strategy_index: usize::MAX,
                trial: 0,
                round: cfg.horizon,
                detail: format!(
                    "no strategy achieves the goal with eventually-positive sensing against server #{server_id}"
                ),
            });
        }
    }
    ValidationReport { checks, violations }
}

/// Convenience: judge a finite transcript (re-exported for experiment code
/// that wants verdict + sensing replay together).
pub fn finite_achieved<G: FiniteGoal>(goal: &G, t: &Transcript<StateOf<G>>) -> bool {
    evaluate_finite(goal, t).achieved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Goal;
    use crate::sensing::{AlwaysNegative, AlwaysPositive, Deadline};
    use crate::strategy::SilentServer;
    use crate::toy;

    fn cfg() -> TrialConfig {
        TrialConfig { trials: 2, horizon: 300, seed: 3, window: 50 }
    }

    fn relay(shift: u8) -> impl Fn() -> BoxedServer {
        move || Box::new(toy::RelayServer::with_shift(shift)) as BoxedServer
    }

    #[test]
    fn ack_sensing_is_finitely_safe() {
        let goal = toy::MagicWordGoal::new("hi");
        let class = toy::caesar_class("hi", 4, false);
        let r1 = relay(1);
        let silent = || Box::new(SilentServer) as BoxedServer;
        let servers: Vec<MakeServer<'_>> = vec![&r1, &silent];
        let report = finite_safety(
            &goal,
            &servers,
            &class,
            &|| Box::new(toy::ack_sensing()),
            &cfg(),
        );
        assert!(report.holds(), "violations: {:?}", report.violations);
        assert!(report.checks > 0);
    }

    #[test]
    fn always_positive_sensing_is_unsafe() {
        let goal = toy::MagicWordGoal::new("hi");
        let class = toy::caesar_class("hi", 2, false);
        let silent = || Box::new(SilentServer) as BoxedServer;
        let servers: Vec<MakeServer<'_>> = vec![&silent];
        let report =
            finite_safety(&goal, &servers, &class, &|| Box::new(AlwaysPositive), &cfg());
        assert!(!report.holds());
    }

    #[test]
    fn ack_sensing_is_finitely_viable_with_helpful_servers() {
        let goal = toy::MagicWordGoal::new("hi");
        let class = toy::caesar_class("hi", 4, false);
        let r0 = relay(0);
        let r3 = relay(3);
        let servers: Vec<MakeServer<'_>> = vec![&r0, &r3];
        let report = finite_viability(
            &goal,
            &servers,
            &class,
            &|| Box::new(toy::ack_sensing()),
            &cfg(),
        );
        assert!(report.holds(), "violations: {:?}", report.violations);
    }

    #[test]
    fn always_negative_sensing_is_not_viable() {
        let goal = toy::MagicWordGoal::new("hi");
        let class = toy::caesar_class("hi", 4, false);
        let r0 = relay(0);
        let servers: Vec<MakeServer<'_>> = vec![&r0];
        let report =
            finite_viability(&goal, &servers, &class, &|| Box::new(AlwaysNegative), &cfg());
        assert!(!report.holds());
    }

    #[test]
    fn deadline_ack_is_compactly_safe_and_viable() {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let class = toy::caesar_class("hi", 4, true);
        let r2 = relay(2);
        let servers: Vec<MakeServer<'_>> = vec![&r2];
        let mk = || Box::new(Deadline::new(toy::ack_sensing(), 8)) as Box<dyn Sensing>;
        let safety = compact_safety(&goal, &servers, &class, &mk, &cfg());
        assert!(safety.holds(), "violations: {:?}", safety.violations);
        let viability = compact_viability(&goal, &servers, &class, &mk, &cfg());
        assert!(viability.holds(), "violations: {:?}", viability.violations);
    }

    #[test]
    fn raw_ack_sensing_is_not_compactly_safe() {
        // Without the Deadline wrapper, failing pairings produce *no*
        // negatives at all — violating compact safety. This is exactly why
        // the universal construction needs negative evidence.
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let class = toy::caesar_class("hi", 4, true);
        let r2 = relay(2);
        let servers: Vec<MakeServer<'_>> = vec![&r2];
        let report = compact_safety(
            &goal,
            &servers,
            &class,
            &|| Box::new(toy::ack_sensing()),
            &cfg(),
        );
        assert!(!report.holds());
    }

    #[test]
    fn replay_matches_online_observation() {
        let goal = toy::MagicWordGoal::new("hi");
        let mut rng = GocRng::seed_from_u64(5);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::default()),
            Box::new(toy::SayThrough::new("hi")),
            rng,
        )
        .recording();
        let t = exec.run(50);
        let mut s = toy::ack_sensing();
        let inds = replay_sensing(&mut s, &t);
        assert_eq!(inds.len(), t.view().len());
        assert!(inds.iter().any(|i| i.is_positive()));
    }

    #[test]
    fn finite_achieved_helper() {
        let goal = toy::MagicWordGoal::new("hi");
        let mut rng = GocRng::seed_from_u64(6);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::default()),
            Box::new(toy::SayThrough::new("hi")),
            rng,
        );
        let t = exec.run(50);
        assert!(finite_achieved(&goal, &t));
    }
}
