//! Helpfulness and forgivingness — the theory's side conditions, checked by
//! Monte-Carlo simulation.
//!
//! - A server is **helpful** for a goal and a class of user strategies if
//!   *some* strategy in the class achieves the goal when paired with it, from
//!   any server/world start state (paper §2). [`finite_helpfulness`] and
//!   [`compact_helpfulness`] estimate this by sampling start states (seeds).
//! - A goal is **forgiving** if every finite partial history can be extended
//!   to a successful one (paper §2). [`finite_forgiving`] and
//!   [`compact_forgiving`] estimate this by running a *chaos* phase (babbling
//!   user and server) and then handing control to a known-good rescue pair.

use crate::exec::Execution;
use crate::goal::{CompactGoal, CompactMonitor, FiniteGoal, FiniteMonitor};
use crate::msg::{ServerIn, ServerOut, UserIn, UserOut};
use crate::rng::GocRng;
use crate::strategy::{BoxedServer, BoxedUser, ServerStrategy, StepCtx, UserStrategy};

/// Parameters shared by the Monte-Carlo checkers in this module and in
/// [`crate::validate`].
#[derive(Clone, Debug)]
pub struct TrialConfig {
    /// Independent executions sampled per question.
    pub trials: u32,
    /// Round horizon per execution.
    pub horizon: u64,
    /// Root seed; trial `t` uses fork `t`.
    pub seed: u64,
    /// Stabilization window for compact verdicts (see
    /// [`CompactVerdict::achieved`](crate::goal::CompactVerdict::achieved)).
    pub window: u64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig { trials: 8, horizon: 2_000, seed: 0xC0FFEE, window: 250 }
    }
}

/// Per-strategy success statistics from a helpfulness check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyStats {
    /// Index of the strategy in the enumeration.
    pub index: usize,
    /// Trials in which the goal was achieved.
    pub successes: u32,
    /// Trials run.
    pub trials: u32,
}

impl StrategyStats {
    /// `true` if the strategy achieved the goal in every sampled trial.
    pub fn always_succeeded(&self) -> bool {
        self.trials > 0 && self.successes == self.trials
    }
}

/// Result of a helpfulness check.
#[derive(Clone, Debug)]
pub struct HelpfulnessReport {
    /// `true` if some strategy achieved the goal in **all** sampled trials.
    pub helpful: bool,
    /// The first such strategy's index.
    pub witness: Option<usize>,
    /// Statistics for every strategy tried.
    pub per_strategy: Vec<StrategyStats>,
}

/// Estimates whether `server` is helpful for a finite `goal` with respect to
/// the finite strategy class `class`.
///
/// Tries every strategy in the class against fresh server/world instances
/// over `cfg.trials` seeds; the server is deemed helpful if some strategy
/// succeeded every time.
///
/// # Panics
///
/// Panics if `class` is infinite (helpfulness over infinite classes must be
/// approximated by truncation — do that explicitly at the call site).
///
/// # Examples
///
/// ```
/// use goc_core::helpful::{finite_helpfulness, TrialConfig};
/// use goc_core::prelude::*;
/// use goc_core::toy;
///
/// let goal = toy::MagicWordGoal::new("hi");
/// let report = finite_helpfulness(
///     &goal,
///     &|| Box::new(toy::RelayServer::with_shift(2)),
///     &toy::caesar_class("hi", 4, false),
///     &TrialConfig { trials: 2, horizon: 100, seed: 1, window: 20 },
/// );
/// assert!(report.helpful);
/// assert_eq!(report.witness, Some(2)); // the compensating strategy
/// ```
pub fn finite_helpfulness<G: FiniteGoal>(
    goal: &G,
    server: &dyn Fn() -> BoxedServer,
    class: &dyn crate::enumeration::StrategyEnumerator,
    cfg: &TrialConfig,
) -> HelpfulnessReport {
    let n = class.len().expect("finite_helpfulness requires a finite class");
    let mut per_strategy = Vec::with_capacity(n);
    let mut witness = None;
    for index in 0..n {
        let mut successes = 0;
        for trial in 0..cfg.trials {
            let mut rng = GocRng::seed_from_u64(cfg.seed).fork(trial as u64);
            let world = goal.spawn_world(&mut rng);
            let user = class.strategy(index).expect("index in range");
            let mut exec = Execution::new(world, server(), user, rng);
            let mut referee = FiniteMonitor::start(goal, &exec);
            let t = referee.run(&mut exec, cfg.horizon);
            if referee.verdict(&t).achieved {
                successes += 1;
            }
        }
        let stats = StrategyStats { index, successes, trials: cfg.trials };
        if stats.always_succeeded() && witness.is_none() {
            witness = Some(index);
        }
        per_strategy.push(stats);
    }
    HelpfulnessReport { helpful: witness.is_some(), witness, per_strategy }
}

/// Estimates whether `server` is helpful for a compact `goal` with respect to
/// the finite strategy class `class`.
///
/// # Panics
///
/// Panics if `class` is infinite.
pub fn compact_helpfulness<G: CompactGoal>(
    goal: &G,
    server: &dyn Fn() -> BoxedServer,
    class: &dyn crate::enumeration::StrategyEnumerator,
    cfg: &TrialConfig,
) -> HelpfulnessReport {
    let n = class.len().expect("compact_helpfulness requires a finite class");
    let mut per_strategy = Vec::with_capacity(n);
    let mut witness = None;
    for index in 0..n {
        let mut successes = 0;
        for trial in 0..cfg.trials {
            let mut rng = GocRng::seed_from_u64(cfg.seed).fork(trial as u64);
            let world = goal.spawn_world(&mut rng);
            let user = class.strategy(index).expect("index in range");
            let mut exec = Execution::new(world, server(), user, rng);
            let mut monitor = CompactMonitor::start(goal, &exec);
            monitor.run_for(&mut exec, cfg.horizon);
            if monitor.verdict().achieved(cfg.window) {
                successes += 1;
            }
        }
        let stats = StrategyStats { index, successes, trials: cfg.trials };
        if stats.always_succeeded() && witness.is_none() {
            witness = Some(index);
        }
        per_strategy.push(stats);
    }
    HelpfulnessReport { helpful: witness.is_some(), witness, per_strategy }
}

/// A user that emits random bytes on random channels — the "chaos" phase of
/// forgivingness checks.
#[derive(Clone, Debug, Default)]
pub struct BabblerUser;

impl UserStrategy for BabblerUser {
    fn step(&mut self, ctx: &mut StepCtx<'_>, _input: &UserIn) -> UserOut {
        let len = ctx.rng.index(6);
        let msg = crate::msg::Message::from_bytes(ctx.rng.bytes(len));
        if ctx.rng.chance(0.5) {
            UserOut::to_server(msg)
        } else {
            UserOut::to_world(msg)
        }
    }

    fn name(&self) -> String {
        "babbler-user".to_string()
    }
}

/// A server that emits random bytes on random channels.
#[derive(Clone, Debug, Default)]
pub struct BabblerServer;

impl ServerStrategy for BabblerServer {
    fn step(&mut self, ctx: &mut StepCtx<'_>, _input: &ServerIn) -> ServerOut {
        let len = ctx.rng.index(6);
        let msg = crate::msg::Message::from_bytes(ctx.rng.bytes(len));
        if ctx.rng.chance(0.5) {
            ServerOut::to_user(msg)
        } else {
            ServerOut::to_world(msg)
        }
    }

    fn name(&self) -> String {
        "babbler-server".to_string()
    }
}

/// Result of a forgivingness check.
#[derive(Clone, Debug)]
pub struct ForgivingReport {
    /// Trials in which the rescue pair achieved the goal after chaos.
    pub rescued: u32,
    /// Trials run.
    pub trials: u32,
}

impl ForgivingReport {
    /// `true` if every sampled chaotic prefix was recoverable.
    pub fn forgiving(&self) -> bool {
        self.trials > 0 && self.rescued == self.trials
    }
}

/// Estimates forgivingness of a finite goal: each trial babbles for a random
/// prefix of up to `max_chaos` rounds, then swaps in the rescue pair and
/// checks the goal is still achieved within `cfg.horizon` further rounds.
pub fn finite_forgiving<G: FiniteGoal>(
    goal: &G,
    rescue_user: &dyn Fn() -> BoxedUser,
    rescue_server: &dyn Fn() -> BoxedServer,
    max_chaos: u64,
    cfg: &TrialConfig,
) -> ForgivingReport {
    let mut rescued = 0;
    for trial in 0..cfg.trials {
        let mut rng = GocRng::seed_from_u64(cfg.seed).fork(1_000 + trial as u64);
        let chaos_rounds = rng.below(max_chaos.max(1));
        let world = goal.spawn_world(&mut rng);
        let mut exec =
            Execution::new(world, Box::new(BabblerServer), Box::new(BabblerUser), rng);
        let mut referee = FiniteMonitor::start(goal, &exec);
        referee.run(&mut exec, chaos_rounds);
        exec.swap_user(rescue_user());
        exec.swap_server(rescue_server());
        let t = referee.run(&mut exec, cfg.horizon);
        if referee.verdict(&t).achieved {
            rescued += 1;
        }
    }
    ForgivingReport { rescued, trials: cfg.trials }
}

/// Estimates forgivingness of a compact goal (see [`finite_forgiving`]).
///
/// The verdict only inspects the *post-chaos* suffix: compact success means
/// finitely many bad prefixes, so bad prefixes during chaos are forgiven by
/// definition; what matters is that the rescue pair stabilizes the run.
pub fn compact_forgiving<G: CompactGoal>(
    goal: &G,
    rescue_user: &dyn Fn() -> BoxedUser,
    rescue_server: &dyn Fn() -> BoxedServer,
    max_chaos: u64,
    cfg: &TrialConfig,
) -> ForgivingReport {
    let mut rescued = 0;
    for trial in 0..cfg.trials {
        let mut rng = GocRng::seed_from_u64(cfg.seed).fork(2_000 + trial as u64);
        let chaos_rounds = rng.below(max_chaos.max(1));
        let world = goal.spawn_world(&mut rng);
        let mut exec =
            Execution::new(world, Box::new(BabblerServer), Box::new(BabblerUser), rng);
        let mut monitor = CompactMonitor::start(goal, &exec);
        monitor.run(&mut exec, chaos_rounds);
        exec.swap_user(rescue_user());
        exec.swap_server(rescue_server());
        monitor.run_for(&mut exec, cfg.horizon);
        if monitor.verdict().achieved(cfg.window) {
            rescued += 1;
        }
    }
    ForgivingReport { rescued, trials: cfg.trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::SilentServer;
    use crate::toy;

    fn cfg() -> TrialConfig {
        TrialConfig { trials: 4, horizon: 300, seed: 7, window: 60 }
    }

    #[test]
    fn relay_server_is_helpful_for_magic_word() {
        let goal = toy::MagicWordGoal::new("hi");
        let class = toy::caesar_class("hi", 4, false);
        let report = finite_helpfulness(
            &goal,
            &|| Box::new(toy::RelayServer::with_shift(2)) as BoxedServer,
            &class,
            &cfg(),
        );
        assert!(report.helpful);
        assert_eq!(report.witness, Some(2), "compensating index matches shift");
        assert!(report.per_strategy[2].always_succeeded());
        assert_eq!(report.per_strategy[0].successes, 0);
    }

    #[test]
    fn silent_server_is_unhelpful() {
        let goal = toy::MagicWordGoal::new("hi");
        let class = toy::caesar_class("hi", 4, false);
        let report =
            finite_helpfulness(&goal, &|| Box::new(SilentServer) as BoxedServer, &class, &cfg());
        assert!(!report.helpful);
        assert_eq!(report.witness, None);
        assert!(report.per_strategy.iter().all(|s| s.successes == 0));
    }

    #[test]
    fn compact_helpfulness_finds_persistent_witness() {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let class = toy::caesar_class("hi", 4, true);
        let report = compact_helpfulness(
            &goal,
            &|| Box::new(toy::RelayServer::with_shift(1)) as BoxedServer,
            &class,
            &cfg(),
        );
        assert!(report.helpful);
        assert_eq!(report.witness, Some(1));
    }

    #[test]
    fn magic_word_goal_is_forgiving() {
        let goal = toy::MagicWordGoal::new("hi");
        let report = finite_forgiving(
            &goal,
            &|| Box::new(toy::SayThrough::new("hi")) as BoxedUser,
            &|| Box::new(toy::RelayServer::default()) as BoxedServer,
            50,
            &cfg(),
        );
        assert!(report.forgiving(), "report: {report:?}");
    }

    #[test]
    fn compact_magic_word_goal_is_forgiving() {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let report = compact_forgiving(
            &goal,
            &|| Box::new(toy::SayThrough::persistent("hi")) as BoxedUser,
            &|| Box::new(toy::RelayServer::default()) as BoxedServer,
            50,
            &cfg(),
        );
        assert!(report.forgiving(), "report: {report:?}");
    }

    #[test]
    fn unforgiving_rescue_pair_fails() {
        // A rescue pair that cannot achieve the goal shows up as
        // non-forgiving evidence (the checker is about the pair + goal).
        let goal = toy::MagicWordGoal::new("hi");
        let report = finite_forgiving(
            &goal,
            &|| Box::new(crate::strategy::SilentUser) as BoxedUser,
            &|| Box::new(SilentServer) as BoxedServer,
            50,
            &cfg(),
        );
        assert!(!report.forgiving());
        assert_eq!(report.rescued, 0);
    }

    #[test]
    fn babblers_have_names() {
        assert_eq!(BabblerUser.name(), "babbler-user");
        assert_eq!(BabblerServer.name(), "babbler-server");
    }

    #[test]
    fn trial_config_default_is_sane() {
        let c = TrialConfig::default();
        assert!(c.trials > 0);
        assert!(c.horizon > 0);
        assert!(c.window > 0);
    }
}
