//! Metamorphic conformance sweep for the paper's two invariants.
//!
//! Theorem 1 rests on **sensing safety** (no positive verdict on an
//! unachieved goal, no false halt — unconditionally, against *any* server
//! and any channel) and **viability** (a helpful server is eventually
//! conquered). This module checks both *metamorphically*: instead of fixed
//! expected outputs, it asserts relations that must survive generated
//! channel-fault schedules:
//!
//! - **Safety.** For every goal/server-class/sensing triple, under every
//!   generated [`FaultSchedule`] (applied to both directions of the
//!   user↔server link): a replayed fresh sensing instance never returns
//!   `Positive` on a world-state prefix the referee would reject, and the
//!   universal user never halts without the goal being achieved.
//! - **Viability.** Every generated schedule is *finite*, hence
//!   bounded-loss: after [`FaultSchedule::quiet_after`] the link is perfect
//!   again, so a helpful server stays helpful for the (forgiving) toy goals
//!   and the universal user must still conquer it when the horizon is
//!   extended past the schedule's tail.
//!
//! Failing schedules are shrunk by the property harness toward the empty
//! schedule and reported as a replayable `(seed, stream, schedule)` triple
//! via [`Failure::report`]. The sweep itself is deterministic: a fixed
//! [`SweepConfig`] always produces the identical [`ConformanceReport`],
//! regardless of `GOC_THREADS` or testkit env overrides — `ci.sh` diffs two
//! runs to enforce exactly that.

use crate::gens::{
    adversarial_prefix_schedule, bounded_loss_schedule, bursty_schedule, fault_schedule, Gen,
};
use crate::{check_result, CaseError, Config};
use goc_core::channel::{FaultSchedule, Scheduled};
use goc_core::exec::{Execution, History};
use goc_core::goal::{evaluate_compact, evaluate_finite, CompactGoal, Goal};
use goc_core::rng::GocRng;
use goc_core::sensing::{BoxedSensing, Deadline, Sensing};
use goc_core::strategy::{BoxedServer, SilentServer};
use goc_core::toy::{self, MagicState};
use goc_core::universal::{CompactUniversalUser, LevinUniversalUser};

/// Budget and seeding for one conformance sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Root seed; schedule generation and execution seeds derive from it.
    pub seed: u64,
    /// Fault schedules generated per property.
    pub cases: u64,
    /// Base conquer budget in rounds; each run extends it by the schedule's
    /// [`FaultSchedule::quiet_after`] tail so viability is judged only after
    /// the link has recovered.
    pub horizon: u64,
    /// Schedules place faults on rounds `[0, max_round)`.
    pub max_round: u64,
    /// Maximum faults per schedule.
    pub max_faults: usize,
    /// Maximum fault parameter (delay rounds, reorder depth, burst length).
    pub max_param: u64,
}

impl SweepConfig {
    /// The full sweep at `seed`.
    pub fn new(seed: u64) -> Self {
        SweepConfig { seed, cases: 10, horizon: 30_000, max_round: 96, max_faults: 6, max_param: 12 }
    }

    /// A cheaper sweep for CI smoke and doctests.
    pub fn quick(seed: u64) -> Self {
        SweepConfig { cases: 5, ..SweepConfig::new(seed) }
    }
}

/// The outcome of a full sweep; render with [`ConformanceReport::render`].
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// The seed the sweep ran under.
    pub seed: u64,
    /// Cases per property.
    pub cases: u64,
    /// Names of properties that passed, in check order.
    pub passed: Vec<String>,
    /// Rendered safety violations (expected: none, under any schedule).
    pub safety_violations: Vec<String>,
    /// Rendered shrunk viability counterexamples (expected: none; every
    /// finite schedule is bounded-loss).
    pub viability_failures: Vec<String>,
}

impl ConformanceReport {
    /// `true` if both invariants held on every triple.
    pub fn holds(&self) -> bool {
        self.safety_violations.is_empty() && self.viability_failures.is_empty()
    }

    /// Deterministic multi-line report, stable across runs and thread
    /// counts for a fixed [`SweepConfig`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "[goc-conformance] seed {:#x}, {} cases/property\n",
            self.seed, self.cases
        ));
        for name in &self.passed {
            out.push_str(&format!("  PASS {name}\n"));
        }
        for failure in &self.safety_violations {
            out.push_str(&format!("  SAFETY VIOLATION\n{}\n", indent(failure)));
        }
        for failure in &self.viability_failures {
            out.push_str(&format!("  VIABILITY FAILURE\n{}\n", indent(failure)));
        }
        out.push_str(&format!("safety violations: {}\n", self.safety_violations.len()));
        out.push_str(&format!("viability failures: {}\n", self.viability_failures.len()));
        out.push_str(if self.holds() { "RESULT: CONFORMANT\n" } else { "RESULT: NONCONFORMANT\n" });
        out
    }
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("    {l}\n")).collect()
}

/// What one faulted execution did, as far as the invariants care.
#[derive(Clone, Debug)]
struct RunOutcome {
    halted: bool,
    achieved: bool,
    /// Round of the first `Positive` indication (from a fresh replay of the
    /// triple's sensing over the recorded view) whose world-state prefix
    /// the referee rejects. `None` is the safe outcome.
    false_positive_round: Option<u64>,
}

/// Replays a fresh sensing over the view, returning the first positive
/// indication that is not grounded in an acceptable world-state prefix.
/// The magic-word referees judge a prefix by its last state, so
/// `acceptable` is handed the state after the indication's round.
fn first_unsound_positive(
    mut sensing: BoxedSensing,
    history: &History<MagicState>,
    acceptable: impl Fn(&MagicState) -> bool,
) -> Option<u64> {
    for (i, ev) in history.view.events().iter().enumerate() {
        // Event i closes round i; states[i + 1] is the state after it.
        if sensing.observe(ev).is_positive() && !acceptable(&history.world_states[i + 1]) {
            return Some(ev.round);
        }
    }
    None
}

const WORD: &str = "hi";
const SHIFTS: u8 = 8;
const LEVIN_BASE: u64 = 16;
const COMPACT_WINDOW: u64 = 64;
const COMPACT_DEADLINE: u64 = 32;
/// Compact viability judges the last `COMPACT_TAIL` prefixes: the schedule
/// has drained and the settled user must keep the word recurring.
const COMPACT_TAIL: u64 = 2_000;

fn finite_sensing(deadline: Option<u64>) -> BoxedSensing {
    match deadline {
        None => Box::new(toy::ack_sensing()),
        Some(t) => Box::new(Deadline::new(toy::ack_sensing(), t)),
    }
}

/// One finite-goal execution of the universal user against `server`, with
/// `schedule` installed on both directions of the user↔server link.
/// `horizon` is used as-is; the sweep adds the schedule's
/// [`FaultSchedule::quiet_after`] tail before calling.
fn run_finite(
    server: BoxedServer,
    deadline: Option<u64>,
    schedule: &FaultSchedule,
    seed: u64,
    horizon: u64,
) -> RunOutcome {
    let goal = toy::MagicWordGoal::new(WORD);
    let user = LevinUniversalUser::round_robin(
        Box::new(toy::caesar_class(WORD, SHIFTS, false)),
        finite_sensing(deadline),
        LEVIN_BASE,
    );
    let mut rng = GocRng::seed_from_u64(seed);
    let mut exec = Execution::with_channels(
        goal.spawn_world(&mut rng),
        server,
        Box::new(user),
        rng,
        Box::new(Scheduled::new(schedule.clone())),
        Box::new(Scheduled::new(schedule.clone())),
    )
    .recording();
    // Step until halt or horizon; the recorded view is replayed below.
    for _ in 0..horizon {
        exec.step();
        if exec.user().halted().is_some() {
            break;
        }
    }
    let t = exec.into_transcript();
    let v = evaluate_finite(&goal, &t);
    let false_positive_round = first_unsound_positive(
        finite_sensing(deadline),
        t.history.as_ref().expect("recorded"),
        |s| s.heard_count > 0,
    );
    RunOutcome { halted: v.halted, achieved: v.achieved, false_positive_round }
}

/// One compact-goal execution (the system runs the full horizon; the user
/// never halts but switches on negative sensing).
fn run_compact(server: BoxedServer, schedule: &FaultSchedule, seed: u64, horizon: u64) -> RunOutcome {
    let goal = toy::CompactMagicWordGoal::new(WORD, COMPACT_WINDOW);
    let user = CompactUniversalUser::new(
        Box::new(toy::caesar_class(WORD, SHIFTS, true)),
        Box::new(Deadline::new(toy::ack_sensing(), COMPACT_DEADLINE)),
    );
    let mut rng = GocRng::seed_from_u64(seed);
    let mut exec = Execution::with_channels(
        goal.spawn_world(&mut rng),
        server,
        Box::new(user),
        rng,
        Box::new(Scheduled::new(schedule.clone())),
        Box::new(Scheduled::new(schedule.clone())),
    )
    .recording();
    // Compact goals ignore halting: run the full horizon, judge the view.
    for _ in 0..horizon {
        exec.step();
    }
    let t = exec.into_transcript();
    let v = evaluate_compact(&goal, &t);
    let false_positive_round = first_unsound_positive(
        Box::new(toy::ack_sensing()),
        t.history.as_ref().expect("recorded"),
        |s| goal.prefix_acceptable(&mut (), s),
    );
    RunOutcome {
        halted: false,
        achieved: v.achieved(COMPACT_TAIL),
        false_positive_round,
    }
}

/// FNV-1a, used to derive per-property execution seeds from the sweep seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

struct Property {
    name: String,
    gen: Gen<FaultSchedule>,
    /// Runs one schedule; `seed` is the derived execution seed.
    run: Box<dyn Fn(&FaultSchedule, u64) -> RunOutcome>,
    /// Safety properties check "no false halt/positive"; viability
    /// properties additionally require conquest.
    expect_conquest: bool,
}

fn schedule_generators(cfg: &SweepConfig) -> Vec<(&'static str, Gen<FaultSchedule>)> {
    vec![
        ("general", fault_schedule(cfg.max_round, cfg.max_faults, cfg.max_param)),
        ("bounded-loss", bounded_loss_schedule(cfg.max_round, cfg.max_faults)),
        ("bursty", bursty_schedule(cfg.max_round, cfg.max_faults.min(4), cfg.max_param)),
        ("adversarial-prefix", adversarial_prefix_schedule(cfg.max_round.min(24), cfg.max_param)),
    ]
}

/// The repo's goal/server-class/sensing triples, instantiated as checkable
/// properties: viability against helpful servers from the class, safety
/// against unhelpful ones.
fn properties(cfg: &SweepConfig) -> Vec<Property> {
    let mut props = Vec::new();
    let horizon = cfg.horizon;
    // Safety runs don't need a conquest budget — only enough rounds to
    // tempt a false halt.
    let safety_horizon = cfg.horizon.min(4_000);

    for (gen_name, gen) in schedule_generators(cfg) {
        // Triple 1: finite magic-word / caesar relay class / ack sensing.
        for shift in [0u8, 5] {
            props.push(Property {
                name: format!("viability finite/caesar{SHIFTS}/ack vs relay(shift {shift}) [{gen_name}]"),
                gen: gen.clone(),
                run: Box::new(move |s, seed| {
                    run_finite(
                        Box::new(toy::RelayServer::with_shift(shift)),
                        None,
                        s,
                        seed,
                        horizon.saturating_add(s.quiet_after()),
                    )
                }),
                expect_conquest: true,
            });
        }
        props.push(Property {
            name: format!("safety    finite/caesar{SHIFTS}/ack vs silent-server [{gen_name}]"),
            gen: gen.clone(),
            run: Box::new(move |s, seed| {
                run_finite(Box::new(SilentServer), None, s, seed, safety_horizon)
            }),
            expect_conquest: false,
        });

        // Triple 2: finite magic-word / caesar relay class / Deadline(ack)
        // sensing — the deadline manufactures negatives under channel
        // faults; they must only ever cause switches, never false halts.
        props.push(Property {
            name: format!(
                "viability finite/caesar{SHIFTS}/deadline(ack) vs relay(shift 3) [{gen_name}]"
            ),
            gen: gen.clone(),
            run: Box::new(move |s, seed| {
                run_finite(
                    Box::new(toy::RelayServer::with_shift(3)),
                    Some(64),
                    s,
                    seed,
                    horizon.saturating_add(s.quiet_after()),
                )
            }),
            expect_conquest: true,
        });
        props.push(Property {
            name: format!(
                "safety    finite/caesar{SHIFTS}/deadline(ack) vs silent-server [{gen_name}]"
            ),
            gen: gen.clone(),
            run: Box::new(move |s, seed| {
                run_finite(Box::new(SilentServer), Some(64), s, seed, safety_horizon)
            }),
            expect_conquest: false,
        });

        // Triple 3: compact magic-word / persistent caesar class /
        // Deadline(ack) sensing, driven by the switch-on-negative user.
        props.push(Property {
            name: format!(
                "viability compact/caesar{SHIFTS}/deadline(ack) vs relay(shift 2) [{gen_name}]"
            ),
            gen: gen.clone(),
            run: Box::new(move |s, seed| {
                run_compact(
                    Box::new(toy::RelayServer::with_shift(2)),
                    s,
                    seed,
                    horizon.saturating_add(s.quiet_after()),
                )
            }),
            expect_conquest: true,
        });
        props.push(Property {
            name: format!(
                "safety    compact/caesar{SHIFTS}/deadline(ack) vs silent-server [{gen_name}]"
            ),
            gen: gen.clone(),
            run: Box::new(move |s, seed| {
                run_compact(Box::new(SilentServer), s, seed, safety_horizon)
            }),
            expect_conquest: false,
        });
    }
    props
}

/// Runs the full sweep. Deterministic in `cfg`; testkit env overrides are
/// deliberately ignored so CI output is reproducible.
pub fn sweep(cfg: &SweepConfig) -> ConformanceReport {
    let mut report = ConformanceReport {
        seed: cfg.seed,
        cases: cfg.cases,
        passed: Vec::new(),
        safety_violations: Vec::new(),
        viability_failures: Vec::new(),
    };
    for prop in properties(cfg) {
        let tk = Config {
            cases: cfg.cases,
            seed: cfg.seed,
            max_shrink_iters: 4_096,
            max_discards: 1_000,
        };
        let exec_seed = cfg.seed ^ fnv1a(prop.name.as_bytes());
        let run = prop.run;
        let expect_conquest = prop.expect_conquest;
        // Span per property: enter = generated cases, exit = 1 iff the
        // property held. The sweep is deterministic by construction, so
        // these records are safe to export at any thread count.
        let mut span = goc_core::obs::span("conformance.property", cfg.cases);
        let result = check_result(tk, &prop.name, prop.gen, move |schedule| {
            let outcome = run(schedule, exec_seed);
            if let Some(round) = outcome.false_positive_round {
                return Err(CaseError::fail(format!(
                    "SAFETY: positive sensing verdict at round {round} on an unacceptable prefix"
                )));
            }
            if !expect_conquest && outcome.halted && !outcome.achieved {
                return Err(CaseError::fail(
                    "SAFETY: user halted although the goal was not achieved".to_string(),
                ));
            }
            if expect_conquest && !outcome.achieved {
                return Err(CaseError::fail(
                    "VIABILITY: bounded-loss schedule defeated a helpful server".to_string(),
                ));
            }
            Ok(())
        });
        span.set_exit(result.is_ok() as u64);
        drop(span);
        match result {
            Ok(()) => report.passed.push(prop.name),
            Err(failure) => {
                // Safety breaches are violations even when discovered by a
                // viability property; classify by the failure message.
                if failure.message.contains("SAFETY") {
                    report.safety_violations.push(failure.report());
                } else {
                    report.viability_failures.push(failure.report());
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_core::channel::Fault;

    #[test]
    fn quick_sweep_is_conformant_and_reproducible() {
        let cfg = SweepConfig { cases: 2, horizon: 30_000, ..SweepConfig::quick(0xC0FFEE) };
        let a = sweep(&cfg);
        assert!(a.holds(), "{}", a.render());
        assert_eq!(a.safety_violations.len(), 0);
        let b = sweep(&cfg);
        assert_eq!(a.render(), b.render(), "sweep must be deterministic");
        assert!(a.render().contains("RESULT: CONFORMANT"));
    }

    #[test]
    fn starved_horizon_viability_failure_shrinks_to_a_replayable_schedule() {
        // Deliberately under-budget the horizon so big schedules defeat the
        // finite universal user: the harness must shrink the failing
        // schedule toward a minimal counterexample and report seed+stream.
        // Bursts pinned to round 0 with lengths up to 5000: most schedules
        // black out the entire 600-round budget.
        let tk = Config { cases: 8, seed: 0x5EED, max_shrink_iters: 4_096, max_discards: 100 };
        let gen = bursty_schedule(1, 3, 5_000);
        let result = check_result(tk, "starved-viability", gen, |schedule: &FaultSchedule| {
            let out = run_finite(
                Box::new(toy::RelayServer::with_shift(1)),
                None,
                schedule,
                0x5EED,
                600,
            );
            if !out.achieved {
                return Err(CaseError::fail("VIABILITY: not conquered".to_string()));
            }
            Ok(())
        });
        let failure = result.expect_err("a 600-round budget cannot absorb 700-round bursts");
        assert!(failure.shrink_steps > 0, "expected shrinking: {}", failure.report());
        assert!(failure.shrunk.contains("Burst"), "minimal schedule keeps a burst: {}", failure.report());
        let report = failure.report();
        assert!(report.contains("root seed"), "replayable seed missing: {report}");
        assert!(report.contains("fork stream"), "replayable stream missing: {report}");
    }

    #[test]
    fn run_finite_conquers_through_a_drop_schedule() {
        let schedule = FaultSchedule::from_entries(vec![
            (0, Fault::Drop),
            (1, Fault::Burst { len: 8 }),
            (12, Fault::Corrupt { mask: 0x55 }),
        ]);
        let out =
            run_finite(Box::new(toy::RelayServer::with_shift(4)), None, &schedule, 7, 30_000);
        assert!(out.halted && out.achieved, "{out:?}");
        assert!(out.false_positive_round.is_none());
    }

    #[test]
    fn silent_server_never_yields_a_halt() {
        let schedule = FaultSchedule::single(3, Fault::Duplicate);
        let out = run_finite(Box::new(SilentServer), None, &schedule, 9, 2_000);
        assert!(!out.halted && !out.achieved);
        assert!(out.false_positive_round.is_none());
    }
}
