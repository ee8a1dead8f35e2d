//! Streaming referees judge exactly what recorded ones do.
//!
//! A referee is fed one world state per round and keeps in its own memory
//! whatever it needs. For every shipped goal, and for a toy referee that
//! needs its memory, the verdict of a monitor fed round by round must equal
//! the verdict on a recorded transcript of the same execution, over random
//! seeds and fault schedules on the user↔server link.

use goc::core::helpful::{BabblerServer, BabblerUser};
use goc::core::toy::{self, MagicState, MagicWorld};
use goc::goals::computation as comp;
use goc::goals::navigation as nav;
use goc::goals::printing as print;
use goc::goals::transmission as tx;
use goc::prelude::*;
use goc_testkit::{check, gens, prop_assert_eq, CaseError};
use std::sync::Arc;

/// Builds one execution of a goal's world from a seed, with `schedule` on
/// both directions of the user↔server link.
fn faulted<W: WorldStrategy>(
    world: W,
    server: BoxedServer,
    user: BoxedUser,
    rng: GocRng,
    schedule: &FaultSchedule,
) -> Execution<W> {
    Execution::with_channels(
        world,
        server,
        user,
        rng,
        Box::new(Scheduled::new(schedule.clone())),
        Box::new(Scheduled::new(schedule.clone())),
    )
}

fn finite_agrees<G: FiniteGoal>(
    goal: &G,
    build: impl Fn() -> Execution<G::World>,
    horizon: u64,
) -> Result<(), CaseError> {
    let mut exec = build();
    let mut referee = FiniteMonitor::new(goal);
    referee.push(&exec.world_state());
    let t = exec.run_each(horizon, |e| referee.push(&e.world_state()));
    let streamed = referee.verdict(&t);
    let recorded = evaluate_finite(goal, &build().recording().run(horizon));
    prop_assert_eq!(streamed, recorded, "{}", goal.name());
    Ok(())
}

fn compact_agrees<G: CompactGoal>(
    goal: &G,
    build: impl Fn() -> Execution<G::World>,
    horizon: u64,
) -> Result<(), CaseError> {
    let mut exec = build();
    let mut monitor = CompactMonitor::start(goal, &exec);
    monitor.run_for(&mut exec, horizon);
    let recorded = evaluate_compact(goal, &build().recording().run_for(horizon));
    prop_assert_eq!(monitor.verdict(), recorded, "{}", goal.name());
    Ok(())
}

/// The magic word must be heard in two distinct rounds: a referee that
/// counts what it was fed instead of reading a tally from the world.
struct HeardTwice;

/// What [`HeardTwice`] remembers: the last heard count it saw and the
/// number of rounds in which it grew.
#[derive(Default)]
struct Hearings {
    last_count: u64,
    rounds: u64,
}

impl HeardTwice {
    fn feed(memory: &mut Hearings, state: &MagicState) {
        if state.heard_count > memory.last_count {
            memory.rounds += 1;
        }
        memory.last_count = state.heard_count;
    }
}

impl Goal for HeardTwice {
    type World = MagicWorld;
    fn spawn_world(&self, _rng: &mut GocRng) -> MagicWorld {
        MagicWorld::new("hi")
    }
    fn kind(&self) -> GoalKind {
        GoalKind::Finite
    }
    fn name(&self) -> String {
        "heard-twice".to_string()
    }
}

impl FiniteGoal for HeardTwice {
    type Memory = Hearings;
    fn observe(&self, memory: &mut Hearings, state: &MagicState) {
        HeardTwice::feed(memory, state);
    }
    fn accepts(&self, memory: &Hearings, _last: &MagicState, _halt: &Halt) -> bool {
        memory.rounds >= 2
    }
}

impl CompactGoal for HeardTwice {
    type Memory = Hearings;
    fn prefix_acceptable(&self, memory: &mut Hearings, state: &MagicState) -> bool {
        HeardTwice::feed(memory, state);
        memory.rounds >= 2 || state.round < 32
    }
}

#[test]
fn streaming_verdicts_equal_recorded_verdicts() {
    check(
        "streaming_verdicts_equal_recorded_verdicts",
        gens::tuple3(
            gens::any_u64(),
            gens::u8_in(0, 8),
            gens::fault_schedule(120, 6, 8),
        ),
        |(seed, shift, schedule)| {
            let (seed, shift) = (*seed, *shift);
            let rng = || GocRng::seed_from_u64(seed);
            let relay = || -> BoxedServer { Box::new(toy::RelayServer::with_shift(shift)) };
            let magic_user = || -> BoxedUser {
                Box::new(LevinUniversalUser::round_robin(
                    Box::new(toy::caesar_class("hi", 8, false)),
                    Box::new(toy::ack_sensing()),
                    8,
                ))
            };
            let compact_user = || -> BoxedUser {
                Box::new(CompactUniversalUser::new(
                    Box::new(toy::caesar_class("hi", 8, true)),
                    Box::new(goc::core::sensing::Deadline::new(toy::ack_sensing(), 16)),
                ))
            };

            let goal = toy::MagicWordGoal::new("hi");
            let build = || {
                let mut r = rng();
                faulted(goal.spawn_world(&mut r), relay(), magic_user(), r, schedule)
            };
            finite_agrees(&goal, build, 400)?;

            let goal = toy::FragileWordGoal::new("hi");
            let build = || {
                let mut r = rng();
                faulted(goal.spawn_world(&mut r), relay(), magic_user(), r, schedule)
            };
            finite_agrees(&goal, build, 400)?;

            let goal = toy::CompactMagicWordGoal::new("hi", 16);
            let build = || {
                let mut r = rng();
                faulted(
                    goal.spawn_world(&mut r),
                    relay(),
                    compact_user(),
                    r,
                    schedule,
                )
            };
            compact_agrees(&goal, build, 400)?;

            let build = || {
                let mut r = rng();
                faulted(
                    HeardTwice.spawn_world(&mut r),
                    relay(),
                    compact_user(),
                    r,
                    schedule,
                )
            };
            finite_agrees(&HeardTwice, build, 400)?;
            compact_agrees(&HeardTwice, build, 400)?;

            let dialect =
                print::Dialect::class(&[0x11, 0x22], &print::Encoding::family(&[0x5a], &[3]))
                    .remove(usize::from(shift) % 2);
            let goal = print::PrintGoal::new("doc");
            let build = || {
                let mut r = rng();
                let user = print::PrintingUser::persistent("doc", dialect.clone());
                let server = Box::new(print::DriverServer::new(dialect.clone()));
                faulted(
                    goal.spawn_world(&mut r),
                    server,
                    Box::new(user),
                    r,
                    schedule,
                )
            };
            finite_agrees(&goal, build, 200)?;
            let goal = print::CompactPrintGoal::new("doc", 16);
            let build = || {
                let mut r = rng();
                let user = print::PrintingUser::persistent("doc", dialect.clone());
                let server = Box::new(print::DriverServer::new(dialect.clone()));
                faulted(
                    goal.spawn_world(&mut r),
                    server,
                    Box::new(user),
                    r,
                    schedule,
                )
            };
            compact_agrees(&goal, build, 200)?;

            let puzzle: Arc<dyn comp::Puzzle + Send + Sync> =
                Arc::new(comp::ModSquareRoot::new(10007));
            let goal = comp::DelegationGoal::new(puzzle);
            let build = || {
                let mut r = rng();
                let world = goal.spawn_world(&mut r);
                faulted(
                    world,
                    Box::new(BabblerServer),
                    Box::new(BabblerUser),
                    r,
                    schedule,
                )
            };
            finite_agrees(&goal, build, 200)?;

            let goal = nav::NavigationGoal::new(6, 6, 40);
            let build = || {
                let mut r = rng();
                let server = Box::new(nav::ActuatorServer::new(nav::Wiring::nth(shift as usize)));
                faulted(
                    goal.spawn_world(&mut r),
                    server,
                    Box::new(BabblerUser),
                    r,
                    schedule,
                )
            };
            compact_agrees(&goal, build, 300)?;

            let goal = tx::TransmissionGoal::new(3, 40, 20);
            let build = || {
                let mut r = rng();
                faulted(
                    goal.spawn_world(&mut r),
                    Box::new(BabblerServer),
                    Box::new(BabblerUser),
                    r,
                    schedule,
                )
            };
            compact_agrees(&goal, build, 300)?;
            Ok(())
        },
    );
}
