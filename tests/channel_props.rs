//! Channel-layer equivalence and determinism properties.
//!
//! The load-bearing claim of the channel refactor is that it changed
//! *nothing* by default: an [`Execution`] built with `Execution::new` (or
//! with two explicit `Perfect` channels) must produce byte-for-byte the
//! transcripts of the pre-channel engine. The reference below is a literal
//! transliteration of that engine's step loop — same rng forks, same
//! message rotation — checked against the real engine over random seeds,
//! servers and users.

use goc::core::channel::{Chained, Fault, FaultSchedule, Latency, Noisy, Scheduled};
use goc::core::msg::{ServerIn, UserIn, WorldIn};
use goc::core::toy;
use goc::core::wrappers::Lossy;
use goc::prelude::*;
use goc_testkit::{check, gens, prop_assert, prop_assert_eq};

/// The pre-channel execution engine, verbatim: three rng forks, six
/// in-flight message slots, direct rotation of outputs into next-round
/// inputs.
fn reference_run<W: WorldStrategy>(
    mut world: W,
    mut server: BoxedServer,
    mut user: BoxedUser,
    rng: GocRng,
    horizon: u64,
) -> (Vec<W::State>, UserView, u64, Option<Halt>) {
    let mut user_rng = rng.fork(1);
    let mut server_rng = rng.fork(2);
    let mut world_rng = rng.fork(3);
    let mut user_to_server = Message::silence();
    let mut user_to_world = Message::silence();
    let mut server_to_user = Message::silence();
    let mut server_to_world = Message::silence();
    let mut world_to_user = Message::silence();
    let mut world_to_server = Message::silence();
    let mut world_states = vec![world.state()];
    let mut view = UserView::new();
    let mut round = 0u64;
    let mut halt = user.halted();
    if halt.is_none() {
        for _ in 0..horizon {
            let user_in = UserIn {
                from_server: server_to_user.clone(),
                from_world: world_to_user.clone(),
            };
            let server_in = ServerIn {
                from_user: user_to_server.clone(),
                from_world: world_to_server.clone(),
            };
            let world_in = WorldIn {
                from_user: user_to_world.clone(),
                from_server: server_to_world.clone(),
            };
            let user_out = {
                let mut ctx = StepCtx::new(round, &mut user_rng);
                user.step(&mut ctx, &user_in)
            };
            let server_out = {
                let mut ctx = StepCtx::new(round, &mut server_rng);
                server.step(&mut ctx, &server_in)
            };
            let world_out = {
                let mut ctx = StepCtx::new(round, &mut world_rng);
                world.step(&mut ctx, &world_in)
            };
            view.push(ViewEvent { round, received: user_in, sent: user_out.clone() });
            world_states.push(world.state());
            user_to_server = user_out.to_server;
            user_to_world = user_out.to_world;
            server_to_user = server_out.to_user;
            server_to_world = server_out.to_world;
            world_to_user = world_out.to_user;
            world_to_server = world_out.to_server;
            round += 1;
            if let Some(h) = user.halted() {
                halt = Some(h);
                break;
            }
        }
    }
    (world_states, view, round, halt)
}

fn server_for(kind: u8, shift: u8) -> BoxedServer {
    match kind % 3 {
        0 => Box::new(toy::RelayServer::with_shift(shift)),
        // Lossy draws from the server rng stream: exercises rng alignment.
        1 => Box::new(Lossy::new(Box::new(toy::RelayServer::with_shift(shift)), 0.3)),
        _ => Box::new(SilentServer),
    }
}

fn user_for(kind: u8, shift: u8) -> BoxedUser {
    match kind % 2 {
        0 => Box::new(toy::SayThrough::compensating("hi", shift)),
        _ => Box::new(LevinUniversalUser::round_robin(
            Box::new(toy::caesar_class("hi", 8, false)),
            Box::new(toy::ack_sensing()),
            16,
        )),
    }
}

use goc::core::strategy::SilentServer;

#[test]
fn perfect_channels_are_bit_identical_to_the_prechannel_engine() {
    check(
        "perfect_channels_are_bit_identical_to_the_prechannel_engine",
        gens::tuple3(gens::any_u64(), gens::tuple2(gens::any_u8(), gens::u8_in(0, 8)), gens::u8_in(0, 2)),
        |&(seed, (server_kind, shift), user_kind)| {
            let goal = toy::MagicWordGoal::new("hi");
            let horizon = 400;

            let mut rng = GocRng::seed_from_u64(seed);
            let (ref_states, ref_view, ref_rounds, ref_halt) = reference_run(
                goal.spawn_world(&mut rng),
                server_for(server_kind, shift),
                user_for(user_kind, shift),
                rng,
                horizon,
            );

            let mut rng = GocRng::seed_from_u64(seed);
            let t = Execution::new(
                goal.spawn_world(&mut rng),
                server_for(server_kind, shift),
                user_for(user_kind, shift),
                rng,
            )
            .recording()
            .run(horizon);

            prop_assert_eq!(t.world_states(), &ref_states);
            prop_assert_eq!(t.view(), &ref_view);
            prop_assert_eq!(t.rounds, ref_rounds);
            prop_assert_eq!(t.halt().cloned(), ref_halt);

            // Explicit Perfect channels are the same constructor.
            let mut rng = GocRng::seed_from_u64(seed);
            let t2 = Execution::with_channels(
                goal.spawn_world(&mut rng),
                server_for(server_kind, shift),
                user_for(user_kind, shift),
                rng,
                Box::new(Perfect),
                Box::new(Perfect),
            )
            .recording()
            .run(horizon);
            prop_assert_eq!(t2.view(), &ref_view);
            prop_assert_eq!(t2.world_states(), &ref_states);
            Ok(())
        },
    );
}

#[test]
fn empty_schedule_and_zero_noise_channels_are_transparent() {
    check(
        "empty_schedule_and_zero_noise_channels_are_transparent",
        gens::tuple2(gens::any_u64(), gens::u8_in(0, 8)),
        |&(seed, shift)| {
            let goal = toy::MagicWordGoal::new("hi");
            let build = |up: BoxedChannel, down: BoxedChannel| {
                let mut rng = GocRng::seed_from_u64(seed);
                Execution::with_channels(
                    goal.spawn_world(&mut rng),
                    Box::new(toy::RelayServer::with_shift(shift)),
                    user_for(1, shift),
                    rng,
                    up,
                    down,
                )
                .recording()
                .run(300)
            };
            let perfect = build(Box::new(Perfect), Box::new(Perfect));
            let scheduled = build(
                Box::new(Scheduled::new(FaultSchedule::empty())),
                Box::new(Scheduled::new(FaultSchedule::empty())),
            );
            prop_assert_eq!(perfect.view(), scheduled.view());
            prop_assert_eq!(perfect.world_states(), scheduled.world_states());
            // Latency(0), Noisy(0, 0) and an empty chain are transparent
            // too; Noisy consumes rng from the channel's own fork only, so
            // party streams stay aligned.
            let neutral = build(
                Box::new(Chained::new(vec![Box::new(Latency::new(0)), Box::new(Noisy::new(0.0, 0.0))])),
                Box::new(Chained::new(Vec::new())),
            );
            prop_assert_eq!(perfect.view(), neutral.view());
            prop_assert_eq!(perfect.world_states(), neutral.world_states());
            Ok(())
        },
    );
}

#[test]
fn scheduled_fault_executions_are_seed_deterministic() {
    check(
        "scheduled_fault_executions_are_seed_deterministic",
        gens::tuple3(
            gens::any_u64(),
            gens::fault_schedule(200, 8, 16),
            gens::u8_in(0, 8),
        ),
        |(seed, schedule, shift)| {
            let run = || {
                let goal = toy::MagicWordGoal::new("hi");
                let mut rng = GocRng::seed_from_u64(*seed);
                Execution::with_channels(
                    goal.spawn_world(&mut rng),
                    Box::new(toy::RelayServer::with_shift(*shift)),
                    user_for(1, *shift),
                    rng,
                    Box::new(Scheduled::new(schedule.clone())),
                    Box::new(Chained::new(vec![
                        Box::new(Scheduled::new(schedule.clone())),
                        Box::new(Noisy::new(0.2, 0.2)),
                    ])),
                )
                .recording()
                .run(500)
            };
            let a = run();
            let b = run();
            prop_assert_eq!(a.view(), b.view());
            prop_assert_eq!(a.world_states(), b.world_states());
            prop_assert_eq!(a.rounds, b.rounds);
            Ok(())
        },
    );
}

#[test]
fn faults_scheduled_beyond_the_horizon_are_unobservable() {
    // Metamorphic: a schedule whose every fault lies past the horizon can
    // never influence the transcript.
    check(
        "faults_scheduled_beyond_the_horizon_are_unobservable",
        gens::tuple3(gens::any_u64(), gens::fault_schedule(100, 6, 8), gens::u8_in(0, 8)),
        |(seed, schedule, shift)| {
            let horizon = 250u64;
            let shifted = FaultSchedule::from_entries(
                schedule.entries().iter().map(|(r, f)| (r + horizon, f.clone())),
            );
            let goal = toy::MagicWordGoal::new("hi");
            let build = |up: BoxedChannel| {
                let mut rng = GocRng::seed_from_u64(*seed);
                Execution::with_channels(
                    goal.spawn_world(&mut rng),
                    Box::new(toy::RelayServer::with_shift(*shift)),
                    user_for(0, *shift),
                    rng,
                    up,
                    Box::new(Perfect),
                )
                .recording()
                .run(horizon)
            };
            let perfect = build(Box::new(Perfect));
            let late = build(Box::new(Scheduled::new(shifted)));
            prop_assert_eq!(perfect.view(), late.view());
            prop_assert_eq!(perfect.world_states(), late.world_states());
            Ok(())
        },
    );
}

#[test]
fn corrupting_the_whole_link_only_delays_conquest_never_falsifies_it() {
    // Metamorphic safety: whatever finite schedule hits the link, a halt
    // still implies genuine achievement (the ACK arrives from the world,
    // which no user↔server channel can touch).
    check(
        "corrupting_the_whole_link_only_delays_conquest_never_falsifies_it",
        gens::tuple2(gens::any_u64(), gens::adversarial_prefix_schedule(40, 10)),
        |(seed, schedule)| {
            let goal = toy::MagicWordGoal::new("hi");
            let mut rng = GocRng::seed_from_u64(*seed);
            let t = Execution::with_channels(
                goal.spawn_world(&mut rng),
                Box::new(toy::RelayServer::with_shift(3)),
                user_for(1, 3),
                rng,
                Box::new(Scheduled::new(schedule.clone())),
                Box::new(Scheduled::new(schedule.clone())),
            )
            .recording()
            .run(60_000 + schedule.quiet_after());
            let v = evaluate_finite(&goal, &t);
            prop_assert!(
                !v.halted || v.achieved,
                "false halt under schedule {:?}",
                schedule
            );
            prop_assert!(v.achieved, "bounded-loss prefix defeated a helpful relay: {:?}", schedule);
            Ok(())
        },
    );
}

#[test]
fn single_fault_kinds_behave_as_documented_end_to_end() {
    // A message sent at round r through Fault::Delay{d} arrives exactly d
    // rounds later than through Perfect; Drop never arrives; Corrupt
    // arrives changed. Driven through a real execution, not the unit layer.
    let goal = toy::MagicWordGoal::new("hi");
    let run = |up: BoxedChannel| {
        let mut rng = GocRng::seed_from_u64(77);
        let t = Execution::with_channels(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(0)),
            Box::new(toy::SayThrough::persistent("hi")),
            rng,
            up,
            Box::new(Perfect),
        )
        .run_for(30);
        t.state.heard_count
    };
    let baseline = run(Box::new(Perfect));
    assert!(baseline > 0);
    // Dropping every round the user speaks prevents any hearing.
    let all_drops = FaultSchedule::from_entries((0..30).map(|r| (r, Fault::Drop)));
    assert_eq!(run(Box::new(Scheduled::new(all_drops))), 0);
    // A pure delay of 5 loses at most 5 hearings relative to baseline.
    let delayed = FaultSchedule::from_entries((0..30).map(|r| (r, Fault::Delay { rounds: 5 })));
    let heard_delayed = run(Box::new(Scheduled::new(delayed)));
    assert!(heard_delayed >= baseline.saturating_sub(5), "{heard_delayed} vs {baseline}");
    // Corrupting every round garbles the word so the world never hears it.
    let corrupted = FaultSchedule::from_entries((0..30).map(|r| (r, Fault::Corrupt { mask: 0x01 })));
    assert_eq!(run(Box::new(Scheduled::new(corrupted))), 0);
}
