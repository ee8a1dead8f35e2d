//! Property tests for goc-core invariants: schedules, messages, randomness,
//! sensing combinators and the execution engine. Checked by the in-tree
//! `goc-testkit` harness — seeded, shrinking, zero external dependencies.

use goc_core::enumeration::{LinearSchedule, TriangularSchedule};
use goc_core::msg::Message;
use goc_core::prelude::*;
use goc_core::sensing::{Counted, Deadline, Grace, Indication, Patience, Sensing};
use goc_core::toy;
use goc_core::universal::{LevinSchedule, RoundRobinDoubling};
use goc_core::view::ViewEvent;
use goc_testkit::{check, gens, prop_assert, prop_assert_eq};

/// Triangular schedules visit every index below the bound infinitely
/// often: within any window of n(n+1) steps, each index appears.
#[test]
fn triangular_revisits_everyone() {
    check("triangular_revisits_everyone", gens::usize_in(1, 12), |&n| {
        let window = n * (n + 1);
        let order: Vec<usize> = TriangularSchedule::bounded(n).take(2 * window).collect();
        for idx in 0..n {
            let first_half = order[..window].iter().filter(|&&i| i == idx).count();
            let second_half = order[window..].iter().filter(|&&i| i == idx).count();
            prop_assert!(first_half >= 1, "index {idx} missing from first window");
            prop_assert!(second_half >= 1, "index {idx} missing from second window");
        }
        Ok(())
    });
}

/// Triangular schedules never yield an out-of-range index.
#[test]
fn triangular_stays_in_range() {
    check(
        "triangular_stays_in_range",
        gens::tuple2(gens::usize_in(1, 20), gens::usize_in(0, 500)),
        |&(n, take)| {
            prop_assert!(TriangularSchedule::bounded(n).take(take).all(|i| i < n));
            Ok(())
        },
    );
}

/// Linear schedules are monotone and saturate at the bound.
#[test]
fn linear_is_monotone() {
    check("linear_is_monotone", gens::usize_in(1, 20), |&n| {
        let order: Vec<usize> = LinearSchedule::bounded(n).take(3 * n).collect();
        prop_assert!(order.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*order.last().unwrap(), n - 1);
        Ok(())
    });
}

/// Levin budgets: candidate 0's cumulative budget is within a constant
/// factor of the total spent, for any prefix of the schedule.
#[test]
fn levin_accounting() {
    check(
        "levin_accounting",
        gens::tuple2(gens::u64_in(1, 32), gens::usize_in(1, 300)),
        |&(base, steps)| {
            let slots: Vec<(usize, u64)> = LevinSchedule::new(base, None).take(steps).collect();
            let total: u64 = slots.iter().map(|(_, b)| *b).sum();
            let c0: u64 = slots.iter().filter(|(i, _)| *i == 0).map(|(_, b)| *b).sum();
            // Candidate 0 receives at least a 1/4 share asymptotically; allow
            // slack for phase boundaries.
            prop_assert!(4 * c0 + 4 * base * 4 >= total, "c0 {c0} vs total {total}");
            Ok(())
        },
    );
}

/// Round-robin budgets: within one pass, everyone gets the same budget.
#[test]
fn round_robin_is_fair() {
    check(
        "round_robin_is_fair",
        gens::tuple2(gens::u64_in(1, 64), gens::usize_in(1, 16)),
        |&(base, n)| {
            let slots: Vec<(usize, u64)> = RoundRobinDoubling::new(base, n).take(3 * n).collect();
            for pass in 0..3 {
                let budgets: Vec<u64> =
                    slots[pass * n..(pass + 1) * n].iter().map(|(_, b)| *b).collect();
                prop_assert!(budgets.iter().all(|&b| b == budgets[0]));
            }
            Ok(())
        },
    );
}

/// Messages: bytes round-trip through all constructors.
#[test]
fn message_roundtrip() {
    check("message_roundtrip", gens::bytes(0, 128), |bytes: &Vec<u8>| {
        let m = Message::from_bytes(bytes.clone());
        prop_assert_eq!(m.as_bytes(), bytes.as_slice());
        prop_assert_eq!(m.len(), bytes.len());
        prop_assert_eq!(m.is_silence(), bytes.is_empty());
        prop_assert_eq!(m.clone().into_bytes(), bytes.clone());
        Ok(())
    });
}

/// GocRng: forked streams with distinct ids differ; same ids agree.
#[test]
fn rng_fork_contract() {
    check(
        "rng_fork_contract",
        gens::tuple3(gens::any_u64(), gens::any_u64(), gens::any_u64()),
        |&(seed, a, b)| {
            let root = GocRng::seed_from_u64(seed);
            let mut fa = root.fork(a);
            let mut fa2 = root.fork(a);
            prop_assert_eq!(fa.next_u64(), fa2.next_u64());
            if a != b {
                let mut fb = root.fork(b);
                // Not guaranteed distinct on a single draw, but 4 consecutive
                // collisions would be astronomically unlikely.
                let same = (0..4).filter(|_| fa.next_u64() == fb.next_u64()).count();
                prop_assert!(same < 4);
            }
            Ok(())
        },
    );
}

/// Deadline fires within `timeout` rounds of silence, never sooner.
#[test]
fn deadline_fires_exactly_on_schedule() {
    check("deadline_fires_exactly_on_schedule", gens::u64_in(1, 32), |&timeout| {
        let inner = goc_core::sensing::FnSensing::new("never", (), |_s, _e: &ViewEvent| {
            Indication::Silent
        });
        let mut s = Deadline::new(inner, timeout);
        let ev = ViewEvent { round: 0, received: UserIn::default(), sent: UserOut::silence() };
        for i in 1..=3 * timeout {
            let ind = s.observe(&ev);
            if i % timeout == 0 {
                prop_assert_eq!(ind, Indication::Negative, "at round {}", i);
            } else {
                prop_assert_eq!(ind, Indication::Silent, "at round {}", i);
            }
        }
        Ok(())
    });
}

/// Grace + Patience composition never produces MORE negatives than the
/// raw sensing.
#[test]
fn combinators_only_suppress() {
    check(
        "combinators_only_suppress",
        gens::tuple3(gens::u64_in(1, 8), gens::u64_in(0, 8), gens::u64_in(1, 4)),
        |&(timeout, grace, patience)| {
            let mk_raw = || {
                Deadline::new(
                    goc_core::sensing::FnSensing::new("never", (), |_s, _e: &ViewEvent| {
                        Indication::Silent
                    }),
                    timeout,
                )
            };
            let mut raw = Counted::new(mk_raw());
            let mut wrapped = Counted::new(Patience::new(Grace::new(mk_raw(), grace), patience));
            let ev = ViewEvent { round: 0, received: UserIn::default(), sent: UserOut::silence() };
            for _ in 0..100 {
                let _ = raw.observe(&ev);
                let _ = wrapped.observe(&ev);
            }
            prop_assert!(wrapped.counts().1 <= raw.counts().1);
            Ok(())
        },
    );
}

/// Execution horizon contract: run_for always executes exactly the
/// requested number of rounds, regardless of user halting.
#[test]
fn run_for_executes_exact_horizon() {
    check(
        "run_for_executes_exact_horizon",
        gens::tuple2(gens::u64_in(0, 200), gens::any_u64()),
        |&(horizon, seed)| {
            let goal = toy::MagicWordGoal::new("hi");
            let mut rng = GocRng::seed_from_u64(seed);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(toy::RelayServer::default()),
                Box::new(toy::SayThrough::new("hi")), // halts early
                rng,
            )
            .recording();
            let t = exec.run_for(horizon);
            prop_assert_eq!(t.rounds, horizon);
            prop_assert_eq!(t.world_states().len() as u64, horizon + 1);
            prop_assert_eq!(t.view().len() as u64, horizon);
            Ok(())
        },
    );
}

/// The compact universal user never yields an out-of-class index.
#[test]
fn compact_universal_index_in_range() {
    check(
        "compact_universal_index_in_range",
        gens::tuple2(gens::u8_in(1, 12), gens::u64_in(1, 200)),
        |&(n, rounds)| {
            let mut user = CompactUniversalUser::new(
                Box::new(toy::caesar_class("hi", n, true)),
                Box::new(goc_core::sensing::AlwaysNegative),
            );
            let mut rng = GocRng::seed_from_u64(0);
            for round in 0..rounds {
                let mut ctx = goc_core::strategy::StepCtx::new(round, &mut rng);
                let _ = goc_core::strategy::UserStrategy::step(
                    &mut user,
                    &mut ctx,
                    &UserIn::default(),
                );
                prop_assert!(user.current_index() < n as usize);
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Zero-copy round loop: copy modes, fork checkpoints
// ---------------------------------------------------------------------------

/// Drives the toy compact system — magic-word goal, caesar class, shift
/// relay, the given fault schedule on both directions of the user↔server
/// link — with the message pool on or off, and returns everything the
/// outside can observe: the full user view and the compact verdict.
fn compact_conquest(
    pooled: bool,
    shift: u8,
    timeout: u64,
    faults: &FaultSchedule,
    horizon: u64,
) -> (Vec<ViewEvent>, bool, Option<u64>) {
    goc_core::buf::with_pool(pooled, || {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let user = CompactUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, true)),
            Box::new(Deadline::new(toy::ack_sensing(), timeout)),
        );
        let mut rng = GocRng::seed_from_u64(77);
        let mut exec = Execution::with_channels(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(shift)),
            Box::new(user),
            rng,
            Box::new(Scheduled::new(faults.clone())),
            Box::new(Scheduled::new(faults.clone())),
        )
        .recording();
        for _ in 0..horizon {
            exec.step();
        }
        let t = exec.into_transcript();
        let v = evaluate_compact(&goal, &t);
        (t.view().events().to_vec(), v.achieved(horizon / 8), v.last_bad_prefix)
    })
}

/// Pooled and unpooled message buffers are observationally inert: same
/// views, same verdicts.
#[test]
fn copy_modes_are_observationally_inert() {
    check(
        "copy_modes_are_observationally_inert",
        gens::tuple2(gens::u8_in(0, 7), gens::bursty_schedule(150, 3, 20)),
        |(shift, faults)| {
            let pooled = compact_conquest(true, *shift, 8, faults, 800);
            let unpooled = compact_conquest(false, *shift, 8, faults, 800);
            prop_assert_eq!(&pooled.0, &unpooled.0, "views differ without the pool");
            prop_assert_eq!(pooled.1, unpooled.1);
            prop_assert_eq!(pooled.2, unpooled.2);
            Ok(())
        },
    );
}

/// `Execution::fork` is a transparent checkpoint: forking at an arbitrary
/// suspend point and carrying the fork to the horizon yields exactly the
/// run the original would have produced — and actually does produce, when
/// stepped alongside.
#[test]
fn fork_checkpoint_is_transparent() {
    check(
        "fork_checkpoint_is_transparent",
        gens::tuple3(
            gens::u8_in(0, 7),
            gens::u64_in(0, 300),
            gens::bounded_loss_schedule(100, 5),
        ),
        |(shift, suspend_at, faults)| {
            let horizon = 400u64;
            let build = || {
                let goal = toy::CompactMagicWordGoal::new("hi", 16);
                let user = toy::caesar_class("hi", 8, true)
                    .strategy(*shift as usize)
                    .expect("class has 8 strategies");
                let mut rng = GocRng::seed_from_u64(21);
                Execution::with_channels(
                    goal.spawn_world(&mut rng),
                    Box::new(toy::RelayServer::with_shift(*shift)),
                    user,
                    rng,
                    Box::new(Scheduled::new(faults.clone())),
                    Box::new(Scheduled::new(faults.clone())),
                )
                .recording()
            };
            // Arm 1: the uninterrupted reference run.
            let mut straight = build();
            for _ in 0..horizon {
                straight.step();
            }
            // Arm 2: run to the suspend point, fork, finish both sides.
            let mut original = build();
            let at = (*suspend_at).min(horizon);
            for _ in 0..at {
                original.step();
            }
            let mut forked = original.fork().expect("toy strategies are forkable");
            for _ in at..horizon {
                original.step();
                forked.step();
            }
            let reference = straight.history();
            prop_assert_eq!(reference, original.history());
            prop_assert_eq!(reference, forked.history());
            Ok(())
        },
    );
}

/// Whole [`SuccessReport`]s are bit-identical across `GOC_THREADS`.
#[test]
fn success_reports_survive_thread_count() {
    use goc_core::harness::compact_success;
    use goc_core::par::with_thread_count;
    check(
        "success_reports_survive_thread_count",
        gens::tuple2(gens::u64_in(4, 10), gens::u64_in(0, 1 << 20)),
        |&(timeout, seed)| {
            let goal = toy::CompactMagicWordGoal::new("hi", 16);
            let report = |threads: usize| {
                with_thread_count(threads, || {
                    compact_success(
                        &goal,
                        &|| Box::new(toy::RelayServer::with_shift(3)),
                        &|| {
                            Box::new(CompactUniversalUser::new(
                                Box::new(toy::caesar_class("hi", 8, true)),
                                Box::new(Deadline::new(toy::ack_sensing(), timeout)),
                            ))
                        },
                        4,
                        1_200,
                        150,
                        seed,
                    )
                })
            };
            prop_assert_eq!(report(1), report(4), "report drifted at 4 threads");
            Ok(())
        },
    );
}
