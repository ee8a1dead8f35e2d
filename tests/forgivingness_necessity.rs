//! Experiment E10 — **forgivingness is a necessary hypothesis** of
//! Theorem 1.
//!
//! The paper restricts attention to *forgiving* goals: "every finite partial
//! history can be extended to a successful history" (§2). The fragile
//! magic-word goal breaks that hypothesis — one wrong utterance poisons the
//! world permanently — and the universal constructions demonstrably stop
//! being universal: the viable candidate never gets an unpoisoned world.

use goc::core::helpful::{finite_forgiving, TrialConfig};
use goc::core::toy;
use goc::prelude::*;

#[test]
fn fragile_goal_is_measurably_unforgiving() {
    let goal = toy::FragileWordGoal::new("hi");
    // Even with a perfect rescue pair, a chaotic prefix has almost surely
    // poisoned the fragile world.
    let report = finite_forgiving(
        &goal,
        &|| Box::new(toy::SayThrough::new("hi")) as BoxedUser,
        &|| Box::new(toy::RelayServer::default()) as BoxedServer,
        100,
        &TrialConfig { trials: 8, horizon: 300, seed: 1, window: 50 },
    );
    assert!(!report.forgiving(), "{report:?}");
    // Contrast: the ordinary magic-word goal IS forgiving under the same
    // chaos (asserted again here, side by side).
    let forgiving_goal = toy::MagicWordGoal::new("hi");
    let report2 = finite_forgiving(
        &forgiving_goal,
        &|| Box::new(toy::SayThrough::new("hi")) as BoxedUser,
        &|| Box::new(toy::RelayServer::default()) as BoxedServer,
        100,
        &TrialConfig { trials: 8, horizon: 300, seed: 1, window: 50 },
    );
    assert!(report2.forgiving(), "{report2:?}");
}

#[test]
fn informed_user_still_achieves_the_fragile_goal() {
    // The goal itself is achievable — by a user that says the right thing
    // first. The *helpfulness* precondition holds; only forgivingness fails.
    let goal = toy::FragileWordGoal::new("hi");
    let mut rng = GocRng::seed_from_u64(2);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(3)),
        Box::new(toy::SayThrough::compensating("hi", 3)),
        rng,
    );
    let t = exec.run(50);
    assert!(evaluate_finite(&goal, &t).achieved);
}

#[test]
fn universal_user_fails_on_the_unforgiving_goal() {
    // Theorem 1's construction enumerates candidates; on the fragile world
    // the first wrong candidate's utterance poisons everything, so the
    // viable candidate (shift 3 → index 3) can never succeed afterwards.
    let goal = toy::FragileWordGoal::new("hi");
    let mut rng = GocRng::seed_from_u64(3);
    let universal = LevinUniversalUser::new(
        Box::new(toy::caesar_class("hi", 8, false)),
        Box::new(toy::ack_sensing()),
        8,
    );
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(3)),
        Box::new(universal),
        rng,
    );
    let t = exec.run(100_000);
    let v = evaluate_finite(&goal, &t);
    assert!(!v.achieved, "Theorem 1 must NOT extend to unforgiving goals: {v:?}");
    // Safety still holds: the user never falsely halts.
    assert!(!v.halted);
    // And the world is indeed poisoned.
    assert!(t.state.poisoned);
}

#[test]
fn universal_user_succeeds_if_the_viable_candidate_comes_first() {
    // The failure is specifically about ordering: with shift 0 (candidate 0
    // compatible), the first utterance is already right and the universal
    // user wins. Forgivingness is what frees the theorem from such luck.
    let goal = toy::FragileWordGoal::new("hi");
    let mut rng = GocRng::seed_from_u64(4);
    let universal = LevinUniversalUser::new(
        Box::new(toy::caesar_class("hi", 8, false)),
        Box::new(toy::ack_sensing()),
        8,
    );
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(universal),
        rng,
    );
    let t = exec.run(10_000);
    assert!(evaluate_finite(&goal, &t).achieved);
}
