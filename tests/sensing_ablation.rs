//! Experiment E5 — safety and viability are *necessary* hypotheses of
//! Theorem 1.
//!
//! Break each property and watch the matching failure mode appear:
//!
//! - **unsafe** sensing (always positive): the universal user halts
//!   immediately with an unverified, wrong outcome;
//! - **non-viable** sensing (always negative / never positive): the finite
//!   universal user never halts, and the compact one cycles forever.

use goc::core::sensing::{AlwaysNegative, AlwaysPositive, Deadline};
use goc::core::toy;
use goc::prelude::*;

fn finite_universal(sensing: BoxedSensing) -> LevinUniversalUser {
    LevinUniversalUser::new(
        Box::new(toy::caesar_class("hi", 8, false)),
        sensing,
        8,
    )
}

#[test]
fn unsafe_sensing_causes_false_halt() {
    let goal = toy::MagicWordGoal::new("hi");
    let mut rng = GocRng::seed_from_u64(1);
    // Server is unhelpful: the goal is unachievable, yet unsafe sensing
    // makes the user "succeed" instantly.
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(goc::core::strategy::SilentServer),
        Box::new(finite_universal(Box::new(AlwaysPositive))),
        rng,
    );
    let t = exec.run(1_000);
    let v = evaluate_finite(&goal, &t);
    assert!(v.halted, "unsafe sensing halts immediately");
    assert!(!v.achieved, "…and the referee rejects: the goal was NOT achieved");
}

#[test]
fn nonviable_sensing_prevents_halting_even_with_helpful_server() {
    let goal = toy::MagicWordGoal::new("hi");
    let mut rng = GocRng::seed_from_u64(2);
    // The server is perfectly helpful, but sensing never reports success.
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(finite_universal(Box::new(AlwaysNegative))),
        rng,
    );
    let t = exec.run(20_000);
    let v = evaluate_finite(&goal, &t);
    assert!(!v.halted, "no positive indication, no halt — budget exhausted");
    // Note: the *world* did hear the word (candidate 0 is compatible); the
    // user just can't know. This is a viability failure, not unhelpfulness.
    assert!(t.state.heard_count > 0);
}

#[test]
fn compact_user_with_nonviable_sensing_cycles_forever() {
    let _goal = toy::CompactMagicWordGoal::new("hi", 16);
    let mut user = CompactUniversalUser::new(
        Box::new(toy::caesar_class("hi", 4, true)),
        Box::new(AlwaysNegative),
    );
    let mut rng = GocRng::seed_from_u64(3);
    // Drive by hand to count switches.
    for round in 0..1_000 {
        let mut ctx = StepCtx::new(round, &mut rng);
        let _ = goc::core::strategy::UserStrategy::step(&mut user, &mut ctx, &UserIn::default());
    }
    assert!(
        user.switch_count() >= 400,
        "always-negative sensing forces a switch nearly every round: {}",
        user.switch_count()
    );
}

#[test]
fn compact_user_with_unsafe_sensing_strands_on_wrong_strategy() {
    // Always-positive sensing never triggers a switch, so the compact user
    // strands on candidate 0 even when it is incompatible with the server.
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let mut rng = GocRng::seed_from_u64(4);
    let user = CompactUniversalUser::new(
        Box::new(toy::caesar_class("hi", 8, true)),
        Box::new(AlwaysPositive),
    );
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(5)), // needs candidate 5
        Box::new(user),
        rng,
    )
    .recording();
    let t = exec.run_for(5_000);
    let v = evaluate_compact(&goal, &t);
    assert!(!v.achieved(500), "stranded on candidate 0: {v:?}");
}

#[test]
fn correct_sensing_restores_the_theorem() {
    // Same setup as the failures above, with the honest sensing: works.
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let mut rng = GocRng::seed_from_u64(5);
    let user = CompactUniversalUser::new(
        Box::new(toy::caesar_class("hi", 8, true)),
        Box::new(Deadline::new(toy::ack_sensing(), 8)),
    );
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(5)),
        Box::new(user),
        rng,
    )
    .recording();
    let t = exec.run_for(10_000);
    let v = evaluate_compact(&goal, &t);
    assert!(v.achieved(1_000), "{v:?}");
}
