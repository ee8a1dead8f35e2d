//! Theorem 1 on the remaining two goals — transmission and navigation — and
//! the learning users that beat enumeration on both (the paper's closing
//! remark on efficient special cases).

use goc::core::sensing::{Deadline, Sensing};
use goc::core::validate;
use goc::core::helpful::TrialConfig;
use goc::goals::navigation as nav;
use goc::goals::transmission as tx;
use goc::prelude::*;

fn transform_family() -> Vec<tx::Transform> {
    tx::Transform::family(&[0x0f, 0xf0], &[1, 7], &[41, 42])
}

#[test]
fn compact_universal_user_conquers_every_transform() {
    let family = transform_family();
    let goal = tx::TransmissionGoal::new(3, 40, 20);
    for (i, transform) in family.iter().enumerate() {
        let universal = CompactUniversalUser::new(
            Box::new(tx::transform_class(&family)),
            Box::new(Deadline::new(tx::ok_sensing(), 45)),
        );
        let mut rng = GocRng::seed_from_u64(31 + i as u64);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(tx::PipeServer::new(transform.clone())),
            Box::new(universal),
            rng,
        )
        .recording();
        let t = exec.run_for(40_000);
        let v = evaluate_compact(&goal, &t);
        assert!(v.achieved(4_000), "transform {i} ({transform:?}): {v:?}");
    }
}

#[test]
fn probing_user_beats_the_universal_user_on_tables() {
    // Against a seeded 256-permutation NOT in the enumeration's family, the
    // enumeration-based universal user fails (no viable member), while the
    // probing learner succeeds — learning covers a strictly broader class.
    let family = transform_family();
    let foreign = tx::Transform::Table(999);
    assert!(!family.contains(&foreign));
    let goal = tx::TransmissionGoal::new(3, 40, 20);

    let universal = CompactUniversalUser::new(
        Box::new(tx::transform_class(&family)),
        Box::new(Deadline::new(tx::ok_sensing(), 45)),
    );
    let mut rng = GocRng::seed_from_u64(5);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(tx::PipeServer::new(foreign.clone())),
        Box::new(universal),
        rng,
    )
    .recording();
    let enum_v = evaluate_compact(&goal, &exec.run_for(20_000));
    assert!(!enum_v.achieved(2_000), "no viable member should exist: {enum_v:?}");

    let mut rng = GocRng::seed_from_u64(6);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(tx::PipeServer::new(foreign)),
        Box::new(tx::ProbingUser::new()),
        rng,
    )
    .recording();
    let probe_v = evaluate_compact(&goal, &exec.run_for(20_000));
    assert!(probe_v.achieved(2_000), "{probe_v:?}");
}

#[test]
fn ok_sensing_with_deadline_is_compactly_safe_and_viable() {
    let family = transform_family();
    let goal = tx::TransmissionGoal::new(3, 40, 20);
    let class = tx::transform_class(&family);
    let cfg = TrialConfig { trials: 2, horizon: 1_200, seed: 7, window: 150 };
    let t1 = family[1].clone();
    let mk = move || Box::new(tx::PipeServer::new(t1.clone())) as BoxedServer;
    let servers: Vec<validate::MakeServer<'_>> = vec![&mk];
    let sensing = || Box::new(Deadline::new(tx::ok_sensing(), 45)) as Box<dyn Sensing>;
    let safety = validate::compact_safety(&goal, &servers, &class, &sensing, &cfg);
    assert!(safety.holds(), "{:?}", safety.violations);
    let viability = validate::compact_viability(&goal, &servers, &class, &sensing, &cfg);
    assert!(viability.holds(), "{:?}", viability.violations);
}

#[test]
fn navigation_universal_user_conquers_every_wiring() {
    let goal = nav::NavigationGoal::new(6, 6, 40);
    for idx in [0usize, 6, 12, 18, 23] {
        let universal = CompactUniversalUser::new(
            Box::new(nav::wiring_class()),
            Box::new(Deadline::new(nav::visit_sensing(), 80)),
        );
        let mut rng = GocRng::seed_from_u64(61 + idx as u64);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(nav::ActuatorServer::new(nav::Wiring::nth(idx))),
            Box::new(universal),
            rng,
        )
        .recording();
        let t = exec.run_for(80_000);
        let v = evaluate_compact(&goal, &t);
        assert!(v.achieved(8_000), "wiring {idx}: {v:?}");
    }
}

#[test]
fn calibrating_navigator_settles_faster_than_enumeration() {
    let goal = nav::NavigationGoal::new(6, 6, 40);
    let wiring = nav::Wiring::nth(20); // deep in the enumeration

    let settle = |user: BoxedUser, seed: u64| -> Option<u64> {
        let mut rng = GocRng::seed_from_u64(seed);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(nav::ActuatorServer::new(wiring)),
            user,
            rng,
        )
        .recording();
        let t = exec.run_for(80_000);
        let v = evaluate_compact(&goal, &t);
        v.achieved(8_000).then(|| v.last_bad_prefix.unwrap_or(0))
    };

    let enum_settle = settle(
        Box::new(CompactUniversalUser::new(
            Box::new(nav::wiring_class()),
            Box::new(Deadline::new(nav::visit_sensing(), 80)),
        )),
        71,
    )
    .expect("universal user settles");
    let learn_settle =
        settle(Box::new(nav::CalibratingNavigator::new()), 72).expect("calibrator settles");
    assert!(
        learn_settle < enum_settle,
        "calibration ({learn_settle}) should settle before deep enumeration ({enum_settle})"
    );
}

#[test]
fn transmission_with_dialect_and_delay_composition() {
    // Wrappers compose: a delayed pipe is still helpful; the universal user
    // still wins (latency just stretches the deadline budget).
    use goc::core::wrappers::Delayed;
    let family = transform_family();
    let goal = tx::TransmissionGoal::new(3, 60, 30);
    let universal = CompactUniversalUser::new(
        Box::new(tx::transform_class(&family)),
        Box::new(Deadline::new(tx::ok_sensing(), 65)),
    );
    let mut rng = GocRng::seed_from_u64(81);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(Delayed::new(Box::new(tx::PipeServer::new(family[2].clone())), 2)),
        Box::new(universal),
        rng,
    )
    .recording();
    let t = exec.run_for(60_000);
    let v = evaluate_compact(&goal, &t);
    assert!(v.achieved(6_000), "{v:?}");
}
