//! Experiment E1 — Theorem 1, compact case.
//!
//! For the compact printing goal and the dialect server class, safe+viable
//! sensing exists (tray feedback + deadline), and the switch-on-negative
//! universal user achieves the goal with **every** server in the class, from
//! arbitrary start states, for every sampled seed.

use goc::core::helpful::TrialConfig;
use goc::core::sensing::{Deadline, Sensing};
use goc::core::validate;
use goc::core::wrappers::ScrambledStart;
use goc::goals::printing::*;
use goc::prelude::*;

const DOC: &str = "manifesto";

fn dialects() -> Vec<Dialect> {
    Dialect::class(&[0x11, 0x22, 0x33], &Encoding::family(&[0x5a], &[3]))
}

fn universal(dialects: &[Dialect]) -> CompactUniversalUser {
    CompactUniversalUser::new(
        Box::new(dialect_class(DOC, dialects, true)),
        Box::new(Deadline::new(tray_sensing(DOC), 24)),
    )
}

#[test]
fn universal_user_succeeds_with_every_dialect_server() {
    let dialects = dialects();
    let goal = CompactPrintGoal::new(DOC, 64);
    for (i, dialect) in dialects.iter().enumerate() {
        for seed in 0..3u64 {
            let mut rng = GocRng::seed_from_u64(1_000 * seed + i as u64);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(DriverServer::new(dialect.clone())),
                Box::new(universal(&dialects)),
                rng,
            )
            .recording();
            let t = exec.run_for(30_000);
            let v = evaluate_compact(&goal, &t);
            assert!(
                v.achieved(3_000),
                "dialect {i}, seed {seed}: {v:?} (Theorem 1 violated)"
            );
        }
    }
}

#[test]
fn universal_user_succeeds_from_scrambled_server_states() {
    // The theorem quantifies over arbitrary server start states.
    let dialects = dialects();
    let goal = CompactPrintGoal::new(DOC, 64);
    let dialect = dialects[4].clone();
    for warmup in [1u32, 10, 50] {
        let mut rng = GocRng::seed_from_u64(warmup as u64);
        let server = ScrambledStart::new(
            Box::new(DriverServer::new(dialect.clone())),
            warmup,
        );
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(server),
            Box::new(universal(&dialects)),
            rng,
        )
        .recording();
        let t = exec.run_for(30_000);
        let v = evaluate_compact(&goal, &t);
        assert!(v.achieved(3_000), "warmup {warmup}: {v:?}");
    }
}

#[test]
fn sensing_hypotheses_hold_for_this_goal_and_class() {
    let dialects = dialects();
    let goal = CompactPrintGoal::new(DOC, 64);
    let class = dialect_class(DOC, &dialects, true);
    let cfg = TrialConfig { trials: 2, horizon: 800, seed: 5, window: 100 };
    let mk = |d: Dialect| move || Box::new(DriverServer::new(d.clone())) as BoxedServer;
    let s0 = mk(dialects[0].clone());
    let s5 = mk(dialects[5].clone());
    let servers: Vec<validate::MakeServer<'_>> = vec![&s0, &s5];
    let sensing = || Box::new(Deadline::new(tray_sensing(DOC), 24)) as Box<dyn Sensing>;

    let safety = validate::compact_safety(&goal, &servers, &class, &sensing, &cfg);
    assert!(safety.holds(), "compact safety violated: {:?}", safety.violations);

    let viability = validate::compact_viability(&goal, &servers, &class, &sensing, &cfg);
    assert!(viability.holds(), "compact viability violated: {:?}", viability.violations);
}

#[test]
fn every_dialect_server_is_helpful() {
    // Precondition of the theorem-experiment: the class only contains
    // helpful servers.
    let dialects = dialects();
    let goal = CompactPrintGoal::new(DOC, 64);
    let class = dialect_class(DOC, &dialects, true);
    let cfg = TrialConfig { trials: 2, horizon: 800, seed: 6, window: 100 };
    for (i, dialect) in dialects.iter().enumerate() {
        let d = dialect.clone();
        let report = goc::core::helpful::compact_helpfulness(
            &goal,
            &move || Box::new(DriverServer::new(d.clone())) as BoxedServer,
            &class,
            &cfg,
        );
        assert!(report.helpful, "dialect {i} not helpful");
        assert_eq!(report.witness, Some(i), "witness should be the matching user");
    }
}

#[test]
fn goal_is_forgiving() {
    // Precondition: every finite history extends to success.
    let dialects = dialects();
    let goal = CompactPrintGoal::new(DOC, 64);
    let d = dialects[0].clone();
    let d2 = d.clone();
    let report = goc::core::helpful::compact_forgiving(
        &goal,
        &move || Box::new(PrintingUser::persistent(DOC, d.clone())) as BoxedUser,
        &move || Box::new(DriverServer::new(d2.clone())) as BoxedServer,
        200,
        &TrialConfig { trials: 6, horizon: 1_500, seed: 7, window: 150 },
    );
    assert!(report.forgiving(), "{report:?}");
}
