//! Cross-crate property tests: invariants that must hold for any seed,
//! any class member, any parameter draw. Checked by the in-tree
//! `goc-testkit` harness — seeded, shrinking, zero external dependencies.

use goc::core::toy;
use goc::goals::codec::Encoding;
use goc::goals::printing::{Dialect, DriverServer, PrintGoal};
use goc::goals::transmission::Transform;
use goc::prelude::*;
use goc_testkit::{check, gens, prop_assert, prop_assert_eq, prop_assume};

/// Executions are deterministic functions of the seed.
#[test]
fn executions_are_seed_deterministic() {
    check(
        "executions_are_seed_deterministic",
        gens::tuple2(gens::any_u64(), gens::any_u8()),
        |&(seed, shift)| {
            let run = || {
                let goal = toy::MagicWordGoal::new("hi");
                let mut rng = GocRng::seed_from_u64(seed);
                let mut exec = Execution::new(
                    goal.spawn_world(&mut rng),
                    Box::new(toy::RelayServer::with_shift(shift)),
                    Box::new(toy::SayThrough::compensating("hi", shift)),
                    rng,
                )
                .recording();
                exec.run(64)
            };
            let (a, b) = (run(), run());
            prop_assert_eq!(a.rounds, b.rounds);
            prop_assert_eq!(a.view(), b.view());
            prop_assert_eq!(a.stop, b.stop);
            Ok(())
        },
    );
}

/// The compensating user beats its matching Caesar server for EVERY
/// shift — the viability witness exists across the whole class.
#[test]
fn compensating_user_is_universal_witness() {
    check(
        "compensating_user_is_universal_witness",
        gens::tuple2(gens::any_u8(), gens::any_u64()),
        |&(shift, seed)| {
            let goal = toy::MagicWordGoal::new("hello");
            let mut rng = GocRng::seed_from_u64(seed);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(toy::RelayServer::with_shift(shift)),
                Box::new(toy::SayThrough::compensating("hello", shift)),
                rng,
            );
            let t = exec.run(32);
            prop_assert!(evaluate_finite(&goal, &t).achieved);
            Ok(())
        },
    );
}

/// Dialect framing round-trips for every opcode/encoding/document.
#[test]
fn dialect_frame_parse_roundtrip() {
    check(
        "dialect_frame_parse_roundtrip",
        gens::tuple3(gens::any_u8(), gens::any_u8(), gens::bytes(1, 40)),
        |(opcode, mask, doc)| {
            for enc in [
                Encoding::Identity,
                Encoding::Reverse,
                Encoding::Xor(*mask),
                Encoding::Rot(*mask),
            ] {
                let d = Dialect::new(*opcode, enc);
                let wire = d.frame_job(doc);
                prop_assert_eq!(d.parse_job(&wire), Some(doc.clone()));
            }
            Ok(())
        },
    );
}

/// Transforms invert exactly on every payload.
#[test]
fn transforms_invert() {
    check(
        "transforms_invert",
        gens::tuple2(gens::any_u64(), gens::bytes(0, 64)),
        |(seed, payload)| {
            for t in [
                Transform::Table(*seed),
                Transform::Enc(Encoding::Xor(*seed as u8)),
                Transform::Enc(Encoding::Rot(*seed as u8)),
            ] {
                prop_assert_eq!(t.invert(&t.apply(payload)), payload.clone());
            }
            Ok(())
        },
    );
}

/// Compact verdicts are monotone: extending a flawless run by flawless
/// rounds never destroys achievement.
#[test]
fn compact_achievement_is_stable_under_longer_horizons() {
    check(
        "compact_achievement_is_stable_under_longer_horizons",
        gens::tuple2(gens::any_u64(), gens::u64_in(0, 2_000)),
        |&(seed, extra)| {
            let goal = toy::CompactMagicWordGoal::new("hi", 16);
            let mut rng = GocRng::seed_from_u64(seed);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(toy::RelayServer::default()),
                Box::new(toy::SayThrough::persistent("hi")),
                rng,
            )
            .recording();
            let t1 = exec.run_for(500);
            let v1 = evaluate_compact(&goal, &t1);
            let t2 = exec.run_for(extra);
            let v2 = evaluate_compact(&goal, &t2);
            prop_assert!(v1.achieved(100));
            prop_assert!(v2.achieved(100));
            prop_assert_eq!(v1.bad_prefixes, v2.bad_prefixes);
            Ok(())
        },
    );
}

/// The finite referee never accepts a run in which the printer did not
/// print the document (soundness of the printing referee).
#[test]
fn printing_referee_is_sound() {
    check(
        "printing_referee_is_sound",
        gens::tuple2(gens::any_u64(), gens::bytes(1, 10)),
        |(seed, junk_doc)| {
            prop_assume!(junk_doc.as_slice() != b"target");
            let goal = PrintGoal::new("target");
            let dialect = Dialect::new(0x01, Encoding::Identity);
            let mut rng = GocRng::seed_from_u64(*seed);
            // A user printing the WRONG document.
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(DriverServer::new(dialect.clone())),
                Box::new(goc::goals::printing::PrintingUser::persistent(
                    junk_doc.clone(),
                    dialect,
                )),
                rng,
            );
            let t = exec.run_for(100);
            prop_assert!(!evaluate_finite(&goal, &t).achieved);
            Ok(())
        },
    );
}

/// GocRng::below is uniform enough and in range for arbitrary bounds.
#[test]
fn rng_below_in_range() {
    check(
        "rng_below_in_range",
        gens::tuple2(gens::any_u64(), gens::u64_in(1, 1_000_000)),
        |&(seed, bound)| {
            let mut rng = GocRng::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(rng.below(bound) < bound);
            }
            Ok(())
        },
    );
}
