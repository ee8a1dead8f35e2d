//! Golden-vector pin for the `goc_core::snap` wire format.
//!
//! Two canonical snapshots — one per universal-user flavour — are checked
//! **byte-exactly** against files under `tests/golden/`. Any change to the
//! encoded layout fails this test until `SNAP_VERSION` is bumped and the
//! vectors are re-blessed, making format drift a decision instead of an
//! accident:
//!
//! ```text
//! GOC_BLESS=1 cargo test --test snap_golden
//! ```
//!
//! then commit the regenerated files *together with* the version bump.
//! The semantic half of the test decodes the committed files and replays
//! them to completion, so a vector that still byte-matches but no longer
//! *means* the same session is caught too.

use goc::core::sensing::Deadline;
use goc::core::snap::{SNAP_MAGIC, SNAP_VERSION};
use goc::core::toy;
use goc::prelude::*;
use std::fs;
use std::path::PathBuf;

const WORD: &str = "xyzzy";
const SEED: u64 = 3;
const CHECKPOINT: u64 = 32;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// The canonical finite-flavour scenario (Levin round-robin over the Caesar
/// class). Everything is pinned: word, class size, budget, seed, shift.
fn finite_skeleton() -> Execution<toy::MagicWorld> {
    let mut rng = GocRng::seed_from_u64(SEED);
    let goal = toy::MagicWordGoal::new(WORD);
    let world = goal.spawn_world(&mut rng);
    let user = LevinUniversalUser::round_robin(
        Box::new(toy::caesar_class(WORD, 16, false)),
        Box::new(toy::ack_sensing()),
        8,
    );
    Execution::new(world, Box::new(toy::RelayServer::with_shift(5)), Box::new(user), rng)
}

/// The canonical compact-flavour scenario (switch-on-negative user with the
/// slot-table `Resume` policy — the policy with the most persisted state).
fn compact_skeleton() -> Execution<toy::MagicWorld> {
    let mut rng = GocRng::seed_from_u64(SEED);
    let goal = toy::CompactMagicWordGoal::new(WORD, 16);
    let world = goal.spawn_world(&mut rng);
    let user = CompactUniversalUser::with_policy(
        Box::new(toy::caesar_class(WORD, 16, true)),
        Box::new(Deadline::new(toy::ack_sensing(), 16)),
        ResumePolicy::Resume,
    );
    Execution::new(world, Box::new(toy::RelayServer::with_shift(5)), Box::new(user), rng)
}

fn canonical_snapshot(mut exec: Execution<toy::MagicWorld>) -> Vec<u8> {
    for _ in 0..CHECKPOINT {
        exec.step();
    }
    exec.save_to_vec().expect("canonical snapshot must encode")
}

fn vectors() -> [(&'static str, Vec<u8>); 2] {
    [
        ("finite_levin_r32.snap", canonical_snapshot(finite_skeleton())),
        ("compact_resume_r32.snap", canonical_snapshot(compact_skeleton())),
    ]
}

#[test]
fn golden_vectors_are_byte_exact() {
    let blessing = std::env::var_os("GOC_BLESS").is_some();
    for (name, bytes) in vectors() {
        let path = golden_path(name);
        if blessing {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, &bytes).unwrap_or_else(|e| panic!("bless {name}: {e}"));
            continue;
        }
        let golden = fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden vector {name} ({e}); regenerate with \
                 GOC_BLESS=1 cargo test --test snap_golden"
            )
        });
        if bytes != golden {
            let first_diff = bytes
                .iter()
                .zip(golden.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| bytes.len().min(golden.len()));
            panic!(
                "snapshot layout drifted from {name}: produced {} bytes vs {} golden, \
                 first difference at offset {first_diff}.\n\
                 If the format change is intentional, bump SNAP_VERSION in \
                 crates/core/src/snap.rs and re-bless the vectors \
                 (GOC_BLESS=1 cargo test --test snap_golden); \
                 otherwise the encoder regressed.",
                bytes.len(),
                golden.len(),
            );
        }
    }
}

/// The committed vectors open with the magic and the *current* version —
/// re-blessing without bumping `SNAP_VERSION` after a layout change would
/// otherwise go unnoticed.
#[test]
fn golden_vectors_carry_the_current_header() {
    for (name, _) in vectors() {
        let golden = fs::read(golden_path(name)).expect("golden vector present");
        assert!(golden.len() > 6, "{name}: truncated vector");
        assert_eq!(&golden[..4], &SNAP_MAGIC, "{name}: bad magic");
        let version = u16::from_le_bytes([golden[4], golden[5]]);
        assert_eq!(version, SNAP_VERSION, "{name}: stale format version");
    }
}

/// Semantic decode: the committed finite vector restores into a fresh
/// skeleton at the canonical round and finishes the session exactly as an
/// uninterrupted run does.
#[test]
fn golden_finite_vector_restores_and_finishes() {
    let golden = fs::read(golden_path("finite_levin_r32.snap")).expect("golden vector present");
    let mut restored = finite_skeleton();
    restored.restore(&golden).expect("golden vector must decode");
    assert_eq!(restored.round(), CHECKPOINT);
    assert_eq!(restored.world_states().len() as u64, CHECKPOINT + 1);
    let t = restored.run(2_000);

    let mut reference = finite_skeleton();
    let t_ref = reference.run(2_000);
    assert_eq!(t.rounds, t_ref.rounds, "settle round drifted");
    assert_eq!(t.stop, t_ref.stop, "halting verdict drifted");
    assert_eq!(t.world_states, t_ref.world_states, "world history drifted");
    assert_eq!(t.view, t_ref.view, "user view drifted");
}

/// Semantic decode for the compact vector, including the `Resume` slot
/// table: the restored copy and an uninterrupted run agree to the horizon.
#[test]
fn golden_compact_vector_restores_and_finishes() {
    let golden = fs::read(golden_path("compact_resume_r32.snap")).expect("golden vector present");
    let mut restored = compact_skeleton();
    restored.restore(&golden).expect("golden vector must decode");
    assert_eq!(restored.round(), CHECKPOINT);
    let t = restored.run_for(400 - CHECKPOINT);

    let mut reference = compact_skeleton();
    let t_ref = reference.run_for(400);
    assert_eq!(t.rounds, t_ref.rounds);
    assert_eq!(t.world_states, t_ref.world_states, "world history drifted");
    assert_eq!(t.view, t_ref.view, "user view drifted");
}

/// The golden vectors double as cross-config integrity fixtures: restoring
/// one into the other flavour's skeleton is an error, not a session.
#[test]
fn golden_vectors_reject_the_wrong_skeleton() {
    let finite = fs::read(golden_path("finite_levin_r32.snap")).expect("golden vector present");
    let mut compact = compact_skeleton();
    assert!(compact.restore(&finite).is_err());
}
