//! Golden-vector pin for the `goc_core::snap` wire format.
//!
//! Three canonical snapshots — round-robin and classic Levin for the finite
//! flavour, and the compact one — are checked **byte-exactly** against files
//! under `tests/golden/`. Any change to the
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
//!
//! The files under `tests/golden/v1/` are the same three checkpoints in
//! the version-1 layout, which also carried the stop reason, the whole
//! world-state history and the user's view, plus a compact checkpoint
//! written under the deleted `Resume` revisit policy. They stay as refusal
//! vectors: restoring any of them must fail with
//! [`SnapError::UnsupportedVersion`].

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
    finite_with(|class, sensing| LevinUniversalUser::round_robin(class, sensing, 8))
}

/// The same scenario under the classic `LevinSchedule` weighting, whose
/// schedule cursor has its own encoding.
fn finite_classic_skeleton() -> Execution<toy::MagicWorld> {
    finite_with(|class, sensing| LevinUniversalUser::new(class, sensing, 8))
}

fn finite_with(
    user: impl FnOnce(Box<dyn StrategyEnumerator>, BoxedSensing) -> LevinUniversalUser,
) -> Execution<toy::MagicWorld> {
    let mut rng = GocRng::seed_from_u64(SEED);
    let goal = toy::MagicWordGoal::new(WORD);
    let world = goal.spawn_world(&mut rng);
    let user = user(
        Box::new(toy::caesar_class(WORD, 16, false)),
        Box::new(toy::ack_sensing()),
    );
    Execution::new(world, Box::new(toy::RelayServer::with_shift(5)), Box::new(user), rng)
}

/// The canonical compact-flavour scenario (switch-on-negative user), the
/// configuration of the served `magic-compact` scenario.
fn compact_skeleton() -> Execution<toy::MagicWorld> {
    let mut rng = GocRng::seed_from_u64(SEED);
    let goal = toy::CompactMagicWordGoal::new(WORD, 16);
    let world = goal.spawn_world(&mut rng);
    let user = CompactUniversalUser::new(
        Box::new(toy::caesar_class(WORD, 16, true)),
        Box::new(Deadline::new(toy::ack_sensing(), 16)),
    );
    Execution::new(world, Box::new(toy::RelayServer::with_shift(5)), Box::new(user), rng)
}

/// The compact vector of the deleted `Resume` revisit policy (version 1).
const REFUSED_VECTOR: &str = "v1/compact_resume_r32.snap";

fn canonical_snapshot(mut exec: Execution<toy::MagicWorld>) -> Vec<u8> {
    for _ in 0..CHECKPOINT {
        exec.step();
    }
    exec.save_to_vec().expect("canonical snapshot must encode")
}

fn vectors() -> [(&'static str, Vec<u8>); 3] {
    [
        ("finite_levin_r32.snap", canonical_snapshot(finite_skeleton())),
        ("finite_levin_classic_r32.snap", canonical_snapshot(finite_classic_skeleton())),
        ("compact_restart_r32.snap", canonical_snapshot(compact_skeleton())),
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
    for name in vectors().map(|(name, _)| name) {
        let golden = fs::read(golden_path(name)).expect("golden vector present");
        assert!(golden.len() > 6, "{name}: truncated vector");
        assert_eq!(&golden[..4], &SNAP_MAGIC, "{name}: bad magic");
        let version = u16::from_le_bytes([golden[4], golden[5]]);
        assert_eq!(version, SNAP_VERSION, "{name}: stale format version");
    }
}

/// Restores the committed finite vector `name` into a fresh skeleton at the
/// canonical round and checks that it finishes the session exactly as an
/// uninterrupted run does.
fn finite_vector_restores_and_finishes(name: &str, skeleton: fn() -> Execution<toy::MagicWorld>) {
    let golden = fs::read(golden_path(name)).expect("golden vector present");
    let mut restored = skeleton();
    restored.restore(&golden).expect("golden vector must decode");
    assert_eq!(restored.round(), CHECKPOINT);
    let t = restored.recording().run(2_000);

    let mut reference = skeleton().recording();
    let t_ref = reference.run(2_000);
    assert_eq!(t.rounds, t_ref.rounds, "{name}: settle round drifted");
    assert_eq!(t.stop, t_ref.stop, "{name}: halting verdict drifted");
    assert_same_tail(name, &t, &t_ref);
}

/// The restored run recorded from the checkpoint on; the reference from
/// round 0. From the checkpoint on they must agree state for state.
fn assert_same_tail(name: &str, t: &Transcript<toy::MagicState>, t_ref: &Transcript<toy::MagicState>) {
    let from = CHECKPOINT as usize;
    assert_eq!(t.world_states(), &t_ref.world_states()[from..], "{name}: world history drifted");
    assert_eq!(t.view().events(), t_ref.view().since(CHECKPOINT), "{name}: user view drifted");
}

/// The compact counterpart: the restored copy and an uninterrupted run agree
/// to the horizon.
fn compact_vector_restores_and_finishes(name: &str, skeleton: fn() -> Execution<toy::MagicWorld>) {
    let golden = fs::read(golden_path(name)).expect("golden vector present");
    let mut restored = skeleton();
    restored.restore(&golden).expect("golden vector must decode");
    assert_eq!(restored.round(), CHECKPOINT);
    let t = restored.recording().run_for(400 - CHECKPOINT);

    let mut reference = skeleton().recording();
    let t_ref = reference.run_for(400);
    assert_eq!(t.rounds, t_ref.rounds, "{name}: round count drifted");
    assert_same_tail(name, &t, &t_ref);
}

#[test]
fn golden_finite_vector_restores_and_finishes() {
    finite_vector_restores_and_finishes("finite_levin_r32.snap", finite_skeleton);
}

#[test]
fn golden_classic_levin_vector_restores_and_finishes() {
    finite_vector_restores_and_finishes("finite_levin_classic_r32.snap", finite_classic_skeleton);
}

#[test]
fn golden_compact_restart_vector_restores_and_finishes() {
    compact_vector_restores_and_finishes("compact_restart_r32.snap", compact_skeleton);
}

fn assert_refused_as_v1(name: &str, skeleton: fn() -> Execution<toy::MagicWorld>) {
    let golden = fs::read(golden_path(name)).expect("golden vector present");
    let err = skeleton().restore(&golden).unwrap_err();
    assert_eq!(err, SnapError::UnsupportedVersion { found: 1, supported: SNAP_VERSION }, "{name}");
}

/// The `Resume` vector is refused at its version, before its user block is
/// read. (A `Resume` policy tag in a current-version user block is refused
/// by `restore_refuses_the_deleted_policies` in `universal::compact`.)
#[test]
fn golden_compact_resume_vector_is_refused() {
    assert_refused_as_v1(REFUSED_VECTOR, compact_skeleton);
}

/// Version-1 snapshots carried the whole history; they are refused, not
/// read past their header.
#[test]
fn v1_vectors_are_refused_by_version() {
    assert_refused_as_v1("v1/finite_levin_r32.snap", finite_skeleton);
    assert_refused_as_v1("v1/finite_levin_classic_r32.snap", finite_classic_skeleton);
    assert_refused_as_v1("v1/compact_restart_r32.snap", compact_skeleton);
}

/// The golden vectors double as cross-config integrity fixtures: restoring
/// one into the other flavour's skeleton is an error, not a session.
#[test]
fn golden_vectors_reject_the_wrong_skeleton() {
    let finite = fs::read(golden_path("finite_levin_r32.snap")).expect("golden vector present");
    let mut compact = compact_skeleton();
    assert!(compact.restore(&finite).is_err());
}
