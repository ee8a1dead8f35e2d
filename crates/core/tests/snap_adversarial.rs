//! Adversarial decode totality for `goc_core::snap`.
//!
//! A snapshot file crosses a trust boundary: `goc resume --snap` feeds
//! whatever bytes it finds on disk straight into [`Execution::restore`].
//! These tests subject real snapshots to truncation, bit flips, byte
//! stomps, chunk splices and outright garbage, and assert the one contract
//! that matters: **decoding is total**. Every input either restores cleanly
//! or returns a [`SnapError`] — never a panic, never an abort, never an
//! attacker-chosen allocation. When a corrupted buffer happens to decode
//! (e.g. a flip inside an opaque message payload), the restored execution
//! must still be steppable: corruption may change the session, but it must
//! not produce a value that later violates the engine's invariants.

use goc_core::sensing::Deadline;
use goc_core::toy;
use goc_core::prelude::*;
use goc_testkit::{check, gens, prop_assert};

use std::panic::{catch_unwind, AssertUnwindSafe};

const WORD: &str = "xyzzy";

/// Rounds the oracle drives a restored execution: enough to cross several
/// schedule switches, so state that restore let through is actually used.
const DRIVE_ROUNDS: usize = 200;

/// The corpus scenarios, stepped far enough that schedules, transcripts and
/// candidate state are non-trivial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Corpus {
    /// Round-robin Levin over the Caesar class.
    Finite,
    /// The compact user against a fixed shift.
    Compact,
    /// The served `magic` scenario: round-robin Levin, with the server's
    /// shift drawn from the seed first.
    Magic,
    /// The served `magic-compact` scenario.
    MagicCompact,
}

const ALL_CORPORA: [Corpus; 4] =
    [Corpus::Finite, Corpus::Compact, Corpus::Magic, Corpus::MagicCompact];

fn build(corpus: Corpus, seed: u64) -> Execution<toy::MagicWorld> {
    let mut rng = GocRng::seed_from_u64(seed);
    match corpus {
        Corpus::Finite => {
            let goal = toy::MagicWordGoal::new(WORD);
            let world = goal.spawn_world(&mut rng);
            let user = LevinUniversalUser::round_robin(
                Box::new(toy::caesar_class(WORD, 16, false)),
                Box::new(toy::ack_sensing()),
                8,
            );
            let server = Box::new(toy::RelayServer::with_shift(5));
            Execution::new(world, server, Box::new(user), rng)
        }
        Corpus::Compact => {
            let goal = toy::CompactMagicWordGoal::new(WORD, 16);
            let world = goal.spawn_world(&mut rng);
            let user = CompactUniversalUser::new(
                Box::new(toy::caesar_class(WORD, 16, true)),
                Box::new(Deadline::new(toy::ack_sensing(), 16)),
            );
            let server = Box::new(toy::RelayServer::with_shift(5));
            Execution::new(world, server, Box::new(user), rng)
        }
        Corpus::Magic => {
            let goal = toy::MagicWordGoal::new(WORD);
            let user = LevinUniversalUser::round_robin(
                Box::new(toy::caesar_class(WORD, 16, false)),
                Box::new(toy::ack_sensing()),
                8,
            );
            let server = Box::new(toy::RelayServer::with_shift(rng.below(16) as u8));
            Execution::new(goal.spawn_world(&mut rng), server, Box::new(user), rng)
        }
        Corpus::MagicCompact => {
            let goal = toy::CompactMagicWordGoal::new(WORD, 16);
            let user = CompactUniversalUser::new(
                Box::new(toy::caesar_class(WORD, 16, true)),
                Box::new(Deadline::new(toy::ack_sensing(), 16)),
            );
            let server = Box::new(toy::RelayServer::with_shift(rng.below(16) as u8));
            Execution::new(goal.spawn_world(&mut rng), server, Box::new(user), rng)
        }
    }
}

/// A real snapshot taken mid-run: every party block populated.
fn snapshot(corpus: Corpus) -> Vec<u8> {
    snapshot_at(corpus, 48)
}

fn snapshot_at(corpus: Corpus, round: u64) -> Vec<u8> {
    let mut exec = build(corpus, 3);
    for _ in 0..round {
        exec.step();
    }
    exec.save_to_vec().expect("honest snapshot must encode")
}

/// Restores `bytes` into `exec` and, if that succeeds, drives the result
/// [`DRIVE_ROUNDS`] rounds and re-serializes it. `Ok(false)` is a refusal.
fn restore_and_drive(exec: &mut Execution<toy::MagicWorld>, bytes: &[u8]) -> Result<bool, String> {
    match exec.restore(bytes) {
        Err(_) => Ok(false),
        Ok(()) => {
            for _ in 0..DRIVE_ROUNDS {
                exec.step();
            }
            exec.save_to_vec().map_err(|e| format!("re-save failed: {e}"))?;
            Ok(true)
        }
    }
}

/// The totality oracle: restoring `bytes` into a fresh skeleton must not
/// panic, and on the rare accidental success the execution must still run.
///
/// Corruption may slip past every check (possible: opaque payload bytes).
/// The restored state must then still be a valid execution: it is stepped
/// [`DRIVE_ROUNDS`] rounds, far enough to reach the schedule state a
/// restore admitted, and re-serialized.
fn restore_is_total(corpus: Corpus, bytes: &[u8]) -> Result<bool, String> {
    restore_and_drive(&mut build(corpus, 3), bytes)
}

/// Every strict prefix of a snapshot fails to decode: the format's length
/// prefixes and trailing-byte check leave no truncation undetected.
#[test]
fn truncations_always_err() {
    for corpus in [Corpus::Finite, Corpus::Compact] {
        let full = snapshot(corpus);
        assert!(full.len() > 64, "{corpus:?}: implausibly small snapshot");
        for len in 0..full.len() {
            let mut exec = build(corpus, 3);
            assert!(
                exec.restore(&full[..len]).is_err(),
                "{corpus:?}: {len}-byte prefix of a {}-byte snapshot decoded",
                full.len()
            );
        }
    }
}

/// Stomping any single byte to `0xFF` is survivable. This deterministic
/// sweep hits every length prefix, count, tag and enum discriminant in the
/// format — the places where a hostile value once meant an unbounded
/// allocation or an overflowing shift.
#[test]
fn byte_stomps_decode_totally() {
    for corpus in [Corpus::Finite, Corpus::Compact] {
        let full = snapshot(corpus);
        for i in 0..full.len() {
            if full[i] == 0xFF {
                continue;
            }
            let mut hostile = full.clone();
            hostile[i] = 0xFF;
            restore_is_total(corpus, &hostile)
                .unwrap_or_else(|e| panic!("{corpus:?}: stomp at byte {i}: {e}"));
        }
    }
}

/// Every single-bit flip of each corpus's round-40 snapshot is refused, or
/// restores and then drives [`DRIVE_ROUNDS`] rounds without a panic. Only
/// state a live user could have reached may be restored: a flip in a
/// derived schedule field must be refused, not left to panic at the next
/// switch. One skeleton per corpus takes every restore, so restoring into
/// an execution that has already stepped is exercised too.
#[test]
fn every_bit_flip_is_refused_or_runs() {
    let mut failures = Vec::new();
    for corpus in ALL_CORPORA {
        let base = snapshot_at(corpus, 40);
        let mut exec = build(corpus, 3);
        let (mut restored, mut panics) = (0usize, Vec::new());
        for bit in 0..base.len() * 8 {
            let mut hostile = base.clone();
            hostile[bit / 8] ^= 1 << (bit % 8);
            match catch_unwind(AssertUnwindSafe(|| restore_and_drive(&mut exec, &hostile))) {
                Ok(Ok(ran)) => restored += usize::from(ran),
                Ok(Err(e)) => panic!("{corpus:?}: flip of bit {bit}: {e}"),
                Err(_) => {
                    panics.push(bit);
                    exec = build(corpus, 3);
                }
            }
        }
        if let Some(first) = panics.first() {
            failures.push(format!(
                "{corpus:?}: {} of {} flips panicked (first at byte {}); {restored} restored",
                panics.len(),
                base.len() * 8,
                first / 8,
            ));
        }
        // The honest snapshot still restores into the well-worn skeleton.
        assert!(restore_and_drive(&mut exec, &base).expect("honest restore runs"));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Random single-bit flips are survivable (property-tested with shrinking:
/// a failure reports the minimal flip position).
#[test]
fn bit_flips_decode_totally() {
    let finite = snapshot(Corpus::Finite);
    let compact = snapshot(Corpus::Compact);
    check(
        "snap_bit_flip_totality",
        gens::tuple3(
            gens::usize_in(0, 1),
            gens::usize_in(0, finite.len().max(compact.len()) - 1),
            gens::u8_in(0, 7),
        ),
        |&(which, byte, bit): &(usize, usize, u8)| {
            let (corpus, base) = match which {
                0 => (Corpus::Finite, &finite),
                _ => (Corpus::Compact, &compact),
            };
            let byte = byte % base.len();
            let mut hostile = base.clone();
            hostile[byte] ^= 1 << bit;
            restore_is_total(corpus, &hostile)
                .map_err(goc_testkit::CaseError::fail)?;
            Ok(())
        },
    );
}

/// Overwriting a random window with random bytes (a torn write, a bad
/// sector) is survivable.
#[test]
fn garbled_windows_decode_totally() {
    let base = snapshot(Corpus::Finite);
    let len = base.len();
    check(
        "snap_garble_totality",
        gens::tuple3(
            gens::usize_in(0, len - 1),
            gens::bytes(1, 64),
            gens::usize_in(0, 1),
        ),
        |&(start, ref junk, _): &(usize, Vec<u8>, usize)| {
            let mut hostile = base.clone();
            for (o, &b) in junk.iter().enumerate() {
                if start + o < hostile.len() {
                    hostile[start + o] = b;
                }
            }
            restore_is_total(Corpus::Finite, &hostile)
                .map_err(goc_testkit::CaseError::fail)?;
            Ok(())
        },
    );
}

/// Splicing two chunks of a valid snapshot (a corrupted copy, a bad merge)
/// is survivable.
#[test]
fn chunk_splices_decode_totally() {
    let base = snapshot(Corpus::Compact);
    let len = base.len();
    check(
        "snap_splice_totality",
        gens::tuple3(
            gens::usize_in(0, len - 1),
            gens::usize_in(0, len - 1),
            gens::usize_in(1, 48),
        ),
        |&(a, b, span): &(usize, usize, usize)| {
            let mut hostile = base.clone();
            for o in 0..span {
                let (x, y) = (a + o, b + o);
                if x < hostile.len() && y < hostile.len() {
                    hostile.swap(x, y);
                }
            }
            restore_is_total(Corpus::Compact, &hostile)
                .map_err(goc_testkit::CaseError::fail)?;
            Ok(())
        },
    );
}

/// Pure random garbage never decodes (the magic and party-name integrity
/// tags see to it) and never panics.
#[test]
fn random_garbage_always_errs() {
    check(
        "snap_garbage_totality",
        gens::bytes(0, 512),
        |junk: &Vec<u8>| {
            let mut exec = build(Corpus::Finite, 3);
            prop_assert!(
                exec.restore(junk).is_err(),
                "{}-byte random buffer decoded as a snapshot",
                junk.len()
            );
            Ok(())
        },
    );
}

/// A valid header followed by garbage still fails: structural validation
/// does not stop at the magic number.
#[test]
fn valid_header_with_garbage_body_errs() {
    let real = snapshot(Corpus::Finite);
    check(
        "snap_header_garbage_totality",
        gens::bytes(0, 256),
        |junk: &Vec<u8>| {
            let mut hostile = real[..6].to_vec(); // magic + version
            hostile.extend_from_slice(junk);
            let mut exec = build(Corpus::Finite, 3);
            prop_assert!(
                exec.restore(&hostile).is_err(),
                "header + {}-byte garbage body decoded",
                junk.len()
            );
            Ok(())
        },
    );
}

/// Restoring a snapshot into a skeleton of the *other* scenario fails with
/// an integrity error, not a scrambled session.
#[test]
fn cross_scenario_restore_errs() {
    let finite = snapshot(Corpus::Finite);
    let compact = snapshot(Corpus::Compact);
    let mut as_compact = build(Corpus::Compact, 3);
    assert!(as_compact.restore(&finite).is_err(), "finite snapshot restored into compact skeleton");
    let mut as_finite = build(Corpus::Finite, 3);
    assert!(as_finite.restore(&compact).is_err(), "compact snapshot restored into finite skeleton");
}

/// A declared length far past the end of the buffer is rejected up front —
/// the reader never allocates what the attacker declares.
#[test]
fn hostile_declared_lengths_are_gated() {
    let real = snapshot(Corpus::Finite);
    // Stamp a maximal little-endian u64 over every 8-byte window in the
    // first 256 bytes; whichever of those windows are length or count
    // prefixes now declare ~2^64 elements.
    for start in 0..real.len().min(256) {
        let mut hostile = real.clone();
        let end = (start + 8).min(hostile.len());
        for b in &mut hostile[start..end] {
            *b = 0xFF;
        }
        let mut exec = build(Corpus::Finite, 3);
        let _ = exec.restore(&hostile); // must return, not OOM
    }
}
