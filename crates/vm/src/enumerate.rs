//! Length-lexicographic enumeration of VM programs.
//!
//! Because program decoding is total, the length-lex enumeration of byte
//! strings **is** an enumeration of the entire strategy class — the literal
//! object the proof of Theorem 1 manipulates. The enumeration may be
//! restricted to an *alphabet* (a subset of bytes): the class shrinks to the
//! programs writable in that alphabet, which moves interesting programs to
//! much smaller indices, exactly like choosing a "broad class" of strategies
//! (paper §3, closing remark).

use crate::adapter::VmUser;
use crate::instr::Instr;
use crate::program::Program;
use goc_core::enumeration::StrategyEnumerator;
use goc_core::strategy::BoxedUser;
use std::collections::HashSet;

/// Enumerates byte strings over an alphabet in length-lex order and mounts
/// them as user strategies.
///
/// # Examples
///
/// ```
/// use goc_vm::enumerate::ProgramEnumerator;
///
/// // Full byte alphabet: index 0 is the empty program, 1..=256 the
/// // single-byte programs, and so on.
/// let e = ProgramEnumerator::full();
/// assert_eq!(e.program(0).len(), 0);
/// assert_eq!(e.program(1).len(), 1);
/// assert_eq!(e.program(257).len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ProgramEnumerator {
    alphabet: Vec<u8>,
    max_len: Option<usize>,
    fuel: u32,
}

impl ProgramEnumerator {
    /// Enumerates over the full byte alphabet, unbounded length.
    pub fn full() -> Self {
        ProgramEnumerator {
            alphabet: (0..=255).collect(),
            max_len: None,
            fuel: crate::machine::DEFAULT_FUEL,
        }
    }

    /// Enumerates programs writable in `alphabet`, unbounded length.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` is empty or contains duplicates.
    pub fn over(alphabet: impl Into<Vec<u8>>) -> Self {
        let alphabet = alphabet.into();
        assert!(!alphabet.is_empty(), "ProgramEnumerator requires a non-empty alphabet");
        let mut sorted = alphabet.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), alphabet.len(), "alphabet contains duplicate bytes");
        ProgramEnumerator {
            alphabet,
            max_len: None,
            fuel: crate::machine::DEFAULT_FUEL,
        }
    }

    /// Caps program length, making the class finite.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Sets the per-round fuel of mounted machines.
    ///
    /// # Panics
    ///
    /// Panics if `fuel == 0`.
    pub fn with_fuel(mut self, fuel: u32) -> Self {
        assert!(fuel > 0, "fuel must be positive");
        self.fuel = fuel;
        self
    }

    /// Kept only for perfbench; remove in the next benchmark PR. Returns
    /// `self` unchanged.
    pub fn with_cache(self, _enabled: bool) -> Self {
        self
    }

    /// Number of programs of length exactly `len` (may saturate at
    /// `u128::MAX` for huge alphabets/lengths).
    fn count_of_len(&self, len: usize) -> u128 {
        let a = self.alphabet.len() as u128;
        let mut n: u128 = 1;
        for _ in 0..len {
            n = n.saturating_mul(a);
        }
        n
    }

    /// Total number of programs, if the class is finite and fits in `usize`.
    pub fn total(&self) -> Option<usize> {
        let max_len = self.max_len?;
        let mut total: u128 = 0;
        for len in 0..=max_len {
            total = total.saturating_add(self.count_of_len(len));
        }
        usize::try_from(total).ok()
    }

    /// The `index`-th program in length-lex order.
    ///
    /// For finite classes (length-capped), indices past the end wrap around
    /// — callers going through [`StrategyEnumerator`] never see that because
    /// `strategy` bounds-checks first.
    pub fn program(&self, index: usize) -> Program {
        let a = self.alphabet.len() as u128;
        let mut remaining = index as u128;
        let mut len = 0usize;
        loop {
            let count = self.count_of_len(len);
            if remaining < count {
                break;
            }
            remaining -= count;
            len += 1;
            if let Some(cap) = self.max_len {
                if len > cap {
                    // Wrap for out-of-range finite indices.
                    remaining %= self.total().unwrap_or(1).max(1) as u128;
                    len = 0;
                }
            }
        }
        // Write `remaining` in base `a`, most significant digit first,
        // padded to `len` digits.
        let mut digits = vec![0u8; len];
        let mut value = remaining;
        for slot in digits.iter_mut().rev() {
            *slot = self.alphabet[(value % a) as usize];
            value /= a;
        }
        Program::from_bytes(digits)
    }

    /// The length-lex index of `program`, if it is writable in the alphabet
    /// (and within the length cap).
    pub fn index_of(&self, program: &Program) -> Option<usize> {
        if let Some(cap) = self.max_len {
            if program.len() > cap {
                return None;
            }
        }
        let a = self.alphabet.len() as u128;
        let mut offset: u128 = 0;
        for len in 0..program.len() {
            offset = offset.saturating_add(self.count_of_len(len));
        }
        let mut value: u128 = 0;
        for &byte in program.as_bytes() {
            let digit = self.alphabet.iter().position(|&b| b == byte)? as u128;
            value = value.saturating_mul(a).saturating_add(digit);
        }
        usize::try_from(offset + value).ok()
    }

    /// Collapses this (finite) enumeration to one representative program per
    /// [`canonical_signature`] — the cheap dedup pass that stops the
    /// universal users probing semantically-identical short programs twice.
    /// The representative for each signature is its lowest-index (i.e.
    /// shortest, then lexicographically first) program, and representatives
    /// keep their relative order, so the deduped class is still length-lex.
    ///
    /// # Panics
    ///
    /// Panics if the class is infinite or too large to scan (no `max_len`,
    /// or `total()` overflows `usize`).
    pub fn deduped(self) -> DedupedProgramEnumerator {
        let total = self
            .total()
            .expect("deduped() needs a finite, scannable class — set with_max_len first");
        let mut seen = HashSet::new();
        let mut representatives = Vec::new();
        for index in 0..total {
            let program = self.program(index);
            let sig = canonical_signature(&program);
            // Soundness guard: the signature is only merge-safe for
            // jump-free linear decodings. A program whose execution reaches
            // a jump must keep the opaque verbatim signature (tag byte 1 +
            // exact program bytes) — its byte *layout* is semantically
            // significant, so no two such programs may ever be merged. A
            // future widening of `canonical_signature` over jumps has to
            // carry a layout-aware equivalence proof past this assertion.
            debug_assert!(
                !linear_decode_reaches_jump(&program)
                    || sig.split_first() == Some((&1u8, program.as_bytes())),
                "jumpy program {:?} lost its opaque signature (got {:?})",
                program.as_bytes(),
                sig
            );
            if seen.insert(sig) {
                representatives.push(index);
            }
        }
        DedupedProgramEnumerator { inner: self, representatives }
    }
}

/// `true` when `program`'s linear decoding reaches a jump before any
/// `halt`/`end` — exactly the programs [`canonical_signature`] must keep
/// opaque (jumps after a linear `halt`/`end` are unreachable, since nothing
/// before them can jump past it).
fn linear_decode_reaches_jump(program: &Program) -> bool {
    for instr in program.instructions() {
        match instr {
            Instr::Jmp(_) | Instr::JmpIfZero(_, _) => return true,
            Instr::Halt | Instr::EndRound => return false,
            _ => {}
        }
    }
    false
}

/// A cheap, sound canonical signature: two programs with equal signatures
/// are observably identical as strategies (same outputs and halt behaviour
/// for every input history and any fuel budget).
///
/// Jump-free programs execute their canonical decoding linearly from the
/// top each round, so their semantics are exactly that instruction list,
/// truncated at the first `halt` (kept — halting is observable) or
/// `end` (dropped — running off the code end ends the round the same way).
/// Re-encoding the truncated list normalises the many byte spellings of one
/// instruction (opcodes and registers decode modulo), so e.g. `[0x01, b'h']`
/// and `[0x11, b'h']` — both `emit.a 0x68` — share a signature.
///
/// Programs containing any jump are returned verbatim (tagged separately):
/// a jump may land mid-instruction, making the byte layout itself
/// semantically significant, so no two of them are ever merged.
pub fn canonical_signature(program: &Program) -> Vec<u8> {
    let mut linear = Vec::new();
    for instr in program.instructions() {
        match instr {
            Instr::Jmp(_) | Instr::JmpIfZero(_, _) => {
                let mut raw = Vec::with_capacity(program.len() + 1);
                raw.push(1u8); // tag: opaque byte layout
                raw.extend_from_slice(program.as_bytes());
                return raw;
            }
            Instr::Halt => {
                linear.push(Instr::Halt);
                break;
            }
            Instr::EndRound => break,
            other => linear.push(other),
        }
    }
    let mut sig = vec![0u8]; // tag: normalised linear decoding
    for instr in &linear {
        instr.encode(&mut sig);
    }
    sig
}

/// A [`ProgramEnumerator`] restricted to one representative per canonical
/// signature (see [`ProgramEnumerator::deduped`]). Indices are dense over
/// the representatives; [`DedupedProgramEnumerator::original_index`] maps
/// back into the full enumeration.
#[derive(Clone, Debug)]
pub struct DedupedProgramEnumerator {
    inner: ProgramEnumerator,
    representatives: Vec<usize>,
}

impl DedupedProgramEnumerator {
    /// Number of semantically-distinct programs in the class.
    pub fn total(&self) -> usize {
        self.representatives.len()
    }

    /// The full-enumeration index of the `index`-th representative.
    pub fn original_index(&self, index: usize) -> Option<usize> {
        self.representatives.get(index).copied()
    }

    /// The `index`-th representative program.
    pub fn program(&self, index: usize) -> Option<Program> {
        Some(self.inner.program(*self.representatives.get(index)?))
    }
}

impl StrategyEnumerator for DedupedProgramEnumerator {
    fn len(&self) -> Option<usize> {
        Some(self.representatives.len())
    }

    fn strategy(&self, index: usize) -> Option<BoxedUser> {
        self.inner.strategy(*self.representatives.get(index)?)
    }

    fn name(&self) -> String {
        format!("{} deduped({})", self.inner.name(), self.representatives.len())
    }
}

impl StrategyEnumerator for ProgramEnumerator {
    fn len(&self) -> Option<usize> {
        self.total()
    }

    fn strategy(&self, index: usize) -> Option<BoxedUser> {
        if let Some(total) = self.total() {
            if index >= total {
                return None;
            }
        }
        Some(Box::new(VmUser::with_fuel(self.program(index), self.fuel)))
    }

    fn name(&self) -> String {
        match self.max_len {
            Some(cap) => format!("vm-programs(|Σ|={}, len≤{cap})", self.alphabet.len()),
            None => format!("vm-programs(|Σ|={})", self.alphabet.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_enumeration_orders_by_length_then_lex() {
        let e = ProgramEnumerator::full();
        assert_eq!(e.program(0).as_bytes(), b"");
        assert_eq!(e.program(1).as_bytes(), &[0]);
        assert_eq!(e.program(256).as_bytes(), &[255]);
        assert_eq!(e.program(257).as_bytes(), &[0, 0]);
        assert_eq!(e.program(258).as_bytes(), &[0, 1]);
    }

    #[test]
    fn small_alphabet_enumeration() {
        let e = ProgramEnumerator::over(vec![10u8, 20]);
        assert_eq!(e.program(0).as_bytes(), b"");
        assert_eq!(e.program(1).as_bytes(), &[10]);
        assert_eq!(e.program(2).as_bytes(), &[20]);
        assert_eq!(e.program(3).as_bytes(), &[10, 10]);
        assert_eq!(e.program(4).as_bytes(), &[10, 20]);
        assert_eq!(e.program(5).as_bytes(), &[20, 10]);
        assert_eq!(e.program(6).as_bytes(), &[20, 20]);
        assert_eq!(e.program(7).as_bytes(), &[10, 10, 10]);
    }

    #[test]
    fn index_of_inverts_program() {
        let e = ProgramEnumerator::over(vec![1u8, 2, 3]);
        for idx in 0..200 {
            let p = e.program(idx);
            assert_eq!(e.index_of(&p), Some(idx), "at index {idx}");
        }
    }

    #[test]
    fn index_of_rejects_foreign_bytes() {
        let e = ProgramEnumerator::over(vec![1u8, 2]);
        assert_eq!(e.index_of(&Program::from_bytes(vec![9])), None);
    }

    #[test]
    fn capped_class_is_finite() {
        let e = ProgramEnumerator::over(vec![0u8, 1]).with_max_len(3);
        // 1 + 2 + 4 + 8 = 15 programs.
        assert_eq!(e.total(), Some(15));
        assert_eq!(StrategyEnumerator::len(&e), Some(15));
        assert!(e.strategy(14).is_some());
        assert!(e.strategy(15).is_none());
    }

    #[test]
    fn uncapped_class_is_infinite() {
        let e = ProgramEnumerator::full();
        assert_eq!(StrategyEnumerator::len(&e), None);
        assert!(e.strategy(1_000_000).is_some());
    }

    #[test]
    #[should_panic(expected = "non-empty alphabet")]
    fn empty_alphabet_panics() {
        let _ = ProgramEnumerator::over(Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_alphabet_panics() {
        let _ = ProgramEnumerator::over(vec![1u8, 1]);
    }

    #[test]
    fn strategies_mount_and_run() {
        use goc_core::msg::UserIn;
        use goc_core::rng::GocRng;
        use goc_core::strategy::{StepCtx, UserStrategy};
        let e = ProgramEnumerator::full();
        // Index 2 is the single-byte program [1] = EmitA(0) truncated.
        let mut u = e.strategy(2).unwrap();
        let mut rng = GocRng::seed_from_u64(0);
        let mut ctx = StepCtx::new(0, &mut rng);
        let _ = u.step(&mut ctx, &UserIn::default()); // must not panic
    }

    #[test]
    fn name_reports_alphabet() {
        assert!(ProgramEnumerator::full().name().contains("|Σ|=256"));
        assert!(ProgramEnumerator::over(vec![1u8]).with_max_len(4).name().contains("len≤4"));
    }

    #[test]
    fn batch_matches_strategy() {
        let e = ProgramEnumerator::over(vec![0u8, 1]).with_max_len(3);
        let indices = [0usize, 5, 14, 15, 99, 7];
        let got = e.batch(&indices);
        assert_eq!(got.len(), indices.len());
        for (k, &i) in indices.iter().enumerate() {
            assert_eq!(got[k].is_some(), e.strategy(i).is_some(), "index {i}");
        }
    }

    #[test]
    fn signature_normalises_opcode_aliases() {
        // 0x01 and 0x11 both decode to EmitA (opcodes are mod 16).
        let a = Program::from_bytes(vec![0x01, b'h']);
        let b = Program::from_bytes(vec![0x11, b'h']);
        assert_ne!(a, b);
        assert_eq!(canonical_signature(&a), canonical_signature(&b));
    }

    #[test]
    fn signature_truncates_after_round_end_and_halt() {
        let stop = Program::assemble(&[Instr::EmitA(1), Instr::EndRound]);
        let stop_tail = Program::assemble(&[Instr::EmitA(1), Instr::EndRound, Instr::EmitA(9)]);
        let bare = Program::assemble(&[Instr::EmitA(1)]);
        assert_eq!(canonical_signature(&stop), canonical_signature(&stop_tail));
        assert_eq!(canonical_signature(&stop), canonical_signature(&bare));
        // Halt is observable and must stay in the signature.
        let halts = Program::assemble(&[Instr::EmitA(1), Instr::Halt]);
        assert_ne!(canonical_signature(&halts), canonical_signature(&bare));
    }

    #[test]
    fn signature_keeps_jumpy_programs_apart() {
        // Identical linear decodings, but jumps make byte layout semantic:
        // these must not share a signature with each other or with anything
        // normalised.
        let a = Program::assemble(&[Instr::Jmp(1), Instr::EmitA(1)]);
        let b = Program::assemble(&[Instr::Jmp(2), Instr::EmitA(1)]);
        assert_ne!(canonical_signature(&a), canonical_signature(&b));
        assert_eq!(canonical_signature(&a), canonical_signature(&a));
    }

    #[test]
    fn deduped_class_shrinks_and_keeps_representatives() {
        let e = ProgramEnumerator::full().with_max_len(1);
        let full_total = e.total().unwrap(); // 257 programs
        let d = e.deduped();
        assert!(d.total() < full_total, "aliased single-byte opcodes must merge");
        // Representatives are distinct signatures, in ascending index order.
        let mut sigs = HashSet::new();
        let mut last = None;
        for i in 0..d.total() {
            let orig = d.original_index(i).unwrap();
            assert!(last.is_none_or(|prev| prev < orig));
            last = Some(orig);
            assert!(sigs.insert(canonical_signature(&d.program(i).unwrap())));
        }
        // The empty program (index 0) is always its own representative.
        assert_eq!(d.original_index(0), Some(0));
        assert!(d.strategy(d.total()).is_none());
        assert!(d.name().contains("deduped"));
    }

    #[test]
    fn deduped_batch_matches_strategy() {
        let d = ProgramEnumerator::over(vec![0u8, 1, 15]).with_max_len(2).deduped();
        let indices: Vec<usize> = (0..d.total() + 2).collect();
        let got = d.batch(&indices);
        for (k, &i) in indices.iter().enumerate() {
            assert_eq!(got[k].is_some(), d.strategy(i).is_some(), "index {i}");
        }
    }

    #[test]
    fn deduped_never_merges_inequivalent_jumpy_programs() {
        use crate::machine::{Machine, RoundIo};
        // Identical except for the jump displacement — and genuinely
        // inequivalent, because the jumps land on different byte offsets:
        // +2 lands on the `emit.a 0x41` instruction, +3 lands *inside* it
        // (0x41 % 16 = 1 re-decodes as `emit.a` with a missing operand).
        let p1 = Program::from_bytes(vec![0x0b, 0x02, 0x01, 0x41]);
        let p2 = Program::from_bytes(vec![0x0b, 0x03, 0x01, 0x41]);
        let first_round = |p: &Program| {
            let mut m = Machine::with_fuel(p.clone(), 16);
            let mut io = RoundIo::default();
            m.round(&mut io);
            io.out_a
        };
        assert_ne!(first_round(&p1), first_round(&p2), "the pair must be inequivalent");
        assert_ne!(canonical_signature(&p1), canonical_signature(&p2));
        // A dedup over a class containing both must keep both.
        let class =
            ProgramEnumerator::over(vec![0x0b, 0x02, 0x03, 0x01, 0x41]).with_max_len(4).deduped();
        let kept: Vec<Program> = (0..class.total()).filter_map(|i| class.program(i)).collect();
        for p in [&p1, &p2] {
            assert!(
                kept.iter().any(|k| k.as_bytes() == p.as_bytes()),
                "jumpy program {:?} was merged away",
                p.as_bytes()
            );
        }
    }
}
