//! The fuel-bounded transducer interpreter.
//!
//! A [`Machine`] owns a [`Program`] and eight persistent registers. Each
//! communication round, [`Machine::round`] runs the program from the top with
//! a bounded fuel budget, reading this round's inbox bytes and accumulating
//! outbox bytes. Registers persist across rounds; inboxes/outboxes do not.
//!
//! Every program is safe to run: decoding is total, jumps are reduced into
//! the code range, and the fuel bound caps the work per round, so arbitrary
//! byte strings — e.g. produced by enumeration — execute without panics or
//! divergence.
//!
//! **Two interpreter cores, one semantics.** The default core predecodes the
//! program once into a `DecodedProgram` — the [`Instr`] at every byte offset
//! with its fall-through and jump target resolved — and runs each round
//! through one `match` over those slots (`Machine::round_decoded`).
//! `Machine::round_match` is the original decode-as-you-go `match` loop,
//! kept as the executable specification the fast core is differentially
//! tested against; [`with_dispatch`](crate::dispatch::with_dispatch)`(false, ..)`
//! mounts it.
//!
//! **Pure-jump cycles cost one step.** The predecode also marks every offset
//! whose chain of unconditional `jmp`s closes a cycle as a `Spin` slot. A
//! `jmp` writes only the pc, so such a chain never touches registers, inbox
//! cursors, outboxes or halt state and can only end by running out of fuel:
//! the fast core retires the round's remaining fuel in one step instead of
//! burning it one `jmp` at a time. `round_match` is not fast-forwarded, so
//! the differential tests still check the shortcut against the step-by-step
//! spec.

use crate::instr::{Chan, Instr, REG_COUNT};
use crate::program::Program;
use goc_core::snap::{SnapError, SnapReader, SnapWriter};
use std::sync::Arc;

/// Register sentinel stored by `read.*` when the inbox is exhausted.
pub const EXHAUSTED: u64 = 0x100;

/// Default fuel (instructions executed) per round.
pub const DEFAULT_FUEL: u32 = 256;

/// The messages a machine consumes and produces in one round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundIo {
    /// Bytes received on channel A this round.
    pub in_a: Vec<u8>,
    /// Bytes received on channel B this round.
    pub in_b: Vec<u8>,
    /// Bytes to send on channel A next round.
    pub out_a: Vec<u8>,
    /// Bytes to send on channel B next round.
    pub out_b: Vec<u8>,
}

impl RoundIo {
    /// A round with the given inbox contents and empty outboxes.
    pub fn with_inputs(in_a: impl Into<Vec<u8>>, in_b: impl Into<Vec<u8>>) -> Self {
        RoundIo { in_a: in_a.into(), in_b: in_b.into(), out_a: Vec::new(), out_b: Vec::new() }
    }

    /// Empties all four boxes, keeping their allocations, so one `RoundIo`
    /// can be reused for every round of a candidate's run without
    /// per-round buffer churn.
    pub fn reset(&mut self) {
        self.in_a.clear();
        self.in_b.clear();
        self.out_a.clear();
        self.out_b.clear();
    }

    /// [`reset`](Self::reset) followed by copying the given inbox contents
    /// in place.
    pub fn set_inputs(&mut self, in_a: &[u8], in_b: &[u8]) {
        self.reset();
        self.in_a.extend_from_slice(in_a);
        self.in_b.extend_from_slice(in_b);
    }
}

/// A running strategy VM.
///
/// # Examples
///
/// ```
/// use goc_vm::instr::Instr;
/// use goc_vm::machine::{Machine, RoundIo};
/// use goc_vm::program::Program;
///
/// let p = Program::assemble(&[Instr::EmitA(b'x'), Instr::EndRound]);
/// let mut m = Machine::new(p);
/// let mut io = RoundIo::default();
/// m.round(&mut io);
/// assert_eq!(io.out_a, b"x");
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    program: Program,
    regs: [u64; REG_COUNT],
    fuel_per_round: u32,
    halted: Option<Vec<u8>>,
    instructions_retired: u64,
    /// Lazily built (and `Clone`-shared) decode for the fast core. Never
    /// serialized: snapshots carry the program bytes, and a restore into the
    /// same program keeps the decode valid.
    decoded: Option<Arc<DecodedProgram>>,
}

impl Machine {
    /// A machine for `program` with the default fuel budget.
    pub fn new(program: Program) -> Self {
        Machine::with_fuel(program, DEFAULT_FUEL)
    }

    /// A machine with an explicit per-round fuel budget.
    ///
    /// # Panics
    ///
    /// Panics if `fuel_per_round == 0`.
    pub fn with_fuel(program: Program, fuel_per_round: u32) -> Self {
        assert!(fuel_per_round > 0, "Machine requires positive fuel");
        Machine {
            program,
            regs: [0; REG_COUNT],
            fuel_per_round,
            halted: None,
            instructions_retired: 0,
            decoded: None,
        }
    }

    /// The program being run.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The per-round fuel budget.
    pub fn fuel_per_round(&self) -> u32 {
        self.fuel_per_round
    }

    /// Register contents (persist across rounds).
    pub fn regs(&self) -> &[u64; REG_COUNT] {
        &self.regs
    }

    /// `Some(final output)` once a `halt` instruction has executed.
    pub fn halted(&self) -> Option<&[u8]> {
        self.halted.as_deref()
    }

    /// Total instructions retired over the machine's lifetime.
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Executes one round: runs the program from the top until `end`,
    /// `halt`, code end, or fuel exhaustion, filling `io`'s outboxes.
    ///
    /// A halted machine does nothing (outboxes stay empty).
    ///
    /// The round runs on the predecoded fast core, whose decode is built
    /// lazily on first use and kept for every later round; inside
    /// [`with_dispatch`](crate::dispatch::with_dispatch)`(false, ..)` it runs
    /// on the `round_match` spec instead. Both cores are observably
    /// identical.
    pub fn round(&mut self, io: &mut RoundIo) {
        if self.halted.is_some() || self.program.is_empty() {
            return;
        }
        if crate::dispatch::enabled() {
            // Take the decode out for the round and put it back after, so
            // the round borrows it without touching the reference count.
            let decoded = self
                .decoded
                .take()
                .unwrap_or_else(|| Arc::new(DecodedProgram::new(&self.program)));
            self.round_decoded(&decoded, io);
            self.decoded = Some(decoded);
        } else {
            self.round_match(io);
        }
    }

    /// The original scalar `match` interpreter loop — the executable
    /// specification the fast core is tested against, and the round core
    /// inside `with_dispatch(false, ..)`.
    fn round_match(&mut self, io: &mut RoundIo) {
        if self.halted.is_some() || self.program.is_empty() {
            return;
        }
        let code_len = self.program.len();
        let mut pc = 0usize;
        let mut fuel = self.fuel_per_round;
        let mut cur_a = 0usize; // inbox A cursor
        let mut cur_b = 0usize; // inbox B cursor
        while pc < code_len && fuel > 0 {
            fuel -= 1;
            self.instructions_retired += 1;
            let (instr, used) = self.program.decode_at(pc);
            let mut next_pc = pc + used;
            match instr {
                Instr::Halt => {
                    self.halted = Some(io.out_b.clone());
                    return;
                }
                Instr::EmitA(b) => io.out_a.push(b),
                Instr::EmitB(b) => io.out_b.push(b),
                Instr::EmitAReg(r) => io.out_a.push(self.regs[r.index()] as u8),
                Instr::EmitBReg(r) => io.out_b.push(self.regs[r.index()] as u8),
                Instr::ReadA(r) => {
                    self.regs[r.index()] = match io.in_a.get(cur_a) {
                        Some(&b) => {
                            cur_a += 1;
                            b as u64
                        }
                        None => EXHAUSTED,
                    };
                }
                Instr::ReadB(r) => {
                    self.regs[r.index()] = match io.in_b.get(cur_b) {
                        Some(&b) => {
                            cur_b += 1;
                            b as u64
                        }
                        None => EXHAUSTED,
                    };
                }
                Instr::Const(r, b) => self.regs[r.index()] = b as u64,
                Instr::Add(r, s) => {
                    self.regs[r.index()] =
                        self.regs[r.index()].wrapping_add(self.regs[s.index()])
                }
                Instr::Inc(r) => {
                    self.regs[r.index()] = self.regs[r.index()].wrapping_add(1)
                }
                Instr::JmpIfZero(r, d) => {
                    if self.regs[r.index()] == 0 {
                        next_pc = Self::jump_target(pc, d, code_len);
                    }
                }
                Instr::Jmp(d) => next_pc = Self::jump_target(pc, d, code_len),
                Instr::CopyA(dest) => {
                    let rest = &io.in_a[cur_a.min(io.in_a.len())..];
                    match dest {
                        Chan::A => io.out_a.extend_from_slice(rest),
                        Chan::B => io.out_b.extend_from_slice(rest),
                    }
                    cur_a = io.in_a.len();
                }
                Instr::CopyB(dest) => {
                    let rest = io.in_b[cur_b.min(io.in_b.len())..].to_vec();
                    match dest {
                        Chan::A => io.out_a.extend_from_slice(&rest),
                        Chan::B => io.out_b.extend_from_slice(&rest),
                    }
                    cur_b = io.in_b.len();
                }
                Instr::AddConst(r, b) => {
                    self.regs[r.index()] = self.regs[r.index()].wrapping_add(b as u64)
                }
                Instr::EndRound => return,
            }
            pc = next_pc;
        }
    }

    /// Reduces a relative jump into `[0, code_len)` (wrapping), keeping every
    /// jump target valid.
    fn jump_target(pc: usize, displacement: i8, code_len: usize) -> usize {
        debug_assert!(code_len > 0);
        let target = pc as i64 + displacement as i64;
        target.rem_euclid(code_len as i64) as usize
    }

    /// Executes one round through a predecoded program — the fast twin of
    /// `round_match`, observably identical (outboxes, registers, halt
    /// payload, retired-instruction count). Its arms are `round_match`'s
    /// with decode and jump reduction hoisted out of the loop, plus one for
    /// `Spin`, which retires a pure-jump cycle's remaining fuel at once.
    ///
    /// `decoded` is [`DecodedProgram::new`] of this machine's program: only
    /// [`round`](Self::round) builds it, and the program never changes.
    ///
    /// Kept out of line on purpose: inlined into `round` and on into its
    /// callers, the loop ran about 10% slower on the `levin_vm_cold`
    /// perfbench workload (2-vCPU host).
    #[inline(never)]
    fn round_decoded(&mut self, decoded: &DecodedProgram, io: &mut RoundIo) {
        let code_len = decoded.ops.len();
        let mut pc = 0usize;
        let mut fuel = self.fuel_per_round;
        let mut cur_a = 0usize; // inbox A cursor
        let mut cur_b = 0usize; // inbox B cursor
        while pc < code_len && fuel > 0 {
            fuel -= 1;
            self.instructions_retired += 1;
            let op = decoded.ops[pc];
            let mut next_pc = op.next as usize;
            match op.slot {
                Slot::Spin => {
                    // Every remaining unit of fuel would retire one more
                    // `jmp` of the cycle and change nothing else.
                    self.instructions_retired += u64::from(fuel);
                    return;
                }
                Slot::Exec(Instr::Halt) => {
                    self.halted = Some(io.out_b.clone());
                    return;
                }
                Slot::Exec(Instr::EmitA(b)) => io.out_a.push(b),
                Slot::Exec(Instr::EmitB(b)) => io.out_b.push(b),
                Slot::Exec(Instr::EmitAReg(r)) => io.out_a.push(self.regs[r.index()] as u8),
                Slot::Exec(Instr::EmitBReg(r)) => io.out_b.push(self.regs[r.index()] as u8),
                Slot::Exec(Instr::ReadA(r)) => {
                    self.regs[r.index()] = match io.in_a.get(cur_a) {
                        Some(&b) => {
                            cur_a += 1;
                            b as u64
                        }
                        None => EXHAUSTED,
                    };
                }
                Slot::Exec(Instr::ReadB(r)) => {
                    self.regs[r.index()] = match io.in_b.get(cur_b) {
                        Some(&b) => {
                            cur_b += 1;
                            b as u64
                        }
                        None => EXHAUSTED,
                    };
                }
                Slot::Exec(Instr::Const(r, b)) => self.regs[r.index()] = b as u64,
                Slot::Exec(Instr::Add(r, s)) => {
                    self.regs[r.index()] =
                        self.regs[r.index()].wrapping_add(self.regs[s.index()])
                }
                Slot::Exec(Instr::Inc(r)) => {
                    self.regs[r.index()] = self.regs[r.index()].wrapping_add(1)
                }
                Slot::Exec(Instr::JmpIfZero(r, _)) => {
                    if self.regs[r.index()] == 0 {
                        next_pc = op.target as usize;
                    }
                }
                Slot::Exec(Instr::Jmp(_)) => next_pc = op.target as usize,
                Slot::Exec(Instr::CopyA(dest)) => {
                    let rest = &io.in_a[cur_a.min(io.in_a.len())..];
                    match dest {
                        Chan::A => io.out_a.extend_from_slice(rest),
                        Chan::B => io.out_b.extend_from_slice(rest),
                    }
                    cur_a = io.in_a.len();
                }
                Slot::Exec(Instr::CopyB(dest)) => {
                    let rest = &io.in_b[cur_b.min(io.in_b.len())..];
                    match dest {
                        Chan::A => io.out_a.extend_from_slice(rest),
                        Chan::B => io.out_b.extend_from_slice(rest),
                    }
                    cur_b = io.in_b.len();
                }
                Slot::Exec(Instr::AddConst(r, b)) => {
                    self.regs[r.index()] = self.regs[r.index()].wrapping_add(b as u64)
                }
                Slot::Exec(Instr::EndRound) => return,
            }
            pc = next_pc;
        }
    }

    /// Serializes the machine's mutable state (registers, halt payload,
    /// retired-instruction count), prefixed by its identity — the canonical
    /// program bytes and the fuel budget — which
    /// [`restore_snap`](Self::restore_snap) verifies rather than rebuilds.
    pub fn save_snap(&self, w: &mut SnapWriter<'_>) -> Result<(), SnapError> {
        w.bytes(self.program.as_bytes());
        w.u32(self.fuel_per_round);
        for r in self.regs {
            w.u64(r);
        }
        match &self.halted {
            None => w.u8(0),
            Some(out) => {
                w.u8(1);
                w.bytes(out);
            }
        }
        w.u64(self.instructions_retired);
        Ok(())
    }

    /// Restores state written by [`save_snap`](Self::save_snap) into this
    /// machine, which must run the same program with the same fuel budget
    /// ([`SnapError::Mismatch`] otherwise — a different program cannot
    /// continue the saved run).
    pub fn restore_snap(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let program = r.bytes("vm program")?;
        if program != self.program.as_bytes() {
            return Err(SnapError::Mismatch {
                context: "vm program",
                expected: format!("{} bytes", self.program.len()),
                found: format!("{} bytes", program.len()),
            });
        }
        let fuel = r.u32("vm fuel")?;
        if fuel != self.fuel_per_round {
            return Err(SnapError::Mismatch {
                context: "vm fuel",
                expected: self.fuel_per_round.to_string(),
                found: fuel.to_string(),
            });
        }
        for slot in &mut self.regs {
            *slot = r.u64("vm register")?;
        }
        self.halted = match r.u8("vm halt tag")? {
            0 => None,
            1 => Some(r.bytes("vm halt output")?.to_vec()),
            found => return Err(SnapError::BadTag { context: "vm halt tag", found }),
        };
        self.instructions_retired = r.u64("vm retired")?;
        Ok(())
    }
}

/// What a predecoded slot runs: the [`Instr`] decoded at its offset, or
/// `Spin` for a `jmp` whose chain of `jmp` targets closes a cycle (see
/// [`mark_spins`]).
#[derive(Clone, Copy, Debug)]
enum Slot {
    Exec(Instr),
    Spin,
}

/// One predecoded instruction slot (see [`DecodedProgram`]).
#[derive(Clone, Copy, Debug)]
struct DecodedOp {
    slot: Slot,
    /// `pos + encoded length`: the fall-through pc.
    next: u32,
    /// Precomputed, range-reduced target for `jmp` / taken `jz`; 0 otherwise.
    target: u32,
}

/// A program predecoded for [`Machine::round_decoded`]: one op per **byte
/// offset** (jumps may land mid-instruction, so every offset is a legal
/// entry point), with fall-through and jump targets resolved up front and
/// pure-jump cycles marked `Spin`. One decode serves every round of a
/// machine.
#[derive(Debug)]
struct DecodedProgram {
    ops: Box<[DecodedOp]>,
}

impl DecodedProgram {
    /// Predecodes `program` at every byte offset, then marks the offsets
    /// that enter a pure-jump cycle.
    fn new(program: &Program) -> Self {
        let code = program.as_bytes();
        let len = code.len();
        let mut ops: Box<[DecodedOp]> = (0..len)
            .map(|pos| {
                let (instr, used) = Instr::decode(code, pos);
                let target = match instr {
                    Instr::Jmp(d) | Instr::JmpIfZero(_, d) => {
                        Machine::jump_target(pos, d, len) as u32
                    }
                    _ => 0,
                };
                DecodedOp { slot: Slot::Exec(instr), next: (pos + used) as u32, target }
            })
            .collect();
        mark_spins(&mut ops);
        DecodedProgram { ops }
    }
}

/// Rewrites to `Spin` every `jmp` whose chain of `jmp` targets closes a
/// cycle, so that running from it can only burn fuel. Each offset is walked
/// once: a walk stops at a non-`jmp` (the chain exits), at an offset already
/// settled, or at an offset on its own path (a cycle), and settles its whole
/// path with that answer.
fn mark_spins(ops: &mut [DecodedOp]) {
    const UNSEEN: u8 = 0;
    const ON_PATH: u8 = 1;
    const SPINS: u8 = 2;
    const EXITS: u8 = 3;
    let mut state = vec![UNSEEN; ops.len()];
    let mut path = Vec::new();
    for start in 0..ops.len() {
        let mut pc = start;
        let spins = loop {
            match state[pc] {
                ON_PATH | SPINS => break true,
                EXITS => break false,
                _ if !matches!(ops[pc].slot, Slot::Exec(Instr::Jmp(_))) => break false,
                _ => {
                    state[pc] = ON_PATH;
                    path.push(pc);
                    pc = ops[pc].target as usize;
                }
            }
        };
        for pc in path.drain(..) {
            state[pc] = if spins { SPINS } else { EXITS };
        }
    }
    for (op, s) in ops.iter_mut().zip(state) {
        if s == SPINS {
            op.slot = Slot::Spin;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Reg;

    fn run_once(instrs: &[Instr], in_a: &[u8], in_b: &[u8]) -> (Machine, RoundIo) {
        let mut m = Machine::new(Program::assemble(instrs));
        let mut io = RoundIo::with_inputs(in_a, in_b);
        m.round(&mut io);
        (m, io)
    }

    #[test]
    fn emit_immediates() {
        let (_, io) = run_once(&[Instr::EmitA(1), Instr::EmitB(2), Instr::EmitA(3)], b"", b"");
        assert_eq!(io.out_a, vec![1, 3]);
        assert_eq!(io.out_b, vec![2]);
    }

    #[test]
    fn read_and_emit_register() {
        let (_, io) = run_once(
            &[Instr::ReadA(Reg::new(0)), Instr::AddConst(Reg::new(0), 1), Instr::EmitBReg(Reg::new(0))],
            b"\x41",
            b"",
        );
        assert_eq!(io.out_b, vec![0x42]);
    }

    #[test]
    fn read_exhausted_sets_sentinel() {
        let (m, _) = run_once(&[Instr::ReadA(Reg::new(3))], b"", b"");
        assert_eq!(m.regs()[3], EXHAUSTED);
    }

    #[test]
    fn copy_forwards_remaining_inbox() {
        let (_, io) = run_once(
            &[Instr::ReadA(Reg::new(0)), Instr::CopyA(Chan::B)],
            b"abc",
            b"",
        );
        // First byte consumed by read, rest copied.
        assert_eq!(io.out_b, b"bc");
    }

    #[test]
    fn copy_b_to_a_relays_world_feedback() {
        let (_, io) = run_once(&[Instr::CopyB(Chan::A)], b"", b"ACK");
        assert_eq!(io.out_a, b"ACK");
    }

    #[test]
    fn halt_records_b_outbox_as_output() {
        let (m, io) = run_once(
            &[Instr::EmitB(b'o'), Instr::EmitB(b'k'), Instr::Halt, Instr::EmitB(b'!')],
            b"",
            b"",
        );
        assert_eq!(m.halted(), Some(b"ok".as_slice()));
        // Output bytes stay in the outbox too (the round's sends are real).
        assert_eq!(io.out_b, b"ok");
    }

    #[test]
    fn halted_machine_is_inert() {
        let (mut m, _) = run_once(&[Instr::Halt], b"", b"");
        assert!(m.halted().is_some());
        let mut io = RoundIo::with_inputs(b"x".as_slice(), b"".as_slice());
        m.round(&mut io);
        assert!(io.out_a.is_empty() && io.out_b.is_empty());
    }

    #[test]
    fn registers_persist_across_rounds() {
        let p = Program::assemble(&[Instr::Inc(Reg::new(0)), Instr::EmitAReg(Reg::new(0))]);
        let mut m = Machine::new(p);
        for expected in 1..=3u8 {
            let mut io = RoundIo::default();
            m.round(&mut io);
            assert_eq!(io.out_a, vec![expected]);
        }
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        // jmp +0 loops forever; fuel must stop it.
        let p = Program::assemble(&[Instr::Jmp(0)]);
        let mut m = Machine::with_fuel(p, 100);
        let mut io = RoundIo::default();
        m.round(&mut io);
        assert_eq!(m.instructions_retired(), 100);
    }

    #[test]
    fn jz_into_an_operand_decodes_from_there() {
        // 0..3  jz r0, +4     r0 == 0, so it jumps to offset 4
        // 3..5  emit.a 0xee   offset 4 is this operand: 0xee decodes as add.const
        // 5..7  emit.a 0x01   add.const r1, 0x01 spans 4..7 and ends the code
        let p = Program::assemble(&[
            Instr::JmpIfZero(Reg::new(0), 4),
            Instr::EmitA(0xee),
            Instr::EmitA(0x01),
        ]);
        let mut m = Machine::new(p);
        let mut io = RoundIo::default();
        m.round(&mut io);
        assert!(io.out_a.is_empty());
        assert_eq!(m.regs()[1], 1);
        assert_eq!(m.instructions_retired(), 2);
    }

    #[test]
    fn empty_program_is_inert() {
        let mut m = Machine::new(Program::default());
        let mut io = RoundIo::with_inputs(b"abc".as_slice(), b"def".as_slice());
        m.round(&mut io);
        assert!(io.out_a.is_empty() && io.out_b.is_empty());
        assert!(m.halted().is_none());
    }

    #[test]
    fn jump_target_wraps_both_directions() {
        assert_eq!(Machine::jump_target(0, -1, 10), 9);
        assert_eq!(Machine::jump_target(9, 3, 10), 2);
        assert_eq!(Machine::jump_target(5, 0, 10), 5);
    }

    #[test]
    #[should_panic(expected = "positive fuel")]
    fn zero_fuel_panics() {
        let _ = Machine::with_fuel(Program::default(), 0);
    }

    #[test]
    fn decoded_core_matches_round_match() {
        let p = Program::assemble(&[
            Instr::ReadA(Reg::new(1)),
            Instr::Const(Reg::new(2), 7),
            Instr::Add(Reg::new(1), Reg::new(2)),
            Instr::EmitAReg(Reg::new(1)),
            Instr::CopyB(Chan::A),
            Instr::JmpIfZero(Reg::new(3), 3),
            Instr::EmitB(0xAA),
        ]);
        let run = |fast: bool| {
            crate::dispatch::with_dispatch(fast, || {
                let mut m = Machine::with_fuel(p.clone(), 64);
                let mut outs = Vec::new();
                for _ in 0..3 {
                    let mut io = RoundIo::with_inputs(b"hi".as_slice(), b"yo".as_slice());
                    m.round(&mut io);
                    outs.push((io.out_a.clone(), io.out_b.clone()));
                }
                (outs, *m.regs(), m.instructions_retired(), m.halted.clone())
            })
        };
        assert_eq!(run(true), run(false));
    }

    /// Offsets the predecode marks `Spin`.
    fn spin_offsets(p: &Program) -> Vec<usize> {
        let decoded = DecodedProgram::new(p);
        (0..decoded.ops.len()).filter(|&pc| matches!(decoded.ops[pc].slot, Slot::Spin)).collect()
    }

    /// Everything observable about `rounds` rounds of `p` on one core.
    type CoreRun = (Vec<(Vec<u8>, Vec<u8>)>, [u64; REG_COUNT], u64, Option<Vec<u8>>);

    /// Runs `rounds` empty-inbox rounds of `p` on the fast core and on the
    /// `round_match` spec, asserts they agree, and returns the fast run.
    fn run_both_cores(p: &Program, fuel: u32, rounds: usize) -> CoreRun {
        let run = |fast: bool| {
            crate::dispatch::with_dispatch(fast, || {
                let mut m = Machine::with_fuel(p.clone(), fuel);
                let mut outs = Vec::new();
                for _ in 0..rounds {
                    let mut io = RoundIo::default();
                    m.round(&mut io);
                    outs.push((io.out_a, io.out_b));
                }
                (outs, *m.regs(), m.instructions_retired(), m.halted.clone())
            })
        };
        let fast = run(true);
        assert_eq!(fast, run(false), "fast core and spec disagree on {:?}", p.as_bytes());
        fast
    }

    #[test]
    fn self_jump_retires_the_whole_fuel_budget() {
        let p = Program::assemble(&[Instr::Jmp(0)]);
        assert_eq!(spin_offsets(&p), vec![0]);
        for fuel in [1u32, 4096] {
            let (outs, regs, retired, halted) = run_both_cores(&p, fuel, 3);
            assert!(outs.iter().all(|(a, b)| a.is_empty() && b.is_empty()));
            assert_eq!(regs, [0; REG_COUNT]);
            assert_eq!(retired, 3 * u64::from(fuel));
            assert_eq!(halted, None);
        }
    }

    #[test]
    fn two_jump_cycle_after_an_emit_keeps_the_byte() {
        // emit.a 'x' at 0; jmp +2 at 2 lands on jmp -2 at 4, which jumps back.
        let p = Program::assemble(&[Instr::EmitA(b'x'), Instr::Jmp(2), Instr::Jmp(-2)]);
        assert_eq!(spin_offsets(&p), vec![2, 4]);
        let (outs, _, retired, _) = run_both_cores(&p, 4096, 2);
        assert_eq!(outs, vec![(b"x".to_vec(), Vec::new()); 2]);
        assert_eq!(retired, 2 * 4096);
    }

    #[test]
    fn jump_into_the_middle_of_an_instruction_can_enter_a_cycle() {
        // Canonically `jmp +3; emit.a 0x0b; halt`, but offset 3 (the emit's
        // operand) decodes as `jmp +0`, so the first jump enters a self-loop.
        let p = Program::from_bytes(vec![0x0b, 0x03, 0x01, 0x0b, 0x00]);
        assert_eq!(spin_offsets(&p), vec![0, 3]);
        let (outs, _, retired, halted) = run_both_cores(&p, 7, 2);
        assert!(outs.iter().all(|(a, b)| a.is_empty() && b.is_empty()));
        assert_eq!(retired, 14);
        assert_eq!(halted, None);
    }

    #[test]
    fn jump_chain_that_exits_is_not_a_spin() {
        // jmp +2 lands on the emit: the chain leaves the jumps, so it runs.
        let p = Program::assemble(&[Instr::Jmp(2), Instr::EmitA(b'y')]);
        assert_eq!(spin_offsets(&p), Vec::<usize>::new());
        let (outs, _, retired, _) = run_both_cores(&p, 64, 1);
        assert_eq!(outs, vec![(b"y".to_vec(), Vec::new())]);
        assert_eq!(retired, 2);
    }

    #[test]
    fn jump_into_a_chain_that_exits_is_not_a_spin() {
        // jmp -4 at 4 reaches jmp +2 at 0, whose chain was already found to
        // exit at the emit: the loop emits every pass, so nothing spins.
        let p = Program::assemble(&[Instr::Jmp(2), Instr::EmitA(b'z'), Instr::Jmp(-4)]);
        assert_eq!(spin_offsets(&p), Vec::<usize>::new());
        let (outs, _, retired, _) = run_both_cores(&p, 64, 1);
        assert_eq!(outs[0].0, vec![b'z'; 21]);
        assert_eq!(retired, 64);
    }

    #[test]
    fn jz_loop_is_not_marked_spin() {
        // `jz r0, +0` loops while r0 == 0, but it reads a register, so only
        // unconditional jumps may be fast-forwarded.
        let p = Program::assemble(&[Instr::JmpIfZero(Reg::new(0), 0)]);
        assert_eq!(spin_offsets(&p), Vec::<usize>::new());
        let (_, _, retired, _) = run_both_cores(&p, 100, 2);
        assert_eq!(retired, 200);
    }
}
