//! The predecoded fast core must be *unobservable*: for any program, fuel
//! and inbox history, it and the `round_match` spec (mounted with
//! `with_dispatch(false, ..)`) produce byte-identical outboxes, halt
//! payloads, registers and retired-instruction counts. Checked by the seeded
//! `goc-testkit` harness over random programs × random inboxes × random
//! fuel, exhaustively over every short program of two alphabets, one layer
//! up on a mounted [`VmUser`], and on the `GOC_TRACE` record stream of whole
//! universal-user conquests.

use goc_core::obs::{self, Record};
use goc_core::par::with_thread_count;
use goc_core::prelude::*;
use goc_core::sensing::Deadline;
use goc_core::toy;
use goc_testkit::{check, gens, prop_assert_eq};
use goc_vm::adapter::VmUser;
use goc_vm::dispatch::with_dispatch;
use goc_vm::enumerate::ProgramEnumerator;
use goc_vm::instr::{Instr, REG_COUNT};
use goc_vm::machine::{Machine, RoundIo};
use goc_vm::program::Program;

/// Everything observable about one machine after one round.
type RoundState = (Vec<u8>, Vec<u8>, Option<Vec<u8>>, [u64; REG_COUNT], u64);

/// Drives a scalar [`Machine`] over `rounds` on the fast core (`true`) or
/// the spec (`false`).
fn drive_scalar(
    fast: bool,
    p: &Program,
    fuel: u32,
    rounds: &[(Vec<u8>, Vec<u8>)],
) -> Vec<RoundState> {
    with_dispatch(fast, || {
        let mut m = Machine::with_fuel(p.clone(), fuel);
        rounds
            .iter()
            .map(|(a, b)| {
                let mut io = RoundIo::with_inputs(a.clone(), b.clone());
                m.round(&mut io);
                (
                    io.out_a,
                    io.out_b,
                    m.halted().map(<[u8]>::to_vec),
                    *m.regs(),
                    m.instructions_retired(),
                )
            })
            .collect()
    })
}

/// Fast core ≡ spec, observably, for random programs × random inboxes ×
/// random fuel.
#[test]
fn table_and_match_dispatch_agree() {
    let round_inputs = gens::tuple2(gens::bytes(0, 6), gens::bytes(0, 6));
    let trial = gens::tuple3(
        gens::vec_of(gens::bytes(0, 14), 1, 6),
        gens::u32_in(8, 512),
        gens::vec_of(round_inputs, 1, 8),
    );
    check("table_and_match_dispatch_agree", trial, |(codes, fuel, rounds)| {
        let programs: Vec<Program> =
            codes.iter().map(|c| Program::from_bytes(c.clone())).collect();
        for (i, p) in programs.iter().enumerate() {
            let via_match = drive_scalar(false, p, *fuel, rounds);
            let via_table = drive_scalar(true, p, *fuel, rounds);
            prop_assert_eq!(
                &via_table,
                &via_match,
                "fast core vs spec diverged on program {i} ({:?})",
                p.as_bytes()
            );
        }
        Ok(())
    });
}

/// Every byte string of length `1..=max_len` over `alphabet`, plus the
/// empty program.
fn all_programs(alphabet: &[u8], max_len: usize) -> Vec<Vec<u8>> {
    let mut programs = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max_len {
        frontier = frontier
            .iter()
            .flat_map(|p: &Vec<u8>| {
                alphabet.iter().map(move |&b| {
                    let mut q = p.clone();
                    q.push(b);
                    q
                })
            })
            .collect();
        programs.extend(frontier.iter().cloned());
    }
    programs
}

/// Fast core ≡ spec on *every* short program of two alphabets:
///
/// - length ≤ 4 over a jump-heavy alphabet — `jmp` (`0x0b`, and `0x1b`,
///   which reduces to it), `jz`, `emit.a`, `inc`, `const`, `halt`, and
///   `end` (`0xff`, also a backward displacement of one) — so self-jumps,
///   jump chains, cycles entered mid-instruction and `jz` loops all meet
///   the fast-forwarded core;
/// - length ≤ 3 over every opcode byte `0x00..=0x0f` plus `0x80`, `0xfd`
///   and `0xff` (large and negative displacements, odd channel and
///   register operands), so each of the 16 arms runs against its spec arm,
///   reads and copies on both inboxes included.
///
/// Fuels include the edge budgets 1..3 and the 4096 that settle workloads
/// use; the inbox history spans several rounds.
#[test]
fn fast_core_and_spec_agree_on_every_short_program() {
    const JUMP_HEAVY: [u8; 8] = [0x0b, 0x1b, 0x0a, 0x01, 0x09, 0x07, 0x00, 0xff];
    let every_opcode: Vec<u8> = (0x00..=0x0f).chain([0x80, 0xfd, 0xff]).collect();
    let rounds: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (b"".to_vec(), b"".to_vec()),
        (b"ab".to_vec(), b"c".to_vec()),
        (b"".to_vec(), b"xyz".to_vec()),
        (b"q".to_vec(), b"".to_vec()),
    ];
    let jump_heavy = all_programs(&JUMP_HEAVY, 4);
    assert_eq!(jump_heavy.len(), 1 + 8 + 64 + 512 + 4096);
    let opcodes = all_programs(&every_opcode, 3);
    assert_eq!(opcodes.len(), 1 + 19 + 361 + 6859);
    for code in jump_heavy.iter().chain(&opcodes) {
        let p = Program::from_bytes(code.clone());
        for fuel in [1, 2, 3, 7, 4096] {
            assert_eq!(
                drive_scalar(true, &p, fuel, &rounds),
                drive_scalar(false, &p, fuel, &rounds),
                "fast core vs spec diverged on {code:02x?} at fuel {fuel}"
            );
        }
    }
}

/// Drives a [`VmUser`] over `inputs`, collecting per-round outputs, halts,
/// registers and retired-instruction counts.
fn drive_user(user: &mut VmUser, inputs: &[(Vec<u8>, Vec<u8>)]) -> Vec<RoundState> {
    let mut rng = GocRng::seed_from_u64(0);
    let mut out = Vec::new();
    for (round, (a, b)) in inputs.iter().enumerate() {
        let mut ctx = StepCtx::new(round as u64, &mut rng);
        let o = user.step(
            &mut ctx,
            &UserIn {
                from_server: Message::from_bytes(a.clone()),
                from_world: Message::from_bytes(b.clone()),
            },
        );
        out.push((
            o.to_server.as_bytes().to_vec(),
            o.to_world.as_bytes().to_vec(),
            user.halted().map(|h| h.output.as_bytes().to_vec()),
            *user.machine().regs(),
            user.machine().instructions_retired(),
        ));
    }
    out
}

/// The core is also unobservable one layer up: a mounted [`VmUser`] steps
/// identically on either.
#[test]
fn vm_user_is_invariant_across_dispatch_modes() {
    let round_inputs = gens::tuple2(gens::bytes(0, 5), gens::bytes(0, 5));
    let trial = gens::tuple3(
        gens::bytes(0, 12),
        gens::u32_in(16, 256),
        gens::vec_of(round_inputs, 1, 10),
    );
    check("vm_user_is_invariant_across_dispatch_modes", trial, |(code, fuel, inputs)| {
        let run = |fast: bool| {
            with_dispatch(fast, || {
                let mut user = VmUser::with_fuel(Program::from_bytes(code.clone()), *fuel);
                drive_user(&mut user, inputs)
            })
        };
        prop_assert_eq!(&run(true), &run(false), "VmUser diverged across the two cores");
        Ok(())
    });
}

/// A finite-Levin conquest over the `{jmp, emit.a, 'h'}` length-≤3 class
/// (the E16 settle shape, at a lower fuel): self-jump burners are
/// enumerated before the winning `emit.a 'h'`. Returns the settle round.
fn levin_vm_conquest() -> u64 {
    let class = ProgramEnumerator::over(vec![0x0b, 0x01, b'h']).with_max_len(3).with_fuel(64);
    let winner = class.index_of(&Program::assemble(&[Instr::EmitA(b'h')])).expect("in the class");
    assert!(
        (0..winner).any(|i| class.program(i).as_bytes() == [0x0b]),
        "a self-jump burner precedes the winner"
    );
    let goal = toy::MagicWordGoal::new("h");
    let user = LevinUniversalUser::new(Box::new(class), Box::new(toy::ack_sensing()), 8);
    let mut rng = GocRng::seed_from_u64(1_600);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(user),
        rng,
    );
    let v = evaluate_finite(&goal, &exec.run(100_000));
    assert!(v.achieved, "levin VM conquest: {v:?}");
    v.rounds
}

/// A compact universal run over E4's deduped `{emit.a, 'h', end}` class.
/// Returns the last bad prefix.
fn compact_vm_conquest() -> u64 {
    let class = ProgramEnumerator::over(vec![0x01, b'h', 0x0f]).with_max_len(3).deduped();
    let goal = toy::CompactMagicWordGoal::new("h", 16);
    let user = CompactUniversalUser::new(
        Box::new(class),
        Box::new(Deadline::new(toy::ack_sensing(), 8)),
    );
    let mut rng = GocRng::seed_from_u64(420);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(user),
        rng,
    )
    .recording();
    let v = evaluate_compact(&goal, &exec.run_for(20_000));
    assert!(v.achieved(2_000), "compact VM conquest: {v:?}");
    v.last_bad_prefix.unwrap_or(0)
}

/// Runs `workload` on either core under `obs::capture` at one thread, and
/// asserts equal settle rounds and a record stream that is equal and not
/// vacuous.
fn assert_same_trace_on_either_core(name: &str, workload: fn() -> u64) {
    let run = |fast: bool| obs::capture(|| with_thread_count(1, || with_dispatch(fast, workload)));
    let (fast_settle, fast_trace) = run(true);
    let (spec_settle, spec_trace) = run(false);
    assert_eq!(fast_settle, spec_settle, "{name}: settle differs across cores");
    assert_eq!(fast_trace, spec_trace, "{name}: trace differs across cores");
    assert!(
        fast_trace
            .iter()
            .any(|r| matches!(r, Record::Enter { name, .. } if name.starts_with("exec.run"))),
        "{name}: trace has no exec.run or exec.run_for span"
    );
    assert!(
        fast_trace.iter().any(|r| matches!(r, Record::Event { name: "universal.spawn", .. })),
        "{name}: trace has no universal.spawn event"
    );
}

/// The `GOC_TRACE` record stream of whole universal-user conquests is the
/// same on either core. Pinned to one thread because `with_dispatch` is
/// thread-local; the trace's identity across thread counts is gated
/// separately.
#[test]
fn traces_are_identical_on_either_core() {
    assert_same_trace_on_either_core("levin", levin_vm_conquest);
    assert_same_trace_on_either_core("compact", compact_vm_conquest);
}
