//! The dispatch table must be *unobservable*: for any program, fuel, and
//! inbox history, the table-dispatch core (`GOC_DISPATCH=1`) and the scalar
//! `match` loop (`GOC_DISPATCH=0`) produce byte-identical outboxes, halt
//! payloads, registers, and retired-instruction counts. Checked by the seeded `goc-testkit` harness
//! over random programs × random inboxes × random fuel.

use goc_core::msg::{Message, UserIn};
use goc_core::rng::GocRng;
use goc_core::strategy::{StepCtx, UserStrategy};
use goc_testkit::{check, gens, prop_assert_eq};
use goc_vm::adapter::VmUser;
use goc_vm::dispatch::with_dispatch;
use goc_vm::instr::REG_COUNT;
use goc_vm::machine::{Machine, RoundIo};
use goc_vm::program::Program;

/// Everything observable about one machine after one round.
type RoundState = (Vec<u8>, Vec<u8>, Option<Vec<u8>>, [u64; REG_COUNT], u64);

/// Drives a scalar [`Machine`] over `rounds` under the given dispatch mode.
fn drive_scalar(
    table: bool,
    p: &Program,
    fuel: u32,
    rounds: &[(Vec<u8>, Vec<u8>)],
) -> Vec<RoundState> {
    with_dispatch(table, || {
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

/// Table dispatch ≡ `match` dispatch, observably, for random programs ×
/// random inboxes × random fuel.
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
                "table vs match diverged on program {i} ({:?})",
                p.as_bytes()
            );
        }
        Ok(())
    });
}

/// Table ≡ match on *every* program of length ≤ 4 over a jump-heavy
/// alphabet — `jmp` (`0x0b`, and `0x1b`, which reduces to it), `jz`,
/// `emit.a`, `inc`, `const`, `halt`, and `end` (`0xff`, also a backward
/// displacement of one) — so self-jumps, jump chains, cycles entered
/// mid-instruction and `jz` loops all meet the fast-forwarded table core.
/// Fuels include the edge budgets 1..3 and the 4096 that settle workloads
/// use; the inbox history spans several rounds.
#[test]
fn table_and_match_agree_on_every_short_jump_heavy_program() {
    const ALPHABET: [u8; 8] = [0x0b, 0x1b, 0x0a, 0x01, 0x09, 0x07, 0x00, 0xff];
    let rounds: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (b"".to_vec(), b"".to_vec()),
        (b"ab".to_vec(), b"c".to_vec()),
        (b"".to_vec(), b"xyz".to_vec()),
        (b"q".to_vec(), b"".to_vec()),
    ];
    let mut programs = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..4 {
        frontier = frontier
            .iter()
            .flat_map(|p: &Vec<u8>| {
                ALPHABET.iter().map(move |&b| {
                    let mut q = p.clone();
                    q.push(b);
                    q
                })
            })
            .collect();
        programs.extend(frontier.iter().cloned());
    }
    assert_eq!(programs.len(), 1 + 8 + 64 + 512 + 4096);
    for code in &programs {
        let p = Program::from_bytes(code.clone());
        for fuel in [1, 2, 3, 7, 4096] {
            assert_eq!(
                drive_scalar(true, &p, fuel, &rounds),
                drive_scalar(false, &p, fuel, &rounds),
                "table vs match diverged on {code:02x?} at fuel {fuel}"
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

/// The flag is also inert one layer up: a mounted [`VmUser`] steps
/// identically whatever `GOC_DISPATCH` says.
#[test]
fn vm_user_is_invariant_across_dispatch_modes() {
    let round_inputs = gens::tuple2(gens::bytes(0, 5), gens::bytes(0, 5));
    let trial = gens::tuple3(
        gens::bytes(0, 12),
        gens::u32_in(16, 256),
        gens::vec_of(round_inputs, 1, 10),
    );
    check("vm_user_is_invariant_across_dispatch_modes", trial, |(code, fuel, inputs)| {
        let run = |table: bool| {
            with_dispatch(table, || {
                let mut user = VmUser::with_fuel(Program::from_bytes(code.clone()), *fuel);
                drive_user(&mut user, inputs)
            })
        };
        prop_assert_eq!(&run(true), &run(false), "VmUser diverged across dispatch modes");
        Ok(())
    });
}
