//! Cross-crate coverage for the convenience harness and the VM assembler:
//! a hand-assembled VM program drives a real printer driver, and the
//! one-call harness reproduces the headline success rates.

use goc::core::harness::{compact_success, finite_success};
use goc::core::sensing::Deadline;
use goc::core::toy;
use goc::goals::printing::*;
use goc::prelude::*;
use goc::vm::asm::assemble;
use goc::vm::VmUser;

#[test]
fn hand_assembled_program_prints_through_a_real_driver() {
    // Driver dialect: opcode 0x10, identity payload. The program frames a
    // job submission every round: [0x10]["ok"].
    let goal = PrintGoal::new("ok");
    let program = assemble(
        "; submit print job in dialect (0x10, Identity)
         emit.a 0x10
         emit.a 'o'
         emit.a 'k'
         end",
    )
    .expect("valid assembly");

    let mut rng = GocRng::seed_from_u64(1);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(DriverServer::new(Dialect::new(0x10, Encoding::Identity))),
        Box::new(VmUser::new(program)),
        rng,
    );
    let t = exec.run_for(20); // VM user never halts; judge the world log
    assert!(t.state.has_printed(b"ok"));
}

#[test]
fn assembler_rejects_what_the_disassembler_never_prints() {
    assert!(assemble("launch missiles").is_err());
    assert!(assemble("emit.a r8").is_err()); // no such register
}

#[test]
fn harness_reproduces_theorem1_success_rates() {
    // Finite: Levin universal vs 3 seeds × 2 servers, 100% success.
    let goal = toy::MagicWordGoal::new("hi");
    for shift in [1u8, 6] {
        let report = finite_success(
            &goal,
            &move || Box::new(toy::RelayServer::with_shift(shift)),
            &|| {
                Box::new(LevinUniversalUser::new(
                    Box::new(toy::caesar_class("hi", 8, false)),
                    Box::new(toy::ack_sensing()),
                    8,
                ))
            },
            3,
            50_000,
            13,
        );
        assert!(report.always(), "shift {shift}: {report:?}");
        // Rounds must reflect the Levin position of the right candidate.
        assert!(report.max_rounds().unwrap() < 20_000);
    }

    // Compact: switch-on-negative universal, 100% settle rate.
    let cgoal = toy::CompactMagicWordGoal::new("hi", 16);
    let report = compact_success(
        &cgoal,
        &|| Box::new(toy::RelayServer::with_shift(3)),
        &|| {
            Box::new(CompactUniversalUser::new(
                Box::new(toy::caesar_class("hi", 8, true)),
                Box::new(Deadline::new(toy::ack_sensing(), 8)),
            ))
        },
        3,
        5_000,
        500,
        17,
    );
    assert!(report.always(), "{report:?}");
}

#[test]
fn harness_reports_zero_rate_for_unhelpful_servers() {
    let goal = toy::MagicWordGoal::new("hi");
    let report = finite_success(
        &goal,
        &|| Box::new(goc::core::strategy::SilentServer),
        &|| {
            Box::new(LevinUniversalUser::new(
                Box::new(toy::caesar_class("hi", 4, false)),
                Box::new(toy::ack_sensing()),
                8,
            ))
        },
        2,
        5_000,
        19,
    );
    assert_eq!(report.rate(), 0.0);
}
