//! The paper's flagship scenario: printing a document through a driver whose
//! command dialect you don't speak.
//!
//! We build a class of 24 printer-driver dialects (6 opcodes × 4 payload
//! encodings) and show:
//!
//! 1. a *universal* user prints with **every** driver in the class (finite
//!    goal, Levin enumeration + output-tray sensing);
//! 2. the *compact* variant — keep the page freshly printed forever — via
//!    the switch-on-negative universal user;
//! 3. sensing validators confirming the tray feedback is safe and viable.
//!
//! Run with: `cargo run --example printer_babel`

use goc::core::helpful::TrialConfig;
use goc::core::sensing::Deadline;
use goc::core::validate;
use goc::goals::printing::*;
use goc::prelude::*;

const DOC: &str = "quarterly-report.pdf";

fn dialects() -> Vec<Dialect> {
    Dialect::class(
        &[0x01, 0x17, 0x42, 0x50, 0x7e, 0xc3],
        &Encoding::family(&[0x2a], &[13]),
    )
}

fn main() {
    let dialects = dialects();
    println!("== printer babel: {} driver dialects ==\n", dialects.len());

    // --- 1. Finite goal: print once, with every driver. -------------------
    let goal = PrintGoal::new(DOC);
    println!("finite goal (print once):");
    for (i, dialect) in dialects.iter().enumerate() {
        // Round-robin doubling: linear (not 2^i) overhead over the
        // 24-dialect class — see DESIGN.md ablation E8.
        let universal = LevinUniversalUser::round_robin(
            Box::new(dialect_class(DOC, &dialects, false)),
            Box::new(tray_sensing(DOC)),
            8,
        );
        let mut rng = GocRng::seed_from_u64(100 + i as u64);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(DriverServer::new(dialect.clone())),
            Box::new(universal),
            rng,
        );
        let t = exec.run(100_000);
        let v = evaluate_finite(&goal, &t);
        println!(
            "  driver {i:>2} ({:#04x}, {:?}): {} in {:>7} rounds",
            dialect.opcode(),
            dialect.encoding(),
            if v.achieved { "printed" } else { "FAILED " },
            v.rounds
        );
        assert!(v.achieved);
    }

    // --- 2. Compact goal: keep it printed. --------------------------------
    println!("\ncompact goal (keep the page fresh, window 64):");
    let cgoal = CompactPrintGoal::new(DOC, 64);
    for (i, dialect) in dialects.iter().enumerate().take(6) {
        let universal = CompactUniversalUser::new(
            Box::new(dialect_class(DOC, &dialects, true)),
            Box::new(Deadline::new(tray_sensing(DOC), 32)),
        );
        let mut rng = GocRng::seed_from_u64(500 + i as u64);
        let mut exec = Execution::new(
            cgoal.spawn_world(&mut rng),
            Box::new(DriverServer::new(dialect.clone())),
            Box::new(universal),
            rng,
        );
        let mut monitor = CompactMonitor::start(&cgoal, &exec);
        monitor.run_for(&mut exec, 60_000);
        let v = monitor.verdict();
        println!(
            "  driver {i:>2}: {} (bad prefixes: {:>5}, last at {:?})",
            if v.achieved(5_000) { "settled" } else { "FAILED " },
            v.bad_prefixes,
            v.last_bad_prefix
        );
        assert!(v.achieved(5_000));
    }

    // --- 3. Chunked submission: documents bigger than a frame. -------------
    println!("\nchunked submission (dialect x chunk-size class, buffer-limited driver):");
    let long_doc = "annual-report-".repeat(8);
    let cgoal2 = PrintGoal::new(long_doc.as_bytes());
    let chunk_sizes = [4usize, 24];
    // Driver: dialect 3, 16-byte frame buffer -> only 4-byte chunks fit.
    let chunked_universal = LevinUniversalUser::round_robin(
        Box::new(chunked_class(long_doc.as_bytes(), &dialects, &chunk_sizes)),
        Box::new(tray_sensing(long_doc.as_bytes())),
        64,
    );
    let mut rng = GocRng::seed_from_u64(900);
    let mut exec = Execution::new(
        cgoal2.spawn_world(&mut rng),
        Box::new(ChunkedDriverServer::new(dialects[3].clone(), 16)),
        Box::new(chunked_universal),
        rng,
    );
    let t = exec.run(2_000_000);
    let v = evaluate_finite(&cgoal2, &t);
    println!(
        "  {}-byte document through a 16-byte buffer: {} in {} rounds",
        long_doc.len(),
        if v.achieved { "printed" } else { "FAILED" },
        v.rounds
    );
    assert!(v.achieved);

    // --- 4. Validate the sensing hypotheses of Theorem 1. ------------------
    println!("\nvalidating sensing (Monte-Carlo):");
    let class = dialect_class(DOC, &dialects, false);
    let cfg = TrialConfig { trials: 3, horizon: 400, seed: 9, window: 60 };
    let d0 = dialects[0].clone();
    let d1 = dialects[5].clone();
    let mk0 = move || Box::new(DriverServer::new(d0.clone())) as BoxedServer;
    let mk1 = move || Box::new(DriverServer::new(d1.clone())) as BoxedServer;
    let silent = || Box::new(goc::core::strategy::SilentServer) as BoxedServer;
    let servers: Vec<validate::MakeServer<'_>> = vec![&mk0, &mk1, &silent];
    let safety = validate::finite_safety(
        &goal,
        &servers,
        &class,
        &|| Box::new(tray_sensing(DOC)),
        &cfg,
    );
    println!("  safety:    {} ({} indications checked)", ok(safety.holds()), safety.checks);
    let helpful_only: Vec<validate::MakeServer<'_>> = vec![&mk0, &mk1];
    let viability = validate::finite_viability(
        &goal,
        &helpful_only,
        &class,
        &|| Box::new(tray_sensing(DOC)),
        &cfg,
    );
    println!("  viability: {} ({} servers checked)", ok(viability.holds()), viability.checks);
    assert!(safety.holds() && viability.holds());
    println!("\nok.");
}

fn ok(b: bool) -> &'static str {
    if b {
        "holds"
    } else {
        "VIOLATED"
    }
}
