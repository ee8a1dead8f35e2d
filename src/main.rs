//! `goc` — command-line front end: run goal scenarios, trace executions,
//! and drive the strategy VM.
//!
//! ```text
//! goc demo <scenario> [--seed N] [--horizon N]   run a scenario end-to-end
//! goc trace <scenario> [--seed N] [--limit N]    run + render the transcript
//! goc vm-asm <file|->                            assemble VM assembly, print listing
//! goc vm-run <file|-> [--rounds N]               assemble and run a VM program
//! goc list                                       list scenarios
//! ```
//!
//! Scenarios: `magic`, `printing`, `delegation`, `transmission`,
//! `navigation`, `multiparty`.

use goc::core::multi::{addressed_class, CompositeServer};
use goc::core::sensing::Deadline;
use goc::core::strategy::{EchoServer, SilentServer};
use goc::core::toy;
use goc::serve::Session;
use goc::goals::codec::Encoding;
use goc::goals::computation as comp;
use goc::goals::navigation as nav;
use goc::goals::printing as print;
use goc::goals::transmission as tx;
use goc::prelude::*;
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let code = match it.next() {
        Some("demo") => cmd_demo(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("vm-asm") => cmd_vm_asm(&args[1..]),
        Some("vm-run") => cmd_vm_run(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("list") => {
            println!("scenarios: {}", SCENARIOS.join(", "));
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{HELP}");
            ExitCode::FAILURE
        }
    };
    // Close out a `GOC_TRACE` file with the deterministic metric totals;
    // a no-op (two relaxed loads) when tracing is off.
    goc::core::obs::flush_metrics();
    code
}

const HELP: &str = "\
goc — goal-oriented communication scenarios

USAGE:
    goc demo <scenario> [--seed N] [--horizon N]
    goc trace <scenario> [--seed N] [--limit N]
    goc vm-asm <file|->
    goc vm-run <file|-> [--rounds N]
    goc snapshot <snap-scenario> [--seed N] [--round N] [--out FILE]
    goc resume <snap-scenario> [--seed N] [--horizon N] [--checkpoint N | --snap FILE]
    goc list

Scenarios: magic, printing, delegation, transmission, navigation, multiparty
Snapshot scenarios: magic, magic-compact
";

const SCENARIOS: [&str; 6] =
    ["magic", "printing", "delegation", "transmission", "navigation", "multiparty"];

/// Parses `--key value` flags, returning (positional, flag-lookup).
fn parse_flags(args: &[String]) -> (Vec<&str>, impl Fn(&str, u64) -> u64 + '_) {
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    let lookup = move |key: &str, default: u64| -> u64 {
        let flag = format!("--{key}");
        args.iter()
            .position(|a| a == &flag)
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    (positional, lookup)
}

/// Builds a scenario's (runner) closure; returns `None` for unknown names.
#[allow(clippy::type_complexity)]
fn run_scenario(
    name: &str,
    seed: u64,
    horizon: u64,
) -> Option<(bool, u64, String)> {
    match name {
        "magic" => {
            let goal = toy::MagicWordGoal::new("xyzzy");
            let user = LevinUniversalUser::round_robin(
                Box::new(toy::caesar_class("xyzzy", 16, false)),
                Box::new(toy::ack_sensing()),
                8,
            );
            let mut rng = GocRng::seed_from_u64(seed);
            let shift = (rng.below(16)) as u8;
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(toy::RelayServer::with_shift(shift)),
                Box::new(user),
                rng,
            );
            let t = exec.run(horizon);
            let v = evaluate_finite(&goal, &t);
            Some((v.achieved, v.rounds, format!("magic word via Caesar relay (+{shift})")))
        }
        "printing" => {
            let dialects =
                print::Dialect::class(&[0x11, 0x42], &Encoding::family(&[0x2a], &[13]));
            let goal = print::PrintGoal::new("report.pdf");
            let user = LevinUniversalUser::round_robin(
                Box::new(print::dialect_class("report.pdf", &dialects, false)),
                Box::new(print::tray_sensing("report.pdf")),
                8,
            );
            let mut rng = GocRng::seed_from_u64(seed);
            let pick = rng.index(dialects.len());
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(print::DriverServer::new(dialects[pick].clone())),
                Box::new(user),
                rng,
            );
            let t = exec.run(horizon);
            let v = evaluate_finite(&goal, &t);
            Some((v.achieved, v.rounds, format!("print through driver dialect #{pick}")))
        }
        "delegation" => {
            let puzzle: Arc<dyn comp::Puzzle + Send + Sync> =
                Arc::new(comp::ModSquareRoot::new(10007));
            let protocols =
                comp::QueryProtocol::class(b"?!", &Encoding::family(&[0x55], &[7]));
            let goal = comp::DelegationGoal::new(puzzle.clone());
            let user = LevinUniversalUser::round_robin(
                Box::new(comp::protocol_class(&protocols, puzzle.clone())),
                Box::new(comp::confirmation_sensing()),
                8,
            );
            let mut rng = GocRng::seed_from_u64(seed);
            let pick = rng.index(protocols.len());
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(comp::OracleServer::new(protocols[pick])),
                Box::new(user),
                rng,
            );
            let t = exec.run(horizon);
            let v = evaluate_finite(&goal, &t);
            Some((v.achieved, v.rounds, format!("delegated mod-sqrt via protocol #{pick}")))
        }
        "transmission" => {
            let family = tx::Transform::family(&[0x0f], &[1, 7], &[41]);
            let goal = tx::TransmissionGoal::new(3, 40, 20);
            let user = CompactUniversalUser::new(
                Box::new(tx::transform_class(&family)),
                Box::new(Deadline::new(tx::ok_sensing(), 45)),
            );
            let mut rng = GocRng::seed_from_u64(seed);
            let pick = rng.index(family.len());
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(tx::PipeServer::new(family[pick].clone())),
                Box::new(user),
                rng,
            );
            let mut monitor = CompactMonitor::start(&goal, &exec);
            monitor.run_for(&mut exec, horizon);
            let v = monitor.verdict();
            Some((
                v.achieved(horizon / 10),
                v.last_bad_prefix.unwrap_or(0),
                format!("transmission through transform #{pick} (settle round shown)"),
            ))
        }
        "navigation" => {
            let goal = nav::NavigationGoal::new(8, 8, 60);
            let user = CompactUniversalUser::new(
                Box::new(nav::wiring_class()),
                Box::new(Deadline::new(nav::visit_sensing(), 80)),
            );
            let mut rng = GocRng::seed_from_u64(seed);
            let pick = rng.index(24);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(nav::ActuatorServer::new(nav::Wiring::nth(pick))),
                Box::new(user),
                rng,
            );
            let mut monitor = CompactMonitor::start(&goal, &exec);
            monitor.run_for(&mut exec, horizon);
            let v = monitor.verdict();
            Some((
                v.achieved(horizon / 10),
                v.last_bad_prefix.unwrap_or(0),
                format!("navigate via actuator wiring #{pick} (settle round shown)"),
            ))
        }
        "multiparty" => {
            let dialects =
                print::Dialect::class(&[0x10, 0x20], &[Encoding::Identity, Encoding::Xor(0x44)]);
            let goal = print::PrintGoal::new("doc");
            let composite = CompositeServer::new(vec![
                Box::new(SilentServer),
                Box::new(EchoServer),
                Box::new(print::DriverServer::new(dialects[2].clone())),
            ]);
            let user = LevinUniversalUser::round_robin(
                Box::new(addressed_class(
                    Box::new(print::dialect_class("doc", &dialects, false)),
                    3,
                )),
                Box::new(print::tray_sensing("doc")),
                8,
            );
            let mut rng = GocRng::seed_from_u64(seed);
            let mut exec = Execution::new(
                goal.spawn_world(&mut rng),
                Box::new(composite),
                Box::new(user),
                rng,
            );
            let t = exec.run(horizon);
            let v = evaluate_finite(&goal, &t);
            Some((v.achieved, v.rounds, "print via 3-server composite".to_string()))
        }
        _ => None,
    }
}

/// Looks up a `--key value` string flag.
fn flag_str<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let flag = format!("--{key}");
    args.iter().position(|a| a == &flag).and_then(|p| args.get(p + 1)).map(String::as_str)
}

fn cmd_snapshot(args: &[String]) -> ExitCode {
    let (positional, flag) = parse_flags(args);
    let Some(&scenario) = positional.first() else {
        eprintln!("usage: goc snapshot <scenario> [--seed N] [--round N] [--out FILE]");
        return ExitCode::FAILURE;
    };
    let seed = flag("seed", 42);
    let round = flag("round", 500);
    let out = flag_str(args, "out").unwrap_or("goc.snap");
    // Snapshot scenarios live in `goc_serve::session`: the CLI, the daemon
    // shards, and `goc-load` all build sessions through the same
    // constructors, which is what keeps their outcomes byte-comparable.
    let Some(mut session) = Session::build(scenario, seed) else {
        eprintln!("unknown snapshot scenario `{scenario}`; try: magic, magic-compact");
        return ExitCode::FAILURE;
    };
    session.step_to(round);
    let bytes = match session.save_to_vec() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("snapshot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(out, &bytes) {
        eprintln!("{out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}: saved {} bytes at round {} to {out}",
        session.label(),
        bytes.len(),
        session.round()
    );
    ExitCode::SUCCESS
}

fn cmd_resume(args: &[String]) -> ExitCode {
    let (positional, flag) = parse_flags(args);
    let Some(&scenario) = positional.first() else {
        eprintln!(
            "usage: goc resume <scenario> [--seed N] [--horizon N] [--checkpoint N | --snap FILE]"
        );
        return ExitCode::FAILURE;
    };
    let seed = flag("seed", 42);
    let horizon = flag("horizon", 20_000);
    let Some(mut session) = Session::build(scenario, seed) else {
        eprintln!("unknown snapshot scenario `{scenario}`; try: magic, magic-compact");
        return ExitCode::FAILURE;
    };
    let bytes = if let Some(path) = flag_str(args, "snap") {
        // File mode: resume a run saved by `goc snapshot`.
        match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // Differential mode: run to the checkpoint in-process, save, and
        // restore into a fresh skeleton. `--checkpoint 0` exercises the
        // identical code path without any pre-checkpoint rounds, so the two
        // invocations are byte-comparable on stdout and `GOC_TRACE`.
        let checkpoint = flag("checkpoint", 0);
        session.step_to(checkpoint);
        match session.save_to_vec() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("snapshot failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let Some(mut resumed) = Session::build(scenario, seed) else {
        unreachable!("scenario validated above");
    };
    if let Err(e) = resumed.restore(&bytes) {
        eprintln!("restore failed: {e}");
        return ExitCode::FAILURE;
    }
    resumed.step_to(horizon);
    // The deterministic end-of-run summary; byte equality of this line
    // (plus `GOC_TRACE` output) is what CI's differential gate compares
    // between interrupted and uninterrupted runs.
    println!("{}", resumed.outcome_line());
    ExitCode::SUCCESS
}

fn cmd_demo(args: &[String]) -> ExitCode {
    let (positional, flag) = parse_flags(args);
    let Some(&scenario) = positional.first() else {
        eprintln!("usage: goc demo <scenario> [--seed N] [--horizon N]");
        return ExitCode::FAILURE;
    };
    let seed = flag("seed", 42);
    let horizon = flag("horizon", 500_000);
    match run_scenario(scenario, seed, horizon) {
        Some((achieved, rounds, label)) => {
            println!(
                "{label}: {} (round metric: {rounds}, seed {seed})",
                if achieved { "GOAL ACHIEVED" } else { "failed" }
            );
            if achieved {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => {
            eprintln!("unknown scenario `{scenario}`; try: {}", SCENARIOS.join(", "));
            ExitCode::FAILURE
        }
    }
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let (positional, flag) = parse_flags(args);
    let Some(&scenario) = positional.first() else {
        eprintln!("usage: goc trace <scenario> [--seed N] [--limit N]");
        return ExitCode::FAILURE;
    };
    let seed = flag("seed", 42);
    let limit = flag("limit", 12) as usize;
    // Trace the magic scenario concretely (the only one whose transcript
    // type we can name here without generics gymnastics); other scenarios
    // fall back to the demo summary.
    if scenario == "magic" {
        let goal = toy::MagicWordGoal::new("xyzzy");
        let user = LevinUniversalUser::round_robin(
            Box::new(toy::caesar_class("xyzzy", 16, false)),
            Box::new(toy::ack_sensing()),
            8,
        );
        let mut rng = GocRng::seed_from_u64(seed);
        let shift = (rng.below(16)) as u8;
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(shift)),
            Box::new(user),
            rng,
        )
        .recording();
        let t = exec.run(500_000);
        print!("{}", goc::core::trace::render(&t, limit));
        let stats = goc::core::trace::ChannelStats::of(t.view());
        println!(
            "stats: {} sent / {} received messages, {} / {} bytes",
            stats.sent_to_server + stats.sent_to_world,
            stats.recv_from_server + stats.recv_from_world,
            stats.bytes_sent,
            stats.bytes_received
        );
        return ExitCode::SUCCESS;
    }
    cmd_demo(args)
}

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| e.to_string())?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_vm_asm(args: &[String]) -> ExitCode {
    let (positional, _) = parse_flags(args);
    let Some(&path) = positional.first() else {
        eprintln!("usage: goc vm-asm <file|->");
        return ExitCode::FAILURE;
    };
    let source = match read_source(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match goc::vm::asm::assemble(&source) {
        Ok(program) => {
            println!("; {} bytes", program.len());
            for b in program.as_bytes() {
                print!("{b:02x}");
            }
            println!();
            println!("{}", program.disassemble());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("assembly error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_vm_run(args: &[String]) -> ExitCode {
    let (positional, flag) = parse_flags(args);
    let Some(&path) = positional.first() else {
        eprintln!("usage: goc vm-run <file|-> [--rounds N]");
        return ExitCode::FAILURE;
    };
    let rounds = flag("rounds", 5);
    let source = match read_source(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match goc::vm::asm::assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("assembly error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut machine = goc::vm::Machine::new(program);
    for round in 0..rounds {
        let mut io = goc::vm::RoundIo::default();
        machine.round(&mut io);
        println!(
            "round {round}: A→{:?} B→{:?}{}",
            String::from_utf8_lossy(&io.out_a),
            String::from_utf8_lossy(&io.out_b),
            if machine.halted().is_some() { "  [halted]" } else { "" }
        );
        if machine.halted().is_some() {
            break;
        }
    }
    println!("instructions retired: {}", machine.instructions_retired());
    ExitCode::SUCCESS
}
