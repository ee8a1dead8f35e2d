//! The goc end-to-end benchmark's measuring program. `run.py` builds and
//! runs it; see README.md for the workloads and metrics.
//!
//! ```text
//! goc-perfbench --workload levin_vm_cold|levin_vm_warm|serve_fleet
//!               --seed N --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! Prints a human-readable block, then one JSON result line: the
//! end-to-end metrics (`--trace 0`), or the per-layer metrics and the
//! tracing overhead (`--trace 1`). An untraced run runs `SLICES` child
//! processes of itself (`--slice`), one after another, each setting up once
//! and running for its share of `--seconds`, and merges what they saw.

mod fleet;
mod levin;
mod procfs;
mod report;

use report::{median, ratio, Outcome, Slice, Timeline};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Child processes per untraced run.
const SLICES: u64 = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    /// Run as one slice of a parent's run and dump it for the parent.
    pub slice: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |key: &str| -> Option<&str> {
        let pos = argv.iter().position(|a| a == &format!("--{key}"))?;
        argv.get(pos + 1).map(String::as_str)
    };
    let need = |key: &str| flag(key).ok_or(format!("missing --{key}"));
    let seconds: f64 = need("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: need("workload")?.to_string(),
        seed: need("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match flag("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
        serve_bin: flag("serve-bin").map(PathBuf::from),
        slice: argv.iter().any(|a| a == "--slice"),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("goc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.slice {
        let slice = match args.workload.as_str() {
            "levin_vm_cold" => Ok(levin::slice(levin::Temp::Cold, &args)),
            "levin_vm_warm" => Ok(levin::slice(levin::Temp::Warm, &args)),
            "serve_fleet" => fleet::slice(&args),
            other => Err(format!("unknown workload {other}")),
        };
        return match slice {
            Ok(s) => {
                s.dump();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("goc-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "goc-perfbench: workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match (args.workload.as_str(), args.trace) {
        ("levin_vm_cold" | "levin_vm_warm" | "serve_fleet", false) => run_slices(&args),
        ("levin_vm_cold", true) => Ok(levin::traced(levin::Temp::Cold, &args)),
        ("levin_vm_warm", true) => Ok(levin::traced(levin::Temp::Warm, &args)),
        ("serve_fleet", true) => fleet::traced(&args),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(o) => {
            o.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("goc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the slices one after another and merges them: their timed phases
/// join into one timeline; set-up time and peak memory are the medians over
/// slices.
fn run_slices(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut timeline = Timeline::default();
    let mut slices = Vec::new();
    for k in 0..SLICES {
        let seed = goc_serve::session::session_seed(args.seed, k + 1);
        let secs = args.seconds / SLICES as f64;
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &args.workload, "--trace", "0", "--slice"])
            .args(["--seed", &seed.to_string(), "--seconds", &secs.to_string()]);
        if let Some(bin) = &args.serve_bin {
            cmd.arg("--serve-bin").arg(bin);
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("slice {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("slice {k} exited with {}", out.status));
        }
        slices.push(Slice::parse(
            &String::from_utf8_lossy(&out.stdout),
            &mut timeline,
        )?);
    }
    let mut o = Outcome::default();
    for (k, s) in slices.iter().enumerate() {
        o.attempted += s.attempted;
        o.failed += s.failed;
        for n in &s.notes {
            o.note(format!("slice {k}: {n}"));
        }
    }
    let setups: Vec<f64> = slices.iter().map(|s| s.setup_s).collect();
    let peaks: Vec<f64> = slices
        .iter()
        .map(|s| s.peak_rss_kib as f64 / 1024.0)
        .collect();
    let (rounds, settled) = slices
        .iter()
        .fold((0, 0), |(r, n), s| (r + s.rounds, n + s.settled));
    o.e2e("setup_s", median(&setups), "s");
    o.timeline(&timeline, "");
    o.e2e(
        "settle_rounds_mean",
        ratio(rounds as f64, settled as f64),
        "rounds",
    );
    o.e2e("peak_rss_mib", median(&peaks), "MiB");
    Ok(o)
}
