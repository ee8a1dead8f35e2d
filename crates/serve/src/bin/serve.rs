//! `goc-serve` — the sharded session daemon.
//!
//! ```text
//! goc-serve --listen tcp:127.0.0.1:4700 [--shards N] [--chaos drop=P,corrupt=P,seed=N] [--quiet]
//! goc-serve --listen unix:/tmp/goc.sock ...
//! ```
//!
//! Prints `listening on <resolved addr>` once the socket is bound (so
//! scripts can wait on it), then serves until a client sends `Shutdown`.

use goc_serve::daemon::{self, Addr, DaemonOpts};
use goc_serve::ChaosSpec;
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage: goc-serve --listen tcp:HOST:PORT|unix:PATH [--shards N] \
[--chaos drop=P,corrupt=P,seed=N] [--quiet]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |key: &str| -> Option<&str> {
        let flag = format!("--{key}");
        args.iter().position(|a| a == &flag).and_then(|p| args.get(p + 1)).map(String::as_str)
    };
    let Some(listen) = flag("listen") else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let addr = match Addr::parse(listen) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut opts = DaemonOpts::new(addr);
    if let Some(n) = flag("shards") {
        match n.parse() {
            Ok(n) => opts.shards = n,
            Err(_) => {
                eprintln!("bad --shards `{n}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(spec) = flag("chaos") {
        match ChaosSpec::parse(spec) {
            Ok(c) => opts.chaos = Some(c),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    opts.quiet = args.iter().any(|a| a == "--quiet");
    let quiet = opts.quiet;
    let handle = match daemon::start(opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        println!("listening on {}", handle.addr());
        let _ = std::io::stdout().flush();
    }
    let stats = handle.wait();
    // Flush deterministic metric totals for `GOC_TRACE` runs.
    goc_core::obs::flush_metrics();
    if stats.errors > 0 && !quiet {
        eprintln!("goc-serve: exited with {} error replies served", stats.errors);
    }
    ExitCode::SUCCESS
}
