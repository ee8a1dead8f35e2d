//! `levin_vm_cold` and `levin_vm_warm`: finite-Levin conquests over a class
//! of VM programs, run in this process on the default engine.
//!
//! The class has the E14/E16 shape: programs of length ≤ 3 over the
//! alphabet `{jmp, emit.a, <letter>}`, so several self-jump programs that
//! burn their whole fuel every round are enumerated before the winner
//! `emit.a <letter>`. Each op conquers the goal "say `<letter>`". The
//! letters give conquests with different winners and equal shape.
//!
//! Cold ops drain the worker pool and clear the process-wide candidate
//! cache and predictor first, so VM interpretation, batch lanes, prewarm and
//! the pool's background lane do the work. Warm ops revisit a pool of
//! conquests the set-up already ran once, so the cache hit path, the
//! `Execution` round loop and universal scheduling do the work.

use crate::procfs::{self, Threads};
use crate::report::{ratio, rng, Outcome, Slice, Timeline};
use crate::Args;
use goc_core::obs;
use goc_core::prelude::*;
use goc_core::toy;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// VM opcodes of the class alphabet (as in E14/E16).
const JMP: u8 = 0x0b;
const EMIT_A: u8 = 0x01;
const MAX_LEN: usize = 3;
/// Per-round fuel of every candidate. Lower than E14's 8192 so a cold run
/// yields enough ops for a p95 with ten samples beyond it; high enough that
/// a cold conquest, whose misses run the VM at full fuel, stays several
/// times as long as a warm one.
const FUEL: u32 = 4096;
/// Levin schedule base (E14's).
const BASE: u64 = 8;
const HORIZON: u64 = 100_000;
/// The winners' letters: the warm pool holds one conquest per letter, and
/// cold ops cycle through them in seeded order.
const LETTERS: &[u8] = b"bdghkmpw";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Temp {
    Cold,
    Warm,
}

/// One conquest's verdict and the time spent in each public call.
struct Conquest {
    achieved: bool,
    rounds: u64,
    build_ns: u64,
    run_ns: u64,
    eval_ns: u64,
}

fn conquest(letter: u8, seed: u64, reference: bool) -> Conquest {
    let t0 = Instant::now();
    let class = goc_vm::ProgramEnumerator::over(vec![JMP, EMIT_A, letter])
        .with_max_len(MAX_LEN)
        .with_fuel(FUEL);
    let class = if reference {
        class.with_cache(false)
    } else {
        class
    };
    let word = char::from(letter).to_string();
    let goal = toy::MagicWordGoal::new(&word);
    let user = LevinUniversalUser::new(Box::new(class), Box::new(toy::ack_sensing()), BASE);
    let mut rng = GocRng::seed_from_u64(seed);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(user),
        rng,
    );
    let t1 = Instant::now();
    let transcript = exec.run(HORIZON);
    let t2 = Instant::now();
    let verdict = evaluate_finite(&goal, black_box(&transcript));
    let t3 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Conquest {
        achieved: verdict.achieved,
        rounds: verdict.rounds,
        build_ns: ns(t0, t1),
        run_ns: ns(t1, t2),
        eval_ns: ns(t2, t3),
    }
}

/// The expected settle round of each letter's conquest, from the repo's
/// executable specifications: the legacy `match` interpreter, scalar, with
/// the candidate cache off. None of the default engine's fast paths run.
fn reference_rounds(seed: u64) -> BTreeMap<u8, u64> {
    goc_vm::dispatch::with_dispatch(false, || {
        goc_vm::batch::with_batch(false, || {
            LETTERS
                .iter()
                .map(|&l| {
                    let c = conquest(l, seed, true);
                    assert!(
                        c.achieved,
                        "reference conquest of {:?} did not settle",
                        char::from(l)
                    );
                    (l, c.rounds)
                })
                .collect()
        })
    })
}

/// The op sequence: seeded permutations of the letters, back to back, so
/// every run holds each letter equally often whatever the seed.
struct Ops {
    rng: GocRng,
    block: Vec<u8>,
}

impl Ops {
    fn next(&mut self) -> (u8, u64) {
        if self.block.is_empty() {
            self.block = LETTERS.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.index(i + 1);
                self.block.swap(i, j);
            }
        }
        let letter = self.block.pop().expect("refilled above");
        (letter, self.rng.next_u64())
    }
}

fn obs_counts() -> BTreeMap<String, u64> {
    obs::metrics_snapshot(None).into_iter().collect()
}

/// Everything one timed phase observed.
#[derive(Default)]
struct Phase {
    timeline: Timeline,
    rounds: u64,
    failed: u64,
    build_ns: u64,
    run_ns: u64,
    eval_ns: u64,
    main_cpu_ns: u64,
    pool_cpu_ns: u64,
    hits: u64,
    misses: u64,
    entries_peak: usize,
    predict_mispredicts: u64,
    predict_speculated: u64,
    counters: BTreeMap<String, u64>,
}

impl Phase {
    fn ops(&self) -> f64 {
        self.timeline.samples() as f64
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn per_op(&self, name: &str) -> f64 {
        ratio(self.counter(name), self.ops())
    }
}

/// Runs ops for `secs` seconds as the next segment of `p`. A traced phase
/// wraps each op in `obs::capture`, which switches the program's counters
/// on.
fn phase(
    p: &mut Phase,
    temp: Temp,
    ops: &mut Ops,
    expected: &BTreeMap<u8, u64>,
    secs: f64,
    traced: bool,
) {
    let pid = std::process::id();
    p.timeline.next_segment();
    let counters0 = obs_counts();
    let threads0 = Threads::sample(pid);
    let cpu0 = procfs::process_cpu_ns(pid);
    let cache0 = goc_vm::cache::stats();
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed().as_secs_f64() < secs {
        let (letter, seed) = ops.next();
        let one = || {
            goc_core::par::pool::drain();
            if temp == Temp::Cold {
                goc_vm::cache::clear();
                goc_vm::predict::reset();
            }
            let predict0 = goc_vm::predict::stats();
            let t = Instant::now();
            let c = conquest(letter, seed, false);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            (c, ms, predict0, goc_vm::predict::stats())
        };
        let (c, ms, predict0, predict1) = if traced { obs::capture(one).0 } else { one() };
        if !c.achieved || expected.get(&letter) != Some(&c.rounds) {
            p.failed += 1;
        }
        n += 1;
        let t = start.elapsed().as_secs_f64();
        p.timeline.latency(t, ms);
        p.timeline
            .progress(t, n, procfs::process_cpu_ns(pid) - cpu0);
        p.rounds += c.rounds;
        p.build_ns += c.build_ns;
        p.run_ns += c.run_ns;
        p.eval_ns += c.eval_ns;
        p.predict_mispredicts += predict1.mispredicts - predict0.mispredicts;
        p.predict_speculated += predict1.speculated - predict0.speculated;
        if traced {
            p.entries_peak = p.entries_peak.max(goc_vm::cache::entry_count());
        }
    }
    let threads1 = Threads::sample(pid);
    p.main_cpu_ns += threads0.delta_ns(&threads1, |tid, _| tid == pid);
    p.pool_cpu_ns += threads0.delta_ns(&threads1, |_, name| name.starts_with("goc-pool-"));
    let cache1 = goc_vm::cache::stats();
    p.hits += cache1.hits - cache0.hits;
    p.misses += cache1.misses - cache0.misses;
    for (k, v) in obs_counts() {
        let before = counters0.get(&k).copied().unwrap_or(0);
        *p.counters.entry(k).or_default() += v.saturating_sub(before);
    }
}

/// Puts the engine where the timed phase starts from. Runs the reference
/// conquests, then the [`setup_letters`] conquests on the default engine,
/// which also start the pool's workers. Returns the expected settle rounds
/// and how many set-up conquests failed.
fn setup(temp: Temp, seed: u64) -> (BTreeMap<u8, u64>, u64) {
    goc_core::par::pool::drain();
    goc_vm::cache::clear();
    goc_vm::predict::reset();
    let expected = reference_rounds(seed);
    let failed = setup_letters(temp)
        .iter()
        .filter(|&&l| {
            let c = conquest(l, seed, false);
            !c.achieved || expected[&l] != c.rounds
        })
        .count() as u64;
    goc_core::par::pool::drain();
    (expected, failed)
}

/// The conquests a set-up runs on the default engine: one pass over the
/// pool for warm, so the pool is cached, and one conquest for cold.
fn setup_letters(temp: Temp) -> &'static [u8] {
    match temp {
        Temp::Warm => LETTERS,
        Temp::Cold => &LETTERS[..1],
    }
}

/// One slice of an untraced run: one set-up, then ops for `--seconds`.
pub fn slice(temp: Temp, args: &Args) -> Slice {
    let mut ops = Ops {
        rng: rng(args.seed, 1),
        block: Vec::new(),
    };
    let t = Instant::now();
    let (expected, failed) = setup(temp, args.seed);
    let setup_s = t.elapsed().as_secs_f64();
    let mut p = Phase::default();
    phase(&mut p, temp, &mut ops, &expected, args.seconds, false);
    let fill = setup_letters(temp).len() as u64;
    Slice {
        setup_s,
        attempted: fill + p.ops() as u64,
        failed: failed + p.failed,
        rounds: p.rounds,
        settled: p.ops() as u64,
        peak_rss_kib: procfs::status_kib(std::process::id(), "VmHWM"),
        notes: vec![format!("{} ops after a {setup_s:.3} s set-up", p.ops())],
        timeline: p.timeline,
    }
}

/// A traced run: one set-up, then half the time untraced and half traced,
/// so the difference between the halves is the tracing overhead.
pub fn traced(temp: Temp, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ops = Ops {
        rng: rng(args.seed, 1),
        block: Vec::new(),
    };
    let (expected, failed) = setup(temp, args.seed);
    let (mut plain, mut p) = (Phase::default(), Phase::default());
    phase(
        &mut plain,
        temp,
        &mut ops,
        &expected,
        args.seconds / 2.0,
        false,
    );
    phase(&mut p, temp, &mut ops, &expected, args.seconds / 2.0, true);
    let fill = setup_letters(temp).len() as u64;
    out.attempted = fill + (plain.ops() + p.ops()) as u64;
    out.failed = failed + plain.failed + p.failed;
    out.note(format!(
        "expected settle rounds {:?}",
        expected
            .iter()
            .map(|(l, r)| (char::from(*l), *r))
            .collect::<Vec<_>>()
    ));
    layers(&mut out, &p);
    out.trace_overhead(&plain.timeline, &p.timeline);
    out
}

fn layers(out: &mut Outcome, p: &Phase) {
    let ops = p.ops();
    let c = |n: &str| p.counter(n);
    out.layer("exec.rounds_per_op", p.per_op("exec.rounds"), "rounds");
    out.layer(
        "exec.run_ms_per_op",
        ratio(p.run_ns as f64 / 1e6, ops),
        "ms",
    );
    out.layer(
        "exec.build_us_per_op",
        ratio(p.build_ns as f64 / 1e3, ops),
        "us",
    );
    out.layer(
        "goal.evaluate_us_per_op",
        ratio(p.eval_ns as f64 / 1e3, ops),
        "us",
    );
    out.layer(
        "universal.switches_per_op",
        p.per_op("universal.switches"),
        "count",
    );
    out.layer(
        "universal.lookahead.refills_per_op",
        p.per_op("universal.lookahead.refills"),
        "count",
    );
    out.layer("par.pool.jobs_per_op", p.per_op("par.pool.jobs"), "count");
    out.layer("par.pool.spawned", c("par.pool.spawned"), "count");
    out.layer(
        "par.worker_cpu_ms_per_op",
        ratio(p.pool_cpu_ns as f64 / 1e6, ops),
        "ms",
    );
    out.layer(
        "par.main_cpu_ms_per_op",
        ratio(p.main_cpu_ns as f64 / 1e6, ops),
        "ms",
    );
    out.layer("vm.cache.hits_per_op", ratio(p.hits as f64, ops), "count");
    out.layer(
        "vm.cache.misses_per_op",
        ratio(p.misses as f64, ops),
        "count",
    );
    out.layer(
        "vm.cache.hit_rate",
        ratio(p.hits as f64, (p.hits + p.misses) as f64),
        "share",
    );
    out.layer("vm.cache.entries_peak", p.entries_peak as f64, "count");
    out.layer("vm.cache.evictions", c("vm.cache.evict"), "count");
    out.layer(
        "vm.prewarm.jobs_per_op",
        p.per_op("vm.prewarm.jobs"),
        "count",
    );
    out.layer(
        "vm.prewarm.rounds_per_op",
        p.per_op("vm.prewarm.rounds"),
        "count",
    );
    out.layer(
        "vm.prewarm.hits_per_op",
        p.per_op("vm.prewarm.hits"),
        "count",
    );
    out.layer(
        "vm.prewarm.stale_per_op",
        p.per_op("vm.prewarm.stale"),
        "count",
    );
    // Prewarmed users claimed out of all the background jobs built.
    let (hits, stale) = (c("vm.prewarm.hits"), c("vm.prewarm.stale"));
    out.layer(
        "vm.prewarm.useful_share",
        ratio(hits, hits + stale),
        "share",
    );
    out.layer(
        "vm.prewarm.fixedpoint_per_op",
        p.per_op("vm.prewarm.fixedpoint"),
        "count",
    );
    out.layer(
        "vm.predict.hit_per_op",
        p.per_op("vm.prewarm.predict_hit"),
        "count",
    );
    out.layer(
        "vm.predict.mispredicts_per_op",
        ratio(p.predict_mispredicts as f64, ops),
        "count",
    );
    out.layer(
        "vm.predict.speculated_per_op",
        ratio(p.predict_speculated as f64, ops),
        "count",
    );
    // The counters give lane-rounds stepped, not the number of batch
    // calls, so the mean width is taken per background prewarm job.
    out.layer(
        "vm.batch.width_mean",
        ratio(c("vm.batch.width"), c("vm.prewarm.jobs")),
        "lanes",
    );
    out.layer(
        "vm.batch.divergence_per_op",
        p.per_op("vm.batch.divergence"),
        "count",
    );
    let reuse = c("vm.arena.reuse") + c("vm.arena.reg_reuse");
    let alloc = c("vm.arena.alloc") + c("vm.arena.reg_alloc");
    out.layer("vm.arena.reuse_share", ratio(reuse, reuse + alloc), "share");
}
