//! `serve_fleet`: a `goc-serve` daemon in a child process, holding a
//! resident population of idle sessions, under a closed loop of churning
//! sessions from this process.
//!
//! Load is `CONNS` connections, one thread each, every connection keeping
//! `WINDOW` sessions with one request in flight apiece. A session goes
//! Open → Drive(`QUANTUM`) … up to `HORIZON` → Close; one in
//! `MIGRATE_EVERY` is migrated after its first drive by Snap → Restore
//! under a fresh id → Close of the old id. A window of 4 keeps the
//! daemon's shards busy without measuring queueing (a 256-deep pipeline
//! does) or wake-up latency alone (a window of 1 does).

use crate::procfs::{self, Threads};
use crate::report::{percentile, ratio, Outcome, Slice, Timeline};
use crate::Args;
use goc_serve::daemon::Addr;
use goc_serve::session::{session_seed, Session};
use goc_serve::wire::Frame;
use goc_serve::Client;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const RESIDENTS: u64 = 20_000;
const CONNS: usize = 1;
const WINDOW: usize = 4;
/// Requests in flight per connection while the residents are opened.
const SETUP_WINDOW: usize = 256;
const QUANTUM: u64 = 64;
const HORIZON: u64 = 256;
const MIGRATE_EVERY: u64 = 8;
/// Session ids: residents count up from 1; churning sessions and their
/// migrated copies live in their own ranges.
const ACTIVE_BASE: u64 = 1 << 40;
const MIGRATED_BASE: u64 = 1 << 41;
/// Seconds of untimed load before a timed phase: the first seconds after
/// the residents open run measurably slower.
const WARMUP_S: f64 = 2.0;
/// Sessions replayed with per-call timing in a traced run.
const TIMED_REPLAYS: usize = 2_000;
/// A traced run keeps one frame in `FRAME_SAMPLE_EVERY` for the wire
/// timings, up to `FRAME_SAMPLE_MAX`.
const FRAME_SAMPLE_EVERY: u64 = 16;
const FRAME_SAMPLE_MAX: usize = 8_192;

fn scenario(key: u64) -> &'static str {
    if key.is_multiple_of(2) {
        "magic"
    } else {
        "magic-compact"
    }
}

/// The daemon child. Dropping it kills and reaps the process, so no error
/// path leaves it running.
struct Daemon {
    child: Child,
    addr: Addr,
}

/// What the daemon's teardown line reported.
struct Teardown {
    requests: u64,
    errors: u64,
}

impl Daemon {
    fn spawn(bin: &Path, socket: &str) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", &format!("unix:{socket}")])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let daemon = Daemon {
            child,
            addr: Addr::Unix(socket.into()),
        };
        match read {
            Ok(_) if line.starts_with("listening on") => Ok(daemon),
            _ => Err(format!("goc-serve did not start listening: {line:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks for shutdown over the wire, reaps the child, and parses its
    /// teardown line.
    fn shutdown(mut self) -> Result<Teardown, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let mut err = String::new();
        if let Some(mut s) = self.child.stderr.take() {
            let _ = s.read_to_string(&mut err);
        }
        if !status.success() {
            return Err(format!("goc-serve exited with {status}: {err}"));
        }
        // "goc-serve: N opened, N closed, N requests, N errors, N chaos-dropped"
        let line = err
            .lines()
            .find(|l| l.starts_with("goc-serve:"))
            .unwrap_or("");
        let count = |what: &str| -> Option<u64> {
            line.split(',')
                .find(|f| f.trim_end().ends_with(what))?
                .split_whitespace()
                .rev()
                .nth(1)?
                .parse()
                .ok()
        };
        match (count(" requests"), count(" errors")) {
            (Some(requests), Some(errors)) => Ok(Teardown { requests, errors }),
            _ => Err(format!("no teardown stats line from goc-serve: {err:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Opens the resident population over the load connections; returns how
/// many opens failed.
fn populate(clients: &mut [Client], seed: u64) -> u64 {
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, c)| {
                s.spawn(move || {
                    let ids: Vec<u64> = (1..=RESIDENTS)
                        .filter(|id| id % CONNS as u64 == t as u64)
                        .collect();
                    let mut failed = 0u64;
                    let (mut sent, mut got) = (0usize, 0usize);
                    while got < ids.len() {
                        while sent < ids.len() && sent - got < SETUP_WINDOW {
                            let id = ids[sent];
                            let frame = Frame::Open {
                                session: id,
                                scenario: scenario(id).to_string(),
                                seed: session_seed(seed, id),
                            };
                            if c.send(&frame).is_err() {
                                return ids.len() as u64;
                            }
                            sent += 1;
                        }
                        match c.recv() {
                            Ok(Frame::Status {
                                round: 0,
                                halted: false,
                                ..
                            }) => {}
                            Ok(_) => failed += 1,
                            Err(_) => return ids.len() as u64,
                        }
                        got += 1;
                    }
                    failed
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("populate thread panicked"))
            .sum()
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Drive,
    Snap,
    Restore,
    Close,
}

const KINDS: [(Kind, &str); 5] = [
    (Kind::Open, "open"),
    (Kind::Drive, "drive"),
    (Kind::Snap, "snap"),
    (Kind::Restore, "restore"),
    (Kind::Close, "close"),
];

/// A settled session as the daemon reported it.
struct Served {
    scenario: &'static str,
    seed: u64,
    status: (u64, bool, u64),
}

/// One churning session's client-side state.
struct Sess {
    scenario: &'static str,
    seed: u64,
    /// The id the daemon currently holds the session under.
    id: u64,
    /// The id of the request in flight (a Restore is in flight under the
    /// new id while the old one is still open).
    waiting_on: u64,
    pending: Kind,
    sent: Instant,
    status: (u64, bool, u64),
    drives: u32,
    migrate: Option<u64>,
}

impl Sess {
    fn new(key: u64, run_seed: u64) -> Sess {
        let id = ACTIVE_BASE + key;
        Sess {
            // By the connection's own count, so every connection serves
            // both scenarios alike.
            scenario: scenario(key / CONNS as u64),
            seed: session_seed(run_seed, key),
            id,
            waiting_on: id,
            pending: Kind::Open,
            sent: Instant::now(),
            status: (0, false, 0),
            drives: 0,
            migrate: (key % MIGRATE_EVERY == 3).then_some(MIGRATED_BASE + key),
        }
    }

    fn settled(&self) -> bool {
        self.status.0 >= HORIZON || (self.scenario == "magic" && self.status.1)
    }

    fn drive_or_close(&self) -> (Kind, Frame) {
        if self.settled() {
            (Kind::Close, Frame::Close { session: self.id })
        } else {
            let rounds = QUANTUM.min(HORIZON - self.status.0);
            (
                Kind::Drive,
                Frame::Drive {
                    session: self.id,
                    rounds,
                },
            )
        }
    }

    /// Consumes the reply to the request in flight and returns the next
    /// request, or `None` once the session is closed.
    fn advance(
        &mut self,
        reply: Frame,
        snap_bytes: &mut Vec<f64>,
    ) -> Result<Option<(Kind, Frame)>, String> {
        let next = match (self.pending, reply) {
            (
                Kind::Open,
                Frame::Status {
                    round: 0,
                    halted: false,
                    ..
                },
            ) => (
                Kind::Drive,
                Frame::Drive {
                    session: self.id,
                    rounds: QUANTUM,
                },
            ),
            (
                Kind::Drive,
                Frame::Status {
                    round,
                    halted,
                    heard,
                    ..
                },
            ) => {
                self.status = (round, halted, heard);
                self.drives += 1;
                match self.migrate {
                    Some(_) if self.drives == 1 => (Kind::Snap, Frame::Snap { session: self.id }),
                    _ => self.drive_or_close(),
                }
            }
            (Kind::Snap, Frame::SnapData { snap, .. }) => {
                snap_bytes.push(snap.len() as f64);
                let new_id = self.migrate.expect("only migrating sessions snapshot");
                let frame = Frame::Restore {
                    session: new_id,
                    scenario: self.scenario.to_string(),
                    seed: self.seed,
                    snap,
                };
                (Kind::Restore, frame)
            }
            (
                Kind::Restore,
                Frame::Status {
                    round,
                    halted,
                    heard,
                    ..
                },
            ) => {
                if (round, halted, heard) != self.status {
                    return Err(format!("restore of session {} changed its status", self.id));
                }
                (Kind::Close, Frame::Close { session: self.id })
            }
            (Kind::Close, Frame::Closed { .. }) => match self.migrate.take() {
                Some(new_id) => {
                    self.id = new_id;
                    self.drive_or_close()
                }
                None => return Ok(None),
            },
            (_, other) => return Err(format!("session {}: unexpected reply {other:?}", self.id)),
        };
        Ok(Some(next))
    }

    fn send(
        &mut self,
        c: &mut Client,
        (kind, frame): (Kind, Frame),
        sample: &mut Sampler,
    ) -> Result<(), String> {
        self.pending = kind;
        self.waiting_on = frame.session().expect("requests carry a session");
        sample.offer(&frame);
        self.sent = Instant::now();
        c.send(&frame).map_err(|e| format!("send: {e}"))
    }
}

/// Keeps every `FRAME_SAMPLE_EVERY`-th frame of a traced phase.
#[derive(Default)]
struct Sampler {
    on: bool,
    seen: u64,
    frames: Vec<Frame>,
}

impl Sampler {
    fn offer(&mut self, frame: &Frame) {
        if self.on {
            self.seen += 1;
            if self.seen.is_multiple_of(FRAME_SAMPLE_EVERY) && self.frames.len() < FRAME_SAMPLE_MAX
            {
                self.frames.push(frame.clone());
            }
        }
    }
}

/// What one load connection saw during a phase.
#[derive(Default)]
struct Load {
    /// Request round-trips before the deadline, per kind, in µs.
    rtt_us: [Vec<f64>; 5],
    /// `(completion seconds, ms)` of every request round-trip before the
    /// deadline.
    timed: Vec<(f64, f64)>,
    sessions_in_time: u64,
    served: Vec<Served>,
    requests: u64,
    failed: u64,
    errors: Vec<String>,
    snap_bytes: Vec<f64>,
    cpu_ns: u64,
    sample: Sampler,
}

fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One connection's closed loop: keep `WINDOW` sessions going until
/// `deadline`, then let the ones in flight finish.
fn churn(
    c: &mut Client,
    t: usize,
    seed: u64,
    window: (Instant, Instant),
    done: &AtomicU64,
    sampled: bool,
) -> Load {
    let (start_at, deadline) = window;
    let cpu0 = thread_cpu_ns();
    let mut load = Load {
        sample: Sampler {
            on: sampled,
            ..Sampler::default()
        },
        ..Load::default()
    };
    let mut next_key = t as u64;
    let mut start = |load: &mut Load, c: &mut Client| -> Option<Sess> {
        let mut s = Sess::new(next_key, seed);
        next_key += CONNS as u64;
        let open = Frame::Open {
            session: s.id,
            scenario: s.scenario.to_string(),
            seed: s.seed,
        };
        match s.send(c, (Kind::Open, open), &mut load.sample) {
            Ok(()) => Some(s),
            Err(e) => {
                load.failed += 1;
                load.errors.push(e);
                None
            }
        }
    };
    let mut slots: Vec<Option<Sess>> = (0..WINDOW).map(|_| start(&mut load, c)).collect();
    while slots.iter().any(Option::is_some) {
        let reply = match c.recv() {
            Ok(f) => f,
            Err(e) => {
                load.errors.push(format!("recv: {e}"));
                load.failed += slots.iter().flatten().count() as u64;
                break;
            }
        };
        let now = Instant::now();
        load.requests += 1;
        load.sample.offer(&reply);
        let Some(slot) = slots.iter_mut().find(|s| {
            s.as_ref()
                .and_then(|s| reply.session().map(|id| id == s.waiting_on))
                .unwrap_or(false)
        }) else {
            load.failed += 1;
            load.errors
                .push(format!("reply for no session in flight: {reply:?}"));
            break;
        };
        let sess = slot.as_mut().expect("found above");
        let in_time = now < deadline;
        if in_time {
            let k = KINDS
                .iter()
                .position(|(k, _)| *k == sess.pending)
                .expect("every kind listed");
            let us = (now - sess.sent).as_nanos() as f64 / 1e3;
            load.rtt_us[k].push(us);
            load.timed.push(((now - start_at).as_secs_f64(), us / 1e3));
        }
        let step = sess.advance(reply, &mut load.snap_bytes);
        let done = match step {
            Ok(Some(next)) => match sess.send(c, next, &mut load.sample) {
                Ok(()) => false,
                Err(e) => {
                    load.failed += 1;
                    load.errors.push(e);
                    true
                }
            },
            Ok(None) => {
                load.sessions_in_time += in_time as u64;
                done.fetch_add(in_time as u64, Ordering::Relaxed);
                load.served.push(Served {
                    scenario: sess.scenario,
                    seed: sess.seed,
                    status: sess.status,
                });
                true
            }
            Err(e) => {
                load.failed += 1;
                load.errors.push(e);
                true
            }
        };
        if done {
            *slot = if in_time { start(&mut load, c) } else { None };
        }
    }
    load.cpu_ns = thread_cpu_ns() - cpu0;
    load
}

/// Everything the timed phases observed, merged over connections and
/// segments.
#[derive(Default)]
struct Phase {
    timeline: Timeline,
    rtt_us: [Vec<f64>; 5],
    sessions_in_time: u64,
    served: Vec<Served>,
    requests: u64,
    failed: u64,
    errors: Vec<String>,
    snap_bytes: Vec<f64>,
    client_thread_ns: u64,
    shard_ns: u64,
    conn_ns: u64,
    accept_ns: u64,
    pool_ns: u64,
    frames: Vec<Frame>,
}

/// Runs the closed loop for `secs` seconds as the next segment of `p`.
fn phase(
    p: &mut Phase,
    daemon: &Daemon,
    clients: &mut [Client],
    seed: u64,
    secs: f64,
    sampled: bool,
) {
    let me = std::process::id();
    let (cpu_me0, cpu_d0, threads0) = (
        procfs::process_cpu_ns(me),
        procfs::process_cpu_ns(daemon.pid()),
        Threads::sample(daemon.pid()),
    );
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let done = AtomicU64::new(0);
    p.timeline.next_segment();
    let timeline = &mut p.timeline;
    let loads: Vec<Load> = std::thread::scope(|s| {
        let done = &done;
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, c)| {
                std::thread::Builder::new()
                    .name(format!("perf-load-{t}"))
                    .spawn_scoped(s, move || {
                        churn(c, t, seed, (start, deadline), done, sampled)
                    })
                    .expect("spawn load thread")
            })
            .collect();
        // Progress and CPU (daemon + this process) every 50 ms, for the
        // per-window rates.
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
            let cpu = procfs::process_cpu_ns(me) - cpu_me0 + procfs::process_cpu_ns(daemon.pid())
                - cpu_d0;
            timeline.progress(
                start.elapsed().as_secs_f64(),
                done.load(Ordering::Relaxed),
                cpu,
            );
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let threads1 = Threads::sample(daemon.pid());
    let by = |prefix: &str| threads0.delta_ns(&threads1, |_, name| name.starts_with(prefix));
    p.shard_ns += by("goc-shard-");
    p.conn_ns += by("goc-conn-");
    p.accept_ns += by("goc-accept");
    p.pool_ns += by("goc-pool-");
    for l in loads {
        for (all, mine) in p.rtt_us.iter_mut().zip(l.rtt_us) {
            all.extend(mine);
        }
        for (t, ms) in l.timed {
            p.timeline.latency(t, ms);
        }
        p.sessions_in_time += l.sessions_in_time;
        p.served.extend(l.served);
        p.requests += l.requests;
        p.failed += l.failed;
        p.errors.extend(l.errors);
        p.snap_bytes.extend(l.snap_bytes);
        p.client_thread_ns += l.cpu_ns;
        p.frames.extend(l.sample.frames);
    }
    for v in p.rtt_us.iter_mut() {
        v.sort_by(f64::total_cmp);
    }
}

/// In-process per-call timings of the session and snapshot layers, from
/// replaying sessions the way the daemon drove them.
#[derive(Default)]
struct Replay {
    mismatches: u64,
    builds: u64,
    build_ns: u64,
    quanta: u64,
    drive_ns: u64,
    saves: u64,
    save_ns: u64,
    restore_ns: u64,
    snap_bytes: u64,
}

/// Checks every served outcome against `Session::build(..).step_to(HORIZON)`
/// in this process. With `timed`, the first `TIMED_REPLAYS` sessions are
/// instead driven in quanta and migrated after their first quantum, timing
/// each call; their outcomes are checked the same way.
fn verify(served: &[Served], timed: bool) -> Replay {
    let timed_n = if timed {
        TIMED_REPLAYS.min(served.len())
    } else {
        0
    };
    let (timed_part, rest) = served.split_at(timed_n);
    let mut total = Replay::default();
    for s in timed_part {
        let mut t = Instant::now();
        let Some(mut sess) = Session::build(s.scenario, s.seed) else {
            total.mismatches += 1;
            continue;
        };
        total.build_ns += t.elapsed().as_nanos() as u64;
        total.builds += 1;
        let mut first = true;
        while !sess.settled(HORIZON) || first {
            t = Instant::now();
            sess.drive(QUANTUM.min(HORIZON.saturating_sub(sess.round())));
            total.drive_ns += t.elapsed().as_nanos() as u64;
            total.quanta += 1;
            if first {
                first = false;
                t = Instant::now();
                let bytes = sess.save_to_vec().expect("snapshot of a live session");
                total.save_ns += t.elapsed().as_nanos() as u64;
                total.saves += 1;
                total.snap_bytes += bytes.len() as u64;
                t = Instant::now();
                let mut moved = Session::build(s.scenario, s.seed).expect("built above");
                moved.restore(&bytes).expect("restore of a fresh snapshot");
                total.restore_ns += t.elapsed().as_nanos() as u64;
                sess = moved;
            }
        }
        total.mismatches += ((sess.round(), sess.halted(), sess.heard()) != s.status) as u64;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = rest.len().div_ceil(cores).max(1);
    total.mismatches += std::thread::scope(|sc| {
        let workers: Vec<_> = rest
            .chunks(chunk)
            .map(|part| {
                sc.spawn(move || {
                    part.iter()
                        .filter(|s| match Session::build(s.scenario, s.seed) {
                            Some(mut sess) => {
                                sess.step_to(HORIZON);
                                (sess.round(), sess.halted(), sess.heard()) != s.status
                            }
                            None => true,
                        })
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("verify thread panicked"))
            .sum::<u64>()
    });
    total
}

/// Spawns a daemon, connects the load connections, and opens the residents.
/// Returns the daemon, its clients, the failed opens, and the daemon's RSS
/// growth per resident in KiB.
fn setup(args: &Args) -> Result<(Daemon, Vec<Client>, u64, f64), String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("serve_fleet needs --serve-bin PATH")?;
    let daemon = Daemon::spawn(bin, &format!("serve-{}.sock", std::process::id()))?;
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        clients.push(Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let rss0 = procfs::status_kib(daemon.pid(), "VmRSS");
    let failed = populate(&mut clients, args.seed ^ 0x5e5e);
    let rss1 = procfs::status_kib(daemon.pid(), "VmRSS");
    Ok((
        daemon,
        clients,
        failed,
        rss1.saturating_sub(rss0) as f64 / RESIDENTS as f64,
    ))
}

/// Runs the closed loop for `WARMUP_S` untimed seconds. Returns a phase that
/// holds its sessions, so they are checked and counted, and no timings.
fn warm_up(daemon: &Daemon, clients: &mut [Client], seed: u64) -> Phase {
    let mut warm = Phase::default();
    phase(&mut warm, daemon, clients, !seed, WARMUP_S, false);
    Phase {
        served: warm.served,
        failed: warm.failed,
        errors: warm.errors,
        ..Phase::default()
    }
}

/// One slice of an untraced run: a daemon set up with its residents, the
/// closed loop for `--seconds` after a warm-up, teardown, and the replay
/// check.
pub fn slice(args: &Args) -> Result<Slice, String> {
    let t = Instant::now();
    let (daemon, mut clients, failed, _) = setup(args)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut p = warm_up(&daemon, &mut clients, args.seed);
    phase(
        &mut p,
        &daemon,
        &mut clients,
        args.seed,
        args.seconds,
        false,
    );
    let peak_rss_kib = procfs::status_kib(daemon.pid(), "VmHWM");
    drop(clients);
    let teardown = daemon.shutdown()?;
    let mismatches = verify(&p.served, false).mismatches;
    let mut notes: Vec<String> = p
        .errors
        .iter()
        .take(5)
        .map(|e| format!("error: {e}"))
        .collect();
    notes.push(summary(&p, setup_s, teardown.errors));
    Ok(Slice {
        setup_s,
        attempted: RESIDENTS + p.served.len() as u64 + p.failed,
        failed: failed + p.failed + mismatches + teardown.errors,
        rounds: p.served.iter().map(|s| s.status.0).sum(),
        settled: p.served.len() as u64,
        peak_rss_kib,
        timeline: p.timeline,
        notes,
    })
}

fn summary(p: &Phase, setup_s: f64, daemon_errors: u64) -> String {
    format!(
        "set-up {setup_s:.3} s; {} sessions settled in time ({} served in all), {} requests, \
         {} migrated, daemon errors {daemon_errors}",
        p.sessions_in_time,
        p.served.len(),
        p.requests,
        p.snap_bytes.len()
    )
}

/// A traced run: one daemon, half the time untraced and half traced, so
/// the difference between the halves is the tracing overhead; then the
/// per-layer metrics.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let (daemon, mut clients, failed, rss_per_resident) = setup(args)?;
    let setup_s = t.elapsed().as_secs_f64();
    let (mut plain, mut p) = (warm_up(&daemon, &mut clients, args.seed), Phase::default());
    let half = args.seconds / 2.0;
    phase(&mut plain, &daemon, &mut clients, args.seed, half, false);
    phase(
        &mut p,
        &daemon,
        &mut clients,
        args.seed.wrapping_add(1),
        half,
        true,
    );
    drop(clients);
    let teardown = daemon.shutdown()?;
    let replay = verify(&p.served, true);
    let plain_mismatches = verify(&plain.served, false).mismatches;
    for e in p.errors.iter().chain(&plain.errors).take(5) {
        out.note(format!("error: {e}"));
    }
    out.note(summary(&p, setup_s, teardown.errors));
    out.attempted =
        RESIDENTS + (p.served.len() + plain.served.len()) as u64 + p.failed + plain.failed;
    out.failed =
        failed + p.failed + plain.failed + replay.mismatches + plain_mismatches + teardown.errors;
    out.trace_overhead(&plain.timeline, &p.timeline);

    // Wire: encode and decode the sampled frame mix in this process.
    let (enc_ns, dec_ns) = wire_timings(&p.frames);
    out.layer("serve.wire.encode_ns_per_frame", enc_ns, "ns");
    out.layer("serve.wire.decode_ns_per_frame", dec_ns, "ns");
    let per = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
    out.layer(
        "serve.session.build_us",
        per(replay.build_ns, replay.builds),
        "us",
    );
    out.layer(
        "serve.session.drive_us_per_quantum",
        per(replay.drive_ns, replay.quanta),
        "us",
    );
    out.layer("snap.save_us", per(replay.save_ns, replay.saves), "us");
    out.layer(
        "snap.restore_us",
        per(replay.restore_ns, replay.saves),
        "us",
    );
    out.layer(
        "snap.bytes_mean",
        ratio(replay.snap_bytes as f64, replay.saves as f64),
        "bytes",
    );
    let req = p.requests as f64;
    let drive_p50 = percentile(&p.rtt_us[1], 0.5);
    let (shard_us, conn_us) = (
        ratio(p.shard_ns as f64 / 1e3, req),
        ratio(p.conn_ns as f64 / 1e3, req),
    );
    out.layer("serve.shard_cpu_us_per_req", shard_us, "us");
    out.layer("serve.conn_cpu_us_per_req", conn_us, "us");
    out.layer("serve.accept_cpu_ms", p.accept_ns as f64 / 1e6, "ms");
    out.layer(
        "serve.wait_us_per_req",
        drive_p50 - shard_us - conn_us,
        "us",
    );
    out.layer("serve.daemon.requests", teardown.requests as f64, "count");
    out.layer("serve.daemon.errors", teardown.errors as f64, "count");
    out.layer("serve.rss_kib_per_resident", rss_per_resident, "KiB");
    out.layer(
        "serve.client.cpu_us_per_req",
        ratio(p.client_thread_ns as f64 / 1e3, req),
        "us",
    );
    for (k, (_, name)) in KINDS.iter().enumerate() {
        out.layer(
            &format!("serve.rtt_us_p50.{name}"),
            percentile(&p.rtt_us[k], 0.5),
            "us",
        );
    }
    out.layer(
        "par.worker_cpu_ms_per_op",
        ratio(p.pool_ns as f64 / 1e6, p.served.len() as f64),
        "ms",
    );
    Ok(out)
}

/// Mean ns to encode, and to decode, one frame of `frames`, over enough
/// passes to run for about 200 ms each.
fn wire_timings(frames: &[Frame]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let bodies: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let time = |f: &dyn Fn() -> usize| {
        let (mut n, start) = (0u64, Instant::now());
        while start.elapsed() < Duration::from_millis(200) {
            n += std::hint::black_box(f()) as u64;
        }
        start.elapsed().as_nanos() as f64 / n as f64
    };
    let enc = time(&|| {
        frames
            .iter()
            .map(|f| std::hint::black_box(f.encode()).len().min(1))
            .sum()
    });
    let dec = time(&|| bodies.iter().filter(|b| Frame::decode(b).is_ok()).count());
    (enc, dec)
}
