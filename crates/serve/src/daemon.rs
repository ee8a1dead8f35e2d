//! The `goc-serve` daemon: a shard-per-core session host over real sockets.
//!
//! ## Shard model
//!
//! Sessions are partitioned by `session_id % nshards`; each shard is one
//! thread owning a `HashMap<u64, Session>` and a work queue. Per-connection
//! reader threads do the blocking socket reads, run the chaos middleware,
//! decode frames totally, and dispatch each request to its shard's queue;
//! shards execute requests in arrival order and write replies through the
//! originating connection's mutex-guarded writer. Because a session id
//! always maps to the same shard, per-session request order is preserved
//! even though many sessions multiplex over one connection — while distinct
//! sessions proceed in parallel across shards.
//!
//! ## Teardown
//!
//! A [`Frame::Shutdown`] (or [`DaemonHandle::stop`]) flips the shutdown
//! flag, wakes the acceptor with a loopback connect, sends every shard a
//! stop marker, and joins the shard threads. Executions queue no background
//! work, so once the shards are joined nothing is left running.

use crate::chaos::{ChaosSpec, FrameChaos};
use crate::session::Session;
use crate::wire::{
    self, read_frame_body, write_frame, Frame, WireError,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A listen/connect address: `tcp:HOST:PORT` or `unix:PATH`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    /// TCP socket address, e.g. `tcp:127.0.0.1:4700` (port 0 binds an
    /// ephemeral port; the resolved address is reported back).
    Tcp(String),
    /// Unix-domain socket path, e.g. `unix:/tmp/goc.sock`.
    Unix(PathBuf),
}

impl Addr {
    /// Parses `tcp:HOST:PORT` / `unix:PATH`.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            Ok(Addr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            Ok(Addr::Unix(PathBuf::from(rest)))
        } else {
            Err(format!("address `{s}` must start with tcp: or unix:"))
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected socket of either family.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `addr`. TCP connections disable Nagle's algorithm:
    /// the protocol is small request/reply frames, exactly the traffic
    /// pattern delayed ACKs + Nagle stall by ~40ms per round trip.
    pub fn connect(addr: &Addr) -> std::io::Result<Stream> {
        match addr {
            Addr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Addr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
        }
    }

    /// An independent handle to the same connection.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true); // see Stream::connect
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// The reply side of one connection: shards on different threads serialize
/// their frame writes through this mutex so replies never interleave
/// mid-frame.
struct ConnWriter {
    stream: Mutex<Stream>,
}

impl ConnWriter {
    fn send(&self, frame: &Frame) -> Result<(), WireError> {
        let mut guard = self.stream.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        write_frame(&mut *guard, frame)
    }
}

/// One unit of shard work: a decoded request plus where to send the reply.
enum ShardMsg {
    Request { conn: Arc<ConnWriter>, frame: Frame },
    Stop,
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonOpts {
    /// Where to listen.
    pub addr: Addr,
    /// Number of session shards (threads). 0 means one per core.
    pub shards: usize,
    /// Optional fault injection on the inbound frame path.
    pub chaos: Option<ChaosSpec>,
    /// Suppress the teardown stats line.
    pub quiet: bool,
}

impl DaemonOpts {
    /// Defaults: one shard per core, no chaos.
    pub fn new(addr: Addr) -> DaemonOpts {
        DaemonOpts { addr, shards: 0, chaos: None, quiet: false }
    }
}

/// Counters reported at teardown. All monotone, so the totals are
/// deterministic for a deterministic client schedule even though the
/// interleaving is not.
#[derive(Debug, Default)]
pub struct Stats {
    /// Sessions opened (Open + Restore).
    pub opened: AtomicU64,
    /// Sessions closed by request.
    pub closed: AtomicU64,
    /// Requests executed by shards.
    pub requests: AtomicU64,
    /// Error replies sent (decode failures, unknown sessions, panics).
    pub errors: AtomicU64,
    /// Requests that panicked in a shard; each evicted its session.
    pub panics: AtomicU64,
    /// Frames dropped by the chaos middleware.
    pub chaos_dropped: AtomicU64,
    /// Failed `accept` calls (each followed by a backoff pause, 1 ms doubling
    /// to 100 ms).
    pub accept_errors: AtomicU64,
    /// Accepted connections dropped because their thread failed to spawn.
    pub spawn_failures: AtomicU64,
}

impl Stats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            opened: self.opened.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            chaos_dropped: self.chaos_dropped.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            spawn_failures: self.spawn_failures.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`Stats`], returned from [`DaemonHandle::wait`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions opened (Open + Restore).
    pub opened: u64,
    /// Sessions closed by request.
    pub closed: u64,
    /// Requests executed by shards.
    pub requests: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Requests that panicked in a shard.
    pub panics: u64,
    /// Frames dropped by the chaos middleware.
    pub chaos_dropped: u64,
    /// Failed `accept` calls.
    pub accept_errors: u64,
    /// Accepted connections dropped because their thread failed to spawn.
    pub spawn_failures: u64,
}

/// A running daemon: resolved address plus the join/stop surface.
pub struct DaemonHandle {
    addr: Addr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Stats>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    shard_txs: Vec<Sender<ShardMsg>>,
    quiet: bool,
}

impl DaemonHandle {
    /// The resolved listen address (ephemeral TCP ports filled in).
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// The daemon's counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Requests shutdown from outside a connection (tests, signal
    /// handlers). Idempotent; `wait` still performs the teardown.
    pub fn stop(&self) {
        trigger_shutdown(&self.shutdown, &self.addr);
    }

    /// Blocks until the daemon has shut down, then joins the shards.
    /// Returns the final stats.
    pub fn wait(mut self) -> StatsSnapshot {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The acceptor is down: no new connections, no new shard work from
        // it. Stop markers flush behind any requests already queued.
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Stop);
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        if let Addr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        let stats = self.stats.snapshot();
        if !self.quiet {
            eprintln!(
                "goc-serve: {} opened, {} closed, {} requests, {} errors, {} chaos-dropped",
                stats.opened, stats.closed, stats.requests, stats.errors, stats.chaos_dropped,
            );
        }
        stats
    }
}

/// Wakes a blocking `accept` so the acceptor thread can observe the
/// shutdown flag: flip the flag, then make one throwaway connection.
fn trigger_shutdown(flag: &AtomicBool, addr: &Addr) {
    if flag.swap(true, Ordering::SeqCst) {
        return; // already triggered; the wake-up connect already happened
    }
    let _ = Stream::connect(addr);
}

/// First pause after a failed `accept`.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Longest pause between failed `accept`s.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// The pause after a failed `accept`, given the previous pause (`None` when
/// the last `accept` succeeded): 1 ms, doubling to a 100 ms cap. A lasting
/// error such as `EMFILE` then wakes the acceptor at most ten times a second
/// instead of spinning it.
fn accept_backoff(prev: Option<Duration>) -> Duration {
    match prev {
        None => ACCEPT_BACKOFF_MIN,
        Some(d) => (d * 2).min(ACCEPT_BACKOFF_MAX),
    }
}

/// Binds, spawns the shards and the acceptor, and returns immediately.
pub fn start(opts: DaemonOpts) -> std::io::Result<DaemonHandle> {
    let listener = match &opts.addr {
        Addr::Tcp(a) => Listener::Tcp(TcpListener::bind(a)?),
        Addr::Unix(p) => {
            // A stale socket file from a dead daemon would fail the bind.
            let _ = std::fs::remove_file(p);
            Listener::Unix(UnixListener::bind(p)?)
        }
    };
    // Report the *resolved* address so `tcp:127.0.0.1:0` is connectable.
    let addr = match (&opts.addr, &listener) {
        (Addr::Tcp(_), Listener::Tcp(l)) => Addr::Tcp(l.local_addr()?.to_string()),
        _ => opts.addr.clone(),
    };

    let nshards = if opts.shards == 0 {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    } else {
        opts.shards
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(Stats::default());

    let mut shard_txs = Vec::with_capacity(nshards);
    let mut shard_threads = Vec::with_capacity(nshards);
    for shard_index in 0..nshards {
        let (tx, rx) = channel::<ShardMsg>();
        let stats = Arc::clone(&stats);
        let thread = std::thread::Builder::new()
            .name(format!("goc-shard-{shard_index}"))
            .spawn(move || {
                let mut sessions: HashMap<u64, Session> = HashMap::new();
                while let Ok(msg) = rx.recv() {
                    match msg {
                        ShardMsg::Stop => break,
                        ShardMsg::Request { conn, frame } => {
                            stats.requests.fetch_add(1, Ordering::Relaxed);
                            let session = frame.session().unwrap_or(0);
                            let reply = isolate(&mut sessions, session, &stats, |sessions| {
                                handle_request(sessions, frame, &stats)
                            });
                            // A peer that vanished mid-reply is its own
                            // problem; the shard keeps serving others.
                            let _ = conn.send(&reply);
                        }
                    }
                }
            })
            .expect("spawn shard thread");
        shard_txs.push(tx);
        shard_threads.push(thread);
    }

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        let shard_txs = shard_txs.clone();
        let chaos = opts.chaos;
        let accept_addr = addr.clone();
        Some(
            std::thread::Builder::new()
                .name("goc-accept".to_string())
                .spawn(move || {
                    let mut conn_index = 0u64;
                    let mut backoff = None;
                    loop {
                        let stream = match listener.accept() {
                            Ok(s) => s,
                            Err(_) if shutdown.load(Ordering::SeqCst) => break,
                            Err(_) => {
                                stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                                let pause = accept_backoff(backoff);
                                backoff = Some(pause);
                                std::thread::sleep(pause);
                                continue;
                            }
                        };
                        backoff = None;
                        if shutdown.load(Ordering::SeqCst) {
                            break; // the wake-up connect, or a late client
                        }
                        conn_index += 1;
                        let shard_txs = shard_txs.clone();
                        let shutdown = Arc::clone(&shutdown);
                        let chaos = chaos.as_ref().map(|c| FrameChaos::new(c, conn_index));
                        let accept_addr = accept_addr.clone();
                        let conn_stats = Arc::clone(&stats);
                        let spawned = std::thread::Builder::new()
                            .name(format!("goc-conn-{conn_index}"))
                            .spawn(move || {
                                serve_connection(
                                    stream, shard_txs, shutdown, accept_addr, conn_stats, chaos,
                                );
                            });
                        // The closure, and with it the stream, is dropped:
                        // the peer sees the connection close.
                        if spawned.is_err() {
                            stats.spawn_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
                .expect("spawn accept thread"),
        )
    };

    Ok(DaemonHandle {
        addr,
        shutdown,
        stats,
        accept_thread,
        shard_threads,
        shard_txs,
        quiet: opts.quiet,
    })
}

/// One connection's read loop: handshake, then frames until EOF, error,
/// or shutdown. Runs on its own thread so a stalled peer never blocks
/// another connection.
fn serve_connection(
    stream: Stream,
    shard_txs: Vec<Sender<ShardMsg>>,
    shutdown: Arc<AtomicBool>,
    accept_addr: Addr,
    stats: Arc<Stats>,
    mut chaos: Option<FrameChaos>,
) {
    let mut reader = stream;
    let writer = match reader.try_clone() {
        Ok(w) => Arc::new(ConnWriter { stream: Mutex::new(w) }),
        Err(_) => return,
    };
    // Handshake both ways before any frame. A peer that opens with the
    // wrong magic or version is cut off before it can spend shard time.
    if wire::write_handshake(&mut *writer.stream.lock().unwrap_or_else(
        std::sync::PoisonError::into_inner,
    ))
    .is_err()
    {
        return;
    }
    if wire::read_handshake(&mut reader).is_err() {
        return;
    }
    loop {
        let body = match read_frame_body(&mut reader) {
            Ok(b) => b,
            Err(WireError::FrameTooLarge(_)) => {
                // The declared length was hostile; the stream position is
                // unrecoverable, so answer and hang up.
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let _ = writer.send(&Frame::Error {
                    session: 0,
                    message: "frame exceeds MAX_FRAME".to_string(),
                });
                return;
            }
            Err(_) => return, // clean close or broken socket
        };
        let body = match chaos.as_mut() {
            Some(c) => match c.apply(body) {
                Some(b) => b,
                None => {
                    stats.chaos_dropped.fetch_add(1, Ordering::Relaxed);
                    continue; // the request was "lost in the network"
                }
            },
            None => body,
        };
        // Total decode: hostile bytes produce an Error reply, never a
        // panic, and the framing keeps the stream in sync for the next
        // request.
        let frame = match Frame::decode(&body) {
            Ok(f) => f,
            Err(e) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let _ = writer
                    .send(&Frame::Error { session: 0, message: format!("bad frame: {e}") });
                continue;
            }
        };
        match frame {
            Frame::Shutdown => {
                let _ = writer.send(&Frame::Bye);
                trigger_shutdown(&shutdown, &accept_addr);
                return;
            }
            f => {
                let Some(session) = f.session() else {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = writer.send(&Frame::Error {
                        session: 0,
                        message: "unexpected frame direction".to_string(),
                    });
                    continue;
                };
                let shard = (session % shard_txs.len() as u64) as usize;
                if shard_txs[shard]
                    .send(ShardMsg::Request { conn: Arc::clone(&writer), frame: f })
                    .is_err()
                {
                    return; // shards are gone: shutdown won the race
                }
            }
        }
    }
}

/// Runs one request against a shard's session table, containing a panic to
/// that request: the session it names is evicted (its state may be half
/// updated), the panic is counted, and the reply is an `Error`. Every other
/// session on the shard carries on.
fn isolate(
    sessions: &mut HashMap<u64, Session>,
    session: u64,
    stats: &Stats,
    request: impl FnOnce(&mut HashMap<u64, Session>) -> Frame,
) -> Frame {
    match catch_unwind(AssertUnwindSafe(|| request(&mut *sessions))) {
        Ok(reply) => reply,
        Err(_) => {
            sessions.remove(&session);
            stats.panics.fetch_add(1, Ordering::Relaxed);
            stats.errors.fetch_add(1, Ordering::Relaxed);
            Frame::Error { session, message: "request panicked; session evicted".to_string() }
        }
    }
}

/// Executes one decoded request against a shard's session table.
fn handle_request(sessions: &mut HashMap<u64, Session>, frame: Frame, stats: &Stats) -> Frame {
    let err = |session: u64, message: String| {
        stats.errors.fetch_add(1, Ordering::Relaxed);
        Frame::Error { session, message }
    };
    match frame {
        Frame::Open { session, .. } | Frame::Restore { session, .. }
            if sessions.contains_key(&session) =>
        {
            err(session, format!("session {session} already open"))
        }
        Frame::Open { session, scenario, seed } => match Session::build(&scenario, seed) {
            Some(s) => {
                stats.opened.fetch_add(1, Ordering::Relaxed);
                let status = Frame::Status {
                    session,
                    round: s.round(),
                    halted: s.halted(),
                    heard: s.heard(),
                };
                sessions.insert(session, s);
                status
            }
            None => err(session, format!("unknown scenario `{scenario}`")),
        },
        Frame::Drive { session, rounds } => match sessions.get_mut(&session) {
            Some(s) => {
                let (round, halted, heard) = s.drive(rounds);
                Frame::Status { session, round, halted, heard }
            }
            None => err(session, "no such session".to_string()),
        },
        Frame::Snap { session } => match sessions.get(&session) {
            Some(s) => match s.save_to_vec() {
                Ok(snap) => Frame::SnapData { session, snap },
                Err(e) => err(session, format!("snapshot failed: {e}")),
            },
            None => err(session, "no such session".to_string()),
        },
        Frame::Restore { session, scenario, seed, snap } => {
            match Session::build(&scenario, seed) {
                Some(mut s) => match s.restore(&snap) {
                    Ok(()) => {
                        stats.opened.fetch_add(1, Ordering::Relaxed);
                        let status = Frame::Status {
                            session,
                            round: s.round(),
                            halted: s.halted(),
                            heard: s.heard(),
                        };
                        sessions.insert(session, s);
                        status
                    }
                    Err(e) => err(session, format!("restore failed: {e}")),
                },
                None => err(session, format!("unknown scenario `{scenario}`")),
            }
        }
        Frame::Close { session } => {
            if sessions.remove(&session).is_some() {
                stats.closed.fetch_add(1, Ordering::Relaxed);
                Frame::Closed { session }
            } else {
                err(session, "no such session".to_string())
            }
        }
        // Responses arriving as requests (or Shutdown, which the reader
        // handles) are protocol violations.
        other => err(
            other.session().unwrap_or(0),
            "unexpected frame direction".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_from_1ms_to_a_100ms_cap() {
        let mut prev = None;
        let schedule: Vec<u128> = (0..10)
            .map(|_| {
                let pause = accept_backoff(prev);
                prev = Some(pause);
                pause.as_millis()
            })
            .collect();
        assert_eq!(schedule, [1, 2, 4, 8, 16, 32, 64, 100, 100, 100]);
    }

    #[test]
    fn a_panicking_request_evicts_only_its_session() {
        let stats = Stats::default();
        let mut sessions: HashMap<u64, Session> = HashMap::new();
        for id in [1, 2] {
            sessions.insert(id, Session::build("magic", id).expect("known scenario"));
        }
        let reply = isolate(&mut sessions, 1, &stats, |sessions| {
            let _ = sessions.get_mut(&1).expect("resident").drive(8);
            panic!("injected fault");
        });
        assert!(matches!(reply, Frame::Error { session: 1, .. }), "{reply:?}");
        assert!(!sessions.contains_key(&1), "the panicking session is evicted");
        assert!(sessions.contains_key(&2), "its neighbour stays resident");
        let snapshot = stats.snapshot();
        assert_eq!((snapshot.panics, snapshot.errors), (1, 1));

        // A request that does not panic passes its reply through untouched.
        let reply = isolate(&mut sessions, 2, &stats, |sessions| {
            handle_request(sessions, Frame::Drive { session: 2, rounds: 4 }, &stats)
        });
        assert!(matches!(reply, Frame::Status { session: 2, round: 4, .. }), "{reply:?}");
        assert_eq!(stats.snapshot().panics, 1);
    }
}
