//! Loopback round trips: a networked session must settle **byte-identically**
//! to the in-process `Execution` it suspends — across TCP and Unix sockets,
//! across thread counts, across a snapshot migration between daemons, and
//! in the presence of hostile bytes and chaos faults on the wire.

use goc_core::par::with_thread_count;
use goc_serve::chaos::{ChaosSpec, FrameChaos};
use goc_serve::daemon::{self, Addr, DaemonOpts, Stream};
use goc_serve::session::{session_seed, Session};
use goc_serve::wire::{self, Frame};
use goc_serve::Client;
use goc_testkit::{check, gens, CaseError};

fn start_daemon(addr: Addr) -> daemon::DaemonHandle {
    let mut opts = DaemonOpts::new(addr);
    opts.shards = 4;
    opts.quiet = true;
    daemon::start(opts).expect("daemon binds")
}

fn tcp_daemon() -> daemon::DaemonHandle {
    start_daemon(Addr::parse("tcp:127.0.0.1:0").unwrap())
}

/// Drives `(scenario, seed)` against a daemon in `quantum`-round slices
/// to `horizon`, returning the outcome triple.
fn settle_over_socket(
    client: &mut Client,
    session: u64,
    scenario: &str,
    seed: u64,
    quantum: u64,
    horizon: u64,
) -> (u64, bool, u64) {
    let mut status = client.open(session, scenario, seed).expect("open");
    let stop_on_halt = scenario == "magic";
    loop {
        let (round, halted, _) = status;
        if round >= horizon || (stop_on_halt && halted) {
            break;
        }
        // Clamp the final slice: the in-process reference stops exactly at
        // `horizon`, so the socket arm must not overshoot it.
        let rounds = quantum.min(horizon - round).max(1);
        status = client.drive(session, rounds).expect("drive");
    }
    client.close(session).expect("close");
    status
}

/// The reference: the same session run entirely in this process.
fn settle_in_process(scenario: &str, seed: u64, horizon: u64) -> (u64, bool, u64) {
    let mut s = Session::build(scenario, seed).expect("known scenario");
    s.step_to(horizon);
    (s.round(), s.halted(), s.heard())
}

/// TCP round trip: networked settle equals the in-process settle, with the
/// in-process arm computed at both one and four worker threads — the
/// network boundary and the thread count are both observationally inert.
#[test]
fn tcp_settle_matches_in_process_at_1_and_4_threads() {
    let handle = tcp_daemon();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (i, scenario) in ["magic", "magic-compact"].iter().enumerate() {
        let seed = session_seed(9, i as u64);
        let over_socket = settle_over_socket(&mut client, i as u64, scenario, seed, 64, 256);
        let at_one = with_thread_count(1, || settle_in_process(scenario, seed, 256));
        let at_four = with_thread_count(4, || settle_in_process(scenario, seed, 256));
        assert_eq!(over_socket, at_one, "{scenario}: socket vs 1-thread in-process");
        assert_eq!(over_socket, at_four, "{scenario}: socket vs 4-thread in-process");
    }
    client.shutdown().expect("shutdown");
    let stats = handle.wait();
    assert_eq!(stats.opened, 2);
    assert_eq!(stats.closed, 2);
    assert_eq!(stats.errors, 0);
    assert_eq!((stats.accept_errors, stats.spawn_failures), (0, 0));
}

/// The same identity over a Unix-domain socket.
#[test]
fn unix_settle_matches_in_process() {
    let path = std::env::temp_dir().join(format!("goc-loopback-{}.sock", std::process::id()));
    let handle = start_daemon(Addr::Unix(path.clone()));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let seed = session_seed(11, 0);
    let over_socket = settle_over_socket(&mut client, 0, "magic", seed, 32, 256);
    assert_eq!(over_socket, settle_in_process("magic", seed, 256));
    client.shutdown().expect("shutdown");
    handle.wait();
    assert!(!path.exists(), "daemon teardown removes its socket file");
}

/// Property: for random seeds and quanta, the networked settle equals the
/// in-process settle. Quantum slicing composes because the halt check runs
/// every round on both sides.
#[test]
fn settle_identity_is_seed_and_quantum_independent() {
    let handle = tcp_daemon();
    let addr = handle.addr().clone();
    check(
        "loopback_settle_identity",
        gens::tuple3(gens::any_u64(), gens::u64_in(1, 96), gens::u64_in(0, 1)),
        move |&(seed, quantum, which): &(u64, u64, u64)| {
            let scenario = if which == 0 { "magic" } else { "magic-compact" };
            let mut client = Client::connect(&addr).map_err(|e| CaseError::fail(e.to_string()))?;
            let over_socket = settle_over_socket(&mut client, seed, scenario, seed, quantum, 192);
            let in_process = settle_in_process(scenario, seed, 192);
            if over_socket != in_process {
                return Err(CaseError::fail(format!(
                    "{scenario} seed {seed} quantum {quantum}: {over_socket:?} != {in_process:?}"
                )));
            }
            Ok(())
        },
    );
    handle.stop();
    let stats = handle.wait();
    assert_eq!(stats.errors, 0);
}

/// A session snapshotted over the wire from one daemon restores into a
/// *different* daemon and settles exactly like an unmigrated run.
#[test]
fn snapshot_migrates_across_daemons() {
    let seed = session_seed(13, 1);
    let first = tcp_daemon();
    let mut c1 = Client::connect(first.addr()).expect("connect first");
    c1.open(1, "magic-compact", seed).expect("open");
    c1.drive(1, 100).expect("drive");
    let snap = c1.snap(1).expect("snap over the wire");
    c1.shutdown().expect("shutdown first");
    first.wait();

    let second = tcp_daemon();
    let mut c2 = Client::connect(second.addr()).expect("connect second");
    let restored = c2.restore(1, "magic-compact", seed, snap).expect("restore");
    assert_eq!(restored.0, 100, "restored session resumes at its checkpoint round");
    let mut status = restored;
    while status.0 < 256 {
        status = c2.drive(1, 64.min(256 - status.0)).expect("drive restored");
    }
    assert_eq!(status, settle_in_process("magic-compact", seed, 256));
    c2.shutdown().expect("shutdown second");
    second.wait();
}

/// `Open` or `Restore` on an id that is already resident is refused with an
/// `Error` and leaves the live session untouched: it still settles exactly
/// like an undisturbed run.
#[test]
fn open_and_restore_refuse_a_live_session_id() {
    let handle = tcp_daemon();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let seed = session_seed(19, 7);
    client.open(7, "magic-compact", seed).expect("open");
    client.drive(7, 64).expect("drive");
    let snap = client.snap(7).expect("snap");
    let clobbers = [
        Frame::Open { session: 7, scenario: "magic".to_string(), seed: 1 },
        Frame::Restore { session: 7, scenario: "magic-compact".to_string(), seed, snap },
    ];
    for frame in &clobbers {
        match client.request(frame).expect("reply") {
            Frame::Error { session: 7, message } => {
                assert!(message.contains("already open"), "unexpected message {message:?}")
            }
            other => panic!("a live id must be refused, got {other:?}"),
        }
    }
    let status = client.drive(7, 192).expect("drive on");
    assert_eq!(status, settle_in_process("magic-compact", seed, 256));
    client.shutdown().expect("shutdown");
    let stats = handle.wait();
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.errors, 2);
}

/// Hostile bytes on a live connection: garbage frames earn `Error` replies
/// and the daemon keeps serving the *same* connection afterwards.
#[test]
fn garbage_frames_get_error_replies_and_service_continues() {
    let handle = tcp_daemon();
    let mut stream = Stream::connect(handle.addr()).expect("connect");
    wire::write_handshake(&mut stream).expect("handshake out");
    wire::read_handshake(&mut stream).expect("handshake in");
    for junk in [vec![0u8; 1], vec![0xEE; 40], (0..=255u8).collect::<Vec<_>>()] {
        wire::write_frame_body(&mut stream, &junk).expect("send junk");
        match wire::read_frame(&mut stream).expect("survive junk") {
            Frame::Error { session: 0, .. } => {}
            other => panic!("junk must earn an Error reply, got {other:?}"),
        }
    }
    // The stream is still in sync: a real session works.
    wire::write_frame(
        &mut stream,
        &Frame::Open { session: 4, scenario: "magic".to_string(), seed: 4 },
    )
    .expect("send open");
    match wire::read_frame(&mut stream).expect("open reply") {
        Frame::Status { session: 4, .. } => {}
        other => panic!("expected Status, got {other:?}"),
    }
    handle.stop();
    let stats = handle.wait();
    assert_eq!(stats.errors, 3);
    assert_eq!(stats.opened, 1);
}

/// A hostile declared *stream* length (beyond `MAX_FRAME`) earns a final
/// `Error` reply and a hangup, never an allocation.
#[test]
fn oversized_frame_declaration_is_refused() {
    let handle = tcp_daemon();
    let mut stream = Stream::connect(handle.addr()).expect("connect");
    wire::write_handshake(&mut stream).expect("handshake out");
    wire::read_handshake(&mut stream).expect("handshake in");
    use std::io::Write as _;
    stream.write_all(&u32::MAX.to_le_bytes()).expect("hostile length");
    stream.flush().expect("flush");
    match wire::read_frame(&mut stream).expect("error reply before hangup") {
        Frame::Error { session: 0, message } => {
            assert!(message.contains("MAX_FRAME"), "unexpected message {message:?}")
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // The daemon hung up on us; the next read sees a closed stream.
    assert!(wire::read_frame(&mut stream).is_err());
    handle.stop();
    handle.wait();
}

/// Chaos middleware on the socket path: with a deterministic fault stream,
/// the client can mirror the daemon's chaos state and predict exactly
/// which requests are dropped (no reply), which are corrupted (an `Error`
/// or a misdirected request), and which get through — and the daemon
/// survives all of it with the session settling to the true outcome.
#[test]
fn chaos_faults_compose_onto_the_socket_path() {
    let spec = ChaosSpec { drop_p: 0.25, corrupt_p: 0.25, seed: 99 };
    let mut opts = DaemonOpts::new(Addr::parse("tcp:127.0.0.1:0").unwrap());
    opts.shards = 2;
    opts.chaos = Some(spec);
    opts.quiet = true;
    let handle = daemon::start(opts).expect("daemon binds");

    let mut stream = Stream::connect(handle.addr()).expect("connect");
    wire::write_handshake(&mut stream).expect("handshake out");
    wire::read_handshake(&mut stream).expect("handshake in");
    // This is the daemon's first connection, so its fault stream is
    // FrameChaos::new(spec, 1); mirroring it makes every drop/corrupt
    // decision predictable.
    let mut mirror = FrameChaos::new(&spec, 1);

    let seed = session_seed(17, 3);
    let horizon = 128;
    // Sends `frame`, consuming mirrored chaos; returns the predicted
    // fate: None = dropped (no reply), Some(decodes) = a reply is owed.
    let mut send_through_chaos = |stream: &mut Stream, frame: &Frame| -> Option<bool> {
        let body = frame.encode();
        wire::write_frame_body(stream, &body).expect("send");
        let predicted = mirror.apply(body)?;
        match Frame::decode(&predicted) {
            Ok(Frame::Shutdown) => {
                panic!("seed 99 corrupts a frame into Shutdown; pick another seed")
            }
            Ok(_) => Some(true),
            Err(_) => Some(false),
        }
    };

    let mut opened = false;
    let mut retries = 0u32;
    let status = loop {
        let frame = if !opened {
            Frame::Open { session: 8, scenario: "magic-compact".to_string(), seed }
        } else {
            Frame::Drive { session: 8, rounds: 16 }
        };
        match send_through_chaos(&mut stream, &frame) {
            None => {} // dropped in the "network": resend
            Some(_) => match wire::read_frame(&mut stream).expect("predicted reply") {
                Frame::Status { session: 8, round, halted, heard } => {
                    opened = true;
                    if round >= horizon {
                        break (round, halted, heard);
                    }
                }
                Frame::Error { .. } => {} // corrupted request: resend
                other => panic!("unexpected reply {other:?}"),
            },
        }
        retries += 1;
        assert!(retries < 10_000, "chaos session never settled");
    };
    assert_eq!(
        status,
        settle_in_process("magic-compact", seed, horizon),
        "a lossy, corrupting network must not change what the session settles to"
    );
    handle.stop();
    let stats = handle.wait();
    assert!(stats.chaos_dropped > 0, "drop_p 0.25 over {retries} sends never dropped");
}

/// Teardown discipline: `wait` completes (shards joined) even when
/// sessions are left open, and an externally triggered
/// `stop` is equivalent to a client `Shutdown`.
#[test]
fn teardown_drains_with_sessions_left_open() {
    let handle = tcp_daemon();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for id in 0..6u64 {
        client.open(id, "magic", session_seed(23, id)).expect("open");
        client.drive(id, 32).expect("drive");
    }
    // No Close, no client Shutdown: stop from outside, sessions still live.
    handle.stop();
    let stats = handle.wait();
    assert_eq!(stats.opened, 6);
    assert_eq!(stats.closed, 0);
    assert_eq!(stats.errors, 0);
}

/// Byte offset of the next-window record — `Some`, a count of 8, then eight
/// `(index, budget)` pairs — in a `magic` snapshot whose Levin user is in
/// its first pass, where that window is slots 8..16 at budget 8.
fn window_record_offset(snap: &[u8]) -> usize {
    let mut record = vec![1u8];
    record.extend_from_slice(&8u64.to_le_bytes());
    for index in 8..16u64 {
        record.extend_from_slice(&index.to_le_bytes());
        record.extend_from_slice(&8u64.to_le_bytes());
    }
    let mut hits = (0..snap.len()).filter(|&at| snap[at..].starts_with(&record));
    let at = hits.next().expect("snapshot records the next window");
    assert!(hits.next().is_none(), "the next-window record is unique");
    at
}

/// A client cannot take down a shard: `Restore` of a `magic` snapshot whose
/// next schedule window names a candidate outside the class is refused, and
/// a `Drive` of that id finds no session. Another session on the same shard
/// keeps running and settles to its in-process outcome.
#[test]
fn corrupt_restore_cannot_kill_a_neighbouring_session() {
    let handle = tcp_daemon(); // 4 shards: ids 0 and 4 share shard 0
    let seed_a = session_seed(31, 0);
    let mut a = Client::connect(handle.addr()).expect("connect A");
    a.open(0, "magic-compact", seed_a).expect("open A");
    a.drive(0, 64).expect("drive A");

    // Seed 0 relays at shift 15, so its Levin user is still switching, and
    // would refill from the next window, long after round 40.
    let mut victim = Session::build("magic", 0).expect("known scenario");
    victim.step_to(40);
    assert!(!victim.halted());
    let mut snap = victim.save_to_vec().expect("snapshot");
    let first_index = window_record_offset(&snap) + 1 + 8;
    snap[first_index + 7] ^= 0x80; // top bit of the first index

    let mut attacker = Stream::connect(handle.addr()).expect("connect attacker");
    if let Stream::Tcp(s) = &attacker {
        s.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("timeout");
    }
    wire::write_handshake(&mut attacker).expect("handshake out");
    wire::read_handshake(&mut attacker).expect("handshake in");
    let mut attack = |frame: Frame| {
        wire::write_frame(&mut attacker, &frame).expect("send");
        wire::read_frame(&mut attacker).ok()
    };
    let restored =
        attack(Frame::Restore { session: 4, scenario: "magic".to_string(), seed: 0, snap });
    let driven = attack(Frame::Drive { session: 4, rounds: 256 });

    let settled = a.drive(0, 192).expect("session A survives");
    assert_eq!(settled, settle_in_process("magic-compact", seed_a, 256));
    assert!(matches!(restored, Some(Frame::Error { session: 4, .. })), "restore: {restored:?}");
    assert!(matches!(driven, Some(Frame::Error { session: 4, .. })), "drive: {driven:?}");
    a.shutdown().expect("shutdown");
    let stats = handle.wait();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.errors, 2);
}
