//! Deterministic experiment runners shared by the `goc-testkit` timing
//! benches and the `goc-report` table generator.

use goc_core::channel::Noisy;
use goc_core::enumeration::SliceEnumerator;
use goc_core::harness::{compact_success, finite_success, SuccessReport};
use goc_core::prelude::*;
use goc_core::sensing::Deadline;
use goc_core::toy;
use goc_core::universal::Schedule;
use goc_core::wrappers::PasswordLocked;
use goc_goals::codec::Encoding;
use goc_goals::computation as comp;
use goc_goals::printing as print;
use goc_goals::transmission as trans;
use goc_learning as learn;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// E1 — Theorem 1, compact case (printing goal, dialect class)
// ---------------------------------------------------------------------------

/// The E1 dialect class (12 dialects: 3 opcodes × 4 encodings).
pub fn e1_dialects() -> Vec<print::Dialect> {
    print::Dialect::class(&[0x11, 0x22, 0x33], &Encoding::family(&[0x5a], &[3]))
}

/// Runs the compact universal user against dialect `idx`; returns
/// `(settled, last_bad_prefix, switches_observed_as_bad_prefixes)`.
pub fn e1_settle(idx: usize, horizon: u64) -> (bool, u64) {
    let dialects = e1_dialects();
    let goal = print::CompactPrintGoal::new("manifesto", 64);
    let user = CompactUniversalUser::new(
        Box::new(print::dialect_class("manifesto", &dialects, true)),
        Box::new(Deadline::new(print::tray_sensing("manifesto"), 24)),
    );
    let mut rng = GocRng::seed_from_u64(100 + idx as u64);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(print::DriverServer::new(dialects[idx].clone())),
        Box::new(user),
        rng,
    );
    let t = exec.run_for(horizon);
    let v = evaluate_compact(&goal, &t);
    (v.achieved(horizon / 10), v.last_bad_prefix.unwrap_or(0))
}

// ---------------------------------------------------------------------------
// E2 — Theorem 1, finite case (delegation goal, protocol class)
// ---------------------------------------------------------------------------

/// The E2 protocol class (8 protocols: 2 greetings × 4 encodings).
pub fn e2_protocols() -> Vec<comp::QueryProtocol> {
    comp::QueryProtocol::class(b"?!", &Encoding::family(&[0x2a], &[5]))
}

fn e2_puzzle() -> Arc<dyn comp::Puzzle + Send + Sync> {
    Arc::new(comp::ModSquareRoot::new(10007))
}

/// Rounds for the finite universal user to solve delegation against
/// protocol `idx` (`classic`: Levin 2^i weighting; else round-robin).
pub fn e2_rounds(idx: usize, classic: bool) -> u64 {
    let protocols = e2_protocols();
    let goal = comp::DelegationGoal::new(e2_puzzle());
    let class = comp::protocol_class(&protocols, e2_puzzle());
    let user = if classic {
        LevinUniversalUser::new(Box::new(class), Box::new(comp::confirmation_sensing()), 8)
    } else {
        LevinUniversalUser::round_robin(
            Box::new(class),
            Box::new(comp::confirmation_sensing()),
            8,
        )
    };
    let mut rng = GocRng::seed_from_u64(200 + idx as u64);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(comp::OracleServer::new(protocols[idx])),
        Box::new(user),
        rng,
    );
    let t = exec.run(5_000_000);
    let v = evaluate_finite(&goal, &t);
    assert!(v.achieved, "E2 idx {idx} classic={classic}: {v:?}");
    v.rounds
}

/// Multi-trial E2 workload for the parallel harness: `trials` independent
/// delegation runs of the classic Levin user against protocol `idx`,
/// aggregated by [`finite_success`]. Wrap in
/// [`goc_core::par::with_thread_count`] to pick the worker count; the report
/// is bit-identical for every choice.
pub fn e2_report(idx: usize, trials: u32) -> SuccessReport {
    let protocols = e2_protocols();
    let goal = comp::DelegationGoal::new(e2_puzzle());
    let server = move || Box::new(comp::OracleServer::new(protocols[idx])) as BoxedServer;
    let user = || {
        Box::new(LevinUniversalUser::new(
            Box::new(comp::protocol_class(&e2_protocols(), e2_puzzle())),
            Box::new(comp::confirmation_sensing()),
            8,
        )) as BoxedUser
    };
    let report = finite_success(&goal, &server, &user, trials, 5_000_000, 210 + idx as u64);
    assert!(report.always(), "E2 report idx {idx}: {report:?}");
    report
}

// ---------------------------------------------------------------------------
// E3 — necessity of overhead (password-locked servers)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct PasswordThenSpeak {
    password: Vec<u8>,
    sent: bool,
    halt: Option<Halt>,
}

impl UserStrategy for PasswordThenSpeak {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        if self.halt.is_some() {
            return UserOut::silence();
        }
        if input.from_world.as_bytes() == toy::ACK.as_bytes() {
            self.halt = Some(Halt::empty());
            return UserOut::silence();
        }
        if !self.sent {
            self.sent = true;
            UserOut::to_server(Message::from_bytes(self.password.clone()))
        } else {
            UserOut::to_server(Message::from("open"))
        }
    }

    fn halted(&self) -> Option<Halt> {
        self.halt.clone()
    }
}

fn password_class(k: u32) -> SliceEnumerator {
    let mut class = SliceEnumerator::new(format!("pw(2^{k})"));
    for candidate in 0..(1u64 << k) {
        class.push(move || {
            Box::new(PasswordThenSpeak {
                password: format!("{candidate:0width$b}", width = k as usize).into_bytes(),
                sent: false,
                halt: None,
            })
        });
    }
    class
}

/// Rounds to success against a k-bit password lock (adversarial password),
/// for the informed user (`informed = true`) or the universal enumerator.
pub fn e3_rounds(k: u32, informed: bool) -> u64 {
    let goal = toy::MagicWordGoal::new("open");
    let secret = format!("{:0width$b}", (1u64 << k) - 1, width = k as usize);
    let user: BoxedUser = if informed {
        Box::new(PasswordThenSpeak { password: secret.clone().into_bytes(), sent: false, halt: None })
    } else {
        Box::new(LevinUniversalUser::round_robin(
            Box::new(password_class(k)),
            Box::new(toy::ack_sensing()),
            6,
        ))
    };
    let mut rng = GocRng::seed_from_u64(300 + k as u64);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(PasswordLocked::new(Box::new(toy::RelayServer::default()), secret)),
        user,
        rng,
    );
    let t = exec.run(50_000_000);
    let v = evaluate_finite(&goal, &t);
    assert!(v.achieved, "E3 k={k} informed={informed}: {v:?}");
    v.rounds
}

// ---------------------------------------------------------------------------
// E4 — enumeration overhead vs strategy index
// ---------------------------------------------------------------------------

/// Compact case: settle round with the viable strategy planted at `idx` of
/// an `n`-strategy class (all others useless).
pub fn e4_compact_settle(idx: usize, n: usize) -> u64 {
    let mut class = SliceEnumerator::new("planted");
    for j in 0..n {
        if j == idx {
            class.push(|| Box::new(toy::SayThrough::persistent("hi")));
        } else {
            class.push(|| Box::new(goc_core::strategy::SilentUser));
        }
    }
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let user = CompactUniversalUser::new(
        Box::new(class),
        Box::new(Deadline::new(toy::ack_sensing(), 8)),
    );
    let mut rng = GocRng::seed_from_u64(400 + idx as u64);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(user),
        rng,
    );
    let t = exec.run_for(120_000);
    let v = evaluate_compact(&goal, &t);
    assert!(v.achieved(12_000), "E4 idx {idx}: {v:?}");
    v.last_bad_prefix.unwrap_or(0)
}

/// Finite case: rounds for the classic Levin user when the compatible
/// candidate sits at index `shift` of a 16-strategy Caesar class.
pub fn e4_levin_rounds(shift: u8) -> u64 {
    let goal = toy::MagicWordGoal::new("hi");
    let user = LevinUniversalUser::new(
        Box::new(toy::caesar_class("hi", 16, false)),
        Box::new(toy::ack_sensing()),
        8,
    );
    let mut rng = GocRng::seed_from_u64(500 + shift as u64);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(shift)),
        Box::new(user),
        rng,
    );
    let t = exec.run(5_000_000);
    let v = evaluate_finite(&goal, &t);
    assert!(v.achieved, "E4/Levin shift {shift}: {v:?}");
    v.rounds
}

/// Multi-trial E4 compact workload for the parallel harness: `trials`
/// independent planted-class runs aggregated by [`compact_success`]. Wrap in
/// [`goc_core::par::with_thread_count`] to pick the worker count.
pub fn e4_compact_report(idx: usize, n: usize, trials: u32) -> SuccessReport {
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let server = || Box::new(toy::RelayServer::default()) as BoxedServer;
    let user = move || {
        let mut class = SliceEnumerator::new("planted");
        for j in 0..n {
            if j == idx {
                class.push(|| Box::new(toy::SayThrough::persistent("hi")));
            } else {
                class.push(|| Box::new(goc_core::strategy::SilentUser));
            }
        }
        Box::new(CompactUniversalUser::new(
            Box::new(class),
            Box::new(Deadline::new(toy::ack_sensing(), 8)),
        )) as BoxedUser
    };
    let report =
        compact_success(&goal, &server, &user, trials, 120_000, 12_000, 410 + idx as u64);
    assert!(report.always(), "E4 report idx {idx}: {report:?}");
    report
}

/// Compact universal user over the **deduped VM program class**, whose
/// triangular schedule re-runs every earlier candidate. Returns the settle
/// round.
pub fn e4_vm_compact_settle() -> u64 {
    use goc_vm::enumerate::ProgramEnumerator;
    // Alphabet: the bytes of `emit.a 'h'` plus `end` — the viable program
    // ("say h to the peer every round") sits a handful of dedup
    // representatives in, so the triangular schedule revisits everything
    // before it many times.
    let class = ProgramEnumerator::over(vec![0x01, b'h', 0x0f]).with_max_len(3).deduped();
    let goal = toy::CompactMagicWordGoal::new("h", 16);
    let user = CompactUniversalUser::new(
        Box::new(class),
        Box::new(Deadline::new(toy::ack_sensing(), 8)),
    );
    let mut rng = GocRng::seed_from_u64(420);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(user),
        rng,
    );
    let t = exec.run_for(20_000);
    let v = evaluate_compact(&goal, &t);
    assert!(v.achieved(2_000), "E4/VM compact: {v:?}");
    v.last_bad_prefix.unwrap_or(0)
}

// ---------------------------------------------------------------------------
// E5 — sensing ablations (qualitative; see tests/sensing_ablation.rs)
// ---------------------------------------------------------------------------

/// Returns `(halted, achieved)` when the finite universal user runs with
/// deliberately broken sensing against a silent server.
pub fn e5_unsafe_sensing_outcome() -> (bool, bool) {
    let goal = toy::MagicWordGoal::new("hi");
    let user = LevinUniversalUser::new(
        Box::new(toy::caesar_class("hi", 8, false)),
        Box::new(goc_core::sensing::AlwaysPositive),
        8,
    );
    let mut rng = GocRng::seed_from_u64(600);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(goc_core::strategy::SilentServer),
        Box::new(user),
        rng,
    );
    let t = exec.run(1_000);
    let v = evaluate_finite(&goal, &t);
    (v.halted, v.achieved)
}

// ---------------------------------------------------------------------------
// E6 — universality tracks helpfulness
// ---------------------------------------------------------------------------

/// Runs the finite universal user against a labelled server pool; returns
/// `(name, expected_helpful, achieved, falsely_halted)` per server.
pub fn e6_boundary() -> Vec<(&'static str, bool, bool, bool)> {
    use goc_core::strategy::{EchoServer, SilentServer};
    use goc_core::wrappers::{Delayed, Lossy};
    let goal = toy::MagicWordGoal::new("hi");
    type ServerFactory = Box<dyn Fn() -> BoxedServer>;
    let pool: Vec<(&'static str, ServerFactory, bool)> = vec![
        ("relay+0", Box::new(|| Box::new(toy::RelayServer::default()) as BoxedServer), true),
        ("relay+5", Box::new(|| Box::new(toy::RelayServer::with_shift(5)) as BoxedServer), true),
        (
            "delayed relay+2",
            Box::new(|| {
                Box::new(Delayed::new(Box::new(toy::RelayServer::with_shift(2)), 3)) as BoxedServer
            }),
            true,
        ),
        ("silent", Box::new(|| Box::new(SilentServer) as BoxedServer), false),
        ("echo", Box::new(|| Box::new(EchoServer) as BoxedServer), false),
        (
            "lossy(1.0) relay",
            Box::new(|| {
                Box::new(Lossy::new(Box::new(toy::RelayServer::default()), 1.0)) as BoxedServer
            }),
            false,
        ),
    ];
    let mut rows = Vec::new();
    for (name, factory, expected) in pool {
        let user = LevinUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, false)),
            Box::new(toy::ack_sensing()),
            8,
        );
        let mut rng = GocRng::seed_from_u64(600 + rows.len() as u64);
        let mut exec =
            Execution::new(goal.spawn_world(&mut rng), factory(), Box::new(user), rng);
        let t = exec.run(100_000);
        let v = evaluate_finite(&goal, &t);
        rows.push((name, expected, v.achieved, v.halted && !v.achieved));
    }
    rows
}

// ---------------------------------------------------------------------------
// E10 — forgivingness necessity
// ---------------------------------------------------------------------------

/// `(universal_achieved_on_fragile, informed_achieved_on_fragile)` for the
/// unforgiving magic-word goal with a shift-3 server.
pub fn e10_fragile() -> (bool, bool) {
    let goal = toy::FragileWordGoal::new("hi");
    let run = |user: BoxedUser, seed: u64| -> bool {
        let mut rng = GocRng::seed_from_u64(seed);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(3)),
            user,
            rng,
        );
        let t = exec.run(100_000);
        evaluate_finite(&goal, &t).achieved
    };
    let universal = run(
        Box::new(LevinUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, false)),
            Box::new(toy::ack_sensing()),
            8,
        )),
        1_001,
    );
    let informed = run(Box::new(toy::SayThrough::compensating("hi", 3)), 1_002);
    (universal, informed)
}

// ---------------------------------------------------------------------------
// E7 — multi-session mistakes: enumeration vs halving
// ---------------------------------------------------------------------------

/// `(enumeration_mistakes, halving_mistakes)` for a transform class of size
/// `n` with the adversarial concept at the last index.
pub fn e7_mistakes(n: usize) -> (u64, u64) {
    let class = learn::TransformClass::new(
        (0..n).map(|i| trans::Transform::Table(700 + i as u64)).collect(),
    );
    let mut e = learn::EnumerationPolicy::new(n);
    let re = learn::run_arena(
        &class,
        n - 1,
        &mut e,
        (4 * n).max(64) as u64,
        4,
        &mut GocRng::seed_from_u64(701),
    );
    let mut h = learn::HalvingPolicy::new(n);
    let rh = learn::run_arena(
        &class,
        n - 1,
        &mut h,
        (4 * n).max(64) as u64,
        4,
        &mut GocRng::seed_from_u64(702),
    );
    assert!(re.converged() && rh.converged(), "E7 n={n}");
    (re.mistakes, rh.mistakes)
}

/// `(enumeration_mistakes, halving_mistakes)` on the structured
/// **threshold** class, where hypotheses overlap heavily: halving's
/// mistakes track log2 N (each mistake shrinks the version space), while
/// enumeration still pays per wrong hypothesis.
pub fn e7_threshold_mistakes(n: usize) -> (u64, u64) {
    let class = learn::ThresholdClass::evenly_spaced(n);
    let mut e = learn::EnumerationPolicy::new(n);
    let re = learn::run_arena(
        &class,
        n - 1,
        &mut e,
        (8 * n).max(512) as u64,
        1,
        &mut GocRng::seed_from_u64(711),
    );
    let mut h = learn::HalvingPolicy::new(n);
    let rh = learn::run_arena(
        &class,
        n - 1,
        &mut h,
        (8 * n).max(512) as u64,
        1,
        &mut GocRng::seed_from_u64(712),
    );
    assert!(re.converged() && rh.converged(), "E7/threshold n={n}");
    (re.mistakes, rh.mistakes)
}

/// Same game bridged into the real simulator (echo feedback only).
pub fn e7_bridge_mistakes(n: usize) -> (u64, u64) {
    let class = learn::TransformClass::new(
        (0..n).map(|i| trans::Transform::Table(800 + i as u64)).collect(),
    );
    let mut e = learn::EnumerationPolicy::new(n);
    let be = learn::run_bridge(&class, n - 1, &mut e, (4 * n) as u64, 4, &mut GocRng::seed_from_u64(801));
    let mut h = learn::HalvingPolicy::new(n);
    let bh = learn::run_bridge(&class, n - 1, &mut h, (4 * n) as u64, 4, &mut GocRng::seed_from_u64(802));
    (be.mistakes, bh.mistakes)
}

// ---------------------------------------------------------------------------
// E8 — design ablations
// ---------------------------------------------------------------------------

/// Triangular vs linear schedule under impatient sensing (timeout below the
/// ack round-trip): returns `(triangular_bad_prefixes, linear_bad_prefixes)`
/// — linear strands, triangular keeps recovering.
pub fn e8_schedule_ablation() -> (u64, u64) {
    let run = |schedule: Schedule| {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let user = CompactUniversalUser::with_schedule(
            Box::new(toy::caesar_class("hi", 4, true)),
            Box::new(Deadline::new(toy::ack_sensing(), 2)),
            schedule,
        );
        let mut rng = GocRng::seed_from_u64(810);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(1)),
            Box::new(user),
            rng,
        );
        let t = exec.run_for(3_000);
        evaluate_compact(&goal, &t).bad_prefixes
    };
    (run(Schedule::triangular(Some(4))), run(Schedule::linear(Some(4))))
}

/// Patience sweep: settle round of the compact universal user with the
/// deadline timeout set to `timeout` (trade-off: too small = spurious
/// switches; too large = slow abandonment).
pub fn e8_patience_settle(timeout: u64) -> Option<u64> {
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let user = CompactUniversalUser::new(
        Box::new(toy::caesar_class("hi", 8, true)),
        Box::new(Deadline::new(toy::ack_sensing(), timeout)),
    );
    let mut rng = GocRng::seed_from_u64(820);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(6)),
        Box::new(user),
        rng,
    );
    let t = exec.run_for(20_000);
    let v = evaluate_compact(&goal, &t);
    if v.achieved(2_000) {
        Some(v.last_bad_prefix.unwrap_or(0))
    } else {
        None
    }
}

/// Multi-trial E8 patience workload for the parallel harness: `trials`
/// independent patience-sweep runs aggregated by [`compact_success`]. Wrap
/// in [`goc_core::par::with_thread_count`] to pick the worker count.
pub fn e8_patience_report(timeout: u64, trials: u32) -> SuccessReport {
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let server = || Box::new(toy::RelayServer::with_shift(6)) as BoxedServer;
    let user = move || {
        Box::new(CompactUniversalUser::new(
            Box::new(toy::caesar_class("hi", 8, true)),
            Box::new(Deadline::new(toy::ack_sensing(), timeout)),
        )) as BoxedUser
    };
    compact_success(&goal, &server, &user, trials, 20_000, 2_000, 830 + timeout)
}

// ---------------------------------------------------------------------------
// E11 — quality of achievement (scored goals)
// ---------------------------------------------------------------------------

/// Mean transmission quality (fraction of challenges delivered in time) at
/// `horizon` rounds for three users against the same deep-in-class pipe:
/// `(informed, probing_learner, enumeration_universal)`.
pub fn e11_transmission_quality(horizon: u64) -> (f64, f64, f64) {
    use goc_core::score::score_pairing;
    let family = trans::Transform::family(&[0x0f, 0xf0], &[1, 7], &[41, 42]);
    let goal = trans::TransmissionGoal::new(3, 40, 20);
    let hidden = family[5].clone();

    let h = hidden.clone();
    let informed = score_pairing(
        &goal,
        &{
            let h = hidden.clone();
            move || Box::new(trans::PipeServer::new(h.clone())) as BoxedServer
        },
        &move || Box::new(trans::EncoderUser::new(h.clone())) as BoxedUser,
        3,
        horizon,
        1100,
    );
    let learner = score_pairing(
        &goal,
        &{
            let h = hidden.clone();
            move || Box::new(trans::PipeServer::new(h.clone())) as BoxedServer
        },
        &|| Box::new(trans::ProbingUser::new()) as BoxedUser,
        3,
        horizon,
        1101,
    );
    let fam = family.clone();
    let universal = score_pairing(
        &goal,
        &{
            let h = hidden.clone();
            move || Box::new(trans::PipeServer::new(h.clone())) as BoxedServer
        },
        &move || {
            Box::new(CompactUniversalUser::new(
                Box::new(trans::transform_class(&fam)),
                Box::new(Deadline::new(trans::ok_sensing(), 45)),
            )) as BoxedUser
        },
        3,
        horizon,
        1102,
    );
    (informed.mean(), learner.mean(), universal.mean())
}

// ---------------------------------------------------------------------------
// E9 — substrate throughput
// ---------------------------------------------------------------------------

/// Runs a plain (user, server, world) execution for `rounds` rounds;
/// returns the final round count (for use under a timing harness).
pub fn e9_exec_rounds(rounds: u64) -> u64 {
    let goal = toy::CompactMagicWordGoal::new("hi", 16);
    let mut rng = GocRng::seed_from_u64(900);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(toy::SayThrough::persistent("hi")),
        rng,
    );
    let t = exec.run_for(rounds);
    t.rounds
}

/// Runs a VM machine for `rounds` rounds on a busy program; returns the
/// number of instructions retired.
pub fn e9_vm_instructions(rounds: u64) -> u64 {
    use goc_vm::{Machine, Program, RoundIo};
    let program = Program::from_bytes({
        // A busy loop: inc + emit + jump back, bounded by fuel each round.
        let mut code = Vec::new();
        goc_vm::Instr::Inc(goc_vm::Reg::new(0)).encode(&mut code);
        goc_vm::Instr::EmitAReg(goc_vm::Reg::new(0)).encode(&mut code);
        goc_vm::Instr::Jmp(-4).encode(&mut code);
        code
    });
    let mut m = Machine::with_fuel(program, 256);
    for _ in 0..rounds {
        let mut io = RoundIo::default();
        m.round(&mut io);
    }
    m.instructions_retired()
}

/// Fuel per round for the E16 burner arm: the budget the `levin_vm_cold`
/// workload gives its candidates.
pub const E16_BURNER_FUEL: u32 = 4_096;

/// Runs a VM machine for `rounds` rounds on the pure burner `jmp +0` at
/// [`E16_BURNER_FUEL`]; returns the number of instructions retired. Unlike
/// [`e9_vm_instructions`]'s loop this is a pure-jump cycle, so the table
/// core retires each round in one step while the `match` loop walks every
/// `jmp`.
pub fn e16_vm_burner_instructions(rounds: u64) -> u64 {
    use goc_vm::{Instr, Machine, Program, RoundIo};
    let mut m = Machine::with_fuel(Program::assemble(&[Instr::Jmp(0)]), E16_BURNER_FUEL);
    for _ in 0..rounds {
        let mut io = RoundIo::default();
        m.round(&mut io);
    }
    m.instructions_retired()
}

// ---------------------------------------------------------------------------
// E12 — noise sweep: conquest under an adversarial channel
// ---------------------------------------------------------------------------

/// The drop-probability levels (in percent) swept by E12.
pub fn e12_noise_levels(quick: bool) -> Vec<u64> {
    if quick {
        vec![0, 20, 50]
    } else {
        vec![0, 10, 20, 30, 50, 70, 90]
    }
}

/// One finite-universal run against a shift-3 relay with `drop_pct`% i.i.d.
/// loss on BOTH directions of the user↔server link. Returns
/// `(achieved, rounds)`. Sensing reads the world's ACK, which never crosses
/// the faulted link — so noise can only slow conquest, never fake it.
pub fn e12_noise_outcome(drop_pct: u64, horizon: u64) -> (bool, u64) {
    let goal = toy::MagicWordGoal::new("hi");
    let user = LevinUniversalUser::round_robin(
        Box::new(toy::caesar_class("hi", 8, false)),
        Box::new(toy::ack_sensing()),
        16,
    );
    let p = drop_pct as f64 / 100.0;
    let mut rng = GocRng::seed_from_u64(1200 + drop_pct);
    let mut exec = Execution::with_channels(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(3)),
        Box::new(user),
        rng,
        Box::new(Noisy::drops(p)),
        Box::new(Noisy::drops(p)),
    );
    let t = exec.run(horizon);
    let v = evaluate_finite(&goal, &t);
    (v.achieved, v.rounds)
}

/// One finite-universal run through a total outage of `burst_len` rounds
/// starting at round 0 on both directions. Returns `(achieved, rounds)`;
/// the finite schedule bounds the loss, so conquest is mandatory and the
/// rounds measure pure recovery cost.
pub fn e12_burst_outcome(burst_len: u64, horizon: u64) -> (bool, u64) {
    let goal = toy::MagicWordGoal::new("hi");
    let user = LevinUniversalUser::round_robin(
        Box::new(toy::caesar_class("hi", 8, false)),
        Box::new(toy::ack_sensing()),
        16,
    );
    let schedule = FaultSchedule::single(0, Fault::Burst { len: burst_len });
    let mut rng = GocRng::seed_from_u64(1250);
    let mut exec = Execution::with_channels(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::with_shift(3)),
        Box::new(user),
        rng,
        Box::new(Scheduled::new(schedule.clone())),
        Box::new(Scheduled::new(schedule)),
    );
    let t = exec.run(horizon);
    let v = evaluate_finite(&goal, &t);
    (v.achieved, v.rounds)
}

// ---------------------------------------------------------------------------
// E13 — zero-copy round loop: the shipped settle path and the message pool
// ---------------------------------------------------------------------------

/// The E13 document: long enough (> `goc_core::buf::INLINE_CAP`) that every
/// hot-path message — the framed job, the driver's decoded job, the tray
/// report — spills to the heap, so buffer pooling is actually on the line.
/// (E1's short document stays inline and would measure nothing.)
pub const E13_DOCUMENT: &str = "zero-copy-manifesto-0123456789-abcdefghijklmnop";

/// Rounds per steady-state batch. Each round retires two spilled messages
/// into the recorded view; they return to the thread-local pool when
/// [`Execution::reset_history`] drops the batch, so the batch must keep at
/// most `POOL_CAP = 256` spills in flight for the next batch to be served
/// entirely from the pool.
pub const E13_STEADY_BATCH: u64 = 128;

/// One E13 conquest: the compact universal user settles on dialect `idx`
/// of the E1 class. Returns the settle round (last bad prefix).
///
/// Judged through the borrowing [`TranscriptView`] path — the run never
/// clones its history.
pub fn e13_settle(idx: usize, horizon: u64) -> u64 {
    let dialects = e1_dialects();
    let goal = print::CompactPrintGoal::new(E13_DOCUMENT, 64);
    let user = CompactUniversalUser::new(
        Box::new(print::dialect_class(E13_DOCUMENT, &dialects, true)),
        Box::new(Deadline::new(print::tray_sensing(E13_DOCUMENT), 24)),
    );
    let mut rng = GocRng::seed_from_u64(1300 + idx as u64);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(print::DriverServer::new(dialects[idx].clone())),
        Box::new(user),
        rng,
    );
    exec.reserve_rounds(horizon);
    for _ in 0..horizon {
        exec.step();
    }
    let v = evaluate_compact_view(&goal, exec.transcript_view());
    assert!(v.achieved(horizon / 10), "E13 idx {idx}: {v:?}");
    v.last_bad_prefix.unwrap_or(0)
}

/// All 12 dialects conquered via [`goc_core::par::par_map`]; returns the
/// settle rounds in dialect order. Trials are independent and
/// order-preserved, so the vector is bit-identical for every `GOC_THREADS`.
pub fn e13_settle12(horizon: u64) -> Vec<u64> {
    let n = e1_dialects().len();
    goc_core::par::par_map(n, |idx| e13_settle(idx, horizon))
}

/// A warmed steady-state printing system: an informed persistent user
/// resubmitting [`E13_DOCUMENT`] every round against its own dialect's
/// driver. Once warm, a [`batch`](SteadyLoop::batch) performs zero heap
/// allocations when the pool is on — the property the `count-allocs` bench
/// gate enforces.
pub struct SteadyLoop {
    exec: Execution<print::PrinterWorld>,
}

impl SteadyLoop {
    /// Builds the system and runs one warmup batch (fills scratch buffers,
    /// history capacity and the message pool).
    pub fn new() -> Self {
        let dialect = e1_dialects().remove(0);
        let goal = print::CompactPrintGoal::new(E13_DOCUMENT, 64);
        let user = print::PrintingUser::persistent(E13_DOCUMENT, dialect.clone())
            .with_resubmit_every(1);
        let mut rng = GocRng::seed_from_u64(1390);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(print::DriverServer::new(dialect)),
            Box::new(user),
            rng,
        );
        exec.reserve_rounds(2 * E13_STEADY_BATCH);
        let mut steady = SteadyLoop { exec };
        // Two warmup batches: the first grows scratch capacities and puts
        // buffers into circulation, but leaves the pool a few spills below
        // its equilibrium level (batch boundaries keep one round's messages
        // in flight); the second tops the level up, after which a batch is
        // served entirely from the pool.
        steady.step_batch();
        steady.step_batch();
        steady
    }

    /// Runs one batch of [`E13_STEADY_BATCH`] rounds, then resets the
    /// recorded history (returning the batch's spilled buffers to the
    /// pool). Returns the world's total page count, so the optimiser
    /// cannot elide the loop.
    pub fn step_batch(&mut self) -> u64 {
        for _ in 0..E13_STEADY_BATCH {
            self.exec.step();
        }
        let pages =
            self.exec.transcript_view().world_states.last().map(|s| s.total_pages).unwrap_or(0);
        self.exec.reset_history();
        pages
    }

    /// [`step_batch`](Self::step_batch) driven through [`Execution::run_for`]: the
    /// returned transcript shares the recorded history, so reading its last
    /// world state, dropping it and resetting the history stays
    /// allocation-free. A `run_for` that copied the history would show up
    /// as allocations per batch.
    pub fn run_batch(&mut self) -> u64 {
        let t = self.exec.run_for(E13_STEADY_BATCH);
        let pages = t.world_states.last().map(|s| s.total_pages).unwrap_or(0);
        drop(t);
        self.exec.reset_history();
        pages
    }
}

impl Default for SteadyLoop {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// E16 — predecoded scalar core: fast-vs-spec settle over a VM class
// ---------------------------------------------------------------------------

/// Horizon for the VM settle runs (the winning program settles well before
/// this).
pub const LEVIN_VM_HORIZON: u64 = 100_000;

/// Per-round fuel for the VM settle candidates. High enough that the
/// `jmp`-spinning burner programs scheduled before the winner dominate the
/// run with VM interpretation work.
pub const LEVIN_VM_FUEL: u32 = 8_192;

/// The E16 settle workload: one finite-Levin conquest over a small
/// VM-program class (alphabet `{jmp, emit.a, 'h'}`, length ≤ 3).
///
/// The class plants `[emit.a 'h']` a few indices behind several programs
/// that decode to self-jumps and burn their full fuel every round, so the
/// run's cost is VM dispatch, not harness bookkeeping. Callers pin the
/// interpreter core ([`goc_vm::dispatch::with_dispatch`]) around this.
fn levin_vm_settle_workload(seed: u64) -> u64 {
    let class = goc_vm::ProgramEnumerator::over(vec![0x0b, 0x01, b'h'])
        .with_max_len(3)
        .with_fuel(LEVIN_VM_FUEL);
    let goal = toy::MagicWordGoal::new("h");
    let user = LevinUniversalUser::new(Box::new(class), Box::new(toy::ack_sensing()), 8);
    let mut rng = GocRng::seed_from_u64(seed);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(toy::RelayServer::default()),
        Box::new(user),
        rng,
    );
    let t = exec.run(LEVIN_VM_HORIZON);
    let v = evaluate_finite(&goal, &t);
    assert!(v.achieved, "levin VM settle (seed={seed}): {v:?}");
    v.rounds
}

/// E16: the settle workload with every candidate round on the predecoded
/// fast core (`true`) or the `round_match` spec (`false`); returns
/// the settle round. The two cores must settle on the identical round
/// (`goc-report` asserts parity); the E16 bench times the same pair.
pub fn e16_levin_dispatch_settle(table: bool) -> u64 {
    goc_vm::dispatch::with_dispatch(table, || levin_vm_settle_workload(1_600))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_settles_for_first_and_last_dialect() {
        let (ok0, _) = e1_settle(0, 20_000);
        let n = e1_dialects().len();
        let (ok_last, settle_last) = e1_settle(n - 1, 40_000);
        assert!(ok0 && ok_last);
        assert!(settle_last > 0);
    }

    #[test]
    fn e2_round_robin_beats_classic_on_deep_protocols() {
        let classic = e2_rounds(7, true);
        let rr = e2_rounds(7, false);
        assert!(rr < classic, "rr {rr} !< classic {classic}");
    }

    #[test]
    fn e3_doubles() {
        let a = e3_rounds(3, false);
        let b = e3_rounds(4, false);
        assert!(b as f64 >= 1.6 * a as f64);
        assert!(e3_rounds(4, true) < 10);
    }

    #[test]
    fn e4_grows() {
        assert!(e4_compact_settle(2, 16) < e4_compact_settle(12, 16));
        assert!(e4_levin_rounds(8) > 4 * e4_levin_rounds(4));
    }

    #[test]
    fn e5_shape() {
        let (halted, achieved) = e5_unsafe_sensing_outcome();
        assert!(halted && !achieved);
    }

    #[test]
    fn e6_and_e10_shapes() {
        for (name, expected, achieved, false_halt) in e6_boundary() {
            assert_eq!(achieved, expected, "{name}");
            assert!(!false_halt, "{name}");
        }
        let (universal, informed) = e10_fragile();
        assert!(!universal && informed);
    }

    #[test]
    fn e7_shapes() {
        let (e, h) = e7_mistakes(32);
        assert_eq!(e, 31);
        assert!(h <= 6);
        let (be, bh) = e7_bridge_mistakes(8);
        assert_eq!(be, 7);
        assert!(bh <= 4);
    }

    #[test]
    fn e8_shapes() {
        let (tri, lin) = e8_schedule_ablation();
        assert!(tri <= lin);
        // Moderate patience settles; both extremes are worse or fail.
        assert!(e8_patience_settle(8).is_some());
    }

    #[test]
    fn e11_quality_ordering() {
        let (informed, learner, universal) = e11_transmission_quality(3_000);
        assert!(informed > 0.9);
        assert!(learner > universal, "learner {learner} vs universal {universal}");
        assert!(universal > 0.0);
    }

    #[test]
    fn e9_throughput_counts() {
        assert_eq!(e9_exec_rounds(1_000), 1_000);
        assert!(e9_vm_instructions(100) >= 100 * 250);
    }

    #[test]
    fn parallel_reports_match_sequential_reports() {
        use goc_core::par::with_thread_count;
        let seq = with_thread_count(1, || e4_compact_report(8, 24, 4));
        let par = with_thread_count(4, || e4_compact_report(8, 24, 4));
        assert_eq!(seq, par);
        let seq = with_thread_count(1, || e8_patience_report(8, 4));
        let par = with_thread_count(4, || e8_patience_report(8, 4));
        assert_eq!(seq, par);
    }

    #[test]
    fn e12_noise_slows_but_never_stops_conquest() {
        let (clean_ok, clean_rounds) = e12_noise_outcome(0, 100_000);
        let (noisy_ok, noisy_rounds) = e12_noise_outcome(50, 100_000);
        assert!(clean_ok && noisy_ok);
        assert!(noisy_rounds >= clean_rounds, "{noisy_rounds} < {clean_rounds}");
        let (burst_ok, burst_rounds) = e12_burst_outcome(200, 100_000);
        assert!(burst_ok && burst_rounds > 200, "outage must delay past its own length");
    }

    #[test]
    fn e13_settle12_is_thread_count_invariant() {
        use goc_core::par::with_thread_count;
        let seq = with_thread_count(1, || e13_settle12(8_000));
        let par = with_thread_count(4, || e13_settle12(8_000));
        assert_eq!(seq, par);
        assert_eq!(seq.len(), e1_dialects().len());
        assert!(seq[3] > 0, "dialect 3 is not first: settling takes switches");
    }

    #[test]
    fn e13_steady_batches_are_served_by_the_pool() {
        goc_core::buf::with_pool(true, || {
            let mut steady = SteadyLoop::new();
            goc_core::buf::reset_pool_stats();
            let before = steady.step_batch();
            let after = steady.step_batch();
            assert!(after > before, "the printer must keep printing");
            let stats = goc_core::buf::pool_stats();
            assert!(
                stats.misses == 0 && stats.hits > 0,
                "warm steady batches must never allocate a spill: {stats:?}"
            );
        });
    }

    #[test]
    fn e13_document_spills() {
        assert!(E13_DOCUMENT.len() > goc_core::buf::INLINE_CAP);
        let msg = Message::from_bytes(E13_DOCUMENT);
        assert!(msg.len() > goc_core::buf::INLINE_CAP);
    }

    #[test]
    fn e4_vm_compact_settles() {
        let settle = e4_vm_compact_settle();
        assert!(settle > 0, "the viable program is not at index 0: settling takes switches");
    }
}
