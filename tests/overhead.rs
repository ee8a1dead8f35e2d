//! Experiments E3 and E4 — the *price* of universality.
//!
//! E3: password-locked servers force any enumeration-based user to pay a
//! cost that doubles with the password length, while the informed user's
//! cost is flat ("the overhead introduced by the enumeration is essentially
//! necessary", §3).
//!
//! E4: the compact universal user's settling time grows with the index of
//! the viable strategy in the enumeration (quadratically under triangular
//! re-enumeration); the classic Levin schedule grows like 2^i.

use goc::core::enumeration::SliceEnumerator;
use goc::core::sensing::Deadline;
use goc::core::toy;
use goc::core::wrappers::PasswordLocked;
use goc::prelude::*;

/// A user that sends a candidate password, then the magic word.
#[derive(Debug)]
struct PasswordThenSpeak {
    password: Vec<u8>,
    sent_password: bool,
    halt: Option<goc::core::strategy::Halt>,
}

impl PasswordThenSpeak {
    fn new(password: Vec<u8>) -> Self {
        PasswordThenSpeak { password, sent_password: false, halt: None }
    }
}

impl goc::core::strategy::UserStrategy for PasswordThenSpeak {
    fn step(&mut self, _ctx: &mut StepCtx<'_>, input: &UserIn) -> UserOut {
        if self.halt.is_some() {
            return UserOut::silence();
        }
        if input.from_world.as_bytes() == toy::ACK.as_bytes() {
            self.halt = Some(goc::core::strategy::Halt::empty());
            return UserOut::silence();
        }
        if !self.sent_password {
            self.sent_password = true;
            UserOut::to_server(Message::from_bytes(self.password.clone()))
        } else {
            UserOut::to_server(Message::from("open"))
        }
    }

    fn halted(&self) -> Option<goc::core::strategy::Halt> {
        self.halt.clone()
    }
}

fn password_class(k: u32) -> SliceEnumerator {
    let mut class = SliceEnumerator::new(format!("pw(2^{k})"));
    for candidate in 0..(1u64 << k) {
        class.push(move || {
            Box::new(PasswordThenSpeak::new(
                format!("{candidate:0width$b}", width = k as usize).into_bytes(),
            ))
        });
    }
    class
}

fn rounds_to_open(k: u32, informed: bool) -> u64 {
    let goal = toy::MagicWordGoal::new("open");
    let secret = format!("{:0width$b}", (1u64 << k) - 1, width = k as usize);
    let user: BoxedUser = if informed {
        Box::new(PasswordThenSpeak::new(secret.clone().into_bytes()))
    } else {
        Box::new(LevinUniversalUser::round_robin(
            Box::new(password_class(k)),
            Box::new(toy::ack_sensing()),
            6,
        ))
    };
    let mut rng = GocRng::seed_from_u64(k as u64);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(PasswordLocked::new(Box::new(toy::RelayServer::default()), secret)),
        user,
        rng,
    );
    let t = exec.run(1_000_000);
    let v = evaluate_finite(&goal, &t);
    assert!(v.achieved, "k={k} informed={informed}: {v:?}");
    v.rounds
}

#[test]
fn e3_password_cost_doubles_per_bit_for_universal_user() {
    let mut prev = None;
    for k in 2..=8u32 {
        let cost = rounds_to_open(k, false);
        if let Some(prev) = prev {
            assert!(
                cost as f64 >= 1.6 * prev as f64,
                "k={k}: cost {cost} did not ~double from {prev}"
            );
            assert!(
                cost as f64 <= 3.0 * prev as f64,
                "k={k}: cost {cost} grew faster than 2^k from {prev}"
            );
        }
        prev = Some(cost);
    }
}

#[test]
fn e3_informed_user_cost_is_flat() {
    let costs: Vec<u64> = (2..=8u32).map(|k| rounds_to_open(k, true)).collect();
    let max = *costs.iter().max().unwrap();
    let min = *costs.iter().min().unwrap();
    assert!(max <= min + 2, "informed cost should be flat: {costs:?}");
    assert!(max < 10);
}

#[test]
fn e4_compact_settling_grows_with_strategy_index() {
    // Compact magic-word goal: the viable strategy is planted at index i of
    // a class where all other members are useless. Settling round grows
    // with i (quadratically, due to triangular re-enumeration).
    let settle = |i: usize, n: usize| -> u64 {
        let mut class = SliceEnumerator::new("planted");
        for j in 0..n {
            if j == i {
                class.push(|| Box::new(toy::SayThrough::persistent("hi")));
            } else {
                class.push(|| Box::new(goc::core::strategy::SilentUser));
            }
        }
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let user = CompactUniversalUser::new(
            Box::new(class),
            Box::new(Deadline::new(toy::ack_sensing(), 8)),
        );
        let mut rng = GocRng::seed_from_u64(i as u64);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::default()),
            Box::new(user),
            rng,
        )
        .recording();
        let t = exec.run_for(60_000);
        let v = evaluate_compact(&goal, &t);
        assert!(v.achieved(6_000), "index {i}: {v:?}");
        v.last_bad_prefix.unwrap_or(0)
    };

    let n = 24;
    let early = settle(1, n);
    let mid = settle(8, n);
    let late = settle(20, n);
    assert!(early < mid, "settling must grow with index: {early} !< {mid}");
    assert!(mid < late, "settling must grow with index: {mid} !< {late}");
}

#[test]
fn e4_levin_cost_grows_exponentially_with_index() {
    let cost = |shift: u8| -> u64 {
        let goal = toy::MagicWordGoal::new("hi");
        let user = LevinUniversalUser::new(
            Box::new(toy::caesar_class("hi", 16, false)),
            Box::new(toy::ack_sensing()),
            8,
        );
        let mut rng = GocRng::seed_from_u64(shift as u64);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::with_shift(shift)),
            Box::new(user),
            rng,
        );
        let t = exec.run(2_000_000);
        let v = evaluate_finite(&goal, &t);
        assert!(v.achieved);
        v.rounds
    };
    let c2 = cost(2);
    let c6 = cost(6);
    let c10 = cost(10);
    assert!(c6 >= 4 * c2, "Levin overhead must grow ~2^i: {c2} -> {c6}");
    assert!(c10 >= 4 * c6, "Levin overhead must grow ~2^i: {c6} -> {c10}");
}
