//! Transcript rendering and channel statistics — diagnostics for debugging
//! strategies, sensing functions and referees.

use crate::exec::{StopReason, Transcript};
use crate::view::UserView;
use std::fmt::Debug;
use std::fmt::Write as _;

/// Aggregate statistics of the user-visible channels of an execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Rounds observed.
    pub rounds: u64,
    /// Non-silent messages the user sent to the server.
    pub sent_to_server: u64,
    /// Non-silent messages the user sent to the world.
    pub sent_to_world: u64,
    /// Non-silent messages received from the server.
    pub recv_from_server: u64,
    /// Non-silent messages received from the world.
    pub recv_from_world: u64,
    /// Total payload bytes sent by the user.
    pub bytes_sent: u64,
    /// Total payload bytes received by the user.
    pub bytes_received: u64,
    /// Rounds in which the user sent nothing on either channel. Counted
    /// per event, so a round where the user speaks on both channels at
    /// once is still exactly one speaking round.
    pub silent_rounds: u64,
}

impl ChannelStats {
    /// Computes statistics over a user view.
    pub fn of(view: &UserView) -> Self {
        let mut s = ChannelStats { rounds: view.len() as u64, ..Default::default() };
        for ev in view {
            if !ev.sent.to_server.is_silence() {
                s.sent_to_server += 1;
                s.bytes_sent += ev.sent.to_server.len() as u64;
            }
            if !ev.sent.to_world.is_silence() {
                s.sent_to_world += 1;
                s.bytes_sent += ev.sent.to_world.len() as u64;
            }
            if ev.sent.to_server.is_silence() && ev.sent.to_world.is_silence() {
                s.silent_rounds += 1;
            }
            if !ev.received.from_server.is_silence() {
                s.recv_from_server += 1;
                s.bytes_received += ev.received.from_server.len() as u64;
            }
            if !ev.received.from_world.is_silence() {
                s.recv_from_world += 1;
                s.bytes_received += ev.received.from_world.len() as u64;
            }
        }
        s
    }

    /// Fraction of rounds in which the user said nothing at all — exact,
    /// from the per-round [`silent_rounds`](Self::silent_rounds) count.
    pub fn user_silence_rate(&self) -> f64 {
        if self.rounds == 0 {
            return 1.0;
        }
        self.silent_rounds as f64 / self.rounds as f64
    }
}

/// Renders the first `limit` and last `limit` rounds of a transcript as a
/// human-readable table (non-silent channels only).
pub fn render<S: Clone + Debug>(transcript: &Transcript<S>, limit: usize) -> String {
    let mut out = String::new();
    let n = transcript.view().len();
    let _ = writeln!(out, "execution: {} rounds, stop = {}", transcript.rounds, stop_str(&transcript.stop));
    let events: Vec<usize> = if n <= 2 * limit {
        (0..n).collect()
    } else {
        (0..limit).chain(n - limit..n).collect()
    };
    // Rounds outside the window and all-silent rounds inside it are both
    // elided; consecutive elisions of either kind merge into one marker so
    // the printed round numbers never jump without an accounting line.
    let mut last: Option<usize> = None;
    let mut elided: u64 = 0;
    for &i in &events {
        if let Some(prev) = last {
            if i > prev + 1 {
                elided += (i - prev - 1) as u64;
            }
        }
        last = Some(i);
        let ev = &transcript.view().events()[i];
        let mut parts = Vec::new();
        if !ev.received.from_server.is_silence() {
            parts.push(format!("s→u {}", ev.received.from_server));
        }
        if !ev.received.from_world.is_silence() {
            parts.push(format!("w→u {}", ev.received.from_world));
        }
        if !ev.sent.to_server.is_silence() {
            parts.push(format!("u→s {}", ev.sent.to_server));
        }
        if !ev.sent.to_world.is_silence() {
            parts.push(format!("u→w {}", ev.sent.to_world));
        }
        if parts.is_empty() {
            elided += 1;
            continue;
        }
        if elided > 0 {
            let _ = writeln!(out, "  … {elided} rounds elided …");
            elided = 0;
        }
        let _ = writeln!(out, "  r{:>5}: {}", ev.round, parts.join(" | "));
    }
    if elided > 0 {
        let _ = writeln!(out, "  … {elided} rounds elided …");
    }
    out
}

fn stop_str(stop: &StopReason) -> String {
    match stop {
        StopReason::UserHalted(h) => format!("halted({})", h.output),
        StopReason::HorizonExhausted => "horizon".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Execution;
    use crate::goal::Goal;
    use crate::rng::GocRng;
    use crate::toy;

    fn sample_transcript() -> Transcript<toy::MagicState> {
        let goal = toy::MagicWordGoal::new("hi");
        let mut rng = GocRng::seed_from_u64(1);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::default()),
            Box::new(toy::SayThrough::new("hi")),
            rng,
        )
        .recording();
        exec.run(50)
    }

    #[test]
    fn stats_count_messages() {
        let t = sample_transcript();
        let stats = ChannelStats::of(t.view());
        assert!(stats.sent_to_server >= 1);
        assert!(stats.recv_from_world >= 1, "the ACK");
        assert!(stats.bytes_sent >= 2);
        assert!(stats.rounds >= 4);
        assert!(stats.user_silence_rate() <= 1.0);
    }

    #[test]
    fn stats_of_empty_view() {
        let stats = ChannelStats::of(&UserView::new());
        assert_eq!(stats, ChannelStats::default());
        assert_eq!(stats.user_silence_rate(), 1.0);
    }

    #[test]
    fn render_shows_traffic_and_stop() {
        let t = sample_transcript();
        let text = render(&t, 10);
        assert!(text.contains("halted(heard)"), "{text}");
        assert!(text.contains("u→s hi"), "{text}");
        assert!(text.contains("w→u ACK"), "{text}");
    }

    #[test]
    fn silence_rate_is_exact_when_both_channels_speak_in_one_round() {
        use crate::msg::{Message, UserIn, UserOut};
        use crate::view::ViewEvent;

        // Round 0: the user speaks on BOTH channels at once. Rounds 1–3:
        // silence. The old totals-based approximation counted two speaking
        // rounds (2/4 = 0.5 silence); the exact rate is 3/4.
        let mut view = UserView::new();
        view.push(ViewEvent {
            round: 0,
            received: UserIn::default(),
            sent: UserOut {
                to_server: Message::from_bytes(b"hi".to_vec()),
                to_world: Message::from_bytes(b"lo".to_vec()),
            },
        });
        for round in 1..4 {
            view.push(ViewEvent {
                round,
                received: UserIn::default(),
                sent: UserOut::silence(),
            });
        }
        let stats = ChannelStats::of(&view);
        assert_eq!(stats.rounds, 4);
        assert_eq!(stats.sent_to_server, 1);
        assert_eq!(stats.sent_to_world, 1);
        assert_eq!(stats.silent_rounds, 3);
        assert_eq!(stats.user_silence_rate(), 0.75);
    }

    #[test]
    fn render_marks_silent_rounds_inside_the_window() {
        use crate::exec::StopReason;
        use crate::msg::{Message, UserIn, UserOut};
        use crate::view::ViewEvent;

        // Traffic at rounds 0 and 5, silence at 1–4 — all inside the
        // printed window. The old renderer skipped the silent rounds with
        // no marker, so the output jumped from r0 to r5 unexplained.
        let mut view = UserView::new();
        for round in 0..6u64 {
            let sent = if round == 0 || round == 5 {
                UserOut {
                    to_server: Message::from_bytes(b"x".to_vec()),
                    to_world: Message::silence(),
                }
            } else {
                UserOut::silence()
            };
            view.push(ViewEvent { round, received: UserIn::default(), sent });
        }
        let t = Transcript {
            state: (),
            history: Some(crate::exec::History { world_states: Vec::new(), view }),
            rounds: 6,
            stop: StopReason::HorizonExhausted,
        };
        let text = render(&t, 10);
        assert!(text.contains("… 4 rounds elided …"), "{text}");
        assert!(text.contains("r    0"), "{text}");
        assert!(text.contains("r    5"), "{text}");
    }

    #[test]
    fn render_merges_window_gap_with_adjacent_silence() {
        use crate::exec::StopReason;
        use crate::msg::{Message, UserIn, UserOut};
        use crate::view::ViewEvent;

        // 20 rounds, traffic only at 0 and 19, window limit 3: the silent
        // rounds inside the head/tail windows merge with the out-of-window
        // gap into a single 18-round marker.
        let mut view = UserView::new();
        for round in 0..20u64 {
            let sent = if round == 0 || round == 19 {
                UserOut {
                    to_server: Message::from_bytes(b"x".to_vec()),
                    to_world: Message::silence(),
                }
            } else {
                UserOut::silence()
            };
            view.push(ViewEvent { round, received: UserIn::default(), sent });
        }
        let t = Transcript {
            state: (),
            history: Some(crate::exec::History { world_states: Vec::new(), view }),
            rounds: 20,
            stop: StopReason::HorizonExhausted,
        };
        let text = render(&t, 3);
        assert!(text.contains("… 18 rounds elided …"), "{text}");
    }

    #[test]
    fn render_marks_trailing_silence() {
        use crate::exec::StopReason;
        use crate::msg::{Message, UserIn, UserOut};
        use crate::view::ViewEvent;

        let mut view = UserView::new();
        for round in 0..5u64 {
            let sent = if round == 0 {
                UserOut {
                    to_server: Message::from_bytes(b"x".to_vec()),
                    to_world: Message::silence(),
                }
            } else {
                UserOut::silence()
            };
            view.push(ViewEvent { round, received: UserIn::default(), sent });
        }
        let t = Transcript {
            state: (),
            history: Some(crate::exec::History { world_states: Vec::new(), view }),
            rounds: 5,
            stop: StopReason::HorizonExhausted,
        };
        let text = render(&t, 10);
        assert!(text.trim_end().ends_with("… 4 rounds elided …"), "{text}");
    }

    #[test]
    fn render_elides_the_middle() {
        let goal = toy::CompactMagicWordGoal::new("hi", 16);
        let mut rng = GocRng::seed_from_u64(2);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(toy::RelayServer::default()),
            Box::new(toy::SayThrough::persistent("hi")),
            rng,
        )
        .recording();
        let t = exec.run_for(100);
        let text = render(&t, 3);
        assert!(text.contains("rounds elided"), "{text}");
    }
}
