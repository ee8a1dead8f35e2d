//! **The navigation goal** — an embodied compact goal: steer an agent to a
//! moving target through an actuator whose button wiring is unknown.
//!
//! The paper stresses that goals of communication go beyond transmitting or
//! computing; controlling a physical effector ("using a printer", a robot
//! arm, a thermostat) is the canonical third family. Here the world is a
//! grid with an agent and a relocating target; the server is an actuator
//! mapping four user buttons to the four directions by an unknown
//! permutation (24 wirings).
//!
//! A prefix is acceptable iff the target was visited within its last
//! `window` rounds — a compact goal: the agent must keep finding targets
//! forever, so a user that never deciphers the wiring fails infinitely often.

mod sensing;
mod servers;
mod users;
mod world;

pub use sensing::{visit_sensing, VisitSensing};
pub use servers::{ActuatorServer, Wiring, BUTTONS};
pub use users::{wiring_class, CalibratingNavigator, GreedyNavigator};
pub use world::{parse_sensors, Dir, GridState, GridWorld};

use goc_core::goal::{CompactGoal, Goal, GoalKind};
use goc_core::rng::GocRng;

/// The compact navigation goal.
#[derive(Clone, Debug)]
pub struct NavigationGoal {
    width: u32,
    height: u32,
    window: u64,
}

impl NavigationGoal {
    /// A goal on a `width` × `height` grid where the target must be visited
    /// every `window` rounds.
    ///
    /// # Panics
    ///
    /// Panics if the grid has fewer than two cells, or if `window` is
    /// smaller than the grid diameter plus actuation latency (such goals are
    /// unachievable, hence not forgiving).
    pub fn new(width: u32, height: u32, window: u64) -> Self {
        assert!(width as u64 * height as u64 >= 2, "grid needs at least two cells");
        let diameter = (width + height) as u64;
        assert!(
            window >= diameter + 4,
            "window {window} too tight for grid diameter {diameter} (+4 rounds latency)"
        );
        NavigationGoal { width, height, window }
    }

    /// Grid width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The visit window.
    pub fn window(&self) -> u64 {
        self.window
    }
}

impl Goal for NavigationGoal {
    type World = GridWorld;

    fn spawn_world(&self, rng: &mut GocRng) -> GridWorld {
        GridWorld::new(self.width, self.height, rng)
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Compact
    }

    fn name(&self) -> String {
        format!("navigation({}x{})", self.width, self.height)
    }
}

impl CompactGoal for NavigationGoal {
    type Memory = ();

    fn prefix_acceptable(&self, _: &mut (), last: &GridState) -> bool {
        if last.round < self.window {
            return true; // start-up grace
        }
        match last.last_visit_round {
            Some(v) => last.round - v <= self.window,
            None => false,
        }
    }
}

impl goc_core::score::ScoredGoal for NavigationGoal {
    /// Quality = visits achieved relative to the best possible rate (one
    /// visit per half-diameter of the grid, the mean target distance).
    fn score(&self, history: &[GridState]) -> f64 {
        let Some(last) = history.last() else { return 0.0 };
        if last.round == 0 {
            return 0.0;
        }
        let mean_trip = ((self.width + self.height) as f64 / 2.0).max(1.0);
        let best_possible = last.round as f64 / mean_trip;
        (last.visits as f64 / best_possible).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_core::exec::Execution;
    use goc_core::goal::evaluate_compact;
    use goc_core::prelude::*;

    fn run(
        user: BoxedUser,
        wiring: Wiring,
        horizon: u64,
        seed: u64,
    ) -> goc_core::goal::CompactVerdict {
        let goal = NavigationGoal::new(6, 6, 40);
        let mut rng = GocRng::seed_from_u64(seed);
        let mut exec = Execution::new(
            goal.spawn_world(&mut rng),
            Box::new(ActuatorServer::new(wiring)),
            user,
            rng,
        )
        .recording();
        let t = exec.run_for(horizon);
        evaluate_compact(&goal, &t)
    }

    #[test]
    fn matching_greedy_navigator_sustains_goal() {
        for idx in [0usize, 5, 13, 23] {
            let w = Wiring::nth(idx);
            let v = run(Box::new(GreedyNavigator::new(w)), w, 1200, 10 + idx as u64);
            assert!(v.achieved(200), "wiring {idx}: {v:?}");
        }
    }

    #[test]
    fn wrong_wiring_fails() {
        let v = run(
            Box::new(GreedyNavigator::new(Wiring::nth(1))),
            Wiring::nth(2),
            1200,
            3,
        );
        assert!(!v.achieved(200), "verdict: {v:?}");
    }

    #[test]
    fn calibrating_navigator_learns_any_wiring() {
        for idx in [0usize, 7, 17, 23] {
            let v = run(Box::new(CalibratingNavigator::new()), Wiring::nth(idx), 2000, 40 + idx as u64);
            assert!(v.achieved(200), "wiring {idx}: {v:?}");
        }
    }

    #[test]
    fn constructor_rejects_unachievable_windows() {
        assert!(std::panic::catch_unwind(|| NavigationGoal::new(10, 10, 5)).is_err());
        assert!(std::panic::catch_unwind(|| NavigationGoal::new(1, 1, 100)).is_err());
        let g = NavigationGoal::new(5, 4, 20);
        assert_eq!((g.width(), g.height(), g.window()), (5, 4, 20));
        assert_eq!(g.kind(), GoalKind::Compact);
    }
}
