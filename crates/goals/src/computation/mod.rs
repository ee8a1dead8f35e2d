//! **The delegation-of-computation goal** — the Juba–Sudan scenario that
//! seeded the theory, generalized to verifiable puzzles.
//!
//! The world poses a puzzle instance the user can *verify* but not feasibly
//! *solve*; the server can produce the solution (it is either entrusted with
//! it or recomputes it — see [`OracleServer`] / [`SolverServer`]), but only
//! answers queries phrased in its own protocol. The user must obtain the
//! solution, submit it to the world, and halt after the world's
//! confirmation.
//!
//! This is a **finite** goal: the referee accepts iff a verified answer
//! reached the world before the user halted.

mod puzzles;
mod sensing;
mod servers;
mod users;
mod world;

pub use puzzles::{ModSquareRoot, Puzzle, SubsetSum};
pub use sensing::{confirmation_sensing, ConfirmationSensing};
pub use servers::{OracleServer, QueryProtocol, SolverServer};
pub use users::{protocol_class, DelegationUser};
pub use world::{ComputationState, ComputationWorld};

use goc_core::goal::{FiniteGoal, Goal, GoalKind};
use goc_core::rng::GocRng;
use goc_core::strategy::Halt;
use std::sync::Arc;

/// The finite delegation goal over a puzzle family.
#[derive(Clone, Debug)]
pub struct DelegationGoal {
    puzzle: Arc<dyn Puzzle + Send + Sync>,
}

impl DelegationGoal {
    /// A delegation goal for `puzzle`.
    pub fn new(puzzle: Arc<dyn Puzzle + Send + Sync>) -> Self {
        DelegationGoal { puzzle }
    }

    /// The puzzle family.
    pub fn puzzle(&self) -> &Arc<dyn Puzzle + Send + Sync> {
        &self.puzzle
    }
}

impl Goal for DelegationGoal {
    type World = ComputationWorld;

    fn spawn_world(&self, rng: &mut GocRng) -> ComputationWorld {
        // The world's non-deterministic choice: which instance to pose.
        ComputationWorld::new(self.puzzle.clone(), rng)
    }

    fn kind(&self) -> GoalKind {
        GoalKind::Finite
    }

    fn name(&self) -> String {
        format!("delegation[{}]", self.puzzle.name())
    }
}

impl FiniteGoal for DelegationGoal {
    type Memory = ();

    fn accepts(&self, _: &(), last: &ComputationState, _halt: &Halt) -> bool {
        last.verified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoding;
    use goc_core::exec::Execution;
    use goc_core::goal::evaluate_finite;

    fn goal() -> DelegationGoal {
        DelegationGoal::new(Arc::new(ModSquareRoot::new(10007)))
    }

    #[test]
    fn informed_client_with_oracle_server() {
        let g = goal();
        let proto = QueryProtocol::new(b'?', Encoding::Xor(0x11));
        let mut rng = GocRng::seed_from_u64(1);
        let mut exec = Execution::new(
            g.spawn_world(&mut rng),
            Box::new(OracleServer::new(proto)),
            Box::new(DelegationUser::new(proto, g.puzzle().clone())),
            rng,
        );
        let t = exec.run(100);
        let v = evaluate_finite(&g, &t);
        assert!(v.achieved, "verdict: {v:?}");
        assert!(v.rounds < 10, "should finish fast, took {}", v.rounds);
    }

    #[test]
    fn informed_client_with_solver_server() {
        let g = goal();
        let proto = QueryProtocol::new(b'q', Encoding::Reverse);
        let mut rng = GocRng::seed_from_u64(2);
        let mut exec = Execution::new(
            g.spawn_world(&mut rng),
            Box::new(SolverServer::new(proto, g.puzzle().clone())),
            Box::new(DelegationUser::new(proto, g.puzzle().clone())),
            rng,
        );
        let t = exec.run(100);
        assert!(evaluate_finite(&g, &t).achieved);
    }

    #[test]
    fn protocol_mismatch_fails() {
        let g = goal();
        let mut rng = GocRng::seed_from_u64(3);
        let mut exec = Execution::new(
            g.spawn_world(&mut rng),
            Box::new(OracleServer::new(QueryProtocol::new(b'?', Encoding::Xor(1)))),
            Box::new(DelegationUser::new(
                QueryProtocol::new(b'!', Encoding::Xor(1)),
                g.puzzle().clone(),
            )),
            rng,
        );
        let t = exec.run(100);
        let v = evaluate_finite(&g, &t);
        assert!(!v.achieved);
        assert!(!v.halted, "an honest client never halts unconfirmed");
    }

    #[test]
    fn subset_sum_delegation_works_too() {
        let g = DelegationGoal::new(Arc::new(SubsetSum::new(12, 12)));
        let proto = QueryProtocol::new(b'?', Encoding::Identity);
        let mut rng = GocRng::seed_from_u64(4);
        let mut exec = Execution::new(
            g.spawn_world(&mut rng),
            Box::new(SolverServer::new(proto, g.puzzle().clone())),
            Box::new(DelegationUser::new(proto, g.puzzle().clone())),
            rng,
        );
        let t = exec.run(200);
        assert!(evaluate_finite(&g, &t).achieved);
    }

    #[test]
    fn goal_metadata() {
        let g = goal();
        assert_eq!(g.kind(), GoalKind::Finite);
        assert!(g.name().contains("mod-sqrt"));
    }
}
