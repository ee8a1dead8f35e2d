//! The embodied goal: keep reaching a moving target through an actuator
//! whose button wiring is one of 24 unknown permutations.
//!
//! Compares the three faces of universality on the same compact goal:
//! the enumeration-based universal user (Theorem 1), a single greedy
//! navigator with the *right* wiring (the informed baseline), and the
//! self-calibrating learner (the efficient special case).
//!
//! Run with: `cargo run --example navigator`

use goc::core::sensing::Deadline;
use goc::goals::navigation::*;
use goc::prelude::*;

fn run(user: BoxedUser, wiring: Wiring, seed: u64) -> goc::core::goal::CompactVerdict {
    let goal = NavigationGoal::new(8, 8, 60);
    let mut rng = GocRng::seed_from_u64(seed);
    let mut exec = Execution::new(
        goal.spawn_world(&mut rng),
        Box::new(ActuatorServer::new(wiring)),
        user,
        rng,
    );
    let mut monitor = CompactMonitor::start(&goal, &exec);
    monitor.run_for(&mut exec, 80_000);
    monitor.verdict()
}

fn main() {
    println!("== navigation: 8x8 grid, moving target, 24 possible wirings ==\n");
    println!("{:>8} {:>22} {:>22} {:>22}", "wiring", "informed (greedy)", "universal (enum)", "calibrating");

    for idx in [0usize, 5, 11, 17, 23] {
        let wiring = Wiring::nth(idx);

        let informed = run(Box::new(GreedyNavigator::new(wiring)), wiring, 10 + idx as u64);

        let universal = CompactUniversalUser::new(
            Box::new(wiring_class()),
            Box::new(Deadline::new(visit_sensing(), 80)),
        );
        let enumerated = run(Box::new(universal), wiring, 20 + idx as u64);

        let calibrating = run(Box::new(CalibratingNavigator::new()), wiring, 30 + idx as u64);

        let show = |v: &goc::core::goal::CompactVerdict| {
            format!(
                "{} (last bad {:?})",
                if v.achieved(5_000) { "settled" } else { "FAILED " },
                v.last_bad_prefix
            )
        };
        println!(
            "{idx:>8} {:>22} {:>22} {:>22}",
            show(&informed),
            show(&enumerated),
            show(&calibrating)
        );
        assert!(informed.achieved(2_000));
        assert!(enumerated.achieved(2_000));
        assert!(calibrating.achieved(2_000));
    }

    println!("\nAll three settle; the calibrating navigator settles without");
    println!("ever enumerating the 24-wiring class — the paper's closing");
    println!("remark about efficient algorithms for broad classes.");
}
