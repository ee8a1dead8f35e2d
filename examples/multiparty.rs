//! The multi-party setting (paper footnote 1): several servers behind one
//! channel, reduced to the two-party theory.
//!
//! A composite of four servers — two useless, two printer drivers speaking
//! different dialects — faces a universal user over the product class
//! {server} × {dialect}. The user discovers *which* server helps and *how*
//! to address it, jointly.
//!
//! Run with: `cargo run --example multiparty`

use goc::core::multi::{addressed_class, CompositeServer};
use goc::core::strategy::{EchoServer, SilentServer};
use goc::goals::printing::*;
use goc::prelude::*;

const DOC: &str = "multi-party.txt";

fn main() {
    println!("== multi-party: four servers behind one channel ==\n");
    let dialects = Dialect::class(&[0x10, 0x20], &[Encoding::Identity, Encoding::Xor(0x44)]);

    let goal = PrintGoal::new(DOC);
    // Member 2 speaks dialect 1; member 3 speaks dialect 2.
    let composite = || -> BoxedServer {
        Box::new(CompositeServer::new(vec![
            Box::new(SilentServer),
            Box::new(EchoServer),
            Box::new(DriverServer::new(dialects[1].clone())),
            Box::new(DriverServer::new(dialects[2].clone())),
        ]))
    };

    let class = addressed_class(Box::new(dialect_class(DOC, &dialects, false)), 4);
    println!(
        "product class: 4 servers x {} dialect strategies = {} candidates",
        dialects.len(),
        4 * dialects.len()
    );

    let universal = LevinUniversalUser::round_robin(
        Box::new(class),
        Box::new(tray_sensing(DOC)),
        8,
    );
    let mut rng = GocRng::seed_from_u64(11);
    let mut exec =
        Execution::new(goal.spawn_world(&mut rng), composite(), Box::new(universal), rng)
            .recording();
    let t = exec.run(200_000);
    let v = evaluate_finite(&goal, &t);
    println!(
        "\nuniversal user: {} in {} rounds",
        if v.achieved { "document printed" } else { "FAILED" },
        v.rounds
    );
    assert!(v.achieved);

    // Channel statistics from the trace module.
    let stats = goc::core::trace::ChannelStats::of(t.view());
    println!(
        "traffic: {} msgs to servers, {} replies, {} world reports, {:.0}% user silence",
        stats.sent_to_server,
        stats.recv_from_server,
        stats.recv_from_world,
        100.0 * stats.user_silence_rate()
    );

    println!("\nlast rounds of the transcript:");
    print!("{}", goc::core::trace::render(&t, 4));
}
