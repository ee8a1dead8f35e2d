//! The candidate-evaluation cache must be *unobservable*: a cached `VmUser`
//! produces exactly the outputs and halt behaviour of an uncached one, for
//! arbitrary programs and input histories — the soundness property behind
//! memoising Levin-search revisits. Checked by the seeded `goc-testkit`
//! harness.

use goc_core::msg::{Message, UserIn};
use goc_core::rng::GocRng;
use goc_core::strategy::{StepCtx, UserStrategy};
use goc_testkit::{check, gens, prop_assert_eq, PropResult};
use goc_vm::adapter::VmUser;
use goc_vm::program::Program;
use goc_vm::ProgramEnumerator;

/// Runs `user` over `inputs`, collecting per-round outputs and halt states.
fn drive(
    mut user: VmUser,
    inputs: &[(Vec<u8>, Vec<u8>)],
) -> Vec<(Vec<u8>, Vec<u8>, Option<Vec<u8>>)> {
    let mut rng = GocRng::seed_from_u64(0);
    let mut out = Vec::new();
    for (round, (a, b)) in inputs.iter().enumerate() {
        let mut ctx = StepCtx::new(round as u64, &mut rng);
        let o = user.step(
            &mut ctx,
            &UserIn {
                from_server: Message::from_bytes(a.clone()),
                from_world: Message::from_bytes(b.clone()),
            },
        );
        out.push((
            o.to_server.as_bytes().to_vec(),
            o.to_world.as_bytes().to_vec(),
            UserStrategy::halted(&user).map(|h| h.output.as_bytes().to_vec()),
        ));
    }
    out
}

/// Cached and uncached users are round-for-round identical, and a second
/// cached run (now warm) still matches.
fn cache_is_unobservable(
    program: &Program,
    fuel: u32,
    inputs: &[(Vec<u8>, Vec<u8>)],
) -> PropResult {
    let fresh = |cached: bool| VmUser::with_fuel(program.clone(), fuel).with_cache_enabled(cached);
    let uncached = drive(fresh(false), inputs);
    let cold = drive(fresh(true), inputs);
    let warm = drive(fresh(true), inputs);
    prop_assert_eq!(&cold, &uncached, "cold cached run diverged");
    prop_assert_eq!(&warm, &uncached, "warm cached run diverged");
    Ok(())
}

#[test]
fn cached_user_is_observably_identical_to_uncached() {
    let round_inputs = gens::tuple2(gens::bytes(0, 6), gens::bytes(0, 6));
    check(
        "cached_user_is_observably_identical_to_uncached",
        gens::tuple2(gens::bytes(0, 24), gens::vec_of(round_inputs, 1, 8)),
        |(code, inputs)| cache_is_unobservable(&Program::from_bytes(code.clone()), 64, inputs),
    );
}

/// The same over the `{jmp, emit.a, 'h'}` class of length ≤ 3, whose
/// self-jump burners spin their whole fuel every round — the candidates a
/// universal search over VM programs mostly wades through.
#[test]
fn cached_burner_is_observably_identical_to_uncached() {
    let class = ProgramEnumerator::over(vec![0x0b, 0x01, b'h']).with_max_len(3);
    let round_inputs = gens::tuple2(gens::bytes(0, 4), gens::bytes(0, 4));
    check(
        "cached_burner_is_observably_identical_to_uncached",
        gens::tuple3(
            gens::usize_in(0, 40),
            gens::u32_in(16, 256),
            gens::vec_of(round_inputs, 1, 10),
        ),
        |(index, fuel, inputs)| cache_is_unobservable(&class.program(*index), *fuel, inputs),
    );
}

/// Re-running the same interaction hits the cache (the memoisation actually
/// engages — this guards against silently caching nothing).
#[test]
fn repeated_interactions_hit_the_cache() {
    let program = Program::from_bytes(vec![0x01, b'q', 0x02, b'r']);
    let inputs: Vec<(Vec<u8>, Vec<u8>)> =
        (0..5).map(|i| (vec![i as u8], vec![])).collect();
    let _ = drive(VmUser::new(program.clone()).with_cache_enabled(true), &inputs);
    goc_vm::cache::reset_stats();
    let _ = drive(VmUser::new(program).with_cache_enabled(true), &inputs);
    let stats = goc_vm::cache::stats();
    assert!(stats.hits >= 5, "second identical run must be served from cache: {stats:?}");
}
