//! The candidate-evaluation cache: memoised VM rounds for universal search.
//!
//! The universal users re-run the *same* candidate programs over and over —
//! the compact user's triangular schedule revisits every index Θ(index)
//! times, and the trial harness repeats whole executions across seeds. A VM
//! strategy is a **deterministic transducer**: its round-`k` output (and
//! halt state) is fully determined by the program bytes, the per-round fuel
//! budget, and the sequence of inbox contents for rounds `0..=k`. That
//! triple is therefore a sound memoisation key, and this module keeps a
//! process-wide map from it to the round's outputs.
//!
//! [`VmUser`](crate::adapter::VmUser) consults the cache on every step. On a
//! hit it returns the recorded outboxes without touching its machine; on a
//! miss it first *replays* any skipped rounds (the machine is a transducer,
//! so replaying the recorded inputs reproduces the exact register state) and
//! then executes the round for real, recording it. Either way the observable
//! behaviour is bit-identical to an uncached run.
//!
//! Keys store a 64-bit hash of the program bytes plus a 128-bit rolling hash
//! of the interaction prefix; entries additionally pin the full program
//! bytes, which are compared on lookup, so a program-hash collision can
//! never serve the wrong entry. The pinned bytes are the inserting
//! `VmUser`'s shared `Arc<[u8]>`, so an insert allocates no copy of the
//! program, and the recorded outboxes are [`Message`]s, so small outputs
//! live inline and a hit clones them without allocating. A prefix-hash
//! collision *within one program's entries* is the one probabilistic
//! failure mode; at 128 bits it is negligible against the ≤ 2⁴⁰ rounds any
//! experiment here executes.
//!
//! The cache is enabled by default and shared across threads (the parallel
//! trial harness warms it for every worker). `GOC_VM_CACHE=0` disables it
//! process-wide; [`VmUser::with_cache_enabled`](crate::adapter::VmUser) pins
//! it per instance. [`stats`] / [`reset_stats`] expose hit counters for the
//! bench suite's JSONL records.

use goc_core::msg::Message;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of independent cache shards (reduces lock contention when the
/// parallel harness runs many trials at once). Must be a power of two.
const SHARD_COUNT: usize = 16;

/// Per-shard entry cap; a shard that grows past this evicts roughly half
/// of its entries (see [`insert`]). Bounds memory at roughly
/// `SHARD_COUNT * SHARD_CAP` rounds of output.
const SHARD_CAP: usize = 1 << 16;

/// The memoised outcome of one VM round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedRound {
    /// Bytes the round appended to the A (peer) outbox.
    pub out_a: Message,
    /// Bytes the round appended to the B (world) outbox.
    pub out_b: Message,
    /// `Some(final output)` if the machine halted during (or before) this
    /// round.
    pub halted: Option<Vec<u8>>,
}

/// Cache key: `(program bytes, fuel, interaction prefix)`, with the program
/// and prefix in hashed form (see module docs for the soundness argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RoundKey {
    /// FNV-1a over the program bytes ([`program_hash`]).
    pub program_hash: u64,
    /// Per-round fuel budget of the machine.
    pub fuel: u32,
    /// Rolling 128-bit hash of every inbox up to and including this round
    /// ([`extend_prefix`]).
    pub prefix_hash: u128,
}

struct Entry {
    /// Full program bytes, compared on lookup to rule out program-hash
    /// collisions; shared with the `VmUser` that recorded the entry.
    program: Arc<[u8]>,
    round: CachedRound,
}

#[derive(Default)]
struct ShardState {
    map: HashMap<RoundKey, Entry>,
    /// Bumped on every half-eviction; selects which hash bit decides who
    /// survives, so repeated evictions don't starve the same keys.
    evict_epoch: u32,
}

struct Shard {
    state: Mutex<ShardState>,
}

struct Cache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

static CACHE: OnceLock<Cache> = OnceLock::new();

fn cache() -> &'static Cache {
    CACHE.get_or_init(|| Cache {
        shards: (0..SHARD_COUNT)
            .map(|_| Shard { state: Mutex::new(ShardState::default()) })
            .collect(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Locks a shard, recovering from poisoning. A `par` worker that panics
/// mid-operation poisons the shard it holds; the map itself is never left
/// in a broken state by a panic here (HashMap operations are
/// panic-atomic for our key/value types, and entries are verified against
/// the full program bytes on every read), so the poison flag carries no
/// information and unrelated trials must not cascade-panic on it.
fn lock_shard(shard: &Shard) -> std::sync::MutexGuard<'_, ShardState> {
    shard.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn shard_of(key: &RoundKey) -> &'static Shard {
    let mix = key.program_hash ^ (key.prefix_hash as u64) ^ (key.prefix_hash >> 64) as u64;
    &cache().shards[(mix as usize) & (SHARD_COUNT - 1)]
}

/// Whether the process-wide cache is enabled (`GOC_VM_CACHE` unset or ≠ "0").
/// Read once and latched, so flipping the variable mid-process has no effect
/// — per-instance control is `VmUser::with_cache_enabled`.
pub fn enabled_by_env() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("GOC_VM_CACHE").map(|v| v != "0").unwrap_or(true))
}

/// FNV-1a over the program bytes — the `program_hash` component of
/// [`RoundKey`].
pub fn program_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The empty-interaction prefix hash (FNV-1a 128-bit offset basis).
pub const PREFIX_EMPTY: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// Folds one round's inboxes into the rolling prefix hash. Lengths are
/// hashed before contents so `([a,b], [])` and `([a], [b])` cannot collide
/// by concatenation.
pub fn extend_prefix(prefix: u128, in_a: &[u8], in_b: &[u8]) -> u128 {
    const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = prefix;
    let mut eat = |byte: u8| {
        h ^= byte as u128;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for part in [in_a, in_b] {
        for b in (part.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in part {
            eat(b);
        }
    }
    h
}

/// Looks up the memoised round for `key`, verifying the entry was recorded
/// for exactly `program` (hash collisions fall through to a miss). Updates
/// the hit/miss counters.
pub fn lookup(key: &RoundKey, program: &[u8]) -> Option<CachedRound> {
    let shard = shard_of(key);
    let state = lock_shard(shard);
    match state.map.get(key) {
        Some(entry) if &*entry.program == program => {
            cache().hits.fetch_add(1, Ordering::Relaxed);
            goc_core::obs_count_nd!("vm.cache.hit", 1u64);
            Some(entry.round.clone())
        }
        _ => {
            cache().misses.fetch_add(1, Ordering::Relaxed);
            goc_core::obs_count_nd!("vm.cache.miss", 1u64);
            None
        }
    }
}

/// Mixes a key into one well-stirred word with a splitmix64 finalizer.
/// Each word gets its own odd multiplier before the XOR so the mix stays
/// key-dependent even for key families where the plain XOR (the one
/// [`shard_of`] uses) is constant within a shard; any single bit then
/// splits a shard's population roughly in half.
fn evict_mix(key: &RoundKey) -> u64 {
    let mut x = key.program_hash.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (key.prefix_hash as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ ((key.prefix_hash >> 64) as u64).wrapping_mul(0x1656_67b1_9e37_79f9)
        ^ key.fuel as u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Records the outcome of one round of `program` under `key`, pinning a
/// reference to the caller's program bytes rather than a copy. Overwriting
/// an existing entry is harmless (the function is deterministic, so the
/// value is the same — or belongs to a colliding program, which `lookup`
/// re-verifies).
///
/// A shard at [`SHARD_CAP`] evicts roughly half of its entries — those
/// whose mixed hash has the epoch-selected bit set — instead of clearing
/// wholesale, so a long-running search keeps half of its warm entries
/// across the cap. Evicted entries only cost a re-execution on the next
/// miss; observable behaviour is unchanged.
pub fn insert(key: RoundKey, program: &Arc<[u8]>, round: CachedRound) {
    let shard = shard_of(&key);
    let mut state = lock_shard(shard);
    if state.map.len() >= SHARD_CAP {
        let bit = state.evict_epoch % 64;
        state.evict_epoch = state.evict_epoch.wrapping_add(1);
        let before = state.map.len();
        state.map.retain(|k, _| (evict_mix(k) >> bit) & 1 == 0);
        let evicted = before - state.map.len();
        goc_core::obs_count_nd!("vm.cache.evict", evicted as u64);
    }
    state.map.insert(key, Entry { program: Arc::clone(program), round });
    goc_core::obs_gauge_max_nd!("vm.cache.entries_peak", state.map.len() as u64);
}

/// Snapshot of the cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to real execution.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (`None` when there were none).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            return None;
        }
        Some(self.hits as f64 / total as f64)
    }
}

/// Current process-wide hit/miss counters.
pub fn stats() -> CacheStats {
    let c = cache();
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
    }
}

/// Zeroes the hit/miss counters (the benches call this before a measured
/// run so rates are per-experiment, not cumulative).
pub fn reset_stats() {
    let c = cache();
    c.hits.store(0, Ordering::Relaxed);
    c.misses.store(0, Ordering::Relaxed);
}

/// Drops every memoised round (counters are left alone).
pub fn clear() {
    for shard in &cache().shards {
        lock_shard(shard).map.clear();
    }
}

/// Total number of memoised rounds currently held, across all shards.
pub fn entry_count() -> usize {
    cache().shards.iter().map(|shard| lock_shard(shard).map.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache is process-global; tests that assert on hit/miss or
    /// occupancy serialize here so the eviction test cannot drop another
    /// test's entry between its insert and its lookup.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn key(p: u64, prefix: u128) -> RoundKey {
        RoundKey { program_hash: p, fuel: 256, prefix_hash: prefix }
    }

    fn round(tag: u8) -> CachedRound {
        CachedRound { out_a: Message::from_bytes([tag]), out_b: Message::silence(), halted: None }
    }

    fn shared(bytes: &[u8]) -> Arc<[u8]> {
        bytes.into()
    }

    /// The program bytes pinned by the entry under `key`, if any.
    fn entry_program(key: &RoundKey) -> Option<Arc<[u8]>> {
        lock_shard(shard_of(key)).map.get(key).map(|entry| Arc::clone(&entry.program))
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let _g = test_guard();
        let k = key(program_hash(b"prog-x"), PREFIX_EMPTY);
        insert(k, &shared(b"prog-x"), round(7));
        assert_eq!(lookup(&k, b"prog-x"), Some(round(7)));
    }

    #[test]
    fn program_hash_collision_is_a_miss_not_a_wrong_hit() {
        let _g = test_guard();
        // Same key, different recorded program bytes: the byte comparison
        // must refuse to serve the entry.
        let k = key(0x1234, PREFIX_EMPTY ^ 0x5555);
        insert(k, &shared(b"real"), round(1));
        assert_eq!(lookup(&k, b"impostor"), None);
        assert_eq!(lookup(&k, b"real"), Some(round(1)));
    }

    #[test]
    fn users_of_one_program_share_the_entry_bytes() {
        use crate::adapter::VmUser;
        use crate::instr::Instr;
        use crate::program::Program;
        use goc_core::msg::UserIn;
        use goc_core::rng::GocRng;
        use goc_core::strategy::{StepCtx, UserStrategy};

        let _g = test_guard();
        let program = Program::assemble(&[Instr::EmitA(b'S'), Instr::EmitB(b'h'), Instr::EndRound]);
        let fuel = 77;
        let step = |user: &mut VmUser| {
            let mut rng = GocRng::seed_from_u64(0);
            user.step(&mut StepCtx::new(0, &mut rng), &UserIn::default())
        };
        let mut first = VmUser::with_fuel(program.clone(), fuel).with_cache_enabled(true);
        let mut fork = first.clone();
        let key = RoundKey {
            program_hash: program_hash(program.as_bytes()),
            fuel,
            prefix_hash: extend_prefix(PREFIX_EMPTY, b"", b""),
        };
        let out = step(&mut first);
        let pinned = entry_program(&key).expect("the miss recorded an entry");
        assert!(Arc::ptr_eq(&pinned, first.shared_program()), "entry copied the bytes");
        // The fork is served from the entry without running its machine.
        assert_eq!(step(&mut fork), out);
        assert_eq!(fork.machine().instructions_retired(), 0);
        assert!(Arc::ptr_eq(&pinned, fork.shared_program()));

        // Lookups compare bytes, not pointers: an independently built user
        // of the same program hits, and a program-hash collision misses.
        let independent = VmUser::with_fuel(program.clone(), fuel);
        assert!(!Arc::ptr_eq(&pinned, independent.shared_program()));
        assert!(lookup(&key, independent.shared_program()).is_some());
        let impostor = shared(b"same hash, other bytes");
        assert_eq!(lookup(&key, &impostor), None);
    }

    #[test]
    fn poisoned_shard_recovers_instead_of_cascading() {
        let _g = test_guard();
        let k = key(program_hash(b"poison-prog"), PREFIX_EMPTY ^ 0xabcd);
        insert(k, &shared(b"poison-prog"), round(9));
        // Poison the shard: a thread panics while holding its lock, the
        // way a panicking `par` worker would mid-`insert`.
        let shard = shard_of(&k);
        let _ = std::thread::spawn(move || {
            let _held = shard.state.lock().unwrap();
            panic!("poisoning the shard on purpose");
        })
        .join();
        assert!(shard.state.is_poisoned());
        // Every entry point must keep working on the poisoned shard.
        assert_eq!(lookup(&k, b"poison-prog"), Some(round(9)));
        let k2 = key(program_hash(b"poison-prog"), extend_prefix(PREFIX_EMPTY ^ 0xabcd, b"x", b""));
        insert(k2, &shared(b"poison-prog"), round(10));
        assert_eq!(lookup(&k2, b"poison-prog"), Some(round(10)));
        let _ = entry_count();
        clear();
        assert_eq!(lookup(&k, b"poison-prog"), None);
    }

    #[test]
    fn full_shard_evicts_half_not_everything() {
        let _g = test_guard();
        clear();
        // All keys land in one shard: `shard_of` mixes the three hash
        // words, so keep program_hash equal to the low word of the prefix
        // — the XOR cancels and every key picks shard 0.
        let shard_pinned = |i: u64| {
            let prefix = (i + 1) as u128; // low 64 bits only
            RoundKey { program_hash: i + 1, fuel: 256, prefix_hash: prefix }
        };
        let program = shared(b"evict-prog");
        for i in 0..SHARD_CAP as u64 {
            insert(shard_pinned(i), &program, round((i % 251) as u8));
        }
        assert_eq!(entry_count(), SHARD_CAP);
        // The next insert trips the cap: roughly half survives (plus the
        // new entry), instead of the old wholesale clear.
        insert(shard_pinned(SHARD_CAP as u64), &program, round(1));
        let after = entry_count();
        assert!(after < SHARD_CAP, "no eviction happened: {after}");
        assert!(
            after > SHARD_CAP / 4 && after <= SHARD_CAP / 2 + SHARD_CAP / 4,
            "eviction should keep roughly half, kept {after} of {SHARD_CAP}"
        );
        // The just-inserted entry always survives its own eviction.
        assert_eq!(lookup(&shard_pinned(SHARD_CAP as u64), b"evict-prog"), Some(round(1)));
        // And survivors are still served (sample for at least one hit).
        let survivors = (0..64).filter(|&i| lookup(&shard_pinned(i), b"evict-prog").is_some()).count();
        assert!(survivors > 0, "no sampled survivor found after half-eviction");
        clear();
    }

    #[test]
    fn evictions_are_counted_in_the_metrics_registry() {
        let _g = test_guard();
        clear();
        let nd_total = |name: &str| {
            goc_core::obs::metrics_snapshot(Some(goc_core::obs::Scope::Process))
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        let before = nd_total("vm.cache.evict");
        let ((), _records) = goc_core::obs::capture(|| {
            let pinned = |i: u64| RoundKey {
                program_hash: i + 1,
                fuel: 256,
                prefix_hash: (i + 1) as u128,
            };
            let program = shared(b"evict-metric-prog");
            for i in 0..=SHARD_CAP as u64 {
                insert(pinned(i), &program, round(2));
            }
        });
        let evicted = nd_total("vm.cache.evict") - before;
        assert!(
            evicted > SHARD_CAP as u64 / 4,
            "eviction counter should record roughly half a shard, got {evicted}"
        );
        clear();
    }

    #[test]
    fn prefix_extension_separates_channel_boundaries() {
        let ab = extend_prefix(PREFIX_EMPTY, b"ab", b"");
        let a_b = extend_prefix(PREFIX_EMPTY, b"a", b"b");
        let empty = extend_prefix(PREFIX_EMPTY, b"", b"");
        assert_ne!(ab, a_b);
        assert_ne!(ab, empty);
        // And it is a function of the whole history, not just the last round.
        assert_ne!(extend_prefix(ab, b"", b""), extend_prefix(a_b, b"", b""));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        reset_stats();
        let k = key(program_hash(b"stats-prog"), extend_prefix(PREFIX_EMPTY, b"s", b""));
        assert_eq!(lookup(&k, b"stats-prog"), None);
        insert(k, &shared(b"stats-prog"), round(3));
        assert!(lookup(&k, b"stats-prog").is_some());
        let s = stats();
        assert!(s.misses >= 1 && s.hits >= 1, "{s:?}");
        assert!(s.hit_rate().unwrap() > 0.0);
    }
}
