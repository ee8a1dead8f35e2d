//! Pooled, refcounted message buffers — the zero-copy backbone of the round
//! loop.
//!
//! A [`MsgBuf`] stores a message payload either **inline** (payloads of up to
//! [`INLINE_CAP`] bytes live directly in the value, no heap at all) or
//! **spilled** into a refcounted heap allocation. Cloning is O(1) and
//! allocation-free in both cases: inline buffers are `memcpy`d, spilled
//! buffers bump a reference count (copy-on-write at the `Message` level —
//! buffers are immutable once built, so "write" is "build a new one").
//!
//! Spilled allocations are recycled through a thread-local [`BufPool`]: when
//! the last reference to a spilled buffer drops, its allocation (including
//! the payload `Vec`'s capacity) goes back to the dropping thread's pool, and
//! the next spill on that thread reuses it. A warm steady-state round loop
//! therefore performs **zero** heap allocations regardless of payload size —
//! the property gated by the E13 bench in CI.
//!
//! The pool is always on outside [`with_pool`]`(false, ..)`, which scopes
//! the unpooled reference on the calling thread for the tests and benches
//! that compare pooled against unpooled behaviour. Representations never
//! leak into message equality, so the setting is observationally inert.

use std::cell::{Cell, RefCell};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

/// Maximum payload length stored inline (without touching the heap).
pub const INLINE_CAP: usize = 23;

/// Maximum number of spilled allocations a thread's pool retains.
const POOL_CAP: usize = 256;

/// Spilled payloads whose `Vec` capacity exceeds this are freed instead of
/// pooled, so one huge message cannot pin memory forever.
const MAX_POOLED_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// The refcounted spill
// ---------------------------------------------------------------------------

struct SpillInner {
    refs: AtomicUsize,
    data: Vec<u8>,
}

/// A shared handle to a spilled payload. Hand-rolled rather than
/// `Arc<Vec<u8>>` so the *allocation itself* can be recycled: dropping the
/// last handle returns the whole `Box<SpillInner>` (header and payload
/// capacity) to the thread-local pool instead of the system allocator.
struct Spill {
    ptr: NonNull<SpillInner>,
}

// SAFETY: the payload is immutable after construction and the refcount is
// atomic, so handles may be sent and shared across threads. Recycling happens
// on whichever thread drops the last handle — pools are per-thread caches,
// not owners.
unsafe impl Send for Spill {}
unsafe impl Sync for Spill {}

impl Spill {
    fn inner(&self) -> &SpillInner {
        // SAFETY: the pointer is valid while at least one handle exists.
        unsafe { self.ptr.as_ref() }
    }

    fn from_inner(inner: Box<SpillInner>) -> Self {
        // SAFETY: Box::into_raw never returns null.
        Spill { ptr: unsafe { NonNull::new_unchecked(Box::into_raw(inner)) } }
    }

    fn data(&self) -> &[u8] {
        &self.inner().data
    }

    fn is_unique(&self) -> bool {
        self.inner().refs.load(Ordering::Acquire) == 1
    }
}

impl Clone for Spill {
    fn clone(&self) -> Self {
        self.inner().refs.fetch_add(1, Ordering::Relaxed);
        Spill { ptr: self.ptr }
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        if self.inner().refs.fetch_sub(1, Ordering::Release) == 1 {
            fence(Ordering::Acquire);
            // SAFETY: we held the last reference.
            let inner = unsafe { Box::from_raw(self.ptr.as_ptr()) };
            recycle(inner);
        }
    }
}

// ---------------------------------------------------------------------------
// The thread-local pool
// ---------------------------------------------------------------------------

/// A free list of spill allocations. One per thread, reached through the
/// module-level functions; the type itself only exists so tests and
/// diagnostics can talk about pool statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Spills served from the pool (no allocation performed).
    pub hits: u64,
    /// Spills that had to allocate because the pool was empty or disabled.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
}

thread_local! {
    static POOL: RefCell<Vec<Box<SpillInner>>> = const { RefCell::new(Vec::new()) };
    static POOL_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
    static STATS: Cell<PoolStats> = const { Cell::new(PoolStats { hits: 0, misses: 0, recycled: 0 }) };
}

/// Whether spills on this thread are served from and returned to the pool.
fn pool_enabled() -> bool {
    POOL_OVERRIDE.with(|c| c.get()).unwrap_or(true)
}

/// Runs `f` with the pool enabled or disabled on this thread, restoring the
/// previous setting afterwards. `with_pool(false, ..)` is the unpooled
/// reference that tests and benches compare allocation regimes against.
pub fn with_pool<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    let prev = POOL_OVERRIDE.with(|c| c.replace(Some(enabled)));
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// This thread's pool statistics since the last [`reset_pool_stats`].
pub fn pool_stats() -> PoolStats {
    STATS.with(|s| s.get())
}

/// Zeroes this thread's pool statistics.
pub fn reset_pool_stats() {
    STATS.with(|s| s.set(PoolStats::default()));
}

fn bump(f: impl FnOnce(&mut PoolStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

fn take_inner() -> Option<Box<SpillInner>> {
    if !pool_enabled() {
        return None;
    }
    POOL.with(|p| p.borrow_mut().pop())
}

fn recycle(mut inner: Box<SpillInner>) {
    if pool_enabled() && inner.data.capacity() <= MAX_POOLED_CAPACITY {
        let kept = POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                inner.data.clear();
                inner.refs.store(1, Ordering::Relaxed);
                pool.push(inner);
                true
            } else {
                false
            }
        });
        if kept {
            bump(|s| s.recycled += 1);
            crate::obs_count_nd!("pool.recycled", 1u64);
        }
    }
}

fn spill_from_slice(bytes: &[u8]) -> Spill {
    match take_inner() {
        Some(mut inner) => {
            bump(|s| s.hits += 1);
            crate::obs_count_nd!("pool.hit", 1u64);
            inner.data.extend_from_slice(bytes);
            Spill::from_inner(inner)
        }
        None => {
            bump(|s| s.misses += 1);
            crate::obs_count_nd!("pool.miss", 1u64);
            Spill::from_inner(Box::new(SpillInner {
                refs: AtomicUsize::new(1),
                data: bytes.to_vec(),
            }))
        }
    }
}

fn spill_from_vec(vec: Vec<u8>) -> Spill {
    match take_inner() {
        Some(mut inner) => {
            bump(|s| s.hits += 1);
            crate::obs_count_nd!("pool.hit", 1u64);
            // Adopt the caller's Vec wholesale; the pooled (empty) Vec is
            // dropped in its place. No allocation either way.
            inner.data = vec;
            Spill::from_inner(inner)
        }
        None => {
            bump(|s| s.misses += 1);
            crate::obs_count_nd!("pool.miss", 1u64);
            Spill::from_inner(Box::new(SpillInner { refs: AtomicUsize::new(1), data: vec }))
        }
    }
}

// ---------------------------------------------------------------------------
// MsgBuf
// ---------------------------------------------------------------------------

enum Repr {
    Inline { len: u8, data: [u8; INLINE_CAP] },
    Spilled(Spill),
}

/// An immutable byte buffer with inline small-payload storage and pooled,
/// refcounted heap spill. See the module docs for the lifecycle.
pub struct MsgBuf(Repr);

impl MsgBuf {
    /// The empty buffer (no heap, trivially).
    pub const fn empty() -> Self {
        MsgBuf(Repr::Inline { len: 0, data: [0u8; INLINE_CAP] })
    }

    /// Builds a buffer by copying `bytes`: inline when they fit, otherwise
    /// into a (pooled) spill.
    pub fn from_slice(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_CAP {
            let mut data = [0u8; INLINE_CAP];
            data[..bytes.len()].copy_from_slice(bytes);
            MsgBuf(Repr::Inline { len: bytes.len() as u8, data })
        } else {
            MsgBuf(Repr::Spilled(spill_from_slice(bytes)))
        }
    }

    /// Builds a buffer from an owned `Vec`, adopting its allocation when the
    /// payload does not fit inline.
    pub fn from_vec(vec: Vec<u8>) -> Self {
        if vec.len() <= INLINE_CAP {
            MsgBuf::from_slice(&vec)
        } else {
            MsgBuf(Repr::Spilled(spill_from_vec(vec)))
        }
    }

    /// The payload.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..*len as usize],
            Repr::Spilled(s) => s.data(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(s) => s.data().len(),
        }
    }

    /// `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts the payload as an owned `Vec`. For a uniquely held spill this
    /// is allocation-free (the payload `Vec` is moved out and the spill
    /// header recycled); otherwise the payload is copied.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Repr::Inline { len, data } => data[..len as usize].to_vec(),
            Repr::Spilled(ref s) if s.is_unique() => {
                // SAFETY: sole owner, so we may mutate through the pointer;
                // the subsequent Drop of `self` recycles the (now empty)
                // inner.
                let ptr = s.ptr;
                unsafe { std::mem::take(&mut (*ptr.as_ptr()).data) }
            }
            Repr::Spilled(ref s) => s.data().to_vec(),
        }
    }

    /// Address of the heap payload, or `None` for inline buffers. Used by
    /// tests asserting the zero-copy property (e.g. that a `Perfect` channel
    /// hands the identical buffer to the receiver).
    pub fn heap_ptr(&self) -> Option<*const u8> {
        match &self.0 {
            Repr::Inline { .. } => None,
            Repr::Spilled(s) => Some(s.data().as_ptr()),
        }
    }

    /// `true` if the payload lives on the heap (spilled).
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

impl Clone for MsgBuf {
    fn clone(&self) -> Self {
        match &self.0 {
            Repr::Inline { len, data } => MsgBuf(Repr::Inline { len: *len, data: *data }),
            Repr::Spilled(s) => MsgBuf(Repr::Spilled(s.clone())),
        }
    }
}

impl Default for MsgBuf {
    fn default() -> Self {
        MsgBuf::empty()
    }
}

impl PartialEq for MsgBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MsgBuf {}

impl PartialOrd for MsgBuf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MsgBuf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for MsgBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for MsgBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgBuf")
            .field("len", &self.len())
            .field("spilled", &self.is_spilled())
            .finish()
    }
}

impl AsRef<[u8]> for MsgBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn small_payloads_stay_inline() {
        for n in 0..=INLINE_CAP {
            let b = MsgBuf::from_slice(&big(n));
            assert!(!b.is_spilled(), "len {n} should be inline");
            assert_eq!(b.as_slice(), &big(n)[..]);
            assert_eq!(b.heap_ptr(), None);
        }
    }

    #[test]
    fn large_payloads_spill_and_roundtrip() {
        let payload = big(INLINE_CAP + 1);
        let b = MsgBuf::from_slice(&payload);
        assert!(b.is_spilled());
        assert_eq!(b.as_slice(), &payload[..]);
        assert_eq!(b.into_vec(), payload);
    }

    #[test]
    fn clone_shares_the_spill() {
        let b = MsgBuf::from_slice(&big(100));
        let c = b.clone();
        assert_eq!(b.heap_ptr(), c.heap_ptr());
        assert_eq!(b, c);
    }

    #[test]
    fn from_vec_adopts_large_allocations() {
        let v = big(100);
        let ptr = v.as_ptr();
        let b = with_pool(false, || MsgBuf::from_vec(v));
        assert_eq!(b.heap_ptr(), Some(ptr as *const u8), "Vec must be adopted, not copied");
    }

    #[test]
    fn unique_into_vec_moves_the_payload() {
        let b = MsgBuf::from_slice(&big(64));
        let ptr = b.heap_ptr().unwrap();
        let v = b.into_vec();
        assert_eq!(v.as_ptr() as *const u8, ptr, "unique spill must move, not copy");
        assert_eq!(v, big(64));
    }

    #[test]
    fn shared_into_vec_copies() {
        let b = MsgBuf::from_slice(&big(64));
        let c = b.clone();
        let v = b.into_vec();
        assert_eq!(v, big(64));
        assert_eq!(c.as_slice(), &big(64)[..], "the surviving handle still reads");
    }

    #[test]
    fn pool_recycles_spills() {
        with_pool(true, || {
            // Drain anything a previous test left behind, then measure.
            let payload = big(4096);
            let warm = MsgBuf::from_slice(&payload);
            drop(warm); // recycled
            reset_pool_stats();
            let a = MsgBuf::from_slice(&payload);
            let stats = pool_stats();
            assert!(stats.hits >= 1, "expected a pool hit, got {stats:?}");
            drop(a);
            assert!(pool_stats().recycled >= 1);
        });
    }

    #[test]
    fn pool_reuses_the_same_allocation() {
        with_pool(true, || {
            let payload = big(512);
            let a = MsgBuf::from_slice(&payload);
            let ptr = a.heap_ptr().unwrap();
            drop(a);
            let b = MsgBuf::from_slice(&payload);
            assert_eq!(b.heap_ptr(), Some(ptr), "spill allocation must be recycled");
        });
    }

    #[test]
    fn disabled_pool_never_recycles() {
        with_pool(false, || {
            reset_pool_stats();
            let a = MsgBuf::from_slice(&big(512));
            drop(a);
            let stats = pool_stats();
            assert_eq!(stats.hits, 0);
            assert_eq!(stats.recycled, 0);
            assert!(stats.misses >= 1);
        });
    }

    #[test]
    fn with_pool_restores_previous_setting() {
        with_pool(true, || {
            with_pool(false, || {
                assert!(!pool_enabled());
            });
            assert!(pool_enabled());
        });
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        with_pool(true, || {
            reset_pool_stats();
            let a = MsgBuf::from_slice(&big(MAX_POOLED_CAPACITY + 1));
            drop(a);
            assert_eq!(pool_stats().recycled, 0, "oversized spills must be freed");
        });
    }

    #[test]
    fn equality_ignores_representation() {
        let payload = big(INLINE_CAP); // inline
        let inline = MsgBuf::from_slice(&payload);
        // Force a spilled representation of the same bytes via a larger vec
        // truncated… not possible (immutable); compare inline/inline and
        // spilled/spilled plus ordering across sizes instead.
        assert_eq!(inline, MsgBuf::from_slice(&payload));
        let a = MsgBuf::from_slice(&big(50));
        let b = MsgBuf::from_slice(&big(50));
        assert_eq!(a, b);
        assert!(MsgBuf::from_slice(b"a") < MsgBuf::from_slice(b"ab"));
        assert!(MsgBuf::from_slice(b"a") < MsgBuf::from_slice(b"b"));
    }

    #[test]
    fn send_sync_bounds_hold() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MsgBuf>();
    }

    #[test]
    fn cross_thread_drop_is_sound() {
        let b = MsgBuf::from_slice(&big(100));
        let c = b.clone();
        let h = std::thread::spawn(move || {
            assert_eq!(c.len(), 100);
            drop(c);
        });
        h.join().unwrap();
        assert_eq!(b.len(), 100);
    }
}
