//! Deterministic observability: spans, events, metrics and JSONL trace
//! export for the execution engine.
//!
//! The paper's central quantities — rounds to success, candidate switches,
//! sensing verdicts, channel fault decisions — are exactly the things a
//! finished transcript cannot show. This module instruments the hot paths
//! (the round loop, the channels, the universal users, the message pool,
//! [`par_map`](crate::par::par_map)'s workers) with a recorder that is:
//!
//! - **Zero-overhead when disabled** (the default). Every emission site is
//!   gated on [`enabled`], one-to-two relaxed atomic loads that predict
//!   perfectly; nothing allocates, locks, or formats. `ci.sh` proves the
//!   E13 steady loop still runs at 0 allocs/iter with this module compiled
//!   in.
//! - **Deterministic when enabled.** Records carry only *logical* values
//!   (round counts, candidate indices) — never wall-clock time — and
//!   [`par_map`](crate::par::par_map) captures each task's records in a
//!   per-task buffer, flushing them in **index order** exactly like its
//!   result merge. The exported stream is therefore bit-identical across
//!   `GOC_THREADS` settings; `ci.sh` byte-diffs two runs to enforce it.
//!
//! # Records and the trace file
//!
//! Setting `GOC_TRACE=path` turns the recorder on and appends JSONL records
//! to `path` (single `write_all` per batch — the same O_APPEND discipline
//! as the bench harness). Four record kinds, flat JSON, fixed key order:
//!
//! ```text
//! {"k":"task","i":3}                     task boundary (par_map index)
//! {"k":"enter","n":"exec.run","v":500}   span start; v = planned horizon
//! {"k":"exit","n":"exec.run","v":212}    span end;   v = rounds executed
//! {"k":"event","n":"universal.spawn","v":7}
//! {"k":"metric","t":"counter","n":"exec.rounds","v":212}
//! ```
//!
//! Names are static identifiers (`[a-z0-9._]`) so no JSON escaping is ever
//! needed; [`parse_line`] is the matching reader used by `goc-trace` and
//! `goc-report --trace-summary`.
//!
//! # Metrics and the determinism boundary
//!
//! The static registry holds [`Counter`]s, [`Gauge`]s and [`Histogram`]s,
//! each classified by [`Scope`]:
//!
//! - [`Scope::Deterministic`] metrics depend only on the workload (rounds
//!   executed, faults applied, candidate switches). Their totals are equal
//!   at any thread count, so [`flush_metrics`] exports them (sorted by
//!   name) into the trace file.
//! - [`Scope::Process`] metrics are true observations of *this process* —
//!   buffer-pool reuse, worker spawns. Per-thread pools warm separately
//!   and concurrent workers race on pool misses, so these are
//!   **not** thread-count-invariant; they stay out of the trace file and
//!   are read via [`metrics_snapshot`] instead. `par.pool.spawned` counts
//!   the scoped workers spawned, one per worker per parallel `par_map`
//!   call (the name is from the persistent pool it used to count), so it
//!   grows with the number of calls rather than settling at the peak
//!   thread count.
//!
//! Tests use [`capture`] to collect records in-memory on the calling
//! thread without touching the environment; buffers are thread-local, so
//! concurrent tests cannot pollute each other's streams.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Enabled state
// ---------------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Resolved once from `GOC_TRACE`: `STATE_ON` iff the variable names a
/// trace file.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Number of live [`capture`] scopes, process-wide. Non-zero forces
/// [`enabled`] on so tests can record without an environment variable.
static CAPTURES: AtomicUsize = AtomicUsize::new(0);

/// Whether any emission site should record. The disabled fast path is one
/// relaxed load of [`STATE`] plus one of [`CAPTURES`] — no locks, no
/// branches that allocate — which is what keeps the steady loop at zero
/// allocations per iteration with observability compiled in.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => CAPTURES.load(Ordering::Relaxed) > 0,
        _ => init_state(),
    }
}

/// Resolves `GOC_TRACE` exactly once. Racing initializers read the same
/// environment and store the same verdict, so the race is benign.
#[cold]
fn init_state() -> bool {
    let path = match std::env::var("GOC_TRACE") {
        Ok(p) if !p.is_empty() && p != "0" => Some(PathBuf::from(p)),
        _ => None,
    };
    let on = path.is_some();
    if let Some(path) = path {
        let mut sink = lock_sink();
        if matches!(*sink, Sink::Off) {
            *sink = Sink::Unopened(path);
        }
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on || CAPTURES.load(Ordering::Relaxed) > 0
}

// ---------------------------------------------------------------------------
// Records and routing
// ---------------------------------------------------------------------------

/// One observability record. Values are logical quantities (rounds,
/// indices, counts) — never timestamps — which is what makes the stream
/// reproducible across thread counts and machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Record {
    /// Boundary marker: the records that follow (until the next `Task`)
    /// came from `par_map` task `index`. Emitted only for tasks that
    /// recorded something.
    Task {
        /// The task's `par_map` index.
        index: u64,
    },
    /// A span opened (`value` is the span's entry annotation, e.g. the
    /// planned horizon).
    Enter {
        /// Static span name, `[a-z0-9._]`.
        name: &'static str,
        /// Entry annotation.
        value: u64,
    },
    /// A span closed (`value` is the exit annotation, e.g. rounds actually
    /// executed).
    Exit {
        /// Static span name, `[a-z0-9._]`.
        name: &'static str,
        /// Exit annotation.
        value: u64,
    },
    /// A point event.
    Event {
        /// Static event name, `[a-z0-9._]`.
        name: &'static str,
        /// Event annotation (e.g. a candidate index or round).
        value: u64,
    },
}

thread_local! {
    /// The active task buffer, if this thread is inside `task_capture`.
    /// Emissions land here; otherwise they go straight to the file sink.
    static TASK_BUF: RefCell<Option<Vec<Record>>> = const { RefCell::new(None) };
}

/// Routes one record: into the active task buffer if there is one, else to
/// the file sink. Callers have already checked [`enabled`].
fn emit(rec: Record) {
    let routed = TASK_BUF.with(|b| match b.borrow_mut().as_mut() {
        Some(buf) => {
            buf.push(rec);
            true
        }
        None => false,
    });
    if !routed {
        let mut line = render_record(&rec);
        line.push('\n');
        sink_write(&line);
    }
}

/// Emits a point event if recording is enabled. Prefer the
/// [`obs_event!`](crate::obs_event) macro, which hoists the enabled check
/// around argument evaluation.
#[inline]
pub fn event(name: &'static str, value: u64) {
    if enabled() {
        emit(Record::Event { name, value });
    }
}

/// Runs `f` with a fresh task buffer installed on this thread, returning
/// its result and every record it emitted. Nests: records captured here do
/// not leak into an enclosing buffer until [`flush_task`] re-emits them.
pub fn task_capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Record>) {
    struct Restore {
        prev: Option<Option<Vec<Record>>>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.prev.take() {
                TASK_BUF.with(|b| *b.borrow_mut() = prev);
            }
        }
    }
    let prev = TASK_BUF.with(|b| b.borrow_mut().replace(Vec::new()));
    let mut restore = Restore { prev: Some(prev) };
    let value = f();
    let records = TASK_BUF.with(|b| {
        let mut slot = b.borrow_mut();
        let records = slot.take().unwrap_or_default();
        *slot = restore.prev.take().unwrap_or(None);
        records
    });
    (value, records)
}

/// Re-emits a task's captured records behind a [`Record::Task`] boundary
/// marker. `par_map` calls this in **index order** after its result merge,
/// on both the sequential and parallel paths, so the downstream stream is
/// identical at any thread count. Empty captures are skipped entirely — a
/// task that recorded nothing leaves no marker.
pub fn flush_task(index: u64, records: Vec<Record>) {
    if records.is_empty() {
        return;
    }
    let routed = TASK_BUF.with(|b| match b.borrow_mut().as_mut() {
        Some(buf) => {
            buf.push(Record::Task { index });
            buf.extend(records.iter().copied());
            true
        }
        None => false,
    });
    if routed {
        return;
    }
    let mut payload = render_record(&Record::Task { index });
    payload.push('\n');
    for rec in &records {
        payload.push_str(&render_record(rec));
        payload.push('\n');
    }
    sink_write(&payload);
}

/// Collects every record emitted by `f` (and by `par_map` tasks it spawns)
/// into an in-memory buffer on the calling thread, forcing [`enabled`] on
/// for the duration. The intended consumer is tests: no environment
/// variable, no file, and no cross-test pollution — records from other
/// threads that are not inside their own capture fall through to the file
/// sink (typically absent) instead of this buffer.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Record>) {
    CAPTURES.fetch_add(1, Ordering::SeqCst);
    struct Dec;
    impl Drop for Dec {
        fn drop(&mut self) {
            CAPTURES.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _dec = Dec;
    task_capture(f)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A RAII span: emits [`Record::Enter`] on construction (when enabled) and
/// [`Record::Exit`] on drop, with an exit annotation settable mid-flight.
#[must_use = "a span records its exit when dropped"]
pub struct Span {
    name: &'static str,
    exit: u64,
    armed: bool,
}

/// Opens a span named `name` with entry annotation `enter` (e.g. the
/// planned horizon). When recording is disabled this is two relaxed loads
/// and a trivially-constructed guard.
#[inline]
pub fn span(name: &'static str, enter: u64) -> Span {
    if !enabled() {
        return Span { name, exit: 0, armed: false };
    }
    emit(Record::Enter { name, value: enter });
    Span { name, exit: 0, armed: true }
}

impl Span {
    /// Sets the exit annotation emitted when the span drops (e.g. rounds
    /// actually executed).
    #[inline]
    pub fn set_exit(&mut self, value: u64) {
        self.exit = value;
    }

    /// Whether this span is actually recording.
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            emit(Record::Exit { name: self.name, value: self.exit });
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Determinism classification of a metric (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Workload-determined: totals are equal at any `GOC_THREADS`;
    /// exported to the trace file by [`flush_metrics`].
    Deterministic,
    /// Process-level observation (buffer-pool effectiveness, worker
    /// spawns): legitimately varies with scheduling; never exported to the
    /// trace file.
    Process,
}

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A high-water gauge: [`Gauge::max`] ratchets upward, [`Gauge::set`]
/// overwrites.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Ratchets the gauge up to at least `v`.
    #[inline]
    pub fn max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucket count: bucket `i` holds values whose bit length is
/// `i` (bucket 0 is the value 0), so 65 buckets cover all of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram with exact count and sum.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Index of the bucket `v` falls into (its bit length).
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation.
    ///
    /// The sum accumulates *saturating*: once the total reaches `u64::MAX`
    /// it pins there instead of silently wrapping (large recorded values —
    /// fuel totals, byte counts — could otherwise export a nonsense `sum`).
    /// A saturated sum is detectable via [`Histogram::saturated`] and marked
    /// in the JSONL export.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self.sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `true` once the sum has saturated at `u64::MAX`. (A genuine sum of
    /// exactly `u64::MAX` also reports saturated — at that magnitude the
    /// distinction is moot and the flag errs on the side of distrust.)
    pub fn saturated(&self) -> bool {
        self.sum() == u64::MAX
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = b.load(Ordering::Relaxed);
                (v > 0).then_some((i as u32, v))
            })
            .collect()
    }
}

/// The static registry. Handles are `Box::leak`'d so callsites can cache
/// `&'static` references (see the `obs_count!` macro); metrics live for
/// the process, which is the correct lifetime for a metrics registry.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, (Scope, &'static Counter)>>,
    gauges: Mutex<BTreeMap<&'static str, (Scope, &'static Gauge)>>,
    histograms: Mutex<BTreeMap<&'static str, (Scope, &'static Histogram)>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

fn lock_sink() -> std::sync::MutexGuard<'static, Sink> {
    recover(SINK.lock())
}

/// Registers (or fetches) the counter `name`. The first registration fixes
/// the scope; later callers get the existing handle.
pub fn counter(name: &'static str, scope: Scope) -> &'static Counter {
    debug_assert!(name_is_safe(name), "metric name {name:?} must be [a-z0-9._]");
    recover(registry().counters.lock())
        .entry(name)
        .or_insert_with(|| (scope, Box::leak(Box::default())))
        .1
}

/// Registers (or fetches) the gauge `name`.
pub fn gauge(name: &'static str, scope: Scope) -> &'static Gauge {
    debug_assert!(name_is_safe(name), "metric name {name:?} must be [a-z0-9._]");
    recover(registry().gauges.lock())
        .entry(name)
        .or_insert_with(|| (scope, Box::leak(Box::default())))
        .1
}

/// Registers (or fetches) the histogram `name`.
pub fn histogram(name: &'static str, scope: Scope) -> &'static Histogram {
    debug_assert!(name_is_safe(name), "metric name {name:?} must be [a-z0-9._]");
    recover(registry().histograms.lock())
        .entry(name)
        .or_insert_with(|| (scope, Box::leak(Box::new(Histogram::new()))))
        .1
}

fn name_is_safe(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_')
}

/// Flat snapshot of every registered metric in `scope` (or all scopes when
/// `None`), sorted by name. Histograms flatten to `name.count` and
/// `name.sum` entries. Tests diff two snapshots to get per-run deltas;
/// counters and histogram fields are monotone, so deltas are well-defined.
pub fn metrics_snapshot(scope: Option<Scope>) -> Vec<(String, u64)> {
    let keep = |s: Scope| scope.is_none() || scope == Some(s);
    let mut out = Vec::new();
    for (name, &(s, c)) in recover(registry().counters.lock()).iter() {
        if keep(s) {
            out.push((name.to_string(), c.get()));
        }
    }
    for (name, &(s, g)) in recover(registry().gauges.lock()).iter() {
        if keep(s) {
            out.push((name.to_string(), g.get()));
        }
    }
    for (name, &(s, h)) in recover(registry().histograms.lock()).iter() {
        if keep(s) {
            out.push((format!("{name}.count"), h.count()));
            out.push((format!("{name}.sum"), h.sum()));
        }
    }
    out.sort();
    out
}

/// Appends every **deterministic** metric to the trace file as
/// `{"k":"metric",...}` lines, sorted by name. Process-scoped metrics are
/// deliberately excluded so the exported trace stays byte-identical across
/// thread counts. No-op unless `GOC_TRACE` is active.
pub fn flush_metrics() {
    if STATE.load(Ordering::Relaxed) != STATE_ON {
        return;
    }
    let mut lines: Vec<(String, String)> = Vec::new();
    for (name, &(s, c)) in recover(registry().counters.lock()).iter() {
        if s == Scope::Deterministic {
            let v = c.get();
            lines.push((name.to_string(), format!("{{\"k\":\"metric\",\"t\":\"counter\",\"n\":\"{name}\",\"v\":{v}}}\n")));
        }
    }
    for (name, &(s, g)) in recover(registry().gauges.lock()).iter() {
        if s == Scope::Deterministic {
            let v = g.get();
            lines.push((name.to_string(), format!("{{\"k\":\"metric\",\"t\":\"gauge\",\"n\":\"{name}\",\"v\":{v}}}\n")));
        }
    }
    for (name, &(s, h)) in recover(registry().histograms.lock()).iter() {
        if s == Scope::Deterministic {
            // A saturated sum is a measurement failure worth failing loudly
            // on in debug runs; release exports mark the line instead so
            // downstream tooling never mistakes the pinned sum for exact.
            debug_assert!(
                !h.saturated(),
                "histogram {name} sum saturated at u64::MAX — recorded values overflow the export"
            );
            let buckets: Vec<String> =
                h.nonzero_buckets().iter().map(|(i, c)| format!("{i}:{c}")).collect();
            let saturated = if h.saturated() { ",\"saturated\":true" } else { "" };
            lines.push((
                name.to_string(),
                format!(
                    "{{\"k\":\"metric\",\"t\":\"hist\",\"n\":\"{name}\",\"count\":{},\"sum\":{},\"buckets\":\"{}\"{saturated}}}\n",
                    h.count(),
                    h.sum(),
                    buckets.join(",")
                ),
            ));
        }
    }
    lines.sort();
    let payload: String = lines.into_iter().map(|(_, l)| l).collect();
    sink_write(&payload);
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Bumps a [`Scope::Deterministic`] counter. The registry lookup happens
/// once per callsite (cached in a `OnceLock`); the steady-state cost when
/// enabled is one relaxed `fetch_add`.
#[macro_export]
macro_rules! obs_count {
    ($name:literal, $n:expr) => {
        if $crate::obs::enabled() {
            static SLOT: ::std::sync::OnceLock<&'static $crate::obs::Counter> =
                ::std::sync::OnceLock::new();
            SLOT.get_or_init(|| $crate::obs::counter($name, $crate::obs::Scope::Deterministic))
                .add(($n) as u64);
        }
    };
}

/// Bumps a [`Scope::Process`] counter (pool effectiveness — values
/// that legitimately vary with scheduling and stay out of the trace file).
#[macro_export]
macro_rules! obs_count_nd {
    ($name:literal, $n:expr) => {
        if $crate::obs::enabled() {
            static SLOT: ::std::sync::OnceLock<&'static $crate::obs::Counter> =
                ::std::sync::OnceLock::new();
            SLOT.get_or_init(|| $crate::obs::counter($name, $crate::obs::Scope::Process))
                .add(($n) as u64);
        }
    };
}

/// Ratchets a [`Scope::Process`] high-water gauge.
#[macro_export]
macro_rules! obs_gauge_max_nd {
    ($name:literal, $v:expr) => {
        if $crate::obs::enabled() {
            static SLOT: ::std::sync::OnceLock<&'static $crate::obs::Gauge> =
                ::std::sync::OnceLock::new();
            SLOT.get_or_init(|| $crate::obs::gauge($name, $crate::obs::Scope::Process))
                .max(($v) as u64);
        }
    };
}

/// Records into a [`Scope::Deterministic`] histogram.
#[macro_export]
macro_rules! obs_hist {
    ($name:literal, $v:expr) => {
        if $crate::obs::enabled() {
            static SLOT: ::std::sync::OnceLock<&'static $crate::obs::Histogram> =
                ::std::sync::OnceLock::new();
            SLOT.get_or_init(|| $crate::obs::histogram($name, $crate::obs::Scope::Deterministic))
                .record(($v) as u64);
        }
    };
}

/// Emits a point [`Record::Event`]; arguments are not evaluated when
/// recording is disabled.
#[macro_export]
macro_rules! obs_event {
    ($name:literal, $v:expr) => {
        if $crate::obs::enabled() {
            $crate::obs::event($name, ($v) as u64);
        }
    };
}

// ---------------------------------------------------------------------------
// File sink
// ---------------------------------------------------------------------------

enum Sink {
    /// No trace file configured (or it failed to open).
    Off,
    /// `GOC_TRACE` named this path; opened lazily on first write.
    Unopened(PathBuf),
    Open(File),
}

static SINK: Mutex<Sink> = Mutex::new(Sink::Off);

/// Appends `payload` (one or more complete lines) to the trace file with a
/// single `write_all` — the same append discipline as the bench harness,
/// so concurrent appenders interleave whole batches, never partial lines.
fn sink_write(payload: &str) {
    if payload.is_empty() {
        return;
    }
    let mut sink = lock_sink();
    if let Sink::Unopened(path) = &*sink {
        let path = path.clone();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        match OpenOptions::new().create(true).append(true).open(&path) {
            Ok(f) => *sink = Sink::Open(f),
            Err(e) => {
                eprintln!("GOC_TRACE: cannot open {}: {e}", path.display());
                *sink = Sink::Off;
            }
        }
    }
    if let Sink::Open(f) = &mut *sink {
        let _ = f.write_all(payload.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// JSONL render / parse
// ---------------------------------------------------------------------------

/// Renders one record as its flat-JSON trace line (no trailing newline).
pub fn render_record(rec: &Record) -> String {
    match rec {
        Record::Task { index } => format!("{{\"k\":\"task\",\"i\":{index}}}"),
        Record::Enter { name, value } => {
            format!("{{\"k\":\"enter\",\"n\":\"{name}\",\"v\":{value}}}")
        }
        Record::Exit { name, value } => {
            format!("{{\"k\":\"exit\",\"n\":\"{name}\",\"v\":{value}}}")
        }
        Record::Event { name, value } => {
            format!("{{\"k\":\"event\",\"n\":\"{name}\",\"v\":{value}}}")
        }
    }
}

/// A parsed trace line — the owned, reader-side mirror of [`Record`] plus
/// the metric lines [`flush_metrics`] appends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceLine {
    /// `{"k":"task",...}`
    Task {
        /// Task index.
        index: u64,
    },
    /// `{"k":"enter",...}`
    Enter {
        /// Span name.
        name: String,
        /// Entry annotation.
        value: u64,
    },
    /// `{"k":"exit",...}`
    Exit {
        /// Span name.
        name: String,
        /// Exit annotation.
        value: u64,
    },
    /// `{"k":"event",...}`
    Event {
        /// Event name.
        name: String,
        /// Event annotation.
        value: u64,
    },
    /// `{"k":"metric","t":"counter"|"gauge",...}`
    Metric {
        /// Metric name.
        name: String,
        /// `"counter"` or `"gauge"`.
        kind: String,
        /// Exported value.
        value: u64,
    },
    /// `{"k":"metric","t":"hist",...}`
    Hist {
        /// Histogram name.
        name: String,
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: u64,
        /// Non-empty `(bucket, count)` pairs.
        buckets: Vec<(u32, u64)>,
        /// `true` when the exporter marked the sum as saturated at
        /// `u64::MAX` (see [`Histogram::saturated`]): the sum is a floor,
        /// not an exact total.
        saturated: bool,
    },
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    // Writer-controlled flat JSON: values contain no escapes or nesting,
    // so a plain scan is exact (same stance as the testkit JSONL parser).
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses one trace line **strictly**; `None` on anything this module didn't
/// write, including histogram lines with any malformed `buckets` pair.
pub fn parse_line(line: &str) -> Option<TraceLine> {
    parse_line_lenient(line).and_then(|(parsed, skipped)| (skipped == 0).then_some(parsed))
}

/// Parses one trace line, tolerating malformed `buckets` pairs in histogram
/// lines: bad pairs are dropped individually and *counted* instead of
/// poisoning the whole metric. Returns the parsed line plus the number of
/// pairs skipped (always 0 for non-histogram lines); `None` for lines this
/// module didn't write at all.
///
/// Trace readers that report coverage (`goc-trace --trace-summary`) use this
/// so corruption is surfaced, never silently absorbed.
pub fn parse_line_lenient(line: &str) -> Option<(TraceLine, usize)> {
    let line = line.trim();
    let parsed = match str_field(line, "k")? {
        "task" => TraceLine::Task { index: u64_field(line, "i")? },
        "enter" => TraceLine::Enter {
            name: str_field(line, "n")?.to_string(),
            value: u64_field(line, "v")?,
        },
        "exit" => TraceLine::Exit {
            name: str_field(line, "n")?.to_string(),
            value: u64_field(line, "v")?,
        },
        "event" => TraceLine::Event {
            name: str_field(line, "n")?.to_string(),
            value: u64_field(line, "v")?,
        },
        "metric" => {
            let name = str_field(line, "n")?.to_string();
            match str_field(line, "t")? {
                "hist" => {
                    let raw = str_field(line, "buckets")?;
                    let mut buckets = Vec::new();
                    let mut skipped = 0usize;
                    for pair in raw.split(',').filter(|p| !p.is_empty()) {
                        match pair
                            .split_once(':')
                            .and_then(|(i, c)| Some((i.parse().ok()?, c.parse().ok()?)))
                        {
                            Some(entry) => buckets.push(entry),
                            None => skipped += 1,
                        }
                    }
                    let hist = TraceLine::Hist {
                        name,
                        count: u64_field(line, "count")?,
                        sum: u64_field(line, "sum")?,
                        buckets,
                        saturated: line.contains("\"saturated\":true"),
                    };
                    return Some((hist, skipped));
                }
                kind @ ("counter" | "gauge") => TraceLine::Metric {
                    name,
                    kind: kind.to_string(),
                    value: u64_field(line, "v")?,
                },
                _ => return None,
            }
        }
        _ => return None,
    };
    Some((parsed, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{par_map, with_thread_count};

    #[test]
    fn disabled_by_default_outside_captures() {
        // GOC_TRACE is unset under `cargo test` (ci.sh never sets it for
        // test runs), so the recorder must stay off.
        if std::env::var("GOC_TRACE").is_ok() {
            return;
        }
        assert!(!enabled());
        // And emission sites are inert: no panic, no state.
        event("obs.test.inert", 1);
        let mut s = span("obs.test.inert_span", 9);
        assert!(!s.is_armed());
        s.set_exit(3);
    }

    #[test]
    fn capture_records_spans_and_events_in_order() {
        let ((), records) = capture(|| {
            let mut s = span("obs.test.outer", 10);
            event("obs.test.point", 7);
            s.set_exit(42);
        });
        assert_eq!(
            records,
            vec![
                Record::Enter { name: "obs.test.outer", value: 10 },
                Record::Event { name: "obs.test.point", value: 7 },
                Record::Exit { name: "obs.test.outer", value: 42 },
            ]
        );
    }

    #[test]
    fn task_capture_nests_and_restores() {
        let ((), outer) = capture(|| {
            event("obs.test.before", 1);
            let ((), inner) = task_capture(|| event("obs.test.inner", 2));
            assert_eq!(inner, vec![Record::Event { name: "obs.test.inner", value: 2 }]);
            flush_task(5, inner);
            event("obs.test.after", 3);
        });
        assert_eq!(
            outer,
            vec![
                Record::Event { name: "obs.test.before", value: 1 },
                Record::Task { index: 5 },
                Record::Event { name: "obs.test.inner", value: 2 },
                Record::Event { name: "obs.test.after", value: 3 },
            ]
        );
    }

    #[test]
    fn par_map_merges_task_records_in_index_order() {
        let run = |threads: usize| {
            capture(|| {
                with_thread_count(threads, || {
                    par_map(16, |i| {
                        // Uneven work so parallel completion order differs
                        // from index order.
                        for _ in 0..(i % 5) * 200 {
                            std::hint::black_box(i);
                        }
                        event("obs.test.task_event", i as u64);
                        i
                    })
                })
            })
        };
        let (seq_out, seq_records) = run(1);
        let (par_out, par_records) = run(4);
        assert_eq!(seq_out, par_out);
        assert_eq!(seq_records, par_records);
        // One Task marker per task, strictly ascending.
        let tasks: Vec<u64> = seq_records
            .iter()
            .filter_map(|r| match r {
                Record::Task { index } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(tasks, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn silent_tasks_leave_no_marker() {
        let (_, records) = capture(|| {
            with_thread_count(4, || {
                par_map(8, |i| {
                    if i == 3 {
                        event("obs.test.only_three", i as u64);
                    }
                    i
                })
            })
        });
        assert_eq!(
            records,
            vec![
                Record::Task { index: 3 },
                Record::Event { name: "obs.test.only_three", value: 3 },
            ]
        );
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let c = counter("obs.test.counter", Scope::Deterministic);
        let before = c.get();
        c.add(3);
        assert_eq!(c.get(), before + 3);
        // Same name returns the same handle regardless of requested scope.
        assert!(std::ptr::eq(c, counter("obs.test.counter", Scope::Process)));

        let g = gauge("obs.test.gauge", Scope::Process);
        g.set(5);
        g.max(3);
        assert_eq!(g.get(), 5);
        g.max(11);
        assert_eq!(g.get(), 11);

        let h = histogram("obs.test.hist", Scope::Deterministic);
        let (c0, s0) = (h.count(), h.sum());
        h.record(0);
        h.record(1);
        h.record(1000);
        assert_eq!(h.count() - c0, 3);
        assert_eq!(h.sum() - s0, 1001);
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(1000), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn snapshot_separates_scopes() {
        counter("obs.test.det_only", Scope::Deterministic).add(1);
        counter("obs.test.nd_only", Scope::Process).add(1);
        let det = metrics_snapshot(Some(Scope::Deterministic));
        let nd = metrics_snapshot(Some(Scope::Process));
        assert!(det.iter().any(|(n, _)| n == "obs.test.det_only"));
        assert!(det.iter().all(|(n, _)| n != "obs.test.nd_only"));
        assert!(nd.iter().any(|(n, _)| n == "obs.test.nd_only"));
        let all = metrics_snapshot(None);
        assert!(all.len() >= det.len() + nd.len());
        // Sorted by name, so snapshots diff positionally.
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn render_parse_roundtrip() {
        let records = [
            Record::Task { index: 12 },
            Record::Enter { name: "exec.run", value: 500 },
            Record::Exit { name: "exec.run", value: 212 },
            Record::Event { name: "universal.spawn", value: 7 },
        ];
        for rec in &records {
            let line = render_record(rec);
            let parsed = parse_line(&line).expect("parses");
            let expected = match rec {
                Record::Task { index } => TraceLine::Task { index: *index },
                Record::Enter { name, value } => {
                    TraceLine::Enter { name: name.to_string(), value: *value }
                }
                Record::Exit { name, value } => {
                    TraceLine::Exit { name: name.to_string(), value: *value }
                }
                Record::Event { name, value } => {
                    TraceLine::Event { name: name.to_string(), value: *value }
                }
            };
            assert_eq!(parsed, expected);
        }
    }

    #[test]
    fn parse_metric_lines() {
        assert_eq!(
            parse_line(r#"{"k":"metric","t":"counter","n":"exec.rounds","v":99}"#),
            Some(TraceLine::Metric {
                name: "exec.rounds".into(),
                kind: "counter".into(),
                value: 99
            })
        );
        assert_eq!(
            parse_line(r#"{"k":"metric","t":"hist","n":"exec.run.rounds","count":2,"sum":30,"buckets":"4:1,5:1"}"#),
            Some(TraceLine::Hist {
                name: "exec.run.rounds".into(),
                count: 2,
                sum: 30,
                buckets: vec![(4, 1), (5, 1)],
                saturated: false,
            })
        );
        assert_eq!(parse_line("not json"), None);
        assert_eq!(parse_line(r#"{"k":"mystery"}"#), None);
    }

    #[test]
    fn parse_hist_saturated_marker() {
        let line = r#"{"k":"metric","t":"hist","n":"h","count":3,"sum":18446744073709551615,"buckets":"64:3","saturated":true}"#;
        match parse_line(line) {
            Some(TraceLine::Hist { sum, saturated, .. }) => {
                assert_eq!(sum, u64::MAX);
                assert!(saturated);
            }
            other => panic!("expected hist, got {other:?}"),
        }
    }

    #[test]
    fn parse_line_lenient_counts_bad_bucket_pairs() {
        let line = r#"{"k":"metric","t":"hist","n":"h","count":5,"sum":50,"buckets":"4:1,garbage,5:2,9:"}"#;
        // Strict parsing rejects the whole line...
        assert_eq!(parse_line(line), None);
        // ...lenient parsing keeps the good pairs and counts the bad ones.
        let (parsed, skipped) = parse_line_lenient(line).expect("line shape is valid");
        assert_eq!(skipped, 2);
        match parsed {
            TraceLine::Hist { buckets, count, sum, .. } => {
                assert_eq!(buckets, vec![(4, 1), (5, 2)]);
                assert_eq!((count, sum), (5, 50));
            }
            other => panic!("expected hist, got {other:?}"),
        }
        // Non-histogram lines always report zero skips.
        let (_, skipped) =
            parse_line_lenient(r#"{"k":"event","n":"e","v":1}"#).expect("valid event");
        assert_eq!(skipped, 0);
        assert_eq!(parse_line_lenient("not json"), None);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = histogram("obs.test.saturating_hist", Scope::Process);
        h.record(u64::MAX - 10);
        assert!(!h.saturated());
        assert_eq!(h.sum(), u64::MAX - 10);
        // One more near-max value would wrap a fetch_add; it must pin.
        h.record(u64::MAX - 3);
        assert!(h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        // Further records stay pinned and keep counting.
        h.record(7);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn macros_compile_and_count_under_capture() {
        let ((), records) = capture(|| {
            crate::obs_count!("obs.test.macro_counter", 2u64);
            crate::obs_count_nd!("obs.test.macro_nd", 1usize);
            crate::obs_hist!("obs.test.macro_hist", 7u64);
            crate::obs_gauge_max_nd!("obs.test.macro_gauge", 9usize);
            crate::obs_event!("obs.test.macro_event", 4u64);
        });
        assert_eq!(records, vec![Record::Event { name: "obs.test.macro_event", value: 4 }]);
        let all = metrics_snapshot(None);
        for name in
            ["obs.test.macro_counter", "obs.test.macro_nd", "obs.test.macro_gauge"]
        {
            assert!(all.iter().any(|(n, v)| n == name && *v > 0), "{name} missing: {all:?}");
        }
        assert!(all.iter().any(|(n, v)| n == "obs.test.macro_hist.sum" && *v >= 7));
    }

    #[test]
    fn capture_is_panic_safe() {
        let before = CAPTURES.load(Ordering::SeqCst);
        let result = std::panic::catch_unwind(|| {
            capture(|| {
                event("obs.test.doomed", 1);
                panic!("boom");
            })
        });
        assert!(result.is_err());
        assert_eq!(CAPTURES.load(Ordering::SeqCst), before);
        // The thread-local buffer was restored: a fresh capture starts empty.
        let ((), records) = capture(|| event("obs.test.fresh", 2));
        assert_eq!(records, vec![Record::Event { name: "obs.test.fresh", value: 2 }]);
    }
}
