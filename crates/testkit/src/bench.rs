//! In-tree bench timing: warmup + N samples + median/p95, JSON lines out.
//!
//! The replacement for the criterion dependency. Each `[[bench]]` target
//! (with `harness = false`) builds a [`Bench`] group, times closures with
//! [`Bench::bench`], and prints one human line plus one JSON line per
//! benchmark. JSON lines are appended to `target/goc-bench.jsonl` (override
//! with `GOC_BENCH_JSON`, disable with `GOC_BENCH_JSON=-`) and are consumed
//! by `goc-report --bench-summary`.
//!
//! Environment knobs: `GOC_BENCH_SAMPLES`, `GOC_BENCH_WARMUP`,
//! `GOC_BENCH_QUICK=1` (3 samples, 1 warmup — CI smoke).

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

/// Resolves the default JSON-lines path: `goc-bench.jsonl` inside the cargo
/// target directory. Bench binaries run with the *package* directory as cwd
/// while `goc-report` runs from wherever the user invoked it, so a relative
/// path would scatter files; anchoring on the running binary's own `target`
/// ancestor makes writer and reader agree regardless of cwd.
pub fn default_json_path() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return std::path::Path::new(&dir).join("goc-bench.jsonl");
    }
    if let Ok(exe) = std::env::current_exe() {
        for anc in exe.ancestors() {
            if anc.file_name().is_some_and(|n| n == "target") {
                return anc.join("goc-bench.jsonl");
            }
        }
    }
    std::path::PathBuf::from("target/goc-bench.jsonl")
}

/// One benchmark's measured statistics. All times are nanoseconds per
/// iteration of the benched closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Bench group (one per `[[bench]]` target, e.g. `e1_compact_universal`).
    pub group: String,
    /// Benchmark id within the group (e.g. `classic/3`).
    pub id: String,
    /// Number of timed samples.
    pub samples: u64,
    /// Iterations of the closure per sample.
    pub iters: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Median sample.
    pub median_ns: u64,
    /// 95th-percentile sample.
    pub p95_ns: u64,
    /// Mean over samples.
    pub mean_ns: u64,
    /// Optional throughput denominator (elements processed per iteration).
    pub elems: Option<u64>,
    /// Worker threads the benched code ran with (parallel-variant benches).
    pub threads: Option<u64>,
    /// Heap allocations per iteration (steady state: minimum over probe
    /// passes), when the harness was built with the
    /// `count-allocs` feature. See [`crate::alloc_count`].
    pub allocs: Option<u64>,
    /// Peak live heap bytes above the pre-batch level during one probe batch
    /// (minimum over probe passes — the steady-state footprint), when built
    /// with `count-allocs`. See [`crate::alloc_count::peak_bytes`].
    pub peak_bytes: Option<u64>,
    /// Interpreter core the bench ran on (JSONL key `dispatch.mode`):
    /// `"table"` or `"match"`.
    pub dispatch: Option<String>,
}

impl BenchRecord {
    /// Serialises to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"group\":{},\"id\":{},\"samples\":{},\"iters\":{},\"min_ns\":{},\"median_ns\":{},\"p95_ns\":{},\"mean_ns\":{}",
            json_string(&self.group),
            json_string(&self.id),
            self.samples,
            self.iters,
            self.min_ns,
            self.median_ns,
            self.p95_ns,
            self.mean_ns,
        );
        if let Some(e) = self.elems {
            let _ = write!(s, ",\"elems\":{e}");
        }
        if let Some(t) = self.threads {
            let _ = write!(s, ",\"threads\":{t}");
        }
        if let Some(a) = self.allocs {
            let _ = write!(s, ",\"allocs\":{a}");
        }
        if let Some(p) = self.peak_bytes {
            let _ = write!(s, ",\"peak_bytes\":{p}");
        }
        if let Some(d) = &self.dispatch {
            let _ = write!(s, ",\"dispatch.mode\":{}", json_string(d));
        }
        s.push('}');
        s
    }

    /// Parses a line produced by [`to_json_line`](Self::to_json_line).
    /// Accepts any flat JSON object with string/unsigned-integer values;
    /// returns `None` on malformed input or missing fields.
    pub fn parse_json_line(line: &str) -> Option<BenchRecord> {
        let fields = parse_flat_object(line)?;
        let get_s = |k: &str| {
            fields.iter().find(|(key, _)| key == k).and_then(|(_, v)| match v {
                JsonValue::Str(s) => Some(s.clone()),
                JsonValue::Num(_) => None,
            })
        };
        let get_n = |k: &str| {
            fields.iter().find(|(key, _)| key == k).and_then(|(_, v)| match v {
                JsonValue::Num(n) => Some(*n),
                JsonValue::Str(_) => None,
            })
        };
        Some(BenchRecord {
            group: get_s("group")?,
            id: get_s("id")?,
            samples: get_n("samples")?,
            iters: get_n("iters")?,
            min_ns: get_n("min_ns")?,
            median_ns: get_n("median_ns")?,
            p95_ns: get_n("p95_ns")?,
            mean_ns: get_n("mean_ns")?,
            elems: get_n("elems"),
            threads: get_n("threads"),
            allocs: get_n("allocs"),
            peak_bytes: get_n("peak_bytes"),
            dispatch: get_s("dispatch.mode"),
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(u64),
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal parser for a single-line flat JSON object with string and
/// unsigned-integer values — exactly the dialect [`BenchRecord`] emits.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut chars = line.trim().chars().peekable();
    let mut out = Vec::new();
    if chars.next()? != '{' {
        return None;
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            '"' => {
                let key = parse_string(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next()? != ':' {
                    return None;
                }
                skip_ws(&mut chars);
                let value = match chars.peek()? {
                    '"' => JsonValue::Str(parse_string(&mut chars)?),
                    c if c.is_ascii_digit() => {
                        let mut n = String::new();
                        while let Some(c) = chars.peek() {
                            if c.is_ascii_digit() {
                                n.push(*c);
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        JsonValue::Num(n.parse().ok()?)
                    }
                    _ => return None,
                };
                out.push((key, value));
                skip_ws(&mut chars);
                match chars.peek()? {
                    ',' => {
                        chars.next();
                    }
                    '}' => {}
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Renders a byte quantity with a sensible unit (binary prefixes).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Renders a nanosecond quantity with a sensible unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Optional per-benchmark annotations carried into the JSONL record.
///
/// Used by the parallel-variant benches (thread count) and the dispatch
/// benches (interpreter core label).
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchMeta {
    /// Throughput denominator, as in [`Bench::bench_elems`].
    pub elems: Option<u64>,
    /// Worker threads the benched code runs with.
    pub threads: Option<u64>,
    /// Explicit allocations-per-iteration override. When `None` and the
    /// `count-allocs` feature is on, the harness measures it itself.
    pub allocs: Option<u64>,
    /// Explicit peak-bytes override. When `None` and `count-allocs` is on,
    /// the harness measures it alongside the allocation probe.
    pub peak_bytes: Option<u64>,
    /// Interpreter core label (`"table"` / `"match"`). `&'static str` so the
    /// meta stays `Copy`.
    pub dispatch: Option<&'static str>,
}

/// A benchmark group: times closures and reports per-iteration statistics.
pub struct Bench {
    group: String,
    samples: u64,
    warmup: u64,
    /// Target wall time per sample; the harness batches fast closures so a
    /// sample is long enough for the clock to resolve.
    min_sample_ns: u128,
    sink: Option<std::fs::File>,
    records: Vec<BenchRecord>,
}

impl Bench {
    /// Opens a bench group, honouring the `GOC_BENCH_*` environment knobs.
    pub fn group(name: &str) -> Self {
        let quick = std::env::var("GOC_BENCH_QUICK").map(|v| v != "0").unwrap_or(false);
        let samples = env_u64("GOC_BENCH_SAMPLES").unwrap_or(if quick { 3 } else { 12 }).max(1);
        let warmup = env_u64("GOC_BENCH_WARMUP").unwrap_or(if quick { 1 } else { 3 });
        let path = std::env::var("GOC_BENCH_JSON")
            .unwrap_or_else(|_| default_json_path().to_string_lossy().into_owned());
        let sink = if path == "-" {
            None
        } else {
            if let Some(dir) = std::path::Path::new(&path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
                Ok(f) => Some(f),
                Err(e) => {
                    eprintln!("goc-bench: cannot open {path}: {e}; JSON lines go to stdout only");
                    None
                }
            }
        };
        println!("\n== {name} ==");
        Bench {
            group: name.to_string(),
            samples,
            warmup,
            min_sample_ns: if quick { 1_000_000 } else { 10_000_000 },
            sink,
            records: Vec::new(),
        }
    }

    /// Overrides the sample count (the env knobs still win if set).
    pub fn samples(mut self, n: u64) -> Self {
        if std::env::var("GOC_BENCH_SAMPLES").is_err()
            && std::env::var("GOC_BENCH_QUICK").is_err()
        {
            self.samples = n.max(1);
        }
        self
    }

    /// Times `f`, recording per-iteration statistics under `id`.
    pub fn bench<R>(&mut self, id: impl Into<String>, f: impl FnMut() -> R) {
        self.run(id.into(), BenchMeta::default(), f);
    }

    /// Like [`bench`](Self::bench), recording that each iteration processes
    /// `elems` elements so the summary can show throughput.
    pub fn bench_elems<R>(&mut self, id: impl Into<String>, elems: u64, f: impl FnMut() -> R) {
        self.run(id.into(), BenchMeta { elems: Some(elems), ..BenchMeta::default() }, f);
    }

    /// Like [`bench`](Self::bench), attaching the [`BenchMeta`] annotations
    /// to the record.
    pub fn bench_tagged<R>(
        &mut self,
        id: impl Into<String>,
        meta: BenchMeta,
        f: impl FnMut() -> R,
    ) {
        self.run(id.into(), meta, f);
    }

    fn run<R>(&mut self, id: String, meta: BenchMeta, mut f: impl FnMut() -> R) {
        // Calibrate: batch enough iterations that one sample is measurable.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_nanos().max(1);
        let iters = ((self.min_sample_ns / once).clamp(1, 1_000_000)) as u64;

        for _ in 0..self.warmup {
            for _ in 0..iters {
                black_box(f());
            }
        }
        let mut per_iter_ns: Vec<u64> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() / iters as u128;
            per_iter_ns.push(ns.min(u64::MAX as u128) as u64);
        }
        // Allocation probe: after the timed passes (pools and scratch
        // buffers warm), measure allocator calls over whole batches and keep
        // the best batch — the steady-state allocs per iteration. The same
        // passes probe the heap high-water mark: reset the peak to the live
        // level before each batch and keep the smallest rise above it.
        let measure = meta.allocs.is_none() || meta.peak_bytes.is_none();
        let (mut best_allocs, mut best_peak) = (u64::MAX, u64::MAX);
        if measure && crate::alloc_count::enabled() {
            for _ in 0..3 {
                let before = crate::alloc_count::allocs();
                let floor = crate::alloc_count::live_bytes();
                crate::alloc_count::reset_peak();
                for _ in 0..iters {
                    black_box(f());
                }
                let delta = crate::alloc_count::allocs().saturating_sub(before);
                best_allocs = best_allocs.min(delta / iters);
                let rise = crate::alloc_count::peak_bytes().saturating_sub(floor);
                best_peak = best_peak.min(rise);
            }
        }
        let allocs = meta.allocs.or((best_allocs != u64::MAX).then_some(best_allocs));
        let peak_bytes = meta.peak_bytes.or((best_peak != u64::MAX).then_some(best_peak));

        per_iter_ns.sort_unstable();
        let n = per_iter_ns.len();
        let min_ns = per_iter_ns[0];
        let median_ns = per_iter_ns[n / 2];
        let p95_ns = percentile(&per_iter_ns, 95);
        let mean_ns = (per_iter_ns.iter().map(|&x| x as u128).sum::<u128>() / n as u128) as u64;

        let rec = BenchRecord {
            group: self.group.clone(),
            id,
            samples: self.samples,
            iters,
            min_ns,
            median_ns,
            p95_ns,
            mean_ns,
            elems: meta.elems,
            threads: meta.threads,
            allocs,
            peak_bytes,
            dispatch: meta.dispatch.map(str::to_string),
        };
        let mut line = format!(
            "{:<40} median {:>10}  p95 {:>10}  min {:>10}  ({} samples x {} iters)",
            format!("{}/{}", rec.group, rec.id),
            fmt_ns(rec.median_ns),
            fmt_ns(rec.p95_ns),
            fmt_ns(rec.min_ns),
            rec.samples,
            rec.iters
        );
        if let Some(e) = rec.elems {
            let per_elem = rec.median_ns as f64 / e as f64;
            let _ = write!(line, "  [{per_elem:.1} ns/elem]");
        }
        if let Some(t) = rec.threads {
            let _ = write!(line, "  [t={t}]");
        }
        if let Some(a) = rec.allocs {
            let _ = write!(line, "  [{a} allocs/iter]");
        }
        if let Some(p) = rec.peak_bytes {
            let _ = write!(line, "  [peak {}]", fmt_bytes(p));
        }
        if let Some(d) = &rec.dispatch {
            let _ = write!(line, "  [dispatch={d}]");
        }
        println!("{line}");
        let json = rec.to_json_line();
        if let Some(f) = &mut self.sink {
            // One write_all per record, newline included: several bench
            // binaries append to the same JSONL concurrently, and O_APPEND
            // only guarantees atomicity per write call — a write/writeln
            // pair could interleave and corrupt both lines.
            let _ = f.write_all(format!("{json}\n").as_bytes());
        } else {
            println!("{json}");
        }
        self.records.push(rec);
    }

    /// Results recorded so far (mainly for tests).
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Prints the closing line. Dropping the group without calling this is
    /// fine; it exists for symmetry with the criterion API it replaces.
    pub fn finish(self) {
        println!("-- {}: {} benchmarks done --", self.group, self.records.len());
    }
}

/// The `pct`-th percentile of an ascending-sorted sample, by linear
/// interpolation between closest ranks (the "type 7" estimator), computed in
/// exact integer arithmetic.
///
/// The previous nearest-rank rule (`ceil(n·0.95)`) degenerates for small
/// samples: for every `n < 20` the 95th percentile *is* the maximum, so a
/// single outlier sample polluted the reported p95 at typical bench sample
/// counts (10–16). Interpolating at rank `(n−1)·pct/100` never selects the
/// maximum for `p95` until `n` is large enough to support it
/// (`frac = 0` only when `(n−1)·pct % 100 == 0`).
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct > 100`.
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(pct <= 100, "percentile rank must be 0..=100");
    let n = sorted.len();
    let h_num = (n as u64 - 1) * pct as u64; // rank position, scaled by 100
    let idx = (h_num / 100) as usize;
    let frac = h_num % 100;
    let lo = sorted[idx];
    if frac == 0 {
        return lo;
    }
    let hi = sorted[idx + 1];
    lo + ((hi - lo) as u128 * frac as u128 / 100) as u64
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> BenchRecord {
        BenchRecord {
            group: "e9_substrate".into(),
            id: "exec_rounds/1000".into(),
            samples: 12,
            iters: 4,
            min_ns: 101,
            median_ns: 120,
            p95_ns: 200,
            mean_ns: 130,
            elems: Some(1000),
            threads: None,
            allocs: None,
            peak_bytes: None,
            dispatch: None,
        }
    }

    #[test]
    fn json_line_roundtrips() {
        let rec = sample_record();
        let parsed = BenchRecord::parse_json_line(&rec.to_json_line()).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn percentile_known_answers_small_n() {
        // data = 100, 200, ..., n·100 → type-7 p95 = 100·(1 + (n−1)·0.95)
        // = 95n + 5 exactly, for every n. Table-driven over the small-n
        // range where the old nearest-rank rule always returned the max.
        for n in 1..=25usize {
            let data: Vec<u64> = (1..=n as u64).map(|k| k * 100).collect();
            let expect = 95 * n as u64 + 5;
            assert_eq!(percentile(&data, 95), expect, "p95 at n={n}");
            // p0/p100 pin the ends; p50 matches the interpolated median.
            assert_eq!(percentile(&data, 0), 100, "p0 at n={n}");
            assert_eq!(percentile(&data, 100), n as u64 * 100, "p100 at n={n}");
            let expect_p50 = 50 * (n as u64 - 1) + 100;
            assert_eq!(percentile(&data, 50), expect_p50, "p50 at n={n}");
            // The defect under repair: p95 must not be the max for n ≥ 2.
            if n >= 2 {
                assert!(percentile(&data, 95) < data[n - 1], "p95 selected max at n={n}");
            }
        }
    }

    #[test]
    fn percentile_constant_sample_is_constant() {
        let data = [42u64; 17];
        for pct in [0, 1, 50, 95, 99, 100] {
            assert_eq!(percentile(&data, pct), 42);
        }
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7], 95), 7);
        assert_eq!(percentile(&[7], 0), 7);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 95);
    }

    #[test]
    fn json_line_roundtrips_with_threads() {
        let mut rec = sample_record();
        rec.threads = Some(4);
        let line = rec.to_json_line();
        assert!(line.contains("\"threads\":4"));
        let parsed = BenchRecord::parse_json_line(&line).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn json_line_roundtrips_with_allocs() {
        let mut rec = sample_record();
        rec.allocs = Some(0);
        let line = rec.to_json_line();
        assert!(line.contains("\"allocs\":0"));
        let parsed = BenchRecord::parse_json_line(&line).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn json_line_roundtrips_with_peak_bytes() {
        let mut rec = sample_record();
        rec.allocs = Some(3);
        rec.peak_bytes = Some(4096);
        let line = rec.to_json_line();
        assert!(line.contains("\"peak_bytes\":4096"));
        let parsed = BenchRecord::parse_json_line(&line).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn json_line_roundtrips_with_dispatch() {
        let mut rec = sample_record();
        rec.dispatch = Some("table".into());
        let line = rec.to_json_line();
        assert!(line.contains("\"dispatch.mode\":\"table\""));
        let parsed = BenchRecord::parse_json_line(&line).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn retired_keys_in_old_snapshots_are_ignored() {
        // Older BENCH_*.json lines carry `prewarm.mispredict` and the
        // candidate-cache counters; they must still parse, to the same
        // record as the line without the keys.
        let rec = sample_record();
        let line = rec.to_json_line();
        for retired in ["\"prewarm.mispredict\":0", "\"cache_hits\":90,\"cache_misses\":10"] {
            let old = format!("{},{retired}}}", &line[..line.len() - 1]);
            assert_eq!(BenchRecord::parse_json_line(&old), Some(rec.clone()), "{retired}");
        }
    }

    #[test]
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.50 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn json_line_roundtrips_without_elems() {
        let mut rec = sample_record();
        rec.elems = None;
        let parsed = BenchRecord::parse_json_line(&rec.to_json_line()).expect("parses");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn json_string_escaping_roundtrips() {
        let mut rec = sample_record();
        rec.id = "weird \"id\"\\with\nescapes\u{1}".into();
        let parsed = BenchRecord::parse_json_line(&rec.to_json_line()).expect("parses");
        assert_eq!(parsed.id, rec.id);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in ["", "{", "{]", "not json", "{\"group\":}", "{\"group\":\"g\""] {
            assert!(BenchRecord::parse_json_line(bad).is_none(), "accepted {bad:?}");
        }
        // Well-formed but missing required fields.
        assert!(BenchRecord::parse_json_line("{\"group\":\"g\"}").is_none());
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }
}
