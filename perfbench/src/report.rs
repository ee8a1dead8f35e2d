//! What one run reports: the counts the result line carries, the
//! end-to-end metrics (untraced) and the per-layer metrics (traced), and
//! the small statistics helpers the workloads share.

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (conquests, or served sessions).
    pub attempted: u64,
    /// Operations that failed, or whose output did not match the reference,
    /// plus any error replies the daemon counted.
    pub failed: u64,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Free-form lines printed before the result (samples, checks).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics a timeline gives, each name prefixed.
    pub fn timeline(&mut self, tl: &Timeline, prefix: &str) {
        let name = |m: &str| format!("{prefix}{m}");
        self.e2e(&name("ops_per_s"), tl.ops_per_s(), "1/s");
        self.e2e(&name("latency_ms_p50"), tl.latency_ms(0.50), "ms");
        self.e2e(&name("latency_ms_p95"), tl.latency_ms(0.95), "ms");
        // Printed, not in the result: a levin run holds too few ops for ten
        // samples beyond p99, and serve's p99 moved with the host's bursts.
        self.note(format!(
            "{} {:.4} ms over {} samples",
            name("latency_ms_p99"),
            tl.latency_ms(0.99),
            tl.samples()
        ));
        self.e2e(&name("cpu_ms_per_op"), tl.cpu_ms_per_op(), "ms");
    }

    /// A traced run's own figures beside its untraced half's: the tracing
    /// overhead.
    pub fn trace_overhead(&mut self, plain: &Timeline, traced: &Timeline) {
        self.timeline(plain, "untraced.");
        self.timeline(traced, "traced.");
        let (a, b) = (plain.latency_ms(0.5), traced.latency_ms(0.5));
        self.layer("trace.latency_ms_p50.untraced", a, "ms");
        self.layer("trace.latency_ms_p50.traced", b, "ms");
        self.layer("trace.ops_per_s.untraced", plain.ops_per_s(), "1/s");
        self.layer("trace.ops_per_s.traced", traced.ops_per_s(), "1/s");
        self.layer("trace.overhead_share", ratio(b, a) - 1.0, "share");
    }

    /// Prints the human-readable block, then the one-line JSON result: the
    /// end-to-end metrics, or the per-layer ones when `traced`.
    pub fn print(&self, traced: bool) {
        for line in &self.notes {
            println!("  {line}");
        }
        for (title, set) in [("end-to-end", &self.e2e), ("per-layer", &self.layer)] {
            if set.is_empty() {
                continue;
            }
            println!("  {title}:");
            for m in set {
                println!("    {:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "    {:<40} {:>16.4} share ({}/{})",
            "error_rate", error_rate, self.failed, self.attempted
        );
        let set = if traced { &self.layer } else { &self.e2e };
        let metrics: Vec<String> = set
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1): with `n`
/// samples, p95 leaves `n/20` samples strictly above it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A deterministic stream of per-op inputs drawn from `--seed`.
pub fn rng(seed: u64, stream: u64) -> goc_core::rng::GocRng {
    goc_core::rng::GocRng::seed_from_u64(seed).fork(stream)
}

/// The mean of the middle half of `values` (the interquartile mean): a
/// quarter of outliers on either side move it not at all, and the rest
/// blend in proportion.
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    ratio(mid.iter().sum(), mid.len() as f64)
}

/// Rates, CPU and percentiles are taken in this many equal time windows
/// of a run's timed phases and reported as the interquartile mean over
/// windows, so a burst of host interference moves a window or two, not the
/// run's figure.
pub const WINDOWS: usize = 8;

/// A timed phase's progress and latencies, by time since its start. A
/// run's timed segments (its slices) are concatenated: samples are stored
/// relative to the start of the first, with set-up between segments left
/// out.
pub struct Timeline {
    /// `(seconds, ops completed, CPU ns used)` samples, ascending in time;
    /// the first is `(0, 0, 0)`.
    progress: Vec<(f64, u64, u64)>,
    /// Where the current segment starts: the last sample of the previous.
    base: (f64, u64, u64),
    /// `(completion seconds, latency ms)` per op.
    latencies: Vec<(f64, f64)>,
    /// The timeline's length in seconds: its last progress sample.
    secs: f64,
}

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline {
            progress: vec![(0.0, 0, 0)],
            base: (0.0, 0, 0),
            latencies: Vec::new(),
            secs: 0.0,
        }
    }
}

impl Timeline {
    /// Starts a new segment after the samples so far. Times, op counts and
    /// CPU passed from here on are relative to the segment's start.
    pub fn next_segment(&mut self) {
        self.base = *self.progress.last().expect("starts with a sample");
    }

    /// Records progress, and extends the timeline to `secs`.
    pub fn progress(&mut self, secs: f64, ops: u64, cpu_ns: u64) {
        let (t, n, cpu) = self.base;
        self.progress.push((t + secs, n + ops, cpu + cpu_ns));
        self.secs = self.secs.max(t + secs);
    }

    pub fn latency(&mut self, secs: f64, ms: f64) {
        self.latencies.push((self.base.0 + secs, ms));
    }

    fn window_of(&self, secs: f64) -> usize {
        ((secs / self.secs * WINDOWS as f64) as usize).min(WINDOWS - 1)
    }

    pub fn samples(&self) -> usize {
        self.latencies.len()
    }

    /// The last progress sample at or before each window edge.
    fn edges(&self) -> Vec<(f64, u64, u64)> {
        (0..=WINDOWS)
            .map(|k| {
                let edge = self.secs * k as f64 / WINDOWS as f64;
                *self
                    .progress
                    .iter()
                    .rev()
                    .find(|s| s.0 <= edge)
                    .unwrap_or(&self.progress[0])
            })
            .collect()
    }

    /// Ops completed per second, over windows.
    pub fn ops_per_s(&self) -> f64 {
        let e = self.edges();
        let rates: Vec<f64> = e
            .windows(2)
            .map(|w| ratio((w[1].1 - w[0].1) as f64, w[1].0 - w[0].0))
            .collect();
        iq_mean(&rates)
    }

    /// CPU ms per op completed, over windows.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let e = self.edges();
        let per: Vec<f64> = e
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].2 - w[0].2) as f64 / 1e6 / (w[1].1 - w[0].1) as f64)
            .collect();
        iq_mean(&per)
    }

    /// The `p` latency percentile in ms: taken per window when every window
    /// holds at least ten samples beyond it, else over all samples.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        for &(t, ms) in &self.latencies {
            by_window[self.window_of(t)].push(ms);
        }
        let enough = |n: usize| (n as f64 * (1.0 - p)).floor() >= 10.0;
        if by_window.iter().all(|w| enough(w.len())) {
            let per: Vec<f64> = by_window
                .iter_mut()
                .map(|w| {
                    w.sort_by(f64::total_cmp);
                    percentile(w, p)
                })
                .collect();
            return iq_mean(&per);
        }
        let mut all: Vec<f64> = self.latencies.iter().map(|&(_, ms)| ms).collect();
        all.sort_by(f64::total_cmp);
        percentile(&all, p)
    }
}

/// One slice of an untraced run: a child process that sets up once and runs
/// one timed phase. Its parent merges the slices, so per-process state
/// (address layout, allocator arenas) varies within every run.
#[derive(Default)]
pub struct Slice {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Settle rounds summed over the `settled` ops.
    pub rounds: u64,
    pub settled: u64,
    /// The slice's peak resident set (this process, or the daemon).
    pub peak_rss_kib: u64,
    pub timeline: Timeline,
    pub notes: Vec<String>,
}

impl Slice {
    /// Writes the slice to stdout for the parent: one `slice` line of
    /// counts, then `note`, `p` (progress) and `l` (latency) lines.
    pub fn dump(&self) {
        println!(
            "slice {} {} {} {} {} {}",
            self.setup_s, self.attempted, self.failed, self.rounds, self.settled, self.peak_rss_kib
        );
        for n in &self.notes {
            println!("note {n}");
        }
        for &(t, ops, cpu) in &self.timeline.progress[1..] {
            println!("p {t} {ops} {cpu}");
        }
        for &(t, ms) in &self.timeline.latencies {
            println!("l {t} {ms}");
        }
    }

    /// Reads back what [`Slice::dump`] wrote, as the next segment of
    /// `timeline`.
    pub fn parse(text: &str, timeline: &mut Timeline) -> Result<Slice, String> {
        let mut slice = Slice::default();
        timeline.next_segment();
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("bad slice line {line:?}");
            let nums: Vec<f64> = rest.split(' ').map_while(|v| v.parse().ok()).collect();
            match (kind, nums.as_slice()) {
                ("slice", &[setup, attempted, failed, rounds, settled, peak]) => {
                    slice.setup_s = setup;
                    (slice.attempted, slice.failed) = (attempted as u64, failed as u64);
                    (slice.rounds, slice.settled) = (rounds as u64, settled as u64);
                    slice.peak_rss_kib = peak as u64;
                }
                ("note", _) => slice.notes.push(rest.to_string()),
                ("p", &[t, ops, cpu]) => timeline.progress(t, ops as u64, cpu as u64),
                ("l", &[t, ms]) => timeline.latency(t, ms),
                _ => return Err(bad()),
            }
        }
        Ok(slice)
    }
}
