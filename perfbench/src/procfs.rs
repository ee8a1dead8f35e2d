//! Outside attribution through `/proc`: process CPU, per-thread CPU by
//! thread name, and memory high-water marks, for this process or a child.
//! Nothing here needs the program's cooperation.

use std::collections::BTreeMap;

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, fixed at 100 on
/// Linux regardless of the kernel's internal tick rate.
const NS_PER_TICK: u64 = 10_000_000;

/// Process CPU (user + system, every thread including exited ones), in ns.
pub fn process_cpu_ns(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // The command name is parenthesised and may hold spaces: split after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name, field 1 is the state; utime and stime are fields 12, 13.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * NS_PER_TICK
}

/// A `VmHWM:` / `VmRSS:`-style line of `/proc/<pid>/status`, in KiB.
pub fn status_kib(pid: u32, key: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Per-thread run time at one instant: tid → (thread name, ns on CPU),
/// from `/proc/<pid>/task/<tid>/{comm,schedstat}`.
#[derive(Default)]
pub struct Threads(BTreeMap<u32, (String, u64)>);

impl Threads {
    pub fn sample(pid: u32) -> Threads {
        let mut out = BTreeMap::new();
        let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return Threads(out);
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
            let ns = std::fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0);
            out.insert(tid, (comm.trim().to_string(), ns));
        }
        Threads(out)
    }

    /// CPU ns spent between `self` and `later` by threads that `pick`
    /// selects by `(tid, name)`. Threads born in between count from zero;
    /// threads that exited in between are not seen.
    pub fn delta_ns(&self, later: &Threads, pick: impl Fn(u32, &str) -> bool) -> u64 {
        later
            .0
            .iter()
            .filter(|(&tid, (name, _))| pick(tid, name))
            .map(|(tid, (_, ns))| ns.saturating_sub(self.0.get(tid).map_or(0, |(_, b)| *b)))
            .sum()
    }
}
