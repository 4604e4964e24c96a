//! Run metadata and the process and host counters that show a disturbed
//! run: CPU steal, involuntary context switches and peak RSS.

use std::fmt::Write as _;

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// Ticks in every state.
    pub total: u64,
}

impl CpuTimes {
    /// Current counters; zeros where `/proc/stat` is unreadable.
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user.
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of CPU time stolen between `earlier` and `self`.
    pub fn steal_ratio_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process-wide resource counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Peak resident set size in KiB.
    pub max_rss_kib: u64,
    /// Involuntary context switches of every thread, live or exited.
    pub involuntary_switches: u64,
}

impl Usage {
    /// Counters for the whole process so far.
    pub fn now() -> Self {
        const RUSAGE_SELF: i32 = 0;
        let mut u = RUsage::default();
        // SAFETY: `u` is a live, writable struct with the layout Linux's
        // 64-bit `struct rusage` has, and getrusage writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
        if rc != 0 {
            return Usage::default();
        }
        // longs: maxrss ixrss idrss isrss minflt majflt nswap inblock
        // oublock msgsnd msgrcv nsignals nvcsw nivcsw.
        Usage {
            max_rss_kib: u.longs[0].max(0) as u64,
            involuntary_switches: u.longs[13].max(0) as u64,
        }
    }
}

/// The git revision of the checkout in the working directory, read from
/// `.git` without leaving it; `unknown` in an exported tree.
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| packed_ref(r).ok_or(()))
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Ordered key/value metadata printed as one JSON object.
#[derive(Debug, Default)]
pub struct Meta(Vec<(String, String)>);

impl Meta {
    /// Add a string field.
    pub fn text(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.push((key.into(), json_string(&value.to_string())));
    }

    /// Add a numeric field.
    pub fn num(&mut self, key: &str, value: impl Into<f64>) {
        self.0.push((key.into(), json_number(value.into())));
    }

    /// The fields as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", json_string(k), v);
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints; non-finite values (which
/// no metric should produce) become 0 so the line stays valid JSON.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
