//! Seeded randomness, percentiles, and the per-layer accumulator shared by
//! the workloads.

use rehearsal::trace::{TraceSnapshot, NO_PARENT};
use std::collections::BTreeMap;

/// splitmix64: the same tiny generator the repository uses for seeded
/// workloads, so inputs depend on nothing but `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_d00d_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A short lowercase hex tag, unique per draw in practice.
    pub fn tag(&mut self) -> String {
        format!("{:012x}", self.next_u64() & 0xffff_ffff_ffff)
    }
}

/// FNV-1a over a byte stream: the digest of a seeded op list.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Latency samples of one cost class (`class` lines in the printout).
#[derive(Default)]
pub struct Classes(BTreeMap<String, Vec<f64>>);

impl Classes {
    pub fn add(&mut self, class: &str, ms: f64) {
        self.0.entry(class.to_string()).or_default().push(ms);
    }

    pub fn median(&self, class: &str) -> f64 {
        self.0.get(class).map_or(0.0, |v| median(v))
    }

    /// One line per class: sample count, median, p90, min and max. The
    /// p50/p90 of all ops sit inside one class when they fall between that
    /// class's min and max and outside every other class's range.
    pub fn render(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(name, v)| {
                let (min, max) = range(v);
                format!(
                    "class {name:<12} n={:<5} p50_ms={:<10.3} p90_ms={:<10.3} min_ms={min:.3} max_ms={max:.3}",
                    v.len(),
                    median(v),
                    quantile(v, 0.9),
                )
            })
            .collect()
    }

    /// The classes whose [min, max] contains `ms`.
    pub fn containing(&self, ms: f64) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v)| {
                let (min, max) = range(v);
                (min..=max).contains(&ms)
            })
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

fn range(samples: &[f64]) -> (f64, f64) {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    (min, max)
}

/// Per-layer sums over the traced ops; [`Layers::value`] divides them by
/// the traced op count at the end.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    fixed: BTreeMap<&'static str, f64>,
    unmeasured: BTreeMap<&'static str, &'static str>,
}

impl Layers {
    /// Adds to a metric reported as a per-op mean.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Sets a metric reported as is (ratios, medians).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.fixed.insert(name, value);
    }

    /// Marks a metric this workload cannot measure from outside; it is
    /// reported as 0 and listed with the reason.
    pub fn unmeasured(&mut self, name: &'static str, why: &'static str) {
        self.unmeasured.insert(name, why);
    }

    pub fn value(&self, name: &str, ops: usize) -> Option<f64> {
        if let Some(v) = self.fixed.get(name) {
            return Some(*v);
        }
        self.sums.get(name).map(|v| v / ops.max(1) as f64)
    }

    pub fn why_unmeasured(&self, name: &str) -> Option<&'static str> {
        self.unmeasured.get(name).copied()
    }

    /// Adds every span total and counter of `snap` that maps to a layer.
    pub fn add_session(&mut self, snap: &TraceSnapshot) {
        for (metric, span) in SPAN_LAYERS {
            self.add(metric, span_ms(snap, span));
        }
        for (metric, name) in COUNTER_LAYERS {
            self.add(metric, counter(snap, name));
        }
    }
}

/// Per-layer metric ← the program's span (or fleet-row phase) of that name.
pub const SPAN_LAYERS: [(&str, &str); 8] = [
    ("puppet.parse_ms", "parse"),
    ("puppet.eval_ms", "eval"),
    ("resources.compile_ms", "lower"),
    ("lint.ms", "lint"),
    ("core.eliminate_ms", "eliminate"),
    ("core.prune_ms", "prune"),
    ("core.explore_ms", "explore"),
    ("core.idempotence_ms", "idempotence"),
];

/// Per-layer metric ← the program's counter of that name.
const COUNTER_LAYERS: [(&str, &str); 9] = [
    ("resources.compiled", "compile.resources"),
    ("lint.findings", "lint.findings"),
    ("core.sequences_explored", "explore.sequences"),
    ("core.sequences_skipped", "explore.sequences_skipped"),
    ("core.distinct_outputs", "explore.distinct_outputs"),
    ("solver.queries", "sat.queries"),
    ("solver.conflicts", "sat.conflicts"),
    ("solver.decisions", "sat.decisions"),
    ("solver.propagations", "sat.propagations"),
];

/// Total duration (ms) of spans named `name`.
pub fn span_ms(snap: &TraceSnapshot, name: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 / 1000.0)
        .sum()
}

/// Total duration (ms) of spans named `child` whose parent is a span named
/// `parent`.
pub fn child_span_ms(snap: &TraceSnapshot, parent: &str, child: &str) -> f64 {
    let parents: std::collections::HashSet<u64> = snap
        .spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    snap.spans
        .iter()
        .filter(|s| s.name == child && s.parent != NO_PARENT && parents.contains(&s.parent))
        .map(|s| s.dur_us as f64 / 1000.0)
        .sum()
}

fn counter(snap: &TraceSnapshot, name: &str) -> f64 {
    snap.metrics.counter(name).unwrap_or(0) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Interned FS nodes so far (process-global, append-only arena).
pub fn arena_nodes() -> u64 {
    let s = rehearsal::fs::arena_stats();
    (s.pred_nodes + s.expr_nodes) as u64
}
