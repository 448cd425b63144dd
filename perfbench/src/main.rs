//! End-to-end and per-layer benchmark for Rehearsal.
//!
//! ```text
//! perfbench --workload <fleet-ci|explore-fig13|serve-mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload replays a fixed seeded list of closed-loop ops whose
//! length is `S` times the workload's nominal op rate, checks every
//! verdict, and prints one `metric`/`class`/`exact` line per figure
//! followed by a final JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer ones. See README.md.

mod explore_fig13;
mod fleet_ci;
mod inputs;
mod serve_mix;
mod stats;

use stats::{median, quantile, Classes, Layers};
use std::path::Path;
use std::time::Instant;

/// Where runs keep their exactness records and trace files, relative to
/// the repository root the benchmark runs from.
const RECORDS: &str = "perfbench/records";

pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Process start, for the first set-up round.
    pub started: Instant,
}

impl Config {
    /// Whether op `i` runs under a trace session: in a traced run every
    /// other op does, so traced and untraced ops share the machine's state
    /// and their difference is the tracing overhead.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// What a workload hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Per-op latency (ms) of untraced ops, in op order.
    pub latencies: Vec<f64>,
    /// Per-op latency (ms) of traced ops (traced runs only).
    pub traced_latencies: Vec<f64>,
    /// Work units completed in the timed phase (throughput numerator).
    pub work: f64,
    pub work_unit: &'static str,
    pub timed_s: f64,
    /// Duration (s) of each set-up round; `setup_s` is their median.
    pub setup_rounds: Vec<f64>,
    pub classes: Classes,
    pub layers: Layers,
    /// Ops whose per-layer figures are in `layers`.
    pub traced_ops: usize,
    /// Counts that must repeat exactly for the same seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Digest of the seeded op list.
    pub op_digest: u64,
    /// Failure reasons (first few) and other remarks.
    pub notes: Vec<String>,
    /// Everything the traced ops' session recorded (traced runs only).
    pub trace: Option<rehearsal::trace::TraceSnapshot>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("FAILED {why}"));
        }
    }
}

const WORKLOADS: [&str; 3] = ["fleet-ci", "explore-fig13", "serve-mix"];

/// Every end-to-end metric, in BENCHMARK.json order, with its unit.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const PER_LAYER: [(&str, &str); 37] = [
    ("puppet.parse_ms", "ms"),
    ("puppet.eval_ms", "ms"),
    ("resources.compile_ms", "ms"),
    ("resources.compiled", "count"),
    ("resources.graph_resources", "count"),
    ("lint.ms", "ms"),
    ("lint.findings", "count"),
    ("core.eliminate_ms", "ms"),
    ("core.resources_after_elimination", "count"),
    ("core.prune_ms", "ms"),
    ("core.tracked_paths", "count"),
    ("core.explore_ms", "ms"),
    ("core.sequences_explored", "count"),
    ("core.sequences_skipped", "count"),
    ("core.distinct_outputs", "count"),
    ("core.idempotence_ms", "ms"),
    ("core.idempotence_encode_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.queries", "count"),
    ("solver.conflicts", "count"),
    ("solver.decisions", "count"),
    ("solver.propagations", "count"),
    ("solver.formula_nodes", "count"),
    ("fleet.queue_ms", "ms"),
    ("fleet.worker_idle_ratio", "ratio"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("serve.service_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.edit_reuse_ratio", "ratio"),
    ("serve.cold_ms", "ms"),
    ("serve.repeat_ms", "ms"),
    ("serve.reformat_ms", "ms"),
    ("serve.edit_ms", "ms"),
    ("serve.lint_ms", "ms"),
    ("fs.arena_nodes", "count"),
    ("trace.overhead_pct", "%"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    (
        workload,
        Config {
            seed,
            seconds,
            trace,
            started,
        },
    )
}

fn main() {
    let (workload, cfg) = parse_args();
    let mut out = match workload.as_str() {
        "fleet-ci" => fleet_ci::run(&cfg),
        "explore-fig13" => explore_fig13::run(&cfg),
        _ => serve_mix::run(&cfg),
    };
    let peak_rss = stats::peak_rss_mb();

    println!(
        "perfbench workload={workload} seed={} seconds={} trace={} ops={} traced_ops={} op_list_digest={:016x}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        out.latencies.len() + out.traced_latencies.len(),
        out.traced_ops,
        out.op_digest
    );
    for line in out.classes.render() {
        println!("{line}");
    }

    let all: Vec<f64> = out
        .latencies
        .iter()
        .chain(&out.traced_latencies)
        .copied()
        .collect();
    let p50 = median(&all);
    let p90 = quantile(&all, 0.9);
    let beyond_p90 = all.iter().filter(|&&v| v > p90).count();
    println!(
        "percentiles samples={} beyond_p90={beyond_p90} p50_in={:?} p90_in={:?}",
        all.len(),
        out.classes.containing(p50),
        out.classes.containing(p90)
    );
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let e2e = [
        out.work / out.timed_s.max(1e-9),
        p50,
        p90,
        median(&out.setup_rounds),
        peak_rss,
    ];
    println!(
        "metric error_rate {error_rate} ratio ({} failed / {} attempted)",
        out.failed, out.attempted
    );
    println!(
        "metric work {} {} in {:.3} s",
        out.work, out.work_unit, out.timed_s
    );
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        println!("metric {name} {value} {unit}");
    }

    let mut layer_values = Vec::new();
    if cfg.trace {
        let mut layers = std::mem::take(&mut out.layers);
        if !out.traced_latencies.is_empty() {
            let untraced = median(&out.latencies);
            let traced = median(&out.traced_latencies);
            println!("metric trace.untraced_p50_ms {untraced} ms");
            println!("metric trace.traced_p50_ms {traced} ms");
            layers.set("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
        }
        for (name, unit) in PER_LAYER {
            let value = layers.value(name, out.traced_ops).unwrap_or(0.0);
            match layers.why_unmeasured(name) {
                Some(why) => println!("layer {name} {value} {unit} (unmeasured: {why})"),
                None => println!("layer {name} {value} {unit}"),
            }
            layer_values.push((name, unit, value));
        }
        if let Some(snap) = &out.trace {
            let file = Path::new(RECORDS).join(format!(
                "{workload}-seed{}-s{}.trace.json",
                cfg.seed, cfg.seconds
            ));
            match std::fs::create_dir_all(RECORDS)
                .and_then(|()| std::fs::write(&file, snap.to_chrome_trace()))
            {
                Ok(()) => println!(
                    "trace {} spans={} (Chrome trace-event JSON)",
                    file.display(),
                    snap.spans.len()
                ),
                Err(e) => println!("note cannot write {}: {e}", file.display()),
            }
        }
    }

    let mut broken = Vec::new();
    for (name, value) in &out.exact {
        println!("exact {name} {value}");
    }
    match check_repeat(&workload, &cfg, &out) {
        Ok(msg) => println!("repeat {msg}"),
        Err(msg) => {
            println!("BROKEN {msg}");
            broken.push(msg);
        }
    }
    for note in &out.notes {
        println!("note {note}");
    }

    let correct = out.failed == 0 && broken.is_empty() && out.attempted > 0;
    let metrics: Vec<String> = if cfg.trace {
        layer_values
            .iter()
            .map(|(name, unit, value)| metric_json(name, *value, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), value)| metric_json(name, value, unit))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Compares this run's op-list digest and exact counts with the record of
/// an earlier run of the same build, workload, seed, size and trace mode,
/// and records them when there is none. Any difference means a count
/// some claim would rest on does not repeat: the benchmark is broken.
fn check_repeat(workload: &str, cfg: &Config, out: &Outcome) -> Result<String, String> {
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| {
            let mut d = stats::Digest::new();
            d.add(&bytes);
            d.value()
        })
        .unwrap_or(0);
    let file = Path::new(RECORDS).join(format!(
        "{workload}-seed{}-s{}-t{}-{build:016x}.txt",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    ));
    let mut text = format!("op_list_digest {:016x}\n", out.op_digest);
    for (name, value) in &out.exact {
        text.push_str(&format!("{name} {value}\n"));
    }
    match std::fs::read_to_string(&file) {
        Ok(previous) if previous == text => Ok(format!("matches {}", file.display())),
        Ok(previous) => {
            let diff: Vec<String> = previous
                .lines()
                .zip(text.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("[{a}] vs [{b}]"))
                .collect();
            Err(format!(
                "same seed, different counts than {}: {}",
                file.display(),
                diff.join("; ")
            ))
        }
        Err(_) => {
            std::fs::create_dir_all(RECORDS)
                .and_then(|()| std::fs::write(&file, &text))
                .map_err(|e| format!("cannot record {}: {e}", file.display()))?;
            Ok(format!("recorded {}", file.display()))
        }
    }
}
