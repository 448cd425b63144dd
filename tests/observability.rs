//! Integration tests for the observability layer: tracing must never
//! change verdicts, disabled-mode overhead stays within noise, and trace
//! output is deterministic modulo timestamps.

use rehearsal::benchmarks::{by_name, METADATA_SUITE, SUITE};
use rehearsal::fleet::{
    parse_json, BaselineStore, FleetEngine, FleetJob, FleetOptions, Json, Verdict,
};
use rehearsal::trace::{Session, TraceSnapshot};
use rehearsal::{Platform, Rehearsal};
use std::process::Command;
use std::time::{Duration, Instant};

/// Runs the full verify pipeline on `source` in a fresh thread with its
/// own trace session, returning the session's snapshot. The fresh thread
/// gives every run the same thread-local world (tid 0, no inherited
/// session), so two calls are structurally comparable.
fn verify_traced(source: &'static str) -> TraceSnapshot {
    std::thread::spawn(move || {
        let session = Session::new();
        let _guard = session.install();
        let tool = Rehearsal::new(Platform::Ubuntu);
        let _ = tool.verify_source("bench.pp", source);
        session.snapshot()
    })
    .join()
    .expect("analysis thread panicked")
}

/// One span's timestamp-free skeleton: name, category, parent name.
type SpanShape = (String, String, Option<String>);

/// The timestamp-free skeleton of a snapshot: span names, categories, and
/// parent links (by name), plus sampled event names, in order.
fn shape(snap: &TraceSnapshot) -> (Vec<SpanShape>, Vec<String>) {
    let name_of = |id: u64| {
        snap.spans
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.name.to_string())
    };
    let spans = snap
        .spans
        .iter()
        .map(|s| (s.name.to_string(), s.cat.to_string(), name_of(s.parent)))
        .collect();
    let events = snap.events.iter().map(|e| e.name.to_string()).collect();
    (spans, events)
}

/// Two identical runs produce identical trace structure and metrics —
/// everything but the timestamps. (A warmup run first levels the
/// process-global caches: the arena and the structural memos are
/// append-only, so after warmup both measured runs see the same world.)
#[test]
fn trace_output_is_deterministic_modulo_timestamps() {
    let source = by_name("ntp-nondet").expect("bundled benchmark").source;
    let _warmup = verify_traced(source);
    let a = verify_traced(source);
    let b = verify_traced(source);

    assert_eq!(shape(&a), shape(&b), "span/event structure must be stable");
    // The interning arena is process-global, so its *hit* counters keep
    // climbing run over run by design; every other metric — including the
    // arena's node counts, which stop growing once the warmup interned
    // everything — must be bit-identical.
    let stable = |m: &rehearsal::trace::MetricsSnapshot| {
        (
            m.counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect::<Vec<_>>(),
            m.gauges()
                .filter(|(k, _)| !k.ends_with("_dedup_hits"))
                .map(|(k, v)| (k.to_string(), v))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(
        stable(&a.metrics),
        stable(&b.metrics),
        "metrics must be bit-identical"
    );
    assert!(
        !a.spans.is_empty(),
        "the pipeline must have recorded phase spans"
    );
    assert!(
        a.metrics.counter("explore.sequences").unwrap_or(0) > 0,
        "explorer work must be visible in the registry"
    );
}

/// The Chrome trace-event export is valid JSON with the documented shape.
#[test]
fn chrome_trace_export_shape() {
    let source = by_name("ntp").expect("bundled benchmark").source;
    let snap = verify_traced(source);
    let doc = parse_json(&snap.to_chrome_trace()).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ph").and_then(Json::as_str).is_some());
        assert!(e.get("ts").is_some());
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("explore")),
        "the explore phase must appear in the profile"
    );
    assert!(doc.get("rehearsalMetrics").is_some(), "metrics ride along");
}

/// With tracing fully enabled, every bundled verdict is unchanged: the
/// paper suite stays 7 deterministic / 6 nondeterministic and the
/// metadata suite stays 3/3 — observability is read-only.
#[test]
fn verdicts_are_identical_under_tracing() {
    let session = Session::new();
    let _guard = session.install();

    let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(2));
    let report = engine.run(
        SUITE
            .iter()
            .map(|b| FleetJob {
                name: format!("{}.pp", b.name),
                source: b.source.to_string(),
                platform: Platform::Ubuntu,
            })
            .collect(),
    );
    for (row, b) in report.rows.iter().zip(SUITE) {
        let expected = if b.deterministic {
            Verdict::Deterministic
        } else {
            Verdict::Nondeterministic
        };
        assert_eq!(row.verdict, expected, "{}", b.name);
        assert!(
            !row.phases.is_empty(),
            "{}: traced rows carry phase timings",
            b.name
        );
    }
    let c = report.counts();
    assert_eq!((c.deterministic, c.nondeterministic), (7, 6));
    assert!(
        report.metrics.counter("explore.sequences").unwrap_or(0) > 0,
        "per-job metrics aggregate into the report"
    );
    assert_eq!(report.metrics.counter("fleet.jobs"), Some(13));

    let mut options = FleetOptions::default().with_jobs(2);
    options.analysis.model_metadata = true;
    let meta = FleetEngine::new(options).run(
        METADATA_SUITE
            .iter()
            .map(|b| FleetJob {
                name: format!("{}.pp", b.name),
                source: b.source.to_string(),
                platform: Platform::Ubuntu,
            })
            .collect(),
    );
    let c = meta.counts();
    assert_eq!((c.deterministic, c.nondeterministic), (3, 3));
}

/// Differential runs surface their reuse accounting as `incremental.*`
/// counters in the fleet report's metrics (and therefore in any
/// installed trace session's registry).
#[test]
fn incremental_metrics_ride_the_fleet_report() {
    let trio = "file { '/etc/motd': content => 'a' }\n\
                file { '/srv/app.conf': content => 'b' }\n\
                file { '/var/banner': content => 'c' }";
    let job = |source: &str| FleetJob {
        name: "trio.pp".to_string(),
        source: source.to_string(),
        platform: Platform::Ubuntu,
    };
    let mut cold_engine = FleetEngine::new(FleetOptions::default().with_jobs(1))
        .with_baseline(BaselineStore::in_memory());
    cold_engine.run(vec![job(trio)]);
    let baseline = cold_engine.state().take_baseline().unwrap();

    let edited = trio.replace("content => 'c'", "content => 'changed'");
    let mut engine = FleetEngine::new(FleetOptions::default().with_jobs(1)).with_baseline(baseline);
    let report = engine.run(vec![job(&edited)]);
    assert_eq!(
        report.metrics.counter("incremental.resources_dirty"),
        Some(1)
    );
    assert_eq!(
        report.metrics.counter("incremental.resources_clean"),
        Some(2)
    );
    assert!(
        report
            .metrics
            .counter("incremental.pairs_reused")
            .unwrap_or(0)
            > 0,
        "clean pair verdicts reused"
    );
}

/// Disabled tracing (no session installed) must cost nothing measurable:
/// each instrumentation site is a single relaxed atomic load. The bound
/// is deliberately loose — this suite runs on loaded single-core CI
/// machines — and exists to catch gross regressions (e.g. an always-on
/// mutex on the hot path), not to measure the real overhead; the
/// `obs_overhead` bench does that.
#[test]
fn disabled_tracing_overhead_is_in_the_noise() {
    let source = by_name("ntp").expect("bundled benchmark").source;
    let run = |traced: bool| -> Duration {
        let mut times = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let session = traced.then(Session::new);
            let _guard = session.as_ref().map(Session::install);
            let tool = Rehearsal::new(Platform::Ubuntu);
            let _ = tool.verify_source("ntp.pp", source);
            times.push(start.elapsed());
        }
        times.sort();
        times[1] // median of 3
    };
    run(false); // warmup (arena, memos, lazy package DB)
    let disabled = run(false);
    let enabled = run(true);
    assert!(
        disabled < enabled * 3 + Duration::from_millis(250),
        "disabled tracing should not be slower than enabled \
         (disabled {disabled:?}, enabled {enabled:?})"
    );
}

/// The one-shot idempotence query publishes its SAT search counters:
/// idempotence is most of `check` on hosting, and its 1k+ conflicts must
/// show in `--metrics`, not read zero.
#[test]
fn check_metrics_count_one_shot_solver_conflicts() {
    let dir = std::env::temp_dir().join(format!("rehearsal-obs-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.prom");
    let out = Command::new(env!("CARGO_BIN_EXE_rehearsal"))
        .args(["check", "benchmarks/hosting.pp", "--metrics"])
        .arg(&metrics)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run rehearsal");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let conflicts: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("rehearsal_sat_conflicts_total "))
        .expect("sat_conflicts_total in the metrics file")
        .trim()
        .parse()
        .unwrap();
    assert!(
        conflicts > 0,
        "one-shot solver conflicts unreported:\n{text}"
    );
}
