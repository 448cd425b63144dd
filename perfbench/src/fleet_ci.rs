//! `fleet-ci`: the CI gate, `rehearsal fleet benchmarks --lint`.
//!
//! One client. Each op is one `FleetEngine::run` over seeded variants of
//! all 19 `benchmarks/` manifests with a fresh in-memory state, default
//! options plus `lint: true` (jobs auto, threads auto-split).

use crate::inputs::{fleet_suite, variant, Base};
use crate::stats::{arena_nodes, child_span_ms, span_ms, Digest, Rng, SPAN_LAYERS};
use crate::{Config, Outcome};
use rehearsal::fleet::{FleetEngine, FleetJob, FleetOptions, FleetReport, Verdict};
use rehearsal::trace::Session;
use rehearsal::{check_determinism, check_idempotence, lint_source, LintOptions, Platform};
use rehearsal::{AnalysisOptions, Rehearsal};
use std::time::Instant;

/// Passes per `--seconds`. A pass takes ~450 ms on a 2-core box, so the
/// list runs ~3× `--seconds`: p90 needs at least ten samples beyond it,
/// which takes 100 passes, reached from `--seconds 15` on.
const PASSES_PER_SECOND: u64 = 7;
/// Set-up rounds; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

fn options() -> FleetOptions {
    FleetOptions::default().with_lint(true)
}

fn jobs_for(suite: &[Base], tag: &str) -> Vec<FleetJob> {
    suite
        .iter()
        .map(|b| FleetJob {
            name: format!("benchmarks/{}.pp", b.name),
            source: variant(b, tag),
            platform: Platform::Ubuntu,
        })
        .collect()
}

/// Every row must carry its suite's verdict; a NONDET row must carry its
/// counterexample.
fn check_rows(report: &FleetReport, suite: &[Base]) -> Result<(), String> {
    if report.rows.len() != suite.len() {
        return Err(format!(
            "{} rows for {} jobs",
            report.rows.len(),
            suite.len()
        ));
    }
    let wrong: Vec<String> = report
        .rows
        .iter()
        .zip(suite)
        .filter_map(|(row, base)| {
            let has_cex = row.diagnostics.iter().any(|d| d.code == "R3001");
            let ok = if base.deterministic {
                row.verdict == Verdict::Deterministic
            } else {
                row.verdict == Verdict::Nondeterministic && has_cex
            };
            (!ok).then(|| {
                format!(
                    "{} {} (counterexample {has_cex})",
                    base.name,
                    row.verdict.label()
                )
            })
        })
        .collect();
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join(", "))
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let suite = fleet_suite();
    let ops = (cfg.seconds * PASSES_PER_SECOND) as usize;
    let mut out = Outcome {
        work_unit: "manifests verified",
        ..Outcome::default()
    };

    // Set-up: generate the op list, build an engine, and run one warm-up
    // pass (19 analyses) on a tag the timed ops never use.
    let mut op_jobs: Vec<Vec<FleetJob>> = Vec::new();
    let mut round_start = cfg.started;
    for round in 0..SETUP_ROUNDS {
        let mut rng = Rng::new(cfg.seed);
        op_jobs = (0..ops).map(|_| jobs_for(&suite, &rng.tag())).collect();
        let warm = jobs_for(&suite, &format!("warmup{round}"));
        let report = FleetEngine::new(options()).run(warm);
        if let Err(why) = check_rows(&report, &suite) {
            out.fail(format!("warm-up pass {round}: {why}"));
        }
        out.setup_rounds.push(round_start.elapsed().as_secs_f64());
        round_start = Instant::now();
    }
    let mut digest = Digest::new();
    for jobs in &op_jobs {
        for job in jobs {
            digest.add(job.source.as_bytes());
        }
    }
    out.op_digest = digest.value();

    let arena_before = arena_nodes();
    let (mut sequences, mut skipped, mut conflicts, mut propagations) = (0u64, 0u64, 0u64, 0u64);
    let (mut resources, mut cached, mut rows_total) = (0u64, 0u64, 0u64);
    let (mut busy_ms, mut capacity_ms) = (0.0, 0.0);
    // One session for every traced op, written out at the end. The
    // pipeline phases come back per row (the root spans of each job's own
    // session); the lint pass runs on the caller's thread, so its spans,
    // including its second lowering, land in `session` directly.
    let session = Session::new();
    let timed = Instant::now();
    for (i, jobs) in op_jobs.into_iter().enumerate() {
        let traced = cfg.traced(i);
        let start = Instant::now();
        let scope = traced.then(|| session.install());
        let report = FleetEngine::new(options()).run(jobs);
        drop(scope);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        out.attempted += 1;
        if traced {
            out.traced_latencies.push(ms);
        } else {
            out.latencies.push(ms);
        }
        out.classes
            .add(if traced { "pass-traced" } else { "pass" }, ms);
        if let Err(why) = check_rows(&report, &suite) {
            out.fail(format!("op {i}: {why}"));
        }
        out.work += report.rows.len() as f64;

        for row in &report.rows {
            sequences += row.counters.sequences_explored as u64;
            skipped += row.counters.sequences_skipped as u64;
            conflicts += row.counters.solver_conflicts;
            propagations += row.counters.solver_propagations;
            resources += row.resources as u64;
            cached += u64::from(row.cached);
            busy_ms += row.run_ms as f64;
        }
        rows_total += report.rows.len() as u64;
        capacity_ms += report.jobs as f64 * ms;

        if traced {
            out.traced_ops += 1;
            let l = &mut out.layers;
            for row in &report.rows {
                for (phase, us) in &row.phases {
                    if let Some((metric, _)) = SPAN_LAYERS.iter().find(|(_, p)| p == phase) {
                        l.add(metric, *us as f64 / 1000.0);
                    }
                }
                l.add("resources.graph_resources", row.resources as f64);
                l.add("fleet.queue_ms", row.queue_ms as f64);
            }
        }
    }
    out.timed_s = timed.elapsed().as_secs_f64();
    let arena_growth = arena_nodes() - arena_before;

    out.exact = vec![
        ("core.sequences_explored", sequences),
        ("core.sequences_skipped", skipped),
        ("solver.conflicts", conflicts),
        ("solver.propagations", propagations),
        ("resources.graph_resources", resources),
        ("fleet.cache_hits", cached),
        ("fs.arena_nodes", arena_growth),
    ];

    if cfg.trace {
        let snap = session.snapshot();
        let l = &mut out.layers;
        l.add_session(&snap);
        l.set("fleet.worker_idle_ratio", 1.0 - busy_ms / capacity_ms);
        l.set("fleet.cache_hit_ratio", cached as f64 / rows_total as f64);
        l.set("fs.arena_nodes", arena_growth as f64 / ops.max(1) as f64);
        out.trace = Some(snap);
        attribute(&suite, cfg.seed, &mut out);
        for name in [
            "serve.service_ms",
            "serve.transport_ms",
            "serve.memo_hit_ratio",
            "serve.edit_reuse_ratio",
            "serve.cold_ms",
            "serve.repeat_ms",
            "serve.reformat_ms",
            "serve.edit_ms",
            "serve.lint_ms",
        ] {
            out.layers.unmeasured(name, "no daemon in this workload");
        }
        out.notes.push(
            "known-wrong as exported: solver.* miss the one-shot idempotence query \
             (its sat.* counters are never published); resources.compiled counts \
             the lint pass's second lowering (2x the graph's resources)"
                .to_string(),
        );
    }
    out
}

/// Figures a fleet row cannot carry (each job's session keeps only root
/// phase totals): one extra pass over a fresh variant of the suite, outside
/// the timed phase, through the same public calls the engine makes, under
/// one session. Reported per pass, like the timed ops.
fn attribute(suite: &[Base], seed: u64, out: &mut Outcome) {
    let options = AnalysisOptions::default();
    let tag = format!("attr{}", Rng::new(seed).tag());
    let session = Session::new();
    let scope = session.install();
    let (mut after_elim, mut tracked, mut formula_nodes) = (0.0, 0.0, 0.0);
    for base in suite {
        let source = variant(base, &tag);
        let lint_opts = LintOptions {
            platform: Platform::Ubuntu,
            ..LintOptions::default()
        };
        let _ = lint_source(base.name, &source, &lint_opts);
        let tool = Rehearsal::new(Platform::Ubuntu).with_options(options.clone());
        let Ok((graph, _)) = tool.lower_source(&source) else {
            out.fail(format!("attribution: {} does not lower", base.name));
            continue;
        };
        let Ok(report) = check_determinism(&graph, &options) else {
            out.fail(format!("attribution: {} aborted", base.name));
            continue;
        };
        let stats = report.stats();
        after_elim += stats.resources_after_elimination as f64;
        tracked += stats.tracked_paths as f64;
        formula_nodes += stats.formula_nodes as f64;
        if report.is_deterministic() && check_idempotence(&graph, &options).is_err() {
            out.fail(format!("attribution: {} idempotence aborted", base.name));
        }
    }
    drop(scope);
    let snap = session.snapshot();
    let idem = span_ms(&snap, "idempotence");
    let idem_solve = child_span_ms(&snap, "idempotence", "solve");
    let l = &mut out.layers;
    l.set("core.resources_after_elimination", after_elim);
    l.set("core.tracked_paths", tracked);
    l.set("solver.formula_nodes", formula_nodes);
    l.set("core.idempotence_encode_ms", idem - idem_solve);
    l.set("solver.solve_ms", span_ms(&snap, "solve"));
}
