//! `explore-fig13`: the paper's scalability workload (fig. 13).
//!
//! One client. Each op is one `Rehearsal::verify` of a seeded
//! conflicting-packages manifest plus one of its non-deterministic twin,
//! each lowered through `with_db` on the op's own seeded package database.

use crate::inputs::{fig13_pair, Fig13Pair};
use crate::stats::{arena_nodes, child_span_ms, span_ms, Digest, Rng};
use crate::{Config, Outcome};
use rehearsal::trace::Session;
use rehearsal::{DeterminismReport, Platform, Rehearsal, VerificationReport};
use std::time::Instant;

/// Conflicting packages per manifest: at n = 6 the deterministic verify
/// explores 6! = 720 orders and explore is over 90% of the op.
const N: usize = 6;
/// Pairs per `--seconds` (a pair takes ~45 ms on a 2-core box).
const PAIRS_PER_SECOND: u64 = 30;
const SETUP_ROUNDS: usize = 5;

/// One op: both manifests and the tool holding their package database.
struct Op {
    det: String,
    nondet: String,
    tool: Rehearsal,
}

fn build_ops(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let Fig13Pair { det, nondet, db } = fig13_pair(&mut rng, N);
            Op {
                det,
                nondet,
                tool: Rehearsal::new(Platform::Ubuntu).with_db(db),
            }
        })
        .collect()
}

/// The verdicts known by construction: the ordered manifest is
/// deterministic and idempotent; the twin is not deterministic and must
/// come with a counterexample (which the report type guarantees).
fn check(
    det: &Result<VerificationReport, rehearsal::RehearsalError>,
    nondet: &Result<VerificationReport, rehearsal::RehearsalError>,
) -> Result<(), String> {
    match det {
        Ok(r) if r.is_correct() => {}
        Ok(_) => return Err("deterministic manifest not verified correct".into()),
        Err(e) => return Err(format!("deterministic manifest: {e}")),
    }
    match nondet {
        Ok(r) if matches!(r.determinism, DeterminismReport::NonDeterministic(..)) => Ok(()),
        Ok(_) => Err("twin verified deterministic".into()),
        Err(e) => Err(format!("twin: {e}")),
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let count = (cfg.seconds * PAIRS_PER_SECOND) as usize;
    let mut out = Outcome {
        work_unit: "verify pairs",
        ..Outcome::default()
    };

    // Set-up: generate every op's database and manifests, construct the
    // tools, and verify one warm-up pair drawn from a different seed.
    let mut ops = Vec::new();
    let mut round_start = cfg.started;
    for round in 0..SETUP_ROUNDS {
        ops = build_ops(cfg.seed, count);
        let warm = build_ops(cfg.seed ^ (0xa11 + round as u64), 1).remove(0);
        let det = warm.tool.verify(&warm.det);
        let nondet = warm.tool.verify(&warm.nondet);
        if let Err(why) = check(&det, &nondet) {
            out.fail(format!("warm-up {round}: {why}"));
        }
        out.setup_rounds.push(round_start.elapsed().as_secs_f64());
        round_start = Instant::now();
    }
    let mut digest = Digest::new();
    for op in &ops {
        digest.add(op.det.as_bytes());
        digest.add(op.nondet.as_bytes());
    }
    out.op_digest = digest.value();

    let arena_before = arena_nodes();
    let (mut sequences, mut skipped, mut conflicts, mut propagations) = (0u64, 0u64, 0u64, 0u64);
    let mut distinct = 0u64;
    // One session for every traced op, written out at the end.
    let session = Session::new();
    let timed = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let traced = cfg.traced(i);
        let start = Instant::now();
        let scope = traced.then(|| session.install());
        let det = op.tool.verify(&op.det);
        let det_ms = start.elapsed().as_secs_f64() * 1000.0;
        let nondet = op.tool.verify(&op.nondet);
        drop(scope);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        out.attempted += 1;
        if traced {
            out.traced_latencies.push(ms);
        } else {
            out.latencies.push(ms);
            out.classes.add("pair", ms);
            out.classes.add("twin-det", det_ms);
            out.classes.add("twin-nondet", ms - det_ms);
        }
        if let Err(why) = check(&det, &nondet) {
            out.fail(format!("op {i}: {why}"));
            continue;
        }
        out.work += 1.0;
        for report in [&det, &nondet].into_iter().flatten() {
            let s = report.determinism.stats();
            sequences += s.sequences_explored as u64;
            skipped += s.sequences_skipped as u64;
            conflicts += s.solver_conflicts;
            propagations += s.solver_propagations;
            distinct += s.distinct_outputs as u64;
            if traced {
                let l = &mut out.layers;
                l.add("resources.graph_resources", s.resources as f64);
                l.add(
                    "core.resources_after_elimination",
                    s.resources_after_elimination as f64,
                );
                l.add("core.tracked_paths", s.tracked_paths as f64);
                l.add("solver.formula_nodes", s.formula_nodes as f64);
            }
        }
        out.traced_ops += usize::from(traced);
    }
    out.timed_s = timed.elapsed().as_secs_f64();
    let arena_growth = arena_nodes() - arena_before;
    out.exact = vec![
        ("core.sequences_explored", sequences),
        ("core.sequences_skipped", skipped),
        ("core.distinct_outputs", distinct),
        ("solver.conflicts", conflicts),
        ("solver.propagations", propagations),
        ("fs.arena_nodes", arena_growth),
    ];
    if cfg.trace {
        let snap = session.snapshot();
        let l = &mut out.layers;
        l.add_session(&snap);
        l.add(
            "core.idempotence_encode_ms",
            span_ms(&snap, "idempotence") - child_span_ms(&snap, "idempotence", "solve"),
        );
        l.add("solver.solve_ms", span_ms(&snap, "solve"));
        l.set("fs.arena_nodes", arena_growth as f64 / count.max(1) as f64);
        out.trace = Some(snap);
        for (name, why) in [
            ("lint.ms", "verify does not lint"),
            ("lint.findings", "verify does not lint"),
            ("fleet.queue_ms", "no fleet engine in this workload"),
            (
                "fleet.worker_idle_ratio",
                "no fleet engine in this workload",
            ),
            ("fleet.cache_hit_ratio", "no fleet engine in this workload"),
            ("serve.service_ms", "no daemon in this workload"),
            ("serve.transport_ms", "no daemon in this workload"),
            ("serve.memo_hit_ratio", "no daemon in this workload"),
            ("serve.edit_reuse_ratio", "no daemon in this workload"),
            ("serve.cold_ms", "no daemon in this workload"),
            ("serve.repeat_ms", "no daemon in this workload"),
            ("serve.reformat_ms", "no daemon in this workload"),
            ("serve.edit_ms", "no daemon in this workload"),
            ("serve.lint_ms", "no daemon in this workload"),
        ] {
            out.layers.unmeasured(name, why);
        }
    }
    out
}
