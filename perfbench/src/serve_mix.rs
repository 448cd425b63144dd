//! `serve-mix`: the warm daemon.
//!
//! An in-process `rehearsal::serve::Server` (default options, ephemeral
//! port, in-memory state) and two closed-loop clients over loopback HTTP.
//! Each client sends its own seeded stream over both bundled suites (the
//! metadata suite with `"model_metadata": true`) in five classes: `cold`,
//! `repeat`, `reformat`, `edit` and `lint`. Repeats, reformats and edits
//! refer only to the client's own earlier requests, so hit counts are
//! exact whatever the interleaving of the two clients.

use crate::inputs::{both_suites, has_content, variant, Base};
use crate::stats::{arena_nodes, span_ms, Digest, Rng};
use crate::{Config, Outcome};
use rehearsal::fleet::{parse_json, FleetEngine, FleetJob, FleetOptions, Json};
use rehearsal::serve::{http::http_request, ServeOptions, Server};
use rehearsal::trace::Session;
use rehearsal::{AnalysisOptions, Platform, Rehearsal};
use std::collections::{BTreeMap, BTreeSet};
use std::thread::JoinHandle;
use std::time::Instant;

const CLIENTS: usize = 2;
/// Requests per client per `--seconds`, rounded to whole cycles.
const REQUESTS_PER_SECOND: u64 = 36;
const SETUP_ROUNDS: usize = 5;
/// The requests of one episode: one manifest's life in a client's stream.
/// Every cycle runs one episode per bundled manifest, so every seed sends
/// the same multiset of (class, manifest) requests and only the order
/// differs. Cheap classes (repeat, reformat, lint) are 75% of requests, so
/// p50 falls among them; the heavy and medium analyses (5 and 3 of the 25
/// manifests) are the slowest 8%, so p90 falls among the light analyses.
const EPISODE: [Class; 8] = [
    Class::Cold,
    Class::Repeat,
    Class::Reformat,
    Class::Repeat,
    Class::Lint,
    Class::Edit,
    Class::Repeat,
    Class::Lint,
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Cold,
    Repeat,
    Reformat,
    Edit,
    Lint,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Repeat => "repeat",
            Class::Reformat => "reformat",
            Class::Edit => "edit",
            Class::Lint => "lint",
        }
    }
}

struct Request {
    class: Class,
    base: Base,
    name: String,
    source: String,
    body: String,
}

fn check_body(name: &str, source: &str, metadata: bool) -> String {
    let mut fields = vec![("manifest", Json::str(name)), ("source", Json::str(source))];
    if metadata {
        fields.push(("model_metadata", Json::Bool(true)));
    }
    Json::obj(fields).render()
}

/// One client's stream: `cycles` cycles of one episode per manifest,
/// the episodes of a cycle interleaved in a seeded order.
fn stream(seed: u64, client: usize, cycles: usize, suite: &[Base]) -> Vec<Request> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
    let mut out = Vec::with_capacity(cycles * suite.len() * EPISODE.len());
    for _ in 0..cycles {
        // (base, source of the latest check, next step) per episode.
        let mut episodes: Vec<(Base, String, String, usize)> = suite
            .iter()
            .map(|&b| (b, String::new(), String::new(), 0))
            .collect();
        while !episodes.is_empty() {
            let e = rng.below(episodes.len());
            let k = out.len();
            let (base, name, source, step) = &mut episodes[e];
            let mut class = EPISODE[*step];
            if class == Class::Edit && !has_content(base) {
                class = Class::Reformat;
            }
            let req = match class {
                Class::Cold => {
                    *name = format!("c{client}/{k}-{}.pp", base.name);
                    *source = variant(base, &rng.tag());
                    source.clone()
                }
                Class::Edit => {
                    *source = variant(base, &rng.tag());
                    source.clone()
                }
                Class::Reformat => format!("# reformatted by request {k}\n{source}\n\n"),
                Class::Repeat | Class::Lint => source.clone(),
            };
            let body = if class == Class::Lint {
                Json::obj([("manifest", Json::str(&*name)), ("source", Json::str(&req))]).render()
            } else {
                check_body(name, &req, base.metadata)
            };
            out.push(Request {
                class,
                base: *base,
                name: name.clone(),
                source: req,
                body,
            });
            *step += 1;
            if *step == EPISODE.len() {
                episodes.swap_remove(e);
            }
        }
    }
    out
}

/// What a client saw for one request.
#[derive(Default)]
struct Reply {
    ms: f64,
    traced: bool,
    ok: bool,
    why: String,
    verdict: String,
    run_ms: f64,
    memo_hit: bool,
    cached: bool,
    resources: f64,
    resources_clean: f64,
    sequences: f64,
    skipped: f64,
    conflicts: f64,
    propagations: f64,
    findings: f64,
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |cur, key| cur.get(key))
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    match field(doc, path) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

fn flag(doc: &Json, path: &[&str]) -> bool {
    field(doc, path).and_then(Json::as_bool).unwrap_or(false)
}

/// Sends one request; under `session` (traced requests) a `request` span
/// covers the round trip.
fn send(addr: &str, req: &Request, session: Option<&Session>) -> Reply {
    let path = if req.class == Class::Lint {
        "/v1/lint"
    } else {
        "/v1/check"
    };
    let start = Instant::now();
    let scope = session.map(Session::install);
    let reply = {
        let _span = rehearsal::trace::span_cat("request", "perfbench");
        http_request(addr, "POST", path, &req.body)
    };
    drop(scope);
    let mut seen = Reply {
        ms: start.elapsed().as_secs_f64() * 1000.0,
        traced: session.is_some(),
        ..Reply::default()
    };
    let doc = match reply {
        Ok((200, body)) => match parse_json(&body) {
            Ok(doc) => doc,
            Err(_) => {
                seen.why = "unparsable response".into();
                return seen;
            }
        },
        Ok((status, _)) => {
            seen.why = format!("status {status}");
            return seen;
        }
        Err(e) => {
            seen.why = format!("transport: {e}");
            return seen;
        }
    };
    if req.class == Class::Lint {
        seen.findings = doc
            .get("manifests")
            .and_then(Json::as_arr)
            .and_then(|m| m.first())
            .and_then(|m| m.get("findings"))
            .and_then(Json::as_arr)
            .map_or(0.0, |f| f.len() as f64);
        seen.ok = true;
        return seen;
    }
    seen.verdict = doc
        .get("verdict")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let expected = if req.base.deterministic {
        "deterministic"
    } else {
        "nondeterministic"
    };
    let detail = doc.get("detail").and_then(Json::as_str).unwrap_or("");
    seen.ok = seen.verdict == expected && (req.base.deterministic || !detail.is_empty());
    if !seen.ok {
        seen.why = format!(
            "{} {}: verdict {} (expected {expected}, detail {:?})",
            req.class.label(),
            req.name,
            seen.verdict,
            detail.len()
        );
    }
    seen.run_ms = num(&doc, &["serve", "run_us"]) / 1000.0;
    seen.memo_hit = flag(&doc, &["serve", "cache_hit"]);
    seen.cached = flag(&doc, &["cached"]);
    seen.resources = num(&doc, &["stats", "resources"]);
    seen.resources_clean = num(&doc, &["reuse", "resources_clean"]);
    seen.sequences = num(&doc, &["stats", "sequences_explored"]);
    seen.skipped = num(&doc, &["stats", "sequences_skipped"]);
    seen.conflicts = num(&doc, &["stats", "solver_conflicts"]);
    seen.propagations = num(&doc, &["stats", "solver_propagations"]);
    seen
}

struct Running {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Binds a daemon, starts its accept loop, and returns once it answered
/// `/v1/healthz` (the listen socket is bound before the loop starts, so
/// the first request needs no retry or sleep).
fn start_server() -> Result<Running, String> {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let handle = std::thread::spawn(move || server.run());
    match http_request(&addr, "GET", "/v1/healthz", "") {
        Ok((200, _)) => Ok(Running { addr, handle }),
        other => {
            let _ = http_request(&addr, "POST", "/v1/shutdown", "");
            let _ = handle.join();
            Err(format!("healthz: {other:?}"))
        }
    }
}

fn stop_server(running: Running) -> Result<(), String> {
    http_request(&running.addr, "POST", "/v1/shutdown", "")
        .map_err(|e| format!("shutdown: {e}"))?;
    match running.handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server exit: {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let suite = both_suites();
    let per_cycle = (suite.len() * EPISODE.len()) as u64;
    let cycles = ((cfg.seconds * REQUESTS_PER_SECOND + per_cycle / 2) / per_cycle).max(1) as usize;
    let mut out = Outcome {
        work_unit: "responses",
        ..Outcome::default()
    };

    // Set-up: generate both streams, bind a daemon, wait for its first
    // healthz answer, and warm it with one sequential cold check of each
    // metadata-suite manifest. Sequential requests each wait out one
    // accept poll, so a round's length hardly depends on where in the
    // poll interval it started. Every round but the last shuts its daemon
    // down again.
    let mut streams: Vec<Vec<Request>> = Vec::new();
    let mut running = None;
    let mut round_start = cfg.started;
    for round in 0..SETUP_ROUNDS {
        streams = (0..CLIENTS)
            .map(|c| stream(cfg.seed, c, cycles, &suite))
            .collect();
        let server = match start_server() {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("setup round {round}: {e}"));
                return out;
            }
        };
        for base in suite.iter().filter(|b| b.metadata) {
            let name = format!("warmup{round}/{}.pp", base.name);
            let source = variant(base, &format!("w{round}"));
            let warm = Request {
                class: Class::Cold,
                base: *base,
                body: check_body(&name, &source, true),
                name,
                source,
            };
            let seen = send(&server.addr, &warm, None);
            if !seen.ok {
                out.fail(format!("warm-up {round}: {}", seen.why));
            }
        }
        out.setup_rounds.push(round_start.elapsed().as_secs_f64());
        if round + 1 < SETUP_ROUNDS {
            if let Err(e) = stop_server(server) {
                out.fail(format!("setup round {round}: {e}"));
            }
        } else {
            running = Some(server);
        }
        round_start = Instant::now();
    }
    let running = running.expect("the last set-up round keeps its daemon");
    let mut digest = Digest::new();
    for s in &streams {
        for r in s {
            digest.add(r.body.as_bytes());
        }
    }
    out.op_digest = digest.value();

    // One session for every traced request of both clients, written out
    // at the end.
    let session = Session::new();
    let arena_before = arena_nodes();
    let timed = Instant::now();
    let results: Vec<Vec<Reply>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|s| {
                let addr = running.addr.as_str();
                let session = &session;
                scope.spawn(move || {
                    s.iter()
                        .enumerate()
                        .map(|(k, req)| send(addr, req, cfg.traced(k).then_some(session)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    out.timed_s = timed.elapsed().as_secs_f64();
    let arena_growth = arena_nodes() - arena_before;
    let exported = http_request(&running.addr, "GET", "/v1/metrics", "")
        .map(|(_, body)| body)
        .unwrap_or_default();
    if let Err(e) = stop_server(running) {
        out.fail(e);
    }

    // Tally, per class and over all check requests.
    let (mut checks, mut memo_hits, mut analysed, mut graph_hits) = (0u64, 0u64, 0u64, 0u64);
    let (mut edit_clean, mut edit_resources, mut findings, mut lints) = (0.0, 0.0, 0.0, 0u64);
    let (mut run_ms, mut transport_ms, mut resources) = (0.0, 0.0, 0.0);
    let (mut sequences, mut skipped, mut conflicts, mut propagations) = (0.0, 0.0, 0.0, 0.0);
    let mut daemon_verdicts: BTreeMap<(String, String), String> = BTreeMap::new();
    for (s, seen) in streams.iter().zip(&results) {
        for (req, r) in s.iter().zip(seen) {
            out.attempted += 1;
            if r.traced {
                out.traced_latencies.push(r.ms);
            } else {
                out.latencies.push(r.ms);
            }
            out.classes.add(req.class.label(), r.ms);
            if !r.ok {
                out.fail(r.why.clone());
                continue;
            }
            out.work += 1.0;
            if req.class == Class::Lint {
                lints += 1;
                findings += r.findings;
                continue;
            }
            checks += 1;
            run_ms += r.run_ms;
            transport_ms += r.ms - r.run_ms;
            if r.memo_hit {
                // A memo hit replays the stored document, counters and all;
                // none of that work ran again.
                memo_hits += 1;
            } else {
                analysed += 1;
                graph_hits += u64::from(r.cached);
                resources += r.resources;
                sequences += r.sequences;
                skipped += r.skipped;
                conflicts += r.conflicts;
                propagations += r.propagations;
            }
            if req.class == Class::Edit {
                edit_clean += r.resources_clean;
                edit_resources += r.resources;
            }
            let key = (req.name.clone(), req.source.clone());
            if let Some(previous) = daemon_verdicts.insert(key, r.verdict.clone()) {
                if previous != r.verdict {
                    out.fail(format!("{}: verdict changed between requests", req.name));
                }
            }
        }
    }
    let repeats = streams
        .iter()
        .flatten()
        .filter(|r| r.class == Class::Repeat)
        .count() as u64;
    if memo_hits != repeats {
        out.notes.push(format!(
            "memo answered {memo_hits} requests, {repeats} were byte-identical repeats"
        ));
    }
    let exported_hits = exported
        .lines()
        .find_map(|l| l.strip_prefix("rehearsal_serve_cache_hits_total "))
        .and_then(|v| v.trim().parse::<u64>().ok());
    // The warm-up checks never hit the memo, so the daemon's own counter
    // must equal the hits the clients saw.
    if exported_hits != Some(memo_hits) {
        out.notes.push(format!(
            "/v1/metrics serve.cache_hits {exported_hits:?} vs {memo_hits} memo hits seen"
        ));
    }

    verify_in_process(&streams, &daemon_verdicts, &mut out);

    out.exact = vec![
        ("serve.memo_hits", memo_hits),
        ("fleet.cache_hits", graph_hits),
        ("serve.edit_resources_clean", edit_clean as u64),
        ("core.sequences_explored", sequences as u64),
        ("solver.conflicts", conflicts as u64),
        ("solver.propagations", propagations as u64),
        ("lint.findings", findings as u64),
        ("fs.arena_nodes", arena_growth),
    ];

    if cfg.trace {
        let checks_f = checks.max(1) as f64;
        let l = &mut out.layers;
        l.set("serve.service_ms", run_ms / checks_f);
        l.set("serve.transport_ms", transport_ms / checks_f);
        l.set("serve.memo_hit_ratio", memo_hits as f64 / checks_f);
        l.set(
            "serve.edit_reuse_ratio",
            edit_clean / f64::max(edit_resources, 1.0),
        );
        l.set("serve.cold_ms", out.classes.median("cold"));
        l.set("serve.repeat_ms", out.classes.median("repeat"));
        l.set("serve.reformat_ms", out.classes.median("reformat"));
        l.set("serve.edit_ms", out.classes.median("edit"));
        l.set("serve.lint_ms", out.classes.median("lint"));
        l.set(
            "fleet.cache_hit_ratio",
            graph_hits as f64 / analysed.max(1) as f64,
        );
        l.set(
            "resources.graph_resources",
            resources / analysed.max(1) as f64,
        );
        l.set("core.sequences_explored", sequences / checks_f);
        l.set("core.sequences_skipped", skipped / checks_f);
        l.set("solver.conflicts", conflicts / checks_f);
        l.set("solver.propagations", propagations / checks_f);
        l.set("lint.findings", findings / lints.max(1) as f64);
        l.set(
            "fs.arena_nodes",
            arena_growth as f64 / out.attempted.max(1) as f64,
        );
        out.traced_ops = out.traced_latencies.len();
        out.trace = Some(session.snapshot());
        shadow_parse(&streams, cfg, &mut out);
        for name in [
            "resources.compile_ms",
            "resources.compiled",
            "lint.ms",
            "core.eliminate_ms",
            "core.resources_after_elimination",
            "core.prune_ms",
            "core.tracked_paths",
            "core.explore_ms",
            "core.distinct_outputs",
            "core.idempotence_ms",
            "core.idempotence_encode_ms",
            "solver.solve_ms",
            "solver.queries",
            "solver.decisions",
            "solver.formula_nodes",
            "fleet.queue_ms",
            "fleet.worker_idle_ratio",
        ] {
            out.layers.unmeasured(
                name,
                "daemon workers run without a trace session and responses carry no such field",
            );
        }
    }
    out
}

/// The one-time in-process check: every distinct source the daemon
/// analysed goes through one `FleetEngine` run per analysis mode, and each
/// verdict must equal the daemon's. The engine dedupes sources that lower
/// to one graph, so this costs one analysis per cold or edit request.
fn verify_in_process(
    streams: &[Vec<Request>],
    daemon: &BTreeMap<(String, String), String>,
    out: &mut Outcome,
) {
    for metadata in [false, true] {
        let mut jobs = Vec::new();
        let mut keys = Vec::new();
        let mut seen = BTreeSet::new();
        for req in streams.iter().flatten() {
            if req.class == Class::Lint || req.base.metadata != metadata {
                continue;
            }
            let key = (req.name.clone(), req.source.clone());
            if !daemon.contains_key(&key) || !seen.insert(key.clone()) {
                continue;
            }
            jobs.push(FleetJob {
                name: req.name.clone(),
                source: req.source.clone(),
                platform: Platform::Ubuntu,
            });
            keys.push(key);
        }
        let analysis = AnalysisOptions {
            model_metadata: metadata,
            ..AnalysisOptions::default()
        };
        let report = FleetEngine::new(FleetOptions::default().with_analysis(analysis)).run(jobs);
        for (row, key) in report.rows.iter().zip(&keys) {
            if row.verdict.label() != daemon[key] {
                out.fail(format!(
                    "{}: daemon said {}, in-process engine {}",
                    key.0,
                    daemon[key],
                    row.verdict.label()
                ));
            }
        }
    }
}

/// The daemon's workers have no trace session, so parse and eval of the
/// cold and reformat requests are measured by evaluating each such traced
/// request's source again under the benchmark's own session (outside the
/// timed phase; the same `Rehearsal::catalog` call the daemon's lowering
/// starts with).
fn shadow_parse(streams: &[Vec<Request>], cfg: &Config, out: &mut Outcome) {
    let tool = Rehearsal::new(Platform::Ubuntu);
    let session = Session::new();
    let scope = session.install();
    let mut n = 0usize;
    for s in streams {
        for (k, req) in s.iter().enumerate() {
            if cfg.traced(k) && matches!(req.class, Class::Cold | Class::Reformat) {
                if tool.catalog(&req.source).is_err() {
                    out.fail(format!("{}: does not evaluate", req.name));
                }
                n += 1;
            }
        }
    }
    drop(scope);
    let snap = session.snapshot();
    let n = n.max(1) as f64;
    out.layers
        .set("puppet.parse_ms", span_ms(&snap, "parse") / n);
    out.layers.set("puppet.eval_ms", span_ms(&snap, "eval") / n);
}
