//! Multi-core permutation exploration (`AnalysisOptions::threads > 1`).
//!
//! The sequential explorer ([`crate::determinism`]) walks the POR-reduced
//! interleaving tree depth-first with one encoder and one incremental
//! solver. This module splits that walk across OS threads while keeping
//! the verdict **bit-identical** for every thread count:
//!
//! 1. **Structural frontier.** The first few levels of the interleaving
//!    tree are expanded *without an encoder* — `ExploreShape`'s branch
//!    candidates depend only on the `remaining` bitset — into a fixed,
//!    thread-count-independent list of `(prefix, remaining)` work items
//!    whose subtrees partition the sequence space.
//! 2. **Work stealing.** Items are dealt round-robin to per-worker
//!    deques; an idle worker pops its own front and steals from the back
//!    of the longest victim queue (the same discipline as the fleet
//!    scheduler). Steals are counted into the `explorer.steals` metric.
//! 3. **Per-worker encoders.** [`Ctx`](rehearsal_solver::Ctx) is
//!    single-threaded by design, so each worker owns an encoder plus a
//!    persistent incremental solver. Workers exchange knowledge through
//!    two shared structures, both built on
//!    [`rehearsal_sync::ShardedMap`]:
//!    * a **state cache** keyed by `(remaining, state digest)` — the
//!      128-bit structural digest is stable across same-domain encoders,
//!      so a subtree completed by one worker is skipped by all;
//!    * an **output registry** keyed by state digest, holding one
//!      representative sequence per distinct symbolic output.
//! 4. **Baseline comparison.** Every worker evaluates one fixed
//!    topological order as its *baseline* output. A newly discovered
//!    distinct output is checked against the baseline in the finding
//!    worker's own context. By POR soundness the baseline is semantically
//!    equal to some explored output, so "some output differs from the
//!    baseline on some input" is equivalent to the sequential "some
//!    output differs from the first output" — the verdict transfers.
//! 5. **Deterministic accounting.** On a deterministic verdict (or with
//!    early exit off), `sequences_explored` and `distinct_outputs` are
//!    exact and thread-count-invariant: each leaf is counted exactly
//!    once, by construction of the disjoint subtrees. On a
//!    non-deterministic verdict the search stops at the first divergence,
//!    so how far each worker got — and with it both counts — depends on
//!    scheduling. Scheduling-dependent counters (`sequences_skipped`,
//!    `state_cache_hits`, per-solver work) are summed honestly but vary
//!    run-to-run; one thread bypasses this module entirely and
//!    reproduces the sequential statistics bit-for-bit.
//!
//! A divergence found by any worker is decoded to a concrete initial
//! filesystem *in that worker's context*, stored first-writer-wins, and
//! propagated to the others through an abort flag (which also interrupts
//! in-flight SAT calls). A divergence always wins over a concurrent
//! cap/timeout abort: the evidence is already replayable.

use crate::bitset::Bits;
use crate::determinism::{
    interrupt_flag, solve_abort_reason, AnalysisAborted, AnalysisOptions, ExploreShape, FsGraph,
};
use crate::domain::Domain;
use crate::encoder::{Encoder, SymState};
use rehearsal_fs::{FileSystem, FsPath};
use rehearsal_solver::{CtxStats, GroundingStats};
use rehearsal_sync::ShardedMap;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Target size of the structural frontier. Fixed (never derived from the
/// thread count) so the work decomposition — and with it every exact
/// counter — is identical no matter how many workers run it.
const FRONTIER_TARGET: usize = 128;

/// Divergence evidence: a concrete initial filesystem plus two orders
/// (pruned-graph indices) that provably produce different outcomes.
pub(crate) type Divergence = (FileSystem, Vec<usize>, Vec<usize>);

/// Everything the parallel exploration learned, merged deterministically
/// (exact counters are sums over disjoint subtrees; context gauges are
/// maxima; solver counters are honest sums).
pub(crate) struct ParallelOutcome {
    pub(crate) divergence: Option<Divergence>,
    pub(crate) explored: u64,
    pub(crate) skipped: u64,
    pub(crate) cache_hits: u64,
    pub(crate) distinct_outputs: usize,
    pub(crate) tracked_paths: usize,
    pub(crate) ctx: CtxStats,
    pub(crate) grounding: GroundingStats,
    pub(crate) solver_conflicts: u64,
    pub(crate) solver_decisions: u64,
    pub(crate) solver_propagations: u64,
    pub(crate) steals: u64,
}

impl ParallelOutcome {
    /// Publishes the merged counters under the same metric names the
    /// sequential path uses, plus the parallel-only `explorer.*` series.
    pub(crate) fn publish_trace_metrics(&self) {
        if !rehearsal_trace::is_active() {
            return;
        }
        rehearsal_trace::gauge_max("ctx.formula_nodes", self.ctx.formula_nodes as i64);
        rehearsal_trace::gauge_max("ctx.term_nodes", self.ctx.term_nodes as i64);
        rehearsal_trace::gauge_max(
            "ctx.dedup_hits",
            (self.ctx.formula_dedup_hits + self.ctx.term_dedup_hits) as i64,
        );
        rehearsal_trace::counter_add("sat.conflicts", self.solver_conflicts);
        rehearsal_trace::counter_add("sat.decisions", self.solver_decisions);
        rehearsal_trace::counter_add("sat.propagations", self.solver_propagations);
        rehearsal_trace::counter_add("sat.grounded_nodes", self.grounding.grounded_nodes);
        rehearsal_trace::counter_add("sat.grounded_clauses", self.grounding.grounded_clauses);
        rehearsal_trace::counter_add("sat.grounding_reused", self.grounding.reused_nodes);
        rehearsal_trace::counter_add("explorer.steals", self.steals);
    }
}

/// State shared by every worker of one exploration.
struct SharedExplore {
    /// Completed subtrees: `(remaining, state digest)` → sequences
    /// covered. Entries are inserted only after a subtree completes, with
    /// the inserting worker's *local* leaf delta, so a hit always adds an
    /// exact count.
    visited: ShardedMap<(Bits, u128), u64>,
    /// Distinct symbolic outputs: state digest → index into
    /// `output_seqs`. Index 0 is always the baseline.
    outputs: ShardedMap<u128, usize>,
    /// One representative sequence per distinct output, in registration
    /// order (paired with its digest).
    output_seqs: Mutex<Vec<(Vec<usize>, u128)>>,
    /// Whether some explored leaf reproduced the baseline digest (used to
    /// keep `distinct_outputs` equal to the sequential count, which never
    /// includes the baseline as an extra entry).
    baseline_observed: AtomicBool,
    /// Total sequences covered across workers, for the `max_sequences`
    /// cap. Worker-local counters, not this one, feed cache entries.
    explored_global: AtomicU64,
    /// Cooperative stop: set on divergence, error, or cancellation; also
    /// passed to in-flight SAT calls as their interrupt flag.
    abort: Arc<AtomicBool>,
    /// First divergence found, with replayable evidence.
    divergence: Mutex<Option<Divergence>>,
}

impl SharedExplore {
    fn new() -> SharedExplore {
        SharedExplore {
            visited: ShardedMap::new(),
            outputs: ShardedMap::new(),
            output_seqs: Mutex::new(Vec::new()),
            baseline_observed: AtomicBool::new(false),
            explored_global: AtomicU64::new(0),
            abort: Arc::new(AtomicBool::new(false)),
            divergence: Mutex::new(None),
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Registers an output digest, returning `(index, freshly inserted)`.
    /// First-writer-wins across workers; the sequence is stored only for
    /// fresh digests.
    fn register_output(&self, digest: u128, seq: &[usize]) -> (usize, bool) {
        if let Some(idx) = self.outputs.get(&digest) {
            return (idx, false);
        }
        let mut seqs = self.output_seqs.lock().expect("output registry poisoned");
        // Double-check under the lock: a sibling may have won the race.
        if let Some(idx) = self.outputs.get(&digest) {
            return (idx, false);
        }
        let idx = seqs.len();
        seqs.push((seq.to_vec(), digest));
        self.outputs.insert_if_absent(digest, idx);
        (idx, true)
    }
}

/// One work item: a committed prefix and the nodes still to schedule.
type WorkItem = (Vec<usize>, Bits);

/// Expands the interleaving tree level by level — purely structurally,
/// using only [`ExploreShape::branch_candidates`] — until at least
/// `target` items exist or every item is a complete sequence. The items'
/// subtrees partition the POR-reduced sequence space.
fn expand_frontier(shape: &ExploreShape, n: usize, target: usize) -> Vec<WorkItem> {
    let mut items: Vec<WorkItem> = vec![(Vec::new(), Bits::full(n))];
    while items.len() < target {
        let mut next: Vec<WorkItem> = Vec::with_capacity(items.len() * 2);
        let mut expanded = false;
        for (prefix, remaining) in &items {
            if remaining.is_empty() {
                next.push((prefix.clone(), remaining.clone()));
                continue;
            }
            expanded = true;
            for &e in &shape.branch_candidates(remaining) {
                let mut p = prefix.clone();
                p.push(e);
                next.push((p, remaining.without(e)));
            }
        }
        items = next;
        if !expanded {
            break;
        }
    }
    items
}

/// A DFS frame of the worker-local subtree walk (the worker-mode twin of
/// the sequential explorer's frame).
struct WFrame {
    remaining: Bits,
    state: SymState,
    candidates: Vec<usize>,
    next: usize,
    pushed: bool,
    entered: bool,
    explored_at_entry: u64,
    key: Option<(Bits, u128)>,
}

impl WFrame {
    fn unentered(remaining: Bits, state: SymState) -> WFrame {
        WFrame {
            remaining,
            state,
            candidates: Vec::new(),
            next: 0,
            pushed: false,
            entered: false,
            explored_at_entry: 0,
            key: None,
        }
    }
}

/// Per-worker counters handed back to the merge step.
struct WorkerStats {
    explored: u64,
    skipped: u64,
    cache_hits: u64,
    tracked_paths: usize,
    ctx: CtxStats,
    grounding: GroundingStats,
    solver: rehearsal_solver::SolverStats,
    steals: u64,
}

/// One exploration worker: its own encoder, incremental solver and
/// baseline output. Built lazily, on the worker's own
/// thread (the context is single-threaded), when the first item arrives.
struct Worker<'a> {
    graph: &'a FsGraph,
    shape: &'a ExploreShape,
    options: &'a AnalysisOptions,
    deadline: Option<Instant>,
    shared: &'a SharedExplore,
    enc: Encoder,
    initial: SymState,
    baseline_state: SymState,
    baseline_seq: &'a [usize],
    explored: u64,
    skipped: u64,
    cache_hits: u64,
}

impl<'a> Worker<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        graph: &'a FsGraph,
        shape: &'a ExploreShape,
        options: &'a AnalysisOptions,
        deadline: Option<Instant>,
        shared: &'a SharedExplore,
        domain: Domain,
        read_only: &BTreeSet<FsPath>,
        baseline_seq: &'a [usize],
    ) -> Worker<'a> {
        let mut enc = Encoder::new(domain);
        for &p in read_only {
            enc.mark_read_only(p);
        }
        let initial = enc.initial_state();
        let mut baseline_state = initial.clone();
        for &e in baseline_seq {
            baseline_state = enc.eval_expr(graph.exprs[e], &baseline_state);
        }
        let baseline_digest = enc.state_digest(&baseline_state);
        shared.register_output(baseline_digest, baseline_seq);
        Worker {
            graph,
            shape,
            options,
            deadline,
            shared,
            enc,
            initial,
            baseline_state,
            baseline_seq,
            explored: 0,
            skipped: 0,
            cache_hits: 0,
        }
    }

    fn check_budget(&self) -> Result<(), AnalysisAborted> {
        if let Some(token) = &self.options.cancel {
            if token.is_cancelled() {
                return Err(AnalysisAborted {
                    reason: "cancelled during permutation exploration".to_string(),
                });
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(AnalysisAborted {
                    reason: "timeout during permutation exploration".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Adds `k` covered sequences to the global total, enforcing the cap.
    fn bump_global(&self, k: u64) -> Result<(), AnalysisAborted> {
        let total = self.shared.explored_global.fetch_add(k, Ordering::Relaxed) + k;
        if total > self.options.max_sequences as u64 {
            return Err(AnalysisAborted {
                reason: format!(
                    "more than {} sequences explored",
                    self.options.max_sequences
                ),
            });
        }
        Ok(())
    }

    /// Records a completed sequence; on early exit, checks fresh distinct
    /// outputs against this worker's baseline. Returns `true` when a
    /// divergence was found (and the abort flag raised).
    fn record_leaf(&mut self, state: SymState, prefix: &[usize]) -> Result<bool, AnalysisAborted> {
        self.explored += 1;
        self.bump_global(1)?;
        let digest = self.enc.state_digest(&state);
        let (idx, fresh) = self.shared.register_output(digest, prefix);
        if !fresh {
            if idx == 0 {
                self.shared.baseline_observed.store(true, Ordering::Relaxed);
            }
            return Ok(false);
        }
        if !self.options.early_exit {
            return Ok(false);
        }
        let d = self.enc.states_differ(&self.baseline_state, &state);
        if self.enc.ctx.is_false(d) {
            return Ok(false);
        }
        let solved =
            self.enc
                .ctx
                .solve_assuming(d, self.deadline, Some(Arc::clone(&self.shared.abort)));
        match solved {
            Ok(None) => Ok(false),
            Ok(Some(model)) => {
                let init_fs = self.enc.decode_state(&model, &self.initial);
                let mut slot = self.shared.divergence.lock().expect("divergence poisoned");
                if slot.is_none() {
                    *slot = Some((init_fs, self.baseline_seq.to_vec(), prefix.to_vec()));
                }
                drop(slot);
                self.shared.abort.store(true, Ordering::Relaxed);
                Ok(true)
            }
            Err(_) => {
                // The solver aborts on deadline, cancellation, or the
                // shared abort flag. Only the first two are *this*
                // worker's errors; a sibling's abort just means stop.
                self.check_budget()?;
                Ok(false)
            }
        }
    }

    /// Explores one work item's subtree to completion (the worker-mode
    /// twin of the sequential DFS: same fringe logic, shared caches).
    /// Returns `true` when this worker found a divergence.
    fn run_item(&mut self, item: WorkItem) -> Result<bool, AnalysisAborted> {
        let (mut prefix, remaining) = item;
        self.check_budget()?;
        let mut state = self.initial.clone();
        for &e in &prefix {
            state = self.enc.eval_expr(self.graph.exprs[e], &state);
        }
        let mut stack: Vec<WFrame> = vec![WFrame::unentered(remaining, state)];
        let mut iterations: u64 = 0;

        fn return_to_parent(stack: &mut [WFrame], prefix: &mut Vec<usize>) {
            if let Some(parent) = stack.last_mut() {
                if parent.pushed {
                    prefix.pop();
                    parent.pushed = false;
                }
            }
        }

        while !stack.is_empty() {
            if self.shared.aborted() {
                return Ok(false);
            }
            iterations += 1;
            if iterations & 0xFFF == 0 {
                rehearsal_trace::event("explore.frames.4k", "core");
            }
            let top = stack.last_mut().expect("non-empty stack");
            if !top.entered {
                top.entered = true;
                self.check_budget()?;
                if top.remaining.is_empty() {
                    let frame = stack.pop().expect("frame on stack");
                    if self.record_leaf(frame.state, &prefix)? {
                        return Ok(true);
                    }
                    return_to_parent(&mut stack, &mut prefix);
                    continue;
                }
                if self.options.state_cache {
                    let digest = self.enc.state_digest(&top.state);
                    let key = (top.remaining.clone(), digest);
                    if let Some(count) = self.shared.visited.get(&key) {
                        self.cache_hits += 1;
                        self.skipped += count;
                        self.explored += count;
                        self.bump_global(count)?;
                        stack.pop();
                        return_to_parent(&mut stack, &mut prefix);
                        continue;
                    }
                    top.key = Some(key);
                }
                top.explored_at_entry = self.explored;
                let candidates = self.shape.branch_candidates(&top.remaining);
                let top = stack.last_mut().expect("non-empty stack");
                top.candidates = candidates;
            }

            let top = stack.last_mut().expect("non-empty stack");
            if top.next < top.candidates.len() {
                let e = top.candidates[top.next];
                top.next += 1;
                let next_state = self.enc.eval_expr(self.graph.exprs[e], &top.state);
                let rest = top.remaining.without(e);
                top.pushed = true;
                prefix.push(e);
                stack.push(WFrame::unentered(rest, next_state));
            } else {
                let frame = stack.pop().expect("frame on stack");
                if let Some(key) = frame.key {
                    // First writer wins: racing workers computed the same
                    // exact subtree count, so either entry is correct.
                    self.shared
                        .visited
                        .insert_if_absent(key, self.explored - frame.explored_at_entry);
                }
                return_to_parent(&mut stack, &mut prefix);
            }
        }
        Ok(false)
    }

    fn finish(self, steals: u64) -> WorkerStats {
        WorkerStats {
            explored: self.explored,
            skipped: self.skipped,
            cache_hits: self.cache_hits,
            tracked_paths: self.enc.tracked_paths(),
            ctx: self.enc.ctx.stats(),
            grounding: self.enc.ctx.grounding_stats(),
            solver: self.enc.ctx.solver_stats(),
            steals,
        }
    }
}

/// Pops the caller's own front, or steals from the back of the longest
/// sibling queue (re-scanning until every queue is observed empty).
fn next_item(
    queues: &[Mutex<VecDeque<WorkItem>>],
    own: usize,
    steals: &mut u64,
) -> Option<WorkItem> {
    if let Some(item) = queues[own].lock().expect("work queue poisoned").pop_front() {
        return Some(item);
    }
    loop {
        let mut victim = None;
        let mut best_len = 0;
        for (i, q) in queues.iter().enumerate() {
            if i == own {
                continue;
            }
            let len = q.lock().expect("work queue poisoned").len();
            if len > best_len {
                best_len = len;
                victim = Some(i);
            }
        }
        let v = victim?;
        if let Some(item) = queues[v].lock().expect("work queue poisoned").pop_back() {
            *steals += 1;
            return Some(item);
        }
        // The victim drained between the scan and the pop; rescan.
    }
}

/// Explores the (pruned) graph's interleavings on `options.threads`
/// workers and decides determinism. Only called with `threads > 1`; the
/// sequential path never enters this module.
pub(crate) fn explore_parallel(
    graph: &FsGraph,
    options: &AnalysisOptions,
    deadline: Option<Instant>,
    shape: &ExploreShape,
    domain: &Domain,
    read_only: &BTreeSet<FsPath>,
) -> Result<ParallelOutcome, AnalysisAborted> {
    let n = graph.exprs.len();
    let threads = options.threads.max(1);
    let items = expand_frontier(shape, n, FRONTIER_TARGET);
    let topo = graph.topological_order();
    let shared = SharedExplore::new();

    let queues: Vec<Mutex<VecDeque<WorkItem>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % threads]
            .lock()
            .expect("work queue poisoned")
            .push_back(item);
    }
    let error: Mutex<Option<AnalysisAborted>> = Mutex::new(None);
    let sink: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let (queues, shared, error, sink, topo) = (&queues, &shared, &error, &sink, &topo);
        for w in 0..threads {
            s.spawn(move || {
                let mut steals = 0u64;
                let mut worker: Option<Worker<'_>> = None;
                loop {
                    if shared.aborted() {
                        break;
                    }
                    let Some(item) = next_item(queues, w, &mut steals) else {
                        break;
                    };
                    let wk = worker.get_or_insert_with(|| {
                        Worker::new(
                            graph,
                            shape,
                            options,
                            deadline,
                            shared,
                            domain.clone(),
                            read_only,
                            topo,
                        )
                    });
                    match wk.run_item(item) {
                        Ok(true) => break,
                        Ok(false) => {}
                        Err(e) => {
                            let mut slot = error.lock().expect("error slot poisoned");
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            drop(slot);
                            shared.abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                if let Some(wk) = worker {
                    sink.lock()
                        .expect("stats sink poisoned")
                        .push(wk.finish(steals));
                }
            });
        }
    });

    // Merge worker counters: exact counts sum over disjoint subtrees,
    // context sizes take the per-worker maximum, solver work sums.
    let workers = sink.into_inner().expect("stats sink poisoned");
    let mut ctx = CtxStats::default();
    let mut grounding = GroundingStats::default();
    let mut outcome = ParallelOutcome {
        divergence: None,
        explored: 0,
        skipped: 0,
        cache_hits: 0,
        distinct_outputs: 0,
        tracked_paths: workers.first().map_or(0, |w| w.tracked_paths),
        ctx: CtxStats::default(),
        grounding: GroundingStats::default(),
        solver_conflicts: 0,
        solver_decisions: 0,
        solver_propagations: 0,
        steals: 0,
    };
    for w in &workers {
        ctx.merge(&w.ctx);
        grounding.merge(&w.grounding);
        outcome.explored += w.explored;
        outcome.skipped += w.skipped;
        outcome.cache_hits += w.cache_hits;
        outcome.solver_conflicts += w.solver.conflicts;
        outcome.solver_decisions += w.solver.decisions;
        outcome.solver_propagations += w.solver.propagations;
        outcome.steals += w.steals;
    }

    // A divergence wins over a concurrent cap/timeout abort: the evidence
    // is complete and replayable regardless of what the siblings hit.
    let divergence = shared
        .divergence
        .lock()
        .expect("divergence poisoned")
        .take();
    if divergence.is_none() {
        if let Some(e) = error.into_inner().expect("error slot poisoned") {
            return Err(e);
        }
    }

    let output_seqs = shared
        .output_seqs
        .lock()
        .expect("output registry poisoned")
        .clone();
    // The registry holds the baseline plus every distinct explored
    // output; the sequential `distinct_outputs` counts only the latter,
    // so subtract the baseline unless some leaf reproduced it.
    let baseline_extra = usize::from(!shared.baseline_observed.load(Ordering::Relaxed));
    outcome.distinct_outputs = output_seqs.len().saturating_sub(baseline_extra);

    let divergence = match divergence {
        Some(d) => Some(d),
        // Early exit off: nobody solved during exploration; fall back to
        // the sequential path's monolithic disjunction, replaying each
        // representative sequence in a fresh context.
        None if !options.early_exit && output_seqs.len() > 1 => {
            let _span = rehearsal_trace::span_cat("solve.final", "core");
            let mut enc = Encoder::new(domain.clone());
            for &p in read_only {
                enc.mark_read_only(p);
            }
            let initial = enc.initial_state();
            let replayed: Vec<SymState> = output_seqs
                .iter()
                .map(|(seq, _)| {
                    let mut st = initial.clone();
                    for &e in seq {
                        st = enc.eval_expr(graph.exprs[e], &st);
                    }
                    st
                })
                .collect();
            let mut disjuncts = Vec::new();
            for other in &replayed[1..] {
                let d = enc.states_differ(&replayed[0], other);
                disjuncts.push(d);
            }
            let any_diff = enc.ctx.or(disjuncts.clone());
            let solved = enc
                .ctx
                .solve_with_budget(any_diff, deadline, interrupt_flag(options))
                .map_err(|_| solve_abort_reason(options))?;
            let found = solved.map(|model| {
                let mut which = 1;
                for (k, d) in disjuncts.iter().enumerate() {
                    if model.formula_value_in(&enc.ctx, *d) {
                        which = k + 1;
                        break;
                    }
                }
                let init_fs = enc.decode_state(&model, &initial);
                (
                    init_fs,
                    output_seqs[0].0.clone(),
                    output_seqs[which].0.clone(),
                )
            });
            // The final query's solver work is real; fold it in.
            ctx.merge(&enc.ctx.stats());
            grounding.merge(&enc.ctx.grounding_stats());
            let solver = enc.ctx.solver_stats();
            outcome.solver_conflicts += solver.conflicts;
            outcome.solver_decisions += solver.decisions;
            outcome.solver_propagations += solver.propagations;
            found
        }
        None => None,
    };
    outcome.divergence = divergence;
    outcome.ctx = ctx;
    outcome.grounding = grounding;
    Ok(outcome)
}
