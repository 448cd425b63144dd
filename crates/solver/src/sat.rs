//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! This is a from-scratch implementation in the MiniSat lineage:
//! two-watched-literal propagation, first-UIP conflict analysis with clause
//! minimization, VSIDS-style variable activity with an indexed binary heap,
//! phase saving, Luby restarts, and activity-based learnt-clause deletion.
//!
//! Rehearsal's determinacy formulas are effectively propositional, so after
//! finite-domain grounding (see [`crate::ctx`]) this solver plays the role
//! that Z3 plays in the original paper.
//!
//! # Examples
//!
//! ```
//! use rehearsal_solver::{Lit, Solver};
//!
//! let mut s = Solver::new();
//! let a = Lit::positive(s.new_var());
//! let b = Lit::positive(s.new_var());
//! s.add_clause([a, b]);
//! s.add_clause([!a]);
//! let model = s.solve().expect_sat();
//! assert!(model.value(b));
//! ```

use crate::lit::{LBool, Lit, Var};

/// Index of a clause in the solver's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClauseRef(u32);

const CLAUSE_NONE: ClauseRef = ClauseRef(u32::MAX);

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    /// A literal from the clause other than the watched one; if it is
    /// already true the clause is satisfied and need not be inspected.
    blocker: Lit,
}

/// The result of a satisfiability query.
#[derive(Debug, Clone)]
pub enum SatResult {
    /// The formula is satisfiable; a model is provided.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The solver gave up (deadline exceeded).
    Unknown,
}

impl SatResult {
    /// Returns `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Unwraps the model.
    ///
    /// # Panics
    ///
    /// Panics if the result is [`SatResult::Unsat`].
    pub fn expect_sat(self) -> Model {
        match self {
            SatResult::Sat(m) => m,
            SatResult::Unsat => panic!("expected SAT, formula is UNSAT"),
            SatResult::Unknown => panic!("expected SAT, solver gave up"),
        }
    }

    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// A satisfying assignment.
///
/// Variables the solver never had to decide are reported as `false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The truth value of `lit` in this model.
    pub fn value(&self, lit: Lit) -> bool {
        let v = self.values.get(lit.var().index()).copied().unwrap_or(false);
        if lit.is_positive() {
            v
        } else {
            !v
        }
    }

    /// The truth value of `var` in this model.
    pub fn var_value(&self, var: Var) -> bool {
        self.values.get(var.index()).copied().unwrap_or(false)
    }

    /// Number of variables covered by the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Aggregate statistics from a solver run, useful for benchmarking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
}

/// Indexed max-heap over variables ordered by activity.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` when absent.
    index: Vec<usize>,
}

impl VarHeap {
    fn grow_to(&mut self, n: usize) {
        if self.index.len() < n {
            self.index.resize(n, usize::MAX);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.index[v.index()] != usize::MAX
    }

    fn push(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.index[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.index[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn update(&mut self, v: Var, activity: &[f64]) {
        let pos = self.index[v.index()];
        if pos != usize::MAX {
            self.sift_up(pos, activity);
        }
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if activity[self.heap[pos].index()] <= activity[self.heap[parent].index()] {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut best = pos;
            if left < self.heap.len()
                && activity[self.heap[left].index()] > activity[self.heap[best].index()]
            {
                best = left;
            }
            if right < self.heap.len()
                && activity[self.heap[right].index()] > activity[self.heap[best].index()]
            {
                best = right;
            }
            if best == pos {
                break;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a].index()] = a;
        self.index[self.heap[b].index()] = b;
    }
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// See the [module documentation](self) for an overview and example.
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Watch lists indexed by literal code: clauses in which that literal is
    /// one of the two watched literals.
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    /// Saved phase for each variable (phase saving).
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarHeap,
    /// Scratch flags for conflict analysis.
    seen: Vec<bool>,
    /// Set to true when a top-level conflict has been found.
    unsat: bool,
    stats: SolverStats,
    max_learnts: f64,
    /// Optional wall-clock deadline checked between restarts.
    deadline: Option<std::time::Instant>,
    /// Optional cooperative-cancellation flag, polled inside the search
    /// loop so an external scheduler can interrupt a long solve.
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLAUSE_DECAY: f64 = 1.0 / 0.999;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 100;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarHeap::default(),
            seen: Vec::new(),
            unsat: false,
            stats: SolverStats::default(),
            max_learnts: 0.0,
            deadline: None,
            interrupt: None,
        }
    }

    /// Sets a wall-clock deadline; [`Solver::solve`] returns
    /// [`SatResult::Unknown`] if it is exceeded. The deadline is polled
    /// inside the DPLL/CDCL search loop (every 1024 conflicts or
    /// decisions), so even a single long restart interval cannot overshoot
    /// it by much.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Attaches a cooperative-cancellation flag. When the flag becomes
    /// `true`, [`Solver::solve`] returns [`SatResult::Unknown`] at the next
    /// poll point — the same in-loop points as the deadline — letting a
    /// fleet scheduler interrupt a solve mid-search instead of waiting for
    /// a permutation boundary.
    pub fn set_interrupt(&mut self, flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Whether the deadline has passed or the interrupt flag is raised.
    fn should_stop(&self) -> bool {
        if let Some(flag) = &self.interrupt {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if std::time::Instant::now() > d {
                return true;
            }
        }
        false
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(CLAUSE_NONE);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.push(v, &self.activity);
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            self.new_var();
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of original (problem) clauses added.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    fn value_lit(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Adds a clause. Returns `false` if the solver is already known to be
    /// unsatisfiable at the top level.
    ///
    /// Clauses may only be added before/between `solve` calls (the solver
    /// backtracks to level 0 after solving).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.unsat {
            return false;
        }
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        ls.sort();
        ls.dedup();
        // Remove top-level false literals; detect tautologies and satisfied
        // clauses.
        let mut i = 0;
        while i < ls.len() {
            if i + 1 < ls.len() && ls[i] == !ls[i + 1] {
                return true; // tautology: x ∨ ¬x
            }
            match self.value_lit(ls[i]) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {
                    ls.remove(i);
                }
                LBool::Undef => i += 1,
            }
        }
        match ls.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.unchecked_enqueue(ls[0], CLAUSE_NONE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(ls, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef(self.clauses.len() as u32);
        self.watches[lits[0].code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            deleted: false,
        });
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    fn detach_clause(&mut self, cref: ClauseRef) {
        let (w0, w1) = {
            let c = &self.clauses[cref.0 as usize];
            (c.lits[0], c.lits[1])
        };
        self.watches[w0.code()].retain(|w| w.cref != cref);
        self.watches[w1.code()].retain(|w| w.cref != cref);
        let c = &mut self.clauses[cref.0 as usize];
        c.deleted = true;
        if c.learnt {
            self.stats.learnt_clauses -= 1;
        }
        c.lits.clear();
        c.lits.shrink_to_fit();
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.value_lit(lit), LBool::Undef);
        let vi = lit.var().index();
        self.assigns[vi] = LBool::from_bool(lit.is_positive());
        self.level[vi] = self.decision_level();
        self.reason[vi] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Visit clauses watching `false_lit`.
            let mut i = 0;
            'watchers: while i < self.watches[false_lit.code()].len() {
                let Watcher { cref, blocker } = self.watches[false_lit.code()][i];
                if self.value_lit(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let ci = cref.0 as usize;
                // Make sure the false literal is at position 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if first != blocker && self.value_lit(first) == LBool::True {
                    // Clause satisfied; refresh blocker.
                    self.watches[false_lit.code()][i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.value_lit(cand) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[false_lit.code()].swap_remove(i);
                        self.watches[cand.code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.value_lit(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break 'watchers;
                }
                self.unchecked_enqueue(first, cref);
                i += 1;
            }
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref.0 as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.clause_inc;
        if c.activity > RESCALE_LIMIT {
            for cl in self.clauses.iter_mut().filter(|cl| cl.learnt) {
                cl.activity *= 1e-100;
            }
            self.clause_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (with the
    /// asserting literal first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::from_index(0))]; // placeholder
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            self.bump_clause(confl);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[confl.0 as usize].lits.len() {
                let q = self.clauses[confl.0 as usize].lits[k];
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.bump_var(q.var());
                    if self.level[vi] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert!(confl != CLAUSE_NONE, "resolved literal must have a reason");
            // Reorder reason clause so the implied literal (pl) is skipped.
            let ci = confl.0 as usize;
            if self.clauses[ci].lits[0] != pl {
                let pos = self.clauses[ci]
                    .lits
                    .iter()
                    .position(|&l| l == pl)
                    .expect("implied literal in its reason clause");
                self.clauses[ci].lits.swap(0, pos);
            }
        }
        learnt[0] = !p.expect("first UIP found");

        // Clause minimization: drop literals whose reason is subsumed by the
        // rest of the learnt clause (one resolution step).
        for l in &learnt {
            self.seen[l.var().index()] = true;
        }
        let mut minimized = vec![learnt[0]];
        for &q in &learnt[1..] {
            let r = self.reason[q.var().index()];
            let redundant = r != CLAUSE_NONE
                && self.clauses[r.0 as usize].lits.iter().all(|&x| {
                    x.var() == q.var()
                        || self.seen[x.var().index()]
                        || self.level[x.var().index()] == 0
                });
            if !redundant {
                minimized.push(q);
            }
        }
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let mut learnt = minimized;

        // Find backtrack level: the second-highest decision level.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt_level)
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let lit = self.trail[i];
            let vi = lit.var().index();
            self.phase[vi] = lit.is_positive();
            self.assigns[vi] = LBool::Undef;
            self.reason[vi] = CLAUSE_NONE;
            self.order.push(lit.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn locked(&self, cref: ClauseRef) -> bool {
        let c = &self.clauses[cref.0 as usize];
        if c.lits.is_empty() {
            return false;
        }
        let v = c.lits[0].var();
        self.reason[v.index()] == cref && self.assigns[v.index()] != LBool::Undef
    }

    fn reduce_db(&mut self) {
        let mut learnts: Vec<ClauseRef> = (0..self.clauses.len())
            .map(|i| ClauseRef(i as u32))
            .filter(|&c| {
                let cl = &self.clauses[c.0 as usize];
                cl.learnt && !cl.deleted && cl.lits.len() > 2 && !self.locked(c)
            })
            .collect();
        learnts.sort_by(|&a, &b| {
            let aa = self.clauses[a.0 as usize].activity;
            let ba = self.clauses[b.0 as usize].activity;
            aa.partial_cmp(&ba).unwrap_or(std::cmp::Ordering::Equal)
        });
        for &cref in learnts.iter().take(learnts.len() / 2) {
            self.detach_clause(cref);
        }
    }

    /// Solves the current set of clauses.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals: the result is relative
    /// to all assumptions holding. Assumptions do not persist — the next
    /// call starts fresh. This is the standard incremental-SAT interface.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        self.max_learnts = (self.num_clauses() as f64 / 3.0).max(1000.0);
        let mut restart_num = 0u64;
        loop {
            if self.should_stop() {
                self.cancel_until(0);
                return SatResult::Unknown;
            }
            // (Re-)apply assumptions as pseudo-decisions at the start of
            // each restart.
            let mut assumptions_conflict = false;
            for &a in assumptions {
                match self.value_lit(a) {
                    LBool::True => {}
                    LBool::False => {
                        assumptions_conflict = true;
                        break;
                    }
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(a, CLAUSE_NONE);
                        if self.propagate().is_some() {
                            assumptions_conflict = true;
                            break;
                        }
                    }
                }
            }
            if assumptions_conflict {
                self.cancel_until(0);
                return SatResult::Unsat;
            }
            let budget = luby(restart_num) * RESTART_BASE;
            match self.search_above(budget, assumptions.len() as u32) {
                SearchResult::Sat => {
                    let values = self.assigns.iter().map(|&a| a == LBool::True).collect();
                    self.cancel_until(0);
                    return SatResult::Sat(Model { values });
                }
                SearchResult::Unsat => {
                    self.cancel_until(0);
                    if assumptions.is_empty() {
                        self.unsat = true;
                    }
                    return SatResult::Unsat;
                }
                SearchResult::Restart => {
                    restart_num += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    self.max_learnts *= 1.05;
                }
            }
        }
    }

    /// Search that treats decision levels `<= assumption_level` as the
    /// effective root: a conflict forcing a backjump into the assumptions
    /// is UNSAT-under-assumptions.
    fn search_above(&mut self, conflict_budget: u64, assumption_level: u32) -> SearchResult {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                conflicts += 1;
                self.stats.conflicts += 1;
                // Deadline/interrupt check with bounded overhead; the same
                // cadence bounds the sampled trace events.
                if conflicts & 0x3FF == 0 {
                    rehearsal_trace::event("sat.conflicts.1k", "solver");
                    if self.should_stop() {
                        return SearchResult::Restart;
                    }
                }
                if self.decision_level() <= assumption_level {
                    return SearchResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                let bt = bt.max(assumption_level.min(self.decision_level() - 1));
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], CLAUSE_NONE);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_clause(learnt, true);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(asserting, cref);
                }
                self.var_inc *= VAR_DECAY;
                self.clause_inc *= CLAUSE_DECAY;
            } else {
                if conflicts >= conflict_budget {
                    return SearchResult::Restart;
                }
                if self.stats.learnt_clauses as f64 >= self.max_learnts {
                    self.reduce_db();
                }
                match self.pick_branch_var() {
                    None => return SearchResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        if self.stats.decisions & 0x3FF == 0 && self.should_stop() {
                            return SearchResult::Restart;
                        }
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(v, self.phase[v.index()]);
                        self.unchecked_enqueue(lit, CLAUSE_NONE);
                    }
                }
            }
        }
    }
}

enum SearchResult {
    Sat,
    Unsat,
    Restart,
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
fn luby(mut x: u64) -> u64 {
    // Find the finite subsequence that contains index `x` and the size of
    // that subsequence.
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::positive(s.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        s.add_clause([!v[0]]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn no_clauses_sat() {
        let mut s = Solver::new();
        lits(&mut s, 3);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn raised_interrupt_returns_unknown() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(Arc::clone(&flag)));
        assert!(matches!(s.solve(), SatResult::Unknown));
        // Lowering the flag lets the same solver finish.
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.add_clause([v[0]]);
        for i in 0..4 {
            s.add_clause([!v[i], v[i + 1]]);
        }
        let m = s.solve().expect_sat();
        for l in v {
            assert!(m.value(l));
        }
    }

    #[test]
    fn implication_forces_conflict() {
        // (a -> b), (a -> !b), a  is UNSAT.
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[0], !v[1]]);
        s.add_clause([v[0]]);
        assert!(!s.solve().is_sat());
    }

    /// Pigeonhole principle: n+1 pigeons in n holes is UNSAT.
    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let mut var = vec![vec![Lit::positive(Var::from_index(0)); holes]; pigeons];
        for row in var.iter_mut() {
            for slot in row.iter_mut() {
                *slot = Lit::positive(s.new_var());
            }
        }
        // Every pigeon is in some hole.
        for row in &var {
            s.add_clause(row.clone());
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            for (p1, row1) in var.iter().enumerate() {
                for row2 in var.iter().skip(p1 + 1) {
                    s.add_clause([!row1[h], !row2[h]]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        assert!(!pigeonhole(4, 3).solve().is_sat());
        assert!(!pigeonhole(5, 4).solve().is_sat());
    }

    #[test]
    fn pigeonhole_sat() {
        assert!(pigeonhole(3, 3).solve().is_sat());
        assert!(pigeonhole(4, 6).solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // An XOR chain: x0 ^ x1 = 1, x1 ^ x2 = 1, ...
        let mut s = Solver::new();
        let v = lits(&mut s, 8);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for i in 0..7 {
            clauses.push(vec![v[i], v[i + 1]]);
            clauses.push(vec![!v[i], !v[i + 1]]);
        }
        clauses.push(vec![v[0]]);
        for c in &clauses {
            s.add_clause(c.clone());
        }
        let m = s.solve().expect_sat();
        for c in &clauses {
            assert!(c.iter().any(|&l| m.value(l)), "clause {c:?} unsatisfied");
        }
        // Check alternation forced by XOR chain.
        for (i, &lit) in v.iter().enumerate() {
            assert_eq!(m.value(lit), i % 2 == 0);
        }
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause([v[0], !v[0]]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[0], v[1]]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn luby_sequence() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = pigeonhole(5, 4);
        let _ = s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.decisions > 0);
        assert!(st.propagations > 0);
    }

    #[test]
    fn solve_twice_is_stable() {
        let mut s = pigeonhole(3, 3);
        assert!(s.solve().is_sat());
        assert!(s.solve().is_sat());
        let mut u = pigeonhole(4, 3);
        assert!(!u.solve().is_sat());
        assert!(!u.solve().is_sat());
    }

    #[test]
    fn assumptions_restrict_models() {
        let mut s = Solver::new();
        let a = Lit::positive(s.new_var());
        let b = Lit::positive(s.new_var());
        s.add_clause([a, b]);
        // Assuming ¬a forces b.
        let m = s.solve_with_assumptions(&[!a]).expect_sat();
        assert!(!m.value(a));
        assert!(m.value(b));
        // Assuming both negative is UNSAT…
        assert!(!s.solve_with_assumptions(&[!a, !b]).is_sat());
        // …but the solver is reusable afterwards (assumptions don't stick).
        assert!(s.solve().is_sat());
        assert!(s.solve_with_assumptions(&[a]).is_sat());
    }

    #[test]
    fn assumptions_with_conflicting_pair() {
        let mut s = Solver::new();
        let a = Lit::positive(s.new_var());
        assert!(!s.solve_with_assumptions(&[a, !a]).is_sat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_on_pigeonhole() {
        // PHP(3,3) is SAT; fixing pigeon 0 to hole 0 keeps it SAT; fixing
        // two pigeons to the same hole makes it UNSAT.
        let mut s = pigeonhole(3, 3);
        let p0h0 = Lit::positive(Var::from_index(0));
        let p1h0 = Lit::positive(Var::from_index(3));
        assert!(s.solve_with_assumptions(&[p0h0]).is_sat());
        assert!(!s.solve_with_assumptions(&[p0h0, p1h0]).is_sat());
        assert!(s.solve().is_sat());
    }

    /// A 3-coloring instance on a small odd cycle plus constraints.
    #[test]
    fn graph_coloring() {
        // 5-cycle is 3-colorable but not 2-colorable.
        let n = 5;
        let colors = 3;
        let mut s = Solver::new();
        let mut var = vec![vec![]; n];
        for row in var.iter_mut() {
            for _ in 0..colors {
                row.push(Lit::positive(s.new_var()));
            }
        }
        for row in var.iter() {
            s.add_clause(row.clone());
        }
        for i in 0..n {
            let j = (i + 1) % n;
            for (a, b) in var[i].clone().into_iter().zip(var[j].clone()) {
                s.add_clause([!a, !b]);
            }
        }
        assert!(s.solve().is_sat());

        // 2-coloring version: UNSAT.
        let colors = 2;
        let mut s = Solver::new();
        let mut var = vec![vec![]; n];
        for row in var.iter_mut() {
            for _ in 0..colors {
                row.push(Lit::positive(s.new_var()));
            }
        }
        for row in var.iter() {
            s.add_clause(row.clone());
        }
        for i in 0..n {
            let j = (i + 1) % n;
            for (a, b) in var[i].clone().into_iter().zip(var[j].clone()) {
                s.add_clause([!a, !b]);
            }
        }
        assert!(!s.solve().is_sat());
    }
}
