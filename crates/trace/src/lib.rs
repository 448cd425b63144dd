//! **rehearsal-trace** — the always-compiled observability subsystem.
//!
//! Rehearsal's evaluation is all about *where time goes* (pruning vs.
//! exploration vs. SAT, paper fig. 11–13), so every layer of the pipeline
//! is instrumented against this crate:
//!
//! * [`Session`] — a collection scope for one profiled activity (a `check`
//!   run, one fleet job, a bench sample). Sessions install per thread;
//!   the fleet engine gives each job its own session so concurrent jobs
//!   never mix.
//! * [`span`] — phase-scoped, nested wall-clock timing
//!   (`parse → eval → lower → eliminate → prune → explore → solve`).
//!   Guards record on drop; nesting comes from a thread-local stack.
//! * [`Registry`] — a typed metrics registry (counters, gauges,
//!   histograms) fed by the pipeline's stats structs at phase boundaries
//!   and by sampled hot-path events.
//! * [`event`] — sampling-bounded instant events from hot loops (the
//!   explorer DFS, the CDCL conflict loop). Call sites keep a local
//!   counter and only call in when [`is_active`] — which is a single
//!   atomic load — so the disabled-mode overhead is one branch.
//! * Export: [`TraceSnapshot::render_tree`] (the `--timings` human tree),
//!   [`TraceSnapshot::to_chrome_trace`] (Chrome trace-event JSON for
//!   `chrome://tracing` / Perfetto), and
//!   [`MetricsSnapshot::to_prometheus`] (Prometheus textfile export, the
//!   seam a future `rehearsal serve` daemon will scrape).
//!
//! # Examples
//!
//! ```
//! use rehearsal_trace as trace;
//!
//! let session = trace::Session::new();
//! {
//!     let _scope = session.install();
//!     {
//!         let _parse = trace::span("parse");
//!         // ... work ...
//!     }
//!     trace::counter_add("arena.dedup_hits", 42);
//! }
//! let snap = session.snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! assert_eq!(snap.metrics.counter("arena.dedup_hits"), Some(42));
//! assert!(snap.to_chrome_trace().contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]

mod export;
mod metrics;
mod session;

pub use export::{sanitize_metric_name, PhaseTotal};
pub use metrics::{HistSnapshot, MetricsSnapshot, Registry};
pub use session::{
    current, event, is_active, span, span_cat, EventRecord, ScopeGuard, Session, SpanGuard,
    SpanRecord, TraceSnapshot, NO_PARENT,
};

/// Adds `delta` to counter `name` in the current session's registry, if a
/// session is active on this thread. One atomic load when inactive.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_active() {
        return;
    }
    if let Some(s) = current() {
        s.metrics().counter_add(name, delta);
    }
}

/// Sets gauge `name` to `value` in the current session's registry.
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if !is_active() {
        return;
    }
    if let Some(s) = current() {
        s.metrics().gauge_set(name, value);
    }
}

/// Raises gauge `name` to `value` if `value` is higher (high-water mark).
#[inline]
pub fn gauge_max(name: &'static str, value: i64) {
    if !is_active() {
        return;
    }
    if let Some(s) = current() {
        s.metrics().gauge_max(name, value);
    }
}

/// Records `value` into histogram `name` in the current session's
/// registry.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !is_active() {
        return;
    }
    if let Some(s) = current() {
        s.metrics().observe(name, value);
    }
}
