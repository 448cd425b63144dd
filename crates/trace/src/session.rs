//! Sessions, spans, and instant events.
//!
//! A [`Session`] is the collection scope for one profiled activity. The
//! global activity count is a single `AtomicUsize`, so [`is_active`] — the
//! check every instrumentation site performs first — is one relaxed atomic
//! load when no session exists anywhere in the process.
//!
//! [`Session::install`] puts the session in a thread-local slot. The
//! fleet engine uses this to give each job its own session on whichever
//! worker thread runs it, so concurrent jobs never mix records. Threads
//! with no installed session record nothing; the parallel explorer
//! merges its workers' counters and publishes them from the calling
//! thread instead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use crate::metrics::{MetricsSnapshot, Registry};

/// Number of installed sessions process-wide. Zero ⇒ every entry point
/// bails after one relaxed load.
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Sessions installed on this thread, innermost last.
    static CURRENT: std::cell::RefCell<Vec<Session>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Open span ids on this thread, innermost last (parent linkage).
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Parent id of a root span.
pub const NO_PARENT: u64 = u64::MAX;

/// Is any trace session installed anywhere in the process? One relaxed
/// atomic load — this is the whole disabled-mode cost.
#[inline]
pub fn is_active() -> bool {
    ACTIVE_SESSIONS.load(Ordering::Relaxed) != 0
}

/// The session visible to this thread: the innermost one installed on it.
pub fn current() -> Option<Session> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// A completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the session.
    pub id: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// Phase name (e.g. `"explore"`).
    pub name: &'static str,
    /// Category for trace viewers (e.g. `"core"`).
    pub cat: &'static str,
    /// Start, µs since the session epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Session-relative thread id (0 for the installing thread).
    pub tid: u32,
}

/// A sampled instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Event name (e.g. `"explore.frame"`).
    pub name: &'static str,
    /// Category for trace viewers.
    pub cat: &'static str,
    /// Timestamp, µs since the session epoch.
    pub ts_us: u64,
    /// Session-relative thread id.
    pub tid: u32,
}

struct SessionInner {
    epoch: Instant,
    next_span: AtomicUsize,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    /// OS thread id → stable session-relative small int. The installing
    /// thread maps to 0, so single-threaded traces are reproducible.
    tids: Mutex<HashMap<ThreadId, u32>>,
    metrics: Registry,
}

/// A collection scope for spans, events, and metrics.
///
/// Cheap to clone (an `Arc`). Create one per profiled activity, install
/// it for the activity's duration, then take a [`snapshot`](Session::snapshot).
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// Creates a fresh, uninstalled session.
    pub fn new() -> Session {
        let inner = SessionInner {
            epoch: Instant::now(),
            next_span: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            tids: Mutex::new(HashMap::new()),
            metrics: Registry::new(),
        };
        let s = Session {
            inner: Arc::new(inner),
        };
        // Pre-register the creating thread as tid 0.
        s.tid();
        s
    }

    /// Installs the session on the current thread until the guard drops.
    #[must_use = "the session is uninstalled when the guard drops"]
    pub fn install(&self) -> ScopeGuard {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        ACTIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        ScopeGuard(())
    }

    /// The session's metrics registry.
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// Session-relative id of the calling thread (0 = creating thread).
    fn tid(&self) -> u32 {
        let id = std::thread::current().id();
        let mut map = self.inner.tids.lock().unwrap();
        let next = map.len() as u32;
        *map.entry(id).or_insert(next)
    }

    fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    fn record_span(&self, rec: SpanRecord) {
        self.inner.spans.lock().unwrap().push(rec);
    }

    /// Records an instant event (callers sample before calling in).
    pub fn record_event(&self, name: &'static str, cat: &'static str) {
        let rec = EventRecord {
            name,
            cat,
            ts_us: self.now_us(),
            tid: self.tid(),
        };
        self.inner.events.lock().unwrap().push(rec);
    }

    /// Takes an immutable copy of everything recorded so far. Spans are
    /// sorted by start time; open spans are not included.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut spans = self.inner.spans.lock().unwrap().clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        let events = self.inner.events.lock().unwrap().clone();
        TraceSnapshot {
            spans,
            events,
            metrics: self.inner.metrics.snapshot(),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("spans", &self.inner.spans.lock().unwrap().len())
            .field("events", &self.inner.events.lock().unwrap().len())
            .finish()
    }
}

/// Uninstalls a session when dropped (returned by [`Session::install`]).
pub struct ScopeGuard(());

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Opens a span named `name` in category `"rehearsal"`; it closes (and is
/// recorded) when the returned guard drops. No-op without a session.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_cat(name, "rehearsal")
}

/// Opens a span with an explicit category (shown as a lane grouping hint
/// in trace viewers).
#[inline]
pub fn span_cat(name: &'static str, cat: &'static str) -> SpanGuard {
    if !is_active() {
        return SpanGuard { open: None };
    }
    let Some(session) = current() else {
        return SpanGuard { open: None };
    };
    let id = session.inner.next_span.fetch_add(1, Ordering::Relaxed) as u64;
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(NO_PARENT);
        s.push(id);
        parent
    });
    let start_us = session.now_us();
    let tid = session.tid();
    SpanGuard {
        open: Some(OpenSpan {
            session,
            id,
            parent,
            name,
            cat,
            start_us,
            tid,
        }),
    }
}

/// Records a sampled instant event. Callers in hot loops should keep a
/// local counter and only call this every N iterations.
#[inline]
pub fn event(name: &'static str, cat: &'static str) {
    if !is_active() {
        return;
    }
    if let Some(s) = current() {
        s.record_event(name, cat);
    }
}

struct OpenSpan {
    session: Session,
    id: u64,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    tid: u32,
}

/// An open span; recording happens when it drops.
#[must_use = "the span is recorded when the guard drops"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own id; tolerate disorder from mem::forget abuse.
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.remove(pos);
            }
        });
        let end = open.session.now_us();
        open.session.record_span(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            cat: open.cat,
            start_us: open.start_us,
            dur_us: end.saturating_sub(open.start_us),
            tid: open.tid,
        });
    }
}

/// Everything a session recorded: spans, events, and a metrics snapshot.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Completed spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Sampled instant events, in record order.
    pub events: Vec<EventRecord>,
    /// The metrics registry at snapshot time.
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default_and_spans_are_noops() {
        // NB: tests run concurrently; another test may have a session
        // installed, so only assert the no-session path on *this* thread.
        let before = CURRENT.with(|c| c.borrow().len());
        assert_eq!(before, 0);
        let g = span("orphan");
        drop(g); // must not panic, records nowhere
        event("orphan.event", "test");
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let session = Session::new();
        let _scope = session.install();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span_cat("inner", "test");
            }
        }
        let snap = session.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, NO_PARENT);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.cat, "test");
        assert!(outer.dur_us >= inner.dur_us);
        assert_eq!(outer.tid, 0);
    }

    #[test]
    fn install_is_scoped_to_guard() {
        let session = Session::new();
        {
            let _scope = session.install();
            assert!(is_active());
            let _s = span("scoped");
        }
        // After the guard drops, new spans on this thread don't record
        // into the session.
        let _orphan = span("after");
        drop(_orphan);
        let snap = session.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "scoped");
    }

    #[test]
    fn nested_install_innermost_wins() {
        let outer = Session::new();
        let inner = Session::new();
        let _og = outer.install();
        {
            let _ig = inner.install();
            let _s = span("in-inner");
        }
        let _s = span("in-outer");
        drop(_s);
        assert_eq!(outer.snapshot().spans.len(), 1);
        assert_eq!(outer.snapshot().spans[0].name, "in-outer");
        assert_eq!(inner.snapshot().spans.len(), 1);
        assert_eq!(inner.snapshot().spans[0].name, "in-inner");
    }

    #[test]
    fn events_record_with_session() {
        let session = Session::new();
        let _scope = session.install();
        event("tick", "test");
        event("tick", "test");
        let snap = session.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].name, "tick");
    }

    #[test]
    fn counters_route_to_current_session() {
        let session = Session::new();
        let _scope = session.install();
        crate::counter_add("test.count", 2);
        crate::counter_add("test.count", 3);
        crate::gauge_set("test.gauge", 7);
        crate::gauge_max("test.gauge", 5); // lower: no change
        crate::gauge_max("test.gauge", 9);
        crate::observe("test.hist", 4);
        let m = session.snapshot().metrics;
        assert_eq!(m.counter("test.count"), Some(5));
        assert_eq!(m.gauge("test.gauge"), Some(9));
        assert_eq!(m.histogram("test.hist").unwrap().count, 1);
    }
}
