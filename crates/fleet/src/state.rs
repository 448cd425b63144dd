//! The shared persistent-state handle: one verdict cache plus one
//! optional baseline store behind interior locks.
//!
//! Before this module the CLI opened the `--cache` and `--baseline`
//! files per `run()` and saved them ad hoc afterwards, and nothing
//! stopped two engines (or a daemon's concurrent requests) from
//! interleaving writes to the same files. A [`StateDir`] is opened
//! *once*, shared by reference ([`std::sync::Arc`]) between any number
//! of [`crate::FleetEngine`]s and server worker threads, and flushed in
//! one place — explicitly via [`StateDir::flush`], and as a backstop on
//! drop. Both stores already rewrite their files wholesale on save, so
//! single-writer flushing through one handle is what makes the on-disk
//! state torn-write-free.

use crate::baseline::{BaselineEntry, BaselineStore};
use crate::cache::{CachedVerdict, VerdictCache};
use crate::report::Verdict;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// File name of the verdict cache inside a state directory.
pub const STATE_CACHE_FILE: &str = "verdicts.jsonl";
/// File name of the baseline store inside a state directory.
pub const STATE_BASELINE_FILE: &str = "baseline.jsonl";

/// The open-once, flush-on-drop handle to a run's persistent state: the
/// schema-5 verdict cache and (optionally) the differential baseline.
/// All accessors take `&self`; a `Mutex` per store serializes concurrent
/// engines, so requests sharing one handle never interleave writes.
#[derive(Debug, Default)]
pub struct StateDir {
    cache: Mutex<VerdictCache>,
    baseline: Mutex<Option<BaselineStore>>,
}

impl StateDir {
    /// A fully in-memory handle: empty cache, no baseline, no backing
    /// files (every flush is a no-op).
    pub fn in_memory() -> StateDir {
        StateDir::default()
    }

    /// Opens (or initializes) a state directory holding
    /// [`STATE_CACHE_FILE`] and [`STATE_BASELINE_FILE`]. The directory is
    /// created if missing; corrupt or stale-schema lines in either file
    /// are skipped, exactly as when the files are opened individually.
    ///
    /// # Errors
    ///
    /// I/O errors from directory creation or file reads.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<StateDir> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let state = StateDir::in_memory();
        state.set_cache(VerdictCache::open(dir.join(STATE_CACHE_FILE))?);
        state.set_baseline(BaselineStore::open(dir.join(STATE_BASELINE_FILE))?);
        Ok(state)
    }

    /// Replaces the verdict cache (e.g. one opened from an explicit
    /// `--cache FILE` path).
    pub fn set_cache(&self, cache: VerdictCache) {
        *self.cache.lock().expect("cache lock") = cache;
    }

    /// Attaches (or replaces) the baseline store.
    pub fn set_baseline(&self, baseline: BaselineStore) {
        *self.baseline.lock().expect("baseline lock") = Some(baseline);
    }

    /// Detaches and returns the baseline store, leaving none attached.
    pub fn take_baseline(&self) -> Option<BaselineStore> {
        self.baseline.lock().expect("baseline lock").take()
    }

    /// Whether a baseline store is attached.
    pub fn has_baseline(&self) -> bool {
        self.baseline.lock().expect("baseline lock").is_some()
    }

    /// Number of verdict-cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Looks a verdict-cache key up (cloning the entry out of the lock).
    pub fn cache_get(&self, key: u64) -> Option<CachedVerdict> {
        self.cache.lock().expect("cache lock").get(key).cloned()
    }

    /// Records a verdict under `key` (timeouts are dropped, as always).
    pub fn cache_put(&self, key: u64, verdict: CachedVerdict) {
        self.cache.lock().expect("cache lock").put(key, verdict);
    }

    /// Number of baseline entries (0 when no store is attached).
    pub fn baseline_len(&self) -> usize {
        self.baseline
            .lock()
            .expect("baseline lock")
            .as_ref()
            .map_or(0, BaselineStore::len)
    }

    /// The baseline entry for `(manifest, options fingerprint)`, cloned
    /// out of the lock; `None` when absent or no store is attached.
    pub fn baseline_get(&self, manifest: &str, options_fp: u64) -> Option<BaselineEntry> {
        self.baseline
            .lock()
            .expect("baseline lock")
            .as_ref()
            .and_then(|s| s.get(manifest, options_fp).cloned())
    }

    /// Any baseline entry with this graph digest under this fingerprint
    /// (the rename-proof fallback), cloned out of the lock.
    pub fn baseline_find_by_digest(
        &self,
        graph_digest: u64,
        options_fp: u64,
    ) -> Option<BaselineEntry> {
        self.baseline
            .lock()
            .expect("baseline lock")
            .as_ref()
            .and_then(|s| s.find_by_digest(graph_digest, options_fp).cloned())
    }

    /// The replay lookup the engine uses: the entry for this manifest if
    /// its digest matches, else any entry with the digest (a rename).
    pub fn baseline_replay(
        &self,
        manifest: &str,
        options_fp: u64,
        graph_digest: u64,
    ) -> Option<BaselineEntry> {
        let guard = self.baseline.lock().expect("baseline lock");
        let store = guard.as_ref()?;
        store
            .get(manifest, options_fp)
            .filter(|e| e.graph_digest == graph_digest)
            .or_else(|| store.find_by_digest(graph_digest, options_fp))
            .cloned()
    }

    /// Records (or replaces) a baseline entry. A no-op when no store is
    /// attached, so engines can record unconditionally.
    pub fn baseline_put(&self, entry: BaselineEntry) {
        if let Some(store) = self.baseline.lock().expect("baseline lock").as_mut() {
            store.put(entry);
        }
    }

    /// The `(manifest, graph digest, verdict)` triples pinned under this
    /// options fingerprint — the comparison set for coverage/drift
    /// rollups, snapshotted *before* later runs re-record entries.
    pub fn baseline_pins(&self, options_fp: u64) -> Vec<(String, u64, Verdict)> {
        self.baseline
            .lock()
            .expect("baseline lock")
            .as_ref()
            .map(|store| {
                let mut pins: Vec<(String, u64, Verdict)> = store
                    .entries()
                    .filter(|e| e.options == options_fp)
                    .map(|e| (e.manifest.clone(), e.graph_digest, e.verdict.clone()))
                    .collect();
                pins.sort_by(|a, b| a.0.cmp(&b.0));
                pins
            })
            .unwrap_or_default()
    }

    /// Writes both stores back to their backing files (no-ops for
    /// in-memory stores or when nothing changed).
    ///
    /// # Errors
    ///
    /// I/O errors from either save.
    pub fn flush(&self) -> io::Result<()> {
        self.cache.lock().expect("cache lock").save()?;
        if let Some(store) = self.baseline.lock().expect("baseline lock").as_mut() {
            store.save()?;
        }
        Ok(())
    }
}

impl Drop for StateDir {
    /// Backstop flush: explicit [`StateDir::flush`] is the place errors
    /// surface; the drop exists so a forgotten save still persists.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(label: &str) -> CachedVerdict {
        CachedVerdict {
            verdict: Verdict::from_label(label).unwrap(),
            detail: String::new(),
            resources: 1,
            diagnostics: Vec::new(),
        }
    }

    #[test]
    fn open_creates_the_directory_and_round_trips() {
        let dir = std::env::temp_dir().join("rehearsal-statedir-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let state = StateDir::open(&dir).unwrap();
            state.cache_put(7, verdict("deterministic"));
            state.flush().unwrap();
        }
        assert!(dir.join(STATE_CACHE_FILE).exists());
        let reloaded = StateDir::open(&dir).unwrap();
        assert_eq!(reloaded.cache_len(), 1);
        assert!(reloaded.cache_get(7).is_some());
        assert!(
            reloaded.has_baseline(),
            "state dirs always carry a baseline"
        );
    }

    #[test]
    fn drop_flushes_as_a_backstop() {
        let dir = std::env::temp_dir().join("rehearsal-statedir-dropflush");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let state = StateDir::open(&dir).unwrap();
            state.cache_put(9, verdict("nondeterministic"));
            // No explicit flush: Drop persists it.
        }
        let reloaded = StateDir::open(&dir).unwrap();
        assert!(reloaded.cache_get(9).is_some());
    }

    #[test]
    fn in_memory_has_no_baseline_until_attached() {
        let state = StateDir::in_memory();
        assert!(!state.has_baseline());
        assert_eq!(state.baseline_len(), 0);
        state.baseline_put(BaselineEntry {
            manifest: "dropped.pp".to_string(),
            platform: rehearsal_pkgdb::Platform::Ubuntu,
            options: 1,
            graph_digest: 2,
            resources: Vec::new(),
            edges: Vec::new(),
            pairs: Vec::new(),
            verdict: Verdict::Deterministic,
            detail: String::new(),
            diagnostics: Vec::new(),
        });
        assert_eq!(state.baseline_len(), 0, "puts without a store are no-ops");
        state.set_baseline(BaselineStore::in_memory());
        assert!(state.has_baseline());
    }
}
