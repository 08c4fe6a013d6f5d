//! The `wCache` shared window cache.
//!
//! "wCache acts as an index for answering efficiently equality constraints on
//! the time column when processing infinite streams. … WCache will then
//! produce results to multiple queries accessing different streams."
//!
//! Concretely: many concurrent diagnostic tasks window the *same* measurement
//! streams (the 1,024-task showcase registers variations of a handful of
//! templates). Without sharing, each query re-slices the stream per window;
//! with `WCache`, the first query to need a window materializes it and every
//! other query closing the same window gets the `Arc`-shared batch.
//!
//! A window is identified by its **bounds** — `(open, close]` on its stream —
//! never by a window id: ids count slides from a query's own pulse start, so
//! a 10 s and a 30 s window on the same slide grid share ids but not rows.
//! The key also carries the novelty epoch the rows were read at (an append
//! makes every earlier epoch's windows stale) and a content variant for
//! subject-key-restricted windows.
//!
//! The cache is bounded by its owner: [`WCache::retire`] drops the windows
//! every query on a stream has ticked past plus those of superseded epochs,
//! and [`WCache::evict_stream`] drops a stream whose base rows were
//! rewritten. Hit statistics feed the E8 bench.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use optique_relational::Value;

/// Key identifying one materialized window of one stream.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WindowKey {
    /// Stream name.
    pub stream: String,
    /// Exclusive lower time bound of the window.
    pub open_ms: i64,
    /// Inclusive upper time bound of the window.
    pub close_ms: i64,
    /// Novelty epoch the rows were read at (0 = base rows only).
    pub epoch: u64,
    /// Content variant: `""` for the full window; a restriction
    /// fingerprint for windows materialized under a subject-key semi-join
    /// (a restricted window is a *subset* of the full one, so it must never
    /// answer a full-window lookup).
    pub variant: String,
}

impl WindowKey {
    /// The full window `(open_ms, close_ms]` of `stream` over its base rows.
    pub fn new(stream: &str, open_ms: i64, close_ms: i64) -> Self {
        WindowKey {
            stream: stream.to_string(),
            open_ms,
            close_ms,
            epoch: 0,
            variant: String::new(),
        }
    }

    /// The same window read at novelty epoch `epoch` (builder style).
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The same window under a content variant (builder style).
    pub fn restricted(mut self, variant: impl Into<String>) -> Self {
        self.variant = variant.into();
        self
    }
}

/// A shared, thread-safe window cache with hit/miss accounting.
#[derive(Default)]
pub struct WCache {
    entries: RwLock<HashMap<WindowKey, Arc<Vec<Vec<Value>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WCache {
    /// An empty cache.
    pub fn new() -> Self {
        WCache::default()
    }

    /// Fetches the rows of window `key`, materializing them with `build`
    /// on first access. Concurrent callers may race to build; the first
    /// insert wins and later builds are discarded (builds are pure).
    pub fn get_or_build(
        &self,
        key: &WindowKey,
        build: impl FnOnce() -> Vec<Vec<Value>>,
    ) -> Arc<Vec<Vec<Value>>> {
        if let Some(hit) = self.lookup(key) {
            return hit;
        }
        self.insert(key.clone(), build())
    }

    /// Looks up a cached window, counting a hit or a miss. The two-step
    /// `lookup` / [`Self::insert`] form exists for builders that can fail
    /// (a fragment round over a federation): a closure-based
    /// `get_or_build` cannot return the build error.
    pub fn lookup(&self, key: &WindowKey) -> Option<Arc<Vec<Vec<Value>>>> {
        match self.entries.read().expect("wcache poisoned").get(key) {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(hit))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a materialized window, returning the shared batch (the
    /// first insert wins a race; later inserts are discarded — builds are
    /// pure, so every racer built the same rows).
    pub fn insert(&self, key: WindowKey, rows: Vec<Vec<Value>>) -> Arc<Vec<Vec<Value>>> {
        let built = Arc::new(rows);
        let mut map = self.entries.write().expect("wcache poisoned");
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// Drops every window of `stream` that closed at or before
    /// `closed_through` — windows every query on the stream has ticked
    /// past — and every window read at an epoch other than `epoch`: an
    /// append supersedes the epoch, so those entries can never hit again.
    pub fn retire(&self, stream: &str, closed_through: i64, epoch: u64) {
        let mut map = self.entries.write().expect("wcache poisoned");
        map.retain(|k, _| k.stream != stream || (k.close_ms > closed_through && k.epoch == epoch));
    }

    /// Drops every cached window of `stream` — after its base rows were
    /// rewritten (a merge or a stop-the-world write resets the epoch while
    /// windows may have gained rows).
    pub fn evict_stream(&self, stream: &str) {
        let mut map = self.entries.write().expect("wcache poisoned");
        map.retain(|k, _| k.stream != stream);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached windows.
    pub fn len(&self) -> usize {
        self.entries.read().expect("wcache poisoned").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for WCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WCache({} windows, {} hits, {} misses)",
            self.len(),
            self.hits(),
            self.misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int(i)]).collect()
    }

    /// Window `k` of a 10 s / 10 s grid on `stream`.
    fn key(stream: &str, k: i64) -> WindowKey {
        WindowKey::new(stream, k * 10_000, (k + 1) * 10_000)
    }

    #[test]
    fn build_once_share_after() {
        let cache = WCache::new();
        let mut builds = 0;
        let a = cache.get_or_build(&key("S", 1), || {
            builds += 1;
            rows(3)
        });
        let b = cache.get_or_build(&key("S", 1), || {
            builds += 1;
            rows(3)
        });
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_windows_distinct_entries() {
        let cache = WCache::new();
        cache.get_or_build(&key("S", 1), || rows(1));
        cache.get_or_build(&key("S", 2), || rows(2));
        cache.get_or_build(&key("T", 1), || rows(3));
        assert_eq!(cache.len(), 3);
    }

    /// Windows on one slide grid with different ranges share a window id
    /// but not their rows: keyed by bounds, they are distinct entries.
    #[test]
    fn same_close_different_range_are_distinct() {
        let cache = WCache::new();
        let short = cache.get_or_build(&WindowKey::new("S", 20_000, 30_000), || rows(1));
        let long = cache.get_or_build(&WindowKey::new("S", 0, 30_000), || rows(3));
        assert_eq!((short.len(), long.len()), (1, 3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn eviction_respects_stream_and_watermark() {
        let cache = WCache::new();
        for k in 0..5 {
            cache.get_or_build(&key("S", k), || rows(1));
        }
        cache.get_or_build(&key("T", 0), || rows(1));
        cache.retire("S", key("S", 2).close_ms, 0);
        assert_eq!(cache.len(), 3, "S:3, S:4 and T:0 remain");
        // Re-fetching evicted window is a miss again.
        let before = cache.misses();
        cache.get_or_build(&key("S", 0), || rows(1));
        assert_eq!(cache.misses(), before + 1);
    }

    #[test]
    fn retire_drops_superseded_epochs_and_evict_drops_the_stream() {
        let cache = WCache::new();
        cache.get_or_build(&key("S", 5).at_epoch(1), || rows(1));
        cache.get_or_build(&key("S", 5).at_epoch(2), || rows(2));
        cache.get_or_build(&key("T", 5).at_epoch(1), || rows(1));
        cache.retire("S", 0, 2);
        assert_eq!(cache.len(), 2, "S at epoch 2 and T remain");
        assert!(cache.lookup(&key("S", 5).at_epoch(2)).is_some());
        cache.evict_stream("S");
        assert_eq!(cache.len(), 1, "only T remains");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(WCache::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for k in 0..50u64 {
                        let got = cache.get_or_build(&key("S", k as i64), || rows(k as i64 % 7));
                        assert_eq!(got.len(), (k % 7) as usize, "thread {t} window {k}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.hits() + cache.misses(), 400);
        assert!(cache.misses() >= 50);
    }
}
