//! Statement-level concretization cache (§7, optimization 2).
//!
//! Alg. 2 synthesizes one program per DAG in the MEC, but different DAGs
//! share most parent sets — re-filling `GIVEN Pa ON a` for every DAG would
//! repeat the grouping scan. The cache keys on `(given, on)` and memoizes the
//! fill result (including the `⊥` outcome), and is shared across worker
//! threads when parallel synthesis is enabled. Each key is filled once: a
//! miss on a key another thread is filling waits for that fill.

use crate::fill::FilledStatement;
use crate::sketch::StatementSketch;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Hit/miss counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that required a fill.
    pub misses: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 for an unused cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe memo table from statement sketches to fill outcomes.
#[derive(Debug, Default)]
pub struct StatementCache {
    inner: Mutex<CacheInner>,
    /// Signalled whenever a fill ends, memoized or not.
    filled: Condvar,
}

/// A key's slot: `None` while one thread fills it, then the outcome.
type Slot = Option<Option<FilledStatement>>;

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<StatementSketch, Slot>,
    stats: CacheStats,
}

/// Frees a key whose fill did not finish (an error or a panic), so a
/// waiting thread fills it instead.
struct Claim<'a> {
    cache: &'a StatementCache,
    sketch: &'a StatementSketch,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.lock().map.remove(self.sketch);
        self.cache.filled.notify_all();
    }
}

impl StatementCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoized fill for `sketch`, computing it with `fill` on a
    /// miss. The `Option` is the fill outcome (`None` = `⊥`), memoized in
    /// both cases.
    pub fn get_or_fill<F>(&self, sketch: &StatementSketch, fill: F) -> Option<FilledStatement>
    where
        F: FnOnce() -> Option<FilledStatement>,
    {
        match self.try_get_or_fill(sketch, || Ok::<_, std::convert::Infallible>(fill())) {
            Ok(outcome) => outcome,
            Err(never) => match never {},
        }
    }

    /// Fallible [`get_or_fill`](Self::get_or_fill) for budget-governed
    /// fills: a fill aborted by exhaustion propagates its error and is *not*
    /// memoized (an aborted scan says nothing about the sketch), so a later
    /// run with budget left can still fill it. A miss on a key another
    /// thread is filling waits for that fill and counts as a hit; if that
    /// fill aborts, the waiter fills the key itself.
    pub fn try_get_or_fill<F, E>(
        &self,
        sketch: &StatementSketch,
        fill: F,
    ) -> Result<Option<FilledStatement>, E>
    where
        F: FnOnce() -> Result<Option<FilledStatement>, E>,
    {
        let mut inner = self.lock();
        loop {
            match inner.map.get(sketch) {
                Some(Some(hit)) => {
                    let hit = hit.clone();
                    inner.stats.hits += 1;
                    return Ok(hit);
                }
                Some(None) => inner = self.filled.wait(inner).unwrap_or_else(|e| e.into_inner()),
                None => break,
            }
        }
        inner.stats.misses += 1;
        inner.map.insert(sketch.clone(), None);
        drop(inner);
        // Fill outside the lock; other keys' lookups and fills go on.
        let claim = Claim { cache: self, sketch };
        let result = fill()?;
        std::mem::forget(claim);
        self.lock().map.insert(sketch.clone(), Some(result.clone()));
        self.filled.notify_all();
        Ok(result)
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of memoized sketches.
    pub fn len(&self) -> usize {
        self.lock().map.values().filter(|slot| slot.is_some()).count()
    }

    /// `true` when nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::fill_statement_sketch;
    use guardrail_table::Table;
    use std::time::Duration;

    fn table() -> Table {
        Table::from_csv_str("a,b\n0,x\n0,x\n1,y\n").unwrap()
    }

    #[test]
    fn memoizes_fills_and_bottoms() {
        let t = table();
        let cache = StatementCache::new();
        let sketch = StatementSketch::new(vec![0], 1);

        let first = cache.get_or_fill(&sketch, || fill_statement_sketch(&t, &sketch, 0.0));
        assert!(first.is_some());
        let mut called = false;
        let second = cache.get_or_fill(&sketch, || {
            called = true;
            None
        });
        assert!(!called, "second lookup must hit the cache");
        assert_eq!(second.unwrap().statement, first.unwrap().statement);

        // ⊥ results are memoized too.
        let noisy = StatementSketch::new(vec![1], 0);
        let bottom = cache.get_or_fill(&noisy, || None);
        assert!(bottom.is_none());
        let mut called = false;
        cache.get_or_fill(&noisy, || {
            called = true;
            None
        });
        assert!(!called);

        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 2, misses: 2 });
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_sketches_do_not_collide() {
        let cache = StatementCache::new();
        let a = StatementSketch::new(vec![0], 1);
        let b = StatementSketch::new(vec![0, 2], 1);
        cache.get_or_fill(&a, || None);
        let mut called = false;
        cache.get_or_fill(&b, || {
            called = true;
            None
        });
        assert!(called, "different given-set is a different key");
    }

    /// Two threads miss one sketch at once: one fills, the other waits for
    /// that fill and reads it as a hit. The first fill holds on until a
    /// second fill of the key starts (or a timeout passes), so a cache that
    /// fills a key twice always shows it.
    #[test]
    fn concurrent_misses_fill_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc::channel;
        let t = table();
        let cache = StatementCache::new();
        let sketch = StatementSketch::new(vec![0], 1);
        let fills = AtomicUsize::new(0);
        let (filling, first_is_filling) = channel();
        let (second_fill, second_fill_started) = channel();
        let (first, second) = std::thread::scope(|scope| {
            let (cache, sketch, t, fills) = (&cache, &sketch, &t, &fills);
            let first = scope.spawn(move || {
                cache.get_or_fill(sketch, || {
                    fills.fetch_add(1, Ordering::SeqCst);
                    filling.send(()).unwrap();
                    let _ = second_fill_started.recv_timeout(Duration::from_millis(200));
                    fill_statement_sketch(t, sketch, 0.0)
                })
            });
            first_is_filling.recv().unwrap();
            let second = cache.get_or_fill(sketch, || {
                fills.fetch_add(1, Ordering::SeqCst);
                second_fill.send(()).unwrap();
                None
            });
            (first.join().unwrap(), second)
        });
        assert_eq!(fills.into_inner(), 1, "the fill closure runs once");
        assert_eq!(first.unwrap().statement, second.unwrap().statement);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    /// A fill aborted while another thread waits on the key is not
    /// memoized: the waiter fills the key itself.
    #[test]
    fn waiter_refills_an_aborted_fill() {
        use std::sync::mpsc::channel;
        let cache = StatementCache::new();
        let sketch = StatementSketch::new(vec![0], 1);
        let (filling, first_is_filling) = channel();
        std::thread::scope(|scope| {
            let aborted = scope.spawn(|| {
                cache.try_get_or_fill(&sketch, || {
                    filling.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                    Err("budget exhausted")
                })
            });
            first_is_filling.recv().unwrap();
            let waited = cache.try_get_or_fill(&sketch, || Ok::<_, &str>(None));
            assert_eq!(aborted.join().unwrap().unwrap_err(), "budget exhausted");
            assert!(waited.unwrap().is_none());
        });
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn empty_cache_stats() {
        let cache = StatementCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }
}
