//! The workspace's parallel execution model.
//!
//! Every parallel hot path in the pipeline (PC's per-level CI tests, per-DAG
//! and per-statement sketch fills, chunked bulk detection) goes through the
//! same primitive: an order-preserving scoped-thread map. Centralizing it
//! here keeps three invariants uniform across crates:
//!
//! * **Determinism** — results are written into pre-assigned slots and
//!   merged in input order, so the output is identical for any worker count.
//! * **Cooperative budgets** — workers share the caller's [`Budget`] (an
//!   `Arc`-backed atomic), so a deadline or work cap trips mid-stage no
//!   matter which thread is charging.
//! * **Panic propagation** — `std::thread::scope` re-raises worker panics
//!   when the scope closes instead of poisoning a queue.
//!
//! Workers that repeat each other's work share a [`Memo`]: PC's CI-test
//! results and stratum packs, and the statement fills of the DAGs in one
//! MEC.
//!
//! [`Budget`]: crate::Budget

use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Worker-count policy for parallel stages.
///
/// The pipeline treats this as a *maximum*: a stage never spawns more
/// workers than it has independent items.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Run on the calling thread with no spawning at all. Equivalent to
    /// `Threads(1)` in results (which is guaranteed anyway), but also avoids
    /// thread-spawn overhead — useful for tiny inputs and comparisons.
    Sequential,
    /// Exactly this many workers.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// Convenience constructor: `threads(0)` and `threads(1)` both mean
    /// sequential execution.
    pub fn threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) if n.get() > 1 => Parallelism::Threads(n),
            _ => Parallelism::Sequential,
        }
    }

    /// Number of workers to use for `items` independent work items.
    pub fn workers_for(self, items: usize) -> usize {
        let cap = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.get(),
            Parallelism::Auto => {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4)
            }
        };
        cap.min(items).max(1)
    }
}

/// Maps `f` over `items` on up to [`Parallelism::workers_for`] scoped
/// threads, preserving input order in the output.
///
/// Items are dealt to workers in contiguous chunks; each result is written
/// into its item's slot, so the returned vector is bit-identical to the
/// sequential `items.iter().map(f).collect()` for any worker count (provided
/// `f` itself is deterministic per item). With one worker the map runs on
/// the calling thread.
pub fn parallel_map<T: Sync, R: Send>(
    parallelism: Parallelism,
    items: &[T],
    f: &(impl Fn(&T) -> R + Sync),
) -> Vec<R> {
    let workers = parallelism.workers_for(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = results
            .chunks_mut(chunk)
            .zip(items.chunks(chunk))
            .map(|(slot_chunk, item_chunk)| {
                scope.spawn(move || {
                    for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                        *slot = Some(f(item));
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload is re-raised verbatim
        // (the scope's implicit join would replace it with a generic one).
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    results.into_iter().map(|r| r.expect("all slots filled")).collect()
}

/// [`parallel_map`] over the chunks of an index range `0..len`: calls
/// `f(start..end)` for consecutive sub-ranges of at most `chunk_len` indices
/// and returns the per-chunk results in range order.
///
/// This is the shape bulk row scans want (detection, rectification): `f`
/// produces a per-chunk accumulator the caller merges in order, which keeps
/// the merged output identical to a single sequential scan.
pub fn parallel_chunks<R: Send>(
    parallelism: Parallelism,
    len: usize,
    chunk_len: usize,
    f: &(impl Fn(std::ops::Range<usize>) -> R + Sync),
) -> Vec<R> {
    assert!(chunk_len > 0, "chunk_len must be positive");
    if len == 0 {
        return Vec::new();
    }
    let ranges: Vec<std::ops::Range<usize>> = (0..len.div_ceil(chunk_len))
        .map(|i| (i * chunk_len)..((i + 1) * chunk_len).min(len))
        .collect();
    parallel_map(parallelism, &ranges, &|r| f(r.clone()))
}

/// Hit/miss counters of a [`Memo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: usize,
    /// Lookups that required a fill.
    pub misses: usize,
}

impl MemoStats {
    /// Hit rate in `[0, 1]`; 0 for an unused memo.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe memo table that fills each key once.
///
/// A miss on a key another thread is filling waits for that fill and
/// counts as a hit. A fill that errors or panics is not memoized: the key
/// is freed, and a waiter (or the next lookup) fills it itself.
#[derive(Debug)]
pub struct Memo<K, V> {
    inner: Mutex<MemoInner<K, V>>,
    /// Signalled whenever a fill ends, memoized or not.
    filled: Condvar,
}

/// The table: a key's slot is `None` while one thread fills it.
#[derive(Debug)]
struct MemoInner<K, V> {
    map: HashMap<K, Option<V>>,
    stats: MemoStats,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        let inner = MemoInner { map: HashMap::new(), stats: MemoStats::default() };
        Self { inner: Mutex::new(inner), filled: Condvar::new() }
    }
}

impl<K, V> Memo<K, V> {
    fn lock(&self) -> MutexGuard<'_, MemoInner<K, V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Frees a key whose fill did not finish (an error or a panic), so a
/// waiting thread fills it instead.
struct Claim<'a, K: Eq + Hash, V> {
    memo: &'a Memo<K, V>,
    key: &'a K,
}

impl<K: Eq + Hash, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        self.memo.lock().map.remove(self.key);
        self.memo.filled.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoized value of `key`, computing it with `fill` on a
    /// miss.
    pub fn get_or_fill(&self, key: &K, fill: impl FnOnce() -> V) -> V {
        match self.try_get_or_fill(key, || Ok::<_, std::convert::Infallible>(fill())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// Fallible [`get_or_fill`](Self::get_or_fill): a fill that returns an
    /// error (a budget-aborted scan, say) propagates it and is *not*
    /// memoized, so a later lookup can still fill the key.
    pub fn try_get_or_fill<E>(&self, key: &K, fill: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        let mut inner = self.lock();
        loop {
            match inner.map.get(key) {
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
        inner.map.insert(key.clone(), None);
        drop(inner);
        // Fill outside the lock; other keys' lookups and fills go on.
        let claim = Claim { memo: self, key };
        let value = fill()?;
        std::mem::forget(claim);
        self.lock().map.insert(key.clone(), Some(value.clone()));
        self.filled.notify_all();
        Ok(value)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> MemoStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for p in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::threads(2),
            Parallelism::threads(7),
            Parallelism::threads(256),
        ] {
            assert_eq!(parallel_map(p, &items, &|&x| x * x), expected, "{p:?}");
        }
    }

    #[test]
    fn workers_never_exceed_items() {
        assert_eq!(Parallelism::threads(8).workers_for(3), 3);
        assert_eq!(Parallelism::Sequential.workers_for(100), 1);
        assert_eq!(Parallelism::threads(8).workers_for(0), 1);
        assert!(Parallelism::Auto.workers_for(usize::MAX) >= 1);
    }

    #[test]
    fn threads_constructor_normalizes() {
        assert_eq!(Parallelism::threads(0), Parallelism::Sequential);
        assert_eq!(Parallelism::threads(1), Parallelism::Sequential);
        assert_eq!(Parallelism::threads(6).workers_for(100), 6);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<u32> = parallel_map(Parallelism::Auto, &[] as &[u32], &|&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn chunked_ranges_cover_exactly() {
        let chunks = parallel_chunks(Parallelism::threads(3), 10, 4, &|r| r);
        assert_eq!(chunks, vec![0..4, 4..8, 8..10]);
        assert!(parallel_chunks(Parallelism::Auto, 0, 4, &|r| r).is_empty());
    }

    #[test]
    fn shared_budget_trips_across_workers() {
        use crate::Budget;
        let budget = Budget::with_work_cap(50);
        let items: Vec<u32> = (0..100).collect();
        let results = parallel_map(Parallelism::threads(4), &items, &|_| budget.charge(1).is_ok());
        let ok = results.iter().filter(|&&ok| ok).count();
        assert!(ok <= 50, "only 50 units were chargeable, {ok} charges succeeded");
        assert!(budget.work_done() >= 50);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items = [1u32, 2, 3, 4];
        parallel_map(Parallelism::threads(2), &items, &|&x| {
            if x == 3 {
                panic!("worker boom");
            }
            x
        });
    }

    #[test]
    fn memoizes_values_and_counts_lookups() {
        let memo: Memo<(u32, u32), Option<String>> = Memo::new();
        let first = memo.get_or_fill(&(0, 1), || Some("filled".to_string()));
        let mut called = false;
        let second = memo.get_or_fill(&(0, 1), || {
            called = true;
            None
        });
        assert!(!called, "second lookup must hit the memo");
        assert_eq!(second, first);

        // `None` values are memoized too.
        assert_eq!(memo.get_or_fill(&(1, 0), || None), None);
        let mut called = false;
        memo.get_or_fill(&(1, 0), || {
            called = true;
            Some("refilled".to_string())
        });
        assert!(!called);

        let stats = memo.stats();
        assert_eq!(stats, MemoStats { hits: 2, misses: 2 });
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let memo: Memo<Vec<usize>, u32> = Memo::new();
        memo.get_or_fill(&vec![0], || 1);
        let mut called = false;
        let value = memo.get_or_fill(&vec![0, 2], || {
            called = true;
            2
        });
        assert!(called, "a different key is a different slot");
        assert_eq!(value, 2);
    }

    /// Two threads miss one key at once: one fills, the other waits for
    /// that fill and reads it as a hit. The first fill holds on until a
    /// second fill of the key starts (or a timeout passes), so a memo that
    /// fills a key twice always shows it.
    #[test]
    fn concurrent_misses_fill_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let memo: Memo<&str, u64> = Memo::new();
        let fills = AtomicUsize::new(0);
        let (filling, first_is_filling) = channel();
        let (second_fill, second_fill_started) = channel();
        let (first, second) = std::thread::scope(|scope| {
            let (memo, fills) = (&memo, &fills);
            let first = scope.spawn(move || {
                memo.get_or_fill(&"key", || {
                    fills.fetch_add(1, Ordering::SeqCst);
                    filling.send(()).unwrap();
                    let _ = second_fill_started.recv_timeout(Duration::from_millis(200));
                    7
                })
            });
            first_is_filling.recv().unwrap();
            let second = memo.get_or_fill(&"key", || {
                fills.fetch_add(1, Ordering::SeqCst);
                second_fill.send(()).unwrap();
                8
            });
            (first.join().unwrap(), second)
        });
        assert_eq!(fills.into_inner(), 1, "the fill closure runs once");
        assert_eq!((first, second), (7, 7));
        assert_eq!(memo.stats(), MemoStats { hits: 1, misses: 1 });
    }

    /// A fill aborted while another thread waits on the key is not
    /// memoized: the waiter fills the key itself.
    #[test]
    fn waiter_refills_an_aborted_fill() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let memo: Memo<u32, Option<u32>> = Memo::new();
        let (filling, first_is_filling) = channel();
        std::thread::scope(|scope| {
            let aborted = scope.spawn(|| {
                memo.try_get_or_fill(&0, || {
                    filling.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                    Err("budget exhausted")
                })
            });
            first_is_filling.recv().unwrap();
            let waited = memo.try_get_or_fill(&0, || Ok::<_, &str>(None));
            assert_eq!(aborted.join().unwrap().unwrap_err(), "budget exhausted");
            assert_eq!(waited, Ok(None));
        });
        assert_eq!(memo.stats(), MemoStats { hits: 0, misses: 2 });
        assert_eq!(memo.get_or_fill(&0, || Some(1)), None, "the waiter's fill is memoized");
    }

    /// A fill that panics leaves its key free: the next lookup fills it.
    #[test]
    fn a_panicking_fill_frees_its_key() {
        let memo: Memo<u32, u32> = Memo::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_fill(&3, || panic!("fill boom"))
        }));
        assert!(panicked.is_err());
        assert_eq!(memo.get_or_fill(&3, || 9), 9);
        assert_eq!(memo.stats(), MemoStats { hits: 0, misses: 2 });
    }

    #[test]
    fn empty_memo_stats() {
        let memo: Memo<u32, u32> = Memo::new();
        assert_eq!(memo.stats(), MemoStats::default());
        assert_eq!(memo.stats().hit_rate(), 0.0);
    }
}
