//! Conditional-independence oracles and their sufficient-statistics cache.

use crate::encode::EncodedData;
use guardrail_graph::{d_separated, Dag, NodeSet};
use guardrail_stats::independence::CiTestKind;
use guardrail_stats::suffstats::{
    ci_test_bits, ci_test_fused, pack_bits, StratumPack, BIT_MAX_COND,
};
use guardrail_stats::CiTestResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Answers queries of the form "is `x ⫫ y | z`?".
///
/// The PC algorithm is written against this trait so tests can swap in a
/// ground-truth [`DagOracle`] (d-separation under faithfulness) for a
/// statistical [`DataOracle`]. Implementations must be [`Sync`]: the PC
/// skeleton phase issues the per-level CI tests from worker threads against
/// a shared oracle reference.
pub trait IndependenceOracle: Sync {
    /// Returns `true` when `x` and `y` are judged conditionally independent
    /// given `z`.
    fn independent(&self, x: usize, y: usize, z: NodeSet) -> bool;

    /// Number of variables.
    fn num_vars(&self) -> usize;

    /// Rows each CI test reads (0 for oracles that test no data, like
    /// [`DagOracle`]); the PC driver puts it on its level spans.
    fn num_rows(&self) -> usize {
        0
    }

    /// Snapshot of the oracle's sufficient-statistics cache counters, when
    /// it keeps one. The default (for cacheless oracles like [`DagOracle`])
    /// reports zeros; the PC driver subtracts per-level snapshots to
    /// attribute cache hits to levels, so a constant answer is correct.
    fn cache_stats(&self) -> StatsCacheStats {
        StatsCacheStats::default()
    }
}

/// Counters of the [`StatsCache`], readable while the oracle is in use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsCacheStats {
    /// CI-test results answered from the cache.
    pub result_hits: u64,
    /// CI-test results that had to be computed.
    pub result_misses: u64,
    /// Stratum-key packs reused across tests with the same conditioning set.
    pub strata_hits: u64,
    /// Stratum-key packs that were not in the cache (each miss is then
    /// filled by an incremental extension or a full re-pack).
    pub strata_misses: u64,
    /// Of those misses, packs derived incrementally from a cached
    /// level-(ℓ−1) prefix (`key' = key·card + code`) instead of re-packing
    /// every conditioning column.
    pub pack_extensions: u64,
    /// Computed results (misses) that ran on the bit kernel: every column
    /// binary, no stratum pack needed.
    pub bit_tests: u64,
    /// Computed results (misses) that ran a row pass over packed strata.
    pub packed_tests: u64,
}

/// Which kernel computes a [`DataOracle`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TestPath {
    /// [`ci_test_bits`] on bit-packed binary columns.
    Bits,
    /// [`ci_test_fused`] over a [`StratumPack`].
    Packed,
}

/// Cached stratum packs keyed by conditioning set; `None` records an
/// unpackable (too high-cardinality) conditioning set.
type StrataMap = HashMap<NodeSet, Option<Arc<StratumPack>>>;

/// Concurrent memoization of the sufficient statistics behind CI tests.
///
/// PC-stable revisits the same statistics many times: at each level the pair
/// `(x, y)` is probed from both adjacency sides (identical test, swapped
/// arguments), and the packed stratum keys of a conditioning set `Z` are
/// shared by *every* pair tested against `Z`. The cache memoizes both
/// layers:
///
/// * **Test results** keyed by `(min(x,y), max(x,y), Z)`. The G²/X²
///   statistic and its degrees of freedom are invariant under transposing
///   the contingency table, so the symmetric key is sound.
/// * **Stratum packs** ([`StratumPack`]: keys + mixed-radix domain) keyed
///   by `Z` (`None` records an unpackable — too high-cardinality —
///   conditioning set). A missing pack for a level-ℓ set `Z` is first
///   sought as an **incremental extension** of the cached pack of
///   `Z ∖ {max Z}` — `key' = key·card + code`, one O(n) pass over a single
///   column instead of re-packing all ℓ columns — before falling back to a
///   full pack. PC-stable grows conditioning sets one node per level, so in
///   steady state nearly every new pack is an extension (counted by
///   [`StatsCacheStats::pack_extensions`]).
///
/// Bit-kernel queries (all columns binary) never consult the pack map, so
/// on the auxiliary sample it stays empty.
///
/// Both maps sit behind [`RwLock`]s so concurrent per-edge tests share the
/// cache; racing threads may compute the same entry twice, but the value is
/// deterministic so the race is benign and lock hold times stay tiny.
#[derive(Debug, Default)]
pub struct StatsCache {
    results: RwLock<HashMap<(usize, usize, NodeSet), CiTestResult>>,
    strata: RwLock<StrataMap>,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    strata_hits: AtomicU64,
    strata_misses: AtomicU64,
    pack_extensions: AtomicU64,
    bit_tests: AtomicU64,
    packed_tests: AtomicU64,
}

impl StatsCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> StatsCacheStats {
        StatsCacheStats {
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            strata_hits: self.strata_hits.load(Ordering::Relaxed),
            strata_misses: self.strata_misses.load(Ordering::Relaxed),
            pack_extensions: self.pack_extensions.load(Ordering::Relaxed),
            bit_tests: self.bit_tests.load(Ordering::Relaxed),
            packed_tests: self.packed_tests.load(Ordering::Relaxed),
        }
    }

    fn get_or_compute_result(
        &self,
        key: (usize, usize, NodeSet),
        path: TestPath,
        compute: impl FnOnce() -> CiTestResult,
    ) -> CiTestResult {
        if let Some(hit) = self.results.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        self.result_misses.fetch_add(1, Ordering::Relaxed);
        match path {
            TestPath::Bits => &self.bit_tests,
            TestPath::Packed => &self.packed_tests,
        }
        .fetch_add(1, Ordering::Relaxed);
        let value = compute();
        self.results.write().unwrap_or_else(|e| e.into_inner()).insert(key, value);
        value
    }

    /// Looks up the stratum pack of `z`, filling a miss by extending the
    /// cached pack of `prefix` (= `z ∖ {max z}`) when available, else by a
    /// full pack. An unpackable prefix proves `z` unpackable too (the key
    /// domain only grows), so that answer is also derived without packing.
    fn get_or_pack_strata(
        &self,
        z: NodeSet,
        prefix: NodeSet,
        extend: impl FnOnce(&StratumPack) -> Option<StratumPack>,
        pack: impl FnOnce() -> Option<StratumPack>,
    ) -> Option<Arc<StratumPack>> {
        if let Some(hit) = self.strata.read().unwrap_or_else(|e| e.into_inner()).get(&z) {
            self.strata_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.strata_misses.fetch_add(1, Ordering::Relaxed);
        let prefix_pack = if prefix.is_empty() {
            None
        } else {
            self.strata.read().unwrap_or_else(|e| e.into_inner()).get(&prefix).cloned()
        };
        let value = match prefix_pack {
            Some(Some(p)) => {
                self.pack_extensions.fetch_add(1, Ordering::Relaxed);
                extend(&p)
            }
            Some(None) => {
                self.pack_extensions.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => pack(),
        }
        .map(Arc::new);
        self.strata.write().unwrap_or_else(|e| e.into_inner()).entry(z).or_insert(value).clone()
    }
}

/// Statistical oracle over encoded data using a chi-squared family test.
#[derive(Debug)]
pub struct DataOracle<'a> {
    data: &'a EncodedData,
    /// Significance level; independence is declared when `p > alpha`.
    pub alpha: f64,
    /// Test statistic.
    pub kind: CiTestKind,
    /// Minimum expected observations per contingency cell for the test to be
    /// considered reliable; sparser queries conservatively return
    /// "independent" (the heuristic of Spirtes et al., default 5).
    pub min_obs_per_cell: f64,
    /// Multiplier applied to the test statistic before the p-value lookup.
    ///
    /// The auxiliary sampler pairs each source row with several others, so
    /// its indicator vectors are not independent draws: the chi-squared
    /// statistic is over-dispersed by roughly `pairs / source_rows`. Setting
    /// this to `source_rows / pairs` restores the effective sample size
    /// (1.0 for i.i.d. data).
    pub statistic_scale: f64,
    /// Memoized sufficient statistics; `None` disables caching (ablation and
    /// consistency testing).
    cache: Option<StatsCache>,
    /// Every binary column packed by [`pack_bits`] (`None` for the others),
    /// the input of the bit kernel.
    bits: Vec<Option<Vec<u64>>>,
}

impl<'a> DataOracle<'a> {
    /// Creates an oracle with the conventional `alpha = 0.05`, G² statistic,
    /// 5-observations-per-cell reliability floor, and the statistics cache
    /// enabled.
    pub fn new(data: &'a EncodedData) -> Self {
        Self {
            data,
            alpha: 0.05,
            kind: CiTestKind::G2,
            min_obs_per_cell: 5.0,
            statistic_scale: 1.0,
            cache: Some(StatsCache::new()),
            bits: (0..data.num_attrs())
                .map(|i| (data.card(i) == 2).then(|| pack_bits(data.column(i))))
                .collect(),
        }
    }

    /// Sets the significance level.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha), "alpha must be in (0,1)");
        self.alpha = alpha;
        self
    }

    /// Sets the effective-sample-size correction (see
    /// [`DataOracle::statistic_scale`]).
    pub fn with_statistic_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
        self.statistic_scale = scale;
        self
    }

    /// Enables or disables the sufficient-statistics cache (enabled by
    /// default). Disabling recomputes every query from the raw columns —
    /// results must be identical; see the oracle-cache consistency tests.
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache = if enabled { Some(StatsCache::new()) } else { None };
        self
    }

    /// Hit/miss counters of the statistics cache (zeros when disabled).
    pub fn cache_stats(&self) -> StatsCacheStats {
        self.cache.as_ref().map(StatsCache::stats).unwrap_or_default()
    }

    /// The raw test behind [`IndependenceOracle::independent`]: `None` when
    /// the query is untestable (too sparse for the reliability floor, or a
    /// conditioning space too large to index), `Some(result)` otherwise. The
    /// returned statistic is unscaled; [`DataOracle::statistic_scale`] is
    /// applied at decision time.
    ///
    /// A testable query whose columns are all binary with `|z| ≤`
    /// [`BIT_MAX_COND`] (every query PC issues on the auxiliary sample at
    /// its default depth) runs on the bit kernel and needs no stratum pack;
    /// any other runs the fused kernel over the cached [`StratumPack`] of
    /// `z`. Both give the same bits, and both go through the one result
    /// cache.
    pub fn ci_result(&self, x: usize, y: usize, z: NodeSet) -> Option<CiTestResult> {
        let d = self.data;
        let n = d.num_rows() as f64;

        // Reliability heuristic: skip tests whose contingency table would be
        // too sparse to trust (the caller reports independence — conservative
        // for edge removal: an unreliable edge is dropped rather than kept).
        let mut cells = (d.card(x) * d.card(y)) as f64;
        for zi in z.iter() {
            cells *= d.card(zi) as f64;
            if cells > n {
                break;
            }
        }
        if n < self.min_obs_per_cell * cells {
            return None;
        }

        // The statistic is symmetric in (x, y) — transposing a contingency
        // table changes neither G²/X² nor the df — so tests from both
        // adjacency sides share one cache entry under the ordered key.
        let (a, b) = (x.min(y), x.max(y));
        if let Some(cols) = self.bit_columns(a, b, z) {
            let run =
                || ci_test_bits(self.kind, d.num_rows(), cols[0], cols[1], &cols[2..2 + z.len()]);
            return Some(self.memoized((a, b, z), TestPath::Bits, run));
        }

        // Otherwise a row pass over the packed stratum keys of `z`. The
        // reliability floor above guarantees `nx·ny·Π|Z| ≤ n/min_obs`, so
        // every such query takes the fused kernel's dense path.
        let pack = if z.is_empty() {
            None
        } else {
            let full_pack = || {
                let z_cols: Vec<&[u32]> = z.iter().map(|i| d.column(i)).collect();
                let z_cards: Vec<usize> = z.iter().map(|i| d.card(i)).collect();
                StratumPack::pack(&z_cols, &z_cards)
            };
            Some(match &self.cache {
                Some(cache) => {
                    let max = z.last_node().expect("z is non-empty");
                    let mut prefix = z;
                    prefix.remove(max);
                    let extend = |p: &StratumPack| p.extend(d.column(max), d.card(max));
                    cache.get_or_pack_strata(z, prefix, extend, full_pack)?
                }
                // Conditioning space too large to even index: untestable.
                None => Arc::new(full_pack()?),
            })
        };
        let run = || {
            let strata = pack.as_deref().map(StratumPack::strata);
            ci_test_fused(self.kind, d.column(a), d.column(b), strata, d.card(a), d.card(b))
        };
        Some(self.memoized((a, b, z), TestPath::Packed, run))
    }

    /// The bit columns of `x`, `y` and then `z` (in a fixed array, first
    /// `2 + |z|` entries) when the query takes the bit kernel: every column
    /// is binary and `|z| ≤ BIT_MAX_COND`, where its `2^|z|` popcount
    /// passes over `n/64` words cost no more than one row pass over `n`
    /// keys.
    fn bit_columns(&self, x: usize, y: usize, z: NodeSet) -> Option<[&[u64]; 2 + BIT_MAX_COND]> {
        if z.len() > BIT_MAX_COND {
            return None;
        }
        let mut cols: [&[u64]; 2 + BIT_MAX_COND] = [&[]; 2 + BIT_MAX_COND];
        for (slot, i) in cols.iter_mut().zip([x, y].into_iter().chain(z.iter())) {
            *slot = self.bits[i].as_deref()?;
        }
        Some(cols)
    }

    /// Answers `key` from the result cache, or computes it with `run` on
    /// `path` (and caches it, when the cache is enabled).
    fn memoized(
        &self,
        key: (usize, usize, NodeSet),
        path: TestPath,
        run: impl FnOnce() -> CiTestResult,
    ) -> CiTestResult {
        match &self.cache {
            Some(cache) => cache.get_or_compute_result(key, path, run),
            None => run(),
        }
    }

    /// The corrected p-value of the query, `None` when untestable;
    /// `independent` is `p > alpha` (or `true` on `None`).
    pub fn p_value(&self, x: usize, y: usize, z: NodeSet) -> Option<f64> {
        let r = self.ci_result(x, y, z)?;
        if r.df == 0.0 {
            return Some(1.0);
        }
        Some(guardrail_stats::ChiSquared::new(r.df).sf(r.statistic * self.statistic_scale))
    }
}

impl IndependenceOracle for DataOracle<'_> {
    fn independent(&self, x: usize, y: usize, z: NodeSet) -> bool {
        self.p_value(x, y, z).map_or(true, |p| p > self.alpha)
    }

    fn num_vars(&self) -> usize {
        self.data.num_attrs()
    }

    fn num_rows(&self) -> usize {
        self.data.num_rows()
    }

    fn cache_stats(&self) -> StatsCacheStats {
        DataOracle::cache_stats(self)
    }
}

/// Ground-truth oracle: conditional independence = d-separation in a known
/// DAG (exact under faithfulness). Used to validate PC and in synthetic
/// experiments where the generating SEM is known.
#[derive(Debug, Clone)]
pub struct DagOracle {
    dag: Dag,
}

impl DagOracle {
    /// Wraps a ground-truth DAG.
    pub fn new(dag: Dag) -> Self {
        Self { dag }
    }
}

impl IndependenceOracle for DagOracle {
    fn independent(&self, x: usize, y: usize, z: NodeSet) -> bool {
        d_separated(&self.dag, x, y, z)
    }

    fn num_vars(&self) -> usize {
        self.dag.num_nodes()
    }
}

/// Wraps an oracle with deterministic busy-work per query — a reproducible
/// stand-in for expensive CI tests (large conditioning sets, disk-backed
/// data) used to exercise wall-clock deadlines in robustness tests without
/// depending on sleeps or machine speed.
#[derive(Debug, Clone)]
pub struct SlowOracle<O> {
    inner: O,
    spin: u64,
}

impl<O> SlowOracle<O> {
    /// Wraps `inner`, spinning `spin` iterations of opaque arithmetic before
    /// delegating each query.
    pub fn new(inner: O, spin: u64) -> Self {
        Self { inner, spin }
    }
}

impl<O: IndependenceOracle> IndependenceOracle for SlowOracle<O> {
    fn independent(&self, x: usize, y: usize, z: NodeSet) -> bool {
        let mut acc = (x as u64) ^ (y as u64).rotate_left(17);
        for i in 0..self.spin {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(acc);
        self.inner.independent(x, y, z)
    }

    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn cache_stats(&self) -> StatsCacheStats {
        self.inner.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn data_oracle_detects_chain_structure() {
        // X → Z → Y with small flip noise.
        let mut rng = xorshift(11);
        let n = 6000;
        let mut x = Vec::new();
        let mut zc = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let xv = (rng() % 2) as u32;
            let zv = if rng() % 20 == 0 { 1 - xv } else { xv };
            let yv = if rng() % 20 == 0 { 1 - zv } else { zv };
            x.push(xv);
            zc.push(zv);
            y.push(yv);
        }
        let data = EncodedData::from_parts(
            vec![x, zc, y],
            vec![2, 2, 2],
            vec!["x".into(), "z".into(), "y".into()],
        );
        let oracle = DataOracle::new(&data);
        assert!(!oracle.independent(0, 2, NodeSet::EMPTY));
        assert!(oracle.independent(0, 2, NodeSet::singleton(1)));
        assert_eq!(oracle.num_vars(), 3);
    }

    #[test]
    fn sparse_test_is_conservative() {
        // 8 rows cannot support a 2x2x(2^3) test: oracle must answer
        // "independent" rather than overfit.
        let data = EncodedData::from_parts(
            vec![
                vec![0, 1, 0, 1, 0, 1, 0, 1],
                vec![0, 1, 0, 1, 0, 1, 0, 1],
                vec![0, 0, 1, 1, 0, 0, 1, 1],
                vec![0, 0, 0, 0, 1, 1, 1, 1],
                vec![0, 1, 1, 0, 1, 0, 0, 1],
            ],
            vec![2; 5],
            (0..5).map(|i| format!("a{i}")).collect(),
        );
        let oracle = DataOracle::new(&data);
        let z = NodeSet::from_iter([2, 3, 4]);
        assert!(oracle.independent(0, 1, z));
        // Marginally the dependence is obvious and the table is dense enough…
        // but with only 8 rows even the marginal 2x2 test is below the 5/cell
        // floor (needs 20), so the conservative answer still applies.
        assert!(oracle.independent(0, 1, NodeSet::EMPTY));
    }

    #[test]
    fn dag_oracle_is_dsep() {
        let dag = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let o = DagOracle::new(dag);
        assert!(o.independent(0, 1, NodeSet::EMPTY));
        assert!(!o.independent(0, 1, NodeSet::singleton(2)));
    }

    /// A random 6-attribute table with enough rows that most queries pass the
    /// reliability floor.
    fn random_data(seed: u64, rows: usize) -> EncodedData {
        let mut rng = xorshift(seed);
        let cards = [2usize, 3, 2, 4, 2, 3];
        let cols: Vec<Vec<u32>> =
            cards.iter().map(|&c| (0..rows).map(|_| (rng() % c as u64) as u32).collect()).collect();
        EncodedData::from_parts(
            cols,
            cards.to_vec(),
            (0..cards.len()).map(|i| format!("a{i}")).collect(),
        )
    }

    /// Property: for every (x, y, Z) query — in both argument orders — the
    /// cached oracle answers exactly what the uncached oracle computes from
    /// the raw columns, including untestability.
    #[test]
    fn cached_p_values_match_uncached() {
        let data = random_data(7, 4000);
        let cached = DataOracle::new(&data).with_statistic_scale(0.5);
        let uncached = DataOracle::new(&data).with_statistic_scale(0.5).with_cache(false);
        let n = data.num_attrs();
        for x in 0..n {
            for y in 0..n {
                if x == y {
                    continue;
                }
                let others: Vec<usize> = (0..n).filter(|&i| i != x && i != y).collect();
                let mut zs = vec![NodeSet::EMPTY];
                zs.extend(others.iter().map(|&i| NodeSet::singleton(i)));
                for (i, &a) in others.iter().enumerate() {
                    for &b in &others[i + 1..] {
                        zs.push(NodeSet::from_iter([a, b]));
                    }
                }
                for z in zs {
                    // Query twice so the second read is a guaranteed cache hit.
                    let first = cached.p_value(x, y, z);
                    let hit = cached.p_value(x, y, z);
                    let fresh = uncached.p_value(x, y, z);
                    assert_eq!(first, fresh, "x={x} y={y} z={z:?}");
                    assert_eq!(hit, fresh, "x={x} y={y} z={z:?} (hit path)");
                    assert_eq!(
                        cached.independent(x, y, z),
                        uncached.independent(x, y, z),
                        "x={x} y={y} z={z:?} (decision)"
                    );
                }
            }
        }
        let stats = cached.cache_stats();
        assert!(stats.result_hits > 0, "repeat + swapped queries must hit: {stats:?}");
        assert!(stats.strata_hits > 0, "shared conditioning sets must hit: {stats:?}");
        assert_eq!(uncached.cache_stats(), StatsCacheStats::default());
    }

    /// Level-ℓ conditioning sets extend the cached level-(ℓ−1) pack
    /// (`key' = key·card + code`) instead of re-packing every column — and
    /// the extended pack answers exactly like a fresh one.
    #[test]
    fn pack_extension_reuses_cached_prefix() {
        let data = random_data(13, 4000);
        let cached = DataOracle::new(&data);
        let uncached = DataOracle::new(&data).with_cache(false);
        let z1 = NodeSet::singleton(2);
        let z2 = NodeSet::from_iter([2, 3]);
        let z3 = NodeSet::from_iter([2, 3, 4]);
        // Level 1: singleton pack {2} is a full pack (no cached prefix).
        assert_eq!(cached.p_value(0, 1, z1), uncached.p_value(0, 1, z1));
        assert_eq!(cached.cache_stats().pack_extensions, 0);
        // Level 2: {2,3} = cached {2} extended by column 3.
        assert_eq!(cached.p_value(0, 1, z2), uncached.p_value(0, 1, z2));
        assert_eq!(cached.cache_stats().pack_extensions, 1);
        // Level 3: {2,3,4} = cached {2,3} extended by column 4.
        assert_eq!(cached.p_value(0, 1, z3), uncached.p_value(0, 1, z3));
        let stats = cached.cache_stats();
        assert_eq!(stats.pack_extensions, 2, "{stats:?}");
        assert_eq!(stats.strata_misses, 3, "{stats:?}");
    }

    /// The cache key is symmetric: (x, y) and (y, x) share one entry.
    #[test]
    fn swapped_arguments_share_cache_entry() {
        let data = random_data(3, 2000);
        let oracle = DataOracle::new(&data);
        let z = NodeSet::singleton(2);
        let p_xy = oracle.p_value(0, 1, z);
        let misses_after_first = oracle.cache_stats().result_misses;
        let p_yx = oracle.p_value(1, 0, z);
        assert_eq!(p_xy, p_yx);
        assert_eq!(oracle.cache_stats().result_misses, misses_after_first);
        assert!(oracle.cache_stats().result_hits >= 1);
    }

    /// Concurrent queries against one shared oracle agree with a sequential
    /// uncached baseline (the RwLock race on double-compute is benign).
    #[test]
    fn concurrent_queries_are_consistent() {
        let data = random_data(9, 3000);
        let cached = DataOracle::new(&data);
        let uncached = DataOracle::new(&data).with_cache(false);
        let queries: Vec<(usize, usize, NodeSet)> = (0..data.num_attrs())
            .flat_map(|x| {
                (0..data.num_attrs()).filter(move |&y| y != x).flat_map(move |y| {
                    [NodeSet::EMPTY, NodeSet::singleton((y + 1) % 6)]
                        .into_iter()
                        .filter(move |z| !z.contains(x) && !z.contains(y))
                        .map(move |z| (x, y, z))
                })
            })
            .collect();
        let parallel = guardrail_governor::parallel_map(
            guardrail_governor::Parallelism::threads(4),
            &queries,
            &|&(x, y, z)| cached.p_value(x, y, z),
        );
        for (&(x, y, z), got) in queries.iter().zip(&parallel) {
            assert_eq!(*got, uncached.p_value(x, y, z), "x={x} y={y} z={z:?}");
        }
    }
}
