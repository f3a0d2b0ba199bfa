//! Conditional-independence oracles and the memos behind the data oracle.

use crate::encode::EncodedData;
use guardrail_governor::Memo;
use guardrail_graph::{d_separated, Dag, NodeSet};
use guardrail_stats::independence::CiTestKind;
use guardrail_stats::suffstats::{
    ci_test_bits, ci_test_fused, pack_bits, StratumPack, BIT_MAX_COND,
};
use guardrail_stats::CiTestResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Counters of the [`DataOracle`]'s memos, readable while the oracle is in
/// use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsCacheStats {
    /// CI-test results answered from the results memo.
    pub result_hits: u64,
    /// CI-test results that had to be computed.
    pub result_misses: u64,
    /// Computed results (misses) that ran on the bit kernel: every column
    /// binary, no stratum pack needed.
    pub bit_tests: u64,
    /// Computed results (misses) that ran a row pass over packed strata.
    pub packed_tests: u64,
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
    /// CI-test results keyed `(min(x,y), max(x,y), Z)`; `None` records an
    /// untestable query. PC-stable probes each pair from both adjacency
    /// sides, and G²/X² and their df are invariant under transposing the
    /// contingency table, so the symmetric key is sound.
    results: Memo<(usize, usize, NodeSet), Option<CiTestResult>>,
    /// Stratum packs keyed by conditioning set, shared by every pair tested
    /// against it; `None` records an unpackable (too high-cardinality) set.
    packs: Memo<NodeSet, Option<Arc<StratumPack>>>,
    /// Computed results per kernel, as [`StatsCacheStats`] reports them.
    bit_tests: AtomicU64,
    packed_tests: AtomicU64,
    /// Every binary column packed by [`pack_bits`] (`None` for the others),
    /// the input of the bit kernel.
    bits: Vec<Option<Vec<u64>>>,
}

impl<'a> DataOracle<'a> {
    /// Creates an oracle with the conventional `alpha = 0.05`, G² statistic
    /// and 5-observations-per-cell reliability floor.
    pub fn new(data: &'a EncodedData) -> Self {
        Self {
            data,
            alpha: 0.05,
            kind: CiTestKind::G2,
            min_obs_per_cell: 5.0,
            statistic_scale: 1.0,
            results: Memo::new(),
            packs: Memo::new(),
            bit_tests: AtomicU64::new(0),
            packed_tests: AtomicU64::new(0),
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

    /// Hit/miss counters of the results memo, and the computed results per
    /// kernel.
    pub fn cache_stats(&self) -> StatsCacheStats {
        let results = self.results.stats();
        StatsCacheStats {
            result_hits: results.hits as u64,
            result_misses: results.misses as u64,
            bit_tests: self.bit_tests.load(Ordering::Relaxed),
            packed_tests: self.packed_tests.load(Ordering::Relaxed),
        }
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
    /// any other runs the fused kernel over the memoized [`StratumPack`] of
    /// `z`. Both give the same bits, and both go through the results memo.
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
        let (a, b) = (x.min(y), x.max(y));
        self.results.get_or_fill(&(a, b, z), || self.compute(a, b, z))
    }

    /// Computes a query the results memo missed.
    fn compute(&self, x: usize, y: usize, z: NodeSet) -> Option<CiTestResult> {
        let d = self.data;
        if let Some(cols) = self.bit_columns(x, y, z) {
            self.bit_tests.fetch_add(1, Ordering::Relaxed);
            let z_cols = &cols[2..2 + z.len()];
            return Some(ci_test_bits(self.kind, d.num_rows(), cols[0], cols[1], z_cols));
        }
        // Otherwise a row pass over the packed stratum keys of `z`. The
        // reliability floor guarantees `nx·ny·Π|Z| ≤ n/min_obs`, so every
        // such query takes the fused kernel's dense path.
        let pack = if z.is_empty() {
            None
        } else {
            let pack = || {
                let z_cols: Vec<&[u32]> = z.iter().map(|i| d.column(i)).collect();
                let z_cards: Vec<usize> = z.iter().map(|i| d.card(i)).collect();
                StratumPack::pack(&z_cols, &z_cards).map(Arc::new)
            };
            // Conditioning space too large to even index: untestable.
            Some(self.packs.get_or_fill(&z, pack)?)
        };
        self.packed_tests.fetch_add(1, Ordering::Relaxed);
        let strata = pack.as_deref().map(StratumPack::strata);
        Some(ci_test_fused(self.kind, d.column(x), d.column(y), strata, d.card(x), d.card(y)))
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
    use guardrail_stats::ci_test_reference;

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

    /// `ci_test_reference` on a query's columns, in the oracle's
    /// `(min, max)` argument order.
    fn reference(data: &EncodedData, x: usize, y: usize, z: NodeSet) -> CiTestResult {
        let (a, b) = (x.min(y), x.max(y));
        let z_cols: Vec<&[u32]> = z.iter().map(|i| data.column(i)).collect();
        let z_cards: Vec<usize> = z.iter().map(|i| data.card(i)).collect();
        let pack = (!z.is_empty()).then(|| StratumPack::pack(&z_cols, &z_cards).unwrap());
        let keys = pack.as_ref().map(StratumPack::keys);
        let (x, y) = (data.column(a), data.column(b));
        ci_test_reference(CiTestKind::G2, x, y, keys, data.card(a), data.card(b))
    }

    /// Property: for every (x, y, Z) query — in both argument orders — a
    /// warm oracle (answering from its memos) agrees with a fresh oracle
    /// and with the reference test, including untestability.
    #[test]
    fn warm_oracle_matches_fresh_oracle_and_reference() {
        let data = random_data(7, 4000);
        let warm = DataOracle::new(&data).with_statistic_scale(0.5);
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
                    // Query twice so the second read is a guaranteed hit.
                    let first = warm.ci_result(x, y, z);
                    let hit = warm.ci_result(x, y, z);
                    let fresh = DataOracle::new(&data).with_statistic_scale(0.5);
                    assert_eq!(first, fresh.ci_result(x, y, z), "x={x} y={y} z={z:?}");
                    assert_eq!(hit, first, "x={x} y={y} z={z:?} (hit path)");
                    if let Some(r) = first {
                        assert_eq!(r, reference(&data, x, y, z), "x={x} y={y} z={z:?}");
                    }
                    assert_eq!(warm.p_value(x, y, z), fresh.p_value(x, y, z));
                    assert_eq!(warm.independent(x, y, z), fresh.independent(x, y, z));
                }
            }
        }
        let stats = warm.cache_stats();
        assert!(stats.result_hits > 0, "repeat + swapped queries must hit: {stats:?}");
        assert!(warm.packs.stats().hits > 0, "shared conditioning sets must hit");
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

    /// Concurrent queries against one shared oracle agree with fresh
    /// oracles and the reference, and each testable key is computed once.
    #[test]
    fn concurrent_queries_are_consistent() {
        let data = random_data(9, 3000);
        let shared = DataOracle::new(&data);
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
            &|&(x, y, z)| shared.ci_result(x, y, z),
        );
        let mut testable = std::collections::HashSet::new();
        for (&(x, y, z), got) in queries.iter().zip(&parallel) {
            assert_eq!(*got, DataOracle::new(&data).ci_result(x, y, z), "x={x} y={y} z={z:?}");
            if let Some(r) = got {
                assert_eq!(*r, reference(&data, x, y, z), "x={x} y={y} z={z:?}");
                testable.insert((x.min(y), x.max(y), z));
            }
        }
        let stats = shared.cache_stats();
        assert_eq!(stats.result_misses, testable.len() as u64, "{stats:?}");
        assert_eq!(
            stats.result_hits + stats.result_misses,
            parallel.iter().flatten().count() as u64
        );
    }
}
