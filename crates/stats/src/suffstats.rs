//! Fused sufficient-statistics kernel: the CI-test hot path.
//!
//! Every edge decision the PC algorithm makes bottoms out in tabulating a
//! stratified contingency tensor and reducing it to a G²/X² statistic with
//! structural-zero degrees of freedom. The legacy path
//! ([`crate::contingency::ContingencyTable::stratified`]) hashes a `u64`
//! stratum key per row into a `HashMap` and allocates one `nx·ny` count
//! vector per stratum; this module replaces it on the hot path with two
//! allocation-free tabulation kernels that produce **bit-identical**
//! results:
//!
//! * **Dense** — one flat count tensor indexed `(z·nx + x)·ny + y`, filled
//!   in a single branch-free pass (no hashing, no per-stratum allocation),
//!   then reduced stratum by stratum in ascending key order. The
//!   `DataOracle` reliability floor bounds `nx·ny·Π|Z| ≤ n/min_obs`, so the
//!   tensor of every *testable* query is at most a fifth of the data size —
//!   the dense path covers essentially all real queries.
//! * **Sparse** — a counting-sort-style group-by: sort a row-index
//!   permutation by stratum key, then tabulate one `nx·ny` table per
//!   observed run. Used by callers that bypass the reliability floor and
//!   condition on key spaces far larger than the data.
//!
//! Both paths share one per-stratum reduction that computes row/column
//! marginals **once** and folds the statistic and df in the same cell order
//! and with the same summation order as the legacy table walk, so all three
//! implementations agree to the last bit (enforced by the differential
//! tests in `tests/ci_kernel.rs`).
//!
//! Scratch buffers live in a [`CiScratch`] that callers reuse across tests;
//! [`ci_test_fused`] keeps one per thread, so the thousands of CI tests a
//! PC level fans out perform zero steady-state heap allocation (verified by
//! `tests/alloc_free.rs`).

use crate::chi2::ChiSquared;
use crate::independence::{CiTestKind, CiTestResult};
use std::cell::RefCell;

/// Packed stratum keys for a conditioning set, together with their
/// mixed-radix domain size `Π cards`.
///
/// Keys are built most-significant-column-first over the conditioning
/// columns in the order given, exactly like
/// [`crate::independence::pack_strata`]; knowing the domain is what lets
/// the dense kernel index strata directly instead of hashing, and what lets
/// a cached pack be [extended](StratumPack::extend) by one more column in
/// O(n) instead of re-packing every column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumPack {
    keys: Vec<u64>,
    domain: u64,
}

impl StratumPack {
    /// Packs per-row conditioning codes into stratum keys (mixed-radix over
    /// `columns` in order). Returns `None` when `Π cards` overflows `u64` —
    /// the same condition under which
    /// [`crate::independence::pack_strata`] reports an untestable set.
    pub fn pack(columns: &[&[u32]], cards: &[usize]) -> Option<Self> {
        assert_eq!(columns.len(), cards.len());
        assert!(!columns.is_empty(), "cannot pack zero conditioning columns");
        let mut domain = 1u64;
        for &c in cards {
            domain = domain.checked_mul(c as u64)?;
        }
        let n = columns[0].len();
        let mut keys = vec![0u64; n];
        for (col, &card) in columns.iter().zip(cards) {
            assert_eq!(col.len(), n, "conditioning columns must be aligned");
            fold_mixed_radix(&mut keys, col, card as u64, |code| code as u64);
        }
        Some(Self { keys, domain })
    }

    /// Extends this pack by one more conditioning column as the new
    /// least-significant radix digit: `key' = key·card + code`.
    ///
    /// Because [`StratumPack::pack`] folds columns in order, extending a
    /// pack over columns `c₁..cₖ₋₁` with column `cₖ` yields exactly the
    /// pack of `c₁..cₖ` — same keys, same domain, same overflow behaviour
    /// (`None` when the domain no longer fits in `u64`). This is the O(n)
    /// shortcut the oracle's statistics cache uses to derive level-ℓ
    /// conditioning keys from a cached level-(ℓ−1) pack.
    pub fn extend(&self, col: &[u32], card: usize) -> Option<Self> {
        assert_eq!(col.len(), self.keys.len(), "conditioning columns must be aligned");
        let domain = self.domain.checked_mul(card as u64)?;
        let mut keys = self.keys.clone();
        fold_mixed_radix(&mut keys, col, card as u64, |code| code as u64);
        Some(Self { keys, domain })
    }

    /// The per-row stratum keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Number of representable strata (`Π cards`); every key is `< domain`.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Borrowed view for the kernel entry points.
    pub fn strata(&self) -> Strata<'_> {
        Strata { keys: &self.keys, domain: self.domain }
    }

    /// Consumes the pack, returning the bare key vector.
    pub fn into_keys(self) -> Vec<u64> {
        self.keys
    }
}

/// Folds one more mixed-radix digit into `keys` in place:
/// `key' = key·radix + digit(code)`.
///
/// This is the primitive underneath [`StratumPack::pack`] /
/// [`StratumPack::extend`] (where `digit` is the identity and `radix` the
/// column cardinality), exported so other key-packing consumers — notably
/// the DSL's decision-table engine, whose digit map sends `NULL_CODE` and
/// out-of-dictionary codes to reserved digits — share the exact fold order
/// and arithmetic. `digit` must return values `< radix` or downstream
/// dense indexing is out of bounds; the caller is responsible for keeping
/// the accumulated domain within `u64`.
#[inline]
pub fn fold_mixed_radix(keys: &mut [u64], codes: &[u32], radix: u64, digit: impl Fn(u32) -> u64) {
    assert_eq!(keys.len(), codes.len(), "key and code slices must be aligned");
    for (k, &code) in keys.iter_mut().zip(codes.iter()) {
        *k = *k * radix + digit(code);
    }
}

/// Borrowed stratum keys plus their domain, as consumed by the kernel.
///
/// Every key must be `< domain` for the dense path to index its tensor;
/// [`StratumPack`] guarantees this by construction.
#[derive(Debug, Clone, Copy)]
pub struct Strata<'a> {
    /// One packed conditioning key per row.
    pub keys: &'a [u64],
    /// Exclusive upper bound on the keys (`Π cards` for mixed-radix packs).
    pub domain: u64,
}

impl<'a> Strata<'a> {
    /// Wraps bare keys, inferring the tightest domain (`max key + 1`) in
    /// one pass. For packs built by [`StratumPack`] prefer
    /// [`StratumPack::strata`], which knows the domain for free.
    pub fn infer(keys: &'a [u64]) -> Self {
        let domain = keys.iter().copied().max().map_or(0, |m| m.saturating_add(1));
        Self { keys, domain }
    }
}

/// Which tabulation kernel to run. The two paths are bit-identical in
/// output; the choice is purely a space/time trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Flat `domain·nx·ny` count tensor, single branch-free fill pass.
    Dense,
    /// Sort a row permutation by key, tabulate per observed stratum run.
    Sparse,
}

/// Tensors smaller than this are always tabulated densely, regardless of
/// the row count (covers small-n unit-test workloads).
const DENSE_CELL_FLOOR: u128 = 1 << 12;

/// Dense-path space budget as a multiple of the row count. Queries passing
/// the oracle's reliability floor satisfy `cells ≤ n/min_obs ≤ n`, so they
/// sit far below this bound; only floor-bypassing callers ever spill to the
/// sparse path.
const DENSE_CELLS_PER_ROW: u128 = 4;

/// Picks the kernel for a query shape: dense whenever the full count tensor
/// is small relative to the data (or outright tiny), sparse otherwise.
pub fn choose_path(rows: usize, nx: usize, ny: usize, domain: u64) -> KernelPath {
    let cells = (nx as u128) * (ny as u128) * (domain as u128);
    let budget = DENSE_CELL_FLOOR.max(DENSE_CELLS_PER_ROW * rows as u128);
    if cells <= budget {
        KernelPath::Dense
    } else {
        KernelPath::Sparse
    }
}

/// Reusable scratch for the tabulation kernels.
///
/// Buffers grow to the high-water mark of the queries they serve and are
/// never shrunk, so a warmed scratch makes every further test of
/// like-or-smaller shape allocation-free.
#[derive(Debug, Default)]
pub struct CiScratch {
    /// Count tensor: `domain·nx·ny` cells on the dense path, `nx·ny` on the
    /// sparse and marginal paths.
    counts: Vec<u64>,
    /// Row marginals of the stratum being reduced.
    row: Vec<u64>,
    /// Column marginals of the stratum being reduced.
    col: Vec<u64>,
    /// Row-index permutation, sorted by stratum key (sparse path only).
    order: Vec<u32>,
}

impl CiScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clears `buf` and zero-fills it to `len` without deallocating (and
/// without allocating once capacity has grown past `len`).
fn reset(buf: &mut Vec<u64>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

/// Running statistic/df accumulator shared by all strata of one test.
#[derive(Debug, Default)]
struct StatAcc {
    statistic: f64,
    df: f64,
}

impl StatAcc {
    fn finish(self) -> CiTestResult {
        if self.df == 0.0 {
            return CiTestResult { statistic: 0.0, df: 0.0, p_value: 1.0 };
        }
        let p_value = ChiSquared::new(self.df).sf(self.statistic);
        CiTestResult { statistic: self.statistic, df: self.df, p_value }
    }
}

/// Reduces one stratum's `nx·ny` count block into the accumulator.
///
/// Marginals are computed once (exact integer sums, so identical to the
/// legacy per-cell rescans), then the statistic is folded in the same cell
/// order, with the same per-cell expression and the same per-stratum
/// summation order as [`crate::contingency::ContingencyTable::g2`] /
/// [`pearson_x2`](crate::contingency::ContingencyTable::pearson_x2) — the
/// float result is bit-identical by construction.
fn accumulate_stratum(
    kind: CiTestKind,
    counts: &[u64],
    nx: usize,
    ny: usize,
    row: &mut Vec<u64>,
    col: &mut Vec<u64>,
    acc: &mut StatAcc,
) {
    debug_assert_eq!(counts.len(), nx * ny);
    reset(row, nx);
    reset(col, ny);
    let mut total = 0u64;
    for (xi, slot) in row.iter_mut().enumerate() {
        let base = xi * ny;
        let mut rm = 0u64;
        for (yi, cm) in col.iter_mut().enumerate() {
            let c = counts[base + yi];
            rm += c;
            *cm += c;
        }
        *slot = rm;
        total += rm;
    }
    if total == 0 {
        return;
    }
    let rows = row.iter().filter(|&&v| v > 0).count();
    let cols = col.iter().filter(|&&v| v > 0).count();
    if rows < 2 || cols < 2 {
        return; // stratum carries no information about dependence
    }
    let n = total as f64;
    match kind {
        CiTestKind::G2 => {
            let mut g2 = 0.0;
            for (xi, &rm) in row.iter().enumerate() {
                if rm == 0 {
                    continue;
                }
                let base = xi * ny;
                for yi in 0..ny {
                    let o = counts[base + yi];
                    if o == 0 {
                        continue;
                    }
                    let e = (rm as f64) * (col[yi] as f64) / n;
                    g2 += 2.0 * (o as f64) * ((o as f64) / e).ln();
                }
            }
            acc.statistic += g2.max(0.0);
        }
        CiTestKind::Pearson => {
            let mut x2 = 0.0;
            for (xi, &rm) in row.iter().enumerate() {
                let rm = rm as f64;
                if rm == 0.0 {
                    continue;
                }
                let base = xi * ny;
                for yi in 0..ny {
                    let cm = col[yi] as f64;
                    let e = rm * cm / n;
                    if e == 0.0 {
                        continue;
                    }
                    let o = counts[base + yi] as f64;
                    x2 += (o - e) * (o - e) / e;
                }
            }
            acc.statistic += x2;
        }
    }
    acc.df += ((rows - 1) * (cols - 1)) as f64;
}

/// Runs the CI test through an explicit kernel path with caller-provided
/// scratch. `x`/`y` are code slices with codes `< nx`/`< ny`; `strata`
/// carries one packed key per row (`None` = marginal test). All paths
/// iterate strata in ascending key order and agree bit-for-bit with the
/// legacy [`crate::independence::ci_test_reference`].
#[allow(clippy::too_many_arguments)] // mirrors ci_test's signature + path/scratch
pub fn ci_test_kernel(
    kind: CiTestKind,
    x: &[u32],
    y: &[u32],
    strata: Option<Strata<'_>>,
    nx: usize,
    ny: usize,
    path: KernelPath,
    scratch: &mut CiScratch,
) -> CiTestResult {
    assert_eq!(x.len(), y.len(), "code slices must be aligned");
    let mut acc = StatAcc::default();
    match strata {
        None => {
            let cells = nx * ny;
            reset(&mut scratch.counts, cells);
            for (&a, &b) in x.iter().zip(y.iter()) {
                scratch.counts[a as usize * ny + b as usize] += 1;
            }
            accumulate_stratum(
                kind,
                &scratch.counts,
                nx,
                ny,
                &mut scratch.row,
                &mut scratch.col,
                &mut acc,
            );
        }
        Some(s) => {
            assert_eq!(x.len(), s.keys.len(), "stratum keys must be aligned");
            if x.is_empty() {
                return acc.finish();
            }
            match path {
                KernelPath::Dense => dense_strata(kind, x, y, s, nx, ny, scratch, &mut acc),
                KernelPath::Sparse => sparse_strata(kind, x, y, s, nx, ny, scratch, &mut acc),
            }
        }
    }
    acc.finish()
}

/// Dense path: one flat `domain·nx·ny` tensor, one branch-free fill pass,
/// then a stratum-major reduction. Ascending stratum index *is* ascending
/// key order because keys are mixed-radix packed below `domain`.
#[allow(clippy::too_many_arguments)]
fn dense_strata(
    kind: CiTestKind,
    x: &[u32],
    y: &[u32],
    s: Strata<'_>,
    nx: usize,
    ny: usize,
    scratch: &mut CiScratch,
    acc: &mut StatAcc,
) {
    let cells = nx * ny;
    let domain = s.domain as usize;
    reset(&mut scratch.counts, domain * cells);
    for i in 0..x.len() {
        let k = s.keys[i] as usize;
        debug_assert!(k < domain, "stratum key {k} outside domain {domain}");
        scratch.counts[(k * nx + x[i] as usize) * ny + y[i] as usize] += 1;
    }
    for z in 0..domain {
        accumulate_stratum(
            kind,
            &scratch.counts[z * cells..(z + 1) * cells],
            nx,
            ny,
            &mut scratch.row,
            &mut scratch.col,
            acc,
        );
    }
}

/// Sparse fallback: sort a row-index permutation by stratum key (in place,
/// no per-stratum allocation) and tabulate each observed run into one
/// reused `nx·ny` block. Runs come out in ascending key order, matching the
/// dense path and the legacy sorted-`HashMap` walk.
#[allow(clippy::too_many_arguments)]
fn sparse_strata(
    kind: CiTestKind,
    x: &[u32],
    y: &[u32],
    s: Strata<'_>,
    nx: usize,
    ny: usize,
    scratch: &mut CiScratch,
    acc: &mut StatAcc,
) {
    let n = x.len();
    assert!(n <= u32::MAX as usize, "sparse kernel indexes rows with u32");
    let cells = nx * ny;
    scratch.order.clear();
    scratch.order.extend(0..n as u32);
    scratch.order.sort_unstable_by_key(|&i| s.keys[i as usize]);
    reset(&mut scratch.counts, cells);
    let mut start = 0;
    while start < n {
        let key = s.keys[scratch.order[start] as usize];
        let mut end = start + 1;
        while end < n && s.keys[scratch.order[end] as usize] == key {
            end += 1;
        }
        for &i in &scratch.order[start..end] {
            scratch.counts[x[i as usize] as usize * ny + y[i as usize] as usize] += 1;
        }
        accumulate_stratum(kind, &scratch.counts, nx, ny, &mut scratch.row, &mut scratch.col, acc);
        scratch.counts[..cells].fill(0);
        start = end;
    }
}

thread_local! {
    /// Per-thread scratch: PC fans thousands of CI tests out to each worker
    /// thread, and after the first few tests warm these buffers the rest
    /// run with zero heap allocation.
    static SCRATCH: RefCell<CiScratch> = RefCell::new(CiScratch::new());
}

/// The fused CI test: picks dense/sparse via [`choose_path`] and runs on
/// the calling thread's reused scratch. Bit-identical to
/// [`crate::independence::ci_test_reference`] for every input.
pub fn ci_test_fused(
    kind: CiTestKind,
    x: &[u32],
    y: &[u32],
    strata: Option<Strata<'_>>,
    nx: usize,
    ny: usize,
) -> CiTestResult {
    let path = match &strata {
        Some(s) => choose_path(x.len(), nx, ny, s.domain),
        None => KernelPath::Dense,
    };
    SCRATCH.with(|s| ci_test_kernel(kind, x, y, strata, nx, ny, path, &mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::{ci_test_reference, pack_strata};

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
    fn pack_matches_pack_strata() {
        let a = [0u32, 1, 2];
        let b = [1u32, 0, 1];
        let pack = StratumPack::pack(&[&a, &b], &[3, 2]).unwrap();
        assert_eq!(pack.keys(), &[1, 2, 5]);
        assert_eq!(pack.domain(), 6);
        assert_eq!(pack_strata(&[&a, &b], &[3, 2]).unwrap(), pack.keys());
    }

    #[test]
    fn extend_matches_full_pack() {
        let mut rng = xorshift(5);
        let n = 500;
        let cols: Vec<Vec<u32>> = [3usize, 4, 2]
            .iter()
            .map(|&c| (0..n).map(|_| (rng() % c as u64) as u32).collect())
            .collect();
        let refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
        let full = StratumPack::pack(&refs, &[3, 4, 2]).unwrap();
        let extended = StratumPack::pack(&refs[..2], &[3, 4]).unwrap().extend(&cols[2], 2).unwrap();
        assert_eq!(full, extended);
    }

    #[test]
    fn extend_overflow_matches_pack_overflow() {
        let col = vec![0u32; 4];
        let huge = 1usize << 31;
        let base = StratumPack::pack(&[&col, &col], &[huge, huge]).unwrap();
        assert!(base.extend(&col, huge).is_none());
        assert!(StratumPack::pack(&[&col, &col, &col], &[huge, huge, huge]).is_none());
    }

    #[test]
    fn dense_and_sparse_match_reference() {
        let mut rng = xorshift(17);
        let n = 3000;
        let (nx, ny, zc) = (3usize, 4usize, 5usize);
        let x: Vec<u32> = (0..n).map(|_| (rng() % nx as u64) as u32).collect();
        let y: Vec<u32> = (0..n).map(|_| (rng() % ny as u64) as u32).collect();
        let z: Vec<u32> = (0..n).map(|_| (rng() % zc as u64) as u32).collect();
        let pack = StratumPack::pack(&[&z], &[zc]).unwrap();
        for kind in [CiTestKind::G2, CiTestKind::Pearson] {
            let legacy = ci_test_reference(kind, &x, &y, Some(pack.keys()), nx, ny);
            let mut scratch = CiScratch::new();
            for path in [KernelPath::Dense, KernelPath::Sparse] {
                let got =
                    ci_test_kernel(kind, &x, &y, Some(pack.strata()), nx, ny, path, &mut scratch);
                assert_eq!(
                    got.statistic.to_bits(),
                    legacy.statistic.to_bits(),
                    "{kind:?} {path:?}"
                );
                assert_eq!(got.df.to_bits(), legacy.df.to_bits());
                assert_eq!(got.p_value.to_bits(), legacy.p_value.to_bits());
            }
        }
    }

    #[test]
    fn empty_input_is_conservative() {
        let r = ci_test_fused(CiTestKind::G2, &[], &[], Some(Strata::infer(&[])), 2, 2);
        assert_eq!(r.df, 0.0);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn choose_path_prefers_dense_under_floor() {
        assert_eq!(choose_path(100, 2, 2, 8), KernelPath::Dense);
        assert_eq!(choose_path(1000, 4, 4, 1 << 40), KernelPath::Sparse);
        // Reliability-floor shape: cells ≤ n/5 is always dense.
        assert_eq!(choose_path(100_000, 4, 5, 1000), KernelPath::Dense);
    }
}
