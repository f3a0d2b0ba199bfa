//! Sufficient statistics: the one group-by kernel behind CI tests, sketch
//! fill and BIC scoring.
//!
//! [`group_by_stratum`] counts rows per stratum key × cell and hands each
//! observed stratum's count block to a reducer, in ascending key order.
//! Three reducers run over it: the G²/X² reduction of every PC CI test
//! (this module), Alg. 1's mode/loss/ε-validity (`guardrail-synth`'s fill)
//! and the BIC log-likelihood (`guardrail-pgm`'s scorer). It has two
//! allocation-free paths that visit the same blocks:
//!
//! * **Dense** — one flat count tensor indexed `z·cells + cell`, filled
//!   in a single branch-free pass (no hashing, no per-stratum allocation),
//!   then walked stratum by stratum in ascending key order. The
//!   `DataOracle` reliability floor bounds `nx·ny·Π|Z| ≤ n/min_obs`, so the
//!   tensor of every *testable* query is at most a fifth of the data size —
//!   the dense path covers essentially all real queries.
//! * **Sparse** — a counting-sort-style group-by: sort a row-index
//!   permutation by stratum key, then tabulate one block per observed run.
//!   Used when the key space is far larger than the data.
//!
//! CI tests whose `x`, `y` and conditioning columns are all binary (every
//! test PC runs on the auxiliary sample) can skip the row pass:
//! [`ci_test_bits`] builds each stratum's row mask from bit-packed columns
//! and counts its 2×2 block with four popcounts a word, then reduces it
//! through the same `accumulate_stratum`.
//!
//! Keys come from [`StratumPack::pack`] (PC: `None` when the mixed-radix
//! domain overflows `u64`, an untestable set) or [`pack_ranked`] (fill and
//! BIC: any number of columns, ranking keys densely before a fold would
//! overflow).
//!
//! The CI reduction computes row/column marginals **once** and folds the
//! statistic and df in the same cell order and with the same summation
//! order as the legacy `HashMap` table walk
//! ([`crate::contingency::ContingencyTable::stratified`]), so all
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
/// columns in the order given; knowing the domain is what lets the dense
/// kernel index strata directly instead of hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumPack {
    keys: Vec<u64>,
    domain: u64,
}

impl StratumPack {
    /// Packs per-row conditioning codes into stratum keys (mixed-radix over
    /// `columns` in order). Returns `None` when `Π cards` overflows `u64`:
    /// an untestable conditioning set.
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
}

/// Folds one more mixed-radix digit into `keys` in place:
/// `key' = key·radix + digit(code)`.
///
/// This is the primitive underneath [`StratumPack::pack`] (where `digit`
/// is the identity and `radix` the column cardinality), exported so other key-packing consumers — notably
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

/// Rows per chunk of a [`pack_ranked`] pass: one charge per chunk, and a
/// chunk's keys (32 KiB) stay in L1 while every column folds into them.
pub const PACK_CHUNK: usize = 4096;

/// Keys from [`pack_ranked`]: a [`StratumPack`] whose leading columns may
/// have been replaced by their dense rank.
#[derive(Debug, Clone)]
pub struct RankedPack {
    /// The keys and their domain.
    pub pack: StratumPack,
    /// Columns before this index were folded into dense ranks (0 when the
    /// whole mixed-radix domain fits in `u64`).
    ranked: usize,
    /// `reps[r]`: a row whose ranked-prefix key has rank `r`.
    reps: Vec<u32>,
}

/// The digit a code folds to in [`pack_ranked`].
fn digit(code: u32, radix: u64) -> u64 {
    u64::from(code).min(radix - 1)
}

/// Packs `rows` keys over `columns` (mixed radix, most significant first;
/// a code `≥ radix − 1` folds to digit `radix − 1`, the slot a caller
/// reserves for NULL) for any number of columns. Before a fold
/// whose domain would overflow `u64`, the keys are replaced by their dense
/// rank, which keeps their order, so ascending keys are always ascending
/// code tuples. The first pass over the rows calls `charge(rows in chunk)`
/// before each [`PACK_CHUNK`] and stops at the first error.
pub fn pack_ranked<E>(
    rows: usize,
    columns: &[&[u32]],
    radices: &[u64],
    mut charge: impl FnMut(usize) -> Result<(), E>,
) -> Result<RankedPack, E> {
    assert_eq!(columns.len(), radices.len());
    let mut keys = vec![0u64; rows];
    let (mut domain, mut first, mut reps) = (1u64, 0, Vec::new());
    loop {
        let mut end = first;
        while let Some(d) = radices.get(end).and_then(|&r| domain.checked_mul(r)) {
            domain = d;
            end += 1;
        }
        assert!(end > first || end == columns.len(), "one column overflows the key domain");
        for start in (0..rows).step_by(PACK_CHUNK) {
            let chunk = start..rows.min(start + PACK_CHUNK);
            if first == 0 {
                charge(chunk.len())?;
            }
            for (col, &radix) in columns[first..end].iter().zip(&radices[first..end]) {
                let codes = &col[chunk.clone()];
                fold_mixed_radix(&mut keys[chunk.clone()], codes, radix, |c| digit(c, radix));
            }
        }
        if end == columns.len() {
            return Ok(RankedPack { pack: StratumPack { keys, domain }, ranked: first, reps });
        }
        reps = rank_keys(&mut keys);
        domain = reps.len() as u64;
        first = end;
    }
}

/// Replaces each key by its rank among the distinct keys (order-preserving)
/// and returns one row per rank.
fn rank_keys(keys: &mut [u64]) -> Vec<u32> {
    assert!(keys.len() <= u32::MAX as usize, "ranking indexes rows with u32");
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by_key(|&i| keys[i as usize]);
    let mut reps: Vec<u32> = Vec::new();
    let mut last = None;
    for i in order {
        let key = &mut keys[i as usize];
        if last != Some(*key) {
            last = Some(*key);
            reps.push(i);
        }
        *key = reps.len() as u64 - 1;
    }
    reps
}

impl RankedPack {
    /// Writes the per-column digits of stratum `key` into `digits`:
    /// arithmetic for the columns after the ranked prefix, a representative
    /// row's codes for the prefix.
    pub fn digits(&self, key: u64, columns: &[&[u32]], radices: &[u64], digits: &mut [u64]) {
        let mut rem = key;
        for c in (self.ranked..columns.len()).rev() {
            digits[c] = rem % radices[c];
            rem /= radices[c];
        }
        if self.ranked > 0 {
            let row = self.reps[rem as usize] as usize;
            for c in 0..self.ranked {
                digits[c] = digit(columns[c][row], radices[c]);
            }
        }
    }
}

/// Which tabulation kernel to run. The two paths are bit-identical in
/// output; the choice is purely a space/time trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Flat `domain·cells` count tensor, single branch-free fill pass.
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

/// Reusable scratch for [`group_by_stratum`]: the count tensor and the
/// sparse path's row permutation.
///
/// Buffers grow to the high-water mark of the queries they serve and are
/// never shrunk, so a warmed scratch makes every further query of
/// like-or-smaller shape allocation-free.
#[derive(Debug, Default)]
pub struct GroupScratch {
    /// `domain·cells` counts on the dense path, one `cells` block otherwise.
    counts: Vec<u64>,
    /// Row-index permutation, sorted by stratum key (sparse path only).
    order: Vec<u32>,
}

/// Reusable scratch for the CI kernels: the group-by buffers plus the
/// marginals of the stratum being reduced.
#[derive(Debug, Default)]
pub struct CiScratch {
    groups: GroupScratch,
    /// Row marginals of the stratum being reduced.
    row: Vec<u64>,
    /// Column marginals of the stratum being reduced.
    col: Vec<u64>,
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

/// The one group-by kernel. Row `i` counts into cell `cell(i) < cells` of
/// stratum `strata.keys[i]` (every row is in stratum 0 when `strata` is
/// `None`); then `visit(key, block)` sees the `cells` counts of each
/// observed stratum, in ascending key order. Both paths visit the same
/// blocks in the same order.
///
/// * **Dense** — one flat `domain·cells` tensor, one branch-free fill pass,
///   then a stratum-major walk. Ascending stratum index *is* ascending key
///   order because keys are mixed-radix packed below `domain`.
/// * **Sparse** — sort a row-index permutation by key (in place, no
///   per-stratum allocation) and tabulate each observed run into one reused
///   block; runs come out in ascending key order.
pub fn group_by_stratum(
    rows: usize,
    strata: Option<Strata<'_>>,
    cells: usize,
    cell: impl Fn(usize) -> usize,
    path: KernelPath,
    scratch: &mut GroupScratch,
    mut visit: impl FnMut(u64, &[u64]),
) {
    let GroupScratch { counts, order } = scratch;
    if rows == 0 || cells == 0 {
        return;
    }
    let Some(s) = strata else {
        reset(counts, cells);
        for i in 0..rows {
            counts[cell(i)] += 1;
        }
        visit(0, counts);
        return;
    };
    assert_eq!(s.keys.len(), rows, "stratum keys must be aligned");
    match path {
        KernelPath::Dense => {
            let domain = s.domain as usize;
            reset(counts, domain * cells);
            for (i, &k) in s.keys.iter().enumerate() {
                debug_assert!((k as usize) < domain, "stratum key {k} outside domain {domain}");
                counts[k as usize * cells + cell(i)] += 1;
            }
            for (z, block) in counts.chunks_exact(cells).enumerate() {
                if block.iter().any(|&c| c > 0) {
                    visit(z as u64, block);
                }
            }
        }
        KernelPath::Sparse => {
            assert!(rows <= u32::MAX as usize, "sparse kernel indexes rows with u32");
            order.clear();
            order.extend(0..rows as u32);
            order.sort_unstable_by_key(|&i| s.keys[i as usize]);
            reset(counts, cells);
            let mut start = 0;
            while start < rows {
                let key = s.keys[order[start] as usize];
                let mut end = start + 1;
                while end < rows && s.keys[order[end] as usize] == key {
                    end += 1;
                }
                for &i in &order[start..end] {
                    counts[cell(i as usize)] += 1;
                }
                visit(key, counts);
                counts.fill(0);
                start = end;
            }
        }
    }
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
/// scratch: [`group_by_stratum`] over `nx·ny` blocks, reduced by
/// `accumulate_stratum`. `x`/`y` are code slices with codes `< nx`/`< ny`;
/// `strata` carries one packed key per row (`None` = marginal test). Every
/// path agrees bit-for-bit with the legacy
/// [`crate::independence::ci_test_reference`].
#[allow(clippy::too_many_arguments)] // mirrors ci_test_fused's signature + path/scratch
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
    let CiScratch { groups, row, col } = scratch;
    let mut acc = StatAcc::default();
    let cell = |i: usize| x[i] as usize * ny + y[i] as usize;
    group_by_stratum(x.len(), strata, nx * ny, cell, path, groups, |_, block| {
        accumulate_stratum(kind, block, nx, ny, row, col, &mut acc)
    });
    acc.finish()
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

/// Largest conditioning set `DataOracle` routes to [`ci_test_bits`]. Each
/// of the kernel's `2^|Z|` strata costs one pass over `⌈n/64⌉` words (an
/// AND per conditioning column and four popcounts a word), so its cost
/// doubles with every column while a row pass costs the same at any `|Z|`.
/// On 61k binary rows the two come within noise of each other at 2⁴ strata
/// (`ci_kernel/{bits,fused}/level4-aux61k`), so the bit kernel takes up to
/// three columns: every test of PC at its default depth.
pub const BIT_MAX_COND: usize = 3;

/// Words of a [`ci_test_bits`] stratum mask built at a time (a stack
/// buffer, so the kernel never touches the heap).
const BIT_CHUNK: usize = 64;

/// Packs a binary code column (codes `0`/`1`) into words: bit `i % 64` of
/// word `i / 64` is row `i`'s code, and the bits past the last row are 0.
pub fn pack_bits(codes: &[u32]) -> Vec<u64> {
    codes
        .chunks(64)
        .map(|chunk| {
            chunk.iter().enumerate().fold(0u64, |w, (b, &c)| {
                debug_assert!(c <= 1, "code {c} is not binary");
                w | (u64::from(c & 1) << b)
            })
        })
        .collect()
}

/// `[n, n_x1, n_y1, n_11]` of stratum `key` over bit columns: the mask is
/// the AND of `z_j` (key digit 1) or `!z_j` (digit 0), the first column
/// the most significant digit, restricted to the `rows` valid bits.
fn stratum_counts(key: u64, rows: usize, x: &[u64], y: &[u64], z: &[&[u64]]) -> [u64; 4] {
    let words = x.len();
    let mut counts = [0u64; 4];
    let mut mask = [0u64; BIT_CHUNK];
    for start in (0..words).step_by(BIT_CHUNK) {
        let end = words.min(start + BIT_CHUNK);
        let mask = &mut mask[..end - start];
        mask.fill(!0);
        if end == words && rows % 64 != 0 {
            mask[end - start - 1] = (1u64 << (rows % 64)) - 1;
        }
        for (j, col) in z.iter().enumerate() {
            let flip = if key >> (z.len() - 1 - j) & 1 == 1 { 0 } else { !0 };
            for (m, &c) in mask.iter_mut().zip(&col[start..end]) {
                *m &= c ^ flip;
            }
        }
        for ((&m, &xw), &yw) in mask.iter().zip(&x[start..end]).zip(&y[start..end]) {
            counts[0] += u64::from(m.count_ones());
            counts[1] += u64::from((m & xw).count_ones());
            counts[2] += u64::from((m & yw).count_ones());
            counts[3] += u64::from((m & xw & yw).count_ones());
        }
    }
    counts
}

/// The CI test on binary columns packed by [`pack_bits`]: `x`, `y` and
/// every conditioning column `z` hold `rows` bits. Strata are visited in
/// ascending mixed-radix key order (first column most significant, the
/// order of [`StratumPack::pack`]); each observed stratum's four popcounts
/// rebuild its `[x0y0, x0y1, x1y0, x1y1]` block for `accumulate_stratum`.
/// The integer counts equal the row pass's, so the result is bit-identical
/// to [`ci_test_fused`] (and [`crate::independence::ci_test_reference`])
/// on the unpacked codes with `nx = ny = 2`. Runs on the calling thread's
/// reused scratch; a caller passing `z` from a fixed array allocates
/// nothing.
pub fn ci_test_bits(
    kind: CiTestKind,
    rows: usize,
    x: &[u64],
    y: &[u64],
    z: &[&[u64]],
) -> CiTestResult {
    assert!(z.len() < 64, "{} conditioning columns overflow a stratum key", z.len());
    let words = rows.div_ceil(64);
    assert!(
        x.len() == words && y.len() == words && z.iter().all(|c| c.len() == words),
        "bit columns must hold {rows} rows"
    );
    let mut acc = StatAcc::default();
    SCRATCH.with(|s| {
        let CiScratch { row, col, .. } = &mut *s.borrow_mut();
        for key in 0..1u64 << z.len() {
            let [n, nx1, ny1, n11] = stratum_counts(key, rows, x, y, z);
            if n > 0 {
                let block = [n + n11 - nx1 - ny1, ny1 - n11, nx1 - n11, n11];
                accumulate_stratum(kind, &block, 2, 2, row, col, &mut acc);
            }
        }
    });
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::ci_test_reference;

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
    fn pack_is_mixed_radix() {
        let a = [0u32, 1, 2];
        let b = [1u32, 0, 1];
        let pack = StratumPack::pack(&[&a, &b], &[3, 2]).unwrap();
        assert_eq!(pack.keys(), &[1, 2, 5]);
        assert_eq!(pack.domain(), 6);
    }

    #[test]
    fn pack_overflow_is_none() {
        let col = vec![0u32; 4];
        let huge = 1usize << 31;
        assert!(StratumPack::pack(&[&col, &col], &[huge, huge]).is_some());
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
    fn dense_and_sparse_visit_the_same_blocks() {
        let mut rng = xorshift(23);
        let n = 2000;
        let keys: Vec<u64> = (0..n).map(|_| rng() % 40 * 2).collect(); // odd keys unobserved
        let cells: Vec<usize> = (0..n).map(|_| (rng() % 3) as usize).collect();
        let strata = Strata { keys: &keys, domain: 80 };
        let mut scratch = GroupScratch::default();
        let mut visits = [Vec::new(), Vec::new()];
        for (path, out) in [KernelPath::Dense, KernelPath::Sparse].into_iter().zip(&mut visits) {
            group_by_stratum(
                n,
                Some(strata),
                3,
                |i| cells[i],
                path,
                &mut scratch,
                |k, b| out.push((k, b.to_vec())),
            );
        }
        assert_eq!(visits[0], visits[1]);
        assert_eq!(visits[0].len(), 40);
        assert!(visits[0].windows(2).all(|w| w[0].0 < w[1].0), "ascending keys");
        assert_eq!(visits[0].iter().flat_map(|(_, b)| b).sum::<u64>(), n as u64);
    }

    #[test]
    fn pack_ranked_orders_like_code_tuples() {
        // Three 2^31 radices overflow u64, so the first two columns rank.
        let mut rng = xorshift(11);
        let n = 5000;
        let radices = [1u64 << 31, 1 << 31, 1 << 31, 3];
        let mut cols: Vec<Vec<u32>> =
            (0..4).map(|_| (0..n).map(|_| (rng() % 3) as u32).collect()).collect();
        cols[3][7] = u32::MAX; // out of range: folds to digit 2, like NULL
        let refs: Vec<&[u32]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut charges = Vec::new();
        let ranked = pack_ranked(n, &refs, &radices, |rows| {
            charges.push(rows);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(charges, [PACK_CHUNK, n - PACK_CHUNK]);
        assert_eq!(ranked.ranked, 2);
        let tuple = |i: usize| -> Vec<u64> {
            refs.iter().zip(&radices).map(|(c, &r)| u64::from(c[i]).min(r - 1)).collect()
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| tuple(i));
        let keys = ranked.pack.keys();
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert_eq!(keys[a].cmp(&keys[b]), tuple(a).cmp(&tuple(b)));
        }
        let mut digits = [0u64; 4];
        for (i, &key) in keys.iter().enumerate() {
            assert!(key < ranked.pack.domain());
            ranked.digits(key, &refs, &radices, &mut digits);
            assert_eq!(digits.to_vec(), tuple(i));
        }
        let err = pack_ranked(n, &refs, &radices, |_| Err("cut"));
        assert_eq!(err.unwrap_err(), "cut");
    }

    #[test]
    fn empty_input_is_conservative() {
        let r =
            ci_test_fused(CiTestKind::G2, &[], &[], Some(Strata { keys: &[], domain: 0 }), 2, 2);
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
