//! The auxiliary distribution `P_𝕀` (Def. 4.5) and its sampler.
//!
//! High-cardinality attributes starve contingency-table tests of data. The
//! paper's remedy (shared with FDX \[43\]) is to test structure on the
//! **auxiliary distribution**: draw two rows `t₁, t₂ ~ P_D` and emit the
//! binary vector `𝕀` with `𝕀ₖ = [t₁(aₖ) = t₂(aₖ)]`. Proposition 5 (appendix
//! D) shows `P_𝕀` has exactly the same conditional-independence structure as
//! `P_D`, so a PGM learned on `𝕀` is a PGM of the raw data — but every
//! variable is now binary.
//!
//! Sampling uses the **circular shift trick** (§7): pairing row `i` with row
//! `(i + s) mod n` for a handful of random shifts `s` turns pair sampling
//! into vectorizable column comparisons and guarantees each source row is
//! used equally often.

use crate::encode::EncodedData;
use rand::Rng;

/// Draws an auxiliary sample of approximately `target_pairs` indicator
/// vectors from `data` using circular shifts.
///
/// Each selected shift `s ∈ [1, n)` contributes `n` pairs
/// `(i, (i + s) mod n)`; shifts are drawn without replacement until the
/// target is met. Shift 0 is excluded (it would compare rows to themselves
/// and yield all-ones vectors carrying no information).
pub fn auxiliary_sample<R: Rng>(
    data: &EncodedData,
    target_pairs: usize,
    rng: &mut R,
) -> EncodedData {
    let n = data.num_rows();
    let d = data.num_attrs();
    assert!(n >= 2, "auxiliary sampling needs at least two rows");

    let num_shifts = target_pairs.div_ceil(n).clamp(1, n - 1);
    let mut shifts: Vec<usize> = Vec::with_capacity(num_shifts);
    while shifts.len() < num_shifts {
        let s = rng.gen_range(1..n);
        if !shifts.contains(&s) {
            shifts.push(s);
        }
    }

    let mut columns: Vec<Vec<u32>> = vec![Vec::with_capacity(num_shifts * n); d];
    for &s in &shifts {
        for (k, out) in columns.iter_mut().enumerate() {
            let col = data.column(k);
            for i in 0..n {
                let j = (i + s) % n;
                out.push(u32::from(col[i] == col[j]));
            }
        }
    }

    let names = data.names().iter().map(|a| format!("I[{a}]")).collect();
    EncodedData::from_parts(columns, vec![2; d], names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn output_shape_and_binary_codes() {
        let data = EncodedData::from_parts(
            vec![vec![0, 1, 2, 0, 1], vec![0, 0, 1, 1, 0]],
            vec![3, 2],
            vec!["a".into(), "b".into()],
        );
        let aux = auxiliary_sample(&data, 10, &mut rng());
        assert_eq!(aux.num_attrs(), 2);
        assert_eq!(aux.num_rows(), 10); // 2 shifts × 5 rows
        assert_eq!(aux.cards(), &[2, 2]);
        assert!(aux.column(0).iter().all(|&c| c <= 1));
        assert_eq!(aux.names()[0], "I[a]");
    }

    #[test]
    fn constant_column_yields_all_ones() {
        let data = EncodedData::from_parts(
            vec![vec![5, 5, 5, 5], vec![0, 1, 2, 3]],
            vec![6, 4],
            vec!["c".into(), "u".into()],
        );
        let aux = auxiliary_sample(&data, 8, &mut rng());
        assert!(aux.column(0).iter().all(|&c| c == 1), "equal values ⇒ indicator 1");
        // An all-distinct column never matches under a nonzero shift.
        assert!(aux.column(1).iter().all(|&c| c == 0));
    }

    #[test]
    fn preserves_functional_dependence() {
        // b = a (deterministic): whenever a-values match, b-values match, so
        // I[a] = 1 implies I[b] = 1.
        let a: Vec<u32> = (0..50).map(|i| i % 5).collect();
        let b = a.clone();
        let data = EncodedData::from_parts(vec![a, b], vec![5, 5], vec!["a".into(), "b".into()]);
        let aux = auxiliary_sample(&data, 200, &mut rng());
        for i in 0..aux.num_rows() {
            if aux.column(0)[i] == 1 {
                assert_eq!(aux.column(1)[i], 1);
            }
        }
    }

    #[test]
    fn proposition_5_ci_structure_is_preserved() {
        // Chain a0 → a1 → a2: marginal dependence everywhere, a0 ⫫ a2 | a1.
        // Prop. 5 says the indicator vector 𝕀 has the same CI structure.
        use crate::oracle::{DataOracle, IndependenceOracle};
        use guardrail_graph::NodeSet;
        let mut s = 77u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let n = 6000;
        let mut a0 = Vec::new();
        let mut a1 = Vec::new();
        let mut a2 = Vec::new();
        for _ in 0..n {
            let x = (next() % 4) as u32;
            let y = if next() % 25 == 0 { (next() % 3) as u32 } else { x % 3 };
            let z = if next() % 25 == 0 { (next() % 2) as u32 } else { y % 2 };
            a0.push(x);
            a1.push(y);
            a2.push(z);
        }
        let data = EncodedData::from_parts(
            vec![a0, a1, a2],
            vec![4, 3, 2],
            vec!["a0".into(), "a1".into(), "a2".into()],
        );
        let aux = auxiliary_sample(&data, 30_000, &mut rng());
        let scale = n as f64 / aux.num_rows() as f64;
        let oracle = DataOracle::new(&aux).with_statistic_scale(scale);
        // Dependencies survive the transform…
        assert!(!oracle.independent(0, 1, NodeSet::EMPTY), "𝕀₀ ⫫̸ 𝕀₁");
        assert!(!oracle.independent(1, 2, NodeSet::EMPTY), "𝕀₁ ⫫̸ 𝕀₂");
        // …and the conditional independence does too.
        assert!(oracle.independent(0, 2, NodeSet::singleton(1)), "𝕀₀ ⫫ 𝕀₂ | 𝕀₁");
    }

    #[test]
    fn respects_target_lower_bound() {
        let data = EncodedData::from_parts(vec![vec![0, 1, 0, 1, 0, 1]], vec![2], vec!["a".into()]);
        // Target beyond capacity clamps to n-1 shifts.
        let aux = auxiliary_sample(&data, 1_000_000, &mut rng());
        assert_eq!(aux.num_rows(), 5 * 6);
    }

    #[test]
    #[should_panic(expected = "at least two rows")]
    fn single_row_rejected() {
        let data = EncodedData::from_parts(vec![vec![0]], vec![1], vec!["a".into()]);
        auxiliary_sample(&data, 4, &mut rng());
    }
}
