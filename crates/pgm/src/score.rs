//! BIC scoring of discrete Bayesian-network structures.
//!
//! The decomposable BIC score of a DAG `G` on data `D` is
//!
//! ```text
//! BIC(G) = Σ_v [ LL(v | Pa_G(v)) − (ln n / 2) · (card_v − 1) · Π_{p ∈ Pa} card_p ]
//! ```
//!
//! where the log-likelihood term is the maximized multinomial likelihood of
//! `v` given each observed parent configuration. Decomposability is what
//! makes local-search structure learning cheap: an edge change rescores only
//! the affected child.

use crate::encode::EncodedData;
use guardrail_graph::NodeSet;
use guardrail_stats::suffstats::{choose_path, group_by_stratum, pack_ranked, GroupScratch};
use std::collections::HashMap;
use std::convert::Infallible;

/// Cached per-family BIC computations over one dataset.
pub struct BicScorer<'a> {
    data: &'a EncodedData,
    cache: HashMap<(usize, NodeSet), f64>,
}

impl<'a> BicScorer<'a> {
    /// Creates a scorer over `data`.
    pub fn new(data: &'a EncodedData) -> Self {
        Self { data, cache: HashMap::new() }
    }

    /// The underlying data.
    pub fn data(&self) -> &EncodedData {
        self.data
    }

    /// BIC contribution of the family `(child, parents)`, memoized.
    pub fn family_score(&mut self, child: usize, parents: NodeSet) -> f64 {
        if let Some(&s) = self.cache.get(&(child, parents)) {
            return s;
        }
        let s = self.compute(child, parents);
        self.cache.insert((child, parents), s);
        s
    }

    fn compute(&self, child: usize, parents: NodeSet) -> f64 {
        let n = self.data.num_rows();
        if n == 0 {
            return 0.0;
        }
        let child_card = self.data.card(child);
        let child_codes = self.data.column(child);

        // Count (parent configuration, child value) through the group-by
        // kernel; only observed configurations reach the reducer, in
        // ascending key order, so the float sum has one fixed order.
        let parent_cols: Vec<&[u32]> = parents.iter().map(|p| self.data.column(p)).collect();
        let radices: Vec<u64> = parents.iter().map(|p| self.data.card(p) as u64).collect();
        let pack = pack_ranked(n, &parent_cols, &radices, |_| Ok::<(), Infallible>(()))
            .unwrap_or_else(|never| match never {});
        let strata = pack.pack.strata();
        let path = choose_path(n, 1, child_card, strata.domain);
        let cell = |i: usize| child_codes[i] as usize;
        let mut scratch = GroupScratch::default();
        let mut ll = 0.0;
        group_by_stratum(n, Some(strata), child_card, cell, path, &mut scratch, |_, counts| {
            let total: u64 = counts.iter().sum();
            for &c in counts.iter().filter(|&&c| c > 0) {
                ll += (c as f64) * ((c as f64) / (total as f64)).ln();
            }
        });

        let q: f64 = radices.iter().map(|&r| r as f64).product();
        let penalty = 0.5 * (n as f64).ln() * ((child_card as f64) - 1.0) * q;
        ll - penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_data(n: usize) -> EncodedData {
        // b = a exactly, c independent.
        let a: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let b = a.clone();
        let c: Vec<u32> = (0..n).map(|i| ((i.wrapping_mul(2654435761) >> 9) % 2) as u32).collect();
        EncodedData::from_parts(
            vec![a, b, c],
            vec![3, 3, 2],
            vec!["a".into(), "b".into(), "c".into()],
        )
    }

    #[test]
    fn true_parent_beats_empty_set() {
        let data = chain_data(600);
        let mut s = BicScorer::new(&data);
        let with_parent = s.family_score(1, NodeSet::singleton(0));
        let without = s.family_score(1, NodeSet::EMPTY);
        assert!(
            with_parent > without,
            "deterministic parent must improve BIC: {with_parent} vs {without}"
        );
    }

    #[test]
    fn spurious_parent_is_penalized() {
        let data = chain_data(600);
        let mut s = BicScorer::new(&data);
        let clean = s.family_score(2, NodeSet::EMPTY);
        let spurious = s.family_score(2, NodeSet::singleton(0));
        assert!(clean > spurious, "independent parent must lose to the penalty");
    }

    #[test]
    fn family_scores_are_memoized() {
        let data = chain_data(300);
        let mut s = BicScorer::new(&data);
        let first = s.family_score(1, NodeSet::singleton(0));
        assert_eq!(s.family_score(1, NodeSet::singleton(0)).to_bits(), first.to_bits());
        assert_eq!(s.cache.len(), 1);
    }

    #[test]
    fn family_score_sums_in_ascending_key_order() {
        // Noisy two-parent families: many configurations, so a different
        // summation order (across or within blocks) changes the low bits.
        for (card, noise) in [(4u32, 4u64), (9, 2)] {
            let n = 2000;
            let mut s = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = |m: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % m) as u32
            };
            let a: Vec<u32> = (0..n).map(|_| next(7)).collect();
            let b: Vec<u32> = (0..n).map(|_| next(5)).collect();
            let c: Vec<u32> = (0..n)
                .map(|i| if next(noise) == 0 { next(card.into()) } else { (a[i] + b[i]) % card })
                .collect();
            let data = EncodedData::from_parts(
                vec![a.clone(), b.clone(), c.clone()],
                vec![7, 5, card as usize],
                vec!["a".into(), "b".into(), "c".into()],
            );
            let mut groups: std::collections::BTreeMap<(u32, u32), Vec<u64>> = Default::default();
            for i in 0..n {
                groups.entry((a[i], b[i])).or_insert_with(|| vec![0; card as usize])
                    [c[i] as usize] += 1;
            }
            let mut ll = 0.0;
            for counts in groups.values() {
                let total: u64 = counts.iter().sum();
                for &k in counts.iter().filter(|&&k| k > 0) {
                    ll += (k as f64) * ((k as f64) / (total as f64)).ln();
                }
            }
            let penalty = 0.5 * (n as f64).ln() * (card - 1) as f64 * 35.0;
            let got = BicScorer::new(&data).family_score(2, NodeSet::from_iter([0, 1]));
            assert_eq!(got.to_bits(), (ll - penalty).to_bits(), "child card {card}");
        }
    }

    #[test]
    fn deterministic_family_ll_is_zero() {
        // b = a exactly ⇒ within each config the child is constant ⇒ LL = 0;
        // score = −penalty.
        let data = chain_data(500);
        let mut s = BicScorer::new(&data);
        let score = s.family_score(1, NodeSet::singleton(0));
        let penalty = 0.5 * (500f64).ln() * 2.0 * 3.0;
        assert!((score + penalty).abs() < 1e-9, "score {score}, -penalty {}", -penalty);
    }
}
