//! TANE: level-wise discovery of (approximate) functional dependencies.
//!
//! Faithful to Huhtala et al. \[19\]:
//!
//! * rows are grouped into **stripped partitions** `π̂_X` (equivalence
//!   classes of size ≥ 2 under the values of attribute set `X`);
//! * candidate levels walk the attribute lattice bottom-up, joining
//!   prefix-blocks and pruning with the `C⁺` candidate-RHS sets;
//! * an FD `X∖{A} → A` is emitted when its **g₃ error** — the minimum
//!   fraction of rows to delete for the FD to hold exactly — is at most
//!   `epsilon`;
//! * partition products use the probe-table algorithm, so each level is
//!   linear in the data.
//!
//! A candidate budget bounds the lattice blow-up on wide schemas; exceeding
//! it returns [`BaselineError::ResourceExhausted`] (the paper's "–" entries
//! for TANE on datasets #3 and #11).

use crate::fd::Fd;
use crate::BaselineError;
use guardrail_table::Table;
use std::collections::{HashMap, HashSet};

/// TANE configuration.
#[derive(Debug, Clone, Copy)]
pub struct TaneConfig {
    /// g₃-error threshold for approximate FDs (0 = exact FDs only).
    pub epsilon: f64,
    /// Largest LHS size considered (lattice level − 1).
    pub max_lhs: usize,
    /// Abort when a level holds more candidates than this.
    pub max_candidates: usize,
}

impl Default for TaneConfig {
    fn default() -> Self {
        Self { epsilon: 0.02, max_lhs: 3, max_candidates: 20_000 }
    }
}

/// A stripped partition: equivalence classes with ≥ 2 rows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Partition {
    classes: Vec<Vec<u32>>,
    /// Total rows across classes (`‖π̂‖` in TANE notation is `classes.len()`;
    /// this is the row mass used by the error formula).
    rows: usize,
}

impl Partition {
    fn from_codes(codes: &[u32]) -> Self {
        let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
        for (i, &c) in codes.iter().enumerate() {
            groups.entry(c).or_default().push(i as u32);
        }
        let mut classes: Vec<Vec<u32>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        classes.sort(); // deterministic order
        let rows = classes.iter().map(|c| c.len()).sum();
        Self { classes, rows }
    }

    /// Probe-table partition product `π̂_X · π̂_Y` (TANE §4.3).
    fn product(&self, other: &Partition, n: usize) -> Partition {
        let mut probe: Vec<i32> = vec![-1; n];
        for (ci, class) in self.classes.iter().enumerate() {
            for &row in class {
                probe[row as usize] = ci as i32;
            }
        }
        let mut buckets: HashMap<(i32, usize), Vec<u32>> = HashMap::new();
        for (cj, class) in other.classes.iter().enumerate() {
            for &row in class {
                let ci = probe[row as usize];
                if ci >= 0 {
                    buckets.entry((ci, cj)).or_default().push(row);
                }
            }
        }
        let mut classes: Vec<Vec<u32>> = buckets.into_values().filter(|g| g.len() >= 2).collect();
        classes.sort();
        let rows = classes.iter().map(|c| c.len()).sum();
        Partition { classes, rows }
    }

    /// g₃ error of `X → A` given `π̂_X = self` and `π̂_{X∪A} = refined`:
    /// for each class of `π̂_X`, all but the largest co-class of `π̂_{X∪A}`
    /// must be deleted.
    fn g3_error(&self, refined: &Partition, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        // Map row → size of its class in the refined partition (singletons
        // count 1).
        let mut refined_size: Vec<u32> = vec![1; n];
        for class in &refined.classes {
            for &row in class {
                refined_size[row as usize] = class.len() as u32;
            }
        }
        let mut keep = 0usize;
        let mut covered = 0usize;
        for class in &self.classes {
            let max = class.iter().map(|&r| refined_size[r as usize]).max().unwrap_or(1);
            keep += max as usize;
            covered += class.len();
        }
        // Rows in singleton X-classes trivially satisfy the FD.
        let violations = covered - keep.min(covered);
        violations as f64 / n as f64
    }
}

type AttrSet = u64;

fn set_members(set: AttrSet) -> Vec<usize> {
    (0..64).filter(|&i| set & (1 << i) != 0).collect()
}

/// Runs TANE on `table`. Returns discovered (approximate) minimal FDs.
pub fn tane_discover(table: &Table, config: &TaneConfig) -> Result<Vec<Fd>, BaselineError> {
    let n_attrs = table.num_columns();
    assert!(n_attrs <= 63, "TANE attr-set bitmask supports ≤ 63 columns");
    let n = table.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }

    let full: AttrSet = (1 << n_attrs) - 1;
    let mut partitions: HashMap<AttrSet, Partition> = HashMap::new();
    for a in 0..n_attrs {
        partitions
            .insert(1 << a, Partition::from_codes(table.column(a).expect("in range").codes()));
    }

    // C⁺(X) sets; level-1 initialization.
    let mut cplus: HashMap<AttrSet, AttrSet> = HashMap::new();
    let mut level: Vec<AttrSet> = (0..n_attrs).map(|a| 1 << a).collect();
    for &x in &level {
        cplus.insert(x, full);
    }

    let mut fds = Vec::new();
    let mut total_candidates = level.len();

    for depth in 1..=config.max_lhs + 1 {
        if depth > 1 {
            // compute_dependencies
        }
        // --- compute dependencies on the current level (X has |X| = depth) ---
        if depth >= 2 {
            for &x in &level {
                let candidates = *cplus.get(&x).unwrap_or(&0) & x;
                for a in set_members(candidates) {
                    let lhs_set = x & !(1 << a);
                    let (pi_lhs, pi_x) = (
                        partitions.get(&lhs_set).expect("parent partition").clone(),
                        partitions.get(&x).expect("level partition").clone(),
                    );
                    let error = pi_lhs.g3_error(&pi_x, n);
                    if error <= config.epsilon {
                        fds.push(Fd::new(set_members(lhs_set), a));
                        let entry = cplus.entry(x).or_insert(full);
                        *entry &= !(1 << a);
                        if error == 0.0 {
                            // Exact FD: prune every B ∈ R∖X from C⁺(X).
                            *entry &= x;
                        }
                    }
                }
            }
            // prune
            level.retain(|x| *cplus.get(x).unwrap_or(&0) != 0);
        }

        if depth > config.max_lhs {
            break;
        }

        // --- generate next level (prefix-block join + subset check) ---
        let current: HashSet<AttrSet> = level.iter().copied().collect();
        let mut next: Vec<AttrSet> = Vec::new();
        let mut seen: HashSet<AttrSet> = HashSet::new();
        let sorted_level = {
            let mut l = level.clone();
            l.sort_unstable();
            l
        };
        for (i, &x) in sorted_level.iter().enumerate() {
            for &y in &sorted_level[i + 1..] {
                let union = x | y;
                if (union.count_ones() as usize) != depth + 1 || seen.contains(&union) {
                    continue;
                }
                // All |union|-1 subsets must be in the current level.
                let ok = set_members(union).iter().all(|&a| current.contains(&(union & !(1 << a))));
                if !ok {
                    continue;
                }
                seen.insert(union);
                next.push(union);
                total_candidates += 1;
                if total_candidates > config.max_candidates {
                    return Err(BaselineError::ResourceExhausted {
                        candidates: total_candidates,
                        budget: config.max_candidates,
                    });
                }
                // Partition product and C⁺ via intersection of parents.
                let px = partitions.get(&x).expect("level partition");
                let py = partitions.get(&y).expect("level partition");
                partitions.insert(union, px.product(py, n));
                let c = set_members(union)
                    .iter()
                    .map(|&a| *cplus.get(&(union & !(1 << a))).unwrap_or(&0))
                    .fold(full, |acc, s| acc & s);
                cplus.insert(union, c);
            }
        }
        if next.is_empty() {
            break;
        }
        level = next;
    }

    Ok(fds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_basics() {
        let p = Partition::from_codes(&[0, 0, 1, 1, 2]);
        assert_eq!(p.classes.len(), 2); // singleton stripped
        assert_eq!(p.rows, 4);
    }

    #[test]
    fn partition_product() {
        let a = Partition::from_codes(&[0, 0, 0, 1, 1, 1]);
        let b = Partition::from_codes(&[0, 0, 1, 1, 0, 0]);
        let prod = a.product(&b, 6);
        // classes: {0,1}, {4,5}; row 2 and 3 become singletons.
        assert_eq!(prod.classes.len(), 2);
        assert_eq!(prod.rows, 4);
    }

    #[test]
    fn discovers_exact_fd() {
        // b = f(a), c random-ish.
        let t = Table::from_csv_str("a,b,c\n0,x,0\n0,x,1\n1,y,0\n1,y,1\n2,x,0\n2,x,1\n").unwrap();
        let fds = tane_discover(&t, &TaneConfig::default()).unwrap();
        assert!(fds.contains(&Fd::new(vec![0], 1)), "a→b missing from {fds:?}");
        assert!(!fds.contains(&Fd::new(vec![0], 2)), "a→c is not an FD");
    }

    #[test]
    fn approximate_fd_with_epsilon() {
        // a→b holds except one row out of 10 covered rows.
        let t =
            Table::from_csv_str("a,b\n0,x\n0,x\n0,x\n0,x\n0,z\n1,y\n1,y\n1,y\n1,y\n1,y\n").unwrap();
        let strict = tane_discover(&t, &TaneConfig { epsilon: 0.0, ..Default::default() }).unwrap();
        // a→b has one violating row, so it needs ε ≥ 0.1 (note b→a *does*
        // hold exactly here: z only ever co-occurs with a=0).
        assert!(!strict.contains(&Fd::new(vec![0], 1)));
        assert!(strict.contains(&Fd::new(vec![1], 0)));
        let loose = tane_discover(&t, &TaneConfig { epsilon: 0.15, ..Default::default() }).unwrap();
        assert!(loose.contains(&Fd::new(vec![0], 1)));
    }

    #[test]
    fn discovers_composite_lhs() {
        // c = XOR(a, b): only {a,b} → c.
        let t =
            Table::from_csv_str("a,b,c\n0,0,0\n0,0,0\n0,1,1\n0,1,1\n1,0,1\n1,0,1\n1,1,0\n1,1,0\n")
                .unwrap();
        let fds = tane_discover(&t, &TaneConfig { epsilon: 0.0, ..Default::default() }).unwrap();
        assert!(fds.contains(&Fd::new(vec![0, 1], 2)), "{fds:?}");
        assert!(!fds.contains(&Fd::new(vec![0], 2)));
    }

    #[test]
    fn minimality_pruning() {
        // b = f(a) exactly; {a,c} → b must not be emitted (non-minimal).
        let t = Table::from_csv_str("a,b,c\n0,x,0\n0,x,1\n1,y,0\n1,y,1\n").unwrap();
        let fds = tane_discover(&t, &TaneConfig { epsilon: 0.0, ..Default::default() }).unwrap();
        assert!(fds.contains(&Fd::new(vec![0], 1)));
        assert!(!fds.iter().any(|fd| fd.rhs == 1 && fd.lhs.len() > 1), "{fds:?}");
    }

    #[test]
    fn budget_exhaustion() {
        // 12 attributes of noise: level 2 already exceeds a budget of 20.
        let mut csv = (0..12).map(|i| format!("a{i}")).collect::<Vec<_>>().join(",");
        csv.push('\n');
        for r in 0..20 {
            let row: Vec<String> = (0..12).map(|c| ((r * 7 + c * 3) % 5).to_string()).collect();
            csv.push_str(&(row.join(",") + "\n"));
        }
        let t = Table::from_csv_str(&csv).unwrap();
        let out = tane_discover(&t, &TaneConfig { max_candidates: 20, ..Default::default() });
        assert!(matches!(out, Err(BaselineError::ResourceExhausted { .. })));
    }

    #[test]
    fn empty_table() {
        let t = Table::from_csv_str("a,b\n").unwrap();
        assert_eq!(tane_discover(&t, &TaneConfig::default()).unwrap(), Vec::new());
    }
}
