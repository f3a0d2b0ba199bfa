//! Information-gain decision trees over categorical features.

use crate::features::FeatureSpace;
use crate::Classifier;
#[cfg(test)]
use guardrail_table::Row;
use guardrail_table::{Table, Value};

/// Tree growth limits.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer rows than this.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 8, min_samples_split: 8 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        label: u32,
    },
    Split {
        feature: usize,
        /// One child per training-time category of the feature.
        children: Vec<Node>,
        /// Prediction for missing/unseen values of the feature.
        fallback: u32,
    },
}

/// An ID3-style multiway decision tree: each split partitions on every
/// category of the highest-information-gain feature. Unknown or missing
/// feature values route to the node's majority label.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    space: FeatureSpace,
    root: Node,
}

impl DecisionTree {
    /// Fits a tree on `table` with labels in `label_col`.
    pub fn fit(table: &Table, label_col: usize, config: TreeConfig) -> Self {
        let space = FeatureSpace::fit(table, label_col);
        let (feats, labels) = space.encode_table(table);
        let indices: Vec<usize> = (0..labels.len()).collect();
        let classes = space.num_classes().max(1);
        let root = build(&space, &feats, &labels, &indices, classes, config, 0);
        Self { space, root }
    }

    /// Predicts a label code from encoded features.
    pub fn predict_codes(&self, feats: &[Option<u32>]) -> u32 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::Split { feature, children, fallback } => match feats[*feature] {
                    Some(code) if (code as usize) < children.len() => {
                        node = &children[code as usize];
                    }
                    _ => return *fallback,
                },
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn predict_labels(&self, table: &Table, rows: &[usize]) -> Vec<u32> {
        self.space.predict_labels(table, rows, |feats| self.predict_codes(feats))
    }

    fn label_value(&self, code: u32) -> Value {
        self.space.label_value(code)
    }

    #[cfg(test)]
    fn predict_row(&self, row: &Row) -> Value {
        let feats = self.space.encode_row(row);
        self.space.label_value(self.predict_codes(&feats))
    }
}

fn entropy(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.log2();
        }
    }
    h
}

fn class_counts(labels: &[u32], indices: &[usize], classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; classes];
    for &i in indices {
        counts[labels[i] as usize] += 1;
    }
    counts
}

fn build(
    space: &FeatureSpace,
    feats: &[Vec<Option<u32>>],
    labels: &[u32],
    indices: &[usize],
    classes: usize,
    config: TreeConfig,
    depth: usize,
) -> Node {
    let counts = class_counts(labels, indices, classes);
    let majority = counts
        .iter()
        .enumerate()
        .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    let node_entropy = entropy(&counts, indices.len());

    if depth >= config.max_depth || indices.len() < config.min_samples_split || node_entropy == 0.0
    {
        return Node::Leaf { label: majority };
    }

    // Pick the feature with the highest information gain. Zero-gain splits
    // are still allowed when they partition the node into several non-empty
    // buckets: XOR-like concepts have zero *marginal* gain on every feature
    // yet become separable one level down (the classic ID3 blind spot).
    let mut best: Option<(usize, f64)> = None;
    // `feats` is indexed row-major, so the feature index cannot drive the
    // iteration directly.
    #[allow(clippy::needless_range_loop)]
    for f in 0..space.num_features() {
        let card = space.card(f);
        if card < 2 {
            continue;
        }
        let mut bucket_counts = vec![vec![0usize; classes]; card];
        let mut bucket_totals = vec![0usize; card];
        let mut known = 0usize;
        for &i in indices {
            if let Some(code) = feats[i][f] {
                bucket_counts[code as usize][labels[i] as usize] += 1;
                bucket_totals[code as usize] += 1;
                known += 1;
            }
        }
        if known == 0 {
            continue;
        }
        // A split must strictly shrink every branch, or recursion stalls.
        let nonempty = bucket_totals.iter().filter(|&&b| b > 0).count();
        if nonempty < 2 {
            continue;
        }
        let mut cond = 0.0;
        for (bc, &bt) in bucket_counts.iter().zip(&bucket_totals) {
            if bt > 0 {
                cond += (bt as f64 / known as f64) * entropy(bc, bt);
            }
        }
        let gain = node_entropy - cond;
        if best.map(|(_, g)| gain > g).unwrap_or(true) {
            best = Some((f, gain));
        }
    }

    let Some((feature, _)) = best else {
        return Node::Leaf { label: majority };
    };

    let card = space.card(feature);
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); card];
    for &i in indices {
        if let Some(code) = feats[i][feature] {
            partitions[code as usize].push(i);
        }
    }
    let children = partitions
        .iter()
        .map(|part| {
            if part.is_empty() {
                Node::Leaf { label: majority }
            } else {
                build(space, feats, labels, part, classes, config, depth + 1)
            }
        })
        .collect();
    Node::Split { feature, children, fallback: majority }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::accuracy;

    /// Depth of the tree under `n` (0 for a single leaf).
    fn depth(n: &Node) -> usize {
        match n {
            Node::Leaf { .. } => 0,
            Node::Split { children, .. } => 1 + children.iter().map(depth).max().unwrap_or(0),
        }
    }

    /// label = XOR(a, b): no single feature suffices — the naive-Bayes
    /// killer, a depth-2 tree handles it.
    fn xor_table(n: usize) -> Table {
        let mut csv = String::from("a,b,label\n");
        for i in 0..n {
            let a = i % 2;
            let b = (i / 2) % 2;
            csv.push_str(&format!("{a},{b},{}\n", a ^ b));
        }
        Table::from_csv_str(&csv).unwrap()
    }

    #[test]
    fn learns_xor() {
        let t = xor_table(400);
        let tree = DecisionTree::fit(&t, 2, TreeConfig::default());
        assert!(accuracy(&tree, &t, 2) > 0.99);
        assert!(depth(&tree.root) >= 2);
    }

    #[test]
    fn depth_limit_respected() {
        let t = xor_table(400);
        let stump = DecisionTree::fit(&t, 2, TreeConfig { max_depth: 1, min_samples_split: 2 });
        assert!(depth(&stump.root) <= 1);
        // A depth-1 tree cannot learn XOR.
        assert!(accuracy(&stump, &t, 2) < 0.75);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let t = Table::from_csv_str("a,label\n0,x\n0,x\n1,x\n1,x\n").unwrap();
        let tree = DecisionTree::fit(&t, 1, TreeConfig::default());
        assert_eq!(depth(&tree.root), 0);
        assert!(accuracy(&tree, &t, 1) == 1.0);
    }

    #[test]
    fn unseen_values_fall_back() {
        let t = xor_table(200);
        let tree = DecisionTree::fit(&t, 2, TreeConfig::default());
        let dirty = Table::from_csv_str("a,b,label\ngibbon,1,?\n").unwrap();
        // No panic; some valid class comes out.
        let p = tree.predict_row(&dirty.row_owned(0).unwrap());
        assert!(p == Value::Int(0) || p == Value::Int(1));
    }

    #[test]
    fn corruption_flips_predictions() {
        let t = xor_table(400);
        let tree = DecisionTree::fit(&t, 2, TreeConfig::default());
        let clean = Table::from_csv_str("a,b,label\n0,1,?\n").unwrap();
        let dirty = Table::from_csv_str("a,b,label\n1,1,?\n").unwrap();
        assert_ne!(
            tree.predict_row(&clean.row_owned(0).unwrap()),
            tree.predict_row(&dirty.row_owned(0).unwrap())
        );
    }
}
