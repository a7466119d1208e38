//! CART regression trees ("DT" — Dopia's default model).
//!
//! Splits greedily minimize the summed squared error of the two children
//! (variance reduction). Nodes are stored in a flat arena so inference is a
//! tight loop — important because Dopia evaluates the model for all 44 DoP
//! configurations on every kernel launch.
//!
//! # Fitting by rank
//!
//! No node sorts feature values. Once per fit, every feature column
//! becomes a sorted table of its distinct values plus a dense `u32` rank
//! per row (`-0.0` and `0.0` share a rank: they compare equal).
//! Each node keeps its rows in increasing row order. For every candidate
//! feature, the node's current order is counting-sorted by that feature's
//! rank, stably. Splits are scored only where a rank group starts, from
//! running sums of `y` and `y²` taken in the sorted order; a feature that
//! is constant over the node is skipped. The threshold is the midpoint of
//! the two adjacent distinct values, and rows go left when
//! `x <= threshold`.
//!
//! The fit is exact: it builds bit for bit the tree that re-sorting the
//! node's rows per feature with a stable comparison sort builds. Each sort
//! starts from the order the previous candidate feature left, so feature `f`
//! is scanned in lexicographic order of (`x_f`, the previously visited
//! features from the latest back, row index) either way. The running sums
//! therefore add the same values in the same order, and every split,
//! threshold and leaf value comes out the same. The unit tests hold the fit
//! to such a comparison-sort oracle.

use crate::dataset::Dataset;
use crate::Regressor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters for tree construction.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Each child must keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Consider only this many randomly-chosen features per split
    /// (`None` = all features; `Some` is used by random forests).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 14,
            min_samples_split: 8,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

/// Sentinel in [`DecisionTree::feature`] marking a leaf node.
const LEAF: u32 = u32::MAX;

/// A fitted regression tree in struct-of-arrays layout: four parallel
/// arrays indexed by node id instead of a `Vec<enum>`. Inference then
/// walks plain dense arrays — no discriminant match, half the memory
/// traffic per node — which matters because every launch evaluates the
/// tree 44 times (once per DoP configuration).
#[derive(Debug, Clone, Default)]
pub struct DecisionTree {
    /// Split feature index, or [`LEAF`].
    feature: Vec<u32>,
    /// Split threshold for splits; predicted value for leaves.
    value: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
}

impl DecisionTree {
    /// Fit with deterministic behaviour (feature subsampling, if requested,
    /// is seeded).
    pub fn fit(data: &Dataset, params: &TreeParams) -> Self {
        Self::fit_seeded(data, params, 0)
    }

    /// Fit with an explicit seed for feature subsampling.
    ///
    /// Panics on an empty dataset or a non-finite feature value.
    pub fn fit_seeded(data: &Dataset, params: &TreeParams, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let mut fit = Fit::new(data, params, seed);
        fit.build(0, data.len(), 0);
        fit.tree
    }

    /// Number of nodes (leaves + splits).
    pub fn node_count(&self) -> usize {
        self.feature.len()
    }

    /// Tree depth (longest root-to-leaf path, 1 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_at(t: &DecisionTree, i: usize) -> usize {
            if t.feature[i] == LEAF {
                1
            } else {
                1 + depth_at(t, t.left[i] as usize).max(depth_at(t, t.right[i] as usize))
            }
        }
        if self.feature.is_empty() {
            0
        } else {
            depth_at(self, 0)
        }
    }

    /// Append a leaf node, returning its index.
    fn push_leaf(&mut self, value: f64) -> usize {
        self.feature.push(LEAF);
        self.value.push(value);
        self.left.push(0);
        self.right.push(0);
        self.feature.len() - 1
    }

    /// Turn the leaf `node` into a split.
    fn set_split(
        &mut self,
        node: usize,
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    ) {
        self.feature[node] = feature as u32;
        self.value[node] = threshold;
        self.left[node] = left as u32;
        self.right[node] = right as u32;
    }
}

/// Every feature column as dense ranks, built once per fit.
struct Ranks {
    rows: usize,
    /// `rank[f * rows + i]` indexes row `i`'s value in `values[f]`.
    rank: Vec<u32>,
    /// Per feature, its distinct values in increasing order.
    values: Vec<Vec<f64>>,
}

impl Ranks {
    fn new(data: &Dataset) -> Self {
        let (rows, dims) = (data.len(), data.dims());
        assert!(u32::try_from(rows).is_ok(), "too many rows for a tree fit");
        let mut rank = Vec::with_capacity(rows * dims);
        let mut values = Vec::with_capacity(dims);
        let mut distinct = Vec::with_capacity(rows);
        for f in 0..dims {
            distinct.clear();
            distinct.extend(data.rows().iter().map(|r| r[f]));
            assert!(
                distinct.iter().all(|v| v.is_finite()),
                "feature {} has a non-finite value",
                f
            );
            // Training rows come in runs of equal values (a workload's 44
            // rows share its code features): drop the runs before sorting,
            // and look a rank up once per run.
            distinct.dedup_by(|a, b| a == b);
            distinct.sort_unstable_by(f64::total_cmp);
            distinct.dedup_by(|a, b| a == b); // merges -0.0 and 0.0
            let mut last = (f64::NAN, 0);
            rank.extend(data.rows().iter().map(|r| {
                if r[f] != last.0 {
                    last = (r[f], distinct.partition_point(|&v| v < r[f]) as u32);
                }
                last.1
            }));
            values.push(distinct.clone());
        }
        Ranks { rows, rank, values }
    }

    /// Feature `f`'s per-row ranks.
    fn column(&self, f: usize) -> &[u32] {
        &self.rank[f * self.rows..(f + 1) * self.rows]
    }
}

/// One run of equal rank in a node's sorted order, with the running sums
/// of the targets up to its end.
#[derive(Clone, Copy, Default)]
struct Group {
    /// Position one past the group's last row.
    end: usize,
    rank: usize,
    sum: f64,
    sq: f64,
}

/// The state of one fit. Every scratch buffer is allocated here, once; only
/// the comparison sort in [`Fit::sort_by_rank`] may allocate its own.
struct Fit<'a> {
    targets: &'a [f64],
    params: &'a TreeParams,
    ranks: Ranks,
    rng: StdRng,
    /// Each node owns a contiguous range, in increasing row order.
    rows: Vec<u32>,
    /// The node's rows in the order the last visited feature left them.
    order: Vec<u32>,
    /// Counting-sort output; swapped with `order` after each sort.
    sorted: Vec<u32>,
    /// Rows that go right while a node's range is partitioned.
    spill: Vec<u32>,
    /// Per-rank row counts, then scatter offsets, of the feature being sorted.
    counts: Vec<u32>,
    groups: Vec<Group>,
    features: Vec<usize>,
    tree: DecisionTree,
}

impl<'a> Fit<'a> {
    fn new(data: &'a Dataset, params: &'a TreeParams, seed: u64) -> Self {
        let n = data.len();
        let ranks = Ranks::new(data);
        let max_distinct = ranks.values.iter().map(Vec::len).max().unwrap_or(0);
        Fit {
            targets: data.targets(),
            params,
            rng: StdRng::seed_from_u64(seed),
            rows: (0..n as u32).collect(),
            order: vec![0; n],
            sorted: vec![0; n],
            spill: Vec::with_capacity(n),
            counts: vec![0; max_distinct],
            groups: Vec::with_capacity(max_distinct),
            features: Vec::with_capacity(ranks.values.len()),
            ranks,
            tree: DecisionTree::default(),
        }
    }

    /// Build the subtree over `rows[lo..hi]`, returning its node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let n = hi - lo;
        let y = self.targets;
        let node_rows = &self.rows[lo..hi];
        let mean = node_rows.iter().map(|&i| y[i as usize]).sum::<f64>() / n as f64;
        let sse: f64 = node_rows
            .iter()
            .map(|&i| {
                let d = y[i as usize] - mean;
                d * d
            })
            .sum();

        let params = self.params;
        if depth >= params.max_depth || n < params.min_samples_split || sse < 1e-12 {
            return self.tree.push_leaf(mean);
        }

        // Candidate features.
        let d = self.ranks.values.len();
        self.features.clear();
        self.features.extend(0..d);
        if let Some(k) = params.max_features {
            self.features.shuffle(&mut self.rng);
            self.features.truncate(k.clamp(1, d));
        }

        // Best split across candidate features: maximize SSE reduction.
        let mut best: Option<(f64, usize, f64)> = None; // (child_sse, feature, threshold)
        self.order[..n].copy_from_slice(&self.rows[lo..hi]);
        for c in 0..self.features.len() {
            let f = self.features[c];
            if self.sort_by_rank(f, n) {
                self.scan_splits(f, n, &mut best);
            }
        }

        let Some((child_sse, feature, threshold)) = best else {
            return self.tree.push_leaf(mean);
        };
        if sse - child_sse < 1e-12 {
            return self.tree.push_leaf(mean);
        }

        // Stable partition of the node's range: left rows compact in place,
        // right rows follow from the spill buffer.
        let (rank, values) = (self.ranks.column(feature), &self.ranks.values[feature]);
        let mut mid = lo;
        self.spill.clear();
        for j in lo..hi {
            let i = self.rows[j];
            if values[rank[i as usize] as usize] <= threshold {
                self.rows[mid] = i;
                mid += 1;
            } else {
                self.spill.push(i);
            }
        }
        self.rows[mid..hi].copy_from_slice(&self.spill);
        debug_assert!(mid > lo && mid < hi);

        let node = self.tree.push_leaf(mean); // placeholder, patched below
        let l = self.build(lo, mid, depth + 1);
        let r = self.build(mid, hi, depth + 1);
        self.tree.set_split(node, feature, threshold, l, r);
        node
    }

    /// Stably sort `order[..n]` by feature `f` and record its rank groups
    /// in `groups`. Returns false, leaving the order as it was, when the
    /// feature is constant over the node.
    fn sort_by_rank(&mut self, f: usize, n: usize) -> bool {
        let rank = self.ranks.column(f);
        let distinct = self.ranks.values[f].len();
        self.groups.clear();
        if distinct <= n {
            // Counting sort: O(n + distinct).
            let counts = &mut self.counts[..distinct];
            counts.fill(0);
            for &i in &self.order[..n] {
                counts[rank[i as usize] as usize] += 1;
            }
            let mut end = 0;
            for (r, count) in counts.iter_mut().enumerate() {
                if *count > 0 {
                    let start = end;
                    end += *count as usize;
                    self.groups.push(Group {
                        end,
                        rank: r,
                        ..Group::default()
                    });
                    *count = start as u32;
                }
            }
            if self.groups.len() < 2 {
                return false;
            }
            for &i in &self.order[..n] {
                let slot = &mut counts[rank[i as usize] as usize];
                self.sorted[*slot as usize] = i;
                *slot += 1;
            }
            std::mem::swap(&mut self.order, &mut self.sorted);
        } else {
            // More distinct values than rows: a stable comparison sort on
            // the ranks is cheaper than clearing the counts.
            let order = &mut self.order[..n];
            order.sort_by_key(|&i| rank[i as usize]);
            for p in 1..=n {
                let r = rank[order[p - 1] as usize];
                if p == n || rank[order[p] as usize] != r {
                    self.groups.push(Group {
                        end: p,
                        rank: r as usize,
                        ..Group::default()
                    });
                }
            }
            if self.groups.len() < 2 {
                return false;
            }
        }
        true
    }

    /// Score every split of the sorted order at a rank-group start and keep
    /// the first one with the lowest summed child SSE in `best`.
    fn scan_splits(&mut self, f: usize, n: usize, best: &mut Option<(f64, usize, f64)>) {
        let y = self.targets;
        // Running sums of the targets up to each group's end. The sums
        // over the whole node are the last ones: the same additions in the
        // same order as a separate total.
        let (mut sum, mut sq, mut start) = (0.0, 0.0, 0);
        for g in self.groups.iter_mut() {
            for &i in &self.order[start..g.end] {
                let v = y[i as usize];
                sum += v;
                sq += v * v;
            }
            (g.sum, g.sq, start) = (sum, sq, g.end);
        }
        let (total_sum, total_sq) = (sum, sq);

        let values = &self.ranks.values[f];
        let min_leaf = self.params.min_samples_leaf;
        for pair in self.groups.windows(2) {
            let (left, next) = (pair[0], pair[1]);
            let split_at = left.end;
            if split_at < min_leaf || n - split_at < min_leaf {
                continue;
            }
            let nl = split_at as f64;
            let nr = (n - split_at) as f64;
            let right_sum = total_sum - left.sum;
            let right_sq = total_sq - left.sq;
            let child_sse =
                (left.sq - left.sum * left.sum / nl) + (right_sq - right_sum * right_sum / nr);
            if best.is_none_or(|(b, _, _)| child_sse < b) {
                *best = Some((child_sse, f, 0.5 * (values[left.rank] + values[next.rank])));
            }
        }
    }
}

impl DecisionTree {
    /// Serialize to the line-oriented model format (see [`crate::io`]):
    /// one node per line, `L <value>` or `S <feature> <threshold> <left> <right>`.
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = vec![format!("nodes {}", self.node_count())];
        for i in 0..self.node_count() {
            if self.feature[i] == LEAF {
                lines.push(format!("L {:e}", self.value[i]));
            } else {
                lines.push(format!(
                    "S {} {:e} {} {}",
                    self.feature[i], self.value[i], self.left[i], self.right[i]
                ));
            }
        }
        lines
    }

    /// Parse the output of [`DecisionTree::to_lines`]; consumes exactly the
    /// lines it needs from the iterator.
    pub fn from_lines<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<DecisionTree, String> {
        let header = lines.next().ok_or("missing tree header")?;
        let count: usize = header
            .strip_prefix("nodes ")
            .ok_or_else(|| format!("bad tree header `{}`", header))?
            .parse()
            .map_err(|e| format!("bad node count: {}", e))?;
        let mut tree = DecisionTree::default();
        for _ in 0..count {
            let line = lines.next().ok_or("truncated tree")?;
            let mut f = line.split_whitespace();
            match f.next() {
                Some("L") => {
                    let value = f.next().ok_or("leaf missing value")?
                        .parse().map_err(|e| format!("bad leaf: {}", e))?;
                    tree.push_leaf(value);
                }
                Some("S") => {
                    let parse = |x: Option<&str>, what: &str| -> Result<String, String> {
                        x.map(str::to_string).ok_or_else(|| format!("split missing {}", what))
                    };
                    let feature: u32 =
                        parse(f.next(), "feature")?.parse().map_err(|e| format!("{}", e))?;
                    let threshold = parse(f.next(), "threshold")?.parse().map_err(|e| format!("{}", e))?;
                    let left: u32 = parse(f.next(), "left")?.parse().map_err(|e| format!("{}", e))?;
                    let right: u32 = parse(f.next(), "right")?.parse().map_err(|e| format!("{}", e))?;
                    if feature == LEAF {
                        return Err("tree feature index out of range".into());
                    }
                    tree.feature.push(feature);
                    tree.value.push(threshold);
                    tree.left.push(left);
                    tree.right.push(right);
                }
                other => return Err(format!("bad node tag {:?}", other)),
            }
        }
        // Validate child indices so a corrupt file cannot cause panics or
        // endless loops at inference time. `to_lines` writes nodes in
        // pre-order, so every child comes after its parent.
        let n = tree.node_count();
        for i in 0..n {
            let child_ok = |c: u32| (c as usize) > i && (c as usize) < n;
            if tree.feature[i] != LEAF && !(child_ok(tree.left[i]) && child_ok(tree.right[i])) {
                return Err("tree child index out of range".into());
            }
        }
        if n == 0 {
            return Err("empty tree".into());
        }
        Ok(tree)
    }
}

impl Regressor for DecisionTree {
    fn predict(&self, features: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.value[i];
            }
            i = if features[f as usize] <= self.value[i] {
                self.left[i] as usize
            } else {
                self.right[i] as usize
            };
        }
    }

    fn min_features(&self) -> usize {
        self.feature
            .iter()
            .filter(|&&f| f != LEAF)
            .map(|&f| f as usize + 1)
            .max()
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "DT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// The comparison-sort CART fit that the rank-based fit replaced, kept
    /// verbatim as the oracle the fit must reproduce bit for bit.
    fn oracle_fit(data: &Dataset, params: &TreeParams, seed: u64) -> DecisionTree {
        fn build(
            tree: &mut DecisionTree,
            data: &Dataset,
            params: &TreeParams,
            indices: &mut [usize],
            depth: usize,
            rng: &mut StdRng,
        ) -> usize {
            let n = indices.len();
            let mean = indices.iter().map(|&i| data.target(i)).sum::<f64>() / n as f64;
            let sse: f64 = indices
                .iter()
                .map(|&i| {
                    let d = data.target(i) - mean;
                    d * d
                })
                .sum();
            if depth >= params.max_depth || n < params.min_samples_split || sse < 1e-12 {
                return tree.push_leaf(mean);
            }
            let d = data.dims();
            let mut features: Vec<usize> = (0..d).collect();
            if let Some(k) = params.max_features {
                features.shuffle(rng);
                features.truncate(k.clamp(1, d));
            }
            let mut best: Option<(f64, usize, f64)> = None;
            let mut sorted = indices.to_vec();
            for &f in &features {
                sorted.sort_by(|&a, &b| data.row(a)[f].partial_cmp(&data.row(b)[f]).unwrap());
                let mut left_sum = 0.0;
                let mut left_sq = 0.0;
                let total_sum: f64 = sorted.iter().map(|&i| data.target(i)).sum();
                let total_sq: f64 = sorted
                    .iter()
                    .map(|&i| data.target(i) * data.target(i))
                    .sum();
                for split_at in 1..n {
                    let y = data.target(sorted[split_at - 1]);
                    left_sum += y;
                    left_sq += y * y;
                    if split_at < params.min_samples_leaf || n - split_at < params.min_samples_leaf
                    {
                        continue;
                    }
                    let prev = data.row(sorted[split_at - 1])[f];
                    let next = data.row(sorted[split_at])[f];
                    if next <= prev {
                        continue;
                    }
                    let nl = split_at as f64;
                    let nr = (n - split_at) as f64;
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let child_sse = (left_sq - left_sum * left_sum / nl)
                        + (right_sq - right_sum * right_sum / nr);
                    if best.is_none_or(|(b, _, _)| child_sse < b) {
                        best = Some((child_sse, f, 0.5 * (prev + next)));
                    }
                }
            }
            let Some((child_sse, feature, threshold)) = best else {
                return tree.push_leaf(mean);
            };
            if sse - child_sse < 1e-12 {
                return tree.push_leaf(mean);
            }
            let (mut left, mut right): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| data.row(i)[feature] <= threshold);
            let node = tree.push_leaf(mean);
            let l = build(tree, data, params, &mut left, depth + 1, rng);
            let r = build(tree, data, params, &mut right, depth + 1, rng);
            tree.set_split(node, feature, threshold, l, r);
            node
        }
        let mut tree = DecisionTree::default();
        let mut indices: Vec<usize> = (0..data.len()).collect();
        build(
            &mut tree,
            data,
            params,
            &mut indices,
            0,
            &mut StdRng::seed_from_u64(seed),
        );
        tree
    }

    /// A dataset built to stress tie handling: every column draws from a
    /// small palette that includes both zeros, some columns are constant,
    /// and rows are often repeated verbatim.
    fn tie_heavy_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        const PALETTE: [f64; 8] = [-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 1e-300];
        let mut rng = StdRng::seed_from_u64(seed);
        let palette_len: Vec<usize> = (0..d).map(|_| rng.gen_range(1..=PALETTE.len())).collect();
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let row = match rows.last() {
                Some(prev) if rng.gen_range(0..4usize) == 0 => prev.clone(),
                _ => palette_len
                    .iter()
                    .map(|&k| PALETTE[rng.gen_range(0..k)])
                    .collect(),
            };
            ys.push([0.1, 0.7, 0.3, 1.0, -0.2, 0.3][rng.gen_range(0..6usize)] + row[0] * 0.25);
            rows.push(row);
        }
        Dataset::new(rows, ys).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The rank-based fit builds exactly the comparison-sort tree.
        #[test]
        fn rank_fit_matches_comparison_sort_oracle(
            n in 1usize..70,
            d in 1usize..6,
            data_seed in any::<u64>(),
            max_depth in 1usize..9,
            min_samples_split in 0usize..10,
            min_samples_leaf in 0usize..6,
            max_features in 0usize..7,
            fit_seed in 0u64..8,
        ) {
            let data = tie_heavy_dataset(n, d, data_seed);
            let params = TreeParams {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                max_features: (max_features > 0).then_some(max_features),
            };
            prop_assert_eq!(
                DecisionTree::fit_seeded(&data, &params, fit_seed).to_lines(),
                oracle_fit(&data, &params, fit_seed).to_lines()
            );
        }
    }

    #[test]
    fn rank_fit_matches_oracle_on_continuous_features() {
        // Distinct values outnumber the rows of most nodes here, so this
        // exercises the comparison-sort path of `sort_by_rank`.
        let data = grid_dataset(|x, z| (x * 6.0).sin() + z);
        for (params, seed) in [
            (TreeParams::default(), 0),
            (
                TreeParams {
                    max_features: Some(1),
                    ..Default::default()
                },
                3,
            ),
        ] {
            assert_eq!(
                DecisionTree::fit_seeded(&data, &params, seed).to_lines(),
                oracle_fit(&data, &params, seed).to_lines()
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn fit_rejects_non_finite_features() {
        let mut data = Dataset::empty();
        data.push(vec![1.0], 1.0);
        data.push(vec![f64::NAN], 2.0);
        DecisionTree::fit(&data, &TreeParams::default());
    }

    #[test]
    fn from_lines_rejects_backward_children() {
        for text in ["nodes 1\nS 0 5e-1 0 0", "nodes 3\nL 1\nS 0 5e-1 0 2\nL 2"] {
            assert!(
                DecisionTree::from_lines(&mut text.lines()).is_err(),
                "{}",
                text
            );
        }
        let ok = "nodes 3\nS 4 5e-1 1 2\nL 1\nL 2";
        let tree = DecisionTree::from_lines(&mut ok.lines()).unwrap();
        assert_eq!(tree.min_features(), 5);
        assert_eq!(tree.predict(&[0.0, 0.0, 0.0, 0.0, 0.7]), 2.0);
    }

    fn grid_dataset<F: Fn(f64, f64) -> f64>(f: F) -> Dataset {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                let (x, z) = (i as f64 / 40.0, j as f64 / 40.0);
                rows.push(vec![x, z]);
                ys.push(f(x, z));
            }
        }
        Dataset::new(rows, ys).unwrap()
    }

    #[test]
    fn fits_piecewise_constant_exactly() {
        let data = grid_dataset(|x, z| {
            if x > 0.5 {
                if z > 0.5 {
                    3.0
                } else {
                    2.0
                }
            } else {
                1.0
            }
        });
        let t = DecisionTree::fit(&data, &TreeParams::default());
        assert!((t.predict(&[0.9, 0.9]) - 3.0).abs() < 1e-9);
        assert!((t.predict(&[0.9, 0.1]) - 2.0).abs() < 1e-9);
        assert!((t.predict(&[0.1, 0.9]) - 1.0).abs() < 1e-9);
        // Such a function needs very few splits.
        assert!(t.node_count() < 20, "nodes = {}", t.node_count());
    }

    #[test]
    fn approximates_smooth_function() {
        let data = grid_dataset(|x, z| (x * 6.0).sin() + z);
        let t = DecisionTree::fit(&data, &TreeParams::default());
        let mut err = 0.0;
        let mut count = 0;
        for i in 0..20 {
            for j in 0..20 {
                let (x, z) = (i as f64 / 20.0 + 0.013, j as f64 / 20.0 + 0.017);
                let y = (x * 6.0).sin() + z;
                err += (t.predict(&[x, z]) - y).abs();
                count += 1;
            }
        }
        let mean_err = err / count as f64;
        assert!(mean_err < 0.1, "MAE = {}", mean_err);
    }

    #[test]
    fn respects_max_depth() {
        let data = grid_dataset(|x, z| x * z);
        let t = DecisionTree::fit(
            &data,
            &TreeParams { max_depth: 3, ..Default::default() },
        );
        assert!(t.depth() <= 4); // root + 3
    }

    #[test]
    fn single_sample_is_a_leaf() {
        let data = Dataset::new(vec![vec![1.0]], vec![42.0]).unwrap();
        let t = DecisionTree::fit(&data, &TreeParams::default());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[123.0]), 42.0);
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let data = Dataset::new(rows, vec![7.0; 100]).unwrap();
        let t = DecisionTree::fit(&data, &TreeParams::default());
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = grid_dataset(|x, z| x + z * z);
        let params = TreeParams { max_features: Some(1), ..Default::default() };
        let a = DecisionTree::fit_seeded(&data, &params, 9);
        let b = DecisionTree::fit_seeded(&data, &params, 9);
        assert_eq!(a.predict(&[0.3, 0.7]), b.predict(&[0.3, 0.7]));
        assert_eq!(a.node_count(), b.node_count());
    }
}
