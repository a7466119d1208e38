//! Bagged random forests ("RF").
//!
//! Standard Breiman recipe: each tree trains on a bootstrap resample of the
//! data with per-split feature subsampling; predictions average the trees.
//! The paper finds RF slightly more accurate than a single DT but with
//! proportionally higher inference cost (Fig. 10) — which is exactly what
//! averaging `n_trees` flat-arena trees produces here.

use crate::dataset::Dataset;
use crate::dtree::{DecisionTree, TreeParams};
use crate::Regressor;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestParams {
    pub n_trees: usize,
    pub tree: TreeParams,
    /// Bootstrap sample size as a fraction of the dataset.
    pub sample_fraction: f64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 20,
            tree: TreeParams {
                // sqrt(d)-ish subsampling for d = 11 paper features.
                max_features: Some(4),
                ..TreeParams::default()
            },
            sample_fraction: 1.0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    pub fn fit(data: &Dataset, params: &ForestParams, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = data.len();
        let sample = ((n as f64 * params.sample_fraction) as usize).max(1);
        let trees = (0..params.n_trees)
            .map(|t| {
                let indices: Vec<usize> =
                    (0..sample).map(|_| rng.gen_range(0..n)).collect();
                let boot = data.select(&indices);
                DecisionTree::fit_seeded(&boot, &params.tree, seed ^ (t as u64 + 1))
            })
            .collect();
        RandomForest { trees }
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl RandomForest {
    /// Serialize (see [`crate::io`]).
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = vec![format!("trees {}", self.trees.len())];
        for t in &self.trees {
            lines.extend(t.to_lines());
        }
        lines
    }

    /// Parse the output of [`RandomForest::to_lines`].
    pub fn from_lines<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<RandomForest, String> {
        let header = lines.next().ok_or("missing forest header")?;
        let count: usize = header
            .strip_prefix("trees ")
            .ok_or_else(|| format!("bad forest header `{}`", header))?
            .parse()
            .map_err(|e| format!("bad tree count: {}", e))?;
        if count == 0 {
            return Err("empty forest".into());
        }
        let trees = (0..count)
            .map(|_| DecisionTree::from_lines(lines))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RandomForest { trees })
    }
}

impl Regressor for RandomForest {
    fn predict(&self, features: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(features)).sum::<f64>() / self.trees.len() as f64
    }

    fn min_features(&self) -> usize {
        self.trees
            .iter()
            .map(Regressor::min_features)
            .max()
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "RF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;

    fn noisy_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..600 {
            let x: f64 = rng.gen();
            let z: f64 = rng.gen();
            rows.push(vec![x, z]);
            ys.push((x * 4.0).sin() * z + rng.gen::<f64>() * 0.1);
        }
        Dataset::new(rows, ys).unwrap()
    }

    #[test]
    fn forest_beats_or_matches_single_tree_on_noise() {
        let train = noisy_dataset(1);
        let test = noisy_dataset(2);
        let tree = DecisionTree::fit(&train, &TreeParams::default());
        let forest = RandomForest::fit(&train, &ForestParams::default(), 7);
        let t_pred: Vec<f64> = test.rows().iter().map(|r| tree.predict(r)).collect();
        let f_pred: Vec<f64> = test.rows().iter().map(|r| forest.predict(r)).collect();
        let t_mse = mse(&t_pred, test.targets());
        let f_mse = mse(&f_pred, test.targets());
        assert!(
            f_mse <= t_mse * 1.05,
            "forest mse {} vs tree mse {}",
            f_mse,
            t_mse
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = noisy_dataset(3);
        let a = RandomForest::fit(&data, &ForestParams::default(), 11);
        let b = RandomForest::fit(&data, &ForestParams::default(), 11);
        assert_eq!(a.predict(&[0.5, 0.5]), b.predict(&[0.5, 0.5]));
        let c = RandomForest::fit(&data, &ForestParams::default(), 12);
        assert_ne!(a.predict(&[0.5, 0.5]), c.predict(&[0.5, 0.5]));
    }

    #[test]
    fn tree_count_respected() {
        let data = noisy_dataset(4);
        let f = RandomForest::fit(
            &data,
            &ForestParams { n_trees: 5, ..Default::default() },
            1,
        );
        assert_eq!(f.n_trees(), 5);
    }
}
