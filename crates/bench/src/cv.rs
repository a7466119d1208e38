//! Workload-level cross-validation (paper Section 9.2/9.3).
//!
//! The paper's 64-fold CV splits the 1,224 *workloads* — all 44
//! configurations of a workload stay together on one side, otherwise the
//! model would see the very workload it is being tested on. For each
//! held-out workload we let the trained model pick a configuration via the
//! production code path (sweep all 44) and score the pick against the
//! exhaustive oracle.

use dopia_core::configs::DopPoint;
use dopia_core::oracle;
use dopia_core::training::{dataset_from_records, WorkloadRecord};
use dopia_core::PerfModel;
use ml::ModelKind;
use std::time::Instant;

/// Outcome of one model family's cross-validation.
#[derive(Debug, Clone)]
pub struct CvOutcome {
    pub kind: ModelKind,
    pub folds: usize,
    /// Chosen configuration index per workload (aligned with the record
    /// order passed in).
    pub picks: Vec<usize>,
    /// Normalized performance of each pick vs the oracle.
    pub perf: Vec<f64>,
    /// Normalized Euclidean distance of each pick to the oracle's config.
    pub euclid: Vec<f64>,
    /// Exactly-correct classifications.
    pub correct: usize,
    /// Mean wall-clock time of one 44-config model sweep (the per-launch
    /// inference overhead).
    pub inference_s: f64,
    /// Mean wall-clock training time per fold.
    pub train_s: f64,
}

/// Run workload-level K-fold CV for one model family.
pub fn workload_cv(
    records: &[WorkloadRecord],
    space: &[DopPoint],
    kind: ModelKind,
    folds: usize,
    seed: u64,
) -> CvOutcome {
    assert!(folds >= 2 && records.len() >= folds, "bad fold count");
    // Seeded shuffle of workload indices.
    let order = {
        use rand_shuffle::shuffled;
        shuffled(records.len(), seed)
    };
    let n = records.len();
    let mut picks = vec![0usize; n];
    let mut perf = vec![0.0f64; n];
    let mut euclid = vec![0.0f64; n];
    let mut correct = 0usize;
    let mut inference_total = 0.0f64;
    let mut train_total = 0.0f64;

    for f in 0..folds {
        let lo = n * f / folds;
        let hi = n * (f + 1) / folds;
        let dataset = dataset_from_records(
            order[..lo].iter().chain(&order[hi..]).map(|&i| &records[i]),
            space,
        );
        let t0 = Instant::now();
        let model = PerfModel::train(kind, &dataset, seed ^ f as u64);
        train_total += t0.elapsed().as_secs_f64();

        for &i in &order[lo..hi] {
            let r = &records[i];
            let sel = model.select_config(
                r.code,
                r.work_dim,
                r.global_size,
                r.local_size,
                space,
            );
            inference_total += sel.inference_s;
            picks[i] = sel.index;
            perf[i] = r.normalized_perf(sel.index);
            euclid[i] = oracle::euclidean_error(r, space, sel.index);
            if sel.index == r.best_index {
                correct += 1;
            }
        }
    }

    CvOutcome {
        kind,
        folds,
        picks,
        perf,
        euclid,
        correct,
        inference_s: inference_total / n as f64,
        train_s: train_total / folds as f64,
    }
}

/// Minimal deterministic Fisher-Yates (avoids dragging `rand` into every
/// binary).
mod rand_shuffle {
    pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in (1..n).rev() {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let j = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn shuffle_is_permutation_and_seeded() {
            let a = shuffled(100, 1);
            let b = shuffled(100, 1);
            let c = shuffled(100, 2);
            assert_eq!(a, b);
            assert_ne!(a, c);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dopia_core::configs::config_space;
    use dopia_core::training::{run_grid, TrainingOptions};
    use sim::Engine;
    use workloads::synthetic::SyntheticParams;

    #[test]
    fn cv_scores_every_workload_once() {
        let engine = Engine::kaveri();
        let space = config_space(&engine.platform);
        let grid: Vec<SyntheticParams> =
            workloads::synthetic::training_grid().into_iter().step_by(60).collect();
        let records = run_grid(&engine, &grid, &space, &TrainingOptions::default());
        let out = workload_cv(&records, &space, ModelKind::Dt, 4, 1);
        assert_eq!(out.perf.len(), records.len());
        assert!(out.perf.iter().all(|&p| p > 0.0 && p <= 1.0));
        assert!(out.euclid.iter().all(|&e| (0.0..=1.0).contains(&e)));
        assert!(out.correct <= records.len());
        assert!(out.inference_s > 0.0);
    }
}
