//! The performance model wrapper (paper Section 5.2 / 7).
//!
//! At launch time Dopia evaluates a pre-trained regressor — predicting
//! *normalized performance* (best time / time) — for every point of the
//! 44-configuration DoP space and picks the argmax. The wall-clock cost of
//! that sweep is measured and reported: the paper charges model-inference
//! overhead against Dopia in every end-to-end number (Fig. 13's overhead
//! bars).

use crate::configs::DopPoint;
use crate::features::{CodeFeatures, FeatureVector};
use ml::{Dataset, ModelKind, Regressor};
use std::time::Instant;

/// A trained performance model of one family.
pub struct PerfModel {
    kind: ModelKind,
    model: Box<dyn Regressor>,
}

impl std::fmt::Debug for PerfModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfModel").field("kind", &self.kind).finish()
    }
}

/// Outcome of one DoP selection.
#[derive(Debug, Clone, Copy)]
pub struct Selection {
    /// Index into the configuration space.
    pub index: usize,
    /// The chosen point.
    pub point: DopPoint,
    /// Predicted normalized performance at the chosen point (`NaN` when no
    /// usable prediction existed and the heuristic fallback was taken).
    pub predicted: f64,
    /// Measured wall-clock time of the full 44-point sweep (seconds) —
    /// the model-inference overhead charged to Dopia.
    pub inference_s: f64,
    /// Whether the point came from the heuristic fallback rather than the
    /// model (every prediction was NaN/∞/negative, or the kernel was
    /// degraded and the model never ran).
    pub fallback: bool,
}

impl PerfModel {
    /// Train a model of the given family on `data` (rows must be
    /// [`FeatureVector::to_row`] outputs, targets normalized performance).
    pub fn train(kind: ModelKind, data: &Dataset, seed: u64) -> Self {
        assert_eq!(data.dims(), FeatureVector::DIM, "feature dimension mismatch");
        PerfModel { kind, model: ml::train(kind, data, seed) }
    }

    /// Wrap an already-trained regressor.
    pub fn from_regressor(kind: ModelKind, model: Box<dyn Regressor>) -> Self {
        PerfModel { kind, model }
    }

    /// Load a model persisted with [`ml::io`] (e.g. by the `train_model`
    /// experiment binary). A model that reads past the end of a
    /// [`FeatureVector`] row is rejected here rather than at a launch.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let (kind, model) = ml::io::load(path)?;
        let needs = model.min_features();
        if needs > FeatureVector::DIM {
            return Err(format!(
                "{}: model reads feature {} but feature rows have {}",
                path.display(),
                needs - 1,
                FeatureVector::DIM
            ));
        }
        Ok(PerfModel { kind, model })
    }

    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Predict normalized performance for one feature vector.
    pub fn predict(&self, features: &FeatureVector) -> f64 {
        self.model.predict(&features.to_row())
    }

    /// Sweep the configuration space and select the expected-best point.
    ///
    /// Predictions are sanitized: NaN, infinite and negative values (a
    /// regressor gone numerically wrong — normalized performance lives in
    /// `(0, 1]`) are discarded rather than compared. If *no* prediction
    /// survives, the selection falls back to the GPU-only full-DoP
    /// heuristic — the configuration an unmanaged runtime would use — and
    /// flags it, so a broken model degrades a launch instead of steering
    /// it by garbage.
    pub fn select_config(
        &self,
        code: CodeFeatures,
        work_dim: usize,
        global_size: usize,
        local_size: usize,
        space: &[DopPoint],
    ) -> Selection {
        assert!(!space.is_empty());
        let start = Instant::now();
        let mut best: Option<(usize, f64)> = None;
        // Build the feature row once and patch only the two configuration
        // slots per point: the 44-prediction sweep runs allocation-free.
        let mut row = FeatureVector {
            code,
            work_dim,
            global_size,
            local_size,
            cpu_util: 0.0,
            gpu_util: 0.0,
        }
        .to_row();
        for (i, point) in space.iter().enumerate() {
            row[FeatureVector::CPU_UTIL_INDEX] = point.cpu_util;
            row[FeatureVector::GPU_UTIL_INDEX] = point.gpu_util;
            let pred = self.model.predict(&row);
            if !pred.is_finite() || pred < 0.0 {
                continue;
            }
            if best.is_none_or(|(_, b)| pred > b) {
                best = Some((i, pred));
            }
        }
        let inference_s = start.elapsed().as_secs_f64();
        let (index, predicted, fallback) = match best {
            Some((i, p)) => (i, p, false),
            None => {
                let i = space
                    .iter()
                    .position(|p| p.cpu_util == 0.0 && p.gpu_util >= 1.0)
                    .unwrap_or(space.len() - 1);
                (i, f64::NAN, true)
            }
        };
        Selection { index, point: space[index], predicted, inference_s, fallback }
    }
}

/// Model-free DoP selection from code features alone — the baseline the
/// supervision layer falls back to while a kernel's model is quarantined.
///
/// The rule mirrors the paper's observation about integrated-GPU kernels:
/// memory-bound kernels share DRAM bandwidth anyway, so co-executing on
/// every CPU core plus half the GPU CUs wins or ties; compute-bound
/// kernels belong on the GPU at full DoP. A kernel is called memory-bound
/// when its memory operations outnumber its arithmetic ones.
///
/// The returned selection is flagged `fallback` with a `NaN` prediction —
/// it carries no model output, so the misprediction monitor will not score
/// it (and the launch cache will not store it).
pub fn heuristic_select(code: CodeFeatures, space: &[DopPoint], max_cores: usize) -> Selection {
    assert!(!space.is_empty());
    let mem_ops = code.mem_total() as u64;
    let arith_ops = (code.arith_int + code.arith_float) as u64;
    let (want_cpu, want_gpu) = if mem_ops > arith_ops {
        (max_cores, 4)
    } else {
        (0, 8)
    };
    let index = space
        .iter()
        .position(|p| p.cpu_cores == want_cpu && p.gpu_eighths == want_gpu)
        .or_else(|| space.iter().position(|p| p.cpu_util == 0.0 && p.gpu_util >= 1.0))
        .unwrap_or(space.len() - 1);
    Selection {
        index,
        point: space[index],
        predicted: f64::NAN,
        inference_s: 0.0,
        fallback: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::config_space;
    use sim::PlatformConfig;

    fn synthetic_dataset() -> Dataset {
        // Target: prefer mid GPU util and max CPU util — an interior
        // optimum like the paper's heatmaps.
        let mut data = Dataset::empty();
        for cpu in 0..=4 {
            for gpu in 0..=8 {
                let cpu_util = cpu as f64 / 4.0;
                let gpu_util = gpu as f64 / 8.0;
                let fv = FeatureVector {
                    code: CodeFeatures::default(),
                    work_dim: 1,
                    global_size: 16384,
                    local_size: 256,
                    cpu_util,
                    gpu_util,
                };
                let perf = 0.5 * cpu_util + 1.0 - (gpu_util - 0.5).abs();
                data.push(fv.to_row(), perf);
            }
        }
        data
    }

    #[test]
    fn selects_interior_optimum() {
        let data = synthetic_dataset();
        let space = config_space(&PlatformConfig::kaveri());
        for kind in [ModelKind::Dt, ModelKind::Rf] {
            let model = PerfModel::train(kind, &data, 1);
            let sel = model.select_config(CodeFeatures::default(), 1, 16384, 256, &space);
            assert_eq!(sel.point.cpu_cores, 4, "{:?}", kind);
            // 44 training points leave the trees coarse; the pick must land
            // in the interior near the true optimum (4/8), never at the
            // extremes.
            assert!(
                (2..=6).contains(&sel.point.gpu_eighths),
                "{:?} chose gpu {}",
                kind,
                sel.point.gpu_eighths
            );
            assert!(sel.inference_s > 0.0);
        }
    }

    #[test]
    fn selection_index_consistent_with_point() {
        let data = synthetic_dataset();
        let space = config_space(&PlatformConfig::kaveri());
        let model = PerfModel::train(ModelKind::Lin, &data, 2);
        let sel = model.select_config(CodeFeatures::default(), 1, 16384, 256, &space);
        assert_eq!(space[sel.index], sel.point);
    }

    /// A regressor gone numerically wrong in a configurable way.
    struct BrokenRegressor(f64);

    impl Regressor for BrokenRegressor {
        fn predict(&self, _features: &[f64]) -> f64 {
            self.0
        }

        fn name(&self) -> &'static str {
            "broken"
        }
    }

    #[test]
    fn nan_predictions_fall_back_to_gpu_only() {
        let space = config_space(&PlatformConfig::kaveri());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0] {
            let model =
                PerfModel::from_regressor(ModelKind::Lin, Box::new(BrokenRegressor(bad)));
            let sel = model.select_config(CodeFeatures::default(), 1, 16384, 256, &space);
            assert!(sel.fallback, "pred {} must trigger fallback", bad);
            assert_eq!(sel.point.cpu_cores, 0, "pred {}", bad);
            assert_eq!(sel.point.gpu_eighths, 8, "pred {}", bad);
            assert!(sel.predicted.is_nan());
            assert_eq!(space[sel.index], sel.point);
        }
    }

    #[test]
    fn healthy_predictions_do_not_flag_fallback() {
        let data = synthetic_dataset();
        let space = config_space(&PlatformConfig::kaveri());
        let model = PerfModel::train(ModelKind::Dt, &data, 1);
        let sel = model.select_config(CodeFeatures::default(), 1, 16384, 256, &space);
        assert!(!sel.fallback);
        assert!(sel.predicted.is_finite());
    }

    #[test]
    fn heuristic_splits_memory_bound_from_compute_bound() {
        let platform = PlatformConfig::kaveri();
        let space = config_space(&platform);
        let cores = platform.cpu.cores;

        let memory_bound = CodeFeatures {
            mem_continuous: 8,
            mem_random: 2,
            arith_int: 3,
            ..CodeFeatures::default()
        };
        let sel = heuristic_select(memory_bound, &space, cores);
        assert_eq!(sel.point.cpu_cores, cores, "memory-bound co-executes");
        assert_eq!(sel.point.gpu_eighths, 4);
        assert!(sel.fallback);
        assert!(sel.predicted.is_nan());
        assert_eq!(space[sel.index], sel.point);

        let compute_bound = CodeFeatures {
            mem_continuous: 2,
            arith_float: 16,
            arith_int: 4,
            ..CodeFeatures::default()
        };
        let sel = heuristic_select(compute_bound, &space, cores);
        assert_eq!(sel.point.cpu_cores, 0, "compute-bound goes GPU-only");
        assert_eq!(sel.point.gpu_eighths, 8);
        assert!(sel.fallback);
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_dimension() {
        let data = Dataset::new(vec![vec![1.0, 2.0]], vec![0.5]).unwrap();
        PerfModel::train(ModelKind::Dt, &data, 0);
    }
}
