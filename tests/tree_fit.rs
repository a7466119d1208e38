//! The decision-tree fit on real training data: the fitted DT and RF match
//! recorded fingerprints, and the models trained on a sweep do not depend
//! on how many threads ran the sweep.

use dopia::prelude::*;
use dopia_core::training;
use ml::{DecisionTree, ForestParams, RandomForest, TreeParams};
use workloads::synthetic::SyntheticParams;

/// CRC-32 of a model's serialized lines: every split feature, threshold,
/// child index and leaf value, in full precision.
fn fingerprint(lines: &[String]) -> u32 {
    ml::io::crc32(lines.join("\n").as_bytes())
}

fn fit_both(records: &[training::WorkloadRecord], space: &[DopPoint]) -> [Vec<String>; 2] {
    let data = training::dataset_from_records(records, space);
    [
        DecisionTree::fit(&data, &TreeParams::default()).to_lines(),
        RandomForest::fit(&data, &ForestParams::default(), 7).to_lines(),
    ]
}

/// The fingerprints were recorded with the comparison-sort CART fit that
/// the rank-based fit replaced; any change to a split, threshold or leaf
/// value changes them.
#[test]
fn tree_fits_match_recorded_fingerprints() {
    let engine = Engine::kaveri();
    let (_, records) = training::tiny_training_set(&engine);
    let [dt, rf] = fit_both(&records, &config_space(&engine.platform));
    assert_eq!(
        (fingerprint(&dt), dt.len()),
        (0x4c73_4110, 1372),
        "DT fingerprint (crc32, lines)"
    );
    assert_eq!(
        (fingerprint(&rf), rf.len()),
        (0x73d3_0623, 23093),
        "RF fingerprint (crc32, lines)"
    );
}

#[test]
fn trained_models_do_not_depend_on_sweep_threads() {
    let engine = Engine::kaveri();
    let space = config_space(&engine.platform);
    let grid: Vec<SyntheticParams> = workloads::synthetic::training_grid()
        .into_iter()
        .step_by(40)
        .collect();
    let models: Vec<[Vec<String>; 2]> = [1, 3]
        .iter()
        .map(|&threads| {
            let opts = TrainingOptions {
                threads,
                ..Default::default()
            };
            fit_both(&training::run_grid(&engine, &grid, &space, &opts), &space)
        })
        .collect();
    assert_eq!(
        models[0][0], models[1][0],
        "DT differs between 1 and 3 sweep threads"
    );
    assert_eq!(
        models[0][1], models[1][1],
        "RF differs between 1 and 3 sweep threads"
    );
}
