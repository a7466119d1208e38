//! Round-trip integration of the model persistence path: a production
//! deployment trains once (`train_model` binary), ships the `.model` file,
//! and the runtime loads it — selections must be identical to the
//! in-memory model's.

use dopia::prelude::*;

#[test]
fn persisted_models_reproduce_selections() {
    let engine = Engine::kaveri();
    let (dataset, records) = training::tiny_training_set(&engine);
    let space = config_space(&engine.platform);
    let dir = std::env::temp_dir().join("dopia_persist_test");
    std::fs::create_dir_all(&dir).unwrap();

    for kind in [ModelKind::Lin, ModelKind::Dt, ModelKind::Rf, ModelKind::Svr] {
        let (_, text) = ml::io::train_serialized(kind, &dataset, 7);
        let path = dir.join(format!("{}.model", kind.label()));
        std::fs::write(&path, &text).unwrap();

        let original = PerfModel::from_regressor(kind, ml::io::from_string(&text).unwrap().1);
        let loaded = PerfModel::load(&path).unwrap();
        assert_eq!(loaded.kind(), kind);

        for record in records.iter().take(10) {
            let a = original.select_config(
                record.code,
                record.work_dim,
                record.global_size,
                record.local_size,
                &space,
            );
            let b = loaded.select_config(
                record.code,
                record.work_dim,
                record.global_size,
                record.local_size,
                &space,
            );
            assert_eq!(a.index, b.index, "{} diverged on {}", kind.label(), record.name);
        }
    }
}

#[test]
fn loaded_model_drives_the_runtime() {
    let engine = Engine::kaveri();
    let (dataset, _) = training::tiny_training_set(&engine);
    let dir = std::env::temp_dir().join("dopia_persist_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dt.model");
    let (_, text) = ml::io::train_serialized(ModelKind::Dt, &dataset, 7);
    std::fs::write(&path, text).unwrap();

    let dopia = Dopia::new(engine, PerfModel::load(&path).unwrap());
    let program = dopia
        .create_program_with_source(workloads::polybench::GESUMMV_SRC)
        .unwrap();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 4096, 256);
    let run = dopia
        .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
        .unwrap();
    assert_eq!(run.report.cpu_groups + run.report.gpu_groups, built.nd.num_groups());
}

/// Two corrupt tree models per family: a split whose child points back at
/// itself (inference would never reach a leaf) and a split on feature 40,
/// past the end of an 11-feature row (inference would index out of bounds).
fn corrupt_tree_models() -> [(ModelKind, String, String); 2] {
    let backward = "nodes 1\nS 0 5e-1 0 0\n";
    let wide = "nodes 3\nS 40 5e-1 1 2\nL 1\nL 2\n";
    let tree = |body: &str| format!("dopia-model v1 DT\n{body}");
    let forest = |body: &str| format!("dopia-model v1 RF\ntrees 2\nnodes 1\nL 1\n{body}");
    [
        (ModelKind::Dt, tree(backward), tree(wide)),
        (ModelKind::Rf, forest(backward), forest(wide)),
    ]
}

#[test]
fn corrupt_tree_models_are_rejected_at_load() {
    let dir = std::env::temp_dir().join("dopia_corrupt_models");
    std::fs::create_dir_all(&dir).unwrap();
    for (kind, backward, wide) in corrupt_tree_models() {
        let label = kind.label();
        assert!(
            ml::io::from_string(&backward).is_err(),
            "{label}: backward child loaded"
        );
        // The model format knows no row width; the feature bound is the
        // runtime's, checked by `PerfModel::load`.
        let (_, model) = ml::io::from_string(&wide).unwrap();
        assert_eq!(model.min_features(), 41, "{label}");
        for (what, text) in [("backward", backward), ("wide", wide)] {
            let path = dir.join(format!("{label}_{what}.model"));
            std::fs::write(&path, text).unwrap();
            assert!(
                PerfModel::load(&path).is_err(),
                "{label}: {what} model loaded"
            );
        }
    }
}

#[test]
fn committed_models_load() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/models");
    let mut loaded = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "model") {
            PerfModel::load(&path).unwrap_or_else(|e| panic!("{e}"));
            loaded += 1;
        }
    }
    assert_eq!(
        loaded,
        6,
        "expected the six committed models in {}",
        dir.display()
    );
}
