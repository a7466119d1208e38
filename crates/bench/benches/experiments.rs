//! Criterion benches of the experiment pipelines themselves — one per
//! paper table/figure — so regressions in the harness are visible. Each
//! bench runs a scaled-down version of the corresponding experiment
//! binary's inner loop (the binaries in `src/bin/` produce the full
//! figures).
//!
//! ```sh
//! cargo bench -p dopia-bench --bench experiments
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use dopia_core::baselines::{self, Baseline};
use dopia_core::configs::config_space;
use dopia_core::training::{dataset_from_records, measure_workload, run_grid, TrainingOptions};
use dopia_core::PerfModel;
use ml::ModelKind;
use sim::{Engine, Memory, Schedule};
use workloads::synthetic::SyntheticParams;

/// Fig. 1 / Fig. 12 kernel: one full DoP heatmap of Gesummv.
fn bench_fig01_heatmap(c: &mut Criterion) {
    let engine = Engine::kaveri();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 16384, 256);
    let profile = engine.profile(built.spec(), &mut mem).unwrap();
    let space = config_space(&engine.platform);
    c.bench_function("fig01_gesummv_heatmap_44pts", |b| {
        b.iter(|| {
            space
                .iter()
                .map(|p| {
                    engine
                        .simulate(
                            &profile,
                            &built.nd,
                            p.dop(),
                            Schedule::Dynamic { chunk_divisor: 10 },
                            true,
                        )
                        .time_s
                })
                .fold(f64::INFINITY, f64::min)
        })
    });
}

/// Fig. 3 kernel: the 9-point GPU-utilization sweep.
fn bench_fig03_sweep(c: &mut Criterion) {
    let engine = Engine::kaveri();
    let mut mem = Memory::new();
    let built = workloads::spmv::spmv_csr(&mut mem, 16384, 256);
    let profile = engine.profile(built.spec(), &mut mem).unwrap();
    c.bench_function("fig03_spmv_gpu_util_sweep", |b| {
        b.iter(|| {
            (0..=8)
                .map(|g| {
                    engine
                        .simulate(
                            &profile,
                            &built.nd,
                            sim::engine::DopConfig { cpu_cores: 4, gpu_frac: g as f64 / 8.0 },
                            Schedule::Dynamic { chunk_divisor: 10 },
                            true,
                        )
                        .mem_requests()
                })
                .sum::<f64>()
        })
    });
}

/// Fig. 9 kernel: baselines + 19-way static sweep for one workload.
fn bench_fig09_distribution(c: &mut Criterion) {
    let engine = Engine::kaveri();
    let mut mem = Memory::new();
    let built = workloads::polybench::atax1(&mut mem, 16384, 256);
    let profile = engine.profile(built.spec(), &mut mem).unwrap();
    c.bench_function("fig09_one_workload_all_modes", |b| {
        b.iter(|| {
            let stat = baselines::best_static_split(&engine, &profile, &built.nd);
            let dynamic =
                baselines::simulate_baseline(&engine, &profile, &built.nd, Baseline::All);
            let cpu = baselines::simulate_baseline(&engine, &profile, &built.nd, Baseline::Cpu);
            stat.report.time_s + dynamic.time_s + cpu.time_s
        })
    });
}

/// Table 5 / Fig. 10/11 kernel: measure + train + select for a small grid.
fn bench_fig10_cv_unit(c: &mut Criterion) {
    let engine = Engine::kaveri();
    let space = config_space(&engine.platform);
    let grid: Vec<SyntheticParams> =
        workloads::synthetic::training_grid().into_iter().step_by(150).collect();
    let records = run_grid(&engine, &grid, &space, &TrainingOptions::default());
    let data = dataset_from_records(&records, &space);
    let mut group = c.benchmark_group("fig10_cv_unit");
    group.sample_size(10);
    group.bench_function("train_dt_and_select_all", |b| {
        b.iter(|| {
            let model = PerfModel::train(ModelKind::Dt, &data, 1);
            records
                .iter()
                .map(|r| {
                    model
                        .select_config(r.code, r.work_dim, r.global_size, r.local_size, &space)
                        .index
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Fig. 13 kernel: measuring one real-world kernel across the space.
fn bench_fig13_measure(c: &mut Criterion) {
    let engine = Engine::kaveri();
    let space = config_space(&engine.platform);
    let mut group = c.benchmark_group("fig13_measure_kernel");
    group.sample_size(10);
    group.bench_function("gesummv_44_configs", |b| {
        b.iter(|| {
            let mut mem = Memory::new();
            let built = workloads::polybench::gesummv(&mut mem, 16384, 256);
            measure_workload(&engine, &built, &mut mem, &space, &TrainingOptions::default())
                .unwrap()
                .best_index
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig01_heatmap,
    bench_fig03_sweep,
    bench_fig09_distribution,
    bench_fig10_cv_unit,
    bench_fig13_measure
);
criterion_main!(benches);
