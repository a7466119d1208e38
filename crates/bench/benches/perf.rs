//! Criterion benches of the repo's performance tentpoles: the batched
//! DES fast path (vs the exact per-agent event loop), the enqueue
//! decision cache (cold vs warm launch latency), the training-sweep
//! throughput they combine into, and the bytecode-VM profiler against the
//! tree-walking reference interpreter on a cold (cache-miss) profile.
//!
//! ```sh
//! cargo bench -p dopia-bench --bench perf
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use dopia_core::configs::config_space;
use dopia_core::training::{measure_workload_cached, TrainingOptions};
use dopia_core::{DecisionCache, Dopia, PerfModel};
use ml::ModelKind;
use sim::des::run_des_exact;
use sim::{Engine, FaultPlan, Memory, Schedule};

fn profiled_gesummv(engine: &Engine, n: usize) -> (sim::KernelProfile, sim::NdRange) {
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, n, 256);
    let profile = engine.profile(built.spec(), &mut mem).unwrap();
    (profile, built.nd)
}

/// The 44-config simulation sweep, fast path vs exact event loop. This is
/// the inner loop of both training-data generation and the oracle.
fn bench_des_sweep(c: &mut Criterion) {
    let fast = Engine::kaveri();
    let space = config_space(&fast.platform);
    let (profile, nd) = profiled_gesummv(&fast, 16384);
    let sched = Schedule::Dynamic { chunk_divisor: 10 };

    let mut group = c.benchmark_group("des_sweep_44_configs");
    group.bench_function("fast_path", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for point in &space {
                acc += fast
                    .simulate(std::hint::black_box(&profile), &nd, point.dop(), sched, true)
                    .time_s;
            }
            acc
        })
    });
    group.bench_function("exact_des", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for point in &space {
                let profile = std::hint::black_box(&profile);
                let input = fast.des_input(profile, &nd, point.dop(), sched, true);
                acc += run_des_exact(&input, &FaultPlan::none(), None).time_s;
            }
            acc
        })
    });
    group.finish();
}

/// Single enqueue latency: cold (profile + model sweep + simulate) vs
/// cached (lookup + simulate).
fn bench_enqueue_latency(c: &mut Criterion) {
    let engine = Engine::kaveri();
    let (data, _) = dopia_core::training::tiny_training_set(&engine);
    let model = PerfModel::train(ModelKind::Dt, &data, 42);
    let dopia = Dopia::new(engine, model);
    let program = dopia
        .create_program_with_source(workloads::polybench::GESUMMV_SRC)
        .unwrap();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 4096, 256);

    let mut group = c.benchmark_group("enqueue_latency");
    group.bench_function("cold_no_cache", |b| {
        dopia.set_launch_cache_enabled(false);
        b.iter(|| {
            dopia
                .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
                .unwrap()
                .total_time_s
        })
    });
    group.bench_function("warm_cached", |b| {
        dopia.set_launch_cache_enabled(true);
        // Prime the entry so every measured iteration is a hit.
        dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
            .unwrap();
        b.iter(|| {
            dopia
                .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
                .unwrap()
                .total_time_s
        })
    });
    group.finish();
}

/// Training-sweep throughput at tiny_training_set scale: the profile cache
/// plus the DES fast path against the exact, uncached combination.
/// Workload construction is hoisted out of the timed iterations; the
/// `fast_path` variant keeps its cache warm across iterations (how repeated
/// sweeps run) while `exact_des` re-profiles every workload per pass and
/// runs the exact event loop ([`bench_support::exact_sweep`]).
fn bench_training_sweep(c: &mut Criterion) {
    let engine = Engine::kaveri();
    let space = config_space(&engine.platform);
    let grid: Vec<workloads::synthetic::SyntheticParams> =
        workloads::synthetic::training_grid().into_iter().step_by(17).collect();
    let opts = TrainingOptions { threads: 1, ..TrainingOptions::default() };
    let mut built: Vec<(Memory, workloads::BuiltKernel)> = grid
        .iter()
        .enumerate()
        .map(|(i, params)| {
            let mut mem = Memory::new();
            let built = params.build(&mut mem, 0xD0F1A ^ i as u64);
            (mem, built)
        })
        .collect();

    let mut group = c.benchmark_group("training_sweep_72_workloads");
    group.sample_size(10);
    let mut cache = DecisionCache::new(grid.len().max(1));
    group.bench_function("fast_path", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for (mem, built) in built.iter_mut() {
                let record =
                    measure_workload_cached(&engine, built, mem, &space, &opts, &mut cache)
                        .unwrap();
                total += record.times[record.best_index];
            }
            total
        })
    });
    group.bench_function("exact_des", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for (mem, built) in built.iter_mut() {
                total += bench_support::exact_sweep(&engine, built, mem, &space, &opts);
            }
            total
        })
    });
    group.finish();
}

/// Cold-profile cost (the cache-miss enqueue tail): sampled interpretation
/// of gesummv at paper scale on the tree-walking reference oracle vs the
/// bytecode VM, with and without the per-build compile amortized away
/// (the runtime caches the `CompiledKernel` in `PreparedKernel`, so
/// `vm_precompiled` is the shape every launch actually pays).
fn bench_cold_profile(c: &mut Criterion) {
    let vm_engine = Engine::kaveri();
    let mut mem = Memory::new();
    let built = workloads::polybench::gesummv(&mut mem, 16384, 256);
    let ck = sim::compile_kernel(&built.kernel).unwrap();

    let mut group = c.benchmark_group("cold_profile_gesummv_16k");
    group.bench_function("tree_walker", |b| {
        b.iter(|| {
            interp_oracle::profile_kernel(&built.kernel, &built.args, &built.nd, &mut mem)
                .unwrap()
                .ops_per_item()
        })
    });
    group.bench_function("vm_compile_included", |b| {
        b.iter(|| vm_engine.profile(built.spec(), &mut mem).unwrap().ops_per_item())
    });
    group.bench_function("vm_precompiled", |b| {
        b.iter(|| {
            vm_engine
                .profile_compiled(&ck, &built.args, &built.nd, &mut mem)
                .unwrap()
                .ops_per_item()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_des_sweep,
    bench_enqueue_latency,
    bench_training_sweep,
    bench_cold_profile
);
criterion_main!(benches);
