//! The `train` workload: the offline pipeline behind the committed model.
//!
//! A seeded, size-balanced quarter of the 1,224-workload synthetic grid
//! is swept over the 44 configurations, then cross-validated with the
//! decision tree (`bench_support::cv::workload_cv`). An operation is one
//! workload's sweep: `training::run_grid`'s per-workload body (input
//! generation with the seed `run_grid` gives the workload, then
//! `training::measure_workload`) called on the main thread, so that each
//! workload's latency is visible and memory stays in one allocator arena;
//! set-up checks that `run_grid` itself, at one and at `nproc` threads,
//! gives the same records. The traced run replays both halves through the calls they make:
//! input generation, profiling, the DES per configuration and feature
//! extraction for the sweep; dataset assembly, tree fit and the model
//! sweep per held-out workload for the cross-validation.

use crate::harness::{self, Clock, Outcome, MAX_SAMPLES, MIN_REPS};
use crate::layers::{self, Counters};
use crate::stats;
use crate::trace::Recorder;
use bench_support::cv::workload_cv;
use dopia_core::configs::{config_space, DopPoint};
use dopia_core::features::extract_code_features;
use dopia_core::training::{
    dataset_from_records, measure_workload, run_grid, TrainingOptions, WorkloadRecord,
};
use dopia_core::PerfModel;
use ml::{DecisionTree, ModelKind, TreeParams};
use sim::{Engine, Memory, Schedule};
use std::hint::black_box;
use std::time::Instant;
use workloads::data::FastRng;
use workloads::synthetic::{training_grid, SyntheticParams};

/// Cross-validation folds (the sizing the 64-fold paper protocol scales
/// down to for a run of seconds).
const FOLDS: usize = 16;

/// Subsample workloads of the smallest size swept on the main thread in
/// set-up; after the measured part, `run_grid` at one and at `nproc`
/// threads must give the same records.
const REFERENCE_WORKLOADS: usize = 12;

/// `training::run_grid` builds workload `i` of its grid with this seed
/// xor `i`.
const RUN_GRID_SEED: u64 = 0xD0F1A;

/// Times the state is built; `setup_s` is the median.
const SETUPS: usize = 3;

struct State {
    engine: Engine,
    space: Vec<DopPoint>,
    subsample: Vec<SyntheticParams>,
    head: Vec<SyntheticParams>,
    reference: Vec<WorkloadRecord>,
}

fn setup(seed: u64) -> Result<State, String> {
    let engine = Engine::kaveri();
    let space = config_space(&engine.platform);
    let mut rng = FastRng::new(seed);
    let subsample = draw(&training_grid(), &mut rng);
    let smallest = subsample
        .iter()
        .map(|p| p.size)
        .min()
        .expect("a non-empty draw");
    let head: Vec<SyntheticParams> = subsample
        .iter()
        .filter(|p| p.size == smallest)
        .take(REFERENCE_WORKLOADS)
        .cloned()
        .collect();
    let reference = head
        .iter()
        .enumerate()
        .map(|(i, p)| sweep_one(&engine, p, i, &space))
        .collect::<Result<_, _>>()?;
    Ok(State {
        engine,
        space,
        subsample,
        head,
        reference,
    })
}

/// Whether `run_grid` reproduces the set-up's reference records at one and
/// at `nproc` threads. Run after the measured part: worker threads keep
/// allocator arenas of their own, which would make peak memory vary.
fn threads_agree(state: &State) -> bool {
    let agree = |threads: usize| {
        let opts = TrainingOptions {
            threads,
            ..TrainingOptions::default()
        };
        let records = run_grid(&state.engine, &state.head, &state.space, &opts);
        records.len() == state.reference.len()
            && records
                .iter()
                .zip(&state.reference)
                .all(|(a, b)| same_record(a, b))
    };
    agree(1) && agree(TrainingOptions::default().threads)
}

/// A quarter of the grid, balanced so that every seed sweeps the same
/// input volume: the grid lists 12 consecutive workloads with one pattern
/// and data type (two sources, three sizes, two work-group sizes), and
/// each block contributes one of its four workloads of each size.
fn draw(grid: &[SyntheticParams], rng: &mut FastRng) -> Vec<SyntheticParams> {
    let mut out = Vec::with_capacity(grid.len() / 4);
    for block in grid.chunks(12) {
        let mut sizes: Vec<usize> = block.iter().map(|p| p.size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        for size in sizes {
            let same: Vec<&SyntheticParams> = block.iter().filter(|p| p.size == size).collect();
            out.push(same[rng.next_below(same.len() as u64) as usize].clone());
        }
    }
    out
}

/// `run_grid`'s work for workload `index` of its grid.
fn sweep_one(
    engine: &Engine,
    params: &SyntheticParams,
    index: usize,
    space: &[DopPoint],
) -> Result<WorkloadRecord, String> {
    let mut mem = Memory::new();
    let built = params.build(&mut mem, RUN_GRID_SEED ^ index as u64);
    measure_workload(engine, &built, &mut mem, space, &TrainingOptions::default())
        .map_err(|e| format!("{}: {e}", built.name))
}

/// Records equal in every field the pipeline computes.
fn same_record(a: &WorkloadRecord, b: &WorkloadRecord) -> bool {
    a.name == b.name
        && a.code == b.code
        && a.work_dim == b.work_dim
        && a.global_size == b.global_size
        && a.local_size == b.local_size
        && a.times == b.times
        && a.best_index == b.best_index
}

/// The module calls [`sweep_one`] makes (input generation, profile, 44
/// DES runs, features); returns the replayed times.
fn replay_sweep(
    rec: &mut Recorder,
    engine: &Engine,
    params: &SyntheticParams,
    index: usize,
    space: &[DopPoint],
    counters: &mut Counters,
) -> Result<Vec<f64>, String> {
    let mut mem = Memory::new();
    let built = rec.time("workloads.build", || {
        params.build(&mut mem, RUN_GRID_SEED ^ index as u64)
    });
    let profile = rec
        .time("profile", || engine.profile(built.spec(), &mut mem))
        .map_err(|e| format!("{}: replayed profile failed: {e}", built.name))?;
    counters.items_sampled += profile.items_sampled as u64;
    let schedule = Schedule::Dynamic {
        chunk_divisor: TrainingOptions::default().chunk_divisor,
    };
    let mut times = Vec::with_capacity(space.len());
    for point in space {
        let report = rec.time("des.simulate", || {
            engine.simulate(&profile, &built.nd, point.dop(), schedule, true)
        });
        counters.des_groups += built.nd.num_groups() as u64;
        counters.dram_bytes += report.dram_bytes;
        counters.cpu_busy_s += report.cpu_busy_s;
        counters.gpu_busy_s += report.gpu_busy_s;
        counters.lost_groups += report.lost_groups as u64;
        times.push(report.time_s);
    }
    black_box(rec.time("features.extract", || extract_code_features(&built.kernel)));
    Ok(times)
}

/// The fold shuffle of `bench_support::cv` (private there), repeated so
/// the replay holds out the same workloads per fold.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..n).rev() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let j = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The calls `workload_cv` makes (dataset per fold, tree fit, model sweep
/// per held-out workload); returns the held-out picks' mean normalized
/// performance.
fn replay_cv(
    rec: &mut Recorder,
    records: &[WorkloadRecord],
    space: &[DopPoint],
    seed: u64,
    counters: &mut Counters,
) -> f64 {
    let order = shuffled(records.len(), seed);
    let n = records.len();
    let mut perf = vec![0.0; n];
    let (mut nodes, mut depth) = (0usize, 0usize);
    for f in 0..FOLDS {
        let (lo, hi) = (n * f / FOLDS, n * (f + 1) / FOLDS);
        let train: Vec<&WorkloadRecord> = order[..lo]
            .iter()
            .chain(&order[hi..])
            .map(|&i| &records[i])
            .collect();
        let data = rec.time("training.dataset", || {
            dataset_from_records(train.iter().copied(), space)
        });
        counters.ml_rows += data.len() as u64;
        let tree = rec.time("ml.fit", || {
            DecisionTree::fit(&data, &TreeParams::default())
        });
        nodes += tree.node_count();
        depth = depth.max(tree.depth());
        let model = PerfModel::from_regressor(ModelKind::Dt, Box::new(tree));
        for &i in &order[lo..hi] {
            let r = &records[i];
            let sel = rec.time("model.select", || {
                model.select_config(r.code, r.work_dim, r.global_size, r.local_size, space)
            });
            perf[i] = r.normalized_perf(sel.index);
        }
    }
    counters.tree_nodes = nodes as f64 / FOLDS as f64;
    counters.tree_depth = depth as u64;
    // Summed in record order, as the real run's score is.
    perf.iter().sum::<f64>() / n as f64
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (state, setup_s) = harness::repeated_setup(SETUPS, |_| setup(seed));
    let state = state?;
    let State {
        engine,
        space,
        subsample,
        ..
    } = &state;
    let (engine, space) = (engine, &space[..]);
    out.e2e("setup_s", setup_s, "s");

    let mut recorder = traced.then(Recorder::default);
    let mut counters = Counters::default();
    // Fastest sweep of each workload and fastest cross-validation over the
    // untraced iterations, and every untraced sweep latency.
    let mut best: Vec<f64> = vec![f64::INFINITY; subsample.len()];
    let mut best_cv = f64::INFINITY;
    let mut untraced: Vec<f64> = Vec::new();
    let mut traced_samples: Vec<f64> = Vec::new();
    let mut first: Option<(Vec<WorkloadRecord>, f64, f64, usize)> = None;
    let (mut sweep_s, mut cv_s) = (Vec::new(), Vec::new());
    let clock = Clock::start(seconds);
    let mut iteration = 0usize;
    // A traced run traces the first iteration; the later ones give every
    // workload an untraced latency and the tracing overhead.
    while iteration < MIN_REPS || !clock.expired() {
        let mut rec = recorder.as_mut().filter(|_| iteration == 0);
        let mut records = Vec::with_capacity(subsample.len());
        let mut sweep = 0.0;
        for (index, params) in subsample.iter().enumerate() {
            out.attempted += 1;
            if let Some(r) = rec.as_deref_mut() {
                r.begin_op();
            }
            let op = rec.as_deref_mut().map(|r| r.enter("op.sweep"));
            let span = rec.as_deref_mut().map(|r| r.enter("training.sweep"));
            let t0 = Instant::now();
            let record = sweep_one(engine, params, index, space);
            let took = t0.elapsed().as_secs_f64();
            sweep += took;
            if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                r.exit(s);
            }
            let record = match record {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.checks.require(false, || e);
                    if let (Some(r), Some(s)) = (rec.as_deref_mut(), op) {
                        r.exit(s);
                    }
                    continue;
                }
            };
            if let Some(r) = rec.as_deref_mut() {
                traced_samples.push(took);
                let first = r.spans().len();
                match replay_sweep(r, engine, params, index, space, &mut counters) {
                    Ok(times) => out.checks.require(times == record.times, || {
                        format!("{}: replayed sweep differs", record.name)
                    }),
                    Err(e) => out.checks.require(false, || e),
                }
                counters.real_s += took;
                counters.attributed_s += r.seconds_since(first);
                if let Some(s) = op {
                    r.exit(s);
                }
            } else {
                best[index] = best[index].min(took);
                if untraced.len() < MAX_SAMPLES {
                    untraced.push(took);
                }
            }
            out.checks.require(
                record.times.len() == space.len()
                    && record.times.iter().all(|t| t.is_finite() && *t > 0.0),
                || format!("{}: times are not 44 finite positive values", record.name),
            );
            records.push(record);
        }

        let span = rec.as_deref_mut().map(|r| r.enter("cv.workload_cv"));
        let t0 = Instant::now();
        let cv = workload_cv(&records, space, ModelKind::Dt, FOLDS, seed);
        let took = t0.elapsed().as_secs_f64();
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
            r.exit(s);
        }
        let frac = cv.perf.iter().sum::<f64>() / cv.perf.len() as f64;
        if let Some(r) = rec.as_deref_mut() {
            r.begin_op();
            let first = r.spans().len();
            let replayed = replay_cv(r, &records, space, seed, &mut counters);
            counters.real_s += took;
            counters.attributed_s += r.seconds_since(first);
            out.checks.require(replayed == frac, || {
                format!("replayed cross-validation scores {replayed}, workload_cv {frac}")
            });
        }
        if rec.is_none() {
            best_cv = best_cv.min(took);
        }
        sweep_s.push(sweep);
        cv_s.push(took);
        // The sum of the held-out picks' simulated times.
        let picked_s: f64 = records
            .iter()
            .zip(&cv.picks)
            .map(|(r, &i)| r.times[i])
            .sum();
        match &first {
            None => first = Some((records, frac, picked_s, cv.correct)),
            Some((r0, f0, p0, _)) => {
                let same = r0.len() == records.len()
                    && r0.iter().zip(&records).all(|(a, b)| same_record(a, b));
                out.checks.require(same, || {
                    format!("iteration {iteration} swept other records")
                });
                out.checks.require(frac == *f0 && picked_s == *p0, || {
                    format!("iteration {iteration} cross-validated differently")
                });
            }
        }
        iteration += 1;
    }

    let (records, frac, picked_s, exact) = first.expect("at least one iteration");
    // The cross-validation counts towards the sequence's API time.
    out.latencies(&best, best.iter().sum::<f64>() + best_cv, iteration);
    harness::whole_run_notes(&mut out, &untraced);
    out.e2e("sim_kernel_s", picked_s, "s");
    out.e2e(
        "peak_rss_mb",
        harness::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    out.checks.require(threads_agree(&state), || {
        "run_grid at one or nproc threads disagrees with the per-workload sweep".to_string()
    });
    out.e2e("oracle_frac", frac, "ratio");
    out.note("iterations", iteration as f64);
    out.note("workloads", records.len() as f64);
    out.note("sweep_s_median", stats::median(&sweep_s));
    out.note("fit_cv_s_median", stats::median(&cv_s));
    out.note("cv_exact_picks", exact as f64);

    if let Some(rec) = recorder {
        counters.traced_median_s = stats::median(&traced_samples);
        counters.untraced_median_s = stats::median(&untraced);
        layers::report(&mut out, rec.spans(), &counters);
        out.spans = Some(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_a_balanced_seeded_quarter() {
        let grid = training_grid();
        let a = draw(&grid, &mut FastRng::new(1));
        let b = draw(&grid, &mut FastRng::new(2));
        assert_eq!(a.len(), 306);
        assert_ne!(a, b);
        for size in [16384, 32768, 65536] {
            assert_eq!(a.iter().filter(|p| p.size == size).count(), 102);
        }
        // Per pattern and data type, both draws hold the same sizes.
        let key = |p: &SyntheticParams| {
            (
                p.pattern.name(),
                p.dtype == workloads::synthetic::DType::F32,
                p.size,
            )
        };
        let mut ka: Vec<_> = a.iter().map(key).collect();
        let mut kb: Vec<_> = b.iter().map(key).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }
}
