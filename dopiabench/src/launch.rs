//! The three launch streams: `launch_hot`, `launch_cold` and
//! `launch_faulted`.
//!
//! One closed-loop client sends launches round-robin through one
//! `CommandQueue` per pass over the stream, in the same order every pass,
//! as an iterative application does. An operation is one enqueue; on the
//! cold stream it is the first touch of a kernel, a program build followed
//! by its launch. A run repeats one fixed sequence of passes on a fresh
//! runtime until its time is up, and reports each operation's fastest
//! repetition; on the faulted stream, the fastest run of the same work
//! anywhere in the run. The traced run replays, after each real call, the
//! module calls that call made (build: `clc`, features, codegen, bytecode
//! compile; launch: profile, model sweep, DES) on the same inputs, each
//! inside a span. What the real call took beyond its replayed layers is
//! the runtime's own time: cache lookup, supervision, locks.

use crate::harness::{self, Clock, Outcome, MAX_SAMPLES, MIN_REPS};
use crate::layers::{self, Counters};
use crate::stats;
use crate::trace::Recorder;
use dopia_core::codegen::{generate_cpu_source, transform_malleable};
use dopia_core::features::extract_code_features;
use dopia_core::runtime::PreparedKernel;
use dopia_core::training::{measure_workload, TrainingOptions};
use dopia_core::{
    CacheStats, CommandQueue, Dopia, DopiaError, LaunchResult, PerfModel, Program, RuntimeHealth,
    SupervisionConfig, Supervisor,
};
use sim::{ArgValue, Engine, FaultPlan, KernelProfile, Memory, NdRange, Schedule};
use std::hint::black_box;
use std::time::Instant;
use workloads::data::{random_csr, FastRng};
use workloads::synthetic::{training_grid, DType, SyntheticParams};
use workloads::{pagerank, polybench, spmv, BuiltKernel};

/// The committed Kaveri decision-tree model every launch stream loads.
pub const MODEL_PATH: &str = "results/models/kaveri_dt.model";

/// Times each stream's state is built; `setup_s` is the median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Hot,
    Cold,
    Faulted,
}

impl Stream {
    /// Leading passes whose simulated results and counters the run
    /// reports; they are the same on every run with the same seed. The
    /// hot window is long enough for a hit ratio of 0.99 after the first
    /// pass's 28 misses; every cold pass is alike; eight faulted passes
    /// take the GPU breaker through trips, pinned launches and probes.
    fn window(self) -> usize {
        match self {
            Stream::Hot => 128,
            Stream::Cold => 1,
            Stream::Faulted => 8,
        }
    }

    /// Passes in the sequence a run repeats: about half a second of
    /// launches (hot), two seconds of first touches with their input
    /// generation (cold), four seconds of faulted launches: the window,
    /// 224 launches, enough for ten beyond the p95.
    fn sequence(self) -> usize {
        match self {
            Stream::Hot => 4096,
            Stream::Cold => 4,
            Stream::Faulted => 8,
        }
    }
}

/// Where a launch's arguments live.
enum Inputs {
    /// In the stream's shared memory, generated in set-up.
    Shared { args: Vec<ArgValue>, nd: NdRange },
    /// Regenerated from the seed before each launch, outside the timed
    /// call: the synthetic grid's index arrays are too large to keep one
    /// per launch.
    Synthetic { params: SyntheticParams, seed: u64 },
}

struct Launch {
    label: String,
    /// Index into [`State::sources`].
    source: usize,
    kernel: String,
    inputs: Inputs,
    /// Fastest of the 44 configurations, fault-free (simulated seconds).
    oracle_s: f64,
}

struct State {
    dopia: Dopia,
    shared: Memory,
    sources: Vec<String>,
    /// One per source, built in set-up (hot and faulted streams only).
    programs: Vec<Program>,
    launches: Vec<Launch>,
    /// Program builds the traced set-up replayed.
    counters: Counters,
}

/// The fourteen real-world kernels and problem sizes of
/// `workloads::real_world_suite` at both work-group variants, with their
/// sources. The PageRank graph and the SpMV matrix come from the seed and
/// are shared by both variants.
fn real_world(mem: &mut Memory, seed: u64) -> Vec<(BuiltKernel, &'static str, usize)> {
    let n = 16384;
    let graph = random_csr(n, 256, seed ^ 0x9A6E);
    let matrix = random_csr(n, 256, seed ^ 0x5137);
    let pr = pagerank::instance(mem, &graph, 64).built;
    let sp = spmv::build_from_csr(mem, &matrix, 64);
    let mut out = Vec::with_capacity(28);
    for (variant, wg1, wg2) in [(0, 64usize, [8usize, 8usize]), (1, 256, [16, 16])] {
        let regrouped = |b: &BuiltKernel| BuiltKernel {
            nd: NdRange::d1(n, wg1),
            ..b.clone()
        };
        for (built, src) in [
            (polybench::conv2d(mem, 8192, wg2), polybench::CONV2D_SRC),
            (polybench::atax1(mem, n, wg1), polybench::ATAX1_SRC),
            (polybench::atax2(mem, n, wg1), polybench::ATAX2_SRC),
            (polybench::bicg1(mem, n, wg1), polybench::BICG1_SRC),
            (polybench::bicg2(mem, n, wg1), polybench::BICG2_SRC),
            (polybench::fdtd1(mem, n, wg2), polybench::FDTD1_SRC),
            (polybench::fdtd2(mem, n, wg2), polybench::FDTD2_SRC),
            (polybench::fdtd3(mem, n, wg2), polybench::FDTD3_SRC),
            (polybench::gesummv(mem, n, wg1), polybench::GESUMMV_SRC),
            (polybench::mvt1(mem, n, wg1), polybench::MVT1_SRC),
            (polybench::mvt2(mem, n, wg1), polybench::MVT2_SRC),
            (polybench::syr2k(mem, 1024, wg2), polybench::SYR2K_SRC),
            (regrouped(&pr), pagerank::PAGERANK_SRC),
            (regrouped(&sp), spmv::SPMV_SRC),
        ] {
            out.push((built, src, variant));
        }
    }
    out
}

/// Fastest simulated time over the 44 configurations.
fn oracle_s(dopia: &Dopia, built: &BuiltKernel, mem: &mut Memory) -> Result<f64, String> {
    let opts = TrainingOptions {
        threads: 1,
        ..TrainingOptions::default()
    };
    let record = measure_workload(dopia.engine(), built, mem, dopia.space(), &opts)
        .map_err(|e| format!("oracle sweep of {}: {}", built.name, e))?;
    Ok(record.times[record.best_index])
}

/// A runtime with the committed model, under the stream's fault plan.
fn fresh_runtime(stream: Stream) -> Result<Dopia, String> {
    let model = PerfModel::load(std::path::Path::new(MODEL_PATH))?;
    let mut dopia = Dopia::new(Engine::kaveri(), model);
    if stream == Stream::Faulted {
        dopia.set_fault_plan(FaultPlan::preset("gpu-hang").expect("gpu-hang is a preset"));
    }
    Ok(dopia)
}

/// One program per source (hot and faulted streams; the cold stream builds
/// its programs as it launches).
fn build_programs(
    stream: Stream,
    dopia: &Dopia,
    sources: &[String],
    mut rec: Option<&mut Recorder>,
    mut counters: Option<&mut Counters>,
) -> Result<Vec<Program>, String> {
    if stream == Stream::Cold {
        return Ok(Vec::new());
    }
    sources
        .iter()
        .map(|source| {
            let (program, _) =
                build_program(dopia, source, rec.as_deref_mut(), counters.as_deref_mut());
            program.map_err(|e| format!("program build failed: {e}"))
        })
        .collect()
}

fn setup(stream: Stream, seed: u64, mut rec: Option<&mut Recorder>) -> Result<State, String> {
    let dopia = fresh_runtime(stream)?;
    let mut rng = FastRng::new(seed);
    let mut shared = Memory::new();
    let suite = match rec.as_deref_mut() {
        Some(r) => r.time("workloads.build", || real_world(&mut shared, seed)),
        None => real_world(&mut shared, seed),
    };
    let mut sources: Vec<String> = Vec::new();
    let mut launches = Vec::new();
    for (built, src, variant) in suite {
        let source = match sources.iter().position(|s| s == src) {
            Some(i) => i,
            None => {
                sources.push(src.to_string());
                sources.len() - 1
            }
        };
        launches.push(Launch {
            label: format!("{}/wg{}", built.name, variant),
            source,
            kernel: built.kernel.name.clone(),
            oracle_s: oracle_s(&dopia, &built, &mut shared)?,
            inputs: Inputs::Shared {
                args: built.args,
                nd: built.nd,
            },
        });
    }
    if stream == Stream::Cold {
        // One geometry per F32 source of the synthetic grid, drawn from
        // the seed. The grid lists the six geometries of a source together.
        let f32_half: Vec<SyntheticParams> = training_grid()
            .into_iter()
            .filter(|p| p.dtype == DType::F32)
            .collect();
        for geometries in f32_half.chunks(6) {
            let params = geometries[rng.next_below(6) as usize].clone();
            let input_seed = rng.next_u64();
            let mut mem = Memory::new();
            let built = match rec.as_deref_mut() {
                Some(r) => r.time("workloads.build", || params.build(&mut mem, input_seed)),
                None => params.build(&mut mem, input_seed),
            };
            sources.push(params.source());
            launches.push(Launch {
                label: built.name.clone(),
                source: sources.len() - 1,
                kernel: built.kernel.name.clone(),
                oracle_s: oracle_s(&dopia, &built, &mut mem)?,
                inputs: Inputs::Synthetic {
                    params,
                    seed: input_seed,
                },
            });
        }
    }
    let mut counters = Counters::default();
    let programs = build_programs(stream, &dopia, &sources, rec, Some(&mut counters))?;
    Ok(State {
        dopia,
        shared,
        sources,
        programs,
        launches,
        counters,
    })
}

/// Build a program through the runtime and return it with the call's
/// wall time. Traced, the build is its own operation and the layers it
/// ran are replayed after it.
fn build_program(
    dopia: &Dopia,
    source: &str,
    rec: Option<&mut Recorder>,
    counters: Option<&mut Counters>,
) -> (Result<Program, DopiaError>, f64) {
    let Some(rec) = rec else {
        let t0 = Instant::now();
        let program = dopia.create_program_with_source(source);
        return (program, t0.elapsed().as_secs_f64());
    };
    rec.begin_op();
    let op = rec.enter("op.build");
    let span = rec.enter("runtime.create_program");
    let t0 = Instant::now();
    let program = dopia.create_program_with_source(source);
    let real_s = t0.elapsed().as_secs_f64();
    rec.exit(span);
    let replay_s = replay_build(rec, source);
    rec.exit(op);
    if let Some(c) = counters {
        c.builds.push((real_s, replay_s));
        c.real_s += real_s;
        c.attributed_s += replay_s;
    }
    (program, real_s)
}

/// The module calls `Dopia::create_program_with_source` makes, one span
/// each; returns the time spent inside them.
fn replay_build(rec: &mut Recorder, source: &str) -> f64 {
    let first = rec.spans().len();
    let program = rec.time("clc.compile", || clc::compile_with_defines(source, &[]));
    if let Ok(program) = program {
        for k in &program.kernels {
            black_box(rec.time("features.extract", || extract_code_features(k)));
            let _ = black_box(rec.time("codegen.malleable", || {
                (transform_malleable(k, 1), transform_malleable(k, 2))
            }));
            black_box(rec.time("codegen.cpu", || {
                (generate_cpu_source(k, 1), generate_cpu_source(k, 2))
            }));
            let _ = black_box(rec.time("interp.compile", || sim::compile_kernel(k)));
        }
    }
    rec.seconds_since(first)
}

/// A copy of the runtime's supervisor, fed the same launches, so the
/// replayed DES gets the deadline the runtime used.
struct Shadow {
    supervisor: Supervisor,
    plan: FaultPlan,
    /// The profile of each launch, from its first replay (a cache hit
    /// reuses the runtime's stored profile, which the replay cannot see).
    profiles: Vec<Option<KernelProfile>>,
}

/// Replay the layers one launch ran; returns the seconds spent inside the
/// replayed calls, all of them and the DES alone.
#[allow(clippy::too_many_arguments)]
fn replay_launch(
    rec: &mut Recorder,
    dopia: &Dopia,
    shadow: &mut Shadow,
    index: usize,
    prepared: &PreparedKernel,
    args: &[ArgValue],
    nd: NdRange,
    mem: &mut Memory,
    result: &LaunchResult,
    out: &mut Outcome,
    counters: &mut Counters,
) -> (f64, f64) {
    let groups = nd.num_groups();
    let guidance = shadow.supervisor.begin_launch(prepared.id, groups);
    let h = &result.health;
    let label = &prepared.original.name;
    out.checks.require(
        (h.breaker_pinned_launches == 1) == guidance.pin.is_some(),
        || format!("{label}: shadow supervisor disagrees on the breaker pin"),
    );
    let modelled = guidance.pin.is_none() && guidance.use_model;
    out.checks.require(
        (h.quarantined_launches == 1) == (guidance.pin.is_none() && !modelled),
        || format!("{label}: shadow supervisor disagrees on quarantine"),
    );
    let first = rec.spans().len();
    let hit = h.launch_cache_hits == 1;
    if !hit {
        match rec.time("profile", || dopia.profile(prepared, args, nd, mem)) {
            Ok(p) => {
                counters.items_sampled += p.items_sampled as u64;
                shadow.profiles[index] = Some(p);
            }
            Err(e) => out
                .checks
                .require(false, || format!("{label}: replayed profile failed: {e}")),
        }
    }
    if !hit && modelled {
        let sel = rec.time("model.select", || {
            dopia.model().select_config(
                prepared.features,
                nd.work_dim,
                nd.global_size(),
                nd.local_size(),
                dopia.space(),
            )
        });
        out.checks.require(sel.index == result.selection.index, || {
            format!("{label}: replayed model sweep picked another configuration")
        });
    }
    let point = result.selection.point;
    let mut des_s = 0.0;
    match &shadow.profiles[index] {
        Some(profile) => {
            let deadline = guidance
                .deadline_s
                .filter(|_| point.cpu_cores > 0 && point.gpu_eighths > 0);
            let schedule = Schedule::Dynamic {
                chunk_divisor: dopia.chunk_divisor,
            };
            let report = rec.time("des.simulate", || {
                dopia.engine().simulate_supervised(
                    profile,
                    &nd,
                    point.dop(),
                    schedule,
                    true,
                    &shadow.plan,
                    deadline,
                )
            });
            des_s = rec.spans().last().map_or(0, |s| s.duration_ns()) as f64 * 1e-9;
            counters.des_groups += groups as u64;
            out.checks.require(report == result.report, || {
                format!("{label}: replayed DES report differs from the launch's")
            });
        }
        None => out
            .checks
            .require(false, || format!("{label}: no profile to replay")),
    }
    shadow.supervisor.observe_launch(
        prepared.id,
        groups,
        point.cpu_cores > 0,
        point.gpu_eighths > 0,
        result.selection.predicted,
        &result.report,
    );
    (rec.seconds_since(first), des_s)
}

/// A launch's simulated kernel time (bits) and health counters.
type Path = (u64, RuntimeHealth);

/// Fastest latency of each distinct piece of work in the faulted
/// sequence: one launch taking one path (its health counters: cache hit
/// or miss, pinned, quarantined, recovered) to one simulated result, in
/// whichever pass and repetition it ran.
#[derive(Default)]
struct SameWork {
    /// `(launch, its path when it succeeded, fastest seconds)`.
    work: Vec<(usize, Option<Path>, f64)>,
    /// Index into `work` of each operation of the sequence.
    of_op: Vec<usize>,
}

impl SameWork {
    fn record(&mut self, op: usize, launch: usize, result: Option<&LaunchResult>, latency: f64) {
        let key: Option<Path> = result.map(|r| (r.kernel_time_s.to_bits(), r.health));
        let w = match self.work.iter().position(|w| w.0 == launch && w.1 == key) {
            Some(w) => w,
            None => {
                self.work.push((launch, key, f64::INFINITY));
                self.work.len() - 1
            }
        };
        self.work[w].2 = self.work[w].2.min(latency);
        // Every repetition runs the same work at the same operation.
        if op == self.of_op.len() {
            self.of_op.push(w);
        }
    }

    fn fastest(&self) -> Vec<f64> {
        self.of_op.iter().map(|&w| self.work[w].2).collect()
    }
}

/// Simulated results of the window, summed.
#[derive(Default)]
struct Window {
    kernel_s: f64,
    oracle_frac_sum: f64,
    launches: u64,
    health: RuntimeHealth,
}

pub fn run(stream: Stream, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut recorder = traced.then(Recorder::default);
    let (state, setup_s) = harness::repeated_setup(SETUPS, |last| {
        setup(stream, seed, recorder.as_mut().filter(|_| last))
    });
    let State {
        mut dopia,
        mut shared,
        sources,
        mut programs,
        launches,
        mut counters,
    } = state?;
    out.e2e("setup_s", setup_s, "s");

    let window = stream.window();
    let passes = stream.sequence();
    let mut sums = Window::default();
    // Fastest latency of each operation of the sequence over the untraced
    // repetitions, and every untraced latency up to a cap.
    let mut best: Vec<f64> = Vec::new();
    let mut untraced: Vec<f64> = Vec::new();
    let mut same_work = SameWork::default();
    let mut traced_samples: Vec<f64> = Vec::new();
    // Simulated kernel time of each operation in the first repetition.
    let mut first_times: Vec<f64> = Vec::new();
    let mut final_cache = CacheStats::default();
    let clock = Clock::start(seconds);
    let mut rep = 0usize;
    while rep < MIN_REPS || !clock.expired() {
        // Later repetitions start over on a fresh runtime (empty decision
        // cache, new supervisor) with the same inputs.
        if rep > 0 {
            dopia = fresh_runtime(stream)?;
            programs = build_programs(stream, &dopia, &sources, None, None)?;
        }
        let mut shadow = Shadow {
            supervisor: Supervisor::new(SupervisionConfig::default()),
            plan: dopia.fault_plan().cloned().unwrap_or_default(),
            profiles: vec![None; launches.len()],
        };
        let mut position = 0usize;
        for pass in 0..passes {
            let mut rec = recorder.as_mut().filter(|_| rep == 0 && pass < window);
            let in_window = rep == 0 && pass < window;
            let mut queue = CommandQueue::new(&dopia);
            let mut times = vec![f64::NAN; launches.len()];
            for (i, launch) in launches.iter().enumerate() {
                let mut own = Memory::new();
                let generated;
                let (args, nd, mem): (&[ArgValue], NdRange, &mut Memory) = match &launch.inputs {
                    Inputs::Shared { args, nd } => (args, *nd, &mut shared),
                    Inputs::Synthetic { params, seed } => {
                        generated = match rec.as_deref_mut() {
                            Some(r) => r.time("workloads.build", || params.build(&mut own, *seed)),
                            None => params.build(&mut own, *seed),
                        };
                        (&generated.args, generated.nd, &mut own)
                    }
                };
                out.attempted += 1;
                if let Some(r) = rec.as_deref_mut() {
                    r.begin_op();
                }
                let op_span = rec.as_deref_mut().map(|r| r.enter("op.launch"));
                let built;
                let (program, build_s) = if stream == Stream::Cold {
                    let (p, s) = build_program(
                        &dopia,
                        &sources[launch.source],
                        rec.as_deref_mut(),
                        Some(&mut counters),
                    );
                    match p {
                        Ok(p) => {
                            built = p;
                            (&built, s)
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.checks
                                .require(false, || format!("{}: build failed: {e}", launch.label));
                            if let (Some(r), Some(s)) = (rec.as_deref_mut(), op_span) {
                                r.exit(s);
                            }
                            position += 1;
                            continue;
                        }
                    }
                } else {
                    (&programs[launch.source], 0.0)
                };
                let enqueue_span = rec.as_deref_mut().map(|r| r.enter("runtime.enqueue"));
                let t0 = Instant::now();
                let result = queue
                    .enqueue_nd_range_kernel(program, &launch.kernel, args, nd, mem)
                    .map(|e| e.result);
                let enqueue_s = t0.elapsed().as_secs_f64();
                if let (Some(r), Some(s)) = (rec.as_deref_mut(), enqueue_span) {
                    r.exit(s);
                }
                let latency = build_s + enqueue_s;
                if rec.is_some() {
                    traced_samples.push(latency);
                } else {
                    if best.len() <= position {
                        best.resize(position + 1, f64::INFINITY);
                    }
                    best[position] = best[position].min(latency);
                    same_work.record(position, i, result.as_ref().ok(), latency);
                    if untraced.len() < MAX_SAMPLES {
                        untraced.push(latency);
                    }
                }
                position += 1;
                let result = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.failed += 1;
                        if stream != Stream::Faulted {
                            out.checks
                                .require(false, || format!("{}: launch failed: {e}", launch.label));
                        }
                        if let (Some(r), Some(s)) = (rec.as_deref_mut(), op_span) {
                            r.exit(s);
                        }
                        continue;
                    }
                };
                let rep_ = &result.report;
                let accounted = rep_.cpu_groups
                    + rep_.gpu_groups
                    + rep_.recovered_groups
                    + rep_.redispatched_groups
                    + rep_.lost_groups;
                out.checks.require(accounted == nd.num_groups(), || {
                    format!(
                        "{}: {} of {} work-groups accounted for",
                        launch.label,
                        accounted,
                        nd.num_groups()
                    )
                });
                out.checks.require(
                    result.kernel_time_s.is_finite() && result.kernel_time_s > 0.0,
                    || format!("{}: kernel time {}", launch.label, result.kernel_time_s),
                );
                if let Some(r) = rec.as_deref_mut() {
                    let prepared = program
                        .kernel(&launch.kernel)
                        .expect("a launched kernel exists");
                    let (replay_s, des_s) = replay_launch(
                        r,
                        &dopia,
                        &mut shadow,
                        i,
                        prepared,
                        args,
                        nd,
                        mem,
                        &result,
                        &mut out,
                        &mut counters,
                    );
                    counters.launches.push((enqueue_s, replay_s, des_s));
                    counters.real_s += enqueue_s;
                    counters.attributed_s += replay_s;
                    if let Some(s) = op_span {
                        r.exit(s);
                    }
                }
                if in_window {
                    sums.launches += 1;
                    sums.oracle_frac_sum += launch.oracle_s / result.kernel_time_s;
                    counters.dram_bytes += rep_.dram_bytes;
                    counters.cpu_busy_s += rep_.cpu_busy_s;
                    counters.gpu_busy_s += rep_.gpu_busy_s;
                    counters.lost_groups += rep_.lost_groups as u64;
                }
                times[i] = result.kernel_time_s;
            }
            let summary = queue.finish();
            if stream != Stream::Faulted {
                out.checks.require(summary.health.is_nominal(), || {
                    format!("pass {pass} was not nominal: {:?}", summary.health)
                });
            }
            if in_window {
                sums.kernel_s += summary.kernel_time_s;
                sums.health.absorb(&summary.health);
            }
            if rep == 0 && pass + 1 == window {
                counters.cache = dopia.cache_stats();
            }
            // Every repetition simulates the same kernel times, pass by
            // pass; so do all hot and cold passes of one repetition.
            let reference = if rep == 0 && (pass == 0 || stream == Stream::Faulted) {
                None
            } else if stream == Stream::Faulted {
                first_times.get(pass * launches.len()..(pass + 1) * launches.len())
            } else {
                first_times.get(..launches.len())
            };
            if let Some(reference) = reference {
                out.checks.require(times == reference, || {
                    format!("repetition {rep} pass {pass} simulated other kernel times")
                });
            }
            if rep == 0 {
                first_times.extend(times);
            }
        }
        final_cache = dopia.cache_stats();
        match stream {
            Stream::Hot => {
                let c = dopia.cache_stats();
                let ratio = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
                out.checks
                    .require(ratio >= 0.99, || format!("hit ratio {ratio} below 0.99"));
            }
            Stream::Cold => out.checks.require(final_cache.hits == 0, || {
                format!(
                    "{} cache hits on a stream of first touches",
                    final_cache.hits
                )
            }),
            Stream::Faulted => out.checks.require(!sums.health.is_nominal(), || {
                "the injected GPU hang left no trace in the launches' health".to_string()
            }),
        }
        rep += 1;
    }

    if stream == Stream::Faulted {
        // A faulted repetition takes seconds, so each operation gets only
        // a few; most passes repeat the same pinned exact-DES work.
        best = same_work.fastest();
    }
    out.latencies(&best, best.iter().sum(), rep);
    out.e2e("sim_kernel_s", sums.kernel_s, "s");
    out.e2e(
        "peak_rss_mb",
        harness::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    out.e2e(
        "oracle_frac",
        sums.oracle_frac_sum / sums.launches.max(1) as f64,
        "ratio",
    );
    out.note("passes_per_repetition", passes as f64);
    out.note("window_passes", window as f64);
    out.note(
        "launches_per_pass",
        first_times.len() as f64 / passes as f64,
    );
    out.note("cache_hits", final_cache.hits as f64);
    out.note("cache_misses", final_cache.misses as f64);
    harness::whole_run_notes(&mut out, &untraced);

    if let Some(rec) = recorder {
        counters.health = sums.health;
        counters.traced_median_s = stats::median(&traced_samples);
        counters.untraced_median_s = stats::median(&untraced);
        layers::report(&mut out, rec.spans(), &counters);
        out.spans = Some(rec);
    }
    Ok(out)
}
