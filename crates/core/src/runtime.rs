//! The Dopia runtime (paper Section 4, Fig. 4, and Algorithm 1).
//!
//! [`Dopia`] mirrors the OpenCL entry points the paper interposes on:
//!
//! * [`Dopia::create_program_with_source`] — compile-time path: parse and
//!   check the kernels, extract the Table 1 code features, generate the
//!   malleable GPU variants (Figs. 5/6) and the CPU code (Fig. 7).
//! * [`Dopia::enqueue_nd_range_kernel`] — run-time path: combine static and
//!   launch features, sweep the ML model over the 44 DoP configurations,
//!   then co-execute with the dynamic CPU-pull / GPU-push distributor
//!   (Algorithm 1; realized by the simulator's DES).
//!
//! Model-inference wall time is measured for real and added to the
//! simulated kernel time, matching the paper's accounting ("all runtime
//! overhead … is included").

use crate::cache::{CacheStats, CachedDecision, DecisionCache, LaunchKey};
use crate::codegen::{generate_cpu_source, malleable::transform_malleable};
use crate::configs::{config_space, find_config, DopPoint};
use crate::features::{extract_code_features, CodeFeatures};
use crate::model::{heuristic_select, PerfModel, Selection};
use crate::supervision::{
    DevicePin, LaunchEvents, SupervisionConfig, SupervisionStats, Supervisor,
};
use sim::fault::FaultPlan;
use sim::interp::ExecError;
use sim::{
    ArgValue, BufferId, CompiledKernel, Engine, KernelProfile, Memory, NdRange, Schedule, SimReport,
};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-unique id source for [`PreparedKernel`]s (the launch cache keys
/// on it; ids never repeat, so a rebuilt program never aliases an old
/// program's cached decisions).
static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum DopiaError {
    Compile(clc::CompileError),
    Transform(crate::codegen::malleable::TransformError),
    Exec(sim::interp::ExecError),
    UnknownKernel(String),
    InvalidLaunch(String),
    /// A condition a retry may clear (a busy device, an injected transient
    /// fault). [`DopiaError::is_transient`] returns `true` only for this
    /// variant, and the queue's bounded retry acts on it.
    Transient(String),
}

impl DopiaError {
    /// Whether retrying the failed operation could succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DopiaError::Transient(_))
    }
}

impl fmt::Display for DopiaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DopiaError::Compile(e) => write!(f, "compile error: {}", e),
            DopiaError::Transform(e) => write!(f, "{}", e),
            DopiaError::Exec(e) => write!(f, "{}", e),
            DopiaError::UnknownKernel(n) => write!(f, "unknown kernel `{}`", n),
            DopiaError::InvalidLaunch(m) => write!(f, "invalid launch: {}", m),
            DopiaError::Transient(m) => write!(f, "transient failure: {}", m),
        }
    }
}

impl std::error::Error for DopiaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DopiaError::Compile(e) => Some(e),
            DopiaError::Transform(e) => Some(e),
            DopiaError::Exec(e) => Some(e),
            DopiaError::UnknownKernel(_)
            | DopiaError::InvalidLaunch(_)
            | DopiaError::Transient(_) => None,
        }
    }
}

impl From<clc::CompileError> for DopiaError {
    fn from(e: clc::CompileError) -> Self {
        DopiaError::Compile(e)
    }
}

impl From<sim::interp::ExecError> for DopiaError {
    fn from(e: sim::interp::ExecError) -> Self {
        DopiaError::Exec(e)
    }
}

/// How much of Dopia's management a prepared kernel supports.
///
/// Graceful degradation: a kernel the malleability transform cannot handle
/// (e.g. `get_global_id` with a non-literal dimension) no longer fails the
/// whole program build. It is kept launchable in a reduced mode — the
/// original kernel on the GPU alone, the way an unmanaged OpenCL runtime
/// would run it — while every other kernel in the program stays fully
/// managed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradedMode {
    /// Malleable GPU variants and CPU code are available; launches get the
    /// full model-driven CPU+GPU co-execution.
    FullyManaged,
    /// Only the original kernel is usable: launches run GPU-only with a
    /// single static dispatch and no model selection.
    GpuOriginalOnly {
        /// Why the transform rejected the kernel.
        reason: String,
    },
}

/// A kernel after Dopia's compile-time analysis and rewriting.
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    /// Process-unique identity, stamped at program build time. The launch
    /// decision cache keys on it.
    pub id: u64,
    /// The unmodified kernel.
    pub original: clc::Kernel,
    /// Static code features (Table 1, top six rows).
    pub features: CodeFeatures,
    /// Whether the kernel is fully managed or degraded.
    pub degraded_mode: DegradedMode,
    /// Malleable GPU variant for 1-D launches (Fig. 5); `None` when
    /// degraded.
    pub malleable_1d: Option<clc::Kernel>,
    /// Malleable GPU variant for 2-D launches (Fig. 6); `None` when
    /// degraded.
    pub malleable_2d: Option<clc::Kernel>,
    /// Generated CPU code (Fig. 7), 1-D and 2-D.
    pub cpu_source_1d: String,
    pub cpu_source_2d: String,
    /// The original kernel lowered to flat bytecode at program build time;
    /// every profile of this kernel runs on the register VM against this
    /// handle. A kernel the VM cannot run (a `barrier()` nested in control
    /// flow, a register-file overflow) keeps the lowering error instead:
    /// the program still builds, and launching that kernel returns it as
    /// [`DopiaError::Exec`]. Invalidated with the prepared kernel itself: a
    /// rebuild mints a new [`CompiledKernel`] (fresh `code_id`), and the
    /// launch cache keys on that id.
    pub compiled: Result<Arc<CompiledKernel>, ExecError>,
}

impl PreparedKernel {
    /// `code_id` of the compiled bytecode (cache keys embed this), or 0 for
    /// a kernel that failed to lower and so never reaches the cache.
    pub fn code_id(&self) -> u64 {
        self.compiled.as_ref().map_or(0, |c| c.code_id())
    }
    /// The malleable variant for a launch dimensionality (`None` when the
    /// kernel is degraded to [`DegradedMode::GpuOriginalOnly`]).
    pub fn malleable(&self, work_dim: usize) -> Option<&clc::Kernel> {
        if work_dim == 1 {
            self.malleable_1d.as_ref()
        } else {
            self.malleable_2d.as_ref()
        }
    }

    /// Whether launches of this kernel run in a reduced mode.
    pub fn is_degraded(&self) -> bool {
        !matches!(self.degraded_mode, DegradedMode::FullyManaged)
    }
}

/// Counters of everything the runtime absorbed instead of failing: the
/// observability half of graceful degradation. Attached to every
/// [`LaunchResult`] and aggregated per queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Launches whose model predictions were unusable (NaN/∞/negative for
    /// every configuration) and fell back to the GPU-only heuristic.
    pub prediction_fallbacks: u32,
    /// Launches of kernels in [`DegradedMode::GpuOriginalOnly`].
    pub degraded_launches: u32,
    /// Transient errors absorbed by retry (the queue's bounded backoff).
    pub transient_retries: u32,
    /// Watchdog recoveries during simulated co-execution (hung device
    /// reclaimed and its work re-distributed).
    pub watchdog_recoveries: u32,
    /// Launches served from the decision cache (profile + model sweep
    /// skipped entirely). Informational: does not affect
    /// [`RuntimeHealth::is_nominal`].
    pub launch_cache_hits: u32,
    /// Launches that missed the decision cache and paid the full
    /// characterization cost. Informational.
    pub launch_cache_misses: u32,
    /// Work-groups a launch deadline reclaimed from a straggling dispatch
    /// and a surviving device completed (supervision layer).
    pub redispatched_groups: u32,
    /// Device circuit breakers tripped open by launch outcomes.
    pub breaker_trips: u32,
    /// Launches pinned to one device's static config because the other
    /// device's breaker was open.
    pub breaker_pinned_launches: u32,
    /// Kernel classes whose model entered quarantine (misprediction EWMA
    /// over threshold).
    pub model_quarantines: u32,
    /// Launches served by the feature heuristic because the kernel's
    /// model was quarantined.
    pub quarantined_launches: u32,
}

impl RuntimeHealth {
    /// Field-wise accumulate (queue aggregation).
    pub fn absorb(&mut self, other: &RuntimeHealth) {
        self.prediction_fallbacks += other.prediction_fallbacks;
        self.degraded_launches += other.degraded_launches;
        self.transient_retries += other.transient_retries;
        self.watchdog_recoveries += other.watchdog_recoveries;
        self.launch_cache_hits += other.launch_cache_hits;
        self.launch_cache_misses += other.launch_cache_misses;
        self.redispatched_groups += other.redispatched_groups;
        self.breaker_trips += other.breaker_trips;
        self.breaker_pinned_launches += other.breaker_pinned_launches;
        self.model_quarantines += other.model_quarantines;
        self.quarantined_launches += other.quarantined_launches;
    }

    /// `true` when nothing went wrong anywhere. Only the fault counters
    /// matter here — cache hits/misses are normal operation, not absorbed
    /// failures. Every supervision intervention (a redispatch, a breaker
    /// trip, a pinned or quarantined launch) counts: it means something
    /// *did* go wrong, even though the launch completed.
    pub fn is_nominal(&self) -> bool {
        self.prediction_fallbacks == 0
            && self.degraded_launches == 0
            && self.transient_retries == 0
            && self.watchdog_recoveries == 0
            && self.redispatched_groups == 0
            && self.breaker_trips == 0
            && self.breaker_pinned_launches == 0
            && self.model_quarantines == 0
            && self.quarantined_launches == 0
    }
}

/// A compiled program: all kernels analyzed and rewritten.
#[derive(Debug, Clone)]
pub struct Program {
    pub source: String,
    pub kernels: Vec<PreparedKernel>,
}

impl Program {
    pub fn kernel(&self, name: &str) -> Option<&PreparedKernel> {
        self.kernels.iter().find(|k| k.original.name == name)
    }
}

/// The result of one managed launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchResult {
    /// DoP selection the model made, incl. measured inference wall time.
    pub selection: Selection,
    /// Simulated co-execution report at the chosen configuration.
    pub report: SimReport,
    /// Simulated kernel time without overhead (== `report.time_s`).
    pub kernel_time_s: f64,
    /// End-to-end time: kernel time plus model-inference overhead — the
    /// number the paper's evaluation charges to Dopia.
    pub total_time_s: f64,
    /// What the runtime absorbed to complete this launch.
    pub health: RuntimeHealth,
}

/// The Dopia runtime for one platform + one trained model.
#[derive(Debug)]
pub struct Dopia {
    engine: Engine,
    model: PerfModel,
    space: Vec<DopPoint>,
    /// GPU chunk divisor of Algorithm 1 (the paper uses 10).
    pub chunk_divisor: usize,
    /// Injected faults applied to every subsequent launch (testing and
    /// resilience experiments); `None` means a healthy machine.
    fault_plan: Option<FaultPlan>,
    /// Remaining injected transient `profile()` failures.
    profile_failures_left: AtomicU32,
    /// Memoized launch decisions (see [`crate::cache`]).
    launch_cache: Mutex<DecisionCache>,
    /// Runtime toggle for the launch cache (CLI `--no-launch-cache`).
    cache_enabled: AtomicBool,
    /// Self-healing supervision: circuit breakers, launch deadlines and
    /// model quarantine (see [`crate::supervision`]).
    supervisor: Mutex<Supervisor>,
}

impl Dopia {
    pub fn new(engine: Engine, model: PerfModel) -> Self {
        let space = config_space(&engine.platform);
        Dopia {
            engine,
            model,
            space,
            chunk_divisor: 10,
            fault_plan: None,
            profile_failures_left: AtomicU32::new(0),
            launch_cache: Mutex::new(DecisionCache::default()),
            cache_enabled: AtomicBool::new(true),
            supervisor: Mutex::new(Supervisor::new(SupervisionConfig::default())),
        }
    }

    /// Replace the supervision layer with a fresh one under `config`
    /// (resets breaker and quarantine state; CLI `--no-supervision`,
    /// `--breaker-threshold`, `--deadline-factor`).
    pub fn set_supervision_config(&self, config: SupervisionConfig) {
        *self.supervisor.lock().unwrap() = Supervisor::new(config);
    }

    /// The active supervision tunables.
    pub fn supervision_config(&self) -> SupervisionConfig {
        self.supervisor.lock().unwrap().config()
    }

    /// Point-in-time supervision state (breaker states, trip and
    /// quarantine totals) for health reports.
    pub fn supervision_stats(&self) -> SupervisionStats {
        self.supervisor.lock().unwrap().stats()
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    pub fn space(&self) -> &[DopPoint] {
        &self.space
    }

    /// Inject a [`FaultPlan`] into every subsequent launch: DES-level
    /// faults (hangs, stalls, slowdowns) play out with watchdog recovery,
    /// and the plan's leading transient profile failures make
    /// [`Dopia::profile`] return [`DopiaError::Transient`] that many times.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.profile_failures_left
            .store(plan.transient_profile_failures, Ordering::Relaxed);
        self.fault_plan = Some(plan);
    }

    /// Back to a healthy machine.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
        self.profile_failures_left.store(0, Ordering::Relaxed);
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Enable or disable the launch decision cache. Disabling does not
    /// drop existing entries (use [`Dopia::clear_launch_cache`]); it just
    /// routes every launch through the full profile + model sweep.
    pub fn set_launch_cache_enabled(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the launch decision cache is consulted.
    pub fn launch_cache_enabled(&self) -> bool {
        self.cache_enabled.load(Ordering::Relaxed)
    }

    /// Cumulative cache counters (hits, misses, evictions, invalidations).
    pub fn cache_stats(&self) -> CacheStats {
        self.launch_cache.lock().unwrap().stats()
    }

    /// Drop every cached decision that references `id` — the explicit
    /// invalidation hook for buffer rebinds performed outside
    /// [`Memory::resize`] / [`Memory::rebind`].
    pub fn invalidate_buffer(&self, id: BufferId) {
        self.launch_cache.lock().unwrap().invalidate_buffer(id);
    }

    /// Drop every cached decision (counters are preserved).
    pub fn clear_launch_cache(&self) {
        self.launch_cache.lock().unwrap().clear();
    }

    /// Consume one injected transient profile failure, if any remain.
    fn take_injected_profile_failure(&self) -> bool {
        self.profile_failures_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Compile-time path: analyze and rewrite every kernel in `source`.
    pub fn create_program_with_source(&self, source: &str) -> Result<Program, DopiaError> {
        self.create_program_with_options(source, &[])
    }

    /// Like [`Dopia::create_program_with_source`] but with `-D name=value`
    /// build options (the `clBuildProgram` options string equivalent);
    /// sources may use `#define`/`#ifdef`.
    pub fn create_program_with_options(
        &self,
        source: &str,
        defines: &[(String, String)],
    ) -> Result<Program, DopiaError> {
        let program = clc::compile_with_defines(source, defines)?;
        let mut kernels = Vec::with_capacity(program.kernels.len());
        for kernel in program.kernels {
            let features = extract_code_features(&kernel);
            // Graceful degradation: a kernel the transform rejects is kept
            // launchable as GPU-original-only instead of failing the whole
            // program (an unmanaged kernel is strictly better than no
            // program).
            let (degraded_mode, malleable_1d, malleable_2d) =
                match (transform_malleable(&kernel, 1), transform_malleable(&kernel, 2)) {
                    (Ok(m1), Ok(m2)) => (DegradedMode::FullyManaged, Some(m1), Some(m2)),
                    (Err(e), _) | (_, Err(e)) => {
                        (DegradedMode::GpuOriginalOnly { reason: e.to_string() }, None, None)
                    }
                };
            let cpu_source_1d = generate_cpu_source(&kernel, 1);
            let cpu_source_2d = generate_cpu_source(&kernel, 2);
            // Lower to bytecode once per program build.
            let compiled = sim::compile_kernel(&kernel).map(Arc::new);
            kernels.push(PreparedKernel {
                id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
                original: kernel,
                features,
                degraded_mode,
                malleable_1d,
                malleable_2d,
                cpu_source_1d,
                cpu_source_2d,
                compiled,
            });
        }
        Ok(Program { source: source.to_string(), kernels })
    }

    /// Run-time path: select the DoP and co-execute.
    ///
    /// Repeated launches of the same prepared kernel with the same NDRange
    /// and argument signature (buffer shapes + scalar values) are served
    /// from the decision cache: the sampled-interpretation profile and the
    /// 44-point model sweep — the two dominant hot-path costs — are skipped
    /// and only the co-execution itself runs. A hit reports the measured
    /// cache-lookup wall time as `selection.inference_s`, keeping the
    /// paper's overhead accounting honest. Degraded kernels bypass the
    /// cache (they have no model selection worth memoizing).
    ///
    /// Every launch first consults the supervision layer: an open device
    /// breaker pins the launch to the surviving device's static config, a
    /// quarantined model is replaced by the feature heuristic, and a
    /// deadline (when the kernel class has launch history) arms straggler
    /// re-dispatch in the DES. Supervised overrides bypass the decision
    /// cache in *both* directions — they neither read nor write it — so a
    /// decision made under a fault never outlives the fault.
    pub fn enqueue_nd_range_kernel(
        &self,
        program: &Program,
        kernel_name: &str,
        args: &[ArgValue],
        nd: NdRange,
        mem: &mut Memory,
    ) -> Result<LaunchResult, DopiaError> {
        let prepared = program
            .kernel(kernel_name)
            .ok_or_else(|| DopiaError::UnknownKernel(kernel_name.to_string()))?;
        nd.validate().map_err(DopiaError::InvalidLaunch)?;
        let groups = nd.num_groups();
        let guidance = self.supervisor.lock().unwrap().begin_launch(prepared.id, groups);

        // Degraded kernels have no alternative device and no model: the
        // supervisor only observes (its outcomes still feed the GPU
        // breaker other kernels consult).
        if prepared.is_degraded() {
            let profile = self.profile(prepared, args, nd, mem)?;
            let mut result = self.launch_degraded(&profile, nd);
            self.observe_launch(prepared.id, groups, &mut result);
            return Ok(result);
        }

        // Supervision override: an open breaker pins the device choice, a
        // quarantined model yields to the feature heuristic. Either way
        // the decision is fault-driven, not launch-driven — bypass the
        // cache entirely so it is neither served stale nor recorded.
        let override_selection = if let Some(pin) = guidance.pin {
            Some((self.pinned_selection(pin), true))
        } else if !guidance.use_model {
            let cores = self.engine.platform.cpu.cores;
            Some((heuristic_select(prepared.features, &self.space, cores), false))
        } else {
            None
        };
        if let Some((selection, pinned)) = override_selection {
            let profile = self.profile(prepared, args, nd, mem)?;
            let mut result =
                self.launch_with_selection(&profile, nd, selection, guidance.deadline_s);
            // The override is supervision healing, not a broken model.
            result.health.prediction_fallbacks = 0;
            if pinned {
                result.health.breaker_pinned_launches = 1;
            } else {
                result.health.quarantined_launches = 1;
            }
            self.observe_launch(prepared.id, groups, &mut result);
            return Ok(result);
        }

        if !self.cache_enabled.load(Ordering::Relaxed) {
            let profile = self.profile(prepared, args, nd, mem)?;
            let mut result =
                self.launch_selected(prepared, &profile, nd, guidance.deadline_s);
            self.observe_launch(prepared.id, groups, &mut result);
            return Ok(result);
        }

        let lookup_start = Instant::now();
        let key = LaunchKey::new(prepared.id, prepared.code_id(), nd, args, mem);
        let cached = self.launch_cache.lock().unwrap().get(&key);
        if let Some(hit) = cached {
            if let Some(mut selection) = hit.selection {
                selection.inference_s = lookup_start.elapsed().as_secs_f64();
                let mut result =
                    self.launch_with_selection(&hit.profile, nd, selection, guidance.deadline_s);
                result.health.launch_cache_hits = 1;
                self.observe_launch(prepared.id, groups, &mut result);
                return Ok(result);
            }
        }

        let profile = self.profile(prepared, args, nd, mem)?;
        let mut result = self.launch_selected(prepared, &profile, nd, guidance.deadline_s);
        result.health.launch_cache_misses = 1;
        let events = self.observe_launch(prepared.id, groups, &mut result);
        // Fallback selections come from a model gone wrong, and a launch
        // that just quarantined its model was steered by predictions now
        // known bad — neither may be frozen into the cache.
        if !result.selection.fallback && !events.quarantine_entered {
            self.launch_cache.lock().unwrap().insert(
                key,
                CachedDecision { profile, selection: Some(result.selection) },
            );
        }
        Ok(result)
    }

    /// Model selection + supervised co-execution (the cache-miss tail).
    fn launch_selected(
        &self,
        prepared: &PreparedKernel,
        profile: &KernelProfile,
        nd: NdRange,
        deadline_s: Option<f64>,
    ) -> LaunchResult {
        let selection = self.model.select_config(
            prepared.features,
            nd.work_dim,
            nd.global_size(),
            nd.local_size(),
            &self.space,
        );
        self.launch_with_selection(profile, nd, selection, deadline_s)
    }

    /// Feed a completed launch back into the supervisor and fold the
    /// resulting supervision counters into the launch's health. A model
    /// entering quarantine also invalidates the kernel's cached decisions
    /// — they were produced by the now-distrusted predictions.
    fn observe_launch(
        &self,
        kernel_id: u64,
        groups: usize,
        result: &mut LaunchResult,
    ) -> LaunchEvents {
        let point = result.selection.point;
        let events = self.supervisor.lock().unwrap().observe_launch(
            kernel_id,
            groups,
            point.cpu_cores > 0,
            point.gpu_eighths > 0,
            result.selection.predicted,
            &result.report,
        );
        result.health.redispatched_groups = result.report.redispatched_groups as u32;
        result.health.breaker_trips = events.breaker_trips;
        result.health.model_quarantines = events.quarantine_entered as u32;
        if events.quarantine_entered {
            self.launch_cache.lock().unwrap().invalidate_kernel(kernel_id);
        }
        events
    }

    /// The static config a breaker-pinned launch runs at: every core of
    /// the surviving device, nothing on the broken one.
    fn pinned_selection(&self, pin: DevicePin) -> Selection {
        let index = match pin {
            DevicePin::Cpu => find_config(&self.space, self.engine.platform.cpu.cores, 0)
                .unwrap_or_else(|| nearest_config(&self.space, 1.0, 0.0)),
            DevicePin::Gpu => find_config(&self.space, 0, 8)
                .unwrap_or_else(|| nearest_config(&self.space, 0.0, 1.0)),
        };
        Selection {
            index,
            point: self.space[index],
            predicted: f64::NAN, // no model was consulted
            inference_s: 0.0,
            fallback: true,
        }
    }

    /// Characterize a launch (separated so sweeps can reuse the profile).
    pub fn profile(
        &self,
        prepared: &PreparedKernel,
        args: &[ArgValue],
        nd: NdRange,
        mem: &mut Memory,
    ) -> Result<KernelProfile, DopiaError> {
        if self.take_injected_profile_failure() {
            return Err(DopiaError::Transient(
                "injected transient profile failure".to_string(),
            ));
        }
        // The bytecode cached at program build time, skipping per-launch
        // lowering.
        let ck = prepared.compiled.as_ref().map_err(|e| DopiaError::Exec(e.clone()))?;
        Ok(self.engine.profile_compiled(ck, args, &nd, mem)?)
    }

    /// Model selection + simulated co-execution for an already-profiled
    /// launch. Degraded kernels skip selection and run GPU-original-only;
    /// unusable predictions fall back to the GPU-only heuristic. Either
    /// way the launch completes and [`LaunchResult::health`] says what was
    /// absorbed.
    pub fn launch_with_profile(
        &self,
        prepared: &PreparedKernel,
        profile: &KernelProfile,
        nd: NdRange,
    ) -> LaunchResult {
        if prepared.is_degraded() {
            return self.launch_degraded(profile, nd);
        }
        self.launch_selected(prepared, profile, nd, None)
    }

    /// Simulated co-execution at an already-selected configuration — the
    /// shared tail of the miss path (fresh selection), the hit path
    /// (cached selection) and the supervised override paths. `deadline_s`
    /// (from the supervisor's per-class launch history) arms straggler
    /// re-dispatch in the DES.
    fn launch_with_selection(
        &self,
        profile: &KernelProfile,
        nd: NdRange,
        selection: Selection,
        deadline_s: Option<f64>,
    ) -> LaunchResult {
        let no_faults = FaultPlan::none();
        let plan = self.fault_plan.as_ref().unwrap_or(&no_faults);
        // Straggler re-dispatch moves reclaimed work to the *other*
        // device; a single-device configuration has no survivor, so a
        // deadline there could only lose work it would otherwise finish.
        let deadline_s = deadline_s
            .filter(|_| selection.point.cpu_cores > 0 && selection.point.gpu_eighths > 0);
        let report = self.engine.simulate_supervised(
            profile,
            &nd,
            selection.point.dop(),
            Schedule::Dynamic { chunk_divisor: self.chunk_divisor },
            true, // Dopia always runs the malleable GPU kernel
            plan,
            deadline_s,
        );
        let health = RuntimeHealth {
            prediction_fallbacks: selection.fallback as u32,
            watchdog_recoveries: report.watchdog_fires,
            ..RuntimeHealth::default()
        };
        LaunchResult {
            selection,
            report,
            kernel_time_s: report.time_s,
            total_time_s: report.time_s + selection.inference_s,
            health,
        }
    }

    /// The reduced launch path for [`DegradedMode::GpuOriginalOnly`]
    /// kernels: the original kernel, GPU alone, one static dispatch, no
    /// model sweep — exactly what an unmanaged OpenCL runtime would do.
    fn launch_degraded(&self, profile: &KernelProfile, nd: NdRange) -> LaunchResult {
        let no_faults = FaultPlan::none();
        let plan = self.fault_plan.as_ref().unwrap_or(&no_faults);
        // The GPU-only full-DoP point always exists in the Table 3 space;
        // nearest_config covers hypothetical reduced spaces without a
        // panic path. No deadline: a single-device run has no survivor to
        // re-dispatch stragglers to.
        let index = find_config(&self.space, 0, 8)
            .unwrap_or_else(|| nearest_config(&self.space, 0.0, 1.0));
        let point = self.space[index];
        let report = self.engine.simulate_supervised(
            profile,
            &nd,
            point.dop(),
            Schedule::Static { cpu_fraction: 0.0 },
            false, // original kernel, not the malleable rewrite
            plan,
            None,
        );
        let selection = Selection {
            index,
            point,
            predicted: f64::NAN, // no model was consulted
            inference_s: 0.0,
            fallback: true,
        };
        let health = RuntimeHealth {
            degraded_launches: 1,
            watchdog_recoveries: report.watchdog_fires,
            ..RuntimeHealth::default()
        };
        LaunchResult {
            selection,
            report,
            kernel_time_s: report.time_s,
            total_time_s: report.time_s,
            health,
        }
    }
}

/// Index of the space point closest to the given utilization targets
/// (total function: any non-empty space yields an index).
fn nearest_config(space: &[DopPoint], cpu_util: f64, gpu_util: f64) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for (i, p) in space.iter().enumerate() {
        let dc = p.cpu_util - cpu_util;
        let dg = p.gpu_util - gpu_util;
        let d = dc * dc + dg * dg;
        if d < best.1 {
            best = (i, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::ModelKind;

    /// Training dominates these tests; share one runtime across the module.
    fn trained_dopia() -> &'static Dopia {
        static DOPIA: std::sync::OnceLock<Dopia> = std::sync::OnceLock::new();
        DOPIA.get_or_init(|| {
            let engine = Engine::kaveri();
            let (data, _) = crate::training::tiny_training_set(&engine);
            let model = PerfModel::train(ModelKind::Dt, &data, 42);
            Dopia::new(engine, model)
        })
    }

    /// A private runtime for tests that mutate shared state (the launch
    /// cache, fault plans). The training sweep is shared; only model
    /// training repeats.
    fn fresh_dopia() -> Dopia {
        static DATA: std::sync::OnceLock<ml::Dataset> = std::sync::OnceLock::new();
        let engine = Engine::kaveri();
        let data = DATA.get_or_init(|| crate::training::tiny_training_set(&engine).0);
        let model = PerfModel::train(ModelKind::Dt, data, 42);
        Dopia::new(engine, model)
    }

    #[test]
    fn end_to_end_launch() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let prepared = program.kernel("gesummv").unwrap();
        assert!(prepared.features.mem_continuous >= 4);
        assert!(prepared.cpu_source_1d.contains("gesummv_CPU"));

        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 4096, 256);
        let result = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
            .unwrap();
        assert!(result.total_time_s > result.kernel_time_s);
        assert_eq!(
            result.report.cpu_groups + result.report.gpu_groups,
            built.nd.num_groups()
        );
        // The chosen config must be in the space.
        assert!(result.selection.index < dopia.space().len());
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source("__kernel void a() { }")
            .unwrap();
        let mut mem = Memory::new();
        let err = dopia
            .enqueue_nd_range_kernel(&program, "nope", &[], NdRange::d1(64, 64), &mut mem)
            .unwrap_err();
        assert!(matches!(err, DopiaError::UnknownKernel(_)));
    }

    #[test]
    fn invalid_ndrange_is_an_error() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source("__kernel void a(int x) { x = 0; }")
            .unwrap();
        let mut mem = Memory::new();
        let err = dopia
            .enqueue_nd_range_kernel(
                &program,
                "a",
                &[ArgValue::Int(0)],
                NdRange::d1(100, 64),
                &mut mem,
            )
            .unwrap_err();
        assert!(matches!(err, DopiaError::InvalidLaunch(_)));
    }

    /// Every degenerate NDRange surfaces as `InvalidLaunch` — never a
    /// panic or a division by zero deeper in the stack.
    #[test]
    fn degenerate_ndranges_are_invalid_launches_not_panics() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source("__kernel void a(int x) { x = 0; }")
            .unwrap();
        let cases = [
            NdRange::d1(0, 64),                  // zero global
            NdRange::d1(1024, 0),                // zero local
            NdRange::d1(64, 256),                // local > global
            NdRange::d2([64, 100], [16, 16]),    // 2-D mismatch in dim 1
            NdRange::d2([0, 64], [16, 16]),      // 2-D zero global
        ];
        for nd in cases {
            let mut mem = Memory::new();
            let err = dopia
                .enqueue_nd_range_kernel(&program, "a", &[ArgValue::Int(0)], nd, &mut mem)
                .unwrap_err();
            assert!(matches!(err, DopiaError::InvalidLaunch(_)), "{:?}", nd);
            assert!(!err.is_transient(), "{:?}", nd);
        }
    }

    #[test]
    fn build_options_reach_the_preprocessor() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_options(
                "#ifdef FAST\n__kernel void f(__global float* a) { a[get_global_id(0)] = SCALE; }\n#endif",
                &[("FAST".into(), String::new()), ("SCALE".into(), "2.5f".into())],
            )
            .unwrap();
        assert_eq!(program.kernels.len(), 1);
        // Without the define the kernel disappears entirely.
        let empty = dopia
            .create_program_with_options(
                "#ifdef FAST\n__kernel void f(__global float* a) { a[0] = 1.0f; }\n#endif",
                &[],
            )
            .unwrap();
        assert!(empty.kernels.is_empty());
    }

    #[test]
    fn compile_errors_propagate() {
        let dopia = trained_dopia();
        let err = dopia.create_program_with_source("__kernel void x(").unwrap_err();
        assert!(matches!(err, DopiaError::Compile(_)));
    }

    #[test]
    fn program_holds_both_malleable_variants() {
        let dopia = trained_dopia();
        let program = dopia
            .create_program_with_source(workloads::polybench::CONV2D_SRC)
            .unwrap();
        let k = program.kernel("conv2d").unwrap();
        assert!(!k.is_degraded());
        let src1 = clc::printer::print_kernel(k.malleable_1d.as_ref().unwrap());
        let src2 = clc::printer::print_kernel(k.malleable_2d.as_ref().unwrap());
        assert!(src1.contains("dop_gpu_mod"));
        assert!(src2.contains("get_local_size(0) * get_local_size(1)"));
        assert_eq!(k.malleable(2).unwrap().name, "conv2d");
    }

    #[test]
    fn untransformable_kernel_degrades_instead_of_failing() {
        // `get_global_id(d)` with a runtime dimension defeats the
        // malleability transform; the build must still succeed, keep the
        // good kernel fully managed, and leave the bad one launchable.
        let dopia = trained_dopia();
        let src = "__kernel void good(__global float* a) { a[get_global_id(0)] = 1.0f; }
                   __kernel void tricky(__global float* a, int d) { a[get_global_id(d)] = 2.0f; }";
        let program = dopia.create_program_with_source(src).unwrap();
        assert_eq!(program.kernels.len(), 2);
        let good = program.kernel("good").unwrap();
        assert!(!good.is_degraded());
        assert!(good.malleable(1).is_some());
        let tricky = program.kernel("tricky").unwrap();
        assert!(tricky.is_degraded());
        assert!(matches!(tricky.degraded_mode, DegradedMode::GpuOriginalOnly { .. }));
        assert!(tricky.malleable(1).is_none());

        // The degraded kernel still launches: GPU-only, all work done.
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 1024]);
        let result = dopia
            .enqueue_nd_range_kernel(
                &program,
                "tricky",
                &[ArgValue::Buffer(a), ArgValue::Int(0)],
                NdRange::d1(1024, 64),
                &mut mem,
            )
            .unwrap();
        assert_eq!(result.report.cpu_groups, 0);
        assert_eq!(result.report.gpu_groups, 16);
        assert_eq!(result.health.degraded_launches, 1);
        assert!(result.selection.fallback);
        assert!(!result.health.is_nominal());
    }

    #[test]
    fn error_chain_and_transience() {
        use std::error::Error;
        let dopia = trained_dopia();
        let compile_err = dopia.create_program_with_source("__kernel void x(").unwrap_err();
        assert!(compile_err.source().is_some(), "compile errors carry a cause");
        assert!(!compile_err.is_transient());
        let transient = DopiaError::Transient("device busy".into());
        assert!(transient.is_transient());
        assert!(transient.source().is_none());
    }

    #[test]
    fn repeated_identical_enqueue_hits_cache_and_skips_profiling() {
        let mut dopia = fresh_dopia();
        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 1024, 256);

        let first = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
            .unwrap();
        assert_eq!(first.health.launch_cache_misses, 1);
        assert_eq!(first.health.launch_cache_hits, 0);

        // Arm one injected transient profile failure. A cache hit must
        // never reach `profile()`, so an identical relaunch succeeds with
        // the failure still unconsumed...
        dopia.set_fault_plan(FaultPlan {
            transient_profile_failures: 1,
            ..FaultPlan::default()
        });
        let second = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
            .unwrap();
        assert_eq!(second.health.launch_cache_hits, 1);
        assert_eq!(second.health.launch_cache_misses, 0);
        assert!(second.health.is_nominal(), "cache hits are not faults");
        assert_eq!(second.selection.index, first.selection.index);
        assert_eq!(second.report.time_s, first.report.time_s);
        assert!(second.selection.inference_s < first.selection.inference_s);

        // ...and a changed scalar argument is a different launch: it misses,
        // profiles, and trips the armed failure.
        let mut changed = built.args.clone();
        let scalar = changed
            .iter_mut()
            .find(|a| matches!(a, ArgValue::Float(_)))
            .expect("gesummv has scalar args");
        *scalar = ArgValue::Float(9.75);
        let err = dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &changed, built.nd, &mut mem)
            .unwrap_err();
        assert!(err.is_transient());

        let stats = dopia.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn buffer_resize_invalidates_cached_decision() {
        let dopia = fresh_dopia();
        let program = dopia
            .create_program_with_source(
                "__kernel void scale(__global float* a, int n) {
                     int i = get_global_id(0);
                     if (i < n) { a[i] = a[i] * 2.0f; }
                 }",
            )
            .unwrap();
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 4096]);
        let args = [ArgValue::Buffer(a), ArgValue::Int(4096)];
        let nd = NdRange::d1(4096, 256);
        let base = dopia.cache_stats();

        let first = dopia
            .enqueue_nd_range_kernel(&program, "scale", &args, nd, &mut mem)
            .unwrap();
        assert_eq!(first.health.launch_cache_misses, 1);
        let warm = dopia
            .enqueue_nd_range_kernel(&program, "scale", &args, nd, &mut mem)
            .unwrap();
        assert_eq!(warm.health.launch_cache_hits, 1);

        // Growing the buffer bumps its generation: same handle, same
        // NDRange, but the old decision no longer applies.
        mem.resize(a, 8192);
        let after = dopia
            .enqueue_nd_range_kernel(&program, "scale", &args, nd, &mut mem)
            .unwrap();
        assert_eq!(after.health.launch_cache_misses, 1);
        assert_eq!(after.health.launch_cache_hits, 0);

        let stats = dopia.cache_stats();
        assert_eq!(stats.hits - base.hits, 1);
        assert_eq!(stats.misses - base.misses, 2);
        assert_eq!(stats.invalidations - base.invalidations, 1);
    }

    #[test]
    fn disabled_cache_profiles_every_launch() {
        let dopia = fresh_dopia();
        let program = dopia
            .create_program_with_source(
                "__kernel void id(__global float* a) { a[get_global_id(0)] = 1.0f; }",
            )
            .unwrap();
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 1024]);
        let args = [ArgValue::Buffer(a)];
        let nd = NdRange::d1(1024, 64);
        let base = dopia.cache_stats();

        assert!(dopia.launch_cache_enabled());
        dopia.set_launch_cache_enabled(false);
        for _ in 0..2 {
            let r = dopia
                .enqueue_nd_range_kernel(&program, "id", &args, nd, &mut mem)
                .unwrap();
            assert_eq!(r.health.launch_cache_hits, 0);
            assert_eq!(r.health.launch_cache_misses, 0);
        }
        let stats = dopia.cache_stats();
        assert_eq!(stats.hits, base.hits, "disabled cache is never consulted");
        assert_eq!(stats.misses, base.misses);
        dopia.set_launch_cache_enabled(true);
    }

    #[test]
    fn injected_profile_failures_are_transient_and_bounded() {
        let engine = Engine::kaveri();
        let (data, _) = crate::training::tiny_training_set(&engine);
        let model = PerfModel::train(ml::ModelKind::Dt, &data, 42);
        let mut dopia = Dopia::new(engine, model);
        dopia.set_fault_plan(FaultPlan {
            transient_profile_failures: 2,
            ..FaultPlan::default()
        });
        let program = dopia
            .create_program_with_source(workloads::polybench::GESUMMV_SRC)
            .unwrap();
        let mut mem = Memory::new();
        let built = workloads::polybench::gesummv(&mut mem, 1024, 256);
        for _ in 0..2 {
            let err = dopia
                .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
                .unwrap_err();
            assert!(err.is_transient(), "injected failures are transient: {}", err);
        }
        // The budget is spent; the third attempt succeeds.
        dopia
            .enqueue_nd_range_kernel(&program, "gesummv", &built.args, built.nd, &mut mem)
            .unwrap();
    }
}
