//! The façade tying interpreter, profiler, cost model and DES together.

use crate::buffer::{ArgValue, Memory};
use crate::cost::{self, ModelConstants};
use crate::des::{self, DesInput, GpuAgentParams};
use crate::fault::FaultPlan;
use crate::interp::{self, CompiledKernel, ExecError, Mode, NullTracer};
use crate::ndrange::NdRange;
use crate::platform::PlatformConfig;
use crate::profile::{self, KernelProfile};
use clc::Kernel;

pub use crate::des::{Schedule, SimReport};

/// A kernel launch: code + arguments + geometry.
#[derive(Clone, Copy)]
pub struct LaunchSpec<'a> {
    pub kernel: &'a Kernel,
    pub args: &'a [ArgValue],
    pub nd: NdRange,
}

/// A degree-of-parallelism choice: active CPU cores and the fraction of GPU
/// PEs allowed to run (paper Table 3 enumerates the discrete levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DopConfig {
    pub cpu_cores: usize,
    /// 0.0 disables the GPU; 1.0 activates every PE.
    pub gpu_frac: f64,
}

impl DopConfig {
    pub fn cpu_only(cores: usize) -> Self {
        DopConfig { cpu_cores: cores, gpu_frac: 0.0 }
    }

    pub fn gpu_only(frac: f64) -> Self {
        DopConfig { cpu_cores: 0, gpu_frac: frac }
    }
}

/// The simulation engine for one platform.
#[derive(Debug, Clone)]
pub struct Engine {
    pub platform: PlatformConfig,
    pub consts: ModelConstants,
}

impl Engine {
    pub fn new(platform: PlatformConfig) -> Self {
        Engine { platform, consts: ModelConstants::default() }
    }

    pub fn kaveri() -> Self {
        Engine::new(PlatformConfig::kaveri())
    }

    pub fn skylake() -> Self {
        Engine::new(PlatformConfig::skylake())
    }

    /// Characterize a launch by sampled interpretation (no timing).
    /// Compiles the kernel to bytecode on the spot; callers with a cached
    /// [`CompiledKernel`] should use [`Engine::profile_compiled`].
    pub fn profile(&self, spec: LaunchSpec<'_>, mem: &mut Memory) -> Result<KernelProfile, ExecError> {
        spec.nd
            .validate()
            .map_err(|m| ExecError { message: m, span: spec.kernel.span })?;
        profile::profile_kernel(spec.kernel, spec.args, &spec.nd, mem)
    }

    /// [`Engine::profile`] on a pre-compiled kernel — the cold-enqueue hot
    /// path (compile once at prepare time, profile per launch geometry).
    pub fn profile_compiled(
        &self,
        ck: &CompiledKernel,
        args: &[ArgValue],
        nd: &NdRange,
        mem: &mut Memory,
    ) -> Result<KernelProfile, ExecError> {
        nd.validate()
            .map_err(|m| ExecError { message: m, span: ck.span() })?;
        profile::profile_compiled(ck, args, nd, mem)
    }

    /// Execute a launch functionally on the VM (full interpretation;
    /// mutates `mem`). Use for correctness validation at laptop-scale
    /// problem sizes.
    pub fn run_functional(&self, spec: LaunchSpec<'_>, mem: &mut Memory) -> Result<(), ExecError> {
        let ck = interp::compile_kernel(spec.kernel)?;
        interp::run_kernel(&ck, spec.args, &spec.nd, mem, Mode::Full, &mut NullTracer)
    }

    /// Simulate the timing of a launch under a DoP configuration and
    /// scheduling policy, with no injected faults and no launch deadline.
    ///
    /// * `malleable` — whether the GPU runs Dopia's rewritten kernel (adds
    ///   the worklist overhead). Baselines (`CPU`, `GPU`, `ALL`) pass
    ///   `false`; Dopia passes `true`.
    ///
    /// # Panics
    /// Panics when both devices are disabled (`cpu_cores == 0` and
    /// `gpu_frac == 0`), mirroring the paper's exclusion of that config.
    pub fn simulate(
        &self,
        profile: &KernelProfile,
        nd: &NdRange,
        dop: DopConfig,
        schedule: Schedule,
        malleable: bool,
    ) -> SimReport {
        self.simulate_supervised(profile, nd, dop, schedule, malleable, &FaultPlan::none(), None)
    }

    /// [`Engine::simulate`] under a [`FaultPlan`] and an optional
    /// per-dispatch launch deadline (seconds): injected hangs, stalls and
    /// slowdowns play out with watchdog-driven recovery, and dispatches
    /// still pending past the deadline are reclaimed and re-dispatched onto
    /// the surviving device. See [`des::run_des`].
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_supervised(
        &self,
        profile: &KernelProfile,
        nd: &NdRange,
        dop: DopConfig,
        schedule: Schedule,
        malleable: bool,
        plan: &FaultPlan,
        deadline_s: Option<f64>,
    ) -> SimReport {
        des::run_des(&self.des_input(profile, nd, dop, schedule, malleable), plan, deadline_s)
    }

    /// The DES input the cost model derives for a launch: per-group CPU and
    /// GPU costs (net of LLC absorption), device counts and the shared
    /// bandwidth. [`Engine::simulate`] feeds it to [`des::run_des`]; the
    /// same input through [`des::run_des_exact`] gives the reference
    /// result.
    ///
    /// # Panics
    /// Panics when both devices are disabled.
    pub fn des_input(
        &self,
        profile: &KernelProfile,
        nd: &NdRange,
        dop: DopConfig,
        schedule: Schedule,
        malleable: bool,
    ) -> DesInput {
        assert!(
            dop.cpu_cores > 0 || dop.gpu_frac > 0.0,
            "configuration CPU 0 / GPU 0 is excluded"
        );
        let absorb = cost::llc_absorb(profile, nd, &self.platform, &self.consts);

        let cpu_cost = if dop.cpu_cores > 0 {
            let mut c = cost::cpu_group_cost(profile, nd, &self.platform, &self.consts);
            c.dram_bytes *= 1.0 - absorb;
            Some(c)
        } else {
            None
        };
        let gpu = if dop.gpu_frac > 0.0 {
            let mut c = cost::gpu_group_cost(
                profile,
                nd,
                &self.platform,
                &self.consts,
                dop.gpu_frac,
                malleable,
            );
            c.dram_bytes *= 1.0 - absorb;
            Some(GpuAgentParams {
                cost: c,
                cus: self.platform.gpu.cus,
                launch_latency_s: self.platform.gpu.launch_latency_s,
            })
        } else {
            None
        };

        DesInput {
            num_groups: nd.num_groups(),
            cpu_cores: dop.cpu_cores.min(self.platform.cpu.cores),
            cpu_cost,
            gpu,
            schedule,
            dram_bw_gbs: self.platform.mem.dram_bw_gbs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use clc::Scalar;

    fn gesummv_launch(mem: &mut Memory, n: usize) -> (Kernel, Vec<ArgValue>, NdRange) {
        let kernel = clc::compile(
            "__kernel void gesummv(__global float* A, __global float* B, __global float* x,
                                   __global float* y, float alpha, float beta, int N) {
                int i = get_global_id(0);
                if (i < N) {
                    float t = 0.0f;
                    float s = 0.0f;
                    for (int j = 0; j < N; j++) {
                        t = t + A[i * N + j] * x[j];
                        s = s + B[i * N + j] * x[j];
                    }
                    y[i] = alpha * t + beta * s;
                }
            }",
        )
        .unwrap()
        .kernels
        .remove(0);
        let a = mem.alloc_virtual_f32(n * n, 1);
        let b = mem.alloc_virtual_f32(n * n, 2);
        let x = mem.alloc_f32(vec![1.0; n]);
        let y = mem.alloc_f32(vec![0.0; n]);
        let args = vec![
            ArgValue::Buffer(a),
            ArgValue::Buffer(b),
            ArgValue::Buffer(x),
            ArgValue::Buffer(y),
            ArgValue::Float(1.5),
            ArgValue::Float(2.5),
            ArgValue::Int(n as i64),
        ];
        (kernel, args, NdRange::d1(n, 256))
    }

    #[test]
    fn functional_run_rejects_stores_to_virtual_buffers() {
        let engine = Engine::kaveri();
        for elem in [Scalar::Float, Scalar::Int] {
            let ty = if elem.is_float() { "float" } else { "int" };
            let src = format!(
                "__kernel void k(__global {ty}* OUT, __global {ty}* IN) {{
                    int i = get_global_id(0);
                    OUT[i] = IN[i] + 1;
                }}"
            );
            let kernel = clc::compile(&src).unwrap().kernels.remove(0);
            let nd = NdRange::d1(64, 16);
            let mut mem = Memory::new();
            // A virtual input is fine: its loads are deterministic.
            let input = mem.alloc(Buffer::Virtual { elem, len: 64, seed: 1 });
            let real = if elem.is_float() {
                Buffer::F32(vec![0.0; 64])
            } else {
                Buffer::I32(vec![0; 64])
            };
            let virt = Buffer::Virtual { elem, len: 64, seed: 2 };
            for (out, ok) in [(real, true), (virt, false)] {
                let out = mem.alloc(out);
                let args = [ArgValue::Buffer(out), ArgValue::Buffer(input)];
                let spec = LaunchSpec { kernel: &kernel, args: &args, nd };
                // A virtual output would silently drop every store.
                let run = engine.run_functional(spec, &mut mem);
                assert_eq!(run.is_ok(), ok, "{ty}: {run:?}");
                if let Err(err) = run {
                    assert!(err.message.contains("virtual buffer"), "{ty}: {err}");
                }
                // Profiling drops the stores: it only records addresses.
                engine.profile(spec, &mut mem).unwrap();
            }
        }
    }

    #[test]
    fn functional_run_rejects_atomics_on_virtual_buffers() {
        let src = "__kernel void k(__global int* C) { atomic_inc(C); }";
        let kernel = clc::compile(src).unwrap().kernels.remove(0);
        let mut mem = Memory::new();
        let c = mem.alloc_virtual_i32(1, 3);
        let args = [ArgValue::Buffer(c)];
        let spec = LaunchSpec { kernel: &kernel, args: &args, nd: NdRange::d1(16, 16) };
        let err = Engine::kaveri().run_functional(spec, &mut mem).unwrap_err();
        assert!(err.message.contains("virtual buffer"), "{err}");
    }

    #[test]
    fn simulate_is_deterministic() {
        let engine = Engine::kaveri();
        let mut mem = Memory::new();
        let (k, args, nd) = gesummv_launch(&mut mem, 2048);
        let spec = LaunchSpec { kernel: &k, args: &args, nd };
        let p = engine.profile(spec, &mut mem).unwrap();
        let dop = DopConfig { cpu_cores: 4, gpu_frac: 0.5 };
        let r1 = engine.simulate(&p, &nd, dop, Schedule::Dynamic { chunk_divisor: 10 }, true);
        let r2 = engine.simulate(&p, &nd, dop, Schedule::Dynamic { chunk_divisor: 10 }, true);
        assert_eq!(r1, r2);
        assert!(r1.time_s > 0.0);
        assert_eq!(r1.cpu_groups + r1.gpu_groups, nd.num_groups());
    }

    #[test]
    fn co_execution_beats_single_device_for_gesummv() {
        // The headline phenomenon: some CPU+GPU mix beats both CPU-only and
        // GPU-only on a bandwidth-starved APU.
        let engine = Engine::kaveri();
        let mut mem = Memory::new();
        let (k, args, nd) = gesummv_launch(&mut mem, 16384);
        let spec = LaunchSpec { kernel: &k, args: &args, nd };
        let p = engine.profile(spec, &mut mem).unwrap();
        let sched = Schedule::Dynamic { chunk_divisor: 10 };
        let cpu_only = engine.simulate(&p, &nd, DopConfig::cpu_only(4), sched, false);
        let gpu_only = engine.simulate(&p, &nd, DopConfig::gpu_only(1.0), sched, false);
        let mut best = f64::INFINITY;
        for step in 1..=8 {
            let dop = DopConfig { cpu_cores: 4, gpu_frac: step as f64 / 8.0 };
            let r = engine.simulate(&p, &nd, dop, sched, true);
            best = best.min(r.time_s);
        }
        assert!(
            best < cpu_only.time_s && best < gpu_only.time_s,
            "best co-exec {} vs cpu {} gpu {}",
            best,
            cpu_only.time_s,
            gpu_only.time_s
        );
    }

    #[test]
    #[should_panic]
    fn zero_zero_config_panics() {
        let engine = Engine::kaveri();
        let mut mem = Memory::new();
        let (k, args, nd) = gesummv_launch(&mut mem, 1024);
        let spec = LaunchSpec { kernel: &k, args: &args, nd };
        let p = engine.profile(spec, &mut mem).unwrap();
        engine.simulate(
            &p,
            &nd,
            DopConfig { cpu_cores: 0, gpu_frac: 0.0 },
            Schedule::Dynamic { chunk_divisor: 10 },
            false,
        );
    }
}
