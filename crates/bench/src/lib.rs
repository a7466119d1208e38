//! `bench_support` — shared machinery for the experiment binaries that
//! regenerate every table and figure of the Dopia paper.
//!
//! Each binary in `src/bin/` prints the paper's rows/series to stdout and
//! writes CSV under `results/`. Expensive artifacts (the full 1,224 x 44
//! measurement grid per platform) are cached on disk so later binaries
//! reuse them.
//!
//! Environment knobs (all optional):
//!
//! * `DOPIA_GRID_STEP` — subsample the synthetic grid (default 1 = all
//!   1,224 workloads; e.g. 8 keeps every 8th for a quick pass).
//! * `DOPIA_FOLDS` — cross-validation folds (default 64, the paper's
//!   protocol).
//! * `DOPIA_RESULTS_DIR` — output directory (default `results`).

pub mod cache;
pub mod csv;
pub mod cv;
pub mod grid;
pub mod stats;

use dopia_core::configs::DopPoint;
use dopia_core::features::extract_code_features;
use dopia_core::TrainingOptions;
use sim::{Engine, FaultPlan, Memory, Schedule};
use workloads::BuiltKernel;

/// The two evaluation platforms, in paper order.
pub fn platforms() -> [Engine; 2] {
    [Engine::kaveri(), Engine::skylake()]
}

/// One uncached training-sweep pass over a built workload on the exact DES
/// event loop: profile it, run every configuration through
/// [`sim::des::run_des_exact`] on [`Engine::des_input`], extract the code
/// features. The reference side of the sweep comparisons in
/// `bench_baseline` and `benches/perf.rs`; returns the best simulated time.
pub fn exact_sweep(
    engine: &Engine,
    built: &BuiltKernel,
    mem: &mut Memory,
    space: &[DopPoint],
    opts: &TrainingOptions,
) -> f64 {
    let profile = engine.profile(built.spec(), mem).unwrap();
    let schedule = Schedule::Dynamic { chunk_divisor: opts.chunk_divisor };
    let best = space
        .iter()
        .map(|point| {
            let dop = point.dop();
            let input = engine.des_input(&profile, &built.nd, dop, schedule, opts.malleable);
            sim::des::run_des_exact(&input, &FaultPlan::none(), None).time_s
        })
        .fold(f64::INFINITY, f64::min);
    std::hint::black_box(extract_code_features(&built.kernel));
    best
}

/// `DOPIA_GRID_STEP` (default 1).
pub fn grid_step() -> usize {
    std::env::var("DOPIA_GRID_STEP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

/// `DOPIA_FOLDS` (default 64).
pub fn folds() -> usize {
    std::env::var("DOPIA_FOLDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 2)
        .unwrap_or(64)
}

/// `DOPIA_RESULTS_DIR` (default `results`), created on demand.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::env::var("DOPIA_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create results dir");
    path
}

/// Print a section header.
pub fn banner(title: &str) {
    println!("\n=== {} ===", title);
}
