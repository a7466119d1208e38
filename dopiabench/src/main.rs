//! Benchmark of the Dopia runtime and its training pipeline.
//!
//! ```text
//! cargo run --release --manifest-path dopiabench/Cargo.toml -- \
//!     --workload <launch_hot|launch_cold|launch_faulted|train> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the launch streams load
//! `results/models/kaveri_dt.model`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer ones with
//! `--trace 1`. Each run is also appended to `dopiabench/history.jsonl`,
//! stamped with the git revision, a digest of the sources, `nproc`, the
//! compiler and the build profile; a traced run writes its spans to
//! `dopiabench/out/`.

mod harness;
mod json;
mod launch;
mod layers;
mod stats;
mod trace;
mod train;

use harness::{Metric, Outcome};
use json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["launch_hot", "launch_cold", "launch_faulted", "train"];
const HISTORY: &str = "dopiabench/history.jsonl";
const SPAN_DIR: &str = "dopiabench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Output of a command, or `None` when it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

/// The checkout's revision: `git describe` (`-dirty` when the tree has
/// uncommitted changes), else `.git/HEAD` resolved by hand where the `git`
/// program is missing or refuses the repository. `None` outside a git
/// checkout (`git` alone would report an enclosing repository).
fn git_rev() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    command_line("git", &["describe", "--always", "--dirty", "--abbrev=12"]).or_else(|| {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let Some(name) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        if let Ok(rev) = std::fs::read_to_string(format!(".git/{name}")) {
            return Some(rev.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed.lines().find_map(|line| {
            let (rev, r) = line.split_once(' ')?;
            (r == name).then(|| rev.to_string())
        })
    })
}

/// FNV-1a digest of the files the benchmark is built from and loads, by
/// path and content: it ties a run to its code where the checkout is not a
/// git repository, and tells apart uncommitted trees.
fn source_digest() -> String {
    fn collect(path: &Path, out: &mut Vec<PathBuf>) {
        match std::fs::read_dir(path) {
            Ok(entries) => entries.flatten().for_each(|e| collect(&e.path(), out)),
            Err(_) if path.is_file() => out.push(path.to_path_buf()),
            Err(_) => {}
        }
    }
    let mut files = Vec::new();
    for root in [
        "crates",
        "dopiabench/src",
        "dopiabench/Cargo.toml",
        "dopiabench/Cargo.lock",
        launch::MODEL_PATH,
    ] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let content = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(content) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let rev = git_rev().unwrap_or_else(|| {
        eprintln!("warning: no git revision here; source_digest identifies the code");
        "unknown".to_string()
    });
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("git_rev", Json::str(rev)),
        ("source_digest", Json::str(source_digest())),
        ("nproc", Json::Int(nproc as i64)),
        ("rustc", Json::str(rustc)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("unix_s", Json::Int(unix_s as i64)),
    ])
}

fn append_history(record: &Json) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY)?;
    writeln!(file, "{}", record.render())?;
    file.flush()
}

/// Hold glibc's mmap threshold at its starting value, 128 KiB. Left to
/// adapt, it rises after the first large buffer is freed, at a point that
/// differs between runs of the same seed; `train`'s input buffers then come
/// from fresh mappings in some runs and from reused heap in others, and its
/// median sweep split into two modes (8.2 and 10.4 ms, with peak memory
/// 99.6 and 91.6 MB). Pinned, every buffer above 128 KiB is mapped fresh.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only tunes the allocator; no other thread runs yet.
    if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
        eprintln!("warning: could not pin the mmap threshold");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "launch_hot" => launch::run(launch::Stream::Hot, args.seed, args.seconds, args.trace),
        "launch_cold" => launch::run(launch::Stream::Cold, args.seed, args.seconds, args.trace),
        "launch_faulted" => {
            launch::run(launch::Stream::Faulted, args.seed, args.seconds, args.trace)
        }
        _ => train::run(args.seed, args.seconds, args.trace),
    };
    let out: Outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &out.checks.failures {
        eprintln!("check failed: {failure}");
    }
    if let Some(rec) = &out.spans {
        let path = format!("{SPAN_DIR}/spans-{}.tsv", args.workload);
        if let Err(e) = rec.write_tsv(std::path::Path::new(&path)) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    let shown = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let result = Json::obj([
        ("correct", Json::Bool(out.checks.passed())),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics_json(shown)),
    ]);
    let history = Json::obj([
        ("stamp", stamp()),
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        ("checks", Json::Int(out.checks.evaluated as i64)),
        (
            "check_failures",
            Json::Arr(out.checks.failures.iter().map(Json::str).collect()),
        ),
        ("end_to_end", metrics_json(&out.end_to_end)),
        ("per_layer", metrics_json(&out.per_layer)),
        (
            "notes",
            Json::obj(out.notes.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
        ),
        ("result", result.clone()),
    ]);
    if let Err(e) = append_history(&history) {
        eprintln!("warning: could not append to {HISTORY}: {e}");
    }
    for m in shown {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}
