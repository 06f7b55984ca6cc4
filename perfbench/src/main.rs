//! The repository benchmark.
//!
//! ```text
//! perfbench run --workload <signoff_dsp|daemon_eco|sharded_signoff> --seed N
//!               --seconds S --trace <0|1> --serve-exe PATH [--code-id ID]
//! perfbench reference (dsp <seed> | field)
//! ```
//!
//! `run` sets the workload up, measures it for `--seconds`, checks every
//! output outside the timed window, writes the full result under
//! `perfbench/results/`, and prints one JSON object as its last line of
//! standard output. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones (see `perfbench/README.md`). It runs from the
//! repository root; `perfbench/run.py` builds it and the `pcv_serve`
//! daemon first. `reference` regenerates a stored SPICE reference.

mod daemon;
mod dsp;
mod eco;
mod host;
mod layers;
mod out;
mod reference;
mod sharded;
mod stats;

use out::{Report, Tier};
use pcv_obs::TrackingAlloc;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

// The in-process workload's peak live heap comes from this allocator;
// spans also charge their allocations through it.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Engine worker threads: one per core.
    pub workers: usize,
    /// The `pcv_serve` daemon binary (also the shard-worker binary).
    pub serve_exe: PathBuf,
    /// Scratch directory for daemon data, emptied before and after.
    pub work: PathBuf,
}

pub fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// FNV-1a, for comparing documents without keeping them.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const WORKLOADS: [&str; 3] = ["signoff_dsp", "daemon_eco", "sharded_signoff"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_exe: PathBuf,
    code_id: String,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_exe: PathBuf::new(),
        code_id: "unknown".to_owned(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => parsed.trace = value == "1",
            "--serve-exe" => parsed.serve_exe = PathBuf::from(value),
            "--code-id" => parsed.code_id.clone_from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(parsed)
}

fn run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let manifest = Path::new("BENCHMARK.json");
    if !manifest.is_file() {
        eprintln!("perfbench: run from the repository root (no BENCHMARK.json here)");
        return ExitCode::from(2);
    }
    let host = host::Host::probe();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: host.cores,
        serve_exe: args.serve_exe,
        work: PathBuf::from("perfbench/work").join(&args.workload),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    pcv_obs::mem::install_trace_probe();

    let mut report = Report::default();
    match args.workload.as_str() {
        "signoff_dsp" => dsp::run(&ctx, &mut report),
        "daemon_eco" => eco::run(&ctx, &mut report),
        _ => sharded::run(&ctx, &mut report),
    }
    let _ = std::fs::remove_dir_all(&ctx.work);

    report.finish_tier(if args.trace { Tier::PerLayer } else { Tier::EndToEnd });
    report.op(out::check_manifest(manifest));
    let results = PathBuf::from("perfbench/results");
    out::check_exact_history(
        &mut report,
        &results.join("exact").join(format!(
            "{}-seed{}-trace{}-{}.txt",
            args.workload,
            args.seed,
            u8::from(args.trace),
            args.code_id
        )),
    );

    let host_json = host.to_json();
    println!(
        "host: {} cores, {}, calibration loop {:.3} ms",
        host.cores, host.cpu_model, host.calibration_ms
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value) in &report.metrics {
        let unit = out::METRICS.iter().find(|m| m.0 == *name).map_or("", |m| m.1);
        println!("{name} = {} {unit}", out::number(*value));
    }
    println!(
        "failed_frac = {} ratio ({} of {} operations)",
        out::number(report.failed as f64 / report.attempted.max(1) as f64),
        report.failed,
        report.attempted
    );
    for f in report.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    let doc = report.document(&args.workload, args.seed, args.trace, &host_json);
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&file, doc)).is_err() {
        eprintln!("perfbench: cannot write {}", file.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("reference") => match reference::generate(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench reference: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 \
                 --serve-exe PATH [--code-id ID]\n       perfbench reference (dsp <seed> | field)"
            );
            ExitCode::from(2)
        }
    }
}
