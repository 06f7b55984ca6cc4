//! `signoff_dsp`: back-to-back cold in-process sign-offs of the default
//! DSP block — no cache, journal, HTTP or shards. Almost all of its time
//! is the `mor` reduction and ROM transient.
//!
//! The chip is the default `DspConfig` whatever the seed: its SPICE
//! reference is stored, and comparing against a reference for another
//! chip is refused.

use crate::layers::{report_engine_layers, LayerSample};
use crate::out::Report;
use crate::reference::{self, Reference, DSP_SEED, HELD_OUT_DSP_SEED};
use crate::stats::{median, Timing};
use crate::{elapsed_ms, fnv64, mib, Ctx};
use pcv_cells::library::CellLibrary;
use pcv_designs::dsp::{generate, DspConfig};
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, EngineReport, ResidentChip};
use pcv_obs::mem;
use pcv_serve::session::{elaborate as serve_elaborate, DesignSpec};
use pcv_xtalk::verify_chip;
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 25;

pub fn spec(seed: u64) -> DesignSpec {
    DesignSpec::Dsp { config: DspConfig { seed, ..DspConfig::default() } }
}

/// The block exactly as the daemon elaborates it (same drivers, same
/// victims, same fingerprints).
pub fn elaborate(seed: u64) -> ResidentChip {
    serve_elaborate(&spec(seed)).expect("the DSP block elaborates")
}

/// A cold in-process engine: `nproc` workers, no cache, no journal.
pub fn cold_engine(workers: usize, trace: bool) -> Engine {
    Engine::new(EngineConfig { workers, trace, ledger: false, ..EngineConfig::default() })
}

/// Check an engine report has every victim verified on the baseline
/// rung with no error.
pub fn check_clean(report: &EngineReport, victims: usize) -> Result<(), String> {
    if report.chip.verdicts.len() != victims {
        return Err(format!("{} verdicts for {victims} victims", report.chip.verdicts.len()));
    }
    if let Some(e) = report.errors.first() {
        return Err(format!("engine error on {}: {}", e.name, e.message));
    }
    if let Some(d) = report.degradations.first() {
        return Err(format!("degraded verdict: {d}"));
    }
    if report.stats.degraded > 0 {
        return Err(format!("{} degraded clusters", report.stats.degraded));
    }
    Ok(())
}

/// `glitch_err_*` over the benchmark chip (from `rom`, a report of it)
/// and the held-out chip (signed off here, outside any timed window).
pub fn glitch_errors(ctx: &Ctx, report: &mut Report, chip: &ResidentChip, rom: &EngineReport) {
    let held_out = elaborate(HELD_OUT_DSP_SEED);
    let outcome = (|| -> Result<Vec<f64>, String> {
        let mut errs = Reference::load(&format!("dsp-seed{DSP_SEED}"), chip)?
            .errors_pct(reference::peaks(&rom.chip.verdicts))?;
        let held = cold_engine(ctx.workers, false)
            .verify_resident(&held_out, None)
            .map_err(|e| format!("held-out sign-off: {e}"))?;
        check_clean(&held, held_out.victims().len())?;
        errs.extend(
            Reference::load(&format!("dsp-seed{HELD_OUT_DSP_SEED}"), &held_out)?
                .errors_pct(reference::peaks(&held.chip.verdicts))?,
        );
        Ok(errs)
    })();
    report_glitch(report, outcome, "DSP seeds 1 and 11");
}

/// Record `glitch_err_*` or the failed accuracy check.
pub fn report_glitch(report: &mut Report, outcome: Result<Vec<f64>, String>, what: &str) {
    match outcome {
        Ok(errs) if !errs.is_empty() => {
            let max = errs.iter().copied().fold(0.0, f64::max);
            let avg = errs.iter().sum::<f64>() / errs.len() as f64;
            report.set("glitch_err_max_pct", max);
            report.set("glitch_err_avg_pct", avg);
            report.note(format!(
                "accuracy vs SPICE ({what}): {} peaks, max {max:.4} %, avg {avg:.4} %",
                errs.len()
            ));
            report.op(Ok(()));
        }
        Ok(_) => report.op(Err("no glitch peaks to compare against SPICE".to_owned())),
        Err(e) => {
            // The metric must still be present; the run is marked wrong.
            report.set("glitch_err_max_pct", f64::NAN);
            report.set("glitch_err_avg_pct", f64::NAN);
            report.op(Err(format!("accuracy check: {e}")));
        }
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    // The one-time cell characterization (cached on disk after the first
    // run in a checkout) is paid here and reported on its own.
    let t0 = Instant::now();
    let chip = elaborate(DSP_SEED);
    report.note(format!("charlib warm + first elaboration: {:.3} s", t0.elapsed().as_secs_f64()));

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let c = elaborate(DSP_SEED);
        setups.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(c);
    }
    report.set("setup_s", median(&setups));
    let victims = chip.victims().len();
    report.exact_count("victims", victims as u64);

    // One untimed sign-off warms caches and page tables.
    let warm = cold_engine(ctx.workers, false).verify_resident(&chip, None);
    report.op(warm.map(|_| ()).map_err(|e| format!("warm-up sign-off: {e}")));

    // The timed window: closed-loop cold sign-offs. A traced run
    // alternates traced and untraced sign-offs so the trace overhead is
    // measured on the same machine state.
    mem::reset_peak();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layers = Vec::new();
    let mut first: Option<EngineReport> = None;
    let mut digests = Vec::new();
    let window = Instant::now();
    let mut i = 0usize;
    while window.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && i.is_multiple_of(2);
        let engine = cold_engine(ctx.workers, traced);
        let t0 = Instant::now();
        let result = engine.verify_resident(&chip, None);
        let ms = elapsed_ms(t0);
        i += 1;
        match result {
            Ok(r) => {
                if traced {
                    traced_ms.push(ms);
                    layers.push(LayerSample::of(&r, ms));
                } else {
                    plain_ms.push(ms);
                }
                report.op(check_clean(&r, victims));
                digests.push(fnv64(r.signoff_json().as_bytes()));
                if first.is_none() {
                    first = Some(r);
                }
            }
            Err(e) => report.op(Err(format!("sign-off: {e}"))),
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let peak = mem::snapshot().map_or(0, |s| s.peak_bytes);
    let ops = plain_ms.len() + traced_ms.len();
    report.set("victims_per_s", (victims * ops) as f64 / window_s);
    let all_ms: Vec<f64> = plain_ms.iter().chain(&traced_ms).copied().collect();
    report.set("op_ms_p50", median(&all_ms));
    report.set("peak_heap_mib", mib(peak));
    report.note(format!("sign-off latency: {}", Timing::of(&all_ms).describe("ms")));

    // Output checks, outside the window.
    let Some(first) = first else {
        report.op(Err("no sign-off completed in the window".to_owned()));
        return;
    };
    if digests.iter().any(|&d| d != digests[0]) {
        report.op(Err("sign-off bytes differ between runs of the same chip".to_owned()));
    }
    let c = chip.ctx();
    let cfg = EngineConfig::default();
    let serial =
        verify_chip(&c, chip.victims(), &cfg.prune, &cfg.analysis, cfg.warn_frac, cfg.fail_frac);
    report.op(match serial {
        Ok(s) if s.to_json() == first.chip.to_json() => Ok(()),
        Ok(_) => Err("engine sign-off differs from the serial verify_chip result".to_owned()),
        Err(e) => Err(format!("serial verify_chip: {e}")),
    });
    report.note(format!("sign-off digest {:016x}", digests[0]));
    glitch_errors(ctx, report, &chip, &first);

    if ctx.trace {
        let tech = Technology::c025();
        let lib = CellLibrary::standard_025();
        let gens: Vec<f64> = (0..SETUPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(generate(&DspConfig::default(), &tech, &lib));
                elapsed_ms(t0)
            })
            .collect();
        report.set("designs.generate_ms", median(&gens));
        report_engine_layers(report, &layers);
        report.set(
            "bench.trace_overhead_pct",
            100.0 * (median(&traced_ms) / median(&plain_ms) - 1.0),
        );
    }
}
