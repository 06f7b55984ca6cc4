//! The stored SPICE reference behind `glitch_err_*`.
//!
//! Each reference file holds, for one chip, the rise and fall glitch peak
//! of every referenced victim computed by the in-tree full-MNA engine
//! (`EngineKind::Spice`) on the same clusters and drivers the ROM engine
//! analyzes: every victim of the benchmark's DSP block, the random-logic
//! victims and first bus bits of the held-out block, one period of tiles
//! of the wire field. It is keyed by the chip fingerprint
//! (`pcv_engine::chip_slice_fingerprint`): loading it against any other
//! chip is an error, never a silent comparison. Regenerate with
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- reference dsp 1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- reference dsp 11
//! cargo run --release --manifest-path perfbench/Cargo.toml -- reference field
//! ```
//!
//! from the repository root (each writes `perfbench/reference/<chip>.json`).

use pcv_engine::{chip_slice_fingerprint, Engine, EngineConfig, ResidentChip};
use pcv_obs::json::Value;
use pcv_obs::{EngineEvent, EventSink};
use pcv_trace::json::str_lit;
use pcv_xtalk::{AnalysisOptions, EngineKind, NetVerdict};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Peaks below this (volts) on both engines are "no glitch" and carry
/// no relative error.
const NO_GLITCH_V: f64 = 1e-6;

/// The DSP seed whose block is the benchmark's chip.
pub const DSP_SEED: u64 = 1;
/// A held-out DSP seed: its reference keeps accuracy work honest on a
/// chip the benchmark does not time.
pub const HELD_OUT_DSP_SEED: u64 = 11;

pub fn path(chip: &str) -> PathBuf {
    PathBuf::from("perfbench/reference").join(format!("{chip}.json"))
}

pub fn fingerprint(chip: &ResidentChip) -> String {
    format!("{:016x}", chip_slice_fingerprint(&chip.ctx(), chip.victims()))
}

/// SPICE peaks by victim name.
pub struct Reference {
    pub peaks: BTreeMap<String, (f64, f64)>,
}

impl Reference {
    /// Load `chip`'s reference, refusing one recorded for another chip.
    pub fn load(name: &str, chip: &ResidentChip) -> Result<Reference, String> {
        let file = path(name);
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = pcv_obs::json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let want = fingerprint(chip);
        let have = doc.get("chip_fingerprint").and_then(Value::as_str).unwrap_or("");
        if have != want {
            return Err(format!(
                "{} was recorded for chip {have}, not this chip ({want}); regenerate it",
                file.display()
            ));
        }
        let bits = |v: &Value, k: &str| -> Result<f64, String> {
            let hex = v.get(k).and_then(Value::as_str).ok_or(format!("victim lacks {k}"))?;
            u64::from_str_radix(hex, 16).map(f64::from_bits).map_err(|e| format!("{k}: {e}"))
        };
        let mut peaks = BTreeMap::new();
        for v in doc.get("victims").and_then(Value::as_arr).unwrap_or_default() {
            let name = v.get("name").and_then(Value::as_str).ok_or("victim lacks a name")?;
            peaks.insert(name.to_owned(), (bits(v, "rise_bits")?, bits(v, "fall_bits")?));
        }
        Ok(Reference { peaks })
    }

    /// Relative error in percent, |ROM − SPICE| / |SPICE|, of the rise
    /// and fall peak of every victim the reference covers; each of them
    /// must be among the ROM verdicts.
    pub fn errors_pct<'a>(
        &self,
        rom: impl IntoIterator<Item = (&'a str, f64, f64)>,
    ) -> Result<Vec<f64>, String> {
        let mut errs = Vec::new();
        let mut seen = 0;
        for (name, rise, fall) in rom {
            let Some(&(srise, sfall)) = self.peaks.get(name) else { continue };
            seen += 1;
            for (r, s) in [(rise, srise), (fall, sfall)] {
                if r.abs() < NO_GLITCH_V && s.abs() < NO_GLITCH_V {
                    continue;
                }
                errs.push(100.0 * (r - s).abs() / s.abs().max(NO_GLITCH_V));
            }
        }
        if seen != self.peaks.len() {
            return Err(format!("{seen} of {} referenced victims were verified", self.peaks.len()));
        }
        Ok(errs)
    }
}

/// `(name, rise, fall)` of engine verdicts.
pub fn peaks(verdicts: &[NetVerdict]) -> impl Iterator<Item = (&str, f64, f64)> {
    verdicts.iter().map(|v| (v.name.as_str(), v.rise_peak, v.fall_peak))
}

/// One stderr line per finished victim: a SPICE reference takes minutes.
struct Progress {
    done: AtomicUsize,
    total: usize,
    t0: Instant,
}

impl EventSink for Progress {
    fn event(&self, ev: &EngineEvent) {
        if let EngineEvent::ClusterFinished { name, .. } = ev {
            let k = self.done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("[{:6.0} s] {k}/{} {name}", self.t0.elapsed().as_secs_f64(), self.total);
        }
    }
}

/// `perfbench reference dsp <seed>` / `perfbench reference field`.
pub fn generate(args: &[String]) -> Result<(), String> {
    let (name, chip, what) = match args {
        [kind, seed] if kind == "dsp" => {
            let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
            let chip = crate::dsp::elaborate(seed);
            (format!("dsp-seed{seed}"), chip, format!("dsp {seed}"))
        }
        [kind] if kind == "field" => {
            ("field".to_owned(), crate::eco::base_chip(), "field".to_owned())
        }
        _ => return Err("usage: perfbench reference (dsp <seed> | field)".to_owned()),
    };
    // The benchmark's DSP block is referenced whole. Full-MNA runs of
    // long bus victims take minutes each, so the held-out block keeps its
    // random-logic victims and the first bit of each bus, and the field,
    // whose tiles repeat, one period of tile lengths.
    let victims: Vec<_> = match what.as_str() {
        "field" => crate::eco::reference_victims(&chip),
        w if w == format!("dsp {DSP_SEED}") => chip.victims().to_vec(),
        _ => {
            let db = chip.db();
            let keep = |name: &str| !name.starts_with("bus") || name.ends_with("_0");
            chip.victims().iter().copied().filter(|&v| keep(db.net(v).name())).collect()
        }
    };
    // A SPICE reference takes tens of minutes: the checkpoint journal
    // under perfbench/work/ lets an interrupted generation resume.
    let work = PathBuf::from("perfbench/work/reference");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let t0 = Instant::now();
    let engine = Engine::new(EngineConfig {
        analysis: AnalysisOptions { engine: EngineKind::Spice, ..AnalysisOptions::default() },
        ledger: false,
        cache_path: Some(work.join(format!("{name}.cache"))),
        sink: Some(Arc::new(Progress { done: AtomicUsize::new(0), total: victims.len(), t0 })),
        ..EngineConfig::default()
    });
    let report =
        engine.resume_slice(&chip, &victims, None).map_err(|e| format!("SPICE sign-off: {e}"))?;
    if !report.errors.is_empty() || !report.degradations.is_empty() {
        return Err("the SPICE sign-off degraded or failed a victim".to_owned());
    }
    let mut victims: Vec<&NetVerdict> = report.chip.verdicts.iter().collect();
    victims.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = format!(
        "{{\"what\":\"full-MNA (EngineKind::Spice) glitch peaks per victim, volts\",\
         \"chip\":{},\"chip_fingerprint\":{},\"command\":{},\"victims\":[",
        str_lit(&name),
        str_lit(&fingerprint(&chip)),
        str_lit(&format!(
            "cargo run --release --manifest-path perfbench/Cargo.toml -- reference {what}"
        ))
    );
    for (i, v) in victims.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "{{\"name\":{},\"rise_peak\":{},\"fall_peak\":{},\"rise_bits\":\"{:016x}\",\"fall_bits\":\"{:016x}\"}}",
            str_lit(&v.name),
            v.rise_peak,
            v.fall_peak,
            v.rise_peak.to_bits(),
            v.fall_peak.to_bits()
        ));
    }
    out.push_str("\n]}\n");
    let file = path(&name);
    std::fs::write(&file, out).map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!(
        "wrote {} ({} victims, {:.1} s)",
        file.display(),
        victims.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}
