//! Chip-level verification: sweep victims, classify glitches against noise
//! margins, and report — the audit the paper runs on the DSP design.

use crate::analysis::{analyze_glitch, AnalysisContext, AnalysisOptions};
use crate::error::XtalkError;
use crate::prune::{prune_victim, Cluster, PruneConfig, PruningStats};
use crate::receiver::check_receiver_propagation;
use pcv_netlist::PNetId;
use std::fmt;

/// Receiver-side verdict for a flagged victim (see [`audit_receivers`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverVerdict {
    /// Receiver cell the glitch was replayed into.
    pub cell: String,
    /// Output peak at the receiver (volts, signed).
    pub output_peak: f64,
    /// Whether the glitch propagates through the receiver.
    pub propagates: bool,
}

/// Verdict severity for one victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Below the warning threshold.
    Clean,
    /// Between warning and failure thresholds (paper: ~10 % of Vdd is where
    /// glitches start to matter for latch inputs).
    Warning,
    /// Above the failure threshold (paper: >20 % of Vdd peaks get tight
    /// error bounds because they are the dangerous ones).
    Violation,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Clean => write!(f, "clean"),
            Severity::Warning => write!(f, "warning"),
            Severity::Violation => write!(f, "VIOLATION"),
        }
    }
}

/// Per-victim audit record.
#[derive(Debug, Clone, PartialEq)]
pub struct NetVerdict {
    /// The audited victim.
    pub net: PNetId,
    /// Victim net name.
    pub name: String,
    /// Worst rising-glitch peak (volts).
    pub rise_peak: f64,
    /// Worst falling-glitch peak (volts, negative).
    pub fall_peak: f64,
    /// Worst peak as a fraction of Vdd.
    pub worst_frac: f64,
    /// Classification.
    pub severity: Severity,
    /// Cluster size after pruning.
    pub cluster_size: usize,
    /// Coupled neighbors before pruning.
    pub neighbors_before: usize,
    /// Receiver propagation check, when [`audit_receivers`] has run.
    pub receiver: Option<ReceiverVerdict>,
}

impl NetVerdict {
    /// Render the verdict as one deterministic JSON object — the element
    /// shape of [`ChipReport::to_json`]'s `verdicts` array, also served per
    /// net by the daemon and streamed by shard workers.
    ///
    /// Every float appears twice: a readable decimal (`x`) and its exact
    /// IEEE-754 bit pattern as a hex string (`x_bits`), which is what
    /// readers that need the exact value parse back.
    pub fn to_json(&self) -> String {
        use pcv_trace::json::str_lit;
        let mut out = format!("{{\"net\":{},\"name\":{},", self.net.0, str_lit(&self.name));
        json_float(&mut out, "rise_peak", self.rise_peak);
        out.push(',');
        json_float(&mut out, "fall_peak", self.fall_peak);
        out.push(',');
        json_float(&mut out, "worst_frac", self.worst_frac);
        out.push_str(&format!(
            ",\"severity\":{},\"cluster_size\":{},\"neighbors_before\":{}",
            str_lit(&self.severity.to_string()),
            self.cluster_size,
            self.neighbors_before
        ));
        out.push_str(",\"receiver\":");
        match &self.receiver {
            Some(r) => {
                out.push_str(&format!("{{\"cell\":{},", str_lit(&r.cell)));
                json_float(&mut out, "output_peak", r.output_peak);
                out.push_str(&format!(",\"propagates\":{}}}", r.propagates));
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Append `"key":<decimal>,"key_bits":"<hex bits>"`.
fn json_float(out: &mut String, key: &str, v: f64) {
    use pcv_trace::json::{f64_bits, f64_lit};
    out.push_str(&format!("\"{key}\":{},\"{key}_bits\":{}", f64_lit(v), f64_bits(v)));
}

/// Chip-level audit report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Per-victim verdicts, worst first.
    pub verdicts: Vec<NetVerdict>,
    /// Pruning statistics over the audited clusters.
    pub pruning: PruningStats,
    /// Warning threshold used (fraction of Vdd).
    pub warn_frac: f64,
    /// Violation threshold used (fraction of Vdd).
    pub fail_frac: f64,
}

impl ChipReport {
    /// Victims classified at or above [`Severity::Warning`].
    pub fn flagged(&self) -> impl Iterator<Item = &NetVerdict> {
        self.verdicts.iter().filter(|v| v.severity >= Severity::Warning)
    }

    /// Number of violations.
    pub fn num_violations(&self) -> usize {
        self.verdicts.iter().filter(|v| v.severity == Severity::Violation).count()
    }

    /// Render a plain-text report table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "crosstalk audit: {} victims, {} warnings, {} violations\n",
            self.verdicts.len(),
            self.flagged().count() - self.num_violations(),
            self.num_violations()
        ));
        out.push_str(&format!(
            "pruning: mean coupled component {:.1} -> cluster {:.1} nets (max {})\n",
            self.pruning.mean_component, self.pruning.mean_after, self.pruning.max_after
        ));
        out.push_str(&format!(
            "{:<20} {:>10} {:>10} {:>8} {:>8}  {}\n",
            "net", "rise (V)", "fall (V)", "%vdd", "cluster", "verdict"
        ));
        for v in &self.verdicts {
            out.push_str(&format!(
                "{:<20} {:>10.4} {:>10.4} {:>7.1}% {:>8}  {}\n",
                v.name,
                v.rise_peak,
                v.fall_peak,
                100.0 * v.worst_frac,
                v.cluster_size,
                v.severity
            ));
        }
        out
    }
}

/// Audit a set of victim nets: prune, analyze both glitch polarities,
/// classify.
///
/// `warn_frac` / `fail_frac` are noise-margin thresholds as fractions of
/// Vdd (typical: 0.1 and 0.2).
///
/// # Errors
///
/// Propagates the first analysis failure.
///
/// # Panics
///
/// Panics if `warn_frac > fail_frac`.
pub fn verify_chip(
    ctx: &AnalysisContext<'_>,
    victims: &[PNetId],
    prune_cfg: &PruneConfig,
    opts: &AnalysisOptions,
    warn_frac: f64,
    fail_frac: f64,
) -> Result<ChipReport, XtalkError> {
    assert!(warn_frac <= fail_frac, "warning threshold must not exceed failure");
    let _span = pcv_trace::span("xtalk", "verify_chip");
    let mut verdicts = Vec::with_capacity(victims.len());
    let mut clusters: Vec<Cluster> = Vec::with_capacity(victims.len());
    for &vic in victims {
        let _victim_span =
            pcv_trace::span_labeled("xtalk", "victim", || ctx.db.net(vic).name().to_owned());
        let cluster = prune_victim(ctx.db, vic, prune_cfg);
        let (rise, fall) = if cluster.aggressors.is_empty() {
            (0.0, 0.0)
        } else {
            let up = analyze_glitch(ctx, &cluster, true, opts)?;
            let down = analyze_glitch(ctx, &cluster, false, opts)?;
            (up.peak, down.peak)
        };
        let worst_frac = (rise.abs().max(fall.abs())) / opts.vdd;
        let severity = if worst_frac >= fail_frac {
            Severity::Violation
        } else if worst_frac >= warn_frac {
            Severity::Warning
        } else {
            Severity::Clean
        };
        verdicts.push(NetVerdict {
            net: vic,
            name: ctx.db.net(vic).name().to_owned(),
            rise_peak: rise,
            fall_peak: fall,
            worst_frac,
            severity,
            cluster_size: cluster.size(),
            neighbors_before: cluster.neighbors_before,
            receiver: None,
        });
        clusters.push(cluster);
    }
    verdicts.sort_by(|a, b| b.worst_frac.partial_cmp(&a.worst_frac).expect("finite fractions"));
    Ok(ChipReport { verdicts, pruning: PruningStats::compute(&clusters), warn_frac, fail_frac })
}

impl ChipReport {
    /// Render the audit as deterministic JSON.
    ///
    /// Every float appears twice: a readable decimal (`x`) and its exact
    /// IEEE-754 bit pattern (`x_bits`), so a serialized report can be
    /// compared byte-for-byte across runs, worker counts, and cache states
    /// — the property the golden-report regression suite locks down.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_float(&mut out, "warn_frac", self.warn_frac);
        out.push(',');
        json_float(&mut out, "fail_frac", self.fail_frac);
        out.push_str(",\"pruning\":{");
        json_float(&mut out, "mean_before", self.pruning.mean_before);
        out.push(',');
        json_float(&mut out, "mean_component", self.pruning.mean_component);
        out.push(',');
        json_float(&mut out, "mean_after", self.pruning.mean_after);
        out.push_str(&format!(
            ",\"max_after\":{},\"active_clusters\":{}}}",
            self.pruning.max_after, self.pruning.active_clusters
        ));
        out.push_str(",\"verdicts\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Render the audit as CSV (one row per victim, worst first) for
    /// downstream tooling.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "net,rise_peak_v,fall_peak_v,worst_frac_vdd,severity,cluster_size,\
             neighbors_before,receiver_cell,receiver_peak_v,receiver_propagates\n",
        );
        for v in &self.verdicts {
            let (rc_cell, rc_peak, rc_prop) = match &v.receiver {
                Some(r) => {
                    (r.cell.as_str(), format!("{:.6}", r.output_peak), r.propagates.to_string())
                }
                None => ("", String::new(), String::new()),
            };
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{},{},{},{},{},{}\n",
                v.name,
                v.rise_peak,
                v.fall_peak,
                v.worst_frac,
                v.severity,
                v.cluster_size,
                v.neighbors_before,
                rc_cell,
                rc_peak,
                rc_prop
            ));
        }
        out
    }
}

/// Deepen an audit with transistor-level *receiver* checks (the paper's
/// future-work direction): for every verdict at or above
/// [`Severity::Warning`], replay the worst-polarity glitch waveform into
/// the victim's receiving cell and record whether it propagates.
///
/// Latch receivers are modeled by their input-stage-equivalent inverter
/// (`INVX1`), since a latch data pin is electrically a small inverter
/// behind a transmission gate.
///
/// # Errors
///
/// Propagates analysis or simulation failures.
pub fn audit_receivers(
    ctx: &AnalysisContext<'_>,
    report: &mut ChipReport,
    prune_cfg: &PruneConfig,
    opts: &AnalysisOptions,
) -> Result<(), XtalkError> {
    let _span = pcv_trace::span("xtalk", "audit_receivers");
    let (Some(design), Some(lib)) = (ctx.design, ctx.lib) else {
        return Err(XtalkError::InvalidConfig {
            what: "receiver checks need design and library data",
        });
    };
    for v in report.verdicts.iter_mut() {
        if v.severity < Severity::Warning {
            continue;
        }
        // Pick the receiving cell: the first non-latch load, else the
        // latch input-stage equivalent.
        let dnet =
            design.find_net(&v.name).ok_or_else(|| XtalkError::NoDriver { net: v.name.clone() })?;
        let receiver_cell = design
            .loads_of(dnet)
            .iter()
            .filter_map(|&(inst, _)| lib.cell(&design.instance(inst).cell))
            .find(|c| c.kind != pcv_cells::library::CellKind::Latch)
            .or_else(|| lib.cell("INVX1"))
            .ok_or(XtalkError::InvalidConfig { what: "no receiver cell available" })?;

        // Re-run the worse polarity to recover the waveform.
        let rising = v.rise_peak.abs() >= v.fall_peak.abs();
        let cluster = prune_victim(ctx.db, v.net, prune_cfg);
        let glitch = analyze_glitch(ctx, &cluster, rising, opts)?;
        let quiet = if rising { 0.0 } else { opts.vdd };
        let check = check_receiver_propagation(
            receiver_cell,
            &glitch.waveform,
            quiet,
            opts.vdd,
            report.fail_frac,
        )?;
        v.receiver = Some(ReceiverVerdict {
            cell: receiver_cell.name.clone(),
            output_peak: check.output_peak,
            propagates: check.propagates,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    /// Two victims: one heavily coupled, one barely coupled.
    fn db() -> (ParasiticDb, PNetId, PNetId) {
        let mut db = ParasiticDb::new();
        let mk = |name: &str, cg: f64| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 200.0);
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            n
        };
        let hot = db.add_net(mk("hot", 5e-15));
        let cold = db.add_net(mk("cold", 50e-15));
        let agg = db.add_net(mk("agg", 5e-15));
        db.add_coupling(NetNodeRef { net: hot, node: 1 }, NetNodeRef { net: agg, node: 1 }, 60e-15);
        db.add_coupling(
            NetNodeRef { net: cold, node: 1 },
            NetNodeRef { net: agg, node: 1 },
            0.4e-15,
        );
        (db, hot, cold)
    }

    #[test]
    fn audit_classifies_and_sorts() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[cold, hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        assert_eq!(report.verdicts.len(), 2);
        // Sorted worst-first: the hot net leads.
        assert_eq!(report.verdicts[0].name, "hot");
        assert!(report.verdicts[0].worst_frac > report.verdicts[1].worst_frac);
        assert_eq!(report.verdicts[0].severity, Severity::Violation);
        assert_eq!(report.num_violations(), 1);
        assert!(report.flagged().count() >= 1);
    }

    #[test]
    fn quiet_nets_are_clean_without_simulation() {
        let (db, _, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        // The cold net's one weak coupling is pruned away entirely.
        let report = verify_chip(
            &ctx,
            &[cold],
            &PruneConfig { cap_ratio: 0.05, max_aggressors: 12 },
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        assert_eq!(report.verdicts[0].severity, Severity::Clean);
        assert_eq!(report.verdicts[0].rise_peak, 0.0);
        assert_eq!(report.verdicts[0].cluster_size, 1);
    }

    #[test]
    fn text_report_contains_key_lines() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        let text = report.to_text();
        assert!(text.contains("crosstalk audit"));
        assert!(text.contains("hot"));
        assert!(text.contains("pruning"));
    }

    #[test]
    fn receiver_audit_annotates_flagged_victims() {
        use pcv_cells::library::CellLibrary;
        use pcv_netlist::Design;
        let (db, hot, cold) = db();
        // Design view: drivers + an inverter load on the hot net.
        let mut design = Design::new("t");
        let dh = design.add_net("hot");
        let dc_ = design.add_net("cold");
        let da = design.add_net("agg");
        let pi = design.add_net("pi");
        design.add_instance("h_drv", "INVX2", vec![pi], Some(dh), false);
        design.add_instance("c_drv", "INVX2", vec![pi], Some(dc_), false);
        design.add_instance("a_drv", "BUFX4", vec![pi], Some(da), false);
        design.add_instance("h_rx", "INVX4", vec![dh], None, false);
        let lib = CellLibrary::standard_025();
        let ctx = AnalysisContext {
            db: &db,
            design: Some(&design),
            lib: Some(&lib),
            charlib: None,
            driver_model: crate::drivers::DriverModelKind::FixedResistance(2000.0),
        };
        let opts = AnalysisOptions::default();
        let mut report =
            verify_chip(&ctx, &[hot, cold], &PruneConfig::default(), &opts, 0.1, 0.2).unwrap();
        audit_receivers(&ctx, &mut report, &PruneConfig::default(), &opts).unwrap();
        // The hot (flagged) victim gets a receiver verdict; the clean one
        // does not.
        let hot_v = report.verdicts.iter().find(|v| v.name == "hot").unwrap();
        let rc = hot_v.receiver.as_ref().expect("flagged victim checked");
        assert_eq!(rc.cell, "INVX4");
        assert!(rc.output_peak.abs() >= 0.0);
        let cold_v = report.verdicts.iter().find(|v| v.name == "cold").unwrap();
        assert!(cold_v.receiver.is_none());
    }

    #[test]
    fn receiver_audit_requires_design() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let opts = AnalysisOptions::default();
        let mut report =
            verify_chip(&ctx, &[hot], &PruneConfig::default(), &opts, 0.1, 0.2).unwrap();
        let err = audit_receivers(&ctx, &mut report, &PruneConfig::default(), &opts);
        assert!(matches!(err, Err(XtalkError::InvalidConfig { .. })));
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[cold, hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        assert_eq!(
            header,
            [
                "net",
                "rise_peak_v",
                "fall_peak_v",
                "worst_frac_vdd",
                "severity",
                "cluster_size",
                "neighbors_before",
                "receiver_cell",
                "receiver_peak_v",
                "receiver_propagates",
            ]
        );
        assert!(csv.contains("hot,"));
        assert!(csv.contains("VIOLATION"));
    }

    #[test]
    fn json_export_is_deterministic_and_bit_exact() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = verify_chip(
            &ctx,
            &[cold, hot],
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        let a = report.to_json();
        assert_eq!(a, report.to_json());
        assert!(a.contains("\"name\":\"hot\""));
        assert!(a.contains("worst_frac_bits\":\""));
        assert!(a.contains("\"receiver\":null"));
        // The bits field round-trips the exact value.
        let v = &report.verdicts[0];
        let needle = format!("\"rise_peak_bits\":\"{:016x}\"", v.rise_peak.to_bits());
        assert!(a.contains(&needle));
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Clean < Severity::Warning);
        assert!(Severity::Warning < Severity::Violation);
        assert_eq!(Severity::Violation.to_string(), "VIOLATION");
        assert_eq!(Severity::Clean.to_string(), "clean");
    }
}
