//! The metric vocabulary and the result a run prints and writes.
//!
//! Every metric has one name, one unit and one tier. The untraced run
//! (`--trace 0`) reports exactly the end-to-end tier and the traced run
//! (`--trace 1`) exactly the per-layer tier, on every workload; a
//! per-layer metric whose layer is not on a workload's path reads 0
//! there. The table is checked against `BENCHMARK.json` at the end of
//! every run, so the two cannot drift apart.

use pcv_obs::json::Value;
use pcv_trace::json::str_lit;
use std::collections::BTreeMap;
use std::path::Path;

/// Which run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    EndToEnd,
    PerLayer,
}

/// `(name, unit, tier, exact)`. Exact metrics are deterministic counts:
/// printed as integers and required to repeat bit-for-bit between runs
/// of the same code on the same seed.
pub const METRICS: &[(&str, &str, Tier, bool)] = &[
    ("setup_s", "s", Tier::EndToEnd, false),
    ("victims_per_s", "1/s", Tier::EndToEnd, false),
    ("op_ms_p50", "ms", Tier::EndToEnd, false),
    ("peak_heap_mib", "MiB", Tier::EndToEnd, false),
    ("glitch_err_max_pct", "%", Tier::EndToEnd, false),
    ("glitch_err_avg_pct", "%", Tier::EndToEnd, false),
    ("designs.generate_ms", "ms", Tier::PerLayer, false),
    ("sparse.chol_ms", "ms", Tier::PerLayer, false),
    ("sparse.chol_factors", "count", Tier::PerLayer, true),
    ("mor.reduce_ms", "ms", Tier::PerLayer, false),
    ("mor.lanczos_ms", "ms", Tier::PerLayer, false),
    ("mor.reductions", "count", Tier::PerLayer, true),
    ("mor.rom_ms", "ms", Tier::PerLayer, false),
    ("mor.rom_share", "ratio", Tier::PerLayer, false),
    ("mor.tran_steps", "count", Tier::PerLayer, true),
    ("mor.newton_iters", "count", Tier::PerLayer, true),
    ("mor.newton_per_step", "ratio", Tier::PerLayer, false),
    ("mor.rom_allocs", "count", Tier::PerLayer, false),
    ("mor.reduced_order_mean", "count", Tier::PerLayer, false),
    ("xtalk.prune_ms", "ms", Tier::PerLayer, false),
    ("xtalk.build_cluster_ms", "ms", Tier::PerLayer, false),
    ("xtalk.cluster_job_ms_p50", "ms", Tier::PerLayer, false),
    ("engine.utilization", "ratio", Tier::PerLayer, false),
    ("engine.idle_ms", "ms", Tier::PerLayer, false),
    ("engine.steals", "count", Tier::PerLayer, false),
    ("engine.eco_plan_ms", "ms", Tier::PerLayer, false),
    ("engine.dirty_victims", "count", Tier::PerLayer, true),
    ("engine.cache_hit_rate", "ratio", Tier::PerLayer, false),
    ("engine.cache_save_ms", "ms", Tier::PerLayer, false),
    ("engine.journal_appends", "count", Tier::PerLayer, true),
    ("engine.journal_ms", "ms", Tier::PerLayer, false),
    ("netlist.spef_parse_ms", "ms", Tier::PerLayer, false),
    ("netlist.eco_diff_ms", "ms", Tier::PerLayer, false),
    ("serve.elaborate_ms", "ms", Tier::PerLayer, false),
    ("serve.queue_wait_ms", "ms", Tier::PerLayer, false),
    ("serve.eco_unattributed_ms", "ms", Tier::PerLayer, false),
    ("serve.eco_ms_p95", "ms", Tier::PerLayer, false),
    ("serve.read_ms_p50", "ms", Tier::PerLayer, false),
    ("serve.read_ms_p95", "ms", Tier::PerLayer, false),
    ("shard.spawn_to_hello_ms", "ms", Tier::PerLayer, false),
    ("shard.worker_verify_ms", "ms", Tier::PerLayer, false),
    ("shard.merge_ms", "ms", Tier::PerLayer, false),
    ("shard.vs_inprocess", "ratio", Tier::PerLayer, false),
    ("shard.restarts", "count", Tier::PerLayer, true),
    ("bench.read_late_ms_p95", "ms", Tier::PerLayer, false),
    ("bench.trace_overhead_pct", "%", Tier::PerLayer, false),
    ("bench.unattributed_pct", "%", Tier::PerLayer, false),
];

fn spec(name: &str) -> (&'static str, &'static str, Tier, bool) {
    *METRICS
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the vocabulary"))
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check (the first few are printed).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic counts of this run (a superset of the exact
    /// metrics: also per-workload counts such as victims per sign-off).
    pub exact: BTreeMap<String, u64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Record one attempted operation; `Err` marks it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = outcome {
            self.failed += 1;
            self.failures.push(what);
        }
    }

    /// Record `attempted` operations of which `failures` failed.
    pub fn ops(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        self.failures.extend_from_slice(failures);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _, _, exact) = spec(name);
        if exact {
            self.exact_count(name, value as u64);
        }
        self.metrics.insert(name, value);
    }

    /// Record a deterministic count; a second value under the same name
    /// that differs is a failed check.
    pub fn exact_count(&mut self, name: &str, value: u64) {
        match self.exact.get(name) {
            Some(&prev) if prev != value => self
                .op(Err(format!("exact count {name} changed within the run: {prev} then {value}"))),
            _ => {
                self.exact.insert(name.to_owned(), value);
            }
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Keep only the tier's metrics. Off-path per-layer metrics read 0;
    /// an end-to-end metric that was never measured is a failed check
    /// (a run cut short by an earlier failure gets here too).
    pub fn finish_tier(&mut self, tier: Tier) {
        for &(name, _, t, _) in METRICS {
            if t != tier {
                self.metrics.remove(name);
            } else if !self.metrics.contains_key(name) {
                if tier == Tier::EndToEnd {
                    self.op(Err(format!("end-to-end metric {name} was not measured")));
                }
                self.metrics.insert(name, 0.0);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The machine-readable last line of standard output.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (_, unit, _, exact) = spec(name);
            let value = if exact { format!("{}", *value as u64) } else { number(*value) };
            out.push_str(&format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                str_lit(name),
                str_lit(unit)
            ));
        }
        out.push_str("}}");
        out
    }

    /// The full result document written under `perfbench/results/`.
    pub fn document(&self, workload: &str, seed: u64, trace: bool, host: &str) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| str_lit(f)).collect();
        let exact: Vec<String> =
            self.exact.iter().map(|(k, v)| format!("{}:{v}", str_lit(k))).collect();
        let notes: Vec<String> = self.notes.iter().map(|n| str_lit(n)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"host\":{host},\
             \"failed_frac\":{},\"failures\":[{}],\"exact\":{{{}}},\"notes\":[{}],\"result\":{}}}\n",
            str_lit(workload),
            number(self.failed as f64 / self.attempted.max(1) as f64),
            failures.join(","),
            exact.join(","),
            notes.join(","),
            self.result_line()
        )
    }
}

/// A JSON number with every digit `f64` formatting gives.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Check the vocabulary against `BENCHMARK.json`: the same names, units
/// and tiers. A mismatch is a benchmark bug, reported as a failed check.
pub fn check_manifest(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = pcv_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut listed: Vec<(String, String, Tier)> = Vec::new();
    for (key, tier) in [("end_to_end", Tier::EndToEnd), ("per_layer", Tier::PerLayer)] {
        for m in doc.get(key).and_then(Value::as_arr).unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default().to_owned();
            listed.push((field("name"), field("unit"), tier));
        }
    }
    let ours: Vec<(String, String, Tier)> =
        METRICS.iter().map(|m| (m.0.to_owned(), m.1.to_owned(), m.2)).collect();
    if listed == ours {
        Ok(())
    } else {
        Err(format!("{} lists other metrics than the benchmark reports", path.display()))
    }
}

/// Compare this run's exact counts with an earlier run of the same code
/// on the same workload and seed; the first correct run records them.
pub fn check_exact_history(report: &mut Report, file: &Path) {
    let ours: String = report.exact.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    match std::fs::read_to_string(file) {
        Ok(prev) if prev != ours => report.op(Err(format!(
            "exact counts differ from an earlier run of the same code ({}):\n{prev}---\n{ours}",
            file.display()
        ))),
        Ok(_) => report.note(format!("exact counts repeat an earlier run ({})", file.display())),
        Err(_) if report.correct() => {
            if let Some(dir) = file.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(file, ours);
        }
        Err(_) => {}
    }
}
