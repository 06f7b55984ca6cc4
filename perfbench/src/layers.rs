//! Per-layer numbers read from the `pcv-trace` spans, counters and
//! histograms the crates already record. Nothing here adds a span: the
//! benchmark only installs the collector (through `EngineConfig::trace`)
//! and reads what the layers report.

use crate::out::Report;
use crate::stats::median;
use pcv_engine::EngineReport;
use pcv_trace::Trace;

/// The per-sign-off layer breakdown of one traced engine run.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub chol_ms: f64,
    pub chol_factors: u64,
    pub reduce_ms: f64,
    pub lanczos_ms: f64,
    pub reductions: u64,
    pub rom_ms: f64,
    pub rom_allocs: u64,
    pub cluster_job_ms: f64,
    pub cluster_job_p50_ms: f64,
    pub tran_steps: u64,
    pub newton_iters: u64,
    pub reduced_order_mean: f64,
    pub prune_ms: f64,
    pub build_cluster_ms: f64,
    pub utilization: f64,
    pub idle_ms: f64,
    pub steals: u64,
    /// Share of the caller-measured wall time that no span covers.
    pub unattributed_pct: f64,
}

const NS_PER_MS: f64 = 1e6;

impl LayerSample {
    /// Read one traced run. `wall_ms` is the caller's own clock around
    /// the engine call.
    pub fn of(report: &EngineReport, wall_ms: f64) -> LayerSample {
        let trace = report.trace.as_ref().expect("traced run carries a trace");
        let totals = trace.span_totals();
        let total = |cat: &str, name: &str| -> (f64, u64, u64) {
            totals
                .iter()
                .find(|((c, n), _)| *c == cat && *n == name)
                .map_or((0.0, 0, 0), |(_, t)| {
                    (t.total_ns as f64 / NS_PER_MS, t.count, t.alloc_count)
                })
        };
        let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
        let (chol_ms, ..) = total("sparse", "chol_factor");
        let (reduce_ms, reductions, _) = total("mor", "sympvl_reduce");
        let (lanczos_ms, ..) = total("mor", "block_lanczos");
        let (rom_ms, _, rom_allocs) = total("mor", "rom_eval");
        let (cluster_job_ms, ..) = total("engine", "cluster_job");
        let (prune_ms, ..) = total("xtalk", "prune");
        let (build_cluster_ms, ..) = total("xtalk", "build_cluster");
        let jobs: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| s.cat == "engine" && s.name == "cluster_job")
            .map(|s| s.dur_ns as f64 / NS_PER_MS)
            .collect();
        let stats = &report.stats;
        let wall = stats.wall_time.as_secs_f64() * 1e3;
        let idle_ms =
            stats.worker_busy.iter().map(|b| (wall - b.as_secs_f64() * 1e3).max(0.0)).sum();
        LayerSample {
            chol_ms,
            chol_factors: counter("sparse.chol.factors"),
            reduce_ms,
            lanczos_ms,
            reductions,
            rom_ms,
            rom_allocs,
            cluster_job_ms,
            cluster_job_p50_ms: median(&jobs),
            tran_steps: trace.histograms.get("mor.tran_steps").map_or(0, |h| h.sum),
            newton_iters: counter("mor.newton_iters"),
            reduced_order_mean: trace.histograms.get("mor.reduced_order").map_or(0.0, |h| h.mean()),
            prune_ms,
            build_cluster_ms,
            utilization: stats.utilization(),
            idle_ms,
            steals: stats.steals,
            unattributed_pct: unattributed_pct(trace, wall_ms),
        }
    }
}

/// Percent of `wall_ms` not covered by the union of all recorded spans,
/// across every thread.
pub fn unattributed_pct(trace: &Trace, wall_ms: f64) -> f64 {
    let mut spans: Vec<(u64, u64)> =
        trace.spans.iter().map(|s| (s.start_ns, s.start_ns + s.dur_ns)).collect();
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in spans {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    let covered_ms = covered as f64 / NS_PER_MS;
    (100.0 * (wall_ms - covered_ms) / wall_ms).max(0.0)
}

/// Fold the traced runs of one workload into the report: medians for
/// times and shares, exact checks for the deterministic counts.
pub fn report_engine_layers(report: &mut Report, samples: &[LayerSample]) {
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    for s in samples {
        report.set("sparse.chol_factors", s.chol_factors as f64);
        report.set("mor.reductions", s.reductions as f64);
        report.set("mor.tran_steps", s.tran_steps as f64);
        report.set("mor.newton_iters", s.newton_iters as f64);
    }
    report.set("sparse.chol_ms", med(&|s| s.chol_ms));
    report.set("mor.reduce_ms", med(&|s| s.reduce_ms));
    report.set("mor.lanczos_ms", med(&|s| s.lanczos_ms));
    report.set("mor.rom_ms", med(&|s| s.rom_ms));
    report.set("mor.rom_share", med(&|s| s.rom_ms / s.cluster_job_ms));
    report.set("mor.newton_per_step", med(&|s| s.newton_iters as f64 / s.tran_steps as f64));
    report.set("mor.rom_allocs", med(&|s| s.rom_allocs as f64));
    report.set("mor.reduced_order_mean", med(&|s| s.reduced_order_mean));
    report.set("xtalk.prune_ms", med(&|s| s.prune_ms));
    report.set("xtalk.build_cluster_ms", med(&|s| s.build_cluster_ms));
    report.set("xtalk.cluster_job_ms_p50", med(&|s| s.cluster_job_p50_ms));
    report.set("engine.utilization", med(&|s| s.utilization));
    report.set("engine.idle_ms", med(&|s| s.idle_ms));
    report.set("engine.steals", med(&|s| s.steals as f64));
    report.set("bench.unattributed_pct", med(&|s| s.unattributed_pct));
}
