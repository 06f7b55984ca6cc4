//! The engine proper: shard victims into cluster jobs, run them on the
//! work-stealing scheduler, and merge a deterministic report.

use crate::cache::{CacheEntry, CachedReceiver, ResultCache};
use crate::durable::{
    DurableConfig, Journal, JournalEntry, LockError, ReplayAttempt, ReplayDegradation, RunLock,
};
use crate::fingerprint::{chip_slice_fingerprint, cluster_fingerprint, config_hash};
use crate::recovery::{
    route, Attempt, Degradation, FaultKind, FaultPlan, FaultSpec, RecoveryConfig, RecoveryRung,
};
use crate::report::{ClusterCost, EngineError, EngineReport, EngineStats};
use crate::resident::{ResidentChip, VerdictSnapshot};
use crate::scheduler;
use pcv_cells::library::CellKind;
use pcv_mor::{CancelToken, MorError};
use pcv_netlist::PNetId;
use pcv_obs::{EngineEvent, EventSink, RunRecord};
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::prune::{
    coupling_component_sizes, prune_victim_with_components, Cluster, PruneConfig, PruningStats,
};
use pcv_xtalk::{
    analyze_glitch, check_receiver_propagation, AnalysisContext, AnalysisOptions, ChipReport,
    EngineKind, GlitchResult, NetVerdict, ReceiverVerdict, Severity, XtalkError,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Pruning parameters (same meaning as the serial flow).
    pub prune: PruneConfig,
    /// Analysis knobs (same meaning as the serial flow).
    pub analysis: AnalysisOptions,
    /// Warning threshold as a fraction of Vdd.
    pub warn_frac: f64,
    /// Violation threshold as a fraction of Vdd.
    pub fail_frac: f64,
    /// Run receiver-propagation checks on flagged victims (the serial
    /// [`pcv_xtalk::audit_receivers`] pass), in-job.
    pub check_receivers: bool,
    /// Incremental result store; `None` disables caching.
    pub cache_path: Option<PathBuf>,
    /// Collect a structured trace of the run ([`pcv_trace`]): spans for
    /// every pipeline stage, solver counters, queue-depth histograms. The
    /// merged trace lands in [`EngineReport::trace`]; with `cache_path`
    /// set, Chrome-trace and profile JSON files are also written next to
    /// the cache. Off by default — instrumentation then costs one relaxed
    /// atomic load per site.
    pub trace: bool,
    /// Recovery-ladder knobs ([`RecoveryConfig`]): how failed cluster jobs
    /// are retried and degraded instead of dropped.
    pub recovery: RecoveryConfig,
    /// Streaming lifecycle-event sink ([`pcv_obs::EventSink`]): run
    /// start/finish, cluster queue/start/finish, cache hits, retries,
    /// degradations, worker idling. Events fire from worker threads as
    /// they happen — they carry wall-clock data and exist strictly outside
    /// the deterministic report path. `None` (the default) costs nothing.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Append one [`pcv_obs::RunRecord`] per run to the JSONL ledger next
    /// to the cache file (`<cache>.ledger.jsonl`). Only takes effect when
    /// `cache_path` is set; best-effort, observational only.
    pub ledger: bool,
    /// Durability knobs ([`DurableConfig`]): checkpoint journal, run lock,
    /// cooperative stop, and the (fault-injectable) filesystem handle all
    /// persisted artifacts go through.
    pub durable: DurableConfig,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("prune", &self.prune)
            .field("analysis", &self.analysis)
            .field("warn_frac", &self.warn_frac)
            .field("fail_frac", &self.fail_frac)
            .field("check_receivers", &self.check_receivers)
            .field("cache_path", &self.cache_path)
            .field("trace", &self.trace)
            .field("recovery", &self.recovery)
            .field("sink", &self.sink.as_ref().map(|_| "<EventSink>"))
            .field("ledger", &self.ledger)
            .field("durable", &self.durable)
            .finish()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            prune: PruneConfig::default(),
            analysis: AnalysisOptions::default(),
            warn_frac: 0.1,
            fail_frac: 0.2,
            check_receivers: false,
            cache_path: None,
            trace: false,
            recovery: RecoveryConfig::default(),
            sink: None,
            ledger: true,
            durable: DurableConfig::default(),
        }
    }
}

/// Parallel, fault-isolated, incremental chip-verification engine.
///
/// [`Engine::verify`] produces, when every job succeeds and the cache is
/// cold, the exact same [`ChipReport`] as the serial
/// [`pcv_xtalk::verify_chip`] (+ [`pcv_xtalk::audit_receivers`] when
/// `check_receivers` is set) — verdict for verdict, bit for bit —
/// regardless of worker count or scheduling order.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Configuration used by [`Engine::verify`].
    pub config: EngineConfig,
    plan: FaultPlan,
}

/// Outcome of one successful cluster job.
struct JobOk {
    verdict: NetVerdict,
    cluster: Cluster,
    cached: bool,
    /// The verdict was adopted from the checkpoint journal (resume path).
    replayed: bool,
    entry: Option<CacheEntry>,
    degradation: Option<Degradation>,
    prune: Duration,
    analysis: Duration,
    receiver: Duration,
}

/// Outcome of one ladder attempt (a full analysis at one rung).
struct AttemptOk {
    rise: f64,
    fall: f64,
    receiver: Option<ReceiverVerdict>,
    analysis: Duration,
    receiver_time: Duration,
}

/// Classify peaks against the noise-margin thresholds (serial rule).
fn classify(rise: f64, fall: f64, vdd: f64, warn: f64, fail: f64) -> (f64, Severity) {
    let worst_frac = rise.abs().max(fall.abs()) / vdd;
    let severity = if worst_frac >= fail {
        Severity::Violation
    } else if worst_frac >= warn {
        Severity::Warning
    } else {
        Severity::Clean
    };
    (worst_frac, severity)
}

/// Analysis options for one ladder rung. Adjustments are *cumulative*: each
/// higher rung keeps every lower rung's mitigation, so the walk is a pure
/// function of the rung (not of the failure path that led there).
fn rung_options(cfg: &EngineConfig, rung: RecoveryRung) -> AnalysisOptions {
    let rec = &cfg.recovery;
    let mut opts = cfg.analysis.clone();
    // Stall protection applies at every rung, baseline included. The
    // budget checks are read-only until they trip, so they cannot perturb
    // a healthy run's numbers.
    opts.mor.newton_budget = opts.mor.newton_budget.min(rec.newton_budget);
    opts.mor.max_tran_steps = opts.mor.max_tran_steps.min(rec.max_tran_steps);
    if let Some(budget) = rec.deadline {
        opts.mor.cancel = Some(CancelToken::with_deadline(budget));
    }
    if rung >= RecoveryRung::GminBoost {
        opts.gmin_scale *= rec.gmin_boost;
    }
    if rung >= RecoveryRung::ReducedOrder {
        if let EngineKind::Mor { block_iters } = opts.engine {
            opts.engine = EngineKind::Mor { block_iters: (block_iters / 2).max(1) };
        }
    }
    if rung >= RecoveryRung::SofterNewton {
        opts.mor.max_step_fraction *= rec.step_shrink;
    }
    if rung >= RecoveryRung::SpiceFallback {
        opts.engine = EngineKind::Spice;
    }
    opts
}

/// Context for one ladder rung: from [`RecoveryRung::SofterNewton`] up,
/// nonlinear driver surfaces are swapped for the smooth Thevenin
/// (timing-library) model, which cannot trap Newton in a kink limit cycle.
fn rung_context<'a>(ctx: &AnalysisContext<'a>, rung: RecoveryRung) -> AnalysisContext<'a> {
    let mut adjusted = *ctx;
    if rung >= RecoveryRung::SofterNewton && adjusted.driver_model == DriverModelKind::Nonlinear {
        adjusted.driver_model = DriverModelKind::TimingLibrary;
    }
    adjusted
}

/// Realize one injected fault for one ladder attempt. `Panic` unwinds like
/// a real job bug; `NonSpd` and `NaN` return the exact typed errors the
/// numeric guards produce (so routing is exercised end-to-end without
/// machine-dependent arithmetic); `Slow` collapses the Newton budget so the
/// *real* budget mechanism trips.
fn inject(kind: FaultKind, name: &str, opts: &mut AnalysisOptions) -> Result<(), XtalkError> {
    match kind {
        FaultKind::Panic => panic!("injected fault in cluster job for {name}"),
        FaultKind::NonSpd => {
            Err(XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite {
                col: 0,
                pivot: -1.0,
            })))
        }
        FaultKind::NaN => Err(XtalkError::Mor(MorError::NonFinite { what: "injected nan fault" })),
        FaultKind::Slow => {
            opts.mor.newton_budget = 1;
            Ok(())
        }
    }
}

impl Engine {
    /// Engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config, plan: FaultPlan::new() }
    }

    /// Chaos hook: make every ladder attempt for the named victim panic
    /// (a persistent [`FaultKind::Panic`]). The fault-isolation drill —
    /// used by tests and operators to confirm one bad cluster cannot take
    /// down a chip audit. Shorthand for [`Engine::set_fault_plan`].
    pub fn inject_fault(&mut self, net_name: impl Into<String>) {
        self.plan.inject(net_name, FaultSpec { kind: FaultKind::Panic, persistent: true });
    }

    /// Install a deterministic fault-injection plan (replacing any previous
    /// one). See [`FaultPlan`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Audit `victims`: prune, analyze and classify each one as a parallel
    /// cluster job, then merge a report identical to the serial flow.
    ///
    /// A failing job walks the recovery ladder; one that exhausts it is
    /// worst-cased and also recorded as an [`EngineError`]. The remaining
    /// victims are still fully reported.
    ///
    /// # Errors
    ///
    /// [`XtalkError::InvalidConfig`] for inconsistent thresholds or
    /// receiver checks without design/library data. Per-victim analysis
    /// failures do **not** error — they land in
    /// [`EngineReport::errors`].
    pub fn verify(
        &self,
        ctx: &AnalysisContext<'_>,
        victims: &[PNetId],
    ) -> Result<EngineReport, XtalkError> {
        self.run(ctx, victims, false, None, None)
    }

    /// [`Engine::verify`] over a [`ResidentChip`]: the elaborate-once,
    /// run-many entry point. Reuses the chip's precomputed coupling
    /// component sizes instead of rebuilding the union-find, and — when
    /// `snapshot` is given — publishes every completed verdict into it as
    /// the run progresses, so concurrent readers can serve per-net partial
    /// results mid-run. The report is byte-identical to
    /// [`Engine::verify`] over `chip.ctx()` and `chip.victims()`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::verify`].
    pub fn verify_resident(
        &self,
        chip: &ResidentChip,
        snapshot: Option<&VerdictSnapshot>,
    ) -> Result<EngineReport, XtalkError> {
        self.run(&chip.ctx(), chip.victims(), false, Some(chip.component_sizes()), snapshot)
    }

    /// [`Engine::resume`] over a [`ResidentChip`]: replay the checkpoint
    /// journal, then finish the remaining clusters — the service-side path
    /// for completing a run a shutdown interrupted.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::verify`].
    pub fn resume_resident(
        &self,
        chip: &ResidentChip,
        snapshot: Option<&VerdictSnapshot>,
    ) -> Result<EngineReport, XtalkError> {
        self.run(&chip.ctx(), chip.victims(), true, Some(chip.component_sizes()), snapshot)
    }

    /// [`Engine::resume_resident`] restricted to an explicit victim slice
    /// — a restarted shard worker replays its own journal and finishes
    /// only its slice's tail.
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::verify`].
    pub fn resume_slice(
        &self,
        chip: &ResidentChip,
        victims: &[PNetId],
        snapshot: Option<&VerdictSnapshot>,
    ) -> Result<EngineReport, XtalkError> {
        self.run(&chip.ctx(), victims, true, Some(chip.component_sizes()), snapshot)
    }

    /// [`Engine::verify`], but first replay the checkpoint journal a
    /// previous (interrupted or killed) run left next to the cache:
    /// journaled verdicts whose cluster fingerprint still matches the
    /// current netlist + configuration are adopted bit for bit, and only
    /// the missing or stale clusters are recomputed. The merged report —
    /// and in particular [`EngineReport::signoff_json`] — is
    /// byte-identical to an uninterrupted [`Engine::verify`] run.
    ///
    /// With no journal on disk (or a journal from a different config,
    /// chip slice, or with journaling disabled), this is exactly
    /// [`Engine::verify`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Engine::verify`]. Journal damage is never an
    /// error: corrupt or torn records are skipped and their clusters
    /// recomputed.
    pub fn resume(
        &self,
        ctx: &AnalysisContext<'_>,
        victims: &[PNetId],
    ) -> Result<EngineReport, XtalkError> {
        self.run(ctx, victims, true, None, None)
    }

    fn run(
        &self,
        ctx: &AnalysisContext<'_>,
        victims: &[PNetId],
        resume: bool,
        components: Option<&[usize]>,
        snapshot: Option<&VerdictSnapshot>,
    ) -> Result<EngineReport, XtalkError> {
        let cfg = &self.config;
        if cfg.warn_frac > cfg.fail_frac {
            return Err(XtalkError::InvalidConfig {
                what: "warning threshold must not exceed failure",
            });
        }
        if cfg.check_receivers && (ctx.design.is_none() || ctx.lib.is_none()) {
            return Err(XtalkError::InvalidConfig {
                what: "receiver checks need design and library data",
            });
        }
        // Bridge spans to the allocation counters when the instrumented
        // allocator is installed (idempotent no-op otherwise).
        pcv_obs::mem::install_trace_probe();
        let session = if cfg.trace { Some(pcv_trace::TraceSession::start()) } else { None };
        let start = Instant::now();
        let workers = match cfg.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        // Lifecycle events are strictly observational: they carry
        // wall-clock data and never feed back into the report, so the
        // emit sites below must stay out of anything deterministic.
        let sink = cfg.sink.as_deref();
        let emit = |ev: EngineEvent| {
            if let Some(s) = sink {
                s.event(&ev);
            }
        };
        emit(EngineEvent::RunStarted { victims: victims.len(), workers });

        let chash = config_hash(
            ctx,
            &cfg.prune,
            &cfg.analysis,
            cfg.warn_frac,
            cfg.fail_frac,
            cfg.check_receivers,
        );
        let chip_fp = chip_slice_fingerprint(ctx, victims);
        let fs = cfg.durable.fs.clone();

        // Advisory run lock: two concurrent runs over one cache directory
        // would interleave journal appends and race the cache replace.
        // Held (RAII) until this function returns.
        let _lock = match cfg.cache_path.as_deref() {
            Some(path) if cfg.durable.lock => {
                match RunLock::acquire(&RunLock::path_for(path), chash) {
                    Ok(lock) => Some(lock),
                    Err(LockError::Held { pid }) => {
                        return Err(XtalkError::Busy {
                            path: RunLock::path_for(path).display().to_string(),
                            pid,
                        });
                    }
                    // Advisory locking is best-effort: an unusable lock
                    // file must not block verification.
                    Err(LockError::Io(_)) => None,
                }
            }
            _ => None,
        };

        let cache = {
            let _span = pcv_trace::span("engine", "cache_load");
            match cfg.cache_path.as_deref() {
                Some(path) => ResultCache::load_with(&fs, path).0,
                None => ResultCache::new(),
            }
        };

        // Checkpoint journal: on resume, adopt whatever a previous run of
        // the same config + chip slice checkpointed; otherwise (or when
        // the header is stale) start fresh. All best-effort — a run whose
        // journal cannot be written is still correct, just not resumable.
        let mut replay: HashMap<String, JournalEntry> = HashMap::new();
        let journal_handle: Option<Journal> = match cfg.cache_path.as_deref() {
            Some(path) if cfg.durable.journal => {
                let jpath = Journal::path_for(path);
                let mut resumed = false;
                if resume {
                    let load = Journal::load(&fs, &jpath);
                    if load.header == Some((chash, chip_fp)) {
                        for e in load.entries {
                            replay.insert(e.name.clone(), e);
                        }
                        resumed = true;
                    }
                }
                if resumed {
                    emit(EngineEvent::RunResumed { replayable: replay.len() });
                    Some(Journal::append_to(&fs, &jpath))
                } else {
                    Journal::begin(&fs, &jpath, chash, chip_fp).ok()
                }
            }
            _ => None,
        };
        let journal = journal_handle.as_ref();
        // Serialize checkpoint appends across worker threads so records
        // can never interleave mid-line.
        let journal_mutex = std::sync::Mutex::new(());
        let checkpoint = |ok: &JobOk, fp: u64| {
            let Some(j) = journal else {
                return;
            };
            let entry = JournalEntry {
                name: ok.verdict.name.clone(),
                fingerprint: fp,
                rise_bits: ok.verdict.rise_peak.to_bits(),
                fall_bits: ok.verdict.fall_peak.to_bits(),
                receiver: ok.verdict.receiver.as_ref().map(|r| CachedReceiver {
                    cell: r.cell.clone(),
                    output_peak_bits: r.output_peak.to_bits(),
                    propagates: r.propagates,
                }),
                degraded: ok.degradation.as_ref().map(|d| ReplayDegradation {
                    recovered: d.recovered,
                    attempts: d
                        .attempts
                        .iter()
                        .map(|a| ReplayAttempt { rung: a.rung, reason: a.reason.clone() })
                        .collect(),
                }),
            };
            let _guard = journal_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            // Best-effort: a failed append costs resume coverage for this
            // cluster, nothing else.
            let _ = j.record(&entry);
        };

        let stop = cfg.durable.stop.as_ref();

        // One union-find for the whole run instead of one per victim —
        // or zero, when a ResidentChip already paid for it at elaboration.
        let computed_components;
        let component_sizes: &[usize] = match components {
            Some(sizes) => sizes,
            None => {
                computed_components = coupling_component_sizes(ctx.db);
                &computed_components
            }
        };

        if sink.is_some() {
            for &vic in victims {
                emit(EngineEvent::ClusterQueued { name: ctx.db.net(vic).name().to_owned() });
            }
        }

        let job = |i: usize| -> Option<JobOk> {
            let vic = victims[i];
            // Graceful drain: once a stop is requested, queued clusters
            // are skipped (in-flight ones run to completion so their
            // verdicts stay deterministic and get checkpointed).
            if stop.is_some_and(|s| s.is_stopped()) {
                pcv_trace::count("engine.durable.skipped", 1);
                emit(EngineEvent::ClusterSkipped { name: ctx.db.net(vic).name().to_owned() });
                return None;
            }
            let _job_span = pcv_trace::span_labeled("engine", "cluster_job", || {
                ctx.db.net(vic).name().to_owned()
            });
            let job_start = Instant::now();
            emit(EngineEvent::ClusterStarted { name: ctx.db.net(vic).name().to_owned() });
            let t = Instant::now();
            let cluster = prune_victim_with_components(ctx.db, vic, &cfg.prune, component_sizes);
            let prune = t.elapsed();
            let name = ctx.db.net(vic).name().to_owned();

            let fp = cluster_fingerprint(ctx, &cluster, chash);
            // A stored verdict whose fingerprint still matches the cluster
            // we just pruned is adopted bit for bit: a journal checkpoint
            // on the resume path first, else a cache entry.
            let stored = if let Some(e) = replay.get(&name).filter(|e| e.fingerprint == fp) {
                pcv_trace::count("engine.journal.replays", 1);
                emit(EngineEvent::ClusterReplayed { name: name.clone() });
                let degradation = e.degraded.as_ref().map(|d| Degradation {
                    net: vic,
                    name: name.clone(),
                    attempts: d
                        .attempts
                        .iter()
                        .map(|a| Attempt {
                            rung: a.rung,
                            reason: a.reason.clone(),
                            elapsed: Duration::ZERO,
                        })
                        .collect(),
                    recovered: d.recovered,
                });
                Some((e.rise_bits, e.fall_bits, e.receiver.as_ref(), degradation, true))
            } else if let Some(e) = cache.lookup(&name, fp) {
                pcv_trace::count("engine.cache.hits", 1);
                emit(EngineEvent::CacheHit { name: name.clone() });
                Some((e.rise_bits, e.fall_bits, e.receiver.as_ref(), None, false))
            } else {
                None
            };
            let out = match stored {
                Some((rise_bits, fall_bits, receiver, degradation, replayed)) => {
                    let ok = AttemptOk {
                        rise: f64::from_bits(rise_bits),
                        fall: f64::from_bits(fall_bits),
                        receiver: receiver.map(|r| ReceiverVerdict {
                            cell: r.cell.clone(),
                            output_peak: f64::from_bits(r.output_peak_bits),
                            propagates: r.propagates,
                        }),
                        analysis: Duration::ZERO,
                        receiver_time: Duration::ZERO,
                    };
                    let mut out = self.assemble(vic, cluster, &name, fp, ok, degradation, prune);
                    // Replayed healthy verdicts flow into the cache save at
                    // the end of this run (the interrupted run never saved
                    // them); cache hits are already stored.
                    out.replayed = replayed;
                    out.cached = !replayed;
                    if out.cached {
                        out.entry = None;
                    }
                    out
                }
                None => {
                    pcv_trace::count("engine.cache.misses", 1);
                    emit(EngineEvent::CacheMiss { name: name.clone() });
                    let (ok, degradation) = self.ladder(ctx, vic, &cluster, &name, &emit);
                    let out = self.assemble(vic, cluster, &name, fp, ok, degradation, prune);
                    checkpoint(&out, fp);
                    out
                }
            };
            emit(EngineEvent::ClusterFinished {
                name,
                cached: out.cached,
                elapsed: job_start.elapsed(),
            });
            Some(out)
        };

        // Mid-run read side: each completed verdict is published into the
        // snapshot the moment its job returns, before the merge — readers
        // polling a resident run see partial results grow monotonically.
        let observed_job = |i: usize| {
            let outcome = job(i);
            if let (Some(snap), Some(ok)) = (snapshot, &outcome) {
                snap.insert(ok.verdict.clone());
            }
            outcome
        };
        let (results, run_stats) =
            scheduler::run_with_idle(workers, victims.len(), observed_job, |w| {
                emit(EngineEvent::WorkerIdle { worker: w })
            });

        // Deterministic merge: collect in input order, then apply the exact
        // stable sort the serial flow uses. Stability makes ties keep input
        // order, so the merged report is independent of scheduling.
        let merge_span = pcv_trace::span("engine", "merge");
        let mut verdicts = Vec::with_capacity(victims.len());
        let mut clusters = Vec::with_capacity(victims.len());
        let mut costs: Vec<ClusterCost> = Vec::with_capacity(victims.len());
        let mut errors = Vec::new();
        let mut degradations: Vec<Degradation> = Vec::new();
        let mut fresh: Vec<(String, CacheEntry)> = Vec::new();
        let (mut hits, mut misses) = (0usize, 0usize);
        let (mut journal_hits, mut skipped) = (0usize, 0usize);
        let (mut prune_total, mut analysis_total, mut receiver_total) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for (i, result) in results.into_iter().enumerate() {
            let ok = match result {
                Ok(Some(ok)) => ok,
                Ok(None) => {
                    // Skipped after a stop request: no verdict, no error —
                    // the cluster is simply left for the resume run.
                    skipped += 1;
                    continue;
                }
                Err(panic) => {
                    errors.push(EngineError {
                        net: victims[i],
                        name: ctx.db.net(victims[i]).name().to_owned(),
                        stage: "baseline".to_owned(),
                        message: format!("job panicked: {panic}"),
                    });
                    continue;
                }
            };
            if ok.replayed {
                journal_hits += 1;
            } else if ok.cached {
                hits += 1;
            } else {
                misses += 1;
            }
            if let Some(entry) = ok.entry {
                fresh.push((ok.verdict.name.clone(), entry));
            }
            prune_total += ok.prune;
            analysis_total += ok.analysis;
            receiver_total += ok.receiver;
            if let Some(d) = ok.degradation {
                // A worst-cased cluster also surfaces as a structured
                // error record: the last attempt names the stage and
                // reason the analysis gave up on.
                if d.recovered == RecoveryRung::WorstCase {
                    let (stage, message) = match d.attempts.last() {
                        Some(a) => (a.rung.name().to_owned(), a.reason.clone()),
                        None => ("baseline".to_owned(), "no attempt recorded".to_owned()),
                    };
                    errors.push(EngineError { net: d.net, name: d.name.clone(), stage, message });
                }
                degradations.push(d);
            }
            costs.push(ClusterCost {
                net: ok.verdict.net,
                name: ok.verdict.name.clone(),
                cluster_size: ok.verdict.cluster_size,
                cached: ok.cached,
                prune: ok.prune,
                analysis: ok.analysis,
                receiver: ok.receiver,
            });
            verdicts.push(ok.verdict);
            clusters.push(ok.cluster);
        }
        verdicts.sort_by(|a, b| b.worst_frac.partial_cmp(&a.worst_frac).expect("finite fractions"));
        // Most expensive first; the stable sort keeps ties in input order.
        costs.sort_by_key(|c| std::cmp::Reverse(c.total()));
        drop(merge_span);

        let interrupted = stop.is_some_and(|s| s.is_stopped());
        if interrupted {
            emit(EngineEvent::RunStopped { completed: victims.len() - skipped, skipped });
        }

        let mut cache_saved = false;
        if let Some(path) = cfg.cache_path.as_deref() {
            let _span = pcv_trace::span("engine", "cache_save");
            let mut updated = cache;
            for (name, entry) in fresh {
                updated.insert(name, entry);
            }
            // Best-effort: a failed save only costs future cache hits.
            cache_saved = updated.save_with(&fs, path).is_ok();
        }
        // The journal has served its purpose only once every checkpointed
        // verdict is durably in the cache *and* the run completed; an
        // interrupted or save-failed run keeps it for the next resume.
        if cache_saved && !interrupted {
            if let Some(j) = journal {
                let _ = j.discard();
            }
        }

        let recovery_total: Duration = degradations.iter().map(Degradation::recovery_time).sum();
        let mem = pcv_obs::mem::snapshot().unwrap_or_default();
        let mut stats = EngineStats {
            workers,
            victims: victims.len(),
            cache_hits: hits,
            cache_misses: misses,
            journal_hits,
            skipped,
            degraded: degradations.len(),
            prune_time: prune_total,
            analysis_time: analysis_total,
            receiver_time: receiver_total,
            recovery_time: recovery_total,
            wall_time: start.elapsed(),
            worker_busy: run_stats.worker_busy,
            steals: run_stats.steals,
            peak_alloc_bytes: mem.peak_bytes,
            allocs: mem.allocs,
            events_dropped: 0,
        };
        emit(EngineEvent::RunFinished {
            victims: victims.len(),
            wall: stats.wall_time,
            cache_hits: hits,
            degraded: degradations.len(),
        });
        // Read the sink's shed counter only after the final event fired,
        // so a drop of RunFinished itself is still accounted for.
        stats.events_dropped = sink.map(|s| s.dropped()).unwrap_or(0);
        if cfg.ledger {
            if let Some(path) = cfg.cache_path.as_deref() {
                let record = RunRecord {
                    config_fingerprint: chash,
                    chip_fingerprint: chip_fp,
                    outcome: if interrupted { "stopped".to_owned() } else { "complete".to_owned() },
                    journal_hits,
                    skipped,
                    victims: victims.len(),
                    workers,
                    host_parallelism: std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1),
                    cache_hits: hits,
                    cache_misses: misses,
                    degraded: degradations.len(),
                    errors: errors.len(),
                    steals: stats.steals,
                    wall_ms: stats.wall_time.as_secs_f64() * 1e3,
                    prune_ms: prune_total.as_secs_f64() * 1e3,
                    analysis_ms: analysis_total.as_secs_f64() * 1e3,
                    receiver_ms: receiver_total.as_secs_f64() * 1e3,
                    recovery_ms: recovery_total.as_secs_f64() * 1e3,
                    peak_alloc_bytes: mem.peak_bytes,
                    allocs: mem.allocs,
                };
                let mut os = path.as_os_str().to_owned();
                os.push(".ledger.jsonl");
                // Best-effort, like the cache save: a failed append only
                // costs trajectory history. Durable (fsync'd) so the
                // "stopped, resumable" marker survives the kill that
                // usually follows it.
                let line = format!("{}\n", record.to_json());
                let _ = fs.append_durable(std::path::Path::new(&os), line.as_bytes());
            }
        }
        let trace = session.map(|s| s.finish());
        let report = EngineReport {
            chip: ChipReport {
                verdicts,
                pruning: PruningStats::compute(&clusters),
                warn_frac: cfg.warn_frac,
                fail_frac: cfg.fail_frac,
            },
            errors,
            degradations,
            stats,
            clusters: costs,
            trace,
            interrupted,
        };
        // Traced runs with a cache location drop their artifacts next to
        // the cache file (best-effort, like the cache save itself).
        if report.trace.is_some() {
            if let Some(path) = cfg.cache_path.as_deref() {
                let _ = report.write_profile_with(&fs, path);
            }
        }
        Ok(report)
    }

    /// Walk the recovery ladder for one cluster until an attempt stands.
    /// The WorstCase rung always succeeds, so every victim ends with a
    /// verdict; a rung above baseline comes back with its degradation.
    fn ladder(
        &self,
        ctx: &AnalysisContext<'_>,
        vic: PNetId,
        cluster: &Cluster,
        name: &str,
        emit: &dyn Fn(EngineEvent),
    ) -> (AttemptOk, Option<Degradation>) {
        let cfg = &self.config;
        let fault = self.plan.fault_for(name);
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut rung = RecoveryRung::Baseline;
        let (ok, recovered) = loop {
            if rung == RecoveryRung::WorstCase {
                pcv_trace::count("engine.recovery.worst_case", 1);
                let vdd = cfg.analysis.vdd;
                break (
                    AttemptOk {
                        rise: vdd,
                        fall: -vdd,
                        receiver: None,
                        analysis: Duration::ZERO,
                        receiver_time: Duration::ZERO,
                    },
                    RecoveryRung::WorstCase,
                );
            }
            if rung > RecoveryRung::Baseline {
                pcv_trace::count("engine.recovery.retries", 1);
            }
            let mut opts = rung_options(cfg, rung);
            let actx = rung_context(ctx, rung);
            // Non-persistent faults fire at the baseline attempt only, so
            // the first retry rung sees a healthy cluster.
            let inject_here = fault
                .filter(|spec| spec.persistent || rung == RecoveryRung::Baseline)
                .map(|spec| spec.kind);
            let attempt_start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(kind) = inject_here {
                    inject(kind, name, &mut opts)?;
                }
                self.run_attempt(&actx, cluster, name, &opts)
            }));
            match outcome {
                Ok(Ok(ok)) => break (ok, rung),
                Ok(Err(err)) => {
                    if matches!(&err, XtalkError::Mor(MorError::Cancelled { .. })) {
                        pcv_trace::count("engine.recovery.deadline_hits", 1);
                    }
                    if matches!(&err, XtalkError::Mor(MorError::BudgetExhausted { .. })) {
                        pcv_trace::count("engine.recovery.budget_exhausted", 1);
                    }
                    let target = route(&err);
                    let next = rung.next().expect("worst case breaks the loop");
                    attempts.push(Attempt {
                        rung,
                        reason: err.to_string(),
                        elapsed: attempt_start.elapsed(),
                    });
                    rung = next.max(target);
                    emit(EngineEvent::ClusterRetried { name: name.to_owned(), rung: rung.name() });
                }
                Err(payload) => {
                    let message = scheduler::panic_message(payload);
                    attempts.push(Attempt {
                        rung,
                        reason: format!("job panicked: {message}"),
                        elapsed: attempt_start.elapsed(),
                    });
                    // A panic carries no typed routing information; skip
                    // the MOR-tuning rungs entirely.
                    let next = rung.next().expect("worst case breaks the loop");
                    rung = next.max(RecoveryRung::SpiceFallback);
                    emit(EngineEvent::ClusterRetried { name: name.to_owned(), rung: rung.name() });
                }
            }
        };
        let degradation = (recovered != RecoveryRung::Baseline).then(|| {
            pcv_trace::count("engine.recovery.degraded", 1);
            if recovered == RecoveryRung::SpiceFallback {
                pcv_trace::count("engine.recovery.fallback_spice", 1);
            }
            emit(EngineEvent::ClusterDegraded { name: name.to_owned(), rung: recovered.name() });
            Degradation { net: vic, name: name.to_owned(), attempts, recovered }
        });
        (ok, degradation)
    }

    /// One full analysis at one ladder rung: both glitch polarities, then
    /// the receiver check when the verdict is severe enough. `opts` carries
    /// the rung's (possibly adjusted) analysis options.
    fn run_attempt(
        &self,
        ctx: &AnalysisContext<'_>,
        cluster: &Cluster,
        name: &str,
        opts: &AnalysisOptions,
    ) -> Result<AttemptOk, XtalkError> {
        let cfg = &self.config;
        let t = Instant::now();
        let (rise, fall, worse) = if cluster.aggressors.is_empty() {
            (0.0, 0.0, None)
        } else {
            let up = analyze_glitch(ctx, cluster, true, opts)?;
            let down = analyze_glitch(ctx, cluster, false, opts)?;
            let (rise, fall) = (up.peak, down.peak);
            let worse = if rise.abs() >= fall.abs() { up } else { down };
            (rise, fall, Some(worse))
        };
        let analysis = t.elapsed();
        let (_, severity) = classify(rise, fall, cfg.analysis.vdd, cfg.warn_frac, cfg.fail_frac);
        let mut receiver_time = Duration::ZERO;
        let receiver = if cfg.check_receivers && severity >= Severity::Warning {
            let t = Instant::now();
            let r = self.receiver_check(ctx, cluster, name, rise, fall, worse, opts)?;
            receiver_time = t.elapsed();
            Some(r)
        } else {
            None
        };
        Ok(AttemptOk { rise, fall, receiver, analysis, receiver_time })
    }

    /// Turn a standing attempt into the job outcome: classify, build the
    /// verdict, and decide cacheability. Degraded results are **not**
    /// cached — a recovered verdict must be recomputed next run, otherwise
    /// cold and warm reports would diverge.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        vic: PNetId,
        cluster: Cluster,
        name: &str,
        fp: u64,
        ok: AttemptOk,
        degradation: Option<Degradation>,
        prune: Duration,
    ) -> JobOk {
        let cfg = &self.config;
        let (worst_frac, severity) =
            classify(ok.rise, ok.fall, cfg.analysis.vdd, cfg.warn_frac, cfg.fail_frac);
        let entry = degradation.is_none().then(|| CacheEntry {
            fingerprint: fp,
            rise_bits: ok.rise.to_bits(),
            fall_bits: ok.fall.to_bits(),
            receiver: ok.receiver.as_ref().map(|r| CachedReceiver {
                cell: r.cell.clone(),
                output_peak_bits: r.output_peak.to_bits(),
                propagates: r.propagates,
            }),
        });
        let verdict = NetVerdict {
            net: vic,
            name: name.to_owned(),
            rise_peak: ok.rise,
            fall_peak: ok.fall,
            worst_frac,
            severity,
            cluster_size: cluster.size(),
            neighbors_before: cluster.neighbors_before,
            receiver: ok.receiver,
        };
        JobOk {
            verdict,
            cluster,
            cached: false,
            replayed: false,
            entry,
            degradation,
            prune,
            analysis: ok.analysis,
            receiver: ok.receiver_time,
        }
    }

    /// In-job receiver check: the serial [`pcv_xtalk::audit_receivers`]
    /// rule, reusing the worse-polarity waveform already computed instead
    /// of re-running the analysis (deterministic, so the result is
    /// identical).
    #[allow(clippy::too_many_arguments)]
    fn receiver_check(
        &self,
        ctx: &AnalysisContext<'_>,
        cluster: &Cluster,
        name: &str,
        rise: f64,
        fall: f64,
        worse: Option<GlitchResult>,
        opts: &AnalysisOptions,
    ) -> Result<ReceiverVerdict, XtalkError> {
        let (Some(design), Some(lib)) = (ctx.design, ctx.lib) else {
            return Err(XtalkError::InvalidConfig {
                what: "receiver checks need design and library data",
            });
        };
        let dnet =
            design.find_net(name).ok_or_else(|| XtalkError::NoDriver { net: name.to_owned() })?;
        // Same receiver pick as the serial audit: first non-latch load,
        // else the latch input-stage-equivalent inverter.
        let receiver_cell = design
            .loads_of(dnet)
            .iter()
            .filter_map(|&(inst, _)| lib.cell(&design.instance(inst).cell))
            .find(|c| c.kind != CellKind::Latch)
            .or_else(|| lib.cell("INVX1"))
            .ok_or(XtalkError::InvalidConfig { what: "no receiver cell available" })?;
        let rising = rise.abs() >= fall.abs();
        let glitch = match worse {
            Some(g) => g,
            // Only reachable for an aggressor-less victim flagged by a
            // zero warning threshold.
            None => analyze_glitch(ctx, cluster, rising, opts)?,
        };
        let quiet = if rising { 0.0 } else { self.config.analysis.vdd };
        let check = check_receiver_propagation(
            receiver_cell,
            &glitch.waveform,
            quiet,
            self.config.analysis.vdd,
            self.config.fail_frac,
        )?;
        Ok(ReceiverVerdict {
            cell: receiver_cell.name.clone(),
            output_peak: check.output_peak,
            propagates: check.propagates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    /// The same two-victim fixture as the serial chip tests.
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

    fn config(workers: usize) -> EngineConfig {
        EngineConfig { workers, ..Default::default() }
    }

    #[test]
    fn matches_serial_verify_chip() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let victims = [cold, hot];
        let serial = pcv_xtalk::verify_chip(
            &ctx,
            &victims,
            &PruneConfig::default(),
            &AnalysisOptions::default(),
            0.1,
            0.2,
        )
        .unwrap();
        for workers in [1, 2, 4] {
            let report = Engine::new(config(workers)).verify(&ctx, &victims).unwrap();
            assert_eq!(report.chip, serial);
            assert!(report.errors.is_empty());
            assert_eq!(report.stats.cache_misses, 2);
            assert_eq!(report.stats.workers, workers);
        }
    }

    #[test]
    fn injected_fault_is_isolated_and_worst_cased() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let mut engine = Engine::new(config(2));
        engine.inject_fault("hot");
        let report = engine.verify(&ctx, &[cold, hot]).unwrap();
        // A persistent panic defeats every analysis rung, so the victim is
        // worst-cased: a conservative verdict plus a structured error.
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].name, "hot");
        assert_eq!(report.errors[0].stage, "spice_fallback");
        assert!(report.errors[0].message.contains("injected fault"));
        assert_eq!(report.chip.verdicts.len(), 2);
        let worst = report.chip.verdicts.iter().find(|v| v.name == "hot").unwrap();
        assert_eq!(worst.worst_frac, 1.0);
        assert_eq!(worst.severity, Severity::Violation);
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.name, "hot");
        assert_eq!(d.recovered, RecoveryRung::WorstCase);
        // Panics skip the MOR-tuning rungs: baseline, then SPICE, then out.
        let rungs: Vec<RecoveryRung> = d.attempts.iter().map(|a| a.rung).collect();
        assert_eq!(rungs, [RecoveryRung::Baseline, RecoveryRung::SpiceFallback]);
        assert_eq!(report.stats.degraded, 1);
        // The other victim is still fully audited, untouched by recovery.
        let cold_v = report.chip.verdicts.iter().find(|v| v.name == "cold").unwrap();
        assert!(cold_v.worst_frac < 1.0);
    }

    #[test]
    fn transient_fault_recovers_on_first_retry() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let victims = [cold, hot];
        let clean = Engine::new(config(1)).verify(&ctx, &victims).unwrap();

        let mut engine = Engine::new(config(2));
        let mut plan = FaultPlan::new();
        plan.inject_named("hot", FaultKind::NonSpd);
        engine.set_fault_plan(plan);
        let report = engine.verify(&ctx, &victims).unwrap();
        // The non-SPD fault routes to GminBoost; the retry sees a healthy
        // cluster and succeeds there.
        assert!(report.errors.is_empty());
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.recovered, RecoveryRung::GminBoost);
        assert_eq!(d.attempts.len(), 1);
        assert!(d.attempts[0].reason.contains("positive definite"));
        // Every victim has a verdict; the unfaulted one is bit-identical
        // to the clean run.
        assert_eq!(report.chip.verdicts.len(), 2);
        let cold_clean = clean.chip.verdicts.iter().find(|v| v.name == "cold").unwrap();
        let cold_faulted = report.chip.verdicts.iter().find(|v| v.name == "cold").unwrap();
        assert_eq!(cold_clean, cold_faulted);
    }

    #[test]
    fn slow_fault_trips_budget_and_falls_back_to_spice() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let mut engine = Engine::new(config(2));
        let mut plan = FaultPlan::new();
        plan.inject("hot", FaultSpec { kind: FaultKind::Slow, persistent: true });
        engine.set_fault_plan(plan);
        let report = engine.verify(&ctx, &[cold, hot]).unwrap();
        // The collapsed Newton budget defeats every MOR rung; the SPICE
        // fallback does not consult the MOR budget and succeeds.
        assert!(report.errors.is_empty());
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.recovered, RecoveryRung::SpiceFallback);
        assert!(d.attempts.iter().all(|a| a.reason.contains("budget exhausted")));
        let hot_v = report.chip.verdicts.iter().find(|v| v.name == "hot").unwrap();
        assert!(hot_v.worst_frac < 1.0, "a real analysis stood, not the worst case");
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let (db, hot, cold) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let dir = std::env::temp_dir().join("pcv-engine-degraded-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store");
        std::fs::remove_file(&path).ok();

        let mut cfg = config(1);
        cfg.cache_path = Some(path.clone());
        let mut engine = Engine::new(cfg.clone());
        let mut plan = FaultPlan::new();
        plan.inject_named("hot", FaultKind::NaN);
        engine.set_fault_plan(plan);
        let faulted = engine.verify(&ctx, &[cold, hot]).unwrap();
        assert_eq!(faulted.degradations.len(), 1);

        // A clean re-run must re-analyze the degraded victim (cache miss)
        // and produce the baseline verdict.
        let clean = Engine::new(cfg).verify(&ctx, &[cold, hot]).unwrap();
        assert_eq!(clean.stats.cache_hits, 1, "only the healthy victim was cached");
        assert_eq!(clean.stats.cache_misses, 1);
        assert!(clean.degradations.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_thresholds_are_rejected() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let engine = Engine::new(EngineConfig { warn_frac: 0.5, fail_frac: 0.2, ..config(1) });
        assert!(matches!(engine.verify(&ctx, &[hot]), Err(XtalkError::InvalidConfig { .. })));
    }

    #[test]
    fn receiver_checks_without_design_are_rejected() {
        let (db, hot, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let engine = Engine::new(EngineConfig { check_receivers: true, ..config(1) });
        assert!(matches!(engine.verify(&ctx, &[hot]), Err(XtalkError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_victim_list_yields_empty_report() {
        let (db, _, _) = db();
        let ctx = AnalysisContext::fixed_resistance(&db, 2000.0);
        let report = Engine::new(config(2)).verify(&ctx, &[]).unwrap();
        assert!(report.chip.verdicts.is_empty());
        assert_eq!(report.stats.victims, 0);
        assert_eq!(report.stats.hit_rate(), 0.0);
    }
}
