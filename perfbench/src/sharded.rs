//! `sharded_signoff`: the default DSP block loaded as a daemon session;
//! each operation is a cold full `POST /sessions/{id}/runs` with
//! `shards: 2` (one engine thread per shard), cache and journal on. Shard
//! spawn, worker re-elaboration, per-verdict durable journal appends,
//! harvest and merge are on the path; the `mor` work equals
//! `signoff_dsp`'s, so the gap between the two is the stack's overhead.

use crate::daemon::{scrape, str_field, wipe_session_cache, Daemon};
use crate::dsp::{self, check_clean, cold_engine, glitch_errors};
use crate::out::Report;
use crate::reference::DSP_SEED;
use crate::stats::{median, Timing};
use crate::{elapsed_ms, mib, Ctx};
use pcv_engine::{EngineReport, ResidentChip};
use pcv_obs::json::{parse, Value};
use pcv_serve::{Coordinator, CoordinatorConfig};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const RUN_BODY: &str = "{\"shards\":2,\"workers\":1}";
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Repetitions of each in-process layer measurement.
const LAYER_REPS: usize = 3;

/// Daemon start to ready, session load and the cold sharded warming run.
fn setup(ctx: &Ctx, session_body: &str) -> Result<(Daemon, String), String> {
    let daemon = Daemon::start(&ctx.serve_exe, &ctx.work.join("daemon"))?;
    let sid = daemon.create_session(session_body)?;
    sharded_run(&daemon, &sid)?;
    Ok((daemon, sid))
}

/// One cold sharded run, POST to sign-off fetched.
fn sharded_run(daemon: &Daemon, sid: &str) -> Result<String, String> {
    let answer = parse(&daemon.call("POST", &format!("/sessions/{sid}/runs"), RUN_BODY)?)
        .map_err(|e| format!("run answer: {e}"))?;
    let run = str_field(&answer, "run")?;
    let end = daemon.wait_run(&run)?;
    if end.degraded > 0 {
        return Err(format!("sharded run {run} degraded {} clusters", end.degraded));
    }
    daemon.call("GET", &format!("/runs/{run}/signoff"), "")
}

/// Shard supervision counters and heap peaks from `/metrics`:
/// `(restarts + heartbeat misses + degraded shards, daemon peak, worst
/// shard-worker peak)`.
fn shard_health(daemon: &Daemon) -> Result<(f64, u64, u64), String> {
    let m = daemon.metrics()?;
    let sum = |name: &str| scrape(&m, name).iter().sum::<f64>();
    let max = |name: &str| scrape(&m, name).into_iter().fold(0.0, f64::max) as u64;
    let trouble = sum("pcv_shard_restarts_total")
        + sum("pcv_shard_heartbeat_misses_total")
        + sum("pcv_shard_degraded_total");
    Ok((trouble, max("pcv_engine_peak_alloc_bytes"), max("pcv_shard_peak_heap_bytes")))
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let chip = Arc::new(dsp::elaborate(DSP_SEED));
    let victims = chip.victims().len();
    let session_body = dsp::spec(DSP_SEED).to_json();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(Daemon, String)> = None;
    for _ in 0..SETUPS {
        if let Some((d, _)) = live.take() {
            d.stop();
        }
        let t0 = Instant::now();
        match setup(ctx, &session_body) {
            Ok(up) => {
                setups.push(t0.elapsed().as_secs_f64());
                live = Some(up);
            }
            Err(e) => {
                report.op(Err(format!("setup: {e}")));
                return;
            }
        }
    }
    report.set("setup_s", median(&setups));
    let (daemon, sid) = live.expect("a setup ran");

    // The in-process truth every merged sign-off must equal byte for byte.
    let inprocess = match cold_engine(ctx.workers, false).verify_resident(&chip, None) {
        Ok(r) => r,
        Err(e) => {
            report.op(Err(format!("in-process sign-off: {e}")));
            return;
        }
    };
    report.op(check_clean(&inprocess, victims));
    let truth = inprocess.signoff_json();

    let mut run_ms = Vec::new();
    let mut peak = 0u64;
    let mut worker_peak = 0u64;
    let window = Instant::now();
    let mut i = 0usize;
    while window.elapsed().as_secs_f64() < ctx.seconds {
        let outcome = wipe_session_cache(&daemon.dir, &sid).and_then(|()| {
            let t0 = Instant::now();
            let signoff = sharded_run(&daemon, &sid)?;
            run_ms.push(elapsed_ms(t0));
            if signoff != truth {
                return Err(format!("merged sign-off {i} differs from the in-process one"));
            }
            let (trouble, daemon_peak, shard_peak) = shard_health(&daemon)?;
            peak = peak.max(daemon_peak);
            worker_peak = worker_peak.max(shard_peak);
            if trouble > 0.0 {
                return Err(format!(
                    "{trouble} shard restarts, missed heartbeats or WorstCase fills"
                ));
            }
            Ok(())
        });
        report.op(outcome);
        i += 1;
    }
    let window_s = window.elapsed().as_secs_f64();
    daemon.stop();

    report.set("victims_per_s", (victims * run_ms.len()) as f64 / window_s);
    report.set("op_ms_p50", median(&run_ms));
    report.set("peak_heap_mib", mib(peak.max(worker_peak)));
    report.note(format!("sharded run latency: {}", Timing::of(&run_ms).describe("ms")));
    report.note(format!(
        "peak heap: daemon {:.2} MiB, worst shard worker {:.2} MiB",
        mib(peak),
        mib(worker_peak)
    ));
    glitch_errors(ctx, report, &chip, &inprocess);

    if ctx.trace {
        report.set("shard.restarts", 0.0);
        report_layers(ctx, report, &chip, &inprocess);
    }
}

/// Per-layer numbers of the shard path, measured outside the daemon:
/// worker processes spawned directly on the worker protocol (spawn to
/// `hello`, `hello` to `done`), and the coordinator run in-process,
/// traced, for the merge and the sharded/in-process ratio.
fn report_layers(
    ctx: &Ctx,
    report: &mut Report,
    chip: &Arc<ResidentChip>,
    inprocess: &EngineReport,
) {
    let spec = dsp::spec(DSP_SEED);
    let mut hello_ms = Vec::new();
    let mut verify_ms = Vec::new();
    let mut merge_ms = Vec::new();
    let mut ratio = Vec::new();
    for rep in 0..LAYER_REPS {
        let dir = ctx.work.join(format!("layers{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);

        // Both workers at once, as the coordinator runs them.
        let workers: Result<Vec<WorkerRun>, String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SHARDS)
                .map(|k| {
                    let line =
                        worker_line(&spec.to_json(), k, &dir.join(format!("w.cache.shard{k}")));
                    let exe = &ctx.serve_exe;
                    s.spawn(move || drive_worker(exe, &line))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or(Err("worker thread".into()))).collect()
        });
        match workers {
            Ok(w) => {
                hello_ms.extend(w.iter().map(|r| r.hello_ms));
                verify_ms.extend(w.iter().map(|r| r.verify_ms));
                report.set(
                    "engine.journal_appends",
                    w.iter().map(|r| r.verdicts).sum::<u64>() as f64,
                );
                report.op(Ok(()));
            }
            Err(e) => report.op(Err(format!("shard worker: {e}"))),
        }

        // The coordinator in-process. The merge is the only engine run in
        // this process, so its first span marks where the merge begins.
        let mut cfg =
            CoordinatorConfig::new(SHARDS, ctx.serve_exe.clone(), dir.join("merged.cache"));
        cfg.workers_per_shard = 1;
        let session = pcv_trace::TraceSession::start();
        let t0 = Instant::now();
        let outcome = Coordinator::new(spec.clone(), Arc::clone(chip), cfg).run(None);
        let wall_ms = elapsed_ms(t0);
        let trace = session.finish();
        let t1 = Instant::now();
        let base = cold_engine(SHARDS, false).verify_resident(chip, None);
        let base_ms = elapsed_ms(t1);
        match (outcome, base) {
            (Ok(o), Ok(_)) if o.report.signoff_json() == inprocess.signoff_json() => {
                let first_ns = trace.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
                merge_ms.push(wall_ms - first_ns as f64 / 1e6);
                ratio.push(wall_ms / base_ms);
                report.set("shard.restarts", o.restarts() as f64);
                report.op(Ok(()));
            }
            (Ok(_), Ok(_)) => report.op(Err("coordinator sign-off differs".to_owned())),
            (Err(e), _) => report.op(Err(format!("coordinator: {e:?}"))),
            (_, Err(e)) => report.op(Err(format!("in-process sign-off: {e}"))),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.set("shard.spawn_to_hello_ms", median(&hello_ms));
    report.set("shard.worker_verify_ms", median(&verify_ms));
    report.set("shard.merge_ms", median(&merge_ms));
    report.set("shard.vs_inprocess", median(&ratio));
}

/// The worker protocol's config line: the design spec plus the shard
/// topology, one engine thread.
fn worker_line(spec_json: &str, shard: usize, cache: &std::path::Path) -> String {
    format!(
        "{},\"shards\":{SHARDS},\"shard\":{shard},\"cache\":{},\"workers\":1}}",
        &spec_json[..spec_json.len() - 1],
        pcv_trace::json::str_lit(&cache.display().to_string())
    )
}

/// One shard worker's run over the worker protocol.
struct WorkerRun {
    hello_ms: f64,
    verify_ms: f64,
    /// Verdict lines streamed: one per verdict the worker computed and
    /// checkpointed in its journal.
    verdicts: u64,
}

/// Run one shard worker to completion.
fn drive_worker(exe: &std::path::Path, line: &str) -> Result<WorkerRun, String> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("--shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdin = child.stdin.take().ok_or("no stdin")?;
    writeln!(stdin, "{line}").map_err(|e| format!("config line: {e}"))?;
    drop(stdin);
    let stdout = child.stdout.take().ok_or("no stdout")?;
    let (mut hello, mut done, mut verdicts) = (None, None, 0);
    for l in BufReader::new(stdout).lines() {
        let Ok(l) = l else { break };
        match parse(&l).ok().as_ref().and_then(|v| v.get("kind")).and_then(Value::as_str) {
            Some("hello") => hello = Some(elapsed_ms(t0)),
            Some("verdict") => verdicts += 1,
            Some("done") => done = Some(elapsed_ms(t0)),
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    match (hello, done) {
        (Some(h), Some(d)) if status.success() => {
            Ok(WorkerRun { hello_ms: h, verify_ms: d - h, verdicts })
        }
        _ => Err(format!("worker exited {status} without hello and done")),
    }
}
