//! The shard-worker process: one slice of a sharded sign-off.
//!
//! `pcv_serve --shard-worker` reads a single JSON config line on stdin,
//! elaborates the **full** chip from the embedded [`DesignSpec`] (so net
//! ids and cluster fingerprints match the coordinator's view exactly),
//! partitions the victim set with [`pcv_engine::shard::partition`], and
//! verifies only its own slice — always through the resume path, so a
//! restarted incarnation replays its shard journal and recomputes just
//! the tail.
//!
//! Everything the worker says goes to stdout as JSONL:
//!
//! ```text
//! {"kind":"hello","shard":K,"victims":N,"torn_journal_lines":T}
//! {"kind":"verdict","net":...,"name":...,...}        // as they land
//! {"kind":"beat","done":N}                            // idle liveness
//! {"kind":"done","outcome":"complete","peak_alloc_bytes":B,"torn_journal_lines":T}
//! ```
//!
//! A verdict line is [`NetVerdict::to_json`] with the `kind` tag in front.
//! Any line is a heartbeat to the coordinator; silence past the deadline
//! is what gets a worker killed and restarted. Exit status 0 means the
//! `done` line is trustworthy; anything else is a crash.
//!
//! The config line may also arm deterministic worker-side drills
//! ([`pcv_engine::shard::ShardFault`]): `panic_after` aborts the process
//! after N verdicts have been emitted, `stall_after` silences all output
//! after N verdicts while the process stays alive — the two failure
//! modes (crash vs. hang) the supervisor must distinguish.

use crate::session::{elaborate, DesignSpec};
use pcv_engine::durable::Journal;
use pcv_engine::fs::Fs;
use pcv_engine::shard::partition;
use pcv_engine::{Engine, EngineConfig, VerdictSnapshot};
use pcv_obs::json::{parse, Value};
use pcv_xtalk::{NetVerdict, ReceiverVerdict, Severity};
use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Serialize a verdict for the worker→coordinator stream: the shared
/// [`NetVerdict::to_json`] encoding behind a `"kind":"verdict"` tag. The
/// coordinator reads the exact `*_bits` hex strings back, so its mirrored
/// snapshot is bit-identical to the worker's.
pub fn verdict_line(v: &NetVerdict) -> String {
    format!("{{\"kind\":\"verdict\",{}", &v.to_json()[1..])
}

/// Parse a [`verdict_line`] back into a [`NetVerdict`] (coordinator side).
pub fn parse_verdict(v: &Value) -> Option<NetVerdict> {
    let bits = |v: &Value, key: &str| {
        let hex = v.get(key)?.as_str()?;
        u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
    };
    let severity = match v.get("severity")?.as_str()? {
        "clean" => Severity::Clean,
        "warning" => Severity::Warning,
        "VIOLATION" => Severity::Violation,
        _ => return None,
    };
    let receiver = match v.get("receiver") {
        None | Some(Value::Null) => None,
        Some(r) => Some(ReceiverVerdict {
            cell: r.get("cell")?.as_str()?.to_owned(),
            output_peak: bits(r, "output_peak_bits")?,
            propagates: matches!(r.get("propagates")?, Value::Bool(true)),
        }),
    };
    Some(NetVerdict {
        net: pcv_netlist::PNetId(v.get("net")?.as_u64()? as usize),
        name: v.get("name")?.as_str()?.to_owned(),
        rise_peak: bits(v, "rise_peak_bits")?,
        fall_peak: bits(v, "fall_peak_bits")?,
        worst_frac: bits(v, "worst_frac_bits")?,
        severity,
        cluster_size: v.get("cluster_size")?.as_u64()? as usize,
        neighbors_before: v.get("neighbors_before")?.as_u64()? as usize,
        receiver,
    })
}

fn emit(line: &str) {
    let out = std::io::stdout();
    let mut lock = out.lock();
    let _ = writeln!(lock, "{line}");
    let _ = lock.flush();
}

struct WorkerConfig {
    spec: DesignSpec,
    shards: usize,
    shard: usize,
    cache: PathBuf,
    workers: usize,
    warn_frac: Option<f64>,
    fail_frac: Option<f64>,
    check_receivers: Option<bool>,
    panic_after: Option<usize>,
    stall_after: Option<usize>,
}

fn parse_config(line: &str) -> Result<WorkerConfig, String> {
    let spec = DesignSpec::from_json(line).map_err(|e| format!("design spec: {e:?}"))?;
    let doc = parse(line).map_err(|e| format!("config line: {e}"))?;
    let uint = |key: &str| doc.get(key).and_then(Value::as_u64).map(|n| n as usize);
    let shards = uint("shards").ok_or("config needs \"shards\"")?;
    let shard = uint("shard").ok_or("config needs \"shard\"")?;
    if shards == 0 || shard >= shards {
        return Err(format!("shard {shard} out of range for {shards} shards"));
    }
    let cache =
        doc.get("cache").and_then(Value::as_str).ok_or("config needs a \"cache\" path")?.into();
    Ok(WorkerConfig {
        spec,
        shards,
        shard,
        cache,
        workers: uint("workers").unwrap_or(0),
        warn_frac: doc.get("warn_frac").and_then(Value::as_f64),
        fail_frac: doc.get("fail_frac").and_then(Value::as_f64),
        check_receivers: doc.get("check_receivers").map(|v| matches!(v, Value::Bool(true))),
        panic_after: uint("panic_after"),
        stall_after: uint("stall_after"),
    })
}

/// Entry point for `pcv_serve --shard-worker`: run one shard to
/// completion and return the process exit code.
#[must_use]
pub fn run_worker() -> i32 {
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() || line.trim().is_empty() {
        eprintln!("pcv-shard-worker: expected one JSON config line on stdin");
        return 2;
    }
    match worker_main(&line) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pcv-shard-worker: {e}");
            2
        }
    }
}

fn worker_main(line: &str) -> Result<i32, String> {
    let cfg = parse_config(line)?;
    let chip = elaborate(&cfg.spec).map_err(|e| format!("elaborate: {e:?}"))?;
    let slice = partition(&chip, chip.victims(), cfg.shards).swap_remove(cfg.shard);
    let torn = Journal::load(&Fs::real(), &Journal::path_for(&cfg.cache)).skipped;
    emit(&format!(
        "{{\"kind\":\"hello\",\"shard\":{},\"victims\":{},\"torn_journal_lines\":{}}}",
        cfg.shard,
        slice.len(),
        torn
    ));

    let snapshot = Arc::new(VerdictSnapshot::new());
    let finished = Arc::new(AtomicBool::new(false));
    let silenced = Arc::new(AtomicBool::new(false));
    let poller = spawn_poller(
        Arc::clone(&snapshot),
        Arc::clone(&finished),
        Arc::clone(&silenced),
        cfg.panic_after,
        cfg.stall_after,
    );

    let mut ecfg = EngineConfig {
        workers: cfg.workers,
        cache_path: Some(cfg.cache.clone()),
        ..EngineConfig::default()
    };
    if let Some(w) = cfg.warn_frac {
        ecfg.warn_frac = w;
    }
    if let Some(f) = cfg.fail_frac {
        ecfg.fail_frac = f;
    }
    if let Some(c) = cfg.check_receivers {
        ecfg.check_receivers = c;
    }
    let engine = Engine::new(ecfg);
    // Always the resume path: a first incarnation finds no journal and
    // runs fresh; a restarted one replays its checkpoints and finishes
    // only the tail. The header fingerprint check guards staleness.
    let result = engine.resume_slice(&chip, &slice, Some(&snapshot));

    finished.store(true, Ordering::Release);
    let _ = poller.join();

    if silenced.load(Ordering::Acquire) {
        // Stall drill: stay alive but say nothing — the coordinator's
        // heartbeat deadline, not process exit, must catch this.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    let report = result.map_err(|e| format!("verify: {e}"))?;
    let outcome = if report.interrupted { "interrupted" } else { "complete" };
    emit(&format!(
        "{{\"kind\":\"done\",\"outcome\":\"{}\",\"peak_alloc_bytes\":{},\"torn_journal_lines\":{}}}",
        outcome, report.stats.peak_alloc_bytes, torn
    ));
    Ok(0)
}

/// Stream verdicts off the snapshot as they land (~20 ms cadence), with
/// idle beats (~100 ms) so a slow cluster doesn't read as a dead worker.
/// Owns the worker-side fault drills, which are keyed to the *emitted*
/// verdict count so SIGKILL-at-fraction drills line up deterministically.
fn spawn_poller(
    snapshot: Arc<VerdictSnapshot>,
    finished: Arc<AtomicBool>,
    silenced: Arc<AtomicBool>,
    panic_after: Option<usize>,
    stall_after: Option<usize>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut seen: HashSet<String> = HashSet::new();
        let mut idle_ticks = 0u32;
        loop {
            let done = finished.load(Ordering::Acquire);
            let mut fresh = Vec::new();
            for v in snapshot.all() {
                if !seen.contains(&v.name) {
                    fresh.push(v);
                }
            }
            let mut emitted_new = false;
            for v in fresh {
                if let Some(n) = stall_after {
                    if seen.len() >= n {
                        silenced.store(true, Ordering::Release);
                        return;
                    }
                }
                emit(&verdict_line(&v));
                seen.insert(v.name.clone());
                emitted_new = true;
                if let Some(n) = panic_after {
                    if seen.len() >= n {
                        // A crash, not a clean exit: no done line, no
                        // journal discard, nonzero status.
                        std::process::abort();
                    }
                }
            }
            if let (Some(0), _) | (_, Some(0)) = (panic_after, stall_after) {
                // Zero-threshold drills fire even before any verdict.
                if panic_after == Some(0) {
                    std::process::abort();
                }
                silenced.store(true, Ordering::Release);
                return;
            }
            if done {
                return;
            }
            if emitted_new {
                idle_ticks = 0;
            } else {
                idle_ticks += 1;
                if idle_ticks >= 5 {
                    emit(&format!("{{\"kind\":\"beat\",\"done\":{}}}", seen.len()));
                    idle_ticks = 0;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::PNetId;

    #[test]
    fn verdict_line_round_trips_bit_exactly() {
        let v = NetVerdict {
            net: PNetId(7),
            name: "bus0.3".into(),
            rise_peak: 0.123_456_789_012_345,
            fall_peak: -0.098_765_432_1,
            worst_frac: 0.049_382_716,
            severity: Severity::Warning,
            cluster_size: 11,
            neighbors_before: 4,
            receiver: Some(ReceiverVerdict {
                cell: "INVX2".into(),
                output_peak: 0.001_234,
                propagates: false,
            }),
        };
        let line = verdict_line(&v);
        let parsed = parse_verdict(&parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, v);

        let bare = NetVerdict { receiver: None, severity: Severity::Violation, ..v };
        let parsed = parse_verdict(&parse(&verdict_line(&bare)).unwrap()).unwrap();
        assert_eq!(parsed, bare);
    }

    #[test]
    fn config_parse_rejects_out_of_range_shard() {
        let body = "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0},\"shards\":2,\"shard\":2,\"cache\":\"/tmp/x\"}";
        assert!(parse_config(body).is_err());
        let body = "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0},\"shards\":2,\"shard\":1,\"cache\":\"/tmp/x\"}";
        let cfg = parse_config(body).unwrap();
        assert_eq!((cfg.shards, cfg.shard), (2, 1));
    }
}
