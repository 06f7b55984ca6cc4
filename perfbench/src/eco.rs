//! `daemon_eco`: a `pcv_serve` daemon holds a SPEF session of a tiled
//! wire field with fixed-resistance drivers. One closed-loop client posts
//! the full edited SPEF to `POST /sessions/{id}/eco`, alternating two
//! one-net ground-cap edits, waits for the run and fetches the sign-off,
//! then pauses a random fraction of the daemon's accept-poll period.
//! A second thread reads `GET /runs/{id}/verdicts?net=` open-loop at a
//! fixed rate, each read timed from its due time. Its time is in `serve`,
//! SPEF parse, ECO diff and planning, cache save and journal I/O, with
//! almost no `mor` work.
//!
//! The seed picks the edited net, the client's pauses and the nets the
//! reader asks for; the field itself is fixed so its SPICE reference can
//! be stored.

use crate::daemon::{scrape, str_field, Daemon};
use crate::dsp::{check_clean, report_glitch};
use crate::out::Report;
use crate::reference::Reference;
use crate::stats::{median, percentile, Timing};
use crate::{elapsed_ms, mib, Ctx};
use pcv_designs::extract::{extract, WireGeom};
use pcv_designs::Technology;
use pcv_engine::durable::{Journal, JournalEntry};
use pcv_engine::fs::Fs;
use pcv_engine::{EcoPlan, Engine, EngineConfig, ResidentChip};
use pcv_netlist::eco::EcoDelta;
use pcv_netlist::spef::{parse_spef, write_spef};
use pcv_netlist::{NetParasitics, ParasiticDb};
use pcv_obs::json::{parse, Value};
use pcv_rng::Rng;
use pcv_serve::session::{elaborate, DesignSpec, VictimSel};
use pcv_trace::json::str_lit;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// 128 tiles of 4 wires: 512 nets, a cold sign-off of a few seconds.
const TILES: usize = 128;
const WIRES_PER_TILE: usize = 4;
/// Empty tracks between tiles: past the extractor's coupling cutoff, so
/// every tile is its own cluster family.
const TILE_GAP: usize = 6;
const SEG_LEN: f64 = 25e-6;
const DRIVE_OHMS: f64 = 1000.0;
/// The two edits the client alternates between: the edited net's first
/// ground capacitor scaled by these factors.
const EDITS: [f64; 2] = [1.01, 1.02];
/// The daemon's accept loop sleeps this long when no connection waits.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Open-loop verdict reads per second: half of what one connection at a
/// time can get through the daemon's 20 ms accept poll, so the reader
/// measures latency, not a queue that grows for the whole window.
const READ_RATE: f64 = 25.0;
/// The daemon's peak heap is read after this many ECOs: every finished
/// run stays resident in the daemon, so a later reading would grow with
/// the number of ECOs a run gets through.
const HEAP_AFTER_ECOS: usize = 16;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Repetitions of each in-process layer timing.
const LAYER_REPS: usize = 9;

/// Tile lengths cycle through this many values, 300–1000 µm, so the
/// field's clusters are not all alike.
const LENGTH_PERIOD: usize = 8;

/// The tiled wire field.
pub fn field() -> ParasiticDb {
    let tech = Technology::c025();
    let mut wires = Vec::with_capacity(TILES * WIRES_PER_TILE);
    for t in 0..TILES {
        let len = (300 + 100 * (t % LENGTH_PERIOD)) as f64 * 1e-6;
        for w in 0..WIRES_PER_TILE {
            let track = (t * (WIRES_PER_TILE + TILE_GAP) + w) as i64;
            wires.push(WireGeom::min_width(format!("t{t}_w{w}"), track, 0.0, len, &tech));
        }
    }
    extract(&wires, &tech, SEG_LEN)
}

fn spec(text: &str) -> DesignSpec {
    DesignSpec::Spef { text: text.to_owned(), drive_ohms: DRIVE_OHMS, victims: VictimSel::All }
}

/// The field as the daemon elaborates its SPEF text.
pub fn base_chip() -> ResidentChip {
    elaborate(&spec(&write_spef(&field()))).expect("the field elaborates")
}

/// The victims of the field's SPICE reference: every wire of the first
/// period of tile lengths (the remaining tiles repeat them).
pub fn reference_victims(chip: &ResidentChip) -> Vec<pcv_netlist::PNetId> {
    (0..LENGTH_PERIOD)
        .flat_map(|t| (0..WIRES_PER_TILE).map(move |w| format!("t{t}_w{w}")))
        .map(|name| chip.db().find_net(&name).expect("reference tile exists"))
        .collect()
}

/// `db` with `net`'s first ground capacitor scaled by `scale` — what a
/// SPEF re-extraction of a one-net fix produces.
fn edited(db: &ParasiticDb, net: &str, scale: f64) -> ParasiticDb {
    let mut db = db.clone();
    let id = db.find_net(net).expect("edited net exists");
    let old = db.net(id);
    let (node, farads) = *old.ground_caps().first().expect("edited net has a ground cap");
    let mut rebuilt = NetParasitics::new(old.name());
    for _ in 1..old.num_nodes() {
        rebuilt.add_node();
    }
    for &(a, b, ohms) in old.resistors() {
        rebuilt.add_resistor(a, b, ohms);
    }
    for &(n, c) in old.ground_caps() {
        rebuilt.add_ground_cap(n, if n == node && c == farads { c * scale } else { c });
    }
    for &n in old.load_nodes() {
        rebuilt.mark_load(n);
    }
    *db.net_mut(id) = rebuilt;
    db
}

/// The offline truth for one edit variant.
struct Variant {
    text: String,
    chip: ResidentChip,
    signoff: String,
    /// Victim name → (rise bits, fall bits).
    peaks: HashMap<String, (u64, u64)>,
}

/// One timed ECO, POST to sign-off fetched.
struct EcoSample {
    eco_ms: f64,
    post_ms: f64,
    wait_ms: f64,
    engine_ms: f64,
    computed: u64,
    traced: bool,
}

/// Reader results.
#[derive(Default)]
struct Reads {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failures: Vec<String>,
}

/// Daemon start to ready, session load, cold warming run and its
/// sign-off. Returns the daemon, the session id and the sign-off.
fn setup(ctx: &Ctx, session_body: &str) -> Result<(Daemon, String, String), String> {
    let daemon = Daemon::start(&ctx.serve_exe, &ctx.work.join("daemon"))?;
    let sid = daemon.create_session(session_body)?;
    let run = parse(&daemon.call("POST", &format!("/sessions/{sid}/runs"), "{}")?)
        .map_err(|e| e.to_string())
        .and_then(|d| str_field(&d, "run"))?;
    daemon.wait_run(&run)?;
    let signoff = daemon.call("GET", &format!("/runs/{run}/signoff"), "")?;
    Ok((daemon, sid, signoff))
}

/// `(name, rise, fall)` peaks of a served sign-off document.
fn served_peaks(signoff: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let doc = parse(signoff).map_err(|e| format!("sign-off: {e}"))?;
    let bits = |v: &Value, k: &str| -> Result<f64, String> {
        let hex = v.get(k).and_then(Value::as_str).ok_or(format!("verdict lacks {k}"))?;
        u64::from_str_radix(hex, 16).map(f64::from_bits).map_err(|e| e.to_string())
    };
    let verdicts = doc
        .get("chip")
        .and_then(|c| c.get("verdicts"))
        .and_then(Value::as_arr)
        .ok_or("sign-off has no verdicts")?;
    verdicts
        .iter()
        .map(|v| {
            let name = v.get("name").and_then(Value::as_str).ok_or("verdict lacks a name")?;
            Ok((name.to_owned(), bits(v, "rise_peak_bits")?, bits(v, "fall_peak_bits")?))
        })
        .collect()
}

/// Check one verdict read against the offline truth of its variant.
fn check_read(body: &str, want: Option<&(u64, u64)>) -> Result<(), String> {
    let doc = parse(body).map_err(|e| format!("verdict read: {e}"))?;
    let Some(v) = doc.get("verdicts").and_then(Value::as_arr).and_then(<[Value]>::first) else {
        return Ok(()); // not verified yet in this run: an honest empty answer
    };
    let bits =
        |k: &str| v.get(k).and_then(Value::as_str).and_then(|h| u64::from_str_radix(h, 16).ok());
    let got = (bits("rise_peak_bits"), bits("fall_peak_bits"));
    match want {
        Some(&(r, f)) if got == (Some(r), Some(f)) => Ok(()),
        _ => Err(format!("served verdict {got:?} differs from the offline result {want:?}")),
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let base_text = write_spef(&field());
    let base_db = parse_spef(&base_text).expect("the field's SPEF parses");
    let mut rng = Rng::new(ctx.seed);
    let net = format!("t{}_w{}", rng.range_usize(0, TILES), rng.range_usize(0, WIRES_PER_TILE));
    report.note(format!("edited net {net}: ground cap x{} / x{} alternately", EDITS[0], EDITS[1]));
    let session_body = format!(
        "{{\"design\":{{\"kind\":\"spef\",\"text\":{},\"drive_ohms\":{DRIVE_OHMS},\"victims\":\"all\"}}}}",
        str_lit(&base_text)
    );

    // Setups: the last daemon stays up for the window.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(Daemon, String, String)> = None;
    for _ in 0..SETUPS {
        if let Some((d, ..)) = live.take() {
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
    let (daemon, sid, base_signoff) = live.expect("a setup ran");

    // Accuracy of the served warming sign-off against the stored SPICE
    // reference of the field.
    let base = base_chip();
    let glitch = served_peaks(&base_signoff).and_then(|peaks| {
        Reference::load("field", &base)?
            .errors_pct(peaks.iter().map(|(n, r, f)| (n.as_str(), *r, *f)))
    });
    report_glitch(report, glitch, "tiled field, fixed-resistance drivers");

    // Offline truth for both variants, computed once from scratch.
    let mut variants = Vec::with_capacity(2);
    for (k, &scale) in EDITS.iter().enumerate() {
        let text = write_spef(&edited(&base_db, &net, scale));
        let chip = elaborate(&spec(&text)).expect("the edited field elaborates");
        let engine = Engine::new(EngineConfig {
            workers: ctx.workers,
            cache_path: Some(ctx.work.join(format!("offline{k}.cache"))),
            ledger: false,
            ..EngineConfig::default()
        });
        let offline = match engine.verify_resident(&chip, None) {
            Ok(r) => r,
            Err(e) => {
                report.op(Err(format!("offline sign-off of variant {k}: {e}")));
                return;
            }
        };
        report.op(check_clean(&offline, chip.victims().len()));
        let peaks = offline
            .chip
            .verdicts
            .iter()
            .map(|v| (v.name.clone(), (v.rise_peak.to_bits(), v.fall_peak.to_bits())))
            .collect();
        variants.push(Variant { text, chip, signoff: offline.signoff_json(), peaks });
    }
    let names: Vec<String> = base.db().iter().map(|(_, n)| n.name().to_owned()).collect();
    let bodies: Vec<[String; 2]> = variants
        .iter()
        .map(|v| {
            let text = str_lit(&v.text);
            [format!("{{\"text\":{text}}}"), format!("{{\"text\":{text},\"trace\":true}}")]
        })
        .collect();

    // The window: the ECO writer on this thread, the reader beside it.
    let current: Mutex<Option<(String, usize)>> = Mutex::new(None);
    let done = AtomicBool::new(false);
    let mut samples: Vec<EcoSample> = Vec::new();
    let mut peak_bytes = 0u64;
    let mut window_s = 0.0;
    let reads = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(&daemon, &current, &done, &names, &variants, ctx.seed));
        let mut paused = Duration::ZERO;
        let window = Instant::now();
        let mut i = 0usize;
        while window.elapsed().as_secs_f64() < ctx.seconds {
            // A pause of up to one accept-poll period before each ECO: a
            // closed loop that posts the instant its last fetch returns
            // locks onto the daemon's poll phase, and its latencies then
            // fall on a 20 ms grid whose median flips between grid lines.
            let pause = ACCEPT_POLL.mul_f64(rng.f64());
            std::thread::sleep(pause);
            paused += pause;
            let v = i % 2;
            let traced = ctx.trace && i % 4 >= 2;
            let outcome = eco_once(&daemon, &sid, &bodies[v][usize::from(traced)], &current, v)
                .and_then(|(sample, signoff, dirty)| {
                    report.set("engine.dirty_victims", dirty as f64);
                    report.exact_count("eco.computed_victims", sample.computed);
                    samples.push(EcoSample { traced, ..sample });
                    if signoff == variants[v].signoff {
                        Ok(())
                    } else {
                        Err(format!("served ECO sign-off {i} differs from the offline result"))
                    }
                });
            report.op(outcome);
            i += 1;
            if i == HEAP_AFTER_ECOS {
                peak_bytes = daemon_peak(&daemon);
            }
        }
        window_s = (window.elapsed() - paused).as_secs_f64();
        done.store(true, Ordering::Release);
        reader.join().unwrap_or_default()
    });
    let peak_end = daemon_peak(&daemon);
    let metrics = daemon.metrics().unwrap_or_default();
    daemon.stop();

    report.ops(reads.latency_ms.len() as u64, &reads.failures);
    let degraded: f64 = scrape(&metrics, "pcv_engine_degraded_total").iter().sum();
    if degraded > 0.0 {
        report.op(Err(format!("{degraded} degraded clusters in the daemon")));
    }

    let plain: Vec<&EcoSample> = samples.iter().filter(|s| !s.traced).collect();
    let eco_ms: Vec<f64> = plain.iter().map(|s| s.eco_ms).collect();
    let computed: u64 = samples.iter().map(|s| s.computed).sum();
    report.set("victims_per_s", computed as f64 / window_s);
    report.set("op_ms_p50", median(&eco_ms));
    report.set("peak_heap_mib", mib(peak_bytes));
    report.note(format!("eco_ms: {}", Timing::of(&eco_ms).describe("ms")));
    report.note(format!(
        "daemon heap: {:.2} MiB after {HEAP_AFTER_ECOS} ECOs, {:.2} MiB after {}, {:.3} MiB \
         retained per ECO run",
        mib(peak_bytes),
        mib(peak_end),
        samples.len(),
        (mib(peak_end) - mib(peak_bytes))
            / samples.len().saturating_sub(HEAP_AFTER_ECOS).max(1) as f64
    ));
    report.note(format!("read_ms: {}", Timing::of(&reads.latency_ms).describe("ms")));
    report.note(format!("read lateness: {}", Timing::of(&reads.late_ms).describe("ms")));

    if ctx.trace {
        report_layers(ctx, report, &variants, &samples, &eco_ms, &reads);
    }
}

/// The daemon's peak live heap over its most recent run.
fn daemon_peak(daemon: &Daemon) -> u64 {
    daemon
        .metrics()
        .map(|m| scrape(&m, "pcv_engine_peak_alloc_bytes").into_iter().fold(0.0, f64::max) as u64)
        .unwrap_or(0)
}

/// One ECO: POST the edited SPEF, follow the run to its end, fetch the
/// sign-off. Returns the timings, the sign-off and the plan's dirty count.
fn eco_once(
    daemon: &Daemon,
    sid: &str,
    body: &str,
    current: &Mutex<Option<(String, usize)>>,
    variant: usize,
) -> Result<(EcoSample, String, u64), String> {
    let t0 = Instant::now();
    let answer = parse(&daemon.call("POST", &format!("/sessions/{sid}/eco"), body)?)
        .map_err(|e| format!("eco answer: {e}"))?;
    let post_ms = elapsed_ms(t0);
    let run = str_field(&answer, "run")?;
    let dirty = answer
        .get("eco")
        .and_then(|p| p.get("dirty"))
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len) as u64;
    *current.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
        Some((run.clone(), variant));
    let end = daemon.wait_run(&run)?;
    let wait_ms = elapsed_ms(t0) - post_ms;
    let signoff = daemon.call("GET", &format!("/runs/{run}/signoff"), "")?;
    let eco_ms = elapsed_ms(t0);
    if end.degraded > 0 {
        return Err(format!("ECO run {run} degraded {} clusters", end.degraded));
    }
    let sample = EcoSample {
        eco_ms,
        post_ms,
        wait_ms,
        engine_ms: end.engine_ms,
        computed: end.computed,
        traced: false,
    };
    Ok((sample, signoff, dirty))
}

/// Open-loop reads at `READ_RATE`, each timed from its due time, of the
/// most recent ECO run, checked against that run's offline truth.
fn read_loop(
    daemon: &Daemon,
    current: &Mutex<Option<(String, usize)>>,
    done: &AtomicBool,
    names: &[String],
    variants: &[Variant],
    seed: u64,
) -> Reads {
    let mut rng = Rng::new(seed ^ 0x5eed_04ea);
    let mut reads = Reads::default();
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    // The schedule starts with the first ECO run.
    while current.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_none() {
        if done.load(Ordering::Acquire) {
            return reads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    for k in 0u32.. {
        if done.load(Ordering::Acquire) {
            break;
        }
        let due = start + period * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        reads.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let name = &names[rng.range_usize(0, names.len())];
        let (run, v) =
            current.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone().expect("set");
        let answer = daemon.call("GET", &format!("/runs/{run}/verdicts?net={name}"), "");
        reads.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = answer.and_then(|body| check_read(&body, variants[v].peaks.get(name))) {
            reads.failures.push(format!("read of {name} in {run}: {e}"));
        }
    }
    reads
}

/// Per-layer numbers of the ECO path: the daemon's parse, diff and plan
/// steps timed in-process on the same inputs, the engine's cache save and
/// journal appends on an in-process ECO, the rest from the served runs.
fn report_layers(
    ctx: &Ctx,
    report: &mut Report,
    variants: &[Variant],
    samples: &[EcoSample],
    eco_ms: &[f64],
    reads: &Reads,
) {
    let time = |f: &mut dyn FnMut()| -> f64 {
        let v: Vec<f64> = (0..LAYER_REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                elapsed_ms(t0)
            })
            .collect();
        median(&v)
    };
    let (a, b) = (&variants[0], &variants[1]);
    let parse_ms = time(&mut || {
        std::hint::black_box(parse_spef(&b.text).expect("parses"));
    });
    let elaborate_ms = time(&mut || {
        std::hint::black_box(elaborate(&spec(&b.text)).expect("elaborates"));
    });
    let delta = EcoDelta::diff(a.chip.db(), b.chip.db());
    let diff_ms = time(&mut || {
        std::hint::black_box(EcoDelta::diff(a.chip.db(), b.chip.db()));
    });
    let cfg = EngineConfig { workers: ctx.workers, ledger: false, ..EngineConfig::default() };
    let plan_ms = time(&mut || {
        std::hint::black_box(EcoPlan::compute(&cfg, &a.chip, &b.chip, &delta));
    });
    report.set("netlist.spef_parse_ms", parse_ms);
    report.set("serve.elaborate_ms", elaborate_ms);
    report.set("netlist.eco_diff_ms", diff_ms);
    report.set("engine.eco_plan_ms", plan_ms);

    // The engine's ECO path in-process: variant 0's offline cache is warm,
    // so each run splices all but the dirty clusters, saves the cache and
    // journals what it recomputed.
    let engine = Engine::new(EngineConfig {
        workers: ctx.workers,
        cache_path: Some(ctx.work.join("offline0.cache")),
        trace: true,
        ledger: false,
        ..EngineConfig::default()
    });
    let mut save_ms = Vec::new();
    let mut hit_rate = Vec::new();
    let mut journal_ms = Vec::new();
    for k in 0..LAYER_REPS {
        let (old, new) = if k % 2 == 0 { (a, b) } else { (b, a) };
        match engine.eco_verify_resident(&old.chip, &new.chip, false, None) {
            Ok(outcome) => {
                let r = &outcome.report;
                let trace = r.trace.as_ref().expect("traced");
                let save =
                    trace.span_totals().get(&("engine", "cache_save")).map_or(0, |t| t.total_ns);
                save_ms.push(save as f64 / 1e6);
                hit_rate.push(r.stats.hit_rate());
                report.set("engine.journal_appends", r.stats.cache_misses as f64);
                let recomputed: Vec<JournalEntry> = r
                    .chip
                    .verdicts
                    .iter()
                    .filter(|v| outcome.plan.dirty.contains(&v.name))
                    .map(|v| JournalEntry {
                        name: v.name.clone(),
                        fingerprint: 0,
                        rise_bits: v.rise_peak.to_bits(),
                        fall_bits: v.fall_peak.to_bits(),
                        receiver: None,
                        degraded: None,
                    })
                    .collect();
                journal_ms.push(time_journal(&ctx.work.join("probe.journal"), &recomputed));
                report.op(if new.signoff == r.signoff_json() {
                    Ok(())
                } else {
                    Err("in-process ECO sign-off differs from the offline result".to_owned())
                });
            }
            Err(e) => report.op(Err(format!("in-process ECO: {e}"))),
        }
    }
    report.set("engine.cache_save_ms", median(&save_ms));
    report.set("engine.cache_hit_rate", median(&hit_rate));
    report.set("engine.journal_ms", median(&journal_ms));

    let plain: Vec<&EcoSample> = samples.iter().filter(|s| !s.traced).collect();
    let traced: Vec<f64> = samples.iter().filter(|s| s.traced).map(|s| s.eco_ms).collect();
    let queue: Vec<f64> = plain.iter().map(|s| s.wait_ms - s.engine_ms).collect();
    let unattributed: Vec<f64> =
        plain.iter().map(|s| s.eco_ms - (elaborate_ms + diff_ms + plan_ms + s.engine_ms)).collect();
    let post_rest: Vec<f64> =
        plain.iter().map(|s| s.post_ms - (elaborate_ms + diff_ms + plan_ms)).collect();
    report.note(format!("ECO POST beyond parse+diff+plan: p50 {:.3} ms", median(&post_rest)));
    report.set("serve.queue_wait_ms", median(&queue));
    report.set("serve.eco_unattributed_ms", median(&unattributed));
    report.set("serve.eco_ms_p95", percentile(eco_ms, 95.0));
    report.set("serve.read_ms_p50", median(&reads.latency_ms));
    report.set("serve.read_ms_p95", percentile(&reads.latency_ms, 95.0));
    report.set("bench.read_late_ms_p95", percentile(&reads.late_ms, 95.0));
    report.set("bench.trace_overhead_pct", 100.0 * (median(&traced) / median(eco_ms) - 1.0));
    report.set("bench.unattributed_pct", 100.0 * median(&unattributed) / median(eco_ms));
}

/// Wall time of durably appending `entries` one by one through the
/// engine's journal — the per-verdict fsync an ECO run pays.
fn time_journal(path: &Path, entries: &[JournalEntry]) -> f64 {
    let fs = Fs::real();
    let _ = std::fs::remove_file(path);
    let Ok(journal) = Journal::begin(&fs, path, 0, 0) else {
        return f64::NAN;
    };
    let t0 = Instant::now();
    for e in entries {
        let _ = journal.record(e);
    }
    let ms = elapsed_ms(t0);
    let _ = journal.discard();
    ms
}
