//! A `pcv_serve` daemon child process owned by the benchmark: started on
//! an ephemeral port, driven over HTTP, always stopped and reaped.

use pcv_obs::json::{parse, Value};
use pcv_serve::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to bind, or to drain on shutdown.
const PATIENCE: Duration = Duration::from_secs(30);

pub struct Daemon {
    child: Child,
    pub client: Client,
    pub dir: PathBuf,
}

impl Daemon {
    /// Start a daemon on an empty data directory `dir` and wait until
    /// `/healthz` reports ready.
    pub fn start(exe: &Path, dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--stall-timeout-ms", "0", "--data-dir"])
            .arg(dir)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let mut daemon = Daemon { child, client: Client::new(""), dir: dir.to_owned() };
        let t0 = Instant::now();
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                if addr.ends_with('\n') {
                    daemon.client = Client::new(addr.trim());
                    break;
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t0.elapsed() > PATIENCE {
                return Err("daemon did not bind in time".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        loop {
            let health = daemon.get_json("/healthz")?;
            if health.get("ready") == Some(&Value::Bool(true)) {
                return Ok(daemon);
            }
            if t0.elapsed() > PATIENCE {
                return Err("daemon never reported ready".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `method path` with `body`; a non-2xx answer is an error.
    pub fn call(&self, method: &str, path: &str, body: &str) -> Result<String, String> {
        let r =
            self.client.request(method, path, body).map_err(|e| format!("{method} {path}: {e}"))?;
        if r.ok() {
            Ok(r.body)
        } else {
            Err(format!("{method} {path}: HTTP {}: {}", r.status, r.body.trim()))
        }
    }

    pub fn get_json(&self, path: &str) -> Result<Value, String> {
        let body = self.call("GET", path, "")?;
        parse(&body).map_err(|e| format!("GET {path}: {e}"))
    }

    /// Create a session; returns its id.
    pub fn create_session(&self, body: &str) -> Result<String, String> {
        let doc = parse(&self.call("POST", "/sessions", body)?).map_err(|e| e.to_string())?;
        str_field(&doc, "session")
    }

    /// Follow a run's event stream to its end. Returns the engine's own
    /// wall time from the `run_finished` event and the victims it did not
    /// answer from the cache; a run that did not complete is an error.
    pub fn wait_run(&self, run: &str) -> Result<RunEnd, String> {
        let mut end = RunEnd::default();
        let mut state = String::new();
        let status = self
            .client
            .stream(&format!("/runs/{run}/events"), |line| {
                // Only the run's last two lines matter; the per-cluster
                // events are not parsed.
                if !line.contains("\"run_finished\"") && !line.contains("\"stream_trailer\"") {
                    return;
                }
                let Ok(ev) = parse(line) else { return };
                match ev.get("kind").and_then(Value::as_str) {
                    Some("run_finished") => {
                        end.engine_ms += ev.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
                        let victims = ev.get("victims").and_then(Value::as_u64).unwrap_or(0);
                        let hits = ev.get("cache_hits").and_then(Value::as_u64).unwrap_or(0);
                        end.computed += victims.saturating_sub(hits);
                        end.degraded += ev.get("degraded").and_then(Value::as_u64).unwrap_or(0);
                    }
                    Some("stream_trailer") => {
                        state = ev.get("state").and_then(Value::as_str).unwrap_or("").to_owned();
                    }
                    _ => {}
                }
            })
            .map_err(|e| format!("events of {run}: {e}"))?;
        if status != 200 || state != "complete" {
            return Err(format!("run {run} ended {state:?} (HTTP {status})"));
        }
        Ok(end)
    }

    /// The Prometheus exposition.
    pub fn metrics(&self) -> Result<String, String> {
        self.call("GET", "/metrics", "")
    }

    /// Drain and stop: `POST /shutdown`, then reap (killing after the
    /// grace period).
    pub fn stop(mut self) {
        let _ = self.client.request("POST", "/shutdown", "");
        let t0 = Instant::now();
        while t0.elapsed() < PATIENCE {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What the event stream said about a finished run.
#[derive(Debug, Default, Clone)]
pub struct RunEnd {
    pub engine_ms: f64,
    pub computed: u64,
    pub degraded: u64,
}

pub fn str_field(doc: &Value, key: &str) -> Result<String, String> {
    doc.get(key).and_then(Value::as_str).map(str::to_owned).ok_or(format!("no {key:?} in answer"))
}

/// Every sample of a Prometheus family: the unlabeled `name` series and
/// every labeled `name{...}` one.
pub fn scrape(text: &str, name: &str) -> Vec<f64> {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect()
}

/// Remove every file of a session's cache family (`session-<id>.cache*`
/// — cache, journal, lock, ledger, shard caches) so the next run is cold.
pub fn wipe_session_cache(dir: &Path, session: &str) -> Result<(), String> {
    let stem = format!("session-{session}.cache");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&stem) {
            let path = entry.path();
            let removed = if path.is_dir() {
                std::fs::remove_dir_all(&path)
            } else {
                std::fs::remove_file(&path)
            };
            removed.map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}
