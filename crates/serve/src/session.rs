//! Sessions: the daemon-side lifecycle of one resident chip.
//!
//! A session is born from a [`DesignSpec`] posted by a client and walks a
//! linear state machine:
//!
//! ```text
//! Parsed → Elaborated → Ready → Running → Completed
//! ```
//!
//! *Parsed* means the wire payload was understood; *Elaborated* means the
//! expensive one-time work is done (design generated or SPEF parsed,
//! drivers characterized, coupling union-find built — all owned by a
//! [`ResidentChip`]); *Ready* means runs can be submitted. *Running* and
//! *Completed* track the latest run: a session bounces `Ready/Completed →
//! Running → Completed` once per run, paying elaboration exactly once.

use crate::error::ApiError;
use pcv_cells::charlib::{characterize, CharLibrary};
use pcv_cells::library::CellLibrary;
use pcv_designs::dsp::{generate, DspConfig};
use pcv_designs::Technology;
use pcv_engine::ResidentChip;
use pcv_netlist::spef::parse_spef;
use pcv_netlist::PNetId;
use pcv_obs::json::{parse, Value};
use pcv_xtalk::drivers::DriverModelKind;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};

/// Which nets of a SPEF upload to audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VictimSel {
    /// Every net in the parasitics.
    All,
    /// Exactly the named nets (unknown names are a [`ApiError::BadRequest`]).
    Named(Vec<String>),
}

/// What a client asks the daemon to keep resident.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSpec {
    /// Generate the paper's DSP-like block and audit its latch-input
    /// victims with the nonlinear cell model — the served twin of the
    /// `dsp_chip_signoff` batch flow.
    Dsp {
        /// Generator configuration (seeded, so the chip is reproducible).
        config: DspConfig,
    },
    /// Parse an uploaded SPEF document and audit with uniform
    /// fixed-resistance drivers.
    Spef {
        /// SPEF text.
        text: String,
        /// Uniform driver resistance in ohms.
        drive_ohms: f64,
        /// Victim selection.
        victims: VictimSel,
    },
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

impl DesignSpec {
    /// Parse the `POST /sessions` body. Unknown `kind`s and missing
    /// required fields are [`ApiError::BadRequest`].
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] with the offending detail.
    pub fn from_json(body: &str) -> Result<DesignSpec, ApiError> {
        let doc = parse(body).map_err(|e| ApiError::BadRequest(format!("session spec: {e}")))?;
        let design = doc
            .get("design")
            .ok_or_else(|| ApiError::BadRequest("session spec needs a \"design\" object".into()))?;
        let kind = design
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| ApiError::BadRequest("design needs a string \"kind\"".into()))?;
        match kind {
            "dsp" => {
                let d = DspConfig::default();
                let config = DspConfig {
                    n_buses: num(design, "buses").map(|n| n as usize).unwrap_or(d.n_buses),
                    bus_bits: num(design, "bits").map(|n| n as usize).unwrap_or(d.bus_bits),
                    n_random_nets: num(design, "random")
                        .map(|n| n as usize)
                        .unwrap_or(d.n_random_nets),
                    cycle: num(design, "cycle").unwrap_or(d.cycle),
                    seed: design.get("seed").and_then(Value::as_u64).unwrap_or(d.seed),
                };
                let nets = config
                    .n_buses
                    .checked_mul(config.bus_bits)
                    .and_then(|n| n.checked_add(config.n_random_nets))
                    .ok_or_else(|| ApiError::BadRequest("dsp design size overflows".into()))?;
                if nets == 0 {
                    return Err(ApiError::BadRequest("dsp design generates no nets".into()));
                }
                Ok(DesignSpec::Dsp { config })
            }
            "spef" => {
                let text = design
                    .get("text")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ApiError::BadRequest("spef design needs \"text\"".into()))?
                    .to_owned();
                let drive_ohms = num(design, "drive_ohms").unwrap_or(1000.0);
                if !(drive_ohms.is_finite() && drive_ohms > 0.0) {
                    return Err(ApiError::BadRequest("drive_ohms must be positive".into()));
                }
                let victims = match design.get("victims") {
                    None => VictimSel::All,
                    Some(Value::Str(s)) if s == "all" => VictimSel::All,
                    Some(Value::Arr(items)) => {
                        let mut names = Vec::with_capacity(items.len());
                        for it in items {
                            names.push(
                                it.as_str()
                                    .ok_or_else(|| {
                                        ApiError::BadRequest("victims must be net names".into())
                                    })?
                                    .to_owned(),
                            );
                        }
                        VictimSel::Named(names)
                    }
                    Some(_) => {
                        return Err(ApiError::BadRequest(
                            "victims must be \"all\" or a list of net names".into(),
                        ))
                    }
                };
                Ok(DesignSpec::Spef { text, drive_ohms, victims })
            }
            other => Err(ApiError::BadRequest(format!("unknown design kind {other:?}"))),
        }
    }

    /// Serialize back to the `POST /sessions` wire shape — the form the
    /// shard coordinator hands each worker process so it elaborates the
    /// *identical* chip (same net ids, same fingerprints) the daemon
    /// holds. Round-trips through [`DesignSpec::from_json`].
    pub fn to_json(&self) -> String {
        use pcv_trace::json::str_lit;
        match self {
            DesignSpec::Dsp { config } => format!(
                "{{\"design\":{{\"kind\":\"dsp\",\"buses\":{},\"bits\":{},\"random\":{},\"cycle\":{},\"seed\":{}}}}}",
                config.n_buses,
                config.bus_bits,
                config.n_random_nets,
                pcv_trace::json::f64_lit(config.cycle),
                config.seed
            ),
            DesignSpec::Spef { text, drive_ohms, victims } => {
                let victims = match victims {
                    VictimSel::All => "\"all\"".to_owned(),
                    VictimSel::Named(names) => {
                        let items: Vec<String> = names.iter().map(|n| str_lit(n)).collect();
                        format!("[{}]", items.join(","))
                    }
                };
                format!(
                    "{{\"design\":{{\"kind\":\"spef\",\"text\":{},\"drive_ohms\":{},\"victims\":{}}}}}",
                    str_lit(text),
                    pcv_trace::json::f64_lit(*drive_ohms),
                    victims
                )
            }
        }
    }
}

/// Driver cells the DSP generator instantiates — the set the batch
/// sign-off example characterizes, kept in lockstep so a served DSP run
/// reproduces the batch artifact byte for byte.
const DSP_DRIVER_CELLS: [&str; 13] = [
    "INVX2", "INVX4", "INVX8", "BUFX4", "BUFX8", "BUFX12", "NAND2X2", "NAND2X4", "NOR2X2",
    "NOR2X4", "TBUFX4", "TBUFX8", "TBUFX16",
];

/// Characterize the named cells, caching Liberty-lite files under
/// `target/pcv_charlib_cache/` (shared with the batch fixtures, so the
/// daemon and the examples pay the one-time task once between them).
fn charlib_for(names: &[&str]) -> Result<CharLibrary, ApiError> {
    let lib = CellLibrary::standard_025();
    let cache_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcv_charlib_cache");
    let _ = std::fs::create_dir_all(&cache_dir);
    let mut out = CharLibrary::default();
    for &n in names {
        let cell =
            lib.cell(n).ok_or_else(|| ApiError::Internal(format!("unknown driver cell {n}")))?;
        let cache = cache_dir.join(format!("{n}.lib"));
        if let Ok(text) = std::fs::read_to_string(&cache) {
            if let Ok(cached) = pcv_cells::liberty::parse_liberty(&text) {
                if let Some(ch) = cached.cell(n) {
                    out.insert(ch.clone());
                    continue;
                }
            }
        }
        let ch = characterize(cell)
            .map_err(|e| ApiError::Internal(format!("characterizing {n}: {e}")))?;
        let mut single = CharLibrary::default();
        single.insert(ch.clone());
        let _ = std::fs::write(&cache, pcv_cells::liberty::write_liberty(&single));
        out.insert(ch);
    }
    Ok(out)
}

/// Do the elaborate-once work for a spec: build the [`ResidentChip`] that
/// every run of the session will borrow. Public so offline tools (tests,
/// the CI smoke diff) can construct the *identical* chip the daemon holds.
///
/// # Errors
///
/// [`ApiError::BadRequest`] for specs referencing nonexistent nets,
/// [`ApiError::Internal`] for elaboration failures.
pub fn elaborate(spec: &DesignSpec) -> Result<ResidentChip, ApiError> {
    match spec {
        DesignSpec::Dsp { config } => {
            let tech = Technology::c025();
            let lib = CellLibrary::standard_025();
            let block = generate(config, &tech, &lib);
            let charlib = charlib_for(&DSP_DRIVER_CELLS)?;
            let victims: Vec<PNetId> = block
                .latch_victims()
                .into_iter()
                .map(|d| {
                    block
                        .parasitics
                        .find_net(block.design.net_name(d))
                        .expect("design and parasitic views are generated aligned")
                })
                .collect();
            Ok(ResidentChip::with_design(
                block.parasitics,
                block.design,
                lib,
                charlib,
                DriverModelKind::Nonlinear,
                victims,
            ))
        }
        DesignSpec::Spef { text, drive_ohms, victims } => {
            let db =
                parse_spef(text).map_err(|e| ApiError::BadRequest(format!("spef parse: {e}")))?;
            let ids: Vec<PNetId> = match victims {
                VictimSel::All => db.iter().map(|(id, _)| id).collect(),
                VictimSel::Named(names) => {
                    let mut ids = Vec::with_capacity(names.len());
                    for name in names {
                        ids.push(db.find_net(name).ok_or_else(|| {
                            // The typed xtalk error, so the wire mapping
                            // (satellite: BadRequest → 400) is exercised
                            // end to end through From<XtalkError>.
                            ApiError::from(pcv_xtalk::XtalkError::BadRequest {
                                what: format!("no such net {name:?} in uploaded parasitics"),
                            })
                        })?);
                    }
                    ids
                }
            };
            Ok(ResidentChip::fixed_resistance(db, *drive_ohms, ids))
        }
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SessionState {
    /// Spec understood, nothing built yet.
    Parsed,
    /// One-time elaboration finished; bookkeeping still pending.
    Elaborated,
    /// Accepting runs; none in flight and none finished yet.
    Ready,
    /// A run over this session is executing right now.
    Running,
    /// At least one run finished; accepting more.
    Completed,
}

impl SessionState {
    /// Stable lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Parsed => "parsed",
            SessionState::Elaborated => "elaborated",
            SessionState::Ready => "ready",
            SessionState::Running => "running",
            SessionState::Completed => "completed",
        }
    }
}

/// The re-elaboration context an ECO patch needs: how the session's
/// original SPEF upload was turned into a chip, minus the text itself.
#[derive(Debug, Clone)]
struct EcoContext {
    drive_ohms: f64,
    victims: VictimSel,
}

/// One resident chip plus its lifecycle state and cache location.
///
/// The chip slot is swappable: an ECO patch replaces it with a freshly
/// elaborated chip while the session identity, cache and state survive —
/// that continuity is exactly what makes the next run a warm splice
/// instead of a cold sweep.
#[derive(Debug)]
pub struct Session {
    /// Session id (`s1`, `s2`, ...).
    pub id: String,
    /// The elaborated chip, shared with the executor and query handlers.
    chip: RwLock<Arc<ResidentChip>>,
    /// The engine cache/journal/ledger stem for this session's runs.
    pub cache_path: PathBuf,
    /// How to re-elaborate an edited SPEF upload (`None` for generated
    /// designs, which have no parasitics document to patch).
    eco_ctx: Option<EcoContext>,
    /// The wire spec the chip was elaborated from — what a shard
    /// coordinator ships to worker processes. Kept in lockstep with the
    /// chip across ECO swaps (see [`Session::record_eco_text`]).
    spec: Mutex<DesignSpec>,
    state: Mutex<SessionState>,
}

impl Session {
    /// Build a session: parse already happened (the spec), elaboration
    /// happens here, and the returned session is `Ready`.
    ///
    /// # Errors
    ///
    /// Propagates [`elaborate`] failures.
    pub fn build(
        id: String,
        spec: &DesignSpec,
        data_dir: &std::path::Path,
    ) -> Result<Session, ApiError> {
        let eco_ctx = match spec {
            DesignSpec::Spef { drive_ohms, victims, .. } => {
                Some(EcoContext { drive_ohms: *drive_ohms, victims: victims.clone() })
            }
            DesignSpec::Dsp { .. } => None,
        };
        let session = Session {
            cache_path: data_dir.join(format!("session-{id}.cache")),
            id,
            chip: RwLock::new(Arc::new(elaborate(spec)?)),
            eco_ctx,
            spec: Mutex::new(spec.clone()),
            state: Mutex::new(SessionState::Parsed),
        };
        session.set_state(SessionState::Elaborated);
        session.set_state(SessionState::Ready);
        Ok(session)
    }

    /// The currently resident chip (an `Arc` clone; cheap).
    pub fn chip(&self) -> Arc<ResidentChip> {
        Arc::clone(&self.chip.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Elaborate an edited SPEF document with this session's original
    /// driver resistance and victim selection — the chip an ECO patch
    /// swaps in.
    ///
    /// # Errors
    ///
    /// [`ApiError::Conflict`] for sessions that hold a generated design
    /// (there is no SPEF to patch); [`elaborate`] failures otherwise —
    /// including a [`ApiError::BadRequest`] when the edit removed a net
    /// the session's named victim list still references.
    pub fn elaborate_eco(&self, text: &str) -> Result<ResidentChip, ApiError> {
        let ctx = self.eco_ctx.as_ref().ok_or_else(|| {
            ApiError::Conflict(format!(
                "session {} holds a generated design — only spef sessions accept eco patches",
                self.id
            ))
        })?;
        elaborate(&DesignSpec::Spef {
            text: text.to_owned(),
            drive_ohms: ctx.drive_ohms,
            victims: ctx.victims.clone(),
        })
    }

    /// The wire spec the resident chip was elaborated from (a clone).
    pub fn spec(&self) -> DesignSpec {
        self.spec.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Record the SPEF text an accepted ECO patch swapped in, keeping the
    /// stored spec aligned with the resident chip so shard workers
    /// elaborate the post-ECO netlist. No-op for generated designs.
    pub fn record_eco_text(&self, text: &str) {
        let mut spec = self.spec.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let DesignSpec::Spef { text: stored, .. } = &mut *spec {
            text.clone_into(stored);
        }
    }

    /// Swap the resident chip, returning the one it replaces (the ECO
    /// diff's "old" side).
    pub fn swap_chip(&self, next: Arc<ResidentChip>) -> Arc<ResidentChip> {
        std::mem::replace(
            &mut self.chip.write().unwrap_or_else(std::sync::PoisonError::into_inner),
            next,
        )
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        *self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Move to `next` (states only ever advance or bounce between the two
    /// idle states and `Running`).
    pub fn set_state(&self, next: SessionState) {
        *self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = next;
    }

    /// The `{"session":...}` info object served for this session.
    pub fn info_json(&self) -> String {
        use pcv_trace::json::str_lit;
        let chip = self.chip();
        format!(
            "{{\"session\":{},\"state\":{},\"nets\":{},\"victims\":{}}}",
            str_lit(&self.id),
            str_lit(self.state().name()),
            chip.num_nets(),
            chip.victims().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::spef::write_spef;
    use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

    fn small_db() -> ParasiticDb {
        let mut db = ParasiticDb::new();
        let mk = |name: &str, cg: f64| {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 150.0);
            n.add_ground_cap(n1, cg);
            n.mark_load(n1);
            n
        };
        let v = db.add_net(mk("vic", 8e-15));
        let a = db.add_net(mk("agg", 6e-15));
        db.add_coupling(NetNodeRef { net: v, node: 1 }, NetNodeRef { net: a, node: 1 }, 25e-15);
        db
    }

    #[test]
    fn parses_dsp_spec_with_defaults_and_overrides() {
        let spec = DesignSpec::from_json(
            "{\"design\":{\"kind\":\"dsp\",\"buses\":2,\"bits\":4,\"random\":6}}",
        )
        .unwrap();
        match spec {
            DesignSpec::Dsp { config } => {
                assert_eq!(config.n_buses, 2);
                assert_eq!(config.bus_bits, 4);
                assert_eq!(config.n_random_nets, 6);
                assert_eq!(config.seed, DspConfig::default().seed);
            }
            other => panic!("expected dsp, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_specs_as_bad_request() {
        for body in [
            "not json",
            "{}",
            "{\"design\":{\"kind\":\"warp\"}}",
            "{\"design\":{\"kind\":\"spef\"}}",
            "{\"design\":{\"kind\":\"spef\",\"text\":\"x\",\"victims\":7}}",
            "{\"design\":{\"kind\":\"dsp\",\"buses\":0,\"bits\":0,\"random\":0}}",
            "{\"design\":{\"kind\":\"dsp\",\"buses\":1e10,\"bits\":1e10}}",
        ] {
            match DesignSpec::from_json(body) {
                Err(ApiError::BadRequest(_)) => {}
                other => panic!("{body}: expected BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn spef_session_elaborates_and_walks_states() {
        let text = write_spef(&small_db());
        let spec = DesignSpec::Spef {
            text,
            drive_ohms: 1200.0,
            victims: VictimSel::Named(vec!["vic".into()]),
        };
        let dir = std::env::temp_dir().join(format!("pcv-serve-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Session::build("s1".into(), &spec, &dir).unwrap();
        assert_eq!(s.state(), SessionState::Ready);
        assert_eq!(s.chip().victims().len(), 1);
        assert_eq!(s.chip().num_nets(), 2);
        assert!(s.info_json().contains("\"state\":\"ready\""));
        assert!(s.cache_path.starts_with(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eco_reelaborates_with_the_original_driver_context_and_swaps() {
        let spec = DesignSpec::Spef {
            text: write_spef(&small_db()),
            drive_ohms: 1200.0,
            victims: VictimSel::All,
        };
        let dir = std::env::temp_dir().join(format!("pcv-serve-eco-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Session::build("s1".into(), &spec, &dir).unwrap();

        // Patch: one more net, coupled to nothing.
        let mut db = small_db();
        let mut extra = NetParasitics::new("spare");
        let e1 = extra.add_node();
        extra.add_resistor(0, e1, 80.0);
        extra.add_ground_cap(e1, 3e-15);
        extra.mark_load(e1);
        db.add_net(extra);
        let patched = s.elaborate_eco(&write_spef(&db)).unwrap();
        assert_eq!(patched.num_nets(), 3);
        assert_eq!(patched.victims().len(), 3, "VictimSel::All re-applies to the new netlist");

        let old = s.swap_chip(Arc::new(patched));
        assert_eq!(old.num_nets(), 2);
        assert_eq!(s.chip().num_nets(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eco_on_a_generated_design_is_a_conflict() {
        let spec = DesignSpec::from_json(
            "{\"design\":{\"kind\":\"dsp\",\"buses\":1,\"bits\":2,\"random\":0}}",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("pcv-serve-eco-dsp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Session::build("s9".into(), &spec, &dir).unwrap();
        match s.elaborate_eco("*SPEF pcv-lite 1.0\n") {
            Err(ApiError::Conflict(m)) => assert!(m.contains("generated design"), "{m}"),
            other => panic!("expected Conflict, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_victim_is_a_typed_bad_request() {
        let text = write_spef(&small_db());
        let spec = DesignSpec::Spef {
            text,
            drive_ohms: 1200.0,
            victims: VictimSel::Named(vec!["ghost".into()]),
        };
        match elaborate(&spec) {
            Err(ApiError::BadRequest(m)) => assert!(m.contains("ghost"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
}
