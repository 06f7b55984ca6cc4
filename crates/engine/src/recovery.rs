//! The per-cluster recovery ladder: escalation policy, deterministic fault
//! injection, and degradation records.
//!
//! The paper's deliverable is chip-level *signoff*: every victim net must
//! end with a verdict. A cluster whose reduction or transient fails must
//! therefore not vanish from the report — it has to be retried with a more
//! robust (if slower or more conservative) strategy, and if everything
//! fails, conservatively flagged. This module defines the ladder the engine
//! walks:
//!
//! 1. [`RecoveryRung::Baseline`] — the configured analysis, unchanged.
//! 2. [`RecoveryRung::GminBoost`] — boost the `gmin` regularization; the
//!    cure for a conductance matrix that Cholesky rejects as not positive
//!    definite (rounding on near-floating nodes).
//! 3. [`RecoveryRung::ReducedOrder`] — halve the block-Lanczos iteration
//!    count; a smaller Krylov space sidesteps breakdown and non-finite
//!    projections at some accuracy cost.
//! 4. [`RecoveryRung::SofterNewton`] — shrink the maximum timestep and swap
//!    nonlinear driver surfaces for the Thevenin (timing-library) model,
//!    whose smooth I–V curve cannot trap Newton in a kink limit cycle.
//! 5. [`RecoveryRung::SpiceFallback`] — bypass MOR entirely and run the
//!    unreduced cluster through the `pcv-spice` MNA engine.
//! 6. [`RecoveryRung::WorstCase`] — give up analyzing and emit a
//!    conservative rail-to-rail verdict (`worst_frac = 1.0`, violation).
//!
//! Escalation is *typed*: each failure class routes to the rung that
//! addresses it (see [`route`]), never below the next rung up, so the walk
//! is strictly monotone and terminates. Everything here is a pure function
//! of the victim and the configuration — no wall-clock, no randomness — so
//! a recovered report is byte-identical across worker counts.

use crate::fingerprint::Fnv1a;
use pcv_mor::MorError;
use pcv_netlist::PNetId;
use pcv_xtalk::XtalkError;
use std::collections::BTreeMap;
use std::time::Duration;

/// One rung of the recovery ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// The configured analysis, unchanged.
    Baseline,
    /// Re-reduce with boosted `gmin` regularization.
    GminBoost,
    /// Retry with half the block-Lanczos iterations (smaller ROM).
    ReducedOrder,
    /// Shrink the max timestep and swap nonlinear drivers for Thevenin.
    SofterNewton,
    /// Bypass MOR: full MNA transient through `pcv-spice`.
    SpiceFallback,
    /// Conservative rail-to-rail verdict; the cluster counts as degraded
    /// but never silently missing.
    WorstCase,
}

impl RecoveryRung {
    /// All rungs, in escalation order.
    pub const ALL: [RecoveryRung; 6] = [
        RecoveryRung::Baseline,
        RecoveryRung::GminBoost,
        RecoveryRung::ReducedOrder,
        RecoveryRung::SofterNewton,
        RecoveryRung::SpiceFallback,
        RecoveryRung::WorstCase,
    ];

    /// Stable lower-case name used in reports, traces and JSON.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::Baseline => "baseline",
            RecoveryRung::GminBoost => "gmin_boost",
            RecoveryRung::ReducedOrder => "reduced_order",
            RecoveryRung::SofterNewton => "softer_newton",
            RecoveryRung::SpiceFallback => "spice_fallback",
            RecoveryRung::WorstCase => "worst_case",
        }
    }

    /// The next rung up, or `None` from [`RecoveryRung::WorstCase`].
    pub fn next(self) -> Option<RecoveryRung> {
        let i = RecoveryRung::ALL.iter().position(|&r| r == self).expect("rung in ALL");
        RecoveryRung::ALL.get(i + 1).copied()
    }
}

/// Route a typed failure to the cheapest rung that addresses it. The
/// caller escalates to `max(route(err), current.next())` so the walk never
/// revisits a rung.
pub fn route(err: &XtalkError) -> RecoveryRung {
    match err {
        XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite { .. })) => {
            RecoveryRung::GminBoost
        }
        XtalkError::Mor(MorError::NoConvergence { .. }) => RecoveryRung::SofterNewton,
        XtalkError::Mor(MorError::BudgetExhausted { .. } | MorError::Cancelled { .. }) => {
            RecoveryRung::SpiceFallback
        }
        // Reduction breakdowns, non-finite projections/waveforms and other
        // numeric failures: a smaller Krylov space is the cheapest retry.
        XtalkError::Mor(_) => RecoveryRung::ReducedOrder,
        // The SPICE reference already is the last analysis rung; anything
        // else (missing drivers, config inconsistencies, unmeasurable
        // waveforms) cannot be cured by retrying the same analysis.
        _ => RecoveryRung::WorstCase,
    }
}

/// Knobs for the recovery ladder.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Multiplier applied to `gmin` at [`RecoveryRung::GminBoost`] and up.
    pub gmin_boost: f64,
    /// Multiplier applied to the MOR `max_step_fraction` at
    /// [`RecoveryRung::SofterNewton`].
    pub step_shrink: f64,
    /// Per-attempt Newton-iteration budget (deterministic stall
    /// protection); `usize::MAX` disables.
    pub newton_budget: usize,
    /// Per-attempt accepted-step budget; `usize::MAX` disables.
    pub max_tran_steps: usize,
    /// Optional per-attempt wall-clock soft deadline. **Non-deterministic**:
    /// whether a cluster degrades then depends on machine speed, so leave
    /// `None` (the default) whenever byte-identical reports matter. The
    /// iteration budgets above are the deterministic alternative.
    pub deadline: Option<Duration>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            gmin_boost: 1e3,
            step_shrink: 0.25,
            newton_budget: 2_000_000,
            max_tran_steps: 200_000,
            deadline: None,
        }
    }
}

/// The failure class a [`FaultPlan`] injects into a cluster job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Synthesize a `NotPositiveDefinite` Cholesky breakdown (routes to
    /// [`RecoveryRung::GminBoost`]).
    NonSpd,
    /// Panic inside the job (exercises per-attempt unwind isolation).
    Panic,
    /// Synthesize a non-finite-value error (routes to
    /// [`RecoveryRung::ReducedOrder`]).
    NaN,
    /// Collapse the Newton budget to 1 so the *real* budget mechanism
    /// trips (routes to [`RecoveryRung::SpiceFallback`]).
    Slow,
}

impl FaultKind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NonSpd => "non_spd",
            FaultKind::Panic => "panic",
            FaultKind::NaN => "nan",
            FaultKind::Slow => "slow",
        }
    }
}

/// One victim's injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// `true` → the fault fires at every rung (the cluster can only end
    /// worst-cased for [`FaultKind::Panic`]); `false` → baseline only, so
    /// the first retry rung sees a healthy cluster.
    pub persistent: bool,
}

/// A deterministic fault-injection plan: which victims fail, how, and at
/// which rungs. Faults are keyed by victim *name* (scheduling- and
/// worker-count-independent), either explicitly or through a seeded
/// per-name probability, so the same plan produces the same faults on
/// every run and machine.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    by_name: BTreeMap<String, FaultSpec>,
    seeded: Option<SeededFaults>,
}

/// Probabilistic portion of a [`FaultPlan`].
#[derive(Debug, Clone, Copy)]
struct SeededFaults {
    seed: u64,
    probability: f64,
    kind: FaultKind,
    persistent: bool,
}

impl FaultPlan {
    /// Empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty() && self.seeded.is_none()
    }

    /// Inject a fault into the named victim's job.
    pub fn inject(&mut self, name: impl Into<String>, spec: FaultSpec) -> &mut Self {
        self.by_name.insert(name.into(), spec);
        self
    }

    /// Inject a baseline-only (transient) fault into the named victim.
    pub fn inject_named(&mut self, name: impl Into<String>, kind: FaultKind) -> &mut Self {
        self.inject(name, FaultSpec { kind, persistent: false })
    }

    /// Additionally fault every victim whose name hashes (under `seed`)
    /// below `probability`. The decision is a pure function of
    /// `(seed, name)` — FNV-1a, no RNG state — so it is identical across
    /// worker counts, runs and machines.
    pub fn seed_probability(
        &mut self,
        seed: u64,
        probability: f64,
        kind: FaultKind,
        persistent: bool,
    ) -> &mut Self {
        self.seeded = Some(SeededFaults { seed, probability, kind, persistent });
        self
    }

    /// The fault (if any) planned for a victim. Explicit by-name entries
    /// shadow the seeded probability.
    pub fn fault_for(&self, name: &str) -> Option<FaultSpec> {
        if let Some(spec) = self.by_name.get(name) {
            return Some(*spec);
        }
        let s = self.seeded?;
        let mut h = Fnv1a::new();
        h.write_u64(s.seed);
        h.write_str(name);
        // FNV avalanches weakly over a trailing digit ("w3" vs "w4"), so
        // finish with a splitmix64 mix before mapping the top 53 bits to
        // a uniform [0, 1) draw.
        let mut x = h.finish();
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let draw = (x >> 11) as f64 / (1u64 << 53) as f64;
        (draw < s.probability).then_some(FaultSpec { kind: s.kind, persistent: s.persistent })
    }
}

/// One failed ladder attempt: which rung, why it failed, and how long the
/// failing analysis ran before giving up.
///
/// `elapsed` is wall-clock and therefore **never** enters the
/// deterministic signoff document (which must be byte-identical across
/// worker counts and machines) — it exists so the run ledger and operator
/// stats can attribute the *cost* of recovery, not just its path.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// The rung the attempt ran at.
    pub rung: RecoveryRung,
    /// Why it failed (error or panic message).
    pub reason: String,
    /// Wall-clock time the failing attempt consumed.
    pub elapsed: Duration,
}

/// How one cluster was degraded: every failed attempt (rung + reason) and
/// the rung whose result finally stood. Joinable with
/// [`EngineError`](crate::EngineError) records through `net`/`name`.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// The victim that needed recovery.
    pub net: PNetId,
    /// Victim net name.
    pub name: String,
    /// Every attempt that failed, in ladder order.
    pub attempts: Vec<Attempt>,
    /// The rung that produced the standing verdict
    /// ([`RecoveryRung::WorstCase`] when every analysis failed).
    pub recovered: RecoveryRung,
}

impl Degradation {
    /// Total wall-clock time spent inside this cluster's failed attempts —
    /// the price the recovery ladder paid before a verdict stood.
    pub fn recovery_time(&self) -> Duration {
        self.attempts.iter().map(|a| a.elapsed).sum()
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: recovered at {} after", self.name, self.recovered.name())?;
        for a in &self.attempts {
            write!(f, " [{}: {}]", a.rung.name(), a.reason)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_escalate_in_order_and_terminate() {
        let mut rung = RecoveryRung::Baseline;
        let mut seen = vec![rung];
        while let Some(next) = rung.next() {
            assert!(next > rung, "{next:?} must escalate past {rung:?}");
            seen.push(next);
            rung = next;
        }
        assert_eq!(seen, RecoveryRung::ALL);
        assert_eq!(rung, RecoveryRung::WorstCase);
        assert!(rung.next().is_none());
    }

    #[test]
    fn routing_matches_failure_classes() {
        let non_spd = XtalkError::Mor(MorError::Numeric(pcv_sparse::Error::NotPositiveDefinite {
            col: 0,
            pivot: -1.0,
        }));
        assert_eq!(route(&non_spd), RecoveryRung::GminBoost);
        let no_conv = XtalkError::Mor(MorError::NoConvergence { t: 1e-9 });
        assert_eq!(route(&no_conv), RecoveryRung::SofterNewton);
        let budget = XtalkError::Mor(MorError::BudgetExhausted { t: 1e-9 });
        assert_eq!(route(&budget), RecoveryRung::SpiceFallback);
        let cancel = XtalkError::Mor(MorError::Cancelled { stage: "block lanczos" });
        assert_eq!(route(&cancel), RecoveryRung::SpiceFallback);
        let nonfinite = XtalkError::Mor(MorError::NonFinite { what: "x" });
        assert_eq!(route(&nonfinite), RecoveryRung::ReducedOrder);
        let config = XtalkError::InvalidConfig { what: "x" };
        assert_eq!(route(&config), RecoveryRung::WorstCase);
    }

    #[test]
    fn by_name_faults_shadow_seeded_ones() {
        let mut plan = FaultPlan::new();
        plan.inject("hot", FaultSpec { kind: FaultKind::Panic, persistent: true });
        plan.seed_probability(42, 1.0, FaultKind::NaN, false);
        let hot = plan.fault_for("hot").unwrap();
        assert_eq!(hot.kind, FaultKind::Panic);
        assert!(hot.persistent);
        let other = plan.fault_for("anything").unwrap();
        assert_eq!(other.kind, FaultKind::NaN);
        assert!(!other.persistent);
    }

    #[test]
    fn seeded_faults_are_deterministic_and_seed_sensitive() {
        let mut a = FaultPlan::new();
        a.seed_probability(7, 0.5, FaultKind::Slow, false);
        let mut b = FaultPlan::new();
        b.seed_probability(7, 0.5, FaultKind::Slow, false);
        let mut c = FaultPlan::new();
        c.seed_probability(8, 0.5, FaultKind::Slow, false);
        let names: Vec<String> = (0..64).map(|i| format!("net_{i}")).collect();
        let pick = |p: &FaultPlan| -> Vec<bool> {
            names.iter().map(|n| p.fault_for(n).is_some()).collect()
        };
        assert_eq!(pick(&a), pick(&b), "same seed, same faults");
        assert_ne!(pick(&a), pick(&c), "different seed, different faults");
        let hits = pick(&a).iter().filter(|&&x| x).count();
        assert!(hits > 8 && hits < 56, "p=0.5 should fault roughly half, got {hits}/64");
    }

    #[test]
    fn probability_extremes() {
        let mut none = FaultPlan::new();
        none.seed_probability(1, 0.0, FaultKind::NaN, false);
        let mut all = FaultPlan::new();
        all.seed_probability(1, 1.0, FaultKind::NaN, false);
        for name in ["a", "b", "c", "longer_net_name_7"] {
            assert!(none.fault_for(name).is_none());
            assert!(all.fault_for(name).is_some());
        }
        assert!(FaultPlan::new().is_empty());
        assert!(!all.is_empty());
    }

    #[test]
    fn degradation_displays_path() {
        let d = Degradation {
            net: PNetId(0),
            name: "bus0_2".into(),
            attempts: vec![Attempt {
                rung: RecoveryRung::Baseline,
                reason: "matrix is not positive definite".into(),
                elapsed: Duration::from_millis(3),
            }],
            recovered: RecoveryRung::GminBoost,
        };
        let s = d.to_string();
        assert!(s.contains("bus0_2"));
        assert!(s.contains("gmin_boost"));
        assert!(s.contains("positive definite"));
        assert_eq!(d.recovery_time(), Duration::from_millis(3));
    }
}
