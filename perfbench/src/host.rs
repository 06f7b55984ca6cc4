//! The host block stamped on every result: core count, CPU model and a
//! fixed CPU-calibration loop, so a number that moved with the machine
//! can be told apart from one that moved with the code.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of one calibration pass (~50 ms on a 2020s x86 core).
const CALIBRATION_ITERS: u64 = 20_000_000;

#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    /// Median wall time of five passes of the calibration loop.
    pub calibration_ms: f64,
}

impl Host {
    pub fn probe() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let passes: Vec<f64> = (0..5).map(|_| calibration_pass()).collect();
        Host { cores, cpu_model: cpu_model(), calibration_ms: median(&passes) }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"cpu_model\":{},\"calibration_ms\":{}}}",
            self.cores,
            pcv_trace::json::str_lit(&self.cpu_model),
            self.calibration_ms
        )
    }
}

/// One pass of a fixed integer + floating-point dependency chain: no
/// memory traffic, no allocation, so it tracks core speed alone.
fn calibration_pass() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for _ in 0..black_box(CALIBRATION_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64);
    }
    black_box((x, acc));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The CPU brand string from `cpuid` (no file is read).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports whether the brand-string leaves exist.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown x86_64".to_owned();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    format!("unknown {}", std::env::consts::ARCH)
}
