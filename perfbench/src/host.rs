//! The host envelope recorded with every result, so figures from different
//! machines can be read side by side, and the process memory high-water
//! mark.

use std::hint::black_box;
use std::time::Instant;

use crate::samples::median;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Threads the OS lets this process run in parallel.
    pub nproc: usize,
    /// CPU model name, or `unknown`.
    pub cpu_model: String,
    /// Median ns of [`calibration_loop`] over a few passes.
    pub calibration_ns: f64,
}

/// Iterations of the calibration loop.
const CALIBRATION_STEPS: u32 = 1 << 20;

/// A fixed integer loop (xorshift steps) whose time scales with the host's
/// single-thread speed.
fn calibration_loop() -> u64 {
    let mut state = black_box(0x2545_F491_4F6C_DD1D_u64);
    for _ in 0..CALIBRATION_STEPS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
    }
    black_box(state)
}

impl Host {
    /// Probes the host: parallelism, CPU model, calibration loop time.
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, name)| name.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let passes: Vec<f64> = (0..7)
            .map(|_| {
                let start = Instant::now();
                calibration_loop();
                start.elapsed().as_nanos() as f64
            })
            .collect();
        Self {
            nproc,
            cpu_model,
            calibration_ns: median(&passes),
        }
    }
}

/// The process's resident-memory high-water mark (`VmHWM`) in MiB, if the
/// OS reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
