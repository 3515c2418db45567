//! Host-speed probe: a fixed kernel, independent of the program under test,
//! timed between the benchmark's measurements.
//!
//! On a shared host the same work can take 20–40% longer for minutes at a
//! time while other tenants load the physical cores, and a set of runs that
//! straddles such a spell spreads every wall-clock metric past any useful
//! bound. The probe slows down with the host: over 3-second windows its
//! time tracked the HRIS pipeline's with correlation 0.92, and dividing by
//! it halved the pipeline's variation (coefficient of variation 0.099 →
//! 0.048). The end-to-end timings are therefore reported at the reference
//! host speed: scaled by [`REFERENCE_MS`] over the probe's median time in
//! the same round. The probe touches nothing the program uses, so a change
//! to the program moves the scaled metrics exactly as it moves the raw ones.
//! (Timing the slowest of `nproc()` simultaneous probes for the
//! multi-threaded passes was tried and dropped: the maximum of two 5 ms
//! probes moved more than the passes it was meant to correct.)

use crate::report::median;
use std::time::Instant;

/// The probe's time on the reference host when it is not contended: a
/// 2-vCPU virtual machine at 2.1 GHz.
pub const REFERENCE_MS: f64 = 4.0;

/// 32 MiB: larger than the caches, so the probe feels memory contention as
/// the pipeline's lookups do.
const WORDS: usize = 1 << 22;

/// Dependent pseudo-random read-modify-writes per probe.
const STEPS: usize = 400_000;

/// The probe's buffer and the times of the current round.
pub struct Probe {
    buf: Vec<u64>,
    round_ms: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            buf: vec![1; WORDS],
            round_ms: Vec::new(),
        }
    }
}

impl Probe {
    /// Runs the probe once and records its time in the current round.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % WORDS as u64) as usize;
            acc = acc.wrapping_add(self.buf[i]).rotate_left(5) ^ x;
            self.buf[i] = acc;
        }
        std::hint::black_box(acc);
        self.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Ends the round: the factor that converts the round's wall times to
    /// the reference host speed, [`REFERENCE_MS`] over the round's median
    /// probe time (1 when the round took no sample).
    pub fn finish_round(&mut self) -> f64 {
        let scale = if self.round_ms.is_empty() {
            1.0
        } else {
            REFERENCE_MS / median(&mut self.round_ms)
        };
        self.round_ms.clear();
        scale
    }
}
