//! Host-speed normalisation for the host-time metrics.
//!
//! On a shared machine the simulator's speed drifts by tens of percent
//! within minutes: the simulator is memory-bound and its neighbours compete
//! for caches and memory bandwidth. A fixed, program-independent probe —
//! seeded random updates over a buffer larger than the last-level cache —
//! slows down with it. The probe runs after every lap and before every
//! set-up, and a run's host figures are scaled by its median probe speed, so
//! `host.ops_s` and `setup_s` read as they would on the reference machine.

use std::time::Instant;

/// 16 MiB of `u64`s.
const PROBE_WORDS: usize = 2 << 20;
const PROBE_UPDATES: u64 = 200_000;
/// Probe time on the reference machine (a quiet 2-core x86-64 box).
pub const PROBE_REF_S: f64 = 0.003;

/// The memory-speed probe and its buffer.
#[derive(Debug)]
pub struct Probe {
    buf: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            buf: vec![1; PROBE_WORDS],
        }
    }
}

impl Probe {
    /// Run the probe once; returns `PROBE_REF_S / elapsed`, the host's speed
    /// now relative to the reference: divide a rate measured now by it, or
    /// multiply a duration by it, to get the reference machine's figure.
    pub fn speed(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..PROBE_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % PROBE_WORDS as u64) as usize;
            self.buf[k] = self.buf[k].wrapping_add(i);
        }
        std::hint::black_box(&self.buf);
        PROBE_REF_S / start.elapsed().as_secs_f64()
    }
}
