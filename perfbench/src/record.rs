//! Per-operation results: simulated latencies, throughput, failures, and
//! the simulation fingerprint.

use crate::gen::Kind;
use ys_simcore::time::SimTime;

/// FNV-1a over 64-bit words: the simulation fingerprint. Two runs with the
/// same fingerprint completed the same operations at the same simulated
/// instants and ended in the same simulated state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// Foreground results of the measured phase.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Simulated read latencies in ns, one per completed read.
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    pub bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Operations the program failed (not refusals): each one fails the run.
    pub errors: Vec<String>,
    first_issue: Option<SimTime>,
    last_done: SimTime,
    digest: Digest,
}

impl Recorder {
    /// Room for `ops` latency samples of each kind up front, so the
    /// vectors never double (and move) during a run.
    pub fn with_capacity(ops: usize) -> Recorder {
        Recorder {
            reads: Vec::with_capacity(ops),
            writes: Vec::with_capacity(ops),
            ..Recorder::default()
        }
    }

    /// Operation `id` of `kind`, issued (closed loop) or due (open loop) at
    /// `issued`, completed at `done`.
    pub fn ok(&mut self, id: u64, kind: Kind, issued: SimTime, done: SimTime, bytes: u64) {
        self.start(issued);
        let lat = done.since(issued).nanos();
        match kind {
            Kind::Read => self.reads.push(lat),
            Kind::Write => self.writes.push(lat),
        }
        self.bytes += bytes;
        self.last_done = self.last_done.max(done);
        self.digest.word(id);
        self.digest.word(done.nanos());
    }

    /// Operation `id` was refused (QoS shed or read-only governor). It
    /// counts against every latency limit, so it is kept out of the
    /// latency samples and reported through `failed`.
    pub fn refused(&mut self, id: u64, issued: SimTime) {
        self.start(issued);
        self.failed += 1;
        self.digest.word(id);
        self.digest.word(u64::MAX);
    }

    /// Operation `id` failed with a program error: a correctness failure.
    pub fn error(&mut self, id: u64, issued: SimTime, what: impl std::fmt::Display) {
        self.refused(id, issued);
        if self.errors.len() < 10 {
            self.errors.push(format!("operation {id}: {what}"));
        }
    }

    /// A background call (rebuild, heal, async ship) failed: a correctness
    /// failure that belongs to no single operation.
    pub fn fault(&mut self, what: impl std::fmt::Display) {
        if self.errors.len() < 10 {
            self.errors.push(what.to_string());
        }
    }

    fn start(&mut self, issued: SimTime) {
        self.attempted += 1;
        if self.first_issue.is_none() {
            self.first_issue = Some(issued);
        }
    }

    /// Simulated span of the measured phase: first issue to last completion.
    pub fn sim_span_s(&self) -> f64 {
        self.last_done
            .since(self.first_issue.unwrap_or(self.last_done))
            .as_secs_f64()
    }

    pub fn last_done(&self) -> SimTime {
        self.last_done
    }

    /// Fingerprint over every completion plus the final simulated state.
    pub fn fingerprint(&self, final_state: &[u64]) -> u64 {
        let mut d = self.digest;
        for &w in final_state {
            d.word(w);
        }
        d.value()
    }
}

/// Mean of `samples` in ms; 0 when empty.
pub fn mean_ms(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64 / 1e6
}

/// Exact `q`-quantile of `samples` (nearest rank); 0 when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}
