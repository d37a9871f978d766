//! Load drivers, owned by the benchmark.
//!
//! Simulated clients are virtual, not threads: the whole run is one host
//! thread issuing operations in simulated-time order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ys_simcore::time::SimTime;

/// Closed loop: each client issues its next operation when its previous
/// one completes, so a slower system receives less load.
#[derive(Debug)]
pub struct ClosedLoop {
    ready: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ClosedLoop {
    /// `clients` clients, all ready at `start`.
    pub fn new(clients: usize, start: SimTime) -> ClosedLoop {
        ClosedLoop {
            ready: (0..clients).map(|c| Reverse((start.nanos(), c))).collect(),
        }
    }

    /// The client that is ready first (ties go to the lowest id) and the
    /// instant it issues. The client is busy until [`ClosedLoop::complete`].
    pub fn next_ready(&mut self) -> (usize, SimTime) {
        let Reverse((t, c)) = self
            .ready
            .pop()
            .expect("a closed loop always has a ready client");
        (c, SimTime(t))
    }

    /// `client`'s operation finished at `done`; it issues again then.
    pub fn complete(&mut self, client: usize, done: SimTime) {
        self.ready.push(Reverse((done.nanos(), client)));
    }
}

/// Open loop: operations are due at a fixed rate whatever the system does,
/// so a stall delays every later operation and shows as latency.
#[derive(Debug)]
pub struct OpenLoop {
    start: SimTime,
    interval_ns: u64,
    issued: u64,
}

impl OpenLoop {
    pub fn new(start: SimTime, ops_per_sec: u64) -> OpenLoop {
        OpenLoop {
            start,
            interval_ns: 1_000_000_000 / ops_per_sec,
            issued: 0,
        }
    }

    /// The next operation's index (from 0) and the instant it is due.
    pub fn next_due(&mut self) -> (u64, SimTime) {
        let i = self.issued;
        self.issued += 1;
        (i, SimTime(self.start.nanos() + i * self.interval_ns))
    }
}
