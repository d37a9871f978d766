//! A fixed-seed, Fx-style hasher for the cache's lookup maps.
//!
//! The cache touches its directory and page tables several times per
//! page; SipHash with a per-instance `RandomState` costs more than the
//! work it indexes. This is the multiply-rotate word hash rustc uses for
//! its own tables: no seed from the environment, so a map's layout is a
//! pure function of its operations. Nothing may depend on that layout —
//! every ordered consumer sorts its keys first.

use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time Fx hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]: every map starts from the same state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
