//! Seeded input generation, owned by the benchmark.
//!
//! The program under test receives only the operations made here. Keeping
//! the generator out of the workspace crates means no change to the
//! program can change what the benchmark feeds it: every stream is a pure
//! function of the workload seed.

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// An independent stream for one purpose (`stream` names it), so adding
    /// draws to one stream never shifts another.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)` (Lemire's multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

/// Operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One generated page-granular operation: `len` bytes at `offset` of the
/// workload's volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub offset: u64,
    pub len: u64,
}

/// Seed of the fixed data layout (which page holds which Zipf rank). The
/// workload seed varies the operation stream, not where the hot data sits,
/// so runs with different seeds measure the same hot spots.
const LAYOUT_SEED: u64 = 0x5945_4C44;

/// `cache-hot` stream: Zipf(0.99) page reads over a prefilled set, with a
/// small share of writes to the same set. Zipf ranks map to pages through
/// a fixed permutation, so hot pages spread over directory shards.
#[derive(Clone, Debug)]
pub struct HotGen {
    rng: Rng,
    zipf: Zipf,
    rank_to_page: Vec<u64>,
    page_bytes: u64,
    write_frac: f64,
}

impl HotGen {
    pub fn new(seed: u64, pages: usize, page_bytes: u64, write_frac: f64) -> HotGen {
        let mut layout = Rng::new(LAYOUT_SEED);
        HotGen {
            rank_to_page: layout.permutation(pages),
            rng: Rng::stream(seed, 2),
            zipf: Zipf::new(pages, 0.99),
            page_bytes,
            write_frac,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let kind = if self.rng.unit() < self.write_frac {
            Kind::Write
        } else {
            Kind::Read
        };
        let page = self.rank_to_page[self.zipf.sample(&mut self.rng) as usize];
        Op {
            kind,
            offset: page * self.page_bytes,
            len: self.page_bytes,
        }
    }
}

/// Uniform random page operations: reads over `[0, read_pages)`, writes
/// over `[0, write_pages)`.
#[derive(Clone, Debug)]
pub struct UniformGen {
    rng: Rng,
    read_pages: u64,
    write_pages: u64,
    page_bytes: u64,
    read_frac: f64,
}

impl UniformGen {
    pub fn new(
        seed: u64,
        read_pages: u64,
        write_pages: u64,
        page_bytes: u64,
        read_frac: f64,
    ) -> UniformGen {
        UniformGen {
            rng: Rng::stream(seed, 3),
            read_pages,
            write_pages,
            page_bytes,
            read_frac,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let (kind, span) = if self.rng.unit() < self.read_frac {
            (Kind::Read, self.read_pages)
        } else {
            (Kind::Write, self.write_pages)
        };
        Op {
            kind,
            offset: self.rng.below(span) * self.page_bytes,
            len: self.page_bytes,
        }
    }
}

/// `geo-stream` file plan: sizes in whole stream ops, and which file an
/// idle analysis client re-reads.
#[derive(Clone, Debug)]
pub struct FileGen {
    rng: Rng,
    min_ops: u64,
    max_ops: u64,
}

impl FileGen {
    pub fn new(seed: u64, min_ops: u64, max_ops: u64) -> FileGen {
        FileGen {
            rng: Rng::stream(seed, 4),
            min_ops,
            max_ops,
        }
    }

    /// Length of the next file, in stream ops.
    pub fn next_file_ops(&mut self) -> u64 {
        self.min_ops + self.rng.below(self.max_ops - self.min_ops + 1)
    }

    /// A file index in `[0, n)` to re-read.
    pub fn pick(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }
}
