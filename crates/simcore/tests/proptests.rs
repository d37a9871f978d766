//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use ys_simcore::{Bandwidth, LatencyHisto, Rng, SimDuration, Zipf};

proptest! {
    /// Histogram quantile lower-bounds never exceed the recorded max and the
    /// quantile function is monotone in q.
    #[test]
    fn histogram_quantiles_monotone(samples in proptest::collection::vec(0u64..10_000_000_000, 1..500)) {
        let mut h = LatencyHisto::new();
        let max = *samples.iter().max().unwrap();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut prev = SimDuration::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantile not monotone at q={q}");
            prop_assert!(v.nanos() <= max);
            prev = v;
        }
    }

    /// transfer_time is monotone in bytes and additive within rounding.
    #[test]
    fn bandwidth_monotone_additive(gbps in 1u64..100, a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let bw = Bandwidth::from_gbit_per_sec(gbps);
        let ta = bw.transfer_time(a);
        let tb = bw.transfer_time(b);
        let tab = bw.transfer_time(a + b);
        prop_assert!(tab >= ta.max(tb));
        // ceil rounding loses at most 1 ns per term
        let sum = ta + tb;
        prop_assert!(sum.nanos() >= tab.nanos());
        prop_assert!(sum.nanos() - tab.nanos() <= 1);
    }

    /// Zipf samples always land in the support.
    #[test]
    fn zipf_in_support(n in 1usize..5000, theta in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// next_below respects its bound for arbitrary bounds and seeds.
    #[test]
    fn rng_bound_respected(bound in 1u64..u64::MAX, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for _ in 0..20 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }
}
