//! Property tests for the substrate: timer-queue ordering, statistics
//! estimators against reference implementations, RNG distribution sanity.

use interweave_core::stats::{geomean, Sketch, Summary};
use interweave_core::{Cycles, TimerQueue};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Popping one timer per id yields them in nondecreasing time order,
    /// and FIFO within a time — exactly the order of a stable sort by time.
    #[test]
    fn event_queue_matches_stable_sort(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = TimerQueue::new(times.len());
        for (id, &t) in times.iter().enumerate() {
            q.set(id, Cycles(t));
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(id, &t)| (t, id)).collect();
        reference.sort_by_key(|&(t, _)| t); // stable: FIFO within ties
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t.get(), id));
        }
        prop_assert_eq!(popped, reference);
    }

    /// `now` never goes backwards across any pop sequence, with each
    /// popped id re-armed a random delta later until its budget runs out.
    #[test]
    fn event_queue_time_is_monotone(
        times in prop::collection::vec((0u64..10_000, 0u64..500, 0u32..4), 1..100),
    ) {
        let mut q = TimerQueue::new(times.len());
        for (id, &(t, _, _)) in times.iter().enumerate() {
            q.set(id, Cycles(t));
        }
        let mut rearms: Vec<u32> = times.iter().map(|&(_, _, n)| n).collect();
        let mut last = Cycles::ZERO;
        while let Some((t, id)) = q.pop() {
            prop_assert!(t >= last);
            prop_assert_eq!(q.now(), t);
            last = t;
            if rearms[id] > 0 {
                rearms[id] -= 1;
                q.set(id, t + Cycles(times[id].1));
            }
        }
    }

    /// Welford summary agrees with the naive two-pass mean and variance.
    #[test]
    fn summary_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = Summary::new();
        for &x in &xs {
            s.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-4 * var.abs().max(1.0));
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert!(s.min() <= s.mean() + 1e-9 && s.mean() <= s.max() + 1e-9);
    }

    /// Geomean lies between min and max, and is exact for pairs.
    #[test]
    fn geomean_bounds(xs in prop::collection::vec(0.01f64..1e4, 1..64)) {
        let g = geomean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(g >= lo * (1.0 - 1e-9) && g <= hi * (1.0 + 1e-9), "g={g} lo={lo} hi={hi}");
    }

    /// Sketch quantiles are monotone in q, and the top quantile brackets
    /// the maximum within the sketch's relative error.
    #[test]
    fn sketch_quantiles_monotone(xs in prop::collection::vec(0.0f64..100.0, 1..200)) {
        let mut sk = Sketch::for_latency_us();
        for &x in &xs {
            sk.add(x);
        }
        let mut last = 0.0;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = sk.quantile(q).unwrap();
            prop_assert!(v >= last, "q{q}: {v} < {last}");
            last = v;
        }
        let max = xs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(last >= max, "q1.0 {last} below max {max}");
        prop_assert!(last <= (max * (1.0 + sk.relative_error())).max(1.0 / 1024.0));
    }

    /// SplitMix64 `below` is within bounds and `range` is inclusive.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1000, lo in 0u64..100, span in 0u64..100) {
        let mut r = interweave_core::SplitMix64::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
            let v = r.range(lo, lo + span);
            prop_assert!(v >= lo && v <= lo + span);
            let f = r.f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }
}
