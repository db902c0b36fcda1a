//! Property tests for the streaming observability plane: the bounded
//! quantile [`Sketch`] must merge order- and shard-insensitively and track
//! the exact [`Samples`] reservoir within its documented relative-error
//! bound, and windowed [`TimeSeries`] roll-ups must concatenate across
//! arbitrary time splits exactly as if the whole range ran once. The
//! sketch's dense bucket range must also be canonical (the same
//! observations in any order give `==` sketches of equal size) and answer
//! exactly as a sparse `BTreeMap` of bucket counts would.

use interweave_core::stats::{Samples, Sketch};
use interweave_core::telemetry::TimeSeries;
use interweave_core::Cycles;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Positive observations spanning the sketch's tracked latency range
/// (`for_latency_us` covers `[2^-10, 2^31)` µs — these stay inside it so
/// the in-range error bound applies; routing outside the range has its
/// own unit tests).
fn observations() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((1.0f64..1e9, 0u8..3), 1..400).prop_map(|raw| {
        raw.into_iter()
            // Mix magnitudes so values cross many exponent buckets.
            .map(|(x, scale)| x / 10f64.powi(scale as i32))
            .collect()
    })
}

/// Observations of every kind a latency sink sees: zero, negative and NaN
/// (the zero cell), positive magnitudes below `2^-10` (under, subnormals
/// included), in-range values across many octaves, and values at or above
/// `2^31` (over, infinity included).
fn mixed_observations() -> impl Strategy<Value = Vec<f64>> {
    let value = prop_oneof![
        (0u8..3).prop_map(|k| [0.0, -2.5, f64::NAN][k as usize]),
        (1e-9f64..9e-4, any::<bool>()).prop_map(|(x, sub)| if sub { x * 1e-310 } else { x }),
        (1.0f64..1e9, 0u8..4).prop_map(|(x, scale)| x / 10f64.powi(scale as i32 * 3)),
        (2.2e9f64..1e13, any::<bool>()).prop_map(|(x, inf)| if inf { f64::INFINITY } else { x }),
    ];
    prop::collection::vec(value, 0..300)
}

/// A sketch fed `xs` in order.
fn sketch_of(xs: &[f64]) -> Sketch {
    let mut s = Sketch::for_latency_us();
    for &x in xs {
        s.add(x);
    }
    s
}

/// Reference model of the latency sketch as a sparse `BTreeMap` of bucket
/// counts keyed like the sketch (`(exp + 10) << 7 | top 7 mantissa bits`
/// over `[2^-10, 2^31)`), with the zero, under and over cells beside it.
#[derive(Default)]
struct MapSketch {
    zero: u64,
    under: u64,
    over: u64,
    buckets: BTreeMap<u32, u64>,
    total: u64,
}

impl MapSketch {
    const LO_EXP: i32 = -10;
    const HI_EXP: i32 = 30;
    const SUB_BITS: u32 = 7;

    fn add(&mut self, x: f64) {
        self.total += 1;
        if x.is_nan() || x <= 0.0 {
            self.zero += 1;
            return;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
        if exp < Self::LO_EXP {
            self.under += 1;
        } else if exp > Self::HI_EXP {
            self.over += 1;
        } else {
            let sub = ((bits >> (52 - Self::SUB_BITS)) & ((1 << Self::SUB_BITS) - 1)) as u32;
            let idx = (((exp - Self::LO_EXP) as u32) << Self::SUB_BITS) | sub;
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
    }

    fn quantile_clamped(&self, q: f64) -> Option<(f64, bool)> {
        if self.total == 0 {
            return None;
        }
        let pow2 = |e: i32| 2f64.powi(e);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = self.zero;
        if seen >= rank {
            return Some((0.0, false));
        }
        seen += self.under;
        if seen >= rank {
            return Some((pow2(Self::LO_EXP), false));
        }
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let exp = Self::LO_EXP + (idx >> Self::SUB_BITS) as i32;
                let sub = idx & ((1 << Self::SUB_BITS) - 1);
                let subs = (1u32 << Self::SUB_BITS) as f64;
                return Some((pow2(exp) * (1.0 + (sub + 1) as f64 / subs), false));
            }
        }
        Some((pow2(Self::HI_EXP + 1), true))
    }

    fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.over as f64 / self.total as f64
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One set of observations fed ascending, descending and shuffled gives
    /// `==` sketches holding the same number of bytes: the dense range
    /// depends on the observations, not on the order they arrived in.
    #[test]
    fn sketch_layout_is_independent_of_feed_order(
        xs in prop::collection::vec((1e-3f64..1e9, 0u8..4, any::<u64>()), 1..300),
    ) {
        let mut keyed: Vec<(f64, u64)> = xs
            .iter()
            .map(|&(x, scale, key)| (x / 10f64.powi(scale as i32 * 3), key))
            .collect();
        keyed.sort_by_key(|&(_, key)| key);
        let shuffled: Vec<f64> = keyed.iter().map(|&(x, _)| x).collect();
        let mut ascending = shuffled.clone();
        ascending.sort_by(f64::total_cmp);
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        let (up, down, mixed) = (sketch_of(&ascending), sketch_of(&descending), sketch_of(&shuffled));
        prop_assert_eq!(&up, &down);
        prop_assert_eq!(&up, &mixed);
        prop_assert_eq!(up.bytes(), down.bytes());
        prop_assert_eq!(up.bytes(), mixed.bytes());
    }

    /// Merging a sketch holding only low magnitudes with one holding only
    /// high ones, in either direction, equals one sketch fed everything:
    /// `merge` grows the held range downward and upward alike.
    #[test]
    fn merging_disjoint_ranges_equals_direct_feed(
        low in prop::collection::vec(1e-3f64..1.0, 1..100),
        high in prop::collection::vec(1e4f64..1e9, 1..100),
    ) {
        let (lo, hi) = (sketch_of(&low), sketch_of(&high));
        let direct = sketch_of(&[low.as_slice(), high.as_slice()].concat());
        let mut lo_hi = lo.clone();
        lo_hi.merge(&hi);
        let mut hi_lo = hi.clone();
        hi_lo.merge(&lo);
        prop_assert_eq!(&lo_hi, &direct);
        prop_assert_eq!(&hi_lo, &direct);
        prop_assert_eq!(lo_hi.bytes(), direct.bytes());
        prop_assert_eq!(hi_lo.bytes(), direct.bytes());
    }

    /// The dense sketch answers exactly as the sparse `BTreeMap` model:
    /// same count, same overflow fraction and, at every probed `q`, the
    /// same quantile and clamp flag, with zero, under and over cells mixed
    /// into the stream.
    #[test]
    fn dense_sketch_matches_the_btreemap_model(xs in mixed_observations()) {
        let sk = sketch_of(&xs);
        let mut model = MapSketch::default();
        for &x in &xs {
            model.add(x);
        }
        prop_assert_eq!(sk.count(), model.total);
        prop_assert_eq!(sk.overflow_fraction(), model.overflow_fraction());
        for &q in &[0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(sk.quantile_clamped(q), model.quantile_clamped(q), "q={}", q);
        }
    }

    /// Splitting the observations into any number of per-shard sketches
    /// and merging them back — in any order — is bit-identical to feeding
    /// one sketch directly. Counts are pure integers, so this is exact
    /// equality, not approximate.
    #[test]
    fn sketch_merge_is_shard_and_order_invariant(
        xs in observations(),
        shards in 1usize..8,
        reverse in any::<bool>(),
    ) {
        let mut whole = Sketch::for_latency_us();
        let mut parts: Vec<Sketch> = (0..shards).map(|_| Sketch::for_latency_us()).collect();
        for (i, &x) in xs.iter().enumerate() {
            whole.add(x);
            parts[i % shards].add(x);
        }
        let mut merged = Sketch::for_latency_us();
        if reverse {
            for p in parts.iter().rev() {
                merged.merge(p);
            }
        } else {
            for p in &parts {
                merged.merge(p);
            }
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.count(), xs.len() as u64);
    }

    /// Every sketch quantile brackets the exact nearest-rank quantile from
    /// a full [`Samples`] reservoir within the documented one-sided bound:
    /// `exact <= sketch <= exact * (1 + relative_error())`.
    #[test]
    fn sketch_quantiles_track_exact_samples_within_the_bound(xs in observations()) {
        let mut sk = Sketch::for_latency_us();
        let mut exact = Samples::new();
        for &x in &xs {
            sk.add(x);
            exact.add(x);
        }
        let eps = sk.relative_error();
        for &q in &[0.1, 0.5, 0.9, 0.99, 1.0] {
            let want = exact.quantile(q).expect("non-empty");
            let got = sk.quantile(q).expect("non-empty");
            prop_assert!(
                want <= got && got <= want * (1.0 + eps) * (1.0 + 1e-12),
                "q={q}: exact {want} vs sketch {got} (eps {eps})"
            );
        }
    }

    /// A run split at an arbitrary (not necessarily window-aligned) time
    /// point into two series, merged, equals the whole-range series —
    /// counters, gauges, and per-window sketches alike.
    #[test]
    fn windowed_series_concatenates_exactly_across_any_split(
        stamps in prop::collection::vec(0u64..50_000, 1..300),
        width in 1u64..5_000,
        split in 0u64..50_000,
    ) {
        let mut whole = TimeSeries::new(Cycles(width));
        let mut lo = TimeSeries::new(Cycles(width));
        let mut hi = TimeSeries::new(Cycles(width));
        for &t in &stamps {
            let lat = (t % 977) as f64 + 0.25;
            whole.add(Cycles(t), "offered", 1);
            whole.gauge_max(Cycles(t), "depth", t % 13);
            whole.observe(Cycles(t), "latency_us", lat);
            let part = if t < split { &mut lo } else { &mut hi };
            part.add(Cycles(t), "offered", 1);
            part.gauge_max(Cycles(t), "depth", t % 13);
            part.observe(Cycles(t), "latency_us", lat);
        }
        lo.merge(&hi);
        prop_assert_eq!(&lo, &whole);
        let total: u64 = whole.iter().map(|(_, w)| w.counter("offered")).sum();
        prop_assert_eq!(total, stamps.len() as u64);
    }
}
