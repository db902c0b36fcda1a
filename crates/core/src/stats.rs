//! Online statistics used by every experiment report.
//!
//! The paper summarizes with geometric means (CARAT's <6 % overhead, RTK's
//! 22 % gain), rate stability (Fig. 3's "consistent, stable rate"), and
//! cycle-cost distributions (Fig. 4). This module provides the corresponding
//! estimators: Welford online mean/variance, a fixed-memory mergeable
//! quantile [`Sketch`] (the one quantile type every report records into),
//! an exact sample reservoir that serves as the sketch's test oracle, and
//! geometric-mean helpers.

use serde::{Deserialize, Serialize};

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (stddev / mean); the Fig. 3 stability
    /// metric — a "consistent, stable rate" is a low CV.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// An exact-quantile sample reservoir: stores every observation and answers
/// arbitrary quantiles by nearest-rank on the sorted data.
///
/// No simulator path records into `Samples`; it is the exact oracle that
/// the [`Sketch`] error-bound tests compare against. Memory is 8 bytes per
/// observation and grows without bound, which is why every report records
/// into a [`Sketch`] instead.
///
/// `PartialEq` compares the *observation multisets* (sorted), so two
/// reservoirs built from the same values in different merge orders compare
/// equal.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    xs: Vec<f64>,
    /// Sorted-prefix watermark: `xs[..sorted]` is known sorted.
    sorted: usize,
}

impl Samples {
    /// An empty reservoir.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.xs.push(x);
    }

    /// Absorb every observation of `other`.
    pub fn merge(&mut self, other: &Samples) {
        self.xs.extend_from_slice(&other.xs);
        self.sorted = 0;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.xs.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if self.sorted != self.xs.len() {
            self.xs.sort_by(f64::total_cmp);
            self.sorted = self.xs.len();
        }
    }

    /// Exact `q`-quantile for `q` in `(0, 1]` by the nearest-rank method:
    /// the smallest observation such that at least `⌈q·n⌉` observations are
    /// ≤ it. Returns `None` when empty. `quantile(1.0)` is the maximum.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0, "quantile requires 0 < q <= 1, got {q}");
        if self.xs.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.xs.len();
        let rank = (q * n as f64).ceil() as usize;
        Some(self.xs[rank.clamp(1, n) - 1])
    }

    /// Median (`quantile(0.5)`); 0 when empty.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5).unwrap_or(0.0)
    }

    /// 99th percentile; 0 when empty.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99).unwrap_or(0.0)
    }

    /// 99.9th percentile; 0 when empty.
    pub fn p999(&mut self) -> f64 {
        self.quantile(0.999).unwrap_or(0.0)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        self.xs.first().copied().unwrap_or(0.0)
    }

    /// Largest observation (0 when empty).
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        self.xs.last().copied().unwrap_or(0.0)
    }
}

impl PartialEq for Samples {
    fn eq(&self, other: &Samples) -> bool {
        if self.xs.len() != other.xs.len() {
            return false;
        }
        let mut a = self.clone();
        let mut b = other.clone();
        a.ensure_sorted();
        b.ensure_sorted();
        a.xs.iter().zip(&b.xs).all(|(x, y)| x.total_cmp(y).is_eq())
    }
}

/// A deterministic, fixed-memory, log-bucketed quantile sketch (HDR-style).
///
/// Buckets are defined purely by IEEE-754 bit structure: a positive finite
/// `f64` with unbiased exponent `e` and mantissa top bits `s` (the top
/// `sub_bits` bits) lands in bucket `(e, s)`, i.e. the value range
/// `[2^e·(1 + s/S), 2^e·(1 + (s+1)/S))` with `S = 2^sub_bits`. No
/// transcendental math is involved, so bucketing is bit-exact on every
/// platform, and a bucket's width over its lower edge is at most
/// `2^-sub_bits` — the documented **relative error bound**: for any
/// quantile `q`, `exact ≤ sketch(q) ≤ exact · (1 + 2^-sub_bits)`
/// (values below `2^lo_exp` are reported at `2^lo_exp`; ranks landing in
/// the overflow bucket are clamped to `2^(hi_exp+1)` — see
/// [`Sketch::quantile_clamped`] and [`Sketch::overflow_fraction`]).
///
/// Counts are pure integers, so [`Sketch::merge`] (bucket-wise `u64` add)
/// is exactly order-insensitive: any merge tree over the same observations
/// yields a bit-identical sketch, which makes sharded reports bit-identical
/// at every shard count. Memory is hard-capped at one slot per
/// sub-bucket of every exponent in range, regardless of observation count.
///
/// Bucket counts are stored densely: one `u64` slot per bucket over the
/// whole octaves spanning the lowest to the highest bucket touched so far,
/// grown on demand in either direction. Counts never decrease, so that
/// range is a function of the observations alone, not of their order:
/// the layout is canonical and the derived `PartialEq` is value equality.
/// A workload touching few distinct magnitudes pays only for the octaves
/// between its extremes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// Mantissa bits per octave: each power of two splits into
    /// `2^sub_bits` sub-buckets.
    sub_bits: u32,
    /// Smallest tracked unbiased exponent (values below go to `under`).
    lo_exp: i32,
    /// Largest tracked unbiased exponent (values at or above
    /// `2^(hi_exp+1)` go to `over`).
    hi_exp: i32,
    /// Observations that were zero, negative, or NaN.
    zero: u64,
    /// Positive observations below `2^lo_exp` (incl. subnormals).
    under: u64,
    /// Observations at or above `2^(hi_exp+1)` (incl. +inf).
    over: u64,
    /// Bucket index of `buckets[0]`, a multiple of `2^sub_bits`. A
    /// bucket's index is `(exp - lo_exp) << sub_bits | sub`.
    base: u32,
    /// Dense bucket counts over whole octaves from `base`.
    buckets: Vec<u64>,
    total: u64,
}

impl Sketch {
    /// A sketch tracking `[2^lo_exp, 2^(hi_exp+1))` with `2^sub_bits`
    /// sub-buckets per octave.
    pub(crate) fn new(lo_exp: i32, hi_exp: i32, sub_bits: u32) -> Sketch {
        assert!(lo_exp <= hi_exp, "empty exponent range");
        assert!(
            (-1022..=1022).contains(&lo_exp) && (-1022..=1022).contains(&hi_exp),
            "exponent range must stay in normal f64 territory"
        );
        assert!(sub_bits <= 12, "sub_bits > 12 buys no useful precision");
        Sketch {
            sub_bits,
            lo_exp,
            hi_exp,
            zero: 0,
            under: 0,
            over: 0,
            base: 0,
            buckets: Vec::new(),
            total: 0,
        }
    }

    /// The geometry every latency sink in the serving plane uses:
    /// `[2^-10, 2^31)` µs ≈ 1 ns to 35 min, 128 sub-buckets per octave
    /// (relative error ≤ 2^-7 ≈ 0.79 %), ≤ 5248 buckets ≈ 42 KiB dense.
    pub fn for_latency_us() -> Sketch {
        Sketch::new(-10, 30, 7)
    }

    /// Record one observation. Zero/negative/NaN count toward the zero
    /// bucket (reported as 0.0); magnitudes outside the tracked range fall
    /// into under/over buckets rather than being dropped, so
    /// [`Sketch::count`] always equals the number of `add` calls.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x.is_nan() || x <= 0.0 {
            self.zero += 1;
            return;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
        if exp < self.lo_exp {
            self.under += 1;
        } else if exp > self.hi_exp {
            self.over += 1;
        } else {
            let sub = ((bits >> (52 - self.sub_bits)) & ((1 << self.sub_bits) - 1)) as u32;
            let idx = (((exp - self.lo_exp) as u32) << self.sub_bits) | sub;
            match self.buckets.get_mut(idx.wrapping_sub(self.base) as usize) {
                Some(n) => *n += 1,
                None => {
                    self.cover(idx, idx);
                    self.buckets[(idx - self.base) as usize] += 1;
                }
            }
        }
    }

    /// Widen the held range to the whole octaves covering bucket indices
    /// `lo..=hi` and every bucket already held. A widened range is
    /// allocated at exactly its length: ranges grow by whole octaves, so
    /// reallocations are few, and no sketch holds spare capacity.
    fn cover(&mut self, lo: u32, hi: u32) {
        let mask = (1u32 << self.sub_bits) - 1;
        let held = self.base + self.buckets.len() as u32;
        if self.buckets.is_empty() {
            self.base = lo & !mask;
        } else if self.base <= lo && hi < held {
            return;
        }
        let lo = (lo & !mask).min(self.base);
        let end = ((hi | mask) + 1).max(held);
        let mut grown = Vec::with_capacity((end - lo) as usize);
        grown.resize((self.base - lo) as usize, 0);
        grown.extend_from_slice(&self.buckets);
        grown.resize((end - lo) as usize, 0);
        self.buckets = grown;
        self.base = lo;
    }

    /// Absorb every observation of `other`. Panics if the two sketches
    /// were built with different geometry — mixed-resolution merges would
    /// silently degrade the error bound.
    pub fn merge(&mut self, other: &Sketch) {
        assert!(
            self.sub_bits == other.sub_bits
                && self.lo_exp == other.lo_exp
                && self.hi_exp == other.hi_exp,
            "sketch geometry mismatch: ({}, {}, {}) vs ({}, {}, {})",
            self.lo_exp,
            self.hi_exp,
            self.sub_bits,
            other.lo_exp,
            other.hi_exp,
            other.sub_bits
        );
        self.zero += other.zero;
        self.under += other.under;
        self.over += other.over;
        self.total += other.total;
        if other.buckets.is_empty() {
            return;
        }
        self.cover(other.base, other.base + other.buckets.len() as u32 - 1);
        let at = (other.base - self.base) as usize;
        for (mine, &n) in self.buckets[at..].iter_mut().zip(&other.buckets) {
            *mine += n;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact power of two `2^e` for `e` in normal-f64 range, built from
    /// bits so no libm rounding is involved.
    fn exp2_exact(e: i32) -> f64 {
        f64::from_bits(((e + 1023) as u64) << 52)
    }

    /// Upper edge of bucket `idx` — the reported quantile value for ranks
    /// landing there.
    fn bucket_upper_edge(&self, idx: u32) -> f64 {
        let subs = (1u32 << self.sub_bits) as f64;
        let exp = self.lo_exp + (idx >> self.sub_bits) as i32;
        let sub = idx & ((1 << self.sub_bits) - 1);
        Sketch::exp2_exact(exp) * (1.0 + (sub + 1) as f64 / subs)
    }

    /// `q`-quantile for `q` in `(0, 1]` by the same nearest-rank rule as
    /// [`Samples::quantile`], reported at the containing bucket's upper
    /// edge. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_clamped(q).map(|(v, _)| v)
    }

    /// [`Sketch::quantile`] plus a clamp flag: `true` means the rank
    /// landed in the overflow bucket, so the returned value
    /// (`2^(hi_exp+1)`, the top of the tracked range) is only a lower
    /// bound on the true quantile.
    pub fn quantile_clamped(&self, q: f64) -> Option<(f64, bool)> {
        assert!(q > 0.0 && q <= 1.0, "quantile requires 0 < q <= 1, got {q}");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = self.zero;
        if seen >= rank {
            return Some((0.0, false));
        }
        seen += self.under;
        if seen >= rank {
            // Below the tracked range: report its floor.
            return Some((Sketch::exp2_exact(self.lo_exp), false));
        }
        for (idx, &n) in (self.base..).zip(&self.buckets) {
            seen += n;
            if seen >= rank {
                return Some((self.bucket_upper_edge(idx), false));
            }
        }
        // Landed in the overflow bucket: clamp to the range ceiling.
        Some((Sketch::exp2_exact(self.hi_exp + 1), true))
    }

    /// Median; 0 when empty.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5).unwrap_or(0.0)
    }

    /// 99th percentile; 0 when empty.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99).unwrap_or(0.0)
    }

    /// 99.9th percentile; 0 when empty.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999).unwrap_or(0.0)
    }

    /// The documented relative-error bound: any in-range quantile `v`
    /// satisfies `exact ≤ v ≤ exact · (1 + relative_error())`.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.sub_bits) as f64
    }

    /// Fraction of observations above the tracked range. Any table
    /// printing a clamped quantile should surface this.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.over as f64 / self.total as f64
        }
    }

    /// Bytes held: the struct plus 8 B per held bucket slot. The geometry
    /// caps the slots at one per sub-bucket of every exponent in range, so
    /// memory stays bounded at any observation count.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Sketch>() + self.buckets.len() * 8
    }
}

/// Geometric mean of strictly positive values. Returns 0.0 for an empty
/// slice. A non-positive entry is a caller bug: a debug build panics on it,
/// and a release build clamps it to `f64::MIN_POSITIVE`.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut log_sum = 0.0;
    for &x in xs {
        debug_assert!(x > 0.0, "geomean requires positive values, got {x}");
        log_sum += x.max(f64::MIN_POSITIVE).ln();
    }
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn cv_measures_stability() {
        let mut stable = Summary::new();
        let mut jittery = Summary::new();
        for i in 0..100 {
            stable.add(100.0 + (i % 2) as f64); // ±0.5%
            jittery.add(100.0 + (i % 10) as f64 * 20.0); // large swings
        }
        assert!(stable.cv() < 0.01);
        assert!(jittery.cv() > 0.2);
    }

    #[test]
    fn samples_small_n_quantiles_are_exact_nearest_rank() {
        let mut s = Samples::new();
        for x in [15.0, 20.0, 35.0, 40.0, 50.0] {
            s.add(x);
        }
        // Nearest-rank on n=5: rank = ceil(q*5).
        assert_eq!(s.quantile(0.30), Some(20.0)); // rank 2
        assert_eq!(s.quantile(0.40), Some(20.0)); // rank 2
        assert_eq!(s.quantile(0.50), Some(35.0)); // rank 3
        assert_eq!(s.quantile(1.00), Some(50.0)); // rank 5 = max
        assert_eq!(s.p50(), 35.0);
        // Tail quantiles at small n resolve to the max, never interpolate.
        assert_eq!(s.p99(), 50.0);
        assert_eq!(s.p999(), 50.0);
    }

    #[test]
    fn samples_p999_picks_the_true_tail_at_large_n() {
        let mut s = Samples::new();
        // 0..10_000 in a scrambled insert order.
        for i in 0..10_000u64 {
            s.add((i.wrapping_mul(7919) % 10_000) as f64);
        }
        // rank = ceil(0.999 * 10_000) = 9990 → value 9989.
        assert_eq!(s.p999(), 9989.0);
        assert_eq!(s.p99(), 9899.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 9999.0);
    }

    #[test]
    fn samples_quantiles_are_monotone_in_q() {
        let mut s = Samples::new();
        for i in 0..997u64 {
            s.add((i.wrapping_mul(31) % 997) as f64);
        }
        let mut prev = f64::NEG_INFINITY;
        for k in 1..=100 {
            let v = s.quantile(k as f64 / 100.0).unwrap();
            assert!(v >= prev, "quantile must be monotone: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn samples_merge_order_does_not_matter_for_equality() {
        let (mut a, mut b) = (Samples::new(), Samples::new());
        let (mut x, mut y) = (Samples::new(), Samples::new());
        for v in [3.0, 1.0, 2.0] {
            x.add(v);
        }
        for v in [9.0, 4.0] {
            y.add(v);
        }
        a.merge(&x);
        a.merge(&y);
        b.merge(&y);
        b.merge(&x);
        assert_eq!(a, b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.quantile(1.0), b.quantile(1.0));
    }

    #[test]
    fn samples_empty_is_none_or_zero() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p999(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn samples_rejects_out_of_range_q() {
        let mut s = Samples::new();
        s.add(1.0);
        s.quantile(0.0);
    }

    #[test]
    fn sketch_quantiles_agree_with_exact_within_documented_bound() {
        let mut sk = Sketch::for_latency_us();
        let mut exact = Samples::new();
        // A scrambled heavy-tailed-ish workload spanning several octaves.
        for i in 0..50_000u64 {
            let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let x = 1.0 + (r as f64) / 64.0; // [1, ~262145)
            sk.add(x);
            exact.add(x);
        }
        let eps = sk.relative_error();
        assert_eq!(eps, 1.0 / 128.0);
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let e = exact.quantile(q).unwrap();
            let v = sk.quantile(q).unwrap();
            assert!(
                e <= v && v <= e * (1.0 + eps) * (1.0 + 1e-12),
                "q={q}: exact {e}, sketch {v}"
            );
        }
    }

    #[test]
    fn sketch_merge_is_exactly_order_insensitive() {
        let mk = |vals: &[f64]| {
            let mut s = Sketch::for_latency_us();
            for &v in vals {
                s.add(v);
            }
            s
        };
        let parts = [
            mk(&[1.5, 900.0, 0.002]),
            mk(&[7.25, 7.25, 1e9]),
            mk(&[0.0, 33.0]),
        ];
        let mut ab = parts[0].clone();
        ab.merge(&parts[1]);
        ab.merge(&parts[2]);
        let mut ba = parts[2].clone();
        ba.merge(&parts[0]);
        ba.merge(&parts[1]);
        // Bit-identical, not just quantile-close: PartialEq is exact.
        assert_eq!(ab, ba);
        let bulk = mk(&[1.5, 900.0, 0.002, 7.25, 7.25, 1e9, 0.0, 33.0]);
        assert_eq!(ab, bulk);
        assert_eq!(ab.count(), 8);
    }

    #[test]
    fn sketch_routes_zero_under_and_overflow() {
        let mut s = Sketch::new(0, 3, 2); // tracks [1, 16)
        s.add(0.0);
        s.add(-4.0);
        s.add(f64::NAN);
        s.add(0.25); // under
        s.add(2.0); // in range
        s.add(1e6); // over
        assert_eq!(s.count(), 6);
        // Ranks: 3 zero-ish, 1 under, 1 in-range, 1 over.
        assert_eq!(s.quantile_clamped(0.5), Some((0.0, false)));
        assert_eq!(s.quantile_clamped(4.0 / 6.0), Some((1.0, false))); // 2^lo_exp
        assert_eq!(s.quantile_clamped(1.0), Some((16.0, true))); // clamped
        assert!((s.overflow_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn sketch_memory_is_hard_capped() {
        let mut s = Sketch::for_latency_us();
        // One slot per sub-bucket of every exponent in range.
        let cap = ((s.hi_exp - s.lo_exp + 1) as usize) << s.sub_bits;
        assert_eq!(cap, 41 * 128);
        for i in 0..1_000_000u64 {
            s.add((i % 100_000) as f64 / 7.0 + 0.001);
        }
        assert_eq!(s.count(), 1_000_000);
        assert!(s.buckets.len() <= cap);
        assert!(s.bytes() <= std::mem::size_of::<Sketch>() + cap * 8);
    }

    #[test]
    fn sketch_empty_is_none_or_zero() {
        let s = Sketch::for_latency_us();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p999(), 0.0);
        assert_eq!(s.overflow_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn sketch_merge_rejects_mismatched_geometry() {
        let mut a = Sketch::new(-10, 30, 7);
        let b = Sketch::new(-10, 30, 6);
        a.merge(&b);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        // geomean(1, 4) = 2; geomean(2, 8) = 4.
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
