//! Fixed-width windowed roll-ups over *simulated* cycles.
//!
//! End-of-run aggregates say *that* a serving knee happened; a campaign
//! needs to see *when*. A [`TimeSeries`] chops the simulated clock into
//! fixed-width windows and rolls counters (sums), gauges (window maxima),
//! and quantile [`Sketch`]es up per window. Windows are indexed by the
//! *absolute* window number `cycles / width`, not by position in the run,
//! which buys two structural properties:
//!
//! - **Merge is canonical.** Two series over disjoint or overlapping shard
//!   slices merge window-by-window (counter add, gauge max, sketch merge),
//!   all order-insensitive — so merging per-shard series in canonical
//!   shard order is bit-identical at every shard count.
//! - **Concatenation is trivial.** A run split into `[0, t)` and `[t, end)`
//!   produces, merged, exactly the series of the whole-range run, because
//!   every observation lands in the same absolute window either way
//!   (provided the split point is window-aligned; an unaligned split
//!   shares its boundary window, and merge handles that too).
//!
//! Backing maps are `BTreeMap`s so iteration is window-index /
//! name-ordered — serialized series are a pure function of the
//! observations, never of insertion order.

use crate::stats::Sketch;
use crate::time::Cycles;
use std::collections::BTreeMap;

/// One window's roll-up: counter sums, gauge maxima, and sketches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Window {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    sketches: BTreeMap<&'static str, Sketch>,
}

impl Window {
    /// Counter total for `name` in this window (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge maximum observed in this window (`None` when never set).
    pub fn gauge_max(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The quantile sketch for `name`, if any observation landed here.
    pub fn sketch(&self, name: &str) -> Option<&Sketch> {
        self.sketches.get(name)
    }

    fn merge(&mut self, other: &Window) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.gauges {
            let g = self.gauges.entry(k).or_insert(0);
            *g = (*g).max(v);
        }
        for (&k, s) in &other.sketches {
            match self.sketches.get_mut(k) {
                Some(mine) => mine.merge(s),
                None => {
                    self.sketches.insert(k, s.clone());
                }
            }
        }
    }
}

/// A windowed time series over simulated cycles.
///
/// All mutators take the absolute cycle stamp of the observation; the
/// series derives the window as `at.0 / width.0`. Memory is bounded by
/// (windows elapsed) × (names used) × (sketch cap) — independent of the
/// observation count, which is what lets a million-invocation campaign
/// keep a full trajectory resident.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    width: Cycles,
    windows: BTreeMap<u64, Window>,
}

impl TimeSeries {
    /// An empty series with windows of `width` cycles.
    pub fn new(width: Cycles) -> TimeSeries {
        assert!(width.0 > 0, "window width must be positive");
        TimeSeries {
            width,
            windows: BTreeMap::new(),
        }
    }

    /// The configured window width.
    pub fn width(&self) -> Cycles {
        self.width
    }

    fn window_mut(&mut self, at: Cycles) -> &mut Window {
        self.windows.entry(at.0 / self.width.0).or_default()
    }

    /// Add `n` to counter `name` in the window containing `at`.
    pub fn add(&mut self, at: Cycles, name: &'static str, n: u64) {
        *self.window_mut(at).counters.entry(name).or_insert(0) += n;
    }

    /// Record gauge `name` at value `v`; the window keeps the maximum.
    pub fn gauge_max(&mut self, at: Cycles, name: &'static str, v: u64) {
        let g = self.window_mut(at).gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    /// Record one observation into sketch `name` in the window at `at`.
    /// Sketches are created lazily with [`Sketch::for_latency_us`]
    /// geometry so every window's sketch merges with every other's.
    pub fn observe(&mut self, at: Cycles, name: &'static str, x: f64) {
        self.window_mut(at)
            .sketches
            .entry(name)
            .or_insert_with(Sketch::for_latency_us)
            .add(x);
    }

    /// Absorb `other` window-by-window. Panics on width mismatch —
    /// realigned windows have no meaningful merge.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert!(
            self.width == other.width,
            "window width mismatch: {} vs {}",
            self.width.0,
            other.width.0
        );
        for (&idx, w) in &other.windows {
            match self.windows.get_mut(&idx) {
                Some(mine) => mine.merge(w),
                None => {
                    self.windows.insert(idx, w.clone());
                }
            }
        }
    }

    /// Number of windows that received at least one observation.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window has data.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Iterate `(window_index, window)` in ascending index order. A
    /// window's covered range is `[idx·width, (idx+1)·width)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Window)> + '_ {
        self.windows.iter().map(|(&idx, w)| (idx, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(c: u64) -> Cycles {
        Cycles(c)
    }

    #[test]
    fn observations_land_in_absolute_windows() {
        let mut ts = TimeSeries::new(Cycles(100));
        ts.add(at(5), "done", 1);
        ts.add(at(99), "done", 1);
        ts.add(at(100), "done", 1);
        ts.add(at(250), "done", 4);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.windows.get(&0).unwrap().counter("done"), 2);
        assert_eq!(ts.windows.get(&1).unwrap().counter("done"), 1);
        assert_eq!(ts.windows.get(&2).unwrap().counter("done"), 4);
        assert_eq!(ts.windows.get(&3), None);
    }

    #[test]
    fn gauges_keep_window_maxima() {
        let mut ts = TimeSeries::new(Cycles(10));
        ts.gauge_max(at(1), "queue", 3);
        ts.gauge_max(at(2), "queue", 7);
        ts.gauge_max(at(3), "queue", 5);
        assert_eq!(ts.windows.get(&0).unwrap().gauge_max("queue"), Some(7));
        assert_eq!(ts.windows.get(&0).unwrap().gauge_max("absent"), None);
    }

    #[test]
    fn split_range_concatenation_equals_whole_range() {
        let stamps: Vec<u64> = (0..500).map(|i| i * 7 % 1000).collect();
        let mut whole = TimeSeries::new(Cycles(100));
        let mut lo = TimeSeries::new(Cycles(100));
        let mut hi = TimeSeries::new(Cycles(100));
        for &s in &stamps {
            whole.add(at(s), "n", 1);
            whole.observe(at(s), "lat", s as f64 + 0.5);
            let part = if s < 470 { &mut lo } else { &mut hi };
            part.add(at(s), "n", 1);
            part.observe(at(s), "lat", s as f64 + 0.5);
        }
        // 470 is not window-aligned: window 4 is shared across the split.
        lo.merge(&hi);
        assert_eq!(lo, whole);
    }

    #[test]
    fn merge_is_order_insensitive_across_shards() {
        let mk = |shard: u64| {
            let mut ts = TimeSeries::new(Cycles(50));
            for i in 0..40 {
                let c = (i * 13 + shard * 31) % 200;
                ts.add(at(c), "done", 1);
                ts.gauge_max(at(c), "q", c % 9);
                ts.observe(at(c), "lat", c as f64 / 3.0 + 0.01);
            }
            ts
        };
        let (a, b, c) = (mk(0), mk(1), mk(2));
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_mismatched_widths() {
        let mut a = TimeSeries::new(Cycles(10));
        a.merge(&TimeSeries::new(Cycles(20)));
    }
}
