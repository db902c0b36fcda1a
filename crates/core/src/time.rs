//! Simulated time.
//!
//! All simulators in the workspace account time in *cycles* of a fixed-
//! frequency core clock. The paper's figures mix units (cycles for context
//! switches in Fig. 4, microseconds for heartbeat periods in Fig. 3 and
//! virtine start-up in §IV-D), so this module provides lossless conversion
//! through a [`Freq`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant measured in core clock cycles.
///
/// `Cycles` is the universal unit of simulated time. It is a thin wrapper
/// over `u64` with saturating subtraction (durations cannot go negative) and
/// checked-at-debug addition.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw cycle count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// This duration as an `f64` cycle count (for statistics).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// Saturating by design: simulated durations never go negative.
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Cycles {
    #[inline]
    fn from(v: u64) -> Cycles {
        Cycles(v)
    }
}

/// A duration in microseconds (used where the paper reports µs: heartbeat
/// periods, virtine start-up latency).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct MicroSeconds(pub f64);

impl MicroSeconds {
    /// The raw value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for MicroSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} µs", self.0)
    }
}

/// A core clock frequency.
///
/// Converts between [`Cycles`] and wall-clock time. The platforms the paper
/// evaluates on run at 1.3–1.5 GHz (Xeon Phi KNL) and 3.3 GHz (dual-socket
/// Xeon, Fig. 7 caption).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Freq {
    /// Frequency in megahertz. A `u64` MHz count keeps conversions exact for
    /// the whole-MHz frequencies used by every preset.
    pub mhz: u64,
}

impl Freq {
    /// Construct from GHz (e.g., `Freq::ghz(1.4)` for KNL).
    pub(crate) fn ghz(g: f64) -> Freq {
        Freq {
            mhz: (g * 1000.0).round() as u64,
        }
    }

    /// Cycles elapsed in `us` microseconds at this frequency.
    #[inline]
    pub fn cycles_per_us(self, us: f64) -> Cycles {
        Cycles((us * self.mhz as f64).round() as u64)
    }

    /// Convert a cycle count to microseconds at this frequency.
    #[inline]
    pub fn us(self, c: Cycles) -> MicroSeconds {
        MicroSeconds(c.0 as f64 / self.mhz as f64)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mhz.is_multiple_of(1000) {
            write!(f, "{} GHz", self.mhz / 1000)
        } else {
            write!(f, "{:.1} GHz", self.mhz as f64 / 1000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles(100);
        let b = Cycles(40);
        assert_eq!(a + b, Cycles(140));
        assert_eq!(a - b, Cycles(60));
        // Subtraction saturates.
        assert_eq!(b - a, Cycles(0));
        assert_eq!(a * 3, Cycles(300));
        assert_eq!(a / 4, Cycles(25));
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn freq_conversion_roundtrip() {
        let f = Freq::ghz(1.4);
        assert_eq!(f.mhz, 1400);
        // 20 µs at 1.4 GHz = 28,000 cycles (the paper's smallest heartbeat).
        let c = f.cycles_per_us(20.0);
        assert_eq!(c, Cycles(28_000));
        let back = f.us(c);
        assert!((back.get() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn freq_display() {
        assert_eq!(Freq::ghz(3.0).to_string(), "3 GHz");
        assert_eq!(Freq::ghz(3.3).to_string(), "3.3 GHz");
    }

    #[test]
    fn min_max() {
        assert_eq!(Cycles(3).min(Cycles(5)), Cycles(3));
        assert_eq!(Cycles(3).max(Cycles(5)), Cycles(5));
    }
}
