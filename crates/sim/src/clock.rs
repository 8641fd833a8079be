//! Simulated time and clock domains.
//!
//! All simulators in this workspace share a single picosecond timeline so
//! that the 3.5 GHz CPU, the 1 GHz NPU and the PCIe link can be composed
//! without accumulating rounding error at domain crossings.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point on (or span of) the simulated timeline, in picoseconds.
///
/// `Time` is used both as an absolute timestamp and as a duration; the
/// arithmetic is identical and keeping one type avoids a conversion layer
/// in hot simulation loops.
///
/// # Example
///
/// ```
/// use tee_sim::Time;
/// let t = Time::from_ns(3) + Time::from_ps(500);
/// assert_eq!(t.as_ps(), 3_500);
/// assert!(t < Time::from_us(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The zero timestamp (simulation start).
    pub const ZERO: Time = Time(0);
    /// The farthest representable future; used as an "unscheduled" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Creates a time from (possibly fractional) seconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        Time((secs * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A fixed-frequency clock domain converting cycle counts to [`Time`].
///
/// # Example
///
/// ```
/// use tee_sim::ClockDomain;
/// let npu = ClockDomain::from_ghz(1.0);
/// assert_eq!(npu.cycles_to_time(40).as_ns_f64(), 40.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockDomain {
    /// Picoseconds per cycle.
    period_ps: f64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency: {ghz}");
        ClockDomain {
            period_ps: 1_000.0 / ghz,
        }
    }

    /// Converts a cycle count into simulated time (rounded to ps).
    #[inline]
    pub fn cycles_to_time(&self, cycles: u64) -> Time {
        Time::from_ps((cycles as f64 * self.period_ps).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_compose() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs_f64(1.5), Time::from_ms(1_500));
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn time_sum() {
        let total: Time = (1..=4).map(Time::from_ns).sum();
        assert_eq!(total, Time::from_ns(10));
    }

    #[test]
    fn time_display_picks_unit() {
        assert_eq!(Time::from_ps(12).to_string(), "12ps");
        assert_eq!(Time::from_ns(12).to_string(), "12.000ns");
        assert_eq!(Time::from_us(12).to_string(), "12.000us");
        assert_eq!(Time::from_ms(12).to_string(), "12.000ms");
        assert_eq!(Time::from_secs_f64(1.25).to_string(), "1.250s");
    }

    #[test]
    #[should_panic]
    fn zero_frequency_rejected() {
        let _ = ClockDomain::from_ghz(0.0);
    }

    #[test]
    #[should_panic]
    fn negative_duration_rejected() {
        let _ = Time::from_secs_f64(-1.0);
    }
}
