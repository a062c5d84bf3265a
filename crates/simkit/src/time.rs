//! Virtual time: instants ([`Time`]) and durations ([`Dur`]) with nanosecond
//! resolution backed by `u64` (enough for ~584 years of simulated time).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);

    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs an instant from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Constructs a span from raw nanoseconds.
    #[inline]
    pub const fn ns(ns: u64) -> Self {
        Dur(ns)
    }

    /// Constructs a span from microseconds.
    #[inline]
    pub const fn us(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Constructs a span from milliseconds.
    #[inline]
    pub const fn ms(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Constructs a span from whole seconds.
    #[inline]
    pub const fn secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Constructs a span from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            Dur((s * 1e9).round() as u64)
        } else {
            Dur(0)
        }
    }

    /// Constructs a span from fractional nanoseconds, rounding.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns.is_finite() && ns > 0.0 {
            Dur(ns.round() as u64)
        } else {
            Dur(0)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        self.since(rhs)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Dur(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Dur::us(3).as_ns(), 3_000);
        assert_eq!(Dur::ms(2).as_ns(), 2_000_000);
        assert_eq!(Dur::secs(1).as_ns(), 1_000_000_000);
        assert_eq!(Dur::from_secs_f64(1.5).as_ns(), 1_500_000_000);
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Dur::us(10);
        assert_eq!(t.as_ns(), 10_000);
        assert_eq!((t + Dur::ns(5)) - t, Dur::ns(5));
        // Subtraction saturates instead of panicking.
        assert_eq!(Time::ZERO - t, Dur::ZERO);
        assert_eq!(t.max(Time::ZERO), t);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Dur::ns(12)), "12ns");
        assert_eq!(format!("{}", Dur::us(12)), "12.000us");
        assert_eq!(format!("{}", Dur::ms(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::secs(12)), "12.000s");
    }
}
