//! Measurement collectors: log-linear latency histograms and
//! byte/operation counters with throughput helpers.
//!
//! The [`Histogram`] lives in `cam-telemetry` (the functional engine's
//! metrics registry records into the same implementation); it is re-exported
//! here unchanged.

use crate::time::Time;

pub use cam_telemetry::Histogram;

/// Byte/operation counter with throughput helpers for reporting.
#[derive(Clone, Copy, Default)]
pub struct Meter {
    /// Total bytes moved.
    pub bytes: u64,
    /// Total operations completed.
    pub ops: u64,
}

impl Meter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one operation of `bytes` size.
    pub fn add(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.ops += 1;
    }

    /// Throughput in GB/s over the window ending at `now` (starting at 0).
    pub fn gbps(&self, now: Time) -> f64 {
        let ns = now.as_ns();
        if ns == 0 {
            0.0
        } else {
            self.bytes as f64 / ns as f64
        }
    }

    /// Operation rate in K IOPS over the window ending at `now`.
    pub fn kiops(&self, now: Time) -> f64 {
        let s = now.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.ops as f64 / s / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_throughput() {
        let mut m = Meter::new();
        for _ in 0..1000 {
            m.add(4096);
        }
        // 4,096,000 bytes in 1 ms = 4.096 GB/s.
        let t = Time::from_ns(1_000_000);
        assert!((m.gbps(t) - 4.096).abs() < 1e-9);
        assert!((m.kiops(t) - 1_000_000.0 / 1e3).abs() < 1e-6);
        assert_eq!(Meter::new().gbps(Time::ZERO), 0.0);
    }
}
