//! Measurement collectors: the log-linear latency [`Histogram`].
//!
//! It lives in `cam-telemetry` (the functional engine's metrics registry
//! records into the same implementation) and is re-exported here unchanged.

pub use cam_telemetry::Histogram;
