//! [`CacheMetrics`] — the pre-registered cache metric bundle, following the
//! same handle-up-front discipline as `cam_telemetry::ControlMetrics`.

use cam_telemetry::{Counter, Gauge, MetricsRegistry};

/// Every metric the cache layer maintains, resolved to registry handles.
///
/// | metric | kind |
/// |---|---|
/// | `cam_cache_hits_total` | counter |
/// | `cam_cache_misses_total` | counter |
/// | `cam_cache_coalesced_total` | counter |
/// | `cam_cache_evictions_total` | counter |
/// | `cam_cache_write_absorbed_total` | counter |
/// | `cam_cache_flushed_blocks_total` | counter |
/// | `cam_cache_readahead_issued_total` | counter |
/// | `cam_cache_readahead_hits_total` | counter |
/// | `cam_cache_slots` | gauge |
pub struct CacheMetrics {
    /// Demand accesses served from a resident slot.
    pub hits: Counter,
    /// Demand accesses that required an NVMe fill.
    pub misses: Counter,
    /// Demand misses absorbed by an already in-flight fill for the same LBA.
    pub coalesced: Counter,
    /// Resident slots reclaimed by the CLOCK hand.
    pub evictions: Counter,
    /// `write_back` blocks absorbed into dirty slots (no immediate SSD I/O).
    pub write_absorbed: Counter,
    /// Dirty blocks written to the array by flushes.
    pub flushed_blocks: Counter,
    /// Speculative blocks issued by the readahead engine.
    pub readahead_issued: Counter,
    /// Speculative blocks that later served a demand access.
    pub readahead_hits: Counter,
    /// Configured cache capacity in blocks.
    pub slots: Gauge,
}

impl CacheMetrics {
    /// Registers (or re-attaches to) every cache metric in `reg`.
    pub fn new(reg: &MetricsRegistry) -> Self {
        CacheMetrics {
            hits: reg.counter("cam_cache_hits_total"),
            misses: reg.counter("cam_cache_misses_total"),
            coalesced: reg.counter("cam_cache_coalesced_total"),
            evictions: reg.counter("cam_cache_evictions_total"),
            write_absorbed: reg.counter("cam_cache_write_absorbed_total"),
            flushed_blocks: reg.counter("cam_cache_flushed_blocks_total"),
            readahead_issued: reg.counter("cam_cache_readahead_issued_total"),
            readahead_hits: reg.counter("cam_cache_readahead_hits_total"),
            slots: reg.gauge("cam_cache_slots"),
        }
    }

    /// Hit fraction over all demand accesses so far (hits + misses +
    /// coalesced). `None` before the first access — 0.0 would read as "all
    /// misses".
    pub fn hit_rate(&self) -> Option<f64> {
        let h = self.hits.get();
        let total = h + self.misses.get() + self.coalesced.get();
        (total > 0).then(|| h as f64 / total as f64)
    }

    /// Fraction of speculative blocks that served a demand access. `None`
    /// until readahead has issued something.
    pub fn readahead_accuracy(&self) -> Option<f64> {
        let issued = self.readahead_issued.get();
        (issued > 0).then(|| self.readahead_hits.get() as f64 / issued as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_none_until_observed() {
        let reg = MetricsRegistry::new();
        let m = CacheMetrics::new(&reg);
        assert_eq!(m.hit_rate(), None);
        assert_eq!(m.readahead_accuracy(), None);
        m.hits.add(3);
        m.misses.add(1);
        assert_eq!(m.hit_rate(), Some(0.75));
        m.readahead_issued.add(4);
        m.readahead_hits.add(1);
        assert_eq!(m.readahead_accuracy(), Some(0.25));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cam_cache_hits_total"), 3);
        assert_eq!(snap.counter("cam_cache_misses_total"), 1);
    }
}
