//! Label parity between the two expositions: every metric the registry
//! holds must appear in the JSON snapshot and the Prometheus text with the
//! *same* inline label set — scrapers and `BENCH_repro.json` readers see
//! one naming scheme, not two.

use cam_telemetry::{ControlMetrics, MetricsRegistry, TenantMetrics};

/// The JSON exposition quotes the full name (labels included), so the
/// inline `"` of the label set appear escaped.
fn json_key(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\\\""))
}

#[test]
fn every_metric_keeps_its_labels_in_both_expositions() {
    let reg = MetricsRegistry::new();
    let m = ControlMetrics::new(&reg, 2, 2, 2);
    m.inflight_peak[0].set(17);
    m.lane_health[1].set(2);
    m.slo_burn[0].set(1500);
    m.worker_park_ratio[1].set(990);
    let snap = reg.snapshot();
    let json = snap.to_json().to_string();
    let prom = snap.to_prometheus();
    for name in snap.counters.keys().chain(snap.gauges.keys()) {
        assert!(json.contains(&json_key(name)), "JSON lost {name}");
        let line = format!("\n{name} ");
        assert!(
            prom.contains(&line) || prom.starts_with(&line[1..]),
            "Prometheus lost {name}"
        );
    }
    // Histograms explode into _count/_sum/quantile series; parity here is
    // base-name + label-set, with extra labels merged, not appended twice.
    for name in snap.histograms.keys() {
        assert!(json.contains(&json_key(name)), "JSON lost {name}");
        let (base, labels) = match name.split_once('{') {
            Some((b, l)) => (b, l.trim_end_matches('}')),
            None => (name.as_str(), ""),
        };
        let count_line = if labels.is_empty() {
            format!("{base}_count ")
        } else {
            format!("{base}_count{{{labels}}} ")
        };
        assert!(prom.contains(&count_line), "Prometheus lost {name} count");
    }
    // The per-lane observability gauges specifically: one label scheme.
    for want in [
        "cam_inflight_peak{ssd=\"0\"}",
        "cam_inflight_peak{ssd=\"1\"}",
        "cam_lane_health{ssd=\"0\"}",
        "cam_lane_health{ssd=\"1\"}",
        "cam_slo_burn_rate{channel=\"0\"}",
        "cam_slo_burn_rate{channel=\"1\"}",
        "cam_worker_park_ratio{worker=\"0\"}",
        "cam_worker_park_ratio{worker=\"1\"}",
    ] {
        assert!(
            snap.gauges.contains_key(want),
            "gauge {want} not registered"
        );
    }
    assert!(prom.contains("cam_inflight_peak{ssd=\"0\"} 17\n"));
    assert!(prom.contains("cam_lane_health{ssd=\"1\"} 2\n"));
    assert!(prom.contains("cam_slo_burn_rate{channel=\"0\"} 1500\n"));
    assert!(prom.contains("cam_worker_park_ratio{worker=\"1\"} 990\n"));
    assert!(json.contains("\"cam_inflight_peak{ssd=\\\"0\\\"}\": 17"));
    assert!(json.contains("\"cam_worker_park_ratio{worker=\\\"1\\\"}\": 990"));
}

#[test]
fn tenant_labels_survive_both_expositions_beside_channel_labels() {
    let reg = MetricsRegistry::new();
    let control = ControlMetrics::new(&reg, 3, 1, 1);
    let tenants = TenantMetrics::new(&reg, 2);
    control.slo_burn[0].set(400);
    tenants.slo_burn[0].set(1200);
    tenants.slo_burn[1].set(80);
    tenants.latency_p99_ns[1].set(9_000_000);
    tenants.hit_rate_milli[0].set(850);
    tenants.admitted[0].add(12);
    tenants.throttled[1].add(3);
    tenants.completed[0].add(11);
    let snap = reg.snapshot();
    let json = snap.to_json().to_string();
    let prom = snap.to_prometheus();
    // The tenant dimension is a *new* label set on an *existing* family:
    // both series coexist under the one burn-rate name.
    for want in [
        "cam_slo_burn_rate{channel=\"0\"}",
        "cam_slo_burn_rate{tenant=\"0\"}",
        "cam_slo_burn_rate{tenant=\"1\"}",
        "cam_tenant_latency_p50_ns{tenant=\"0\"}",
        "cam_tenant_latency_p99_ns{tenant=\"1\"}",
        "cam_tenant_hit_rate_milli{tenant=\"0\"}",
    ] {
        assert!(
            snap.gauges.contains_key(want),
            "gauge {want} not registered"
        );
        assert!(json.contains(&json_key(want)), "JSON lost {want}");
        assert!(
            prom.contains(&format!("\n{want} ")),
            "Prometheus lost {want}"
        );
    }
    for want in [
        "cam_tenant_admitted_total{tenant=\"0\"}",
        "cam_tenant_throttled_total{tenant=\"1\"}",
        "cam_tenant_completed_total{tenant=\"0\"}",
    ] {
        assert!(snap.counters.contains_key(want), "counter {want} missing");
        assert!(json.contains(&json_key(want)), "JSON lost {want}");
        assert!(
            prom.contains(&format!("\n{want} ")),
            "Prometheus lost {want}"
        );
    }
    assert!(prom.contains("cam_slo_burn_rate{tenant=\"0\"} 1200\n"));
    assert!(prom.contains("cam_slo_burn_rate{channel=\"0\"} 400\n"));
    assert!(json.contains("\"cam_slo_burn_rate{tenant=\\\"1\\\"}\": 80"));
    assert!(json.contains("\"cam_tenant_admitted_total{tenant=\\\"0\\\"}\": 12"));
}
