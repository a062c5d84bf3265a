//! The committed DES perf baselines attribute every nanosecond once: the
//! five queue-delay components sum to the recorded doorbell→retire total.

use cam_bench::trajectory_run::{cached_baseline_path, parse_baseline, BASELINE_PATH};

#[test]
fn committed_baseline_components_sum_to_doorbell_to_retire() {
    let uncached = format!("{}/{BASELINE_PATH}", env!("CARGO_MANIFEST_DIR"));
    for path in [cached_baseline_path(&uncached), uncached] {
        let text = std::fs::read_to_string(&path).expect("committed baseline");
        let t = parse_baseline(&text).expect("committed baseline parses");
        assert_eq!(t.component_ns.iter().sum::<u64>(), t.total_ns, "{path}");
    }
}
