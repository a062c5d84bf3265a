//! Every exact pin of virtual time against `bench/baselines/virtual_time.golden`:
//! the transcript of small fixed-seed DES runs and of the seeded perf
//! trajectories (`cam_bench::pins`), checked by `pins::differences` — the
//! check `repro bench`'s gate runs too. The DES is deterministic, so it is
//! equality, not a tolerance. Only the first test runs the whole
//! transcript; the others run the cases they check (`pins::case`). A deliberate model change regenerates the
//! file with `repro bench --update-baselines`, and the review reads its
//! diff.

use cam_bench::pins::{case, differences, transcript, TRANSCRIPT_FILE};
use cam_bench::trajectory_run::BASELINES_DIR;

fn committed() -> String {
    let path = format!("{BASELINES_DIR}/{TRANSCRIPT_FILE}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The committed `== trajectory` cases: the transcript's tail.
fn committed_trajectories() -> String {
    let mut text = committed();
    text.split_off(text.find("== trajectory ").expect("trajectory cases"))
}

#[test]
fn the_des_runs_reproduce_the_committed_transcript() {
    if let Some(diff) = differences(&transcript(), &committed()) {
        panic!(
            "{TRANSCRIPT_FILE} differs; after a deliberate model change regenerate it \
             with 'repro bench --update-baselines' and review the diff:\n{diff}"
        );
    }
}

#[test]
fn the_default_trajectories_are_the_committed_baselines() {
    let got = case("trajectory uncached") + &case("trajectory cached");
    if let Some(diff) = differences(&got, &committed_trajectories()) {
        panic!("the trajectory cases of {TRANSCRIPT_FILE} are stale:\n{diff}");
    }
}

/// The committed trajectories attribute every nanosecond once: in each
/// `== trajectory` case the five `component` lines sum to the recorded
/// doorbell→retire total.
#[test]
fn committed_baseline_components_sum_to_doorbell_to_retire() {
    let text = committed_trajectories();
    let cases: Vec<&str> = text.split("== trajectory ").skip(1).collect();
    assert_eq!(cases.len(), 2, "an uncached and a cached case");
    // The last word of a `batches` or `component` line is its nanoseconds.
    let ns = |line: &str| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
    for case in cases {
        let lines = || case.lines();
        let total = lines().find(|l| l.starts_with("batches ")).map(ns);
        let components: Vec<u64> = lines()
            .filter(|l| l.starts_with("component "))
            .map(ns)
            .collect();
        assert_eq!(components.len(), 5, "{case}");
        assert_eq!(Some(components.iter().sum::<u64>()), total, "{case}");
    }
}
