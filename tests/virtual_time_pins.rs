//! Every exact pin of virtual time against the files under
//! `bench/baselines/`: the transcript of small fixed-seed DES runs
//! (`cam_bench::pins`) and the seeded perf trajectories (uncached and
//! cached) the `bench` gate compares. The DES is deterministic, so each is
//! equality, not a tolerance. A deliberate model change regenerates all
//! three files with `repro bench --update-baselines`, and the review reads
//! their diff.

use cam_bench::pins::{transcript, TRANSCRIPT_FILE};
use cam_bench::trajectory_run::{
    baseline_json, parse_baseline, run_cached_trajectory, run_trajectory, TrialParams,
    BASELINES_DIR, BASELINE_FILE, CACHED_BASELINE_FILE,
};

fn committed(file: &str) -> String {
    let path = format!("{BASELINES_DIR}/{file}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The first line where `got` and `want` differ — a missing or an extra
/// line included — under the `== <case>` header it falls in; `None` when
/// every line is equal.
fn first_difference(got: &str, want: &str) -> Option<String> {
    let (mut got, mut want, mut case) = (got.lines(), want.lines(), "(none)");
    for n in 1.. {
        let (g, w) = (got.next(), want.next());
        if g != w {
            return Some(format!(
                "case '{case}', line {n}: this tree {g:?}, committed {w:?}"
            ));
        }
        case = g?.strip_prefix("== ").unwrap_or(case);
    }
    unreachable!()
}

#[test]
fn the_des_runs_reproduce_the_committed_transcript() {
    let (got, want) = (transcript(), committed(TRANSCRIPT_FILE));
    if let Some(diff) = first_difference(&got, &want) {
        panic!(
            "{TRANSCRIPT_FILE} differs at {diff}; after a deliberate model change \
             regenerate it with 'repro bench --update-baselines' and review the diff"
        );
    }
    assert!(got == want, "{TRANSCRIPT_FILE} differs in line endings");
}

#[test]
fn the_default_trajectories_are_the_committed_baselines() {
    type Run = fn(&TrialParams) -> cam_bench::trajectory_run::Trajectory;
    for (file, run) in [
        (BASELINE_FILE, run_trajectory as Run),
        (CACHED_BASELINE_FILE, run_cached_trajectory),
    ] {
        let text = committed(file);
        let baseline = parse_baseline(&text).expect("committed baseline parses");
        let current = run(&TrialParams::default());
        assert_eq!(current, baseline, "{file} is stale");
        assert_eq!(text, format!("{:#}", baseline_json(&current)), "{file}");
    }
}

/// The committed baselines attribute every nanosecond once: the five
/// queue-delay components sum to the recorded doorbell→retire total.
#[test]
fn committed_baseline_components_sum_to_doorbell_to_retire() {
    for file in [BASELINE_FILE, CACHED_BASELINE_FILE] {
        let t = parse_baseline(&committed(file)).expect("committed baseline parses");
        assert_eq!(t.component_ns.iter().sum::<u64>(), t.total_ns, "{file}");
    }
}
