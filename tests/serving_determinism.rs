//! The serving plane's virtual-time pin, one test per policy: the
//! `== serving <policy>` case of the virtual-time transcript,
//! `cam_bench::pins::case` (the seeded `run_serving_des`'s substrate
//! report, serving stats and per-tenant figures), equals that section of
//! the committed transcript. A
//! deliberate policy change rewrites the file with
//! `repro bench --update-baselines`.

use cam_bench::pins::{self, TRANSCRIPT_FILE};
use cam_bench::trajectory_run::BASELINES_DIR;

/// The lines under the `== <case>` header, the header included.
fn section<'a>(text: &'a str, case: &str) -> Vec<&'a str> {
    let header = format!("== {case}");
    let mut lines = text.lines().skip_while(|l| *l != header);
    let head = lines.next().into_iter();
    head.chain(lines.take_while(|l| !l.starts_with("== ")))
        .collect()
}

fn assert_section_is_committed(case: &str) {
    let path = format!("{BASELINES_DIR}/{TRANSCRIPT_FILE}");
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let want = section(&committed, case);
    assert!(want.len() > 1, "{path} has no '== {case}' section");
    let got = pins::case(case);
    assert_eq!(section(&got, case), want, "'== {case}' of {path}");
}

#[test]
fn drr_run_matches_the_golden_virtual_time_outcome() {
    assert_section_is_committed("serving Drr");
}

#[test]
fn fifo_run_matches_the_golden_virtual_time_outcome() {
    assert_section_is_committed("serving Fifo");
}
