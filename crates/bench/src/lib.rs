//! # cam-bench — the evaluation harness
//!
//! [`figures`] lists every table/figure of the paper's evaluation (§ IV) as
//! a [`paper::Figure`]: a function returning [`Table`]s of the same
//! rows/series the paper reports, plus the paper's claims about them. The
//! `repro` binary prints them and gates the claims:
//!
//! ```text
//! cargo run -p cam-bench --release --bin repro -- all
//! cargo run -p cam-bench --release --bin repro -- fig8 fig9 tab6
//! ```
//!
//! `EXPERIMENTS.md` at the workspace root — paper vs. measured for every
//! entry — is `repro experiments`' output.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache_run;
pub mod calibrate;
pub mod fidelity_run;
pub mod figures;
pub mod health_run;
pub mod paper;
pub mod serving_run;
mod table;
pub mod telemetry_run;
pub mod trajectory_run;
pub mod watch;

pub use table::Table;

/// Counts meaningful lines of code (non-empty, not comment-only) — used by
/// Table VI's programmability comparison.
pub fn count_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && *l != "*/")
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counter_skips_blank_and_comments() {
        let src = "fn main() {\n\n// a comment\n    let x = 1; // trailing is fine\n}\n";
        assert_eq!(count_loc(src), 3);
    }
}
