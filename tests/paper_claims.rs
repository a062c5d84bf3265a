//! The reproduction of the paper's evaluation, gated in tier-1: every
//! figure of `cam_bench::figures::EXPERIMENTS` is run once, every claim
//! must hold on the printed cells, every bound must be as tight as the
//! paper's words, and `EXPERIMENTS.md` must be what `repro experiments`
//! prints.

use std::sync::OnceLock;

use cam_bench::figures::run_figures;
use cam_bench::paper::{experiments_md, Bound, Figure, Verdict};
use cam_bench::Table;

fn built() -> &'static [(&'static Figure, Vec<Table>)] {
    static BUILT: OnceLock<Vec<(&'static Figure, Vec<Table>)>> = OnceLock::new();
    BUILT.get_or_init(run_figures)
}

#[test]
fn every_claim_holds_on_a_cell_that_exists() {
    for (fig, tables) in built() {
        assert!(tables.iter().all(|t| !t.is_empty()), "{}: empty", fig.id);
        for claim in fig.claims {
            let what = format!("{} \"{}\"", fig.id, claim.paper);
            let reading = claim.read(tables).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(
                reading.holds,
                "{what}: {} outside {}",
                reading.shown, claim.bound
            );
        }
    }
}

/// The numbers a sentence states (`40-65%` states 40 and 65).
fn numbers_in(text: &str) -> Vec<f64> {
    text.split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .filter_map(|token| token.trim_end_matches('.').parse().ok())
        .collect()
}

/// For a two-sided bound, the value it is centred on: the paper's value.
fn centre(bound: Bound) -> Option<f64> {
    match (bound, bound.interval()?) {
        (Bound::Within(of, _), _) => Some(of),
        (_, (lo, hi)) => (lo.is_finite() && hi.is_finite()).then_some((lo + hi) / 2.0),
    }
}

#[test]
fn bounds_are_no_wider_than_the_paper() {
    for (fig, tables) in built() {
        for claim in fig.claims {
            let what = format!("{} \"{}\" [{}]", fig.id, claim.paper, claim.bound);
            // A reproduced range or value is the paper's own: its numbers
            // appear in the paper's words, not in a stretched copy of them.
            let stated = match claim.bound {
                Bound::Range(lo, hi) => vec![lo, hi],
                Bound::Within(of, _) => vec![of],
                Bound::Ratio(..) | Bound::Ordered(_) => vec![],
            };
            let reproduced = claim.verdict == Verdict::Reproduced;
            if reproduced {
                for n in stated.into_iter().filter(|n| n.is_finite()) {
                    assert!(
                        numbers_in(claim.paper).contains(&n),
                        "{what}: {n} is not the paper's"
                    );
                }
            }
            // Every other two-sided bound must reject its own measured
            // value moved by a tenth of the value it is centred on.
            let paper_states_the_range = reproduced && matches!(claim.bound, Bound::Range(..));
            let (Some(centre), false) = (centre(claim.bound), paper_states_the_range) else {
                continue;
            };
            let measured = claim.read(tables).unwrap().value.unwrap();
            for moved in [measured - 0.1 * centre, measured + 0.1 * centre] {
                assert!(!claim.bound.accepts(moved), "{what}: still accepts {moved}");
            }
        }
    }
}

#[test]
fn experiments_md_is_what_the_verb_prints() {
    let committed = include_str!("../EXPERIMENTS.md");
    let rendered = experiments_md(built());
    if let Some((n, (want, got))) =
        (rendered.lines().zip(committed.lines()).enumerate()).find(|(_, (a, b))| a != b)
    {
        panic!("EXPERIMENTS.md line {}:\n  committed: {got}\n  rendered:  {want}\nregenerate with `repro experiments > EXPERIMENTS.md`", n + 1);
    }
    assert_eq!(
        rendered.len(),
        committed.len(),
        "EXPERIMENTS.md differs in length from `repro experiments`"
    );
}
