//! The paper's evaluation as data: a [`Figure`] is a function that builds
//! its tables plus the [`Claim`]s the paper makes about them. One generic
//! path renders a figure, judges every claim against the **printed** cells
//! (what the reader sees is what is gated) and renders `EXPERIMENTS.md`
//! ([`experiments_md`]), so a claim is stated once — in the `Figure` list
//! of [`crate::figures`] — and the note under the table, the acceptance bar
//! and the comparison document all derive from it.

use std::fmt;

use crate::table::Table;

/// A printed cell: `(table index within the figure, row label — the text
/// of the row's first column —, column header)`.
pub type Cell = (usize, &'static str, &'static str);

/// What a cell must satisfy. A closed vocabulary without closures, so a
/// bound prints in `EXPERIMENTS.md` exactly as it is gated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// `lo ..= hi`; an infinite end leaves that side open. On a
    /// [`Verdict::Reproduced`] claim these are the paper's own numbers.
    Range(f64, f64),
    /// `Within(of, rel)`: the paper states the value `of`, and the cell
    /// lies within `±rel` of it.
    Within(f64, f64),
    /// `Ratio(to, lo, hi)`: the cell divided by the cell `to` lies in
    /// `lo ..= hi`.
    Ratio(Cell, f64, f64),
    /// The cell, then each of these in turn, strictly increasing.
    Ordered(&'static [Cell]),
}

impl Bound {
    /// The closed interval the judged number (the cell, or the ratio) must
    /// lie in; `None` for [`Bound::Ordered`].
    pub fn interval(&self) -> Option<(f64, f64)> {
        match *self {
            Bound::Range(lo, hi) | Bound::Ratio(_, lo, hi) => Some((lo, hi)),
            Bound::Within(of, rel) => Some((of - rel * of.abs(), of + rel * of.abs())),
            Bound::Ordered(_) => None,
        }
    }

    /// Whether the judged number `x` satisfies an interval bound.
    pub fn accepts(&self, x: f64) -> bool {
        self.interval().is_some_and(|(lo, hi)| lo <= x && x <= hi)
    }
}

fn cell_label((table, row, col): Cell) -> String {
    match table {
        0 => format!("{row} · {col}"),
        t => format!("{row} · {col} (table {})", t + 1),
    }
}

fn interval_text(lo: f64, hi: f64) -> String {
    match (lo.is_finite(), hi.is_finite()) {
        (true, false) => format!("≥ {lo}"),
        (false, true) => format!("≤ {hi}"),
        _ => format!("{lo} ..= {hi}"),
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::Range(lo, hi) => f.write_str(&interval_text(lo, hi)),
            Bound::Within(of, rel) => write!(f, "{of} ± {}%", rel * 100.0),
            Bound::Ratio(to, lo, hi) => {
                write!(f, "÷ `{}` {}", cell_label(to), interval_text(lo, hi))
            }
            Bound::Ordered(rest) => {
                let cells: Vec<String> = rest.iter().map(|&c| cell_label(c)).collect();
                write!(f, "< `{}`", cells.join("` < `"))
            }
        }
    }
}

/// Whether the reproduction matches the paper on a claim.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// The cell satisfies the paper's claim; the bound is the paper's.
    Reproduced,
    /// A known deviation and why; the bound pins where the reproduction
    /// sits instead, so the deviation cannot silently grow or vanish.
    Deviation(&'static str),
}

/// One sentence of the paper, the printed cell it is about, and the bound
/// that cell is held to.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// The paper's words or range.
    pub paper: &'static str,
    /// The cell judged.
    pub cell: Cell,
    /// What it must satisfy.
    pub bound: Bound,
    /// Reproduced, or a known deviation.
    pub verdict: Verdict,
}

/// A claim read off a figure's printed tables.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// The cell text — with the ratio or the ordered chain spelled out —
    /// as `EXPERIMENTS.md` and a failed bar show it.
    pub shown: String,
    /// The number an interval bound judges; `None` for [`Bound::Ordered`].
    pub value: Option<f64>,
    /// Whether the bound holds.
    pub holds: bool,
}

/// The number a printed cell leads with (`65.3%`, `1.82x`, `56.9 GB`).
fn number(text: &str) -> Option<f64> {
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

fn lookup(tables: &[Table], cell: Cell) -> Result<(&str, f64), String> {
    let text = tables
        .get(cell.0)
        .and_then(|t| t.find(cell.1, cell.2))
        .ok_or_else(|| format!("no cell `{}`", cell_label(cell)))?;
    let n = number(text)
        .ok_or_else(|| format!("cell `{}` = {text:?} is not a number", cell_label(cell)))?;
    Ok((text, n))
}

impl Claim {
    /// Reads the claim off `tables`; `Err` when it addresses a cell that
    /// is missing or does not print a number.
    pub fn read(&self, tables: &[Table]) -> Result<Reading, String> {
        let (text, x) = lookup(tables, self.cell)?;
        Ok(match self.bound {
            Bound::Range(..) | Bound::Within(..) => Reading {
                shown: text.to_string(),
                value: Some(x),
                holds: self.bound.accepts(x),
            },
            Bound::Ratio(to, ..) => {
                let (den_text, den) = lookup(tables, to)?;
                let ratio = x / den;
                Reading {
                    shown: format!("{text} ÷ {den_text} = {ratio:.3}"),
                    value: Some(ratio),
                    holds: self.bound.accepts(ratio),
                }
            }
            Bound::Ordered(rest) => {
                let (mut shown, mut prev, mut holds) = (text.to_string(), x, true);
                for &cell in rest {
                    let (text, next) = lookup(tables, cell)?;
                    holds &= prev < next;
                    shown += &format!(" < {text}");
                    prev = next;
                }
                Reading {
                    shown,
                    value: None,
                    holds,
                }
            }
        })
    }
}

/// One table or figure of the paper's evaluation.
pub struct Figure {
    /// The `repro` verb.
    pub id: &'static str,
    /// One line for `repro list`.
    pub desc: &'static str,
    /// The paper's label (`Fig. 8`, `Table VI`).
    pub heading: &'static str,
    /// Builds the tables. No parameter: a paper figure reads no flag.
    pub build: fn() -> Vec<Table>,
    /// What the paper says about them.
    pub claims: &'static [Claim],
    /// Prose for `EXPERIMENTS.md` that is not a claim; states no measured
    /// value.
    pub commentary: &'static str,
}

impl Figure {
    /// Builds the tables, notes each claim's paper text under the table it
    /// addresses, and judges every claim against the printed cells.
    /// Returns the tables and one line per failed claim.
    pub fn run(&self) -> (Vec<Table>, Vec<String>) {
        let mut tables = (self.build)();
        let mut failures = Vec::new();
        for claim in self.claims {
            let what = match claim.read(&tables) {
                Ok(r) if r.holds => None,
                Ok(r) => Some(format!("= {}, outside {}", r.shown, claim.bound)),
                Err(e) => Some(e),
            };
            if let Some(what) = what {
                failures.push(format!(
                    "{} claim \"{}\": `{}` {what}",
                    self.heading,
                    claim.paper,
                    cell_label(claim.cell)
                ));
            }
            if let Some(t) = tables.get_mut(claim.cell.0) {
                let note = format!("paper: {}", claim.paper);
                if !t.notes().contains(&note) {
                    t.note(note);
                }
            }
        }
        (tables, failures)
    }
}

const PREAMBLE: &str = "\
# EXPERIMENTS — paper vs. measured

<!-- Generated by `repro experiments`; a test fails when this file is not
what the verb prints. Edit the `Figure` list in crates/bench/src/figures.rs,
then `cargo run -p cam-bench --release --bin repro -- experiments > EXPERIMENTS.md`. -->

Every table and figure of the paper's evaluation (§ II, § IV), one section
per `repro` verb: the paper's claims beside the printed cell each one is
judged on and the bound it is held to, then the verb's raw output.
`repro all --check` exits 1 when any cell is outside its bound. The
reproduction runs on simulated hardware calibrated to the paper's own
numbers, so the claims are **shapes and ratios** (who wins, by what factor,
where crossovers fall), not absolute testbed times.

Legend: ✅ reproduced within the paper's bound · ⚠ known deviation, held to
its own bound (listed again at the end) · ❌ outside its bound (the gate is
red).
";

const CALIBRATION: &str = "\
## Calibration inputs (all from the paper or the P5510 datasheet)

15 µs / 82 µs random read/write latency; ~1.75 / ~0.68 GB/s per-SSD 4 KiB
read/write (×12 ≈ 21 / 8 GB/s); 21 GB/s measured PCIe ceiling (of 32
theoretical); 108 SMs / 2048 threads per SM; BaM's 262 144-thread,
64-thread-block benchmark configuration; GIDS' 15-of-20 GB/s achieved
bandwidth; GDS' 0.8 GB/s; \"2 SSDs/thread free, 4 SSDs/thread ≈ 75%\";
2×26-core Xeon Gold 5320 @ 2.2 GHz with 16 DDR4-3200 channels.
";

/// `EXPERIMENTS.md`, rendered from figures already [run](Figure::run):
/// per figure a claim table and the raw tables, then the known deviations
/// collected from the `⚠` claims.
pub fn experiments_md(built: &[(&Figure, Vec<Table>)]) -> String {
    let mut md = String::from(PREAMBLE);
    // One entry per (figure, paper sentence, reason): the cells deviating.
    let mut deviations: Vec<(String, Vec<String>, &str)> = Vec::new();
    for (fig, tables) in built {
        let mut rows = String::new();
        let mut marks = Vec::new();
        for claim in fig.claims {
            let reading = claim.read(tables);
            let shown = match &reading {
                Ok(r) => r.shown.clone(),
                Err(e) => e.clone(),
            };
            let measured = format!("`{}` = {shown}", cell_label(claim.cell));
            let (paper, bound) = (claim.paper, claim.bound);
            let mark = match (reading.is_ok_and(|r| r.holds), claim.verdict) {
                (false, _) => "❌",
                (true, Verdict::Reproduced) => "✅",
                (true, Verdict::Deviation(why)) => {
                    let about = format!("**{}**, paper: \"{paper}\"", fig.heading);
                    if deviations
                        .last()
                        .is_none_or(|d| (&d.0, d.2) != (&about, why))
                    {
                        deviations.push((about, Vec::new(), why));
                    }
                    let cells = &mut deviations.last_mut().expect("just pushed").1;
                    cells.push(format!("{measured} (held to {bound})"));
                    "⚠"
                }
            };
            if !marks.contains(&mark) {
                marks.push(mark);
            }
            rows += &format!("| {paper} | {measured} | {bound} | {mark} |\n");
        }
        md += &format!(
            "
## {} — {} (`repro {}`)",
            fig.heading, fig.desc, fig.id
        );
        if !marks.is_empty() {
            md.push(' ');
            md += &marks.join("/");
        }
        md += "\n\n";
        if !rows.is_empty() {
            md += "| paper claim | measured cell | bound | |\n|---|---|---|---|\n";
            md += &rows;
            md.push('\n');
        }
        if !fig.commentary.is_empty() {
            md += fig.commentary;
            md += "\n\n";
        }
        md += "```text\n";
        let raw: Vec<String> = tables.iter().map(Table::to_string).collect();
        md += &raw.join("\n");
        md += "```\n";
    }
    md += "\n## Known deviations\n\n";
    for (i, (about, cells, why)) in deviations.iter().enumerate() {
        md += &format!("{}. {about} — {}: {why}.\n", i + 1, cells.join("; "));
    }
    md.push('\n');
    md += CALIBRATION;
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Vec<Table> {
        let mut t = Table::new("Demo", &["size", "SPDK", "CAM"]);
        t.row(vec!["4 KB".into(), "1.30".into(), "20.71".into()]);
        t.row(vec!["1 MB".into(), "n/a".into(), "20.80".into()]);
        vec![t]
    }

    fn claim(cell: Cell, bound: Bound) -> Claim {
        Claim {
            paper: "the staged path delivers 1.3 GB/s",
            cell,
            bound,
            verdict: Verdict::Reproduced,
        }
    }

    #[test]
    fn every_bound_reads_the_printed_cell() {
        let t = demo();
        let spdk = (0, "4 KB", "SPDK");
        let within = Bound::Within(1.3, 0.05);
        let r = claim(spdk, within).read(&t).unwrap();
        assert_eq!(
            (r.shown.as_str(), r.value, r.holds),
            ("1.30", Some(1.3), true)
        );
        assert!(!within.accepts(1.1) && !within.accepts(1.4));
        assert!(
            !claim(spdk, Bound::Range(2.0, f64::INFINITY))
                .read(&t)
                .unwrap()
                .holds
        );
        let ratio = Bound::Ratio((0, "4 KB", "CAM"), 0.061, 0.069);
        let r = claim(spdk, ratio).read(&t).unwrap();
        assert_eq!(r.shown, "1.30 ÷ 20.71 = 0.063");
        assert!(r.holds);
        let up: &[Cell] = &[(0, "4 KB", "CAM"), (0, "1 MB", "CAM")];
        let r = claim(spdk, Bound::Ordered(up)).read(&t).unwrap();
        assert_eq!((r.shown.as_str(), r.holds), ("1.30 < 20.71 < 20.80", true));
        let down: &[Cell] = &[(0, "1 MB", "CAM"), (0, "4 KB", "CAM")];
        assert!(!claim(spdk, Bound::Ordered(down)).read(&t).unwrap().holds);
    }

    #[test]
    fn a_missing_or_wordy_cell_is_an_error_not_a_pass() {
        let t = demo();
        let any = Bound::Range(f64::NEG_INFINITY, f64::INFINITY);
        for cell in [(0, "2 MB", "CAM"), (0, "4 KB", "BaM"), (1, "4 KB", "CAM")] {
            assert!(claim(cell, any)
                .read(&t)
                .unwrap_err()
                .starts_with("no cell"));
        }
        let err = claim((0, "1 MB", "SPDK"), any).read(&t).unwrap_err();
        assert!(err.contains("is not a number"), "{err}");
    }

    #[test]
    fn a_failed_claim_names_figure_claim_cell_and_bound() {
        static CLAIMS: &[Claim] = &[Claim {
            paper: "the staged path delivers 1.3 GB/s",
            cell: (0, "4 KB", "SPDK"),
            bound: Bound::Within(1.5, 0.05),
            verdict: Verdict::Reproduced,
        }];
        let fig = Figure {
            id: "demo",
            desc: "demo",
            heading: "Fig. 0",
            build: demo,
            claims: CLAIMS,
            commentary: "",
        };
        let (tables, failures) = fig.run();
        assert_eq!(
            failures,
            ["Fig. 0 claim \"the staged path delivers 1.3 GB/s\": `4 KB · SPDK` = 1.30, outside 1.5 ± 5%"]
        );
        assert_eq!(
            tables[0].notes(),
            ["paper: the staged path delivers 1.3 GB/s"]
        );
        let md = experiments_md(&[(&fig, tables)]);
        assert!(
            md.contains("| `4 KB · SPDK` = 1.30 | 1.5 ± 5% | ❌ |"),
            "{md}"
        );
    }
}
