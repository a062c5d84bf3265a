//! [`Table`] — a minimal aligned-text table for the `repro` harness.

use std::fmt;

use cam_telemetry::json::{parse, Json};
use cam_telemetry::obj;

/// A titled table of string cells.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a footnote printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor for tests: `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// The printed cell in the row whose first column reads `row_label`,
    /// under the header `column`.
    pub fn find(&self, row_label: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        let row = self.rows.iter().find(|r| r[0] == row_label)?;
        Some(&row[col])
    }

    /// The footnotes, in print order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The table as `{"title", "headers", "rows": [[cell, …], …], "notes"}`
    /// — the printed text in JSON syntax. A cell that is exactly a decimal
    /// number is written as one; any other cell (`"15.71x"`, `"n/a"`,
    /// `"-"`) stays text.
    pub fn to_json(&self) -> Json {
        let cell = |c: &String| match parse(c) {
            Ok(n @ (Json::Int(_) | Json::Num(_))) => n,
            _ => Json::from(c.as_str()),
        };
        let strs = |v: &[String]| Json::arr(v.iter().map(String::as_str));
        obj! {
            "title" => self.title.as_str(),
            "headers" => strs(&self.headers),
            "rows" => Json::arr(self.rows.iter().map(|r| Json::arr(r.iter().map(cell)))),
            "notes" => strs(&self.notes),
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (w, c) in widths.iter().zip(cells) {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{c:<w$}", w = *w)?;
                first = false;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a float with 2 decimals (throughput, times).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22222".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("alpha"));
        assert!(s.contains("note: a note"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(1, 1), "22222");
        assert_eq!(t.find("b", "value"), Some("22222"));
        assert_eq!((t.find("c", "value"), t.find("b", "size")), (None, None));
    }

    #[test]
    fn json_is_the_printed_table_with_numeric_cells_typed() {
        let mut t = Table::new("Demo", &["name", "value"]);
        let cells = [
            "282.2",
            "-3",
            "15.71x",
            "3.85/3.85",
            "n/a",
            "-",
            "0x7",
            "true",
        ];
        for (i, c) in cells.iter().enumerate() {
            t.row(vec![format!("r{i}"), c.to_string()]);
        }
        t.note("a \"quoted\" note");
        let json = t.to_json();
        assert_eq!(json.get("title"), Some(&Json::from("Demo")));
        assert_eq!(json.get("headers"), Some(&Json::arr(["name", "value"])));
        let rows = json.get("rows").and_then(Json::as_arr).expect("rows");
        let values: Vec<&Json> = rows.iter().map(|r| &r.as_arr().unwrap()[1]).collect();
        assert_eq!(values[..2], [&Json::Num(282.2), &Json::Int(-3)]);
        for (v, text) in values[2..].iter().zip(&cells[2..]) {
            assert_eq!(**v, Json::from(*text));
        }
        assert_eq!(json.get("notes"), Some(&Json::arr(["a \"quoted\" note"])));
        assert_eq!(parse(&format!("{json:#}")), Ok(json));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
