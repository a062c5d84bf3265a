//! What one workload run hands back: operation counts, the correctness
//! verdict, and named metric values (units live in the catalogue).

#[derive(Default)]
pub struct Report {
    /// 4 KiB requests (or serving steps) the run issued.
    pub attempted: u64,
    /// Of those, the ones that failed or timed out.
    pub failed: u64,
    /// Output checks that did not pass; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-text facts worth printing next to the table (sample counts,
    /// per-repeat values).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::catalogue::unit_of(name).is_some(), "{name}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Records a failed output check; the run then reports `correct: false`
    /// and exits non-zero.
    pub fn problem(&mut self, text: String) {
        self.problems.push(text);
    }
}
