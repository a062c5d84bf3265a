//! The benchmark's own spans (choosing-metrics §4): name, start, end, the
//! span that caused it, and the batch they belong to — recorded from the
//! benchmark's files around calls into each layer, kept in memory, written
//! out at exit, and reduced to self time per name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub batch: u64,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    /// Duration an empty span records (one clock read), subtracted from
    /// every span before reduction so a 100 ns call is not reported as 120.
    overhead_ns: u64,
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    pub self_ns: u64,
    pub calls: u64,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        let mut t = Tracer {
            base: Instant::now(),
            spans: Vec::with_capacity(spans.max(4096)),
            overhead_ns: 0,
        };
        for _ in 0..4096 {
            let s = t.begin("calibrate", None, 0);
            t.end(s);
        }
        let mut durs: Vec<u64> = t.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        t.overhead_ns = crate::stats::percentile(&mut durs, 0.5);
        t.spans.clear();
        t
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, batch: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        id
    }

    #[inline]
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    /// Self time per span name: each span's duration minus what its direct
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let dur = |s: &Span| (s.end_ns - s.start_ns).saturating_sub(self.overhead_ns);
        let mut own: Vec<u64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(dur(s));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.self_ns += own;
            e.calls += 1;
        }
        out
    }

    /// The spans of the first `max_batches` batch ids as a JSON array.
    pub fn to_json(&self, max_batches: u64) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if s.batch >= max_batches {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::with_capacity(8);
        t.overhead_ns = 0;
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch: 0,
        };
        t.spans.push(span("root", 0, 100, None));
        t.spans.push(span("child", 10, 30, Some(0)));
        t.spans.push(span("child", 40, 90, Some(0)));
        let st = t.self_times();
        assert_eq!(st["root"].self_ns, 30);
        assert_eq!(st["child"].self_ns, 70);
        assert_eq!(st["child"].calls, 2);
        assert!(t.to_json(1).contains("\"parent\":0"));
    }
}
