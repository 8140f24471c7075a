//! Harness-side spans: one record around every call the benchmark makes
//! into a layer, kept in memory and written out at exit.
//!
//! Spans inside the program are ROADMAP item 1; these sit in the benchmark's
//! own files, at the layer boundaries it can see from outside.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused this one;
/// spans of one op share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An append-only span list with a shared time origin.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// A log for another thread that shares this log's time origin; fold it
    /// back with [`SpanLog::merge`].
    pub fn fork(&self) -> Self {
        Self::new(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Appends `other`'s spans, re-basing their parent links.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                // Clip to the parent: only covered parent time is subtracted.
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// The whole log as one JSON document (span names are static
    /// identifiers, so no escaping is needed).
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::with_capacity(64 + 96 * self.spans.len());
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{self_ns},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"op\":{}}}", s.op);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new(Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            log.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 0,
            });
        }
        log
    }

    #[test]
    fn self_time_subtracts_children() {
        let log = log_with(&[
            ("op", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 50, 90, Some(0)),
            ("leaf", 55, 60, Some(2)),
        ]);
        assert_eq!(log.self_times_ns(), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let log = log_with(&[
            ("op", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 170, Some(0)), // overlaps a by 10
            ("c", 190, 250, Some(0)), // sticks out by 50
        ]);
        // covered = [110,170) ∪ [190,200) = 70
        assert_eq!(log.self_times_ns()[0], 30);
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = log_with(&[("op", 0, 10, None)]);
        let b = log_with(&[("op", 0, 10, None), ("kid", 2, 4, Some(0))]);
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 8, 2]);
    }

    #[test]
    fn record_nests_and_serialises() {
        let mut log = SpanLog::new(Instant::now());
        let op = log.begin("op", None, 7);
        let v = log.record("inner", Some(op), 7, || 3);
        log.end(op);
        assert_eq!(v, 3);
        let json = log.to_json("w");
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0,\"op\":7"));
        assert!(json.contains("\"parent\":null"));
    }
}
