//! Spans recorded from the benchmark's side of each layer boundary, kept in
//! memory and written out when the run ends. Only the traced pass touches
//! this module; end-to-end metrics come from runs that never construct a
//! [`Tracer`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u32) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        // Stamp last, so the bookkeeping above is not inside the span.
        self.spans[id].start_ns = self.ns(Instant::now());
        id
    }

    /// Closes span `id` (and, defensively, anything opened inside it).
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
        end - self.spans[id].start_ns
    }

    /// Records a span whose endpoints were observed elsewhere (a reply's
    /// timestamps, a scheduled arrival).
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u32,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its child spans cover, summed over spans of that name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            *by_name.entry(span.name).or_insert(0) += span.end_ns - span.start_ns - covered;
        }
        by_name
    }

    /// Total (inclusive) time per span name.
    pub fn total_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for span in &self.spans {
            *by_name.entry(span.name).or_insert(0) += span.end_ns - span.start_ns;
        }
        by_name
    }

    /// Writes every span as one JSON array of objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::default();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op_id: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = tracer_with(&[
            ("op", 0, 100, None),
            ("plan", 10, 30, Some(0)),
            ("exec", 30, 90, Some(0)),
            ("scan", 40, 60, Some(2)),
        ]);
        let own = t.self_ns_by_name();
        assert_eq!(own["op"], 100 - 20 - 60);
        assert_eq!(own["plan"], 20);
        assert_eq!(own["exec"], 60 - 20);
        assert_eq!(own["scan"], 20);
        assert_eq!(
            own.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert_eq!(t.total_ns_by_name()["exec"], 60);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let t = tracer_with(&[
            ("op", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 170, Some(0)),
            ("late", 190, 260, Some(0)),
        ]);
        // Covered: [110,170) and [190,200) = 70.
        assert_eq!(t.self_ns_by_name()["op"], 30);
    }

    #[test]
    fn enter_exit_nest_and_record_attaches() {
        let mut t = Tracer::default();
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.exit(inner) >= 2_000_000);
        t.exit(outer);
        let now = Instant::now();
        let r = t.record("reply", 8, now, now + Duration::from_millis(1), Some(outer));
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert_eq!(t.spans()[outer].parent, None);
        assert_eq!(t.spans()[r].end_ns - t.spans()[r].start_ns, 1_000_000);
        assert!(t.spans()[outer].end_ns >= t.spans()[inner].end_ns);
    }
}
