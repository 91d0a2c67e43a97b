//! In-memory span recorder for traced runs.
//!
//! A span is `(name, start, end, parent, op)`; spans of one operation
//! share its op id. Calls too frequent to record one by one (quotes) are
//! charged to the open span as aggregated child time. A span's self time
//! is its duration minus its children's. Spans stay in memory and are
//! written out as JSON Lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Time of aggregated calls made inside this span.
    pub agg_child_ns: u64,
}

/// A span recorder for one thread.
pub struct Ledger {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Ledger {
    /// A recorder whose timestamps count from `t0`.
    pub fn new(t0: Instant) -> Ledger {
        Ledger { t0, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            agg_child_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "ledger: spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Charge `ns` of aggregated calls to the innermost open span.
    pub fn charge(&mut self, ns: u64) {
        if let Some(&top) = self.stack.last() {
            self.spans[top].agg_child_ns += ns;
        }
    }

    /// Total duration and self time (duration minus child spans minus
    /// aggregated child calls) per span name, with span counts.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i] + s.agg_child_ns);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"agg_child_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.agg_child_ns
            )?;
        }
        w.flush()
    }
}

/// Per-name totals of a ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Print the self-time table (ms per op) to stderr.
pub fn print_self_table(workload: &str, totals: &BTreeMap<&'static str, NameTotals>, ops: u64) {
    eprintln!("self time per op, {workload} ({ops} traced ops):");
    eprintln!("  {:<22} {:>8} {:>12} {:>12}", "span", "count", "total ms/op", "self ms/op");
    for (name, t) in totals {
        eprintln!(
            "  {:<22} {:>8} {:>12.4} {:>12.4}",
            name,
            t.count,
            t.total_ns as f64 / 1e6 / ops.max(1) as f64,
            t.self_ns as f64 / 1e6 / ops.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_charges() {
        let mut l = Ledger::new(Instant::now());
        let op = l.begin("op");
        let child = l.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        l.end(child);
        std::thread::sleep(std::time::Duration::from_millis(1));
        l.charge(1_000);
        l.end(op);
        let t = l.by_name();
        let (o, c) = (t["op"], t["child"]);
        assert_eq!(o.self_ns, o.total_ns - c.total_ns - 1_000);
        assert_eq!(c.self_ns, c.total_ns);
    }
}
