//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start and end (ns since the
//! tracer was made), the span it ran inside, and a request id shared by
//! the spans of one request (one program, one event batch, one served
//! event). Spans are only recorded on the thread that owns the tracer;
//! work a layer hands to its own threads (serve workers, PDES workers)
//! shows up inside the span of the call that waited for it.
//!
//! A disabled tracer costs one branch per call, so traced and untraced
//! runs execute the same code.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

/// Per span name: how many, their summed duration, and their summed self
/// time (duration minus the part covered by child spans).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("span exit without a matching enter");
        self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Summed duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Writes one JSON object per span, in start order:
    /// `{"id","name","start_ns","end_ns","parent","req"}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 0);
        t.enter("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let st = t.self_times();
        let (outer, inner) = (st["outer"], st["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x", 1);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
