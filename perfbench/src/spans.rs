//! The span recorder of the traced run: spans the benchmark opens around
//! its calls into each layer's public functions, kept in memory and
//! written out when the worker exits.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are ns since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. When off, `enter`/`exit` cost one
/// branch, so the untraced passes run the same code.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: enter/exit pairs are the caller's bug.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Children never overlap (one thread, strict nesting),
    /// so that part is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.duration_ns();
            }
        }
        out
    }

    /// The spans as tab-separated rows: index, parent (-1 for a root),
    /// name, start, end and self time in ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{own}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(rec.self_ns(), vec![30, 10, 20, 40]);
        let tsv = rec.to_tsv();
        assert_eq!(tsv.lines().count(), 5);
        assert!(tsv.contains("2\t1\ta.inner\t15\t35\t20"));
    }

    #[test]
    fn recording_nests_and_off_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.enter("outer");
        rec.enter("inner");
        rec.exit();
        rec.exit();
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].duration_ns() >= rec.spans[1].duration_ns());

        let mut off = Recorder::new(false);
        off.enter("x");
        off.exit();
        assert!(off.spans.is_empty());
    }
}
