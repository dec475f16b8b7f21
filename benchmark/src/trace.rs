//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer (tracing inside `spq-server` is a later change), held
//! in memory and written as JSON lines when the run ends. A span names
//! its parent, so a layer's self time is its duration minus the part its
//! children cover; spans of one block of requests share the block id.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Block of requests (or window, or execution) the span belongs to.
    pub block: u32,
}

/// Spans a recorder keeps: a pipelined wire repeat makes a few per
/// window, a run of five repeats well over a million, and a trace file of
/// that size helps nobody. Past the cap a recorder records nothing more.
const MAX_SPANS: usize = 200_000;

/// Records spans when enabled; a disabled recorder costs one branch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// Handle of an open span, returned by [`Recorder::open`].
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Open, block: u32) -> Open {
        if !self.enabled || self.spans.len() >= MAX_SPANS {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            block,
        });
        Open(Some(self.spans.len() as u32 - 1))
    }

    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Open,
        block: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, block);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Whether the cap was reached, so that later spans are missing.
    pub fn is_full(&self) -> bool {
        self.spans.len() >= MAX_SPANS
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"block\":{}}}",
                s.name, s.start_ns, s.end_ns, s.block
            );
        }
        out
    }
}

/// No parent: a root span.
pub const ROOT: Open = Open(None);

/// Total self time per span name: each span's duration minus the
/// duration of its direct children, summed by name, in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        match totals.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, total)) => *total += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            block: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("block", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("handle", 30, 90, Some(0)),
            span("wal", 40, 60, Some(2)),
            span("block", 100, 150, None),
            span("handle", 110, 120, Some(4)),
        ];
        let totals = self_times(&spans);
        assert_eq!(
            totals,
            vec![
                ("block", 20 + 40),
                ("decode", 20),
                ("handle", 40 + 10),
                ("wal", 20)
            ]
        );
        // Self times partition the root spans' wall time.
        let sum: u64 = totals.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, 150);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut off = Recorder::new(false);
        let outer = off.open("outer", ROOT, 0);
        assert_eq!(off.time("inner", outer, 0, || 7), 7);
        off.close(outer);
        assert!(off.spans().is_empty());

        let mut on = Recorder::new(true);
        let outer = on.open("outer", ROOT, 3);
        on.time("inner", outer, 3, || ());
        on.close(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        assert_eq!(on.to_jsonl().lines().count(), 2);
        assert!(on.to_jsonl().contains("\"name\":\"inner\""));
    }
}
