//! The harness's span recorder: one span around every call the load
//! generator makes into the engine, kept in memory and written out as JSON
//! lines when the run ends. Tracing *inside* the engine is a later change
//! (ROADMAP item 1); these spans are recorded from outside.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` since the recorder's epoch,
/// nested under `parent` (an index into the same span list).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// In-memory span recorder for the single load-generating thread. Disabled
/// recorders take no timestamps, so the untraced rounds pay nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::end`]. `None` while disabled.
    pub fn begin(&mut self, name: &'static str, round: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (spans close innermost-first).
    pub fn end(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        self.open.retain(|open| *open != id);
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{workload}\",\"round\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.round, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. The recorder is single-threaded, so siblings never
/// overlap and the covered part is the sum of the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let child = span.end_ns.saturating_sub(span.start_ns);
            if let Some(slot) = own.get_mut(parent as usize) {
                *slot = slot.saturating_sub(child);
            }
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            round: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, None),
            span("ingest", 10, 40, Some(0)),
            span("store", 15, 25, Some(1)),
            span("drive", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tracer = Tracer::new();
        let id = tracer.begin("round", 1);
        assert_eq!(id, None);
        tracer.end(id);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_span_and_serialize() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        let outer = tracer.begin("round", 7);
        let inner = tracer.begin("drive", 7);
        tracer.end(inner);
        tracer.end(outer);
        let after = tracer.begin("round", 8);
        tracer.end(after);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        tracer.write_jsonl("dense_session", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"name\":\"drive\""));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
