//! In-memory span recording for the traced replay.
//!
//! A span is one call into a layer: its name (`layer.operation`), start,
//! end, parent span and request id. Spans are kept in memory per thread
//! and written out when the run ends. A layer's self time is its span's
//! duration minus the part covered by its child spans, so the self
//! times of one request add up exactly to the request's root span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every replayed request. Its self time is
/// the glue between layer calls that no layer span covers.
pub const ROOT: &str = "request";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request id (the stream index).
    pub req: u64,
    /// Recording thread.
    pub thread: u32,
    /// Index of this span in its thread's list.
    pub id: u32,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<u32>,
    /// `layer.operation`, or [`ROOT`].
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. When off, `open` and `close` do nothing,
/// so the untraced replay runs the same code without recording.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for `thread`, timing relative to `epoch`.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            on,
            epoch,
            thread,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req,
            thread: self.thread,
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("close without open");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Close every open span (after a failed request).
    pub fn unwind(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
    }

    /// The recorded spans (every span closed).
    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open");
        self.spans
    }
}

/// Self time in nanoseconds of every span of one thread's list.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns() - c)
        .collect()
}

/// Per-request totals derived from the spans.
#[derive(Debug, Default, Clone)]
pub struct RequestTimes {
    /// Duration of the request's root span.
    pub total_ns: u64,
    /// Self time per span name (`request` included), summed over the
    /// request's spans of that name.
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Group spans by request and sum self times per span name. Each
/// thread's spans are given separately (parent ids are per thread).
pub fn per_request(threads: &[Vec<Span>]) -> BTreeMap<u64, RequestTimes> {
    let mut out: BTreeMap<u64, RequestTimes> = BTreeMap::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let r = out.entry(s.req).or_default();
            if s.parent.is_none() {
                r.total_ns += s.dur_ns();
            }
            *r.self_ns.entry(s.name).or_default() += own;
        }
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(threads: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for s in threads.iter().flatten() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"req":{},"thread":{},"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.req, s.thread, s.id, parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        rec.open(ROOT, 3);
        rec.open("cache.wait", 3);
        rec.open("lowering.build", 3);
        std::hint::black_box((0..10_000u64).sum::<u64>());
        rec.close();
        rec.close();
        rec.open("engine.run", 3);
        rec.close();
        rec.close();
        let spans = rec.finish();
        let times = per_request(&[spans]);
        let r = &times[&3];
        assert_eq!(r.self_ns.values().sum::<u64>(), r.total_ns);
        assert_eq!(r.self_ns.len(), 4);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        rec.open(ROOT, 1);
        rec.close();
        assert!(rec.finish().is_empty());
    }
}
