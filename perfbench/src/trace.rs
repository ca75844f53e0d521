//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer of the program; the program itself carries no probes. A
//! disabled tracer records nothing, so the untraced run pays one branch per
//! call site. Spans stay in memory until [`Tracer::write`] at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in the tracer.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// What [`Tracer::begin`] returns while tracing is off.
const UNRECORDED: SpanId = SpanId(usize::MAX);

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (the traced run alternates traced and
    /// untraced repetitions to measure its own overhead). Spans already
    /// open still close normally.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`; its parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return UNRECORDED;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id.0 == UNRECORDED.0 {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is a
    /// span's duration minus the part its child spans cover.
    fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        out
    }

    /// Write every recorded span plus a per-name self-time summary as JSON.
    pub fn write(&self, path: &Path, host: &[(&str, String)]) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "every span must be closed before writing");
        let mut s = String::from("{\n  \"host\": {");
        for (i, (k, v)) in host.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{}\"", v.replace(['"', '\\'], "'"));
        }
        s.push_str("},\n  \"summary\": [\n");
        let summary = self.summary();
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            let sep = if i + 1 == summary.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{sep}"
            );
        }
        s.push_str("  ],\n  \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let s = t.summary();
        let (_, outer_total, outer_self) = s["outer"];
        let (_, inner_total, _) = s["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", |_| ());
        assert!(t.spans.is_empty());
    }
}
