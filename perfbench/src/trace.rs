//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and the id of the placement or
//! serve job it belongs to. Spans stay in memory and are written out as
//! JSONL when the run ends. With tracing off, `open`/`close` record
//! nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The benchmark's one clock read.
pub(crate) fn now() -> Instant {
    // lint:allow(determinism): benchmark timing; durations never feed back into placement results
    Instant::now()
}

/// One recorded span.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Layer name, e.g. `placer.global`.
    pub(crate) name: &'static str,
    /// Placement or job id shared by all spans of one request.
    pub(crate) id: u64,
    /// Index of the enclosing span, if any.
    pub(crate) parent: Option<usize>,
    /// Start, seconds since the tracer's epoch.
    pub(crate) start: f64,
    /// End, seconds since the tracer's epoch.
    pub(crate) end: f64,
}

impl Span {
    /// Wall duration, seconds.
    pub(crate) fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Open(Option<usize>);

impl Open {
    /// No span: the parent of a root span.
    pub(crate) const NONE: Open = Open(None);
}

/// Span recorder.
#[derive(Debug)]
pub(crate) struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub(crate) fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub(crate) fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `span` (and any span opened inside it and left open).
    pub(crate) fn close(&mut self, span: Open) {
        let Some(idx) = span.0 else {
            return;
        };
        let end = self.epoch.elapsed().as_secs_f64();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = end;
            if top == idx {
                break;
            }
        }
    }

    /// Records a finished span from instants measured elsewhere (serve
    /// events) under `parent`.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Open,
        start: Instant,
        end: Instant,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let s = start.saturating_duration_since(self.epoch).as_secs_f64();
        let e = end.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            start: s,
            end: e.max(s),
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Duration of `span` itself.
    pub(crate) fn duration(&self, span: Open) -> Option<f64> {
        span.0.map(|i| self.spans[i].duration())
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap here: the benchmark calls
    /// layers one after another).
    pub(crate) fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.duration();
            }
        }
        out
    }

    /// Sum of the durations of the direct children of `span`.
    pub(crate) fn children_total(&self, span: Open) -> f64 {
        match span.0 {
            None => 0.0,
            Some(idx) => self
                .spans
                .iter()
                .filter(|s| s.parent == Some(idx))
                .map(Span::duration)
                .sum(),
        }
    }

    /// Duration of the direct child of `span` named `name`, if recorded.
    pub(crate) fn child(&self, span: Open, name: &str) -> Option<f64> {
        let idx = span.0?;
        self.spans
            .iter()
            .find(|s| s.parent == Some(idx) && s.name == name)
            .map(Span::duration)
    }

    /// Writes every span, with its self time, as one JSON object per line.
    pub(crate) fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","id":{},"parent":{parent},"start_s":{},"end_s":{},"self_s":{own}}}"#,
                s.name, s.id, s.start, s.end
            )?;
        }
        out.flush()
    }
}
