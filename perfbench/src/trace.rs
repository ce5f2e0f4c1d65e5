//! Spans for the traced replay.  A span records its name, start, end, parent and op
//! id; spans stay in memory and are written out when the run ends.  Probe samples are
//! the per-layer numbers measured by an extra call outside the op (see README.md).

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span name of the per-op root; every other span name is `layer.metric`.
pub const OP: &str = "op";

pub struct Tracer {
    /// Records anything at all: false in untraced runs.
    traced: bool,
    /// Records the current op (traced runs stop recording after a cap).
    recording: bool,
    epoch: Instant,
    op: usize,
    stack: Vec<usize>,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(traced: bool) -> Tracer {
        Tracer {
            traced,
            recording: false,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Open the root span of op `op`, recording it (and the samples taken until the
    /// next op begins) when `record` and the run is traced.  Returns the handle
    /// [`Tracer::end_op`] closes.
    pub fn begin_op(&mut self, op: usize, record: bool) -> Option<usize> {
        self.recording = self.traced && record;
        self.op = op;
        self.open(OP)
    }

    pub fn end_op(&mut self, root: Option<usize>) {
        self.close(root);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Some(index)
    }

    fn close(&mut self, index: Option<usize>) {
        if let Some(index) = index {
            self.stack.pop();
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Record one probe sample under `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.recording {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Run `f` and record its duration in microseconds under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.sample(name, start.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn span_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per layer in nanoseconds (a span's duration minus its children's),
    /// keyed by layer: the span name up to its last `.`, or [`OP`] for op roots.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.ns());
            }
        }
        let mut layers = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            let layer = span
                .name
                .rsplit_once('.')
                .map_or(span.name, |(layer, _)| layer);
            *layers.entry(layer).or_insert(0) += ns;
        }
        layers
    }

    /// Median op duration in microseconds.
    pub fn op_p50_us(&self) -> f64 {
        stats::median(&self.span_us(OP))
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","op":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                span.name, span.op, parent, span.start_ns, span.end_ns
            );
        }
        out
    }
}
