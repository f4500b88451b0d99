//! # vadasa-obs — zero-dependency telemetry for the Vada-SA workspace
//!
//! The paper's scalability story (Figures 7e/7f) splits elapsed time into
//! reasoning vs. risk evaluation; reproducing it — and chasing the
//! ROADMAP's "fast as the hardware allows" goal — requires seeing where
//! time and memory go *inside* the engine and the anonymization cycle.
//! This crate is the substrate: spans with monotonic timing, counters,
//! log2-bucketed histograms, and a pluggable [`Collector`] behind them.
//! It deliberately takes **no external dependencies** (the build works
//! with workspace-path dependencies only) and is enforced dependency-free
//! by CI.
//!
//! ## Architecture
//!
//! Instrumented code talks to an [`Obs`] handle — a thin wrapper over
//! `Option<&dyn Collector>`. With no collector attached every call is a
//! no-op behind one branch, so instrumentation can stay in hot paths.
//! Two collectors ship in-tree:
//!
//! - [`Recorder`] — in-memory; aggregates counters and histograms and
//!   keeps every event for inspection in tests;
//! - [`JsonLinesWriter`] — streams one JSON object per event to any
//!   `Write` sink (see the schema below);
//!
//! and the *no-collector* state itself is the no-op default.
//!
//! ## JSON-lines schema
//!
//! Every line is one event object:
//!
//! ```json
//! {"type":"span","name":"engine.stratum","seq":3,"t_ns":88122,"dur_ns":81022,"fields":{"stratum":0,"rounds":5}}
//! {"type":"counter","name":"engine.facts_derived","seq":4,"t_ns":90011,"value":812,"fields":{}}
//! {"type":"observe","name":"engine.round_delta","seq":5,"t_ns":90100,"value":64,"fields":{"stratum":0}}
//! ```
//!
//! `seq` is a per-collector sequence number, `t_ns` the monotonic offset
//! from collector creation; `span` events add `dur_ns`, `counter` and
//! `observe` events add `value`. `fields` holds event-specific context.
//!
//! Span events additionally carry `span_id` / `parent_id` (and, for
//! replayed profile spans, an explicit `start_ns`) so a stream can be
//! folded back into a trace tree — see [`trace::TraceBuilder`] and the
//! Chrome-trace / collapsed-stack exporters in [`trace`].

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

use json::Json;
use std::borrow::Cow;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide span-id allocator. Ids are never 0 (0 means "no span" /
/// "no parent") and are only minted while a collector is attached, so a
/// single-threaded instrumented run produces a deterministic id sequence.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of in-flight span ids on this thread; the top is the parent
    /// of the next span started here.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Allocate a fresh nonzero span id (for replaying pre-measured spans
/// with explicit parent linkage; live [`Span`]s allocate their own).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

fn current_parent_id() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

fn push_span(id: u64) {
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
}

fn pop_span(id: u64) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&x| x == id) {
            stack.remove(pos);
        }
    });
}

/// A field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::UInt(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::UInt(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::Int(v) => Json::Num(*v as f64),
            FieldValue::UInt(v) => Json::Num(*v as f64),
            FieldValue::Float(v) => Json::Num(*v),
            FieldValue::Str(s) => Json::Str(s.clone()),
            FieldValue::Bool(b) => Json::Bool(*b),
        }
    }
}

/// What kind of measurement an [`Event`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span with its duration.
    Span {
        /// Wall-clock duration in nanoseconds (monotonic clock).
        dur_ns: u64,
    },
    /// A counter increment.
    Counter {
        /// The increment.
        delta: u64,
    },
    /// A histogram observation.
    Observe {
        /// The observed value.
        value: u64,
    },
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The measurement.
    pub kind: EventKind,
    /// Dotted event name, e.g. `engine.stratum` or `cycle.iteration`.
    pub name: Cow<'static, str>,
    /// Event-specific context fields.
    pub fields: Vec<(Cow<'static, str>, FieldValue)>,
    /// Span identity (0 for counters/observations and legacy spans).
    pub span_id: u64,
    /// Id of the enclosing span (0 = root / unknown).
    pub parent_id: u64,
    /// Explicit span start as a monotonic offset, when known. Live spans
    /// leave this `None` (start ≈ record time − duration); replayed
    /// profile spans set it so trace trees get exact timelines.
    pub start_ns: Option<u64>,
}

impl Event {
    /// Encode as one JSON-lines object, with collector-assigned sequence
    /// number and monotonic offset.
    pub fn to_json_line(&self, seq: u64, t_ns: u64) -> String {
        let kind = match &self.kind {
            EventKind::Span { .. } => "span",
            EventKind::Counter { .. } => "counter",
            EventKind::Observe { .. } => "observe",
        };
        let mut members = vec![
            ("type".to_string(), Json::Str(kind.to_string())),
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("seq".to_string(), Json::Num(seq as f64)),
            ("t_ns".to_string(), Json::Num(t_ns as f64)),
        ];
        match &self.kind {
            EventKind::Span { dur_ns } => {
                members.push(("dur_ns".to_string(), Json::Num(*dur_ns as f64)));
                members.push(("span_id".to_string(), Json::Num(self.span_id as f64)));
                members.push(("parent_id".to_string(), Json::Num(self.parent_id as f64)));
                if let Some(start) = self.start_ns {
                    members.push(("start_ns".to_string(), Json::Num(start as f64)));
                }
            }
            EventKind::Counter { delta } => {
                members.push(("value".to_string(), Json::Num(*delta as f64)));
            }
            EventKind::Observe { value } => {
                members.push(("value".to_string(), Json::Num(*value as f64)));
            }
        }
        members.push((
            "fields".to_string(),
            Json::Obj(
                self.fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_json()))
                    .collect(),
            ),
        ));
        Json::Obj(members).to_string()
    }
}

/// Receives telemetry events. Implementations must be cheap and must not
/// panic; they run at the boundaries of the engine's hot loops.
pub trait Collector: Send + Sync {
    /// Record one event.
    fn record(&self, event: Event);
}

/// Handle instrumented code talks to: either a live collector or nothing.
/// All methods are no-ops when no collector is attached.
#[derive(Clone, Copy)]
pub struct Obs<'c> {
    collector: Option<&'c dyn Collector>,
}

impl<'c> Obs<'c> {
    /// A handle over an optional collector.
    pub fn new(collector: Option<&'c dyn Collector>) -> Self {
        Obs { collector }
    }

    /// A disabled handle.
    pub fn off() -> Self {
        Obs { collector: None }
    }

    /// Whether a collector is attached (lets callers skip building
    /// expensive field values).
    pub fn enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Start a span; time runs until [`Span::finish`] (or drop). The new
    /// span nests under the innermost span still in flight on this
    /// thread, and its own id becomes the parent for spans started while
    /// it is open.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span<'c> {
        let span_id = if self.collector.is_some() {
            let id = next_span_id();
            push_span(id);
            id
        } else {
            0
        };
        Span {
            collector: self.collector,
            name: name.into(),
            fields: Vec::new(),
            start: Instant::now(),
            finished: false,
            span_id,
            parent_id: if span_id == 0 {
                0
            } else {
                SPAN_STACK.with(|s| {
                    let stack = s.borrow();
                    if stack.len() >= 2 {
                        stack[stack.len() - 2]
                    } else {
                        0
                    }
                })
            },
        }
    }

    /// Record a counter increment.
    pub fn counter(
        &self,
        name: impl Into<Cow<'static, str>>,
        delta: u64,
        fields: Vec<(Cow<'static, str>, FieldValue)>,
    ) {
        if let Some(c) = self.collector {
            c.record(Event {
                kind: EventKind::Counter { delta },
                name: name.into(),
                fields,
                span_id: 0,
                parent_id: current_parent_id(),
                start_ns: None,
            });
        }
    }

    /// Record a histogram observation.
    pub fn observe(
        &self,
        name: impl Into<Cow<'static, str>>,
        value: u64,
        fields: Vec<(Cow<'static, str>, FieldValue)>,
    ) {
        if let Some(c) = self.collector {
            c.record(Event {
                kind: EventKind::Observe { value },
                name: name.into(),
                fields,
                span_id: 0,
                parent_id: current_parent_id(),
                start_ns: None,
            });
        }
    }

    /// Record a pre-measured span with explicit tree placement: its id,
    /// its parent's id (0 = root) and its start offset. This is the
    /// replay primitive profile emitters use to rebuild a full timeline
    /// after the fact (allocate ids with [`next_span_id`]).
    pub fn span_in(
        &self,
        name: impl Into<Cow<'static, str>>,
        span_id: u64,
        parent_id: u64,
        start_ns: u64,
        dur_ns: u64,
        fields: Vec<(Cow<'static, str>, FieldValue)>,
    ) {
        if let Some(c) = self.collector {
            c.record(Event {
                kind: EventKind::Span { dur_ns },
                name: name.into(),
                fields,
                span_id,
                parent_id,
                start_ns: Some(start_ns),
            });
        }
    }
}

/// Convenience for building a field list: `fields!["k" => v, ...]`.
#[macro_export]
macro_rules! fields {
    ($($k:expr => $v:expr),* $(,)?) => {
        vec![$((std::borrow::Cow::Borrowed($k), $crate::FieldValue::from($v))),*]
    };
}

/// An in-flight span. Finishing (or dropping) records a
/// [`EventKind::Span`] event with the elapsed monotonic time.
pub struct Span<'c> {
    collector: Option<&'c dyn Collector>,
    name: Cow<'static, str>,
    fields: Vec<(Cow<'static, str>, FieldValue)>,
    start: Instant,
    finished: bool,
    span_id: u64,
    parent_id: u64,
}

impl Span<'_> {
    /// Attach a context field (no-op when disabled).
    pub fn field(&mut self, name: impl Into<Cow<'static, str>>, value: impl Into<FieldValue>) {
        if self.collector.is_some() {
            self.fields.push((name.into(), value.into()));
        }
    }

    /// This span's id (0 when no collector is attached).
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Finish the span, recording its duration; returns elapsed nanos.
    pub fn finish(mut self) -> u64 {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if self.span_id != 0 {
            pop_span(self.span_id);
        }
        if let Some(c) = self.collector.take() {
            c.record(Event {
                kind: EventKind::Span { dur_ns },
                name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                fields: std::mem::take(&mut self.fields),
                span_id: self.span_id,
                parent_id: self.parent_id,
                start_ns: None,
            });
        }
        self.finished = true;
        dur_ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finish_inner();
        }
    }
}

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. 65 buckets cover the whole `u64` range.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Observation counts per bucket.
    pub buckets: [u64; 65],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Lower bound of a bucket.
    pub fn bucket_floor(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`q ∈ [0, 1]`): the upper
    /// edge of the bucket containing it. Bucket 0 holds only the value 0,
    /// so an all-zero histogram reports 0 (not the bucket-1 edge).
    pub fn quantile_ceil(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return match i {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => 1u64 << i,
                };
            }
        }
        u64::MAX
    }

    /// Render non-empty buckets as `[lo, hi): count` lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                let lo = Self::bucket_floor(i);
                let hi = if i >= 64 { u64::MAX } else { 1u64 << i };
                out.push_str(&format!("  [{lo}, {hi}): {n}\n"));
            }
        }
        out
    }
}

#[derive(Default)]
struct RecorderState {
    events: Vec<Event>,
    /// `(seq, t_ns)` per event, parallel to `events`.
    meta: Vec<(u64, u64)>,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

/// In-memory collector: keeps every event and aggregates counters and
/// histograms by name. Intended for tests and for post-run reporting.
pub struct Recorder {
    state: Mutex<RecorderState>,
    start: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            state: Mutex::new(RecorderState::default()),
            start: Instant::now(),
        }
    }
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all recorded events, in order.
    pub fn events(&self) -> Vec<Event> {
        lock_unpoisoned(&self.state).events.clone()
    }

    /// Snapshot of all recorded events with their `(seq, t_ns)` envelope,
    /// in record order — the input [`trace::TraceBuilder`] folds.
    pub fn timeline(&self) -> Vec<(u64, u64, Event)> {
        let state = lock_unpoisoned(&self.state);
        state
            .meta
            .iter()
            .zip(state.events.iter())
            .map(|(&(seq, t_ns), e)| (seq, t_ns, e.clone()))
            .collect()
    }

    /// Total of a counter across all increments (0 when never seen).
    pub fn counter_total(&self, name: &str) -> u64 {
        let state = lock_unpoisoned(&self.state);
        state
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Aggregated histogram for an observation (or span-duration) name.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let state = lock_unpoisoned(&self.state);
        state
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
    }

    /// Events with a given name.
    pub fn events_named(&self, name: &str) -> Vec<Event> {
        lock_unpoisoned(&self.state)
            .events
            .iter()
            .filter(|e| e.name == name)
            .cloned()
            .collect()
    }
}

/// Lock a mutex, recovering the data from a poisoned lock — telemetry
/// must never take the instrumented program down.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Collector for Recorder {
    fn record(&self, event: Event) {
        let t_ns = self.start.elapsed().as_nanos() as u64;
        let mut state = lock_unpoisoned(&self.state);
        let seq = state.meta.len() as u64;
        state.meta.push((seq, t_ns));
        match &event.kind {
            EventKind::Counter { delta } => {
                if let Some((_, v)) = state
                    .counters
                    .iter_mut()
                    .find(|(n, _)| *n == event.name.as_ref())
                {
                    *v += delta;
                } else {
                    let name = event.name.to_string();
                    let delta = *delta;
                    state.counters.push((name, delta));
                }
            }
            EventKind::Observe { value } | EventKind::Span { dur_ns: value } => {
                let value = *value;
                if let Some((_, h)) = state
                    .histograms
                    .iter_mut()
                    .find(|(n, _)| *n == event.name.as_ref())
                {
                    h.observe(value);
                } else {
                    let mut h = Histogram::default();
                    h.observe(value);
                    state.histograms.push((event.name.to_string(), h));
                }
            }
        }
        state.events.push(event);
    }
}

/// A buffered JSON line, keyed for the deterministic flush order.
struct BufferedLine {
    seq: u64,
    span_id: u64,
    line: String,
}

struct JsonLinesState<W> {
    writer: W,
    seq: u64,
    buf: Vec<BufferedLine>,
}

/// Streaming collector: one JSON object per event, newline-terminated.
///
/// Lines are buffered and written on [`flush`](Self::flush) /
/// [`into_inner`](Self::into_inner) / drop, after a stable sort by
/// `(seq, span_id)` — so the byte output is deterministic even when
/// multiple threads race to record (sequence numbers are assigned under
/// the same lock that buffers the line, so `seq` stays gapless and in
/// output order).
pub struct JsonLinesWriter<W: Write + Send> {
    inner: Mutex<Option<JsonLinesState<W>>>,
    start: Instant,
    redact_timings: bool,
}

impl JsonLinesWriter<std::io::BufWriter<std::fs::File>> {
    /// Create (truncating) a JSON-lines file sink.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }
}

impl<W: Write + Send> JsonLinesWriter<W> {
    /// Wrap any writer.
    pub fn new(writer: W) -> Self {
        JsonLinesWriter {
            inner: Mutex::new(Some(JsonLinesState {
                writer,
                seq: 0,
                buf: Vec::new(),
            })),
            start: Instant::now(),
            redact_timings: false,
        }
    }

    /// Redact wall-clock timings (`t_ns`, `dur_ns`, `start_ns`, any field
    /// named `*_ns` and the value of any counter or observation named
    /// `*_ns`) to 0 so the byte output depends only on the logical event
    /// stream — for byte-for-byte determinism diffs.
    pub fn redact_timings(mut self) -> Self {
        self.redact_timings = true;
        self
    }

    fn drain(state: &mut JsonLinesState<W>) {
        state.buf.sort_by_key(|l| (l.seq, l.span_id));
        for l in state.buf.drain(..) {
            // Telemetry must never take the instrumented program down.
            let _ = writeln!(state.writer, "{}", l.line);
        }
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(self) -> W {
        let mut guard = lock_unpoisoned(&self.inner);
        match guard.take() {
            Some(mut state) => {
                Self::drain(&mut state);
                let _ = state.writer.flush();
                drop(guard);
                state.writer
            }
            // Unreachable: the state is only taken here and in drop.
            None => unreachable!("JsonLinesWriter state already taken"),
        }
    }

    /// Write out buffered lines and flush the sink.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut guard = lock_unpoisoned(&self.inner);
        match guard.as_mut() {
            Some(state) => {
                Self::drain(state);
                state.writer.flush()
            }
            None => Ok(()),
        }
    }
}

impl<W: Write + Send> Drop for JsonLinesWriter<W> {
    fn drop(&mut self) {
        let mut guard = lock_unpoisoned(&self.inner);
        if let Some(state) = guard.as_mut() {
            Self::drain(state);
            let _ = state.writer.flush();
        }
    }
}

impl<W: Write + Send> Collector for JsonLinesWriter<W> {
    fn record(&self, event: Event) {
        let t_ns = if self.redact_timings {
            0
        } else {
            self.start.elapsed().as_nanos() as u64
        };
        let mut guard = lock_unpoisoned(&self.inner);
        let Some(state) = guard.as_mut() else {
            return;
        };
        let seq = state.seq;
        state.seq += 1;
        let line = if self.redact_timings {
            redact_event_timings(&event).to_json_line(seq, t_ns)
        } else {
            event.to_json_line(seq, t_ns)
        };
        state.buf.push(BufferedLine {
            seq,
            span_id: event.span_id,
            line,
        });
    }
}

/// A copy of `event` with every wall-clock quantity zeroed: span
/// duration, explicit start, numeric fields whose name ends in `_ns`, and
/// the value of a counter or observation whose name ends in `_ns` (such
/// as `engine.rule.join_ns`). Logical fields (iteration numbers, deltas,
/// counts) survive.
fn redact_event_timings(event: &Event) -> Event {
    let mut e = event.clone();
    let timed = e.name.ends_with("_ns");
    match &mut e.kind {
        EventKind::Span { dur_ns } => *dur_ns = 0,
        EventKind::Counter { delta: v } | EventKind::Observe { value: v } if timed => *v = 0,
        _ => {}
    }
    if e.start_ns.is_some() {
        e.start_ns = Some(0);
    }
    for (name, value) in &mut e.fields {
        if name.ends_with("_ns") {
            match value {
                FieldValue::Int(v) => *v = 0,
                FieldValue::UInt(v) => *v = 0,
                FieldValue::Float(v) => *v = 0.0,
                _ => {}
            }
        }
    }
    e
}

/// Fan an event stream out to several collectors (e.g. a [`Recorder`]
/// for trace building plus a [`JsonLinesWriter`] for streaming).
pub struct Fanout {
    sinks: Vec<std::sync::Arc<dyn Collector>>,
}

impl Fanout {
    /// A fanout over the given collectors.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Collector>>) -> Self {
        Fanout { sinks }
    }
}

impl Collector for Fanout {
    fn record(&self, event: Event) {
        if let Some((last, rest)) = self.sinks.split_last() {
            for sink in rest {
                sink.record(event.clone());
            }
            last.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        let mut span = obs.span("x");
        span.field("k", 1u64);
        let ns = span.finish();
        // no panic, a plausible duration, nothing recorded anywhere
        assert!(ns < 1_000_000_000);
        obs.counter("c", 1, vec![]);
        obs.observe("o", 2, vec![]);
    }

    #[test]
    fn recorder_aggregates_counters_and_histograms() {
        let rec = Recorder::new();
        let obs = Obs::new(Some(&rec));
        obs.counter("engine.facts", 10, vec![]);
        obs.counter("engine.facts", 5, vec![]);
        obs.observe("delta", 0, vec![]);
        obs.observe("delta", 1, vec![]);
        obs.observe("delta", 1000, vec![]);
        assert_eq!(rec.counter_total("engine.facts"), 15);
        let h = rec.histogram("delta").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1); // value 0
        assert_eq!(h.buckets[1], 1); // value 1
        assert_eq!(h.buckets[10], 1); // 1000 ∈ [512, 1024)
        assert_eq!(rec.events().len(), 5);
    }

    #[test]
    fn span_records_duration_and_fields() {
        let rec = Recorder::new();
        let obs = Obs::new(Some(&rec));
        let mut span = obs.span("work");
        span.field("stratum", 3u64);
        std::thread::sleep(std::time::Duration::from_millis(1));
        span.finish();
        let events = rec.events_named("work");
        assert_eq!(events.len(), 1);
        match &events[0].kind {
            EventKind::Span { dur_ns } => assert!(*dur_ns >= 1_000_000),
            other => panic!("expected span, got {other:?}"),
        }
        assert_eq!(events[0].fields[0].1, FieldValue::UInt(3));
    }

    #[test]
    fn dropped_span_still_records() {
        let rec = Recorder::new();
        {
            let obs = Obs::new(Some(&rec));
            let _span = obs.span("implicit");
        }
        assert_eq!(rec.events_named("implicit").len(), 1);
    }

    #[test]
    fn jsonlines_output_parses_back() {
        let writer = JsonLinesWriter::new(Vec::<u8>::new());
        let obs = Obs::new(Some(&writer));
        obs.counter("c", 7, fields!["k" => "v"]);
        let mut span = obs.span("s");
        span.field("n", 2u64);
        span.finish();
        let bytes = writer.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("counter"));
        assert_eq!(first.get("value").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            first.get("fields").unwrap().get("k").unwrap().as_str(),
            Some("v")
        );
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(second.get("seq").unwrap().as_f64(), Some(1.0));
        assert!(second.get("dur_ns").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn histogram_quantiles_and_render() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert!((h.mean() - 22.0).abs() < 1e-9);
        assert!(h.quantile_ceil(0.5) <= 8);
        assert!(h.quantile_ceil(1.0) >= 100);
        assert!(h.render().contains("): "));
    }

    /// Hand-checked edge cases: empty and all-zero histograms. Bucket 0
    /// contains only the value 0, so its quantile ceiling is 0 — the old
    /// code reported the bucket-1 edge (1) for a stream of zeros.
    #[test]
    fn histogram_empty_and_zero_edge_cases() {
        let empty = Histogram::default();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile_ceil(0.0), 0);
        assert_eq!(empty.quantile_ceil(0.5), 0);
        assert_eq!(empty.quantile_ceil(1.0), 0);

        let mut zeros = Histogram::default();
        zeros.observe(0);
        zeros.observe(0);
        zeros.observe(0);
        assert_eq!(zeros.mean(), 0.0);
        assert_eq!(zeros.quantile_ceil(0.5), 0, "all-zero stream: p50 is 0");
        assert_eq!(zeros.quantile_ceil(1.0), 0, "all-zero stream: max is 0");

        // Mixed: {0, 0, 3} — p50 is still in bucket 0, p100 in [2, 4).
        let mut mixed = Histogram::default();
        mixed.observe(0);
        mixed.observe(0);
        mixed.observe(3);
        assert_eq!(mixed.quantile_ceil(0.5), 0);
        assert_eq!(mixed.quantile_ceil(1.0), 4);
        assert!((mixed.mean() - 1.0).abs() < 1e-9);
    }

    /// Exact buckets, mean and quantiles for the observations
    /// {1, 2, 2, 100}.
    #[test]
    fn histogram_buckets_mean_and_quantiles_are_exact() {
        let mut h = Histogram::default();
        for v in [1, 2, 2, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 105);
        assert_eq!(h.buckets[1], 1); // value 1 ∈ [1, 2)
        assert_eq!(h.buckets[2], 2); // both 2s ∈ [2, 4)
        assert_eq!(h.buckets[7], 1); // 100 ∈ [64, 128)
        assert!((h.mean() - 26.25).abs() < 1e-9);
        assert_eq!(h.quantile_ceil(0.5), 4);
        assert_eq!(h.quantile_ceil(1.0), 128);
    }

    /// Live spans link to the innermost open span on the same thread.
    #[test]
    fn nested_spans_carry_parent_ids() {
        let rec = Recorder::new();
        let obs = Obs::new(Some(&rec));
        let outer = obs.span("outer");
        let outer_id = outer.id();
        assert_ne!(outer_id, 0);
        {
            let inner = obs.span("inner");
            assert_ne!(inner.id(), outer_id);
            inner.finish();
        }
        outer.finish();
        let sibling = obs.span("sibling");
        sibling.finish();

        let inner_ev = &rec.events_named("inner")[0];
        let outer_ev = &rec.events_named("outer")[0];
        let sibling_ev = &rec.events_named("sibling")[0];
        assert_eq!(inner_ev.parent_id, outer_ev.span_id);
        assert_eq!(outer_ev.parent_id, 0);
        assert_eq!(sibling_ev.parent_id, 0, "stack must pop on finish");
    }

    /// `span_in` replays explicit tree placement; the JSON line carries
    /// the span/parent ids and the explicit start offset.
    #[test]
    fn span_in_round_trips_tree_placement() {
        let writer = JsonLinesWriter::new(Vec::<u8>::new());
        let obs = Obs::new(Some(&writer));
        let root = next_span_id();
        let child = next_span_id();
        obs.span_in("child", child, root, 25, 50, vec![]);
        obs.span_in("root", root, 0, 0, 100, vec![]);
        let text = String::from_utf8(writer.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("span_id").unwrap().as_f64(), Some(child as f64));
        assert_eq!(first.get("parent_id").unwrap().as_f64(), Some(root as f64));
        assert_eq!(first.get("start_ns").unwrap().as_f64(), Some(25.0));
        assert_eq!(first.get("dur_ns").unwrap().as_f64(), Some(50.0));
    }

    /// Redaction zeroes every wall-clock quantity but preserves logical
    /// fields, so two identical logical runs produce identical bytes.
    #[test]
    fn redacted_output_is_timing_free() {
        let run = || {
            let writer = JsonLinesWriter::new(Vec::<u8>::new()).redact_timings();
            let obs = Obs::new(Some(&writer));
            obs.counter(
                "c",
                7,
                fields!["iteration" => 3u64, "risk_eval_ns" => 1234u64],
            );
            obs.span_in("s", 1, 0, 500, 900, fields!["delta" => 4u64]);
            obs.counter("rule.join_ns", 4321, vec![]);
            String::from_utf8(writer.into_inner()).unwrap()
        };
        let text = run();
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("t_ns").unwrap().as_f64(), Some(0.0));
            if let Some(d) = v.get("dur_ns") {
                assert_eq!(d.as_f64(), Some(0.0));
            }
            if let Some(s) = v.get("start_ns") {
                assert_eq!(s.as_f64(), Some(0.0));
            }
        }
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        let fields = first.get("fields").unwrap();
        assert_eq!(fields.get("iteration").unwrap().as_f64(), Some(3.0));
        assert_eq!(fields.get("risk_eval_ns").unwrap().as_f64(), Some(0.0));
        // a counter of nanoseconds is a timing; any other counter is not
        assert_eq!(first.get("value").unwrap().as_f64(), Some(7.0));
        let timed = json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(timed.get("value").unwrap().as_f64(), Some(0.0));
        assert_eq!(text, run(), "same logical stream, same bytes");
    }

    /// Fanout delivers every event to every sink.
    #[test]
    fn fanout_feeds_all_sinks() {
        let a = std::sync::Arc::new(Recorder::new());
        let b = std::sync::Arc::new(Recorder::new());
        let fan = Fanout::new(vec![a.clone(), b.clone()]);
        let obs = Obs::new(Some(&fan));
        obs.counter("c", 2, vec![]);
        obs.counter("c", 3, vec![]);
        assert_eq!(a.counter_total("c"), 5);
        assert_eq!(b.counter_total("c"), 5);
    }

    /// The recorder's timeline exposes gapless sequence numbers.
    #[test]
    fn recorder_timeline_is_gapless() {
        let rec = Recorder::new();
        let obs = Obs::new(Some(&rec));
        obs.counter("a", 1, vec![]);
        obs.observe("b", 2, vec![]);
        obs.span_in("c", next_span_id(), 0, 0, 3, vec![]);
        let timeline = rec.timeline();
        assert_eq!(timeline.len(), 3);
        for (i, (seq, _, _)) in timeline.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
    }
}
