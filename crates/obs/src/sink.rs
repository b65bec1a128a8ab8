//! Structured event sinks (JSON lines).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use nod_simcore::json::{from_str, to_string, JsonError, ToJson};
use nod_simcore::json_struct;
use nod_simcore::sync::Mutex;

/// One observability event, serializable as a single JSON line.
///
/// `kind` is one of `counter`, `gauge`, `observe`, `span_start`,
/// `span_end`. `name` is the flattened metric key (labels inline, as
/// produced by [`crate::metric_key`]) or the span name. Span events carry
/// `span`/`parent` ids; `span_end` also carries the elapsed milliseconds
/// in `value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Timestamp in microseconds (sim or wall clock — see
    /// [`crate::Recorder::now_us`]).
    pub t_us: u64,
    /// Event kind.
    pub kind: String,
    /// Metric key or span name.
    pub name: String,
    /// Histogram/gauge value, or elapsed ms for `span_end`.
    pub value: Option<f64>,
    /// Counter increment.
    pub delta: Option<u64>,
    /// Span id for span events.
    pub span: Option<u64>,
    /// Parent span id (0 = root) for span events.
    pub parent: Option<u64>,
}

json_struct!(ObsEvent {
    t_us,
    kind,
    name,
    value,
    delta,
    span,
    parent
});

impl ObsEvent {
    pub(crate) fn counter(t_us: u64, name: String, delta: u64) -> Self {
        ObsEvent {
            t_us,
            kind: "counter".to_string(),
            name,
            value: None,
            delta: Some(delta),
            span: None,
            parent: None,
        }
    }

    pub(crate) fn gauge(t_us: u64, name: String, value: f64) -> Self {
        ObsEvent {
            t_us,
            kind: "gauge".to_string(),
            name,
            value: Some(value),
            delta: None,
            span: None,
            parent: None,
        }
    }

    pub(crate) fn observe(t_us: u64, name: String, value: f64) -> Self {
        ObsEvent {
            t_us,
            kind: "observe".to_string(),
            name,
            value: Some(value),
            delta: None,
            span: None,
            parent: None,
        }
    }

    pub(crate) fn span_start(t_us: u64, name: String, id: u64, parent: u64) -> Self {
        ObsEvent {
            t_us,
            kind: "span_start".to_string(),
            name,
            value: None,
            delta: None,
            span: Some(id),
            parent: Some(parent),
        }
    }

    pub(crate) fn span_end(t_us: u64, name: String, id: u64, parent: u64, ms: f64) -> Self {
        ObsEvent {
            t_us,
            kind: "span_end".to_string(),
            name,
            value: Some(ms),
            delta: None,
            span: Some(id),
            parent: Some(parent),
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        to_string(self)
    }

    /// Parse one JSON line.
    pub fn from_json_line(line: &str) -> Result<Self, JsonError> {
        from_str(line)
    }
}

/// A destination for observability events.
///
/// Implementations must be cheap and non-blocking in spirit: the recorder
/// calls `emit` while holding no internal lock, but from hot paths.
pub trait ObsSink: Send + Sync {
    /// Consume one event.
    fn emit(&self, event: &ObsEvent);

    /// Flush buffered output (default no-op).
    fn flush(&self) {}
}

/// Collects events in memory; the test and integration workhorse.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<ObsEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of all events seen so far.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.lock().clone()
    }

    /// Drain the collected events.
    pub fn take(&self) -> Vec<ObsEvent> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl ObsSink for MemorySink {
    fn emit(&self, event: &ObsEvent) {
        self.events.lock().push(event.clone());
    }
}

/// Writes one JSON line per event to stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl ObsSink for StderrSink {
    fn emit(&self, event: &ObsEvent) {
        let mut line = String::new();
        event.write_json(&mut line);
        line.push('\n');
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

/// Writes one JSON line per event to a file (buffered).
#[derive(Debug)]
pub struct FileSink {
    /// The file, and a line buffer reused across events.
    writer: Mutex<(BufWriter<File>, String)>,
}

impl FileSink {
    /// Create (truncate) `path` and write events to it, creating missing
    /// parent directories. Errors name the offending path.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!("creating parent of {}: {e}", path.display()),
                    )
                })?;
            }
        }
        let file = File::create(path).map_err(|e| {
            std::io::Error::new(e.kind(), format!("creating {}: {e}", path.display()))
        })?;
        Ok(FileSink {
            writer: Mutex::new((BufWriter::new(file), String::new())),
        })
    }
}

impl ObsSink for FileSink {
    fn emit(&self, event: &ObsEvent) {
        let mut guard = self.writer.lock();
        let (w, line) = &mut *guard;
        line.clear();
        event.write_json(line);
        line.push('\n');
        let _ = w.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().0.flush();
    }
}

/// Flush on drop — explicitly, not via `BufWriter`'s best-effort drop —
/// so a sink torn down by panic unwinding still lands its buffered lines
/// on disk (the panic-abort harness in `nod-bench` relies on this).
impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.writer.get_mut().0.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trip() {
        let events = vec![
            ObsEvent::counter(12, "a{k=v}".into(), 3),
            ObsEvent::observe(15, "lat".into(), 2.5),
            ObsEvent::span_start(20, "negotiate".into(), 1, 0),
            ObsEvent::span_end(40, "negotiate".into(), 1, 0, 0.02),
        ];
        for e in events {
            let line = e.to_json_line();
            assert_eq!(ObsEvent::from_json_line(&line).unwrap(), e, "{line}");
        }
    }

    #[test]
    fn memory_sink_collects_and_drains() {
        let sink = MemorySink::new();
        sink.emit(&ObsEvent::counter(0, "x".into(), 1));
        sink.emit(&ObsEvent::counter(1, "x".into(), 2));
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let path = std::env::temp_dir().join("nod_obs_file_sink_test.jsonl");
        let sink = FileSink::create(&path).unwrap();
        sink.emit(&ObsEvent::counter(0, "x".into(), 1));
        sink.emit(&ObsEvent::gauge(5, "g".into(), 1.5));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            ObsEvent::from_json_line(lines[1]).unwrap().name,
            "g".to_string()
        );
        let _ = std::fs::remove_file(&path);
    }
}
