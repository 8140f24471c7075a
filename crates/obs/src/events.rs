//! Structured JSONL event tracing through pluggable sinks.
//!
//! An [`EventLog`] turns telemetry points (one training step, one epoch,
//! one swap) into JSON-lines records: one JSON object per line, each
//! carrying the event kind, a monotone sequence number, the wall-time
//! delta since the log was opened, and whatever typed key/value fields the
//! emitter adds. Lines travel through a [`TelemetrySink`]:
//!
//! * `NullSink` — drops everything. A disabled log short-circuits
//!   *before* any formatting happens, so telemetry-off costs one branch
//!   per potential event (the same discipline as the profiler-off path in
//!   `alf-nn`).
//! * [`MemorySink`] — bounded in-memory ring, for tests and for the last-N
//!   events of a live system. Read through the [`MemoryHandle`] it hands
//!   out.
//! * [`FileSink`] — buffered appender for real runs; flushed on drop.
//!
//! The emitting pattern keeps the off-path free and the on-path
//! allocation-free in steady state (the line buffer is reused):
//!
//! ```
//! use alf_obs::events::{EventLog, MemorySink};
//!
//! let (sink, handle) = MemorySink::bounded(16);
//! let mut log = EventLog::new(Box::new(sink));
//! if let Some(mut ev) = log.event("train.step") {
//!     ev.field_u64("step", 3);
//!     ev.field_f32("loss", 1.25);
//!     ev.field_f32s("occupancy", [1.0, 0.5]);
//! } // emitted on drop
//! let lines = handle.lines();
//! assert_eq!(lines.len(), 1);
//! assert!(lines[0].starts_with("{\"event\":\"train.step\",\"seq\":0,\"t_ms\":"));
//! assert!(lines[0].ends_with("\"step\":3,\"loss\":1.25,\"occupancy\":[1,0.5]}"));
//! ```

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::JsonWriter;

/// Destination for serialised JSONL records. `line` arrives *without* a
/// trailing newline; the sink owns framing.
pub trait TelemetrySink: Send {
    /// Accepts one serialised event.
    fn write_line(&mut self, line: &str);

    /// Pushes any buffered lines to durable storage. Default: no-op.
    fn flush(&mut self) {}
}

/// Sink that drops every line.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NullSink;

impl TelemetrySink for NullSink {
    fn write_line(&mut self, _line: &str) {}
}

/// Bounded in-memory ring of recent lines, shared with [`MemoryHandle`]s.
#[derive(Debug)]
pub struct MemorySink {
    shared: Arc<Mutex<Ring>>,
}

#[derive(Debug)]
struct Ring {
    lines: VecDeque<String>,
    capacity: usize,
    /// Total lines ever written (≥ `lines.len()` once the ring wraps).
    written: u64,
}

/// Read side of a [`MemorySink`]; stays valid after the sink (inside an
/// [`EventLog`]) is dropped.
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    shared: Arc<Mutex<Ring>>,
}

impl MemorySink {
    /// Creates a ring holding the most recent `capacity` lines, plus the
    /// handle to read them back.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn bounded(capacity: usize) -> (Self, MemoryHandle) {
        assert!(capacity > 0, "MemorySink capacity must be >= 1");
        let shared = Arc::new(Mutex::new(Ring {
            lines: VecDeque::with_capacity(capacity),
            capacity,
            written: 0,
        }));
        (
            Self {
                shared: Arc::clone(&shared),
            },
            MemoryHandle { shared },
        )
    }
}

impl TelemetrySink for MemorySink {
    fn write_line(&mut self, line: &str) {
        let mut ring = self.shared.lock().expect("memory sink poisoned");
        if ring.lines.len() == ring.capacity {
            ring.lines.pop_front();
        }
        ring.lines.push_back(line.to_string());
        ring.written += 1;
    }
}

impl MemoryHandle {
    /// Copy of the retained lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.shared
            .lock()
            .expect("memory sink poisoned")
            .lines
            .iter()
            .cloned()
            .collect()
    }

    /// Total lines ever written to the sink (including ones the ring has
    /// since evicted).
    pub fn written(&self) -> u64 {
        self.shared.lock().expect("memory sink poisoned").written
    }
}

/// Buffered JSONL file appender. Lines are newline-framed; the buffer is
/// flushed on [`TelemetrySink::flush`] and on drop.
#[derive(Debug)]
pub struct FileSink {
    writer: std::io::BufWriter<std::fs::File>,
}

impl FileSink {
    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            writer: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }

    /// Opens `path` for appending (creating it if missing), so a resumed
    /// run extends the same JSONL stream instead of truncating it.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be opened.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            writer: std::io::BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
        })
    }
}

impl TelemetrySink for FileSink {
    fn write_line(&mut self, line: &str) {
        // Telemetry must never abort a training run; a full disk degrades
        // to dropped events.
        let _ = self.writer.write_all(line.as_bytes());
        let _ = self.writer.write_all(b"\n");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A JSONL event stream over a [`TelemetrySink`].
///
/// Holders embed one `EventLog` per subsystem (trainer, server) and ask it
/// for an [`Event`] at each telemetry point; a disabled log answers `None`
/// before any field is formatted. See the module docs for the pattern.
pub struct EventLog {
    sink: Box<dyn TelemetrySink>,
    enabled: bool,
    start: Instant,
    /// Reused line buffer: steady-state emission allocates nothing.
    buf: String,
    seq: u64,
    /// Scope fields stamped into every record (after `t_ms`), in
    /// insertion order. Used by job-structured emitters (the `alf-lab`
    /// campaign runner) so each line carries its job identity without
    /// every call site repeating it.
    scope: Vec<(String, String)>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("enabled", &self.enabled)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl Default for EventLog {
    fn default() -> Self {
        Self::disabled()
    }
}

impl EventLog {
    /// Enabled log writing into `sink`.
    pub fn new(sink: Box<dyn TelemetrySink>) -> Self {
        Self {
            sink,
            enabled: true,
            start: Instant::now(),
            buf: String::new(),
            seq: 0,
            scope: Vec::new(),
        }
    }

    /// Disabled log (`NullSink`, `enabled = false`): every
    /// [`EventLog::event`] call returns `None` after one branch.
    pub fn disabled() -> Self {
        Self {
            sink: Box::new(NullSink),
            enabled: false,
            start: Instant::now(),
            buf: String::new(),
            seq: 0,
            scope: Vec::new(),
        }
    }

    /// Sets (or replaces) a scope field: every subsequent record carries
    /// `"key":"value"` right after its `t_ms` field. Scope keys persist
    /// for the log's lifetime; re-setting a key updates it in place,
    /// preserving insertion order.
    pub fn set_scope(&mut self, key: &str, value: &str) {
        match self.scope.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => {
                v.clear();
                v.push_str(value);
            }
            None => self.scope.push((key.to_string(), value.to_string())),
        }
    }

    /// Opens an event of the given kind, or `None` when the log is
    /// disabled. The record is emitted when the returned [`Event`] drops.
    #[inline]
    pub fn event(&mut self, kind: &str) -> Option<Event<'_>> {
        if !self.enabled {
            return None;
        }
        Some(Event::open(self, kind))
    }

    /// Flushes the sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }
}

/// One in-flight JSONL record; fields are appended through the typed
/// `field_*` methods and the line is emitted when the event drops.
pub struct Event<'a> {
    log: &'a mut EventLog,
    writer: JsonWriter,
}

impl<'a> Event<'a> {
    fn open(log: &'a mut EventLog, kind: &str) -> Self {
        let mut writer = JsonWriter::reusing(std::mem::take(&mut log.buf));
        writer.begin_object();
        writer.field_str("event", kind);
        writer.field_u64("seq", log.seq);
        writer.field_f64(
            "t_ms",
            log.start.elapsed().as_secs_f64() * 1e3, // wall-time delta
        );
        for (k, v) in &log.scope {
            writer.field_str(k, v);
        }
        Self { log, writer }
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, v: &str) {
        self.writer.field_str(key, v);
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.writer.field_u64(key, v);
    }

    /// Adds an `f64` field (`null` when non-finite).
    pub fn field_f64(&mut self, key: &str, v: f64) {
        self.writer.field_f64(key, v);
    }

    /// Adds an `f32` field (`null` when non-finite).
    pub fn field_f32(&mut self, key: &str, v: f32) {
        self.writer.field_f32(key, v);
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.writer.field_bool(key, v);
    }

    /// Adds an array-of-`f32` field (each under the NaN policy).
    pub fn field_f32s(&mut self, key: &str, vals: impl IntoIterator<Item = f32>) {
        self.writer.field_f32s(key, vals);
    }

    /// Adds an array-of-`u64` field.
    pub fn field_u64s(&mut self, key: &str, vals: impl IntoIterator<Item = u64>) {
        self.writer.field_u64s(key, vals);
    }
}

impl Drop for Event<'_> {
    fn drop(&mut self) {
        self.writer.end_object();
        let line = std::mem::take(&mut self.writer).finish();
        self.log.sink.write_line(&line);
        self.log.seq += 1;
        // Hand the allocation back for the next event.
        self.log.buf = line;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_emits_nothing() {
        let mut log = EventLog::disabled();
        assert!(log.event("x").is_none());
    }

    #[test]
    fn events_are_jsonl_with_seq_and_time() {
        let (sink, handle) = MemorySink::bounded(8);
        let mut log = EventLog::new(Box::new(sink));
        for i in 0..3u64 {
            let mut ev = log.event("tick").expect("enabled");
            ev.field_u64("i", i);
        }
        log.flush();
        let lines = handle.lines();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"event\":\"tick\",\"seq\":{i},\"t_ms\":")));
            assert!(line.ends_with(&format!("\"i\":{i}}}")));
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn scope_fields_stamp_every_record_in_order() {
        let (sink, handle) = MemorySink::bounded(8);
        let mut log = EventLog::new(Box::new(sink));
        log.set_scope("campaign", "smoke");
        log.set_scope("job", "table2");
        log.event("job.start").expect("enabled").field_u64("n", 1);
        log.set_scope("job", "fig3"); // re-set updates in place
        log.event("job.start").expect("enabled").field_u64("n", 2);
        let lines = handle.lines();
        assert!(lines[0].contains("\"campaign\":\"smoke\",\"job\":\"table2\",\"n\":1"));
        assert!(lines[1].contains("\"campaign\":\"smoke\",\"job\":\"fig3\",\"n\":2"));
    }

    #[test]
    fn ring_keeps_only_the_most_recent_lines() {
        let (sink, handle) = MemorySink::bounded(2);
        let mut log = EventLog::new(Box::new(sink));
        for i in 0..5u64 {
            log.event("e").expect("enabled").field_u64("i", i);
        }
        let lines = handle.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"i\":3"));
        assert!(lines[1].contains("\"i\":4"));
        assert_eq!(handle.written(), 5);
    }

    #[test]
    fn file_sink_round_trips_lines() {
        let path =
            std::env::temp_dir().join(format!("alf_obs_events_{}.jsonl", std::process::id()));
        {
            let sink = FileSink::create(&path).expect("create sink");
            let mut log = EventLog::new(Box::new(sink));
            log.event("a").expect("enabled").field_u64("v", 1);
            log.event("b").expect("enabled").field_f64("v", 0.5);
        } // drop flushes
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"a\""));
        assert!(lines[1].contains("\"v\":0.5"));
        let _ = std::fs::remove_file(&path);
    }
}
