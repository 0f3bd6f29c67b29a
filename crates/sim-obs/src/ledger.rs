//! The schema-versioned JSONL run ledger.
//!
//! One ledger captures everything observable about a run — device phase
//! attribution, perf counters, fault injection and recovery, cache hits,
//! cluster node events, and host wall-clock scopes — as one event per line
//! on a single simulated-time axis. Two rules keep it honest:
//!
//! 1. **Observation only.** The ledger never charges cycles or mutates
//!    simulated state; a run with a ledger attached is bitwise-identical to
//!    the same run without (pinned by `tests/obs_ledger.rs`).
//! 2. **Host time is quarantined.** Wall-clock measurements are allowed,
//!    but only in events of kind `host`, which the canonical view excludes.
//!    Determinism comparisons are therefore "identical modulo host-time
//!    fields" by construction.

use crate::json::{
    parse_json, parse_json_fields, push_json_f64, push_json_string, JsonValue, ObjectSink,
};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Version of the ledger line format. Bump on any breaking change to the
/// header or event fields.
pub const LEDGER_SCHEMA_VERSION: u32 = 1;

/// Buffer bytes reserved per serialized line; device ledgers average about
/// 120, and a longer line only costs the buffer one more doubling.
const LINE_BYTES: usize = 128;

/// What an event describes. Serialized lowercase in the `kind` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A span of simulated time attributed to one activity (`dur_s` set).
    Phase,
    /// A counter sample or total (`value`/`unit` set).
    Counter,
    /// A point event on the simulated timeline.
    Instant,
    /// Result-cache activity (hit or miss) from the sweep engine.
    Cache,
    /// A cluster node lifecycle event (fault, checkpoint, restore, …).
    Node,
    /// A supervisor recovery event (watchdog, restore, fallback, …).
    Recovery,
    /// A host wall-clock measurement. Excluded from the canonical view.
    Host,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Phase => "phase",
            EventKind::Counter => "counter",
            EventKind::Instant => "instant",
            EventKind::Cache => "cache",
            EventKind::Node => "node",
            EventKind::Recovery => "recovery",
            EventKind::Host => "host",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "phase" => EventKind::Phase,
            "counter" => EventKind::Counter,
            "instant" => EventKind::Instant,
            "cache" => EventKind::Cache,
            "node" => EventKind::Node,
            "recovery" => EventKind::Recovery,
            "host" => EventKind::Host,
            _ => return None,
        })
    }
}

/// One ledger line. `t_s` is simulated seconds from the run origin except
/// for `Host` events, where it is a host wall-clock offset and explicitly
/// non-deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEvent {
    pub t_s: f64,
    pub kind: EventKind,
    /// Emitting subsystem: a device label, "supervisor", "cluster", "sweep",
    /// "harness", …
    pub source: String,
    /// Event name: phase/counter name, recovery event kind, cache key, …
    pub name: String,
    /// Step index the event is anchored to, when one exists.
    pub step: Option<u64>,
    /// Duration in simulated seconds (phases).
    pub dur_s: Option<f64>,
    /// Numeric payload (counters, host measurements).
    pub value: Option<f64>,
    /// Unit of `value`.
    pub unit: Option<String>,
    /// Free-form detail string.
    pub detail: Option<String>,
}

impl LedgerEvent {
    /// Append this event's JSON object (no newline) to `out`.
    fn push_json_line(&self, out: &mut String, time: &mut TimeText) {
        out.push_str("{\"t_s\":");
        time.push(out, self.t_s);
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"source\":\"");
        push_json_string(out, &self.source);
        out.push_str("\",\"name\":\"");
        push_json_string(out, &self.name);
        out.push('"');
        if let Some(step) = self.step {
            let _ = write!(out, ",\"step\":{step}");
        }
        if let Some(d) = self.dur_s {
            out.push_str(",\"dur_s\":");
            push_json_f64(out, d);
        }
        if let Some(v) = self.value {
            out.push_str(",\"value\":");
            push_json_f64(out, v);
        }
        if let Some(u) = &self.unit {
            out.push_str(",\"unit\":\"");
            push_json_string(out, u);
            out.push('"');
        }
        if let Some(det) = &self.detail {
            out.push_str(",\"detail\":\"");
            push_json_string(out, det);
            out.push('"');
        }
        out.push('}');
    }

    /// Decode one event line. Its fields land in named slots, so no key is
    /// copied, and each string value moves into the event.
    fn parse_line(line: &str) -> Result<Self, String> {
        let mut f = EventFields::default();
        parse_json_fields(line, &mut f)?;
        let t_s = f
            .t_s
            .and_then(|x| x.as_number())
            .ok_or("event missing numeric t_s")?;
        if t_s < 0.0 {
            return Err(format!("t_s must be non-negative, got {t_s}"));
        }
        let kind = f
            .kind
            .as_ref()
            .and_then(JsonValue::as_str)
            .and_then(EventKind::parse)
            .ok_or("event missing or unknown kind")?;
        let source = f
            .source
            .and_then(JsonValue::into_string)
            .ok_or("event missing source")?;
        let name = f
            .name
            .and_then(JsonValue::into_string)
            .ok_or("event missing name")?;
        let step = match f.step {
            Some(s) => Some(
                s.as_number()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .ok_or("step must be a non-negative integer")? as u64,
            ),
            None => None,
        };
        let num = |x: Option<JsonValue>, key: &str| {
            x.map(|x| {
                x.as_number()
                    .ok_or_else(|| format!("{key} must be a number"))
            })
            .transpose()
        };
        let text = |x: Option<JsonValue>, key: &str| {
            x.map(|x| {
                x.into_string()
                    .ok_or_else(|| format!("{key} must be a string"))
            })
            .transpose()
        };
        let dur_s = num(f.dur_s, "dur_s")?;
        if let Some(d) = dur_s.filter(|d| *d < 0.0) {
            return Err(format!("dur_s must be non-negative, got {d}"));
        }
        Ok(LedgerEvent {
            t_s,
            kind,
            source,
            name,
            step,
            dur_s,
            value: num(f.value, "value")?,
            unit: text(f.unit, "unit")?,
            detail: text(f.detail, "detail")?,
        })
    }
}

/// The fields of one event line, by name. Keys the format does not define
/// are kept only to reject their duplicates.
#[derive(Default)]
struct EventFields<'a> {
    t_s: Option<JsonValue>,
    kind: Option<JsonValue>,
    source: Option<JsonValue>,
    name: Option<JsonValue>,
    step: Option<JsonValue>,
    dur_s: Option<JsonValue>,
    value: Option<JsonValue>,
    unit: Option<JsonValue>,
    detail: Option<JsonValue>,
    other_keys: Vec<Cow<'a, str>>,
    other: Option<JsonValue>,
}

impl<'a> ObjectSink<'a> for EventFields<'a> {
    fn slot(&mut self, key: Cow<'a, str>) -> Result<&mut JsonValue, Cow<'a, str>> {
        let slot = match &*key {
            "t_s" => &mut self.t_s,
            "kind" => &mut self.kind,
            "source" => &mut self.source,
            "name" => &mut self.name,
            "step" => &mut self.step,
            "dur_s" => &mut self.dur_s,
            "value" => &mut self.value,
            "unit" => &mut self.unit,
            "detail" => &mut self.detail,
            _ if self.other_keys.contains(&key) => return Err(key),
            _ => {
                self.other_keys.push(key);
                return Ok(self.other.insert(JsonValue::Null));
            }
        };
        if slot.is_some() {
            return Err(key);
        }
        Ok(slot.insert(JsonValue::Null))
    }
}

/// The JSON text of the last `t_s` written. Sorted events share `t_s` in long
/// runs (a device's counters all land at its final time), so each distinct
/// time is formatted once and copied after that.
#[derive(Default)]
struct TimeText {
    bits: Option<u64>,
    text: String,
}

impl TimeText {
    fn push(&mut self, out: &mut String, t_s: f64) {
        if self.bits != Some(t_s.to_bits()) {
            self.bits = Some(t_s.to_bits());
            self.text.clear();
            push_json_f64(&mut self.text, t_s);
        }
        out.push_str(&self.text);
    }
}

/// An in-memory run ledger: a header plus an event list. Serialization is
/// JSONL — the header on line one, one event per following line, events
/// stably sorted by `(t_s, kind, source, name)` so equal-content runs
/// produce byte-identical files modulo host-time values.
#[derive(Clone, Debug, Default)]
pub struct RunLedger {
    /// Human label for the run ("cell-8spe-roundrobin", "cluster-4x", …).
    pub label: String,
    /// Workload description, e.g. "2048 atoms x 10 steps".
    pub workload: String,
    events: Vec<LedgerEvent>,
    /// Simulated-seconds origin for relative-time helpers; segments of a
    /// supervised run advance this so each segment lands after the last.
    sim_offset: f64,
}

impl RunLedger {
    pub fn new(label: &str, workload: &str) -> Self {
        RunLedger {
            label: label.to_string(),
            workload: workload.to_string(),
            events: Vec::new(),
            sim_offset: 0.0,
        }
    }

    /// Move the simulated-time origin used by the relative-time helpers.
    pub fn set_sim_offset(&mut self, offset_s: f64) {
        self.sim_offset = offset_s;
    }

    pub fn sim_offset(&self) -> f64 {
        self.sim_offset
    }

    pub fn events(&self) -> &[LedgerEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Push a fully-specified event at an absolute simulated time.
    pub fn push(&mut self, event: LedgerEvent) {
        self.events.push(event);
    }

    /// A phase span at `start_rel_s` past the current sim offset.
    pub fn phase(&mut self, source: &str, name: &str, start_rel_s: f64, dur_s: f64) {
        self.events.push(LedgerEvent {
            t_s: self.sim_offset + start_rel_s,
            kind: EventKind::Phase,
            source: source.to_string(),
            name: name.to_string(),
            step: None,
            dur_s: Some(dur_s),
            value: None,
            unit: None,
            detail: None,
        });
    }

    /// A counter total at `t_rel_s` past the current sim offset.
    pub fn counter(&mut self, source: &str, name: &str, t_rel_s: f64, value: f64, unit: &str) {
        self.events.push(LedgerEvent {
            t_s: self.sim_offset + t_rel_s,
            kind: EventKind::Counter,
            source: source.to_string(),
            name: name.to_string(),
            step: None,
            dur_s: None,
            value: Some(value),
            unit: Some(unit.to_string()),
            detail: None,
        });
    }

    /// An instant at `t_rel_s` past the current sim offset.
    pub fn instant(&mut self, kind: EventKind, source: &str, name: &str, t_rel_s: f64) {
        self.events.push(LedgerEvent {
            t_s: self.sim_offset + t_rel_s,
            kind,
            source: source.to_string(),
            name: name.to_string(),
            step: None,
            dur_s: None,
            value: None,
            unit: None,
            detail: None,
        });
    }

    /// Lay a device's attribution breakdown end-to-end from the current sim
    /// offset, in the order the device reported it. This is how every
    /// `DeviceRun::attribution` becomes ledger phases.
    pub fn device_phases(&mut self, source: &str, attribution: &[(&'static str, f64)]) {
        let mut cursor = 0.0;
        for &(name, dur_s) in attribution {
            self.phase(source, name, cursor, dur_s);
            cursor += dur_s;
        }
    }

    /// Run `f`, recording its host wall-clock duration as a `Host` event.
    /// The measurement never feeds back into simulated state; it exists so
    /// `obs check` can gate on host throughput.
    pub fn host_scope<T>(&mut self, source: &str, name: &str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        self.host_value(source, name, wall, "s");
        out
    }

    /// Record a host-side measurement (wall seconds, throughput, …).
    pub fn host_value(&mut self, source: &str, name: &str, value: f64, unit: &str) {
        self.events.push(LedgerEvent {
            t_s: 0.0,
            kind: EventKind::Host,
            source: source.to_string(),
            name: name.to_string(),
            step: None,
            dur_s: None,
            value: Some(value),
            unit: Some(unit.to_string()),
            detail: None,
        });
    }

    /// Events sorted the way serialization orders them, by reference.
    fn sorted_events(&self) -> Vec<&LedgerEvent> {
        let mut evs: Vec<&LedgerEvent> = self.events.iter().collect();
        evs.sort_by(|a, b| {
            a.t_s
                .total_cmp(&b.t_s)
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.source.cmp(&b.source))
                .then_with(|| a.name.cmp(&b.name))
        });
        evs
    }

    /// Serialize to JSONL: header line, then one event per line, every
    /// field appended straight into one output buffer.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(LINE_BYTES * (self.events.len() + 1));
        let _ = write!(
            out,
            "{{\"schema_version\":{LEDGER_SCHEMA_VERSION},\"format\":\"run-ledger\",\"label\":\""
        );
        push_json_string(&mut out, &self.label);
        out.push_str("\",\"workload\":\"");
        push_json_string(&mut out, &self.workload);
        let _ = writeln!(out, "\",\"events\":{}}}", self.events.len());
        let mut time = TimeText::default();
        for ev in self.sorted_events() {
            ev.push_json_line(&mut out, &mut time);
            out.push('\n');
        }
        out
    }

    /// The determinism-comparison view: serialized lines with every `Host`
    /// event dropped. Two runs of the same config must agree on these bytes
    /// exactly; host events are the only place wall-clock jitter may live.
    pub fn canonical_lines(&self) -> Vec<String> {
        let mut time = TimeText::default();
        self.sorted_events()
            .into_iter()
            .filter(|ev| ev.kind != EventKind::Host)
            .map(|ev| {
                let mut line = String::with_capacity(LINE_BYTES);
                ev.push_json_line(&mut line, &mut time);
                line
            })
            .collect()
    }

    /// Parse a JSONL ledger produced by [`RunLedger::to_jsonl`].
    pub fn parse_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("empty ledger")?;
        let header = parse_json(header_line).map_err(|e| format!("header: {e}"))?;
        let version = header
            .get("schema_version")
            .and_then(JsonValue::as_number)
            .ok_or("header missing schema_version")?;
        if version != f64::from(LEDGER_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported ledger schema_version {version} (expected {LEDGER_SCHEMA_VERSION})"
            ));
        }
        if header.get("format").and_then(JsonValue::as_str) != Some("run-ledger") {
            return Err("header format must be \"run-ledger\"".to_string());
        }
        let label = header
            .get("label")
            .and_then(JsonValue::as_str)
            .ok_or("header missing label")?
            .to_string();
        let workload = header
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("header missing workload")?
            .to_string();
        let declared = header
            .get("events")
            .and_then(JsonValue::as_number)
            .ok_or("header missing events count")?;
        let mut events = Vec::new();
        for (idx, line) in lines.enumerate() {
            events.push(
                LedgerEvent::parse_line(line)
                    .map_err(|e| format!("event line {}: {e}", idx + 2))?,
            );
        }
        if declared != events.len() as f64 {
            return Err(format!(
                "header declares {declared} events but file has {}",
                events.len()
            ));
        }
        Ok(RunLedger {
            label,
            workload,
            events,
            sim_offset: 0.0,
        })
    }

    /// Validate a serialized ledger without keeping the result.
    pub fn validate(text: &str) -> Result<(), String> {
        Self::parse_jsonl(text).map(|_| ())
    }

    /// Total simulated seconds covered by phases of one source.
    pub fn phase_total(&self, source: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Phase && e.source == source)
            .filter_map(|e| e.dur_s)
            .sum()
    }

    /// Phase durations summed per `(source, name)`, sorted. Totals of huge
    /// durations may overflow to infinity; views must render that, not
    /// assume finite sums.
    pub fn phase_totals(&self) -> Vec<(String, String, f64)> {
        let mut totals: Vec<(String, String, f64)> = Vec::new();
        for ev in self.events.iter().filter(|e| e.kind == EventKind::Phase) {
            let dur = ev.dur_s.unwrap_or(0.0);
            match totals
                .iter_mut()
                .find(|(s, n, _)| *s == ev.source && *n == ev.name)
            {
                Some((_, _, total)) => *total += dur,
                None => totals.push((ev.source.clone(), ev.name.clone(), dur)),
            }
        }
        totals.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        totals
    }

    /// Final `(source, name, unit, value)` of every counter, sorted. Last
    /// write wins per `(source, name)`: counters report running totals.
    pub fn counter_finals(&self) -> Vec<(String, String, String, f64)> {
        let mut finals: Vec<(String, String, String, f64)> = Vec::new();
        for ev in self.events.iter().filter(|e| e.kind == EventKind::Counter) {
            let value = ev.value.unwrap_or(0.0);
            let unit = ev.unit.clone().unwrap_or_default();
            match finals
                .iter_mut()
                .find(|(s, n, _, _)| *s == ev.source && *n == ev.name)
            {
                Some(slot) => {
                    slot.2 = unit;
                    slot.3 = value;
                }
                None => finals.push((ev.source.clone(), ev.name.clone(), unit, value)),
            }
        }
        finals.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        finals
    }

    /// Sources that emitted at least one event, in sorted order.
    pub fn sources(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for ev in &self.events {
            if !out.contains(&ev.source) {
                out.push(ev.source.clone());
            }
        }
        out.sort();
        out
    }

    /// Latest host-event value for `(source, name)`, if recorded.
    pub fn host_metric(&self, source: &str, name: &str) -> Option<f64> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Host && e.source == source && e.name == name)
            .filter_map(|e| e.value)
            .next_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> RunLedger {
        let mut l = RunLedger::new("cell-8spe", "2048 atoms x 10 steps");
        l.device_phases("cell-8spe", &[("compute", 0.8), ("dma_wait", 0.2)]);
        l.counter("cell-8spe", "spe.dma.bytes", 1.0, 4096.0, "bytes");
        l.instant(EventKind::Recovery, "supervisor", "checkpoint", 1.0);
        l.host_value("harness", "host_wall_seconds", 0.123, "s");
        l
    }

    #[test]
    fn round_trips_through_jsonl() {
        let l = sample_ledger();
        let text = l.to_jsonl();
        let back = RunLedger::parse_jsonl(&text).expect("parses");
        assert_eq!(back.label, l.label);
        assert_eq!(back.workload, l.workload);
        assert_eq!(back.events().len(), l.events().len());
        assert_eq!(back.to_jsonl(), text, "serialization is a fixed point");
    }

    #[test]
    fn canonical_view_excludes_host_events() {
        let l = sample_ledger();
        let canon = l.canonical_lines();
        assert_eq!(canon.len(), l.events().len() - 1);
        assert!(canon.iter().all(|line| !line.contains("\"kind\":\"host\"")));
    }

    #[test]
    fn device_phases_lay_end_to_end_from_offset() {
        let mut l = RunLedger::new("x", "w");
        l.set_sim_offset(10.0);
        l.device_phases("dev", &[("a", 1.0), ("b", 2.0)]);
        let evs = l.events();
        assert_eq!(evs[0].t_s, 10.0);
        assert_eq!(evs[1].t_s, 11.0);
        assert_eq!(l.phase_total("dev"), 3.0);
    }

    #[test]
    fn serialization_sorts_stably() {
        let mut a = RunLedger::new("x", "w");
        a.phase("dev", "late", 5.0, 1.0);
        a.phase("dev", "early", 0.0, 1.0);
        let mut b = RunLedger::new("x", "w");
        b.phase("dev", "early", 0.0, 1.0);
        b.phase("dev", "late", 5.0, 1.0);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn rejects_bad_headers_and_counts() {
        assert!(RunLedger::parse_jsonl("").is_err());
        assert!(RunLedger::parse_jsonl("{\"schema_version\":99}").is_err());
        let mut l = sample_ledger();
        l.push(LedgerEvent {
            t_s: 0.0,
            kind: EventKind::Instant,
            source: "x".into(),
            name: "y".into(),
            step: None,
            dur_s: None,
            value: None,
            unit: None,
            detail: None,
        });
        let mut text = l.to_jsonl();
        // Drop the final event line: count mismatch must be caught.
        let cut = text.trim_end().rfind('\n').unwrap();
        text.truncate(cut + 1);
        assert!(RunLedger::parse_jsonl(&text).is_err());
    }

    #[test]
    fn rejects_negative_times_and_durations() {
        let header = "{\"schema_version\":1,\"format\":\"run-ledger\",\"label\":\"x\",\"workload\":\"w\",\"events\":1}";
        let event = |t: &str, d: &str| {
            format!("{header}\n{{\"t_s\":{t},\"kind\":\"phase\",\"source\":\"s\",\"name\":\"n\",\"dur_s\":{d}}}\n")
        };
        assert!(RunLedger::parse_jsonl(&event("0", "0")).is_ok());
        let err = RunLedger::parse_jsonl(&event("-5", "2")).expect_err("negative t_s");
        assert!(err.contains("t_s must be non-negative"), "{err}");
        let err = RunLedger::parse_jsonl(&event("5", "-2")).expect_err("negative dur_s");
        assert!(err.contains("dur_s must be non-negative"), "{err}");
    }

    /// Event lines are decoded field by field rather than through a
    /// `JsonValue` tree; they must still be rejected exactly where and why
    /// `parse_json` rejects them, and accepted otherwise.
    #[test]
    fn event_lines_fail_like_parse_json() {
        let header = "{\"schema_version\":1,\"format\":\"run-ledger\",\"label\":\"x\",\"workload\":\"w\",\"events\":1}";
        let ev = r#"{"t_s":0,"kind":"phase","source":"s","name":"n""#;
        let nest =
            |depth: usize| format!("{ev},\"x\":{}1{}}}", "[".repeat(depth), "]".repeat(depth));
        for line in [
            format!("{ev},\"t_s\":1}}"),
            format!("{ev},\"n\\u0061me\":\"m\"}}"),
            format!("{ev},\"x\":1,\"y\":2,\"x\":[1]}}"),
            format!("{ev},\"x\":{{\"a\":1,\"a\":2}}}}"),
            format!("{ev}}} x"),
            ev.to_string(),
            format!("{ev},\"unit\":\"\u{1}\"}}"),
            nest(crate::json::MAX_DEPTH),
            "[1,2".to_string(),
        ] {
            let want = parse_json(&line).expect_err(&line);
            let got = RunLedger::parse_jsonl(&format!("{header}\n{line}\n")).expect_err(&line);
            assert_eq!(got, format!("event line 2: {want}"));
        }
        for line in [
            format!("{ev},\"x\":1,\"y\":{{\"x\":2}}}}"),
            format!("{ev},\"\\u0064etail\":\"d\"}}"),
            nest(crate::json::MAX_DEPTH - 1),
        ] {
            parse_json(&line).expect(&line);
            let led = RunLedger::parse_jsonl(&format!("{header}\n{line}\n")).expect(&line);
            assert_eq!(led.events()[0].name, "n");
        }
    }

    #[test]
    fn host_scope_returns_value_and_records_host_event() {
        let mut l = RunLedger::new("x", "w");
        let out = l.host_scope("harness", "busy", || 42);
        assert_eq!(out, 42);
        assert!(l.host_metric("harness", "busy").is_some());
        assert!(
            l.canonical_lines().is_empty(),
            "host-only ledger has empty canon"
        );
    }

    #[test]
    fn step_field_round_trips() {
        let mut l = RunLedger::new("x", "w");
        l.push(LedgerEvent {
            t_s: 0.5,
            kind: EventKind::Node,
            source: "cluster".into(),
            name: "fault".into(),
            step: Some(7),
            dur_s: None,
            value: None,
            unit: None,
            detail: Some("node 2".into()),
        });
        let back = RunLedger::parse_jsonl(&l.to_jsonl()).expect("parses");
        assert_eq!(back.events()[0].step, Some(7));
        assert_eq!(back.events()[0].detail.as_deref(), Some("node 2"));
    }
}
