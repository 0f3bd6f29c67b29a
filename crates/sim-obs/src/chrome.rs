//! The one Chrome trace-event collector and writer in the workspace.
//!
//! Every timeline goes straight into a [`ChromeTrace`]: the Cell device's
//! SPE-offload spans (`CellBeDevice::run_md_traced`, `mdea trace`), DMA and
//! mailbox hazard instants, `sim-perf`'s `"C"` counter lanes, and the run
//! ledger's Chrome view ([`crate::ledger_to_chrome`]). The byte format (field
//! order, `%.3f` microsecond timestamps, the `(timestamp, track, kind)`
//! stable sort, the `[\n … \n]\n` envelope) is defined exactly once here,
//! and the golden-file tests in `tests/trace_golden.rs` pin the bytes.
//!
//! Times are simulated seconds in, microseconds (the format's native unit)
//! out. Negative times and durations, and non-finite counter values, are
//! caller bugs and panic.

use crate::json::escape_json_string;
use std::fmt::Write as _;

/// Builds a Chrome trace-event JSON array: thread-name metadata first, then
/// events stably sorted by `(timestamp, track, kind)` with spans before
/// instants before counters at equal keys, insertion order last. Times are
/// seconds in, microseconds (the format's native unit) out.
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    names: Vec<(u32, String)>,
    /// `(time_s, track, kind, rendered-body)` — kind 0 span, 1 instant,
    /// 2 counter.
    events: Vec<(f64, u32, u8, String)>,
    spans: usize,
}

impl ChromeTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a human-readable thread name for a track (first wins).
    pub fn thread_name(&mut self, track: u32, name: &str) {
        if !self.names.iter().any(|(t, _)| *t == track) {
            self.names.push((track, name.to_string()));
        }
    }

    /// A complete `"X"` event. Zero-duration spans are kept (they render as
    /// instant markers).
    pub fn span(&mut self, track: u32, name: &str, category: &str, start_s: f64, duration_s: f64) {
        assert!(duration_s >= 0.0, "span duration must be non-negative");
        assert!(start_s >= 0.0, "span start must be non-negative");
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3}}}",
            escape_json_string(name),
            escape_json_string(category),
            track,
            start_s * 1e6,
            duration_s * 1e6,
        );
        self.events.push((start_s, track, 0, body));
        self.spans += 1;
    }

    /// A thread-scoped `"i"` instant event.
    pub fn instant(&mut self, track: u32, name: &str, category: &str, time_s: f64) {
        assert!(time_s >= 0.0, "instant time must be non-negative");
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"s\":\"t\"}}",
            escape_json_string(name),
            escape_json_string(category),
            track,
            time_s * 1e6,
        );
        self.events.push((time_s, track, 1, body));
    }

    /// A `"C"` counter sample.
    pub fn counter(&mut self, track: u32, name: &str, category: &str, time_s: f64, value: f64) {
        assert!(time_s >= 0.0, "counter time must be non-negative");
        assert!(value.is_finite(), "counter value must be finite");
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"args\":{{\"value\":{}}}}}",
            escape_json_string(name),
            escape_json_string(category),
            track,
            time_s * 1e6,
            value,
        );
        self.events.push((time_s, track, 2, body));
    }

    /// A whole counter time series on one track. Series with no samples get
    /// a single point carrying `final_value` at t = 0 so they still show up
    /// as a lane in Perfetto — the rule `sim-perf` established for unsampled
    /// counters lives here now.
    pub fn counter_series(
        &mut self,
        track: u32,
        name: &str,
        category: &str,
        samples: &[(f64, f64)],
        final_value: f64,
    ) {
        if samples.is_empty() {
            self.counter(track, name, category, 0.0, final_value);
            return;
        }
        for &(t_s, value) in samples {
            self.counter(track, name, category, t_s, value);
        }
    }

    /// Number of `"X"` spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans
    }

    /// Render the trace: `[\n` + `,\n`-joined events + `\n]\n`.
    pub fn render(&self) -> String {
        let mut events = self.events.clone();
        // Stable sort: equal (timestamp, track, kind) keeps insertion order.
        events.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });

        let mut out = String::from("[\n");
        let mut first = true;
        let mut push = |out: &mut String, body: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(body);
        };
        for (track, name) in &self.names {
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    track,
                    escape_json_string(name)
                ),
            );
        }
        for (_, _, _, body) in &events {
            push(&mut out, body);
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_renders_empty_array() {
        assert_eq!(ChromeTrace::new().render(), "[\n\n]\n");
    }

    #[test]
    fn metadata_precedes_sorted_events() {
        let mut t = ChromeTrace::new();
        t.span(0, "late", "c", 2e-3, 1e-3);
        t.thread_name(0, "PPE");
        t.span(0, "early", "c", 0.0, 1e-3);
        let json = t.render();
        let meta = json.find("thread_name").expect("metadata present");
        let early = json.find("early").expect("early present");
        let late = json.find("late").expect("late present");
        assert!(meta < early && early < late, "{json}");
    }

    #[test]
    fn duplicate_thread_name_ignored() {
        let mut t = ChromeTrace::new();
        t.thread_name(0, "first");
        t.thread_name(0, "second");
        let json = t.render();
        assert!(json.contains("first"));
        assert!(!json.contains("second"));
    }

    #[test]
    fn counter_series_falls_back_to_origin_point() {
        let mut t = ChromeTrace::new();
        t.counter_series(9, "unsampled", "perf", &[], 7.0);
        t.counter_series(9, "sampled", "perf", &[(1e-3, 2.0), (2e-3, 5.0)], 5.0);
        let json = t.render();
        assert!(
            json.contains("\"ts\":0.000,\"args\":{\"value\":7}"),
            "{json}"
        );
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 3);
    }

    #[test]
    fn kinds_sort_span_instant_counter_at_equal_time() {
        let mut t = ChromeTrace::new();
        t.counter(1, "ctr", "perf", 1e-3, 1.0);
        t.instant(1, "inst", "c", 1e-3);
        t.span(1, "spn", "c", 1e-3, 0.0);
        let json = t.render();
        let pos = |needle: &str| json.find(needle).expect("present");
        assert!(
            pos("spn") < pos("inst") && pos("inst") < pos("ctr"),
            "{json}"
        );
    }

    #[test]
    fn spans_render_as_x_events_with_microsecond_times() {
        let mut t = ChromeTrace::new();
        t.thread_name(3, "SPE \"3\"");
        t.span(3, "kernel", "compute", 0.001, 0.002);
        assert_eq!(t.span_count(), 1);
        let json = t.render();
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1000.000,\"dur\":2000.000"), "{json}");
        assert!(json.contains(r#"SPE \"3\""#), "thread name escaped");
        crate::json::parse_json(&json).expect("valid JSON");
    }

    #[test]
    fn instants_render_as_thread_scoped_i_events() {
        let mut t = ChromeTrace::new();
        t.instant(2, "hazard: missing tag wait", "hazard", 0.004);
        assert_eq!(t.span_count(), 0);
        let json = t.render();
        assert!(
            json.contains("\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":4000.000,\"s\":\"t\""),
            "{json}"
        );
        crate::json::parse_json(&json).expect("valid JSON");
    }

    #[test]
    fn counters_render_as_c_events() {
        let mut t = ChromeTrace::new();
        t.counter(5, "dma.bytes", "perf", 0.002, 4096.0);
        let json = t.render();
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(
            json.contains("\"ts\":2000.000,\"args\":{\"value\":4096}"),
            "{json}"
        );
        crate::json::parse_json(&json).expect("valid JSON");
    }

    #[test]
    #[should_panic(expected = "span duration must be non-negative")]
    fn negative_duration_rejected() {
        ChromeTrace::new().span(0, "x", "c", 0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "span start must be non-negative")]
    fn negative_start_rejected() {
        ChromeTrace::new().span(0, "x", "c", -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "instant time must be non-negative")]
    fn negative_instant_rejected() {
        ChromeTrace::new().instant(0, "x", "c", -1e-9);
    }

    #[test]
    #[should_panic(expected = "counter value must be finite")]
    fn non_finite_counter_value_rejected() {
        ChromeTrace::new().counter(0, "x", "perf", 0.0, f64::NAN);
    }

    #[test]
    fn export_is_insertion_order_independent() {
        let record = |order: &[usize]| {
            let mut t = ChromeTrace::new();
            t.thread_name(0, "PPE");
            let items: [&dyn Fn(&mut ChromeTrace); 3] = [
                &|t: &mut ChromeTrace| t.span(0, "late", "c", 0.002, 0.001),
                &|t: &mut ChromeTrace| t.span(0, "early", "c", 0.000, 0.001),
                &|t: &mut ChromeTrace| t.instant(0, "mid", "c", 0.001),
            ];
            for &i in order {
                items[i](&mut t);
            }
            t.render()
        };
        let a = record(&[0, 1, 2]);
        assert_eq!(a, record(&[2, 1, 0]), "render must not depend on order");
        let pos = |needle: &str| a.find(needle).expect("present");
        assert!(pos("early") < pos("mid") && pos("mid") < pos("late"), "{a}");
    }
}
