//! Golden-file and structural tests for the Chrome trace-event export.
//!
//! Three guarantees:
//!
//! 1. **Byte-stable output** — a fixed synthetic timeline (spans + a hazard
//!    instant) renders exactly the committed golden file, so the export
//!    format cannot drift silently.
//! 2. **Valid JSON** — the export of a real traced Cell run parses with the
//!    strict RFC 8259 reader in `sim_obs`, not just a brace counter.
//! 3. **Well-nested spans** — on every track, any two spans are either
//!    disjoint or one contains the other; Chrome's flame view requires this
//!    to render `X` events on one thread without artifacts.

// `sim_obs::parse_json` is a strict RFC 8259 reader: it rejects trailing
// commas, raw control characters, non-RFC numbers and duplicate keys.
use sim_obs::{parse_json, ChromeTrace, JsonValue};

/// `(tid, name, ts_us, dur_us)` of every `"X"` span in a rendered trace.
fn spans(json: &str) -> Vec<(f64, String, f64, f64)> {
    let doc = parse_json(json).expect("trace parses");
    let num = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_number).expect(k);
    doc.as_array()
        .expect("trace is an event array")
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .map(|e| {
            let name = e.get("name").and_then(JsonValue::as_str).expect("name");
            (num(e, "tid"), name.to_string(), num(e, "ts"), num(e, "dur"))
        })
        .collect()
}

/// On each track, every pair of rendered spans must be disjoint or properly
/// nested. Times are compared as rendered (`%.3f` µs), so back-to-back spans
/// may overlap by the rounding of three values: 2 ns of slack.
fn assert_well_nested(json: &str) {
    let spans = spans(json);
    assert!(!spans.is_empty(), "no spans in the trace");
    let eps = 2e-3;
    for (idx, a) in spans.iter().enumerate() {
        for b in &spans[idx + 1..] {
            if a.0 != b.0 {
                continue;
            }
            let (a0, a1) = (a.2, a.2 + a.3);
            let (b0, b1) = (b.2, b.2 + b.3);
            let disjoint = a1 <= b0 + eps || b1 <= a0 + eps;
            let a_in_b = b0 <= a0 + eps && a1 <= b1 + eps;
            let b_in_a = a0 <= b0 + eps && b1 <= a1 + eps;
            assert!(
                disjoint || a_in_b || b_in_a,
                "partially overlapping spans on track {}: {:?} [{a0}, {a1}) vs {:?} [{b0}, {b1})",
                a.0,
                a.1,
                b.1
            );
        }
    }
}

fn synthetic_timeline() -> ChromeTrace {
    let mut t = ChromeTrace::new();
    t.thread_name(0, "PPE");
    t.thread_name(1, "SPE 0");
    t.span(0, "spawn SPE 0 thread", "thread", 0.0, 0.000_125);
    t.span(1, "dma-get positions", "dma", 0.000_125, 0.000_25);
    t.span(1, "accel kernel", "compute", 0.000_375, 0.001);
    t.span(0, "integrate: kick", "ppe", 0.001_375, 0.000_5);
    t.instant(
        1,
        "hazard: read-before-get at offset 4096",
        "read-before-get",
        0.000_375,
    );
    t
}

#[test]
fn synthetic_timeline_matches_golden_file() {
    let json = synthetic_timeline().render();
    let golden = include_str!("golden/trace_small.json");
    assert_eq!(
        json, golden,
        "trace export drifted from tests/golden/trace_small.json — \
         if the change is intentional, update the golden file"
    );
}

#[test]
fn golden_file_matches_regardless_of_insertion_order() {
    // Record the same timeline in a scrambled order: the export sorts by
    // (timestamp, track, kind), so the bytes must still match the golden.
    let mut t = ChromeTrace::new();
    t.thread_name(0, "PPE");
    t.thread_name(1, "SPE 0");
    t.instant(
        1,
        "hazard: read-before-get at offset 4096",
        "read-before-get",
        0.000_375,
    );
    t.span(0, "integrate: kick", "ppe", 0.001_375, 0.000_5);
    t.span(1, "accel kernel", "compute", 0.000_375, 0.001);
    t.span(1, "dma-get positions", "dma", 0.000_125, 0.000_25);
    t.span(0, "spawn SPE 0 thread", "thread", 0.0, 0.000_125);
    let golden = include_str!("golden/trace_small.json");
    assert_eq!(
        t.render(),
        golden,
        "export must be insertion-order-independent"
    );
}

#[test]
fn counter_events_keep_the_export_valid_and_sorted() {
    let mut t = synthetic_timeline();
    t.counter(1, "spe.dma.bytes", "perf", 0.000_375, 4096.0);
    t.counter(1, "spe.dma.bytes", "perf", 0.001_375, 8192.0);
    let json = t.render();
    parse_json(&json).expect("trace with counters must parse");
    assert!(json.contains("\"ph\":\"C\""), "{json}");
    assert!(json.contains("\"args\":{\"value\":4096}"), "{json}");
    // The first counter sample shares ts=375 µs with the accel span and the
    // hazard instant: span < instant < counter at equal (timestamp, track).
    let accel = json.find("accel kernel").expect("span present");
    let hazard = json.find("hazard:").expect("instant present");
    let ctr = json.find("spe.dma.bytes").expect("counter present");
    assert!(accel < hazard && hazard < ctr, "{json}");
}

/// A deterministic monitor exercising both `"C"`-export paths: sampled
/// counters (one event per sample) and an unsampled counter (a single point
/// at t = 0 carrying the final value).
fn synthetic_monitor() -> sim_perf::PerfMonitor {
    let mut m = sim_perf::PerfMonitor::new();
    let bytes = m.register("spe.dma.bytes", "bytes");
    let fetches = m.register("gpu.tex.fetches", "ops");
    m.add(bytes, 4096.0);
    m.add_u64(fetches, 100);
    m.sample_all(0.000_25);
    m.add(bytes, 4096.0);
    m.sample_all(0.000_75);
    let unsampled = m.register("ppe.mailbox.round_trips", "events");
    m.add_u64(unsampled, 3);
    m
}

#[test]
fn perf_counter_export_matches_golden_file() {
    let mut t = ChromeTrace::new();
    t.thread_name(90, "perf");
    synthetic_monitor().export_to_chrome(&mut t, 90);
    let json = t.render();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/perf_counters.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("read tests/golden/perf_counters.json");
    assert_eq!(
        json, golden,
        "perf counter export drifted from tests/golden/perf_counters.json — \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
    parse_json(&json).expect("counter export must parse");
}

#[test]
fn golden_file_is_strictly_valid_json() {
    let golden = include_str!("golden/trace_small.json");
    parse_json(golden).expect("golden trace must parse");
    // Sanity: the hazard instant survived with its scope marker.
    assert!(golden.contains("\"ph\":\"i\""));
    assert!(golden.contains("\"s\":\"t\""));
}

#[test]
fn traced_cell_run_is_valid_and_well_nested() {
    use cell_be::{CellBeDevice, CellRunConfig};
    let sim = md_core::params::SimConfig::reduced_lj(256);
    let device = CellBeDevice::paper_blade();
    let mut trace = ChromeTrace::new();
    device
        .run_md_traced(&sim, 3, CellRunConfig::best(), &mut trace)
        .expect("traced run");
    let json = trace.render();
    assert_eq!(spans(&json).len(), trace.span_count());
    assert_well_nested(&json);
}

#[test]
fn hazard_instants_keep_the_export_valid() {
    use cell_be::hazard::{Dir, HazardChecker};
    use cell_be::LsRegion;
    let mut trace = synthetic_timeline();
    let mut hz = HazardChecker::new();
    hz.dma_issue(
        9,
        Dir::Put,
        LsRegion {
            offset: 0,
            len: 256,
        },
    );
    hz.compute_write(LsRegion {
        offset: 128,
        len: 16,
    });
    assert_eq!(hz.emit_to_trace(&mut trace, 1, 0.002), 1);
    let json = trace.render();
    parse_json(&json).expect("trace with hazards must parse");
    assert!(json.contains("write-before-put"), "{json}");
}

#[test]
fn escaped_names_still_produce_valid_json() {
    let mut t = ChromeTrace::new();
    t.thread_name(0, "tab\tquote\"backslash\\");
    t.span(0, "newline\nname", "cat", 0.0, 1e-6);
    t.instant(0, "ctrl\u{1}char", "cat", 2e-6);
    let doc = parse_json(&t.render()).expect("escaping must cover control chars");
    let names: Vec<_> = doc
        .as_array()
        .expect("event array")
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(names, ["thread_name", "newline\nname", "ctrl\u{1}char"]);
}
