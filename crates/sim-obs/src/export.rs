//! Ledger views: Chrome trace-event JSON (for Perfetto / `chrome://tracing`),
//! a Prometheus textfile (for node-exporter style scraping), and the text
//! timeline and two-ledger diff the `obs` binary prints.
//!
//! Every view is total over the ledgers [`RunLedger::parse_jsonl`] accepts:
//! sums of huge (finite) durations or counter deltas may overflow to
//! infinity, which the text views print as `inf` and Prometheus as `+Inf`;
//! the Chrome view, whose JSON cannot carry infinity, returns `Err` for a
//! time beyond its microsecond range.

use crate::chrome::ChromeTrace;
use crate::ledger::{EventKind, RunLedger};
use std::fmt::Write as _;

/// Render a ledger as a Chrome trace. Each source gets its own track, in
/// sorted-source order; host events land on a dedicated trailing track so
/// the deterministic timeline stays visually separate from wall-clock data.
/// Fails if an event's time or duration overflows the format's
/// microseconds.
pub fn ledger_to_chrome(ledger: &RunLedger) -> Result<String, String> {
    let sources = ledger.sources();
    let track_of = |source: &str| -> u32 {
        sources
            .iter()
            .position(|s| s == source)
            .map_or(0, |i| u32::try_from(i).unwrap_or(0) + 1)
    };
    let host_track = u32::try_from(sources.len()).unwrap_or(0) + 1;

    let mut trace = ChromeTrace::new();
    for source in &sources {
        trace.thread_name(track_of(source), source);
    }
    if ledger.events().iter().any(|e| e.kind == EventKind::Host) {
        trace.thread_name(host_track, "host wall-clock");
    }
    for ev in ledger.events() {
        let category = ev.kind.as_str();
        let dur_s = ev.dur_s.unwrap_or(0.0);
        if !(ev.t_s * 1e6).is_finite() || !(dur_s * 1e6).is_finite() {
            return Err(format!(
                "{category} event {:?} at t_s {:?} (dur_s {dur_s:?}) overflows the Chrome \
                 trace's microseconds",
                ev.name, ev.t_s
            ));
        }
        match ev.kind {
            EventKind::Phase => {
                trace.span(track_of(&ev.source), &ev.name, category, ev.t_s, dur_s);
            }
            EventKind::Counter => {
                trace.counter(
                    track_of(&ev.source),
                    &ev.name,
                    category,
                    ev.t_s,
                    ev.value.unwrap_or(0.0),
                );
            }
            EventKind::Instant | EventKind::Cache | EventKind::Node | EventKind::Recovery => {
                trace.instant(track_of(&ev.source), &ev.name, category, ev.t_s);
            }
            EventKind::Host => {
                trace.counter(host_track, &ev.name, category, 0.0, ev.value.unwrap_or(0.0));
            }
        }
    }
    Ok(trace.render())
}

fn prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A sample value in the Prometheus text format, which spells the
/// non-finite values `+Inf`, `-Inf` and `NaN`.
fn prom_f64(v: f64) -> String {
    match v {
        f64::INFINITY => "+Inf".to_string(),
        f64::NEG_INFINITY => "-Inf".to_string(),
        v if v.is_nan() => "NaN".to_string(),
        v => format!("{v}"),
    }
}

/// Render a ledger as a Prometheus textfile. Phase durations, final counter
/// values, and host measurements become gauges; event names live in labels
/// so the metric family set stays fixed.
pub fn ledger_to_prometheus(ledger: &RunLedger) -> String {
    let mut out = String::new();
    out.push_str(
        "# HELP mdea_phase_seconds Simulated seconds attributed to one phase of one source\n",
    );
    out.push_str("# TYPE mdea_phase_seconds gauge\n");
    for (source, name, total) in &ledger.phase_totals() {
        let _ = writeln!(
            out,
            "mdea_phase_seconds{{source=\"{}\",phase=\"{}\"}} {}",
            prom_label(source),
            prom_label(name),
            prom_f64(*total),
        );
    }

    out.push_str("# HELP mdea_counter Final value of one ledger counter\n");
    out.push_str("# TYPE mdea_counter gauge\n");
    for (source, name, unit, value) in &ledger.counter_finals() {
        let _ = writeln!(
            out,
            "mdea_counter{{source=\"{}\",name=\"{}\",unit=\"{}\"}} {}",
            prom_label(source),
            prom_label(name),
            prom_label(unit),
            prom_f64(*value),
        );
    }

    out.push_str("# HELP mdea_host Host wall-clock measurement (non-deterministic)\n");
    out.push_str("# TYPE mdea_host gauge\n");
    let mut hosts: Vec<(String, String, f64)> = Vec::new();
    for ev in ledger.events() {
        if ev.kind != EventKind::Host {
            continue;
        }
        let value = ev.value.unwrap_or(0.0);
        match hosts
            .iter_mut()
            .find(|(s, n, _)| *s == ev.source && *n == ev.name)
        {
            Some((_, _, v)) => *v = value,
            None => hosts.push((ev.source.clone(), ev.name.clone(), value)),
        }
    }
    hosts.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    for (source, name, value) in &hosts {
        let _ = writeln!(
            out,
            "mdea_host{{source=\"{}\",name=\"{}\"}} {}",
            prom_label(source),
            prom_label(name),
            prom_f64(*value),
        );
    }
    out
}

/// Render a ledger as the text timeline `obs timeline` prints: a header,
/// every event in `(t_s, kind, source, name)` order, then per-source phase
/// totals.
pub fn ledger_timeline(ledger: &RunLedger) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "run    : {}", ledger.label);
    let _ = writeln!(out, "work   : {}", ledger.workload);
    let _ = writeln!(out, "events : {}", ledger.events().len());
    out.push('\n');
    let mut events = ledger.events().to_vec();
    events.sort_by(|a, b| {
        a.t_s
            .total_cmp(&b.t_s)
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.source.cmp(&b.source))
            .then_with(|| a.name.cmp(&b.name))
    });
    for ev in &events {
        let _ = write!(
            out,
            "{:>14.9}s  {:<8} {:<18} {}",
            ev.t_s,
            ev.kind.as_str(),
            ev.source,
            ev.name
        );
        if let Some(d) = ev.dur_s {
            let _ = write!(out, "  dur={d}s");
        }
        if let Some(v) = ev.value {
            let _ = write!(out, "  value={v}");
            if let Some(u) = &ev.unit {
                let _ = write!(out, " {u}");
            }
        }
        if let Some(s) = ev.step {
            let _ = write!(out, "  step={s}");
        }
        if let Some(det) = &ev.detail {
            let _ = write!(out, "  ({det})");
        }
        out.push('\n');
    }
    out.push('\n');
    for source in ledger.sources() {
        let total = ledger.phase_total(&source);
        if total > 0.0 {
            let _ = writeln!(out, "phase total {source}: {total}s");
        }
    }
    out
}

/// Union of two sorted key lists, sorted.
fn merged_keys(
    a: impl Iterator<Item = (String, String)>,
    b: impl Iterator<Item = (String, String)>,
) -> Vec<(String, String)> {
    let mut keys: Vec<(String, String)> = a.collect();
    for k in b {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.sort();
    keys
}

/// Render the comparison `obs diff` prints: per-source phase totals, each
/// phase's share of its source, and final counter values, A against B.
pub fn ledger_diff(a: &RunLedger, b: &RunLedger) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "A: {} ({})", a.label, a.workload);
    let _ = writeln!(out, "B: {} ({})", b.label, b.workload);
    out.push('\n');

    let mut sources = a.sources();
    for s in b.sources() {
        if !sources.contains(&s) {
            sources.push(s);
        }
    }
    sources.sort();

    out.push_str("sim-seconds (phase totals per source)\n");
    for source in &sources {
        let ta = a.phase_total(source);
        let tb = b.phase_total(source);
        let _ = writeln!(
            out,
            "  {source:<20} A={ta:<22} B={tb:<22} delta={}",
            tb - ta
        );
    }
    out.push('\n');

    out.push_str("attribution shares (per source phase)\n");
    let pa = a.phase_totals();
    let pb = b.phase_totals();
    let share = |totals: &[(String, String, f64)], ledger: &RunLedger, s: &str, n: &str| -> f64 {
        let total = ledger.phase_total(s);
        if total == 0.0 {
            return 0.0;
        }
        totals
            .iter()
            .find(|(ts, tn, _)| ts == s && tn == n)
            .map_or(0.0, |(_, _, d)| d / total)
    };
    let key = |(s, n, _): &(String, String, f64)| (s.clone(), n.clone());
    for (s, n) in &merged_keys(pa.iter().map(key), pb.iter().map(key)) {
        let sa = share(&pa, a, s, n);
        let sb = share(&pb, b, s, n);
        let _ = writeln!(
            out,
            "  {s:<20} {n:<20} A={:>7.3}% B={:>7.3}% delta={:+.3}%",
            sa * 100.0,
            sb * 100.0,
            (sb - sa) * 100.0
        );
    }
    out.push('\n');

    out.push_str("counter deltas (final values)\n");
    let ca = a.counter_finals();
    let cb = b.counter_finals();
    let value = |finals: &[(String, String, String, f64)], s: &str, n: &str| -> f64 {
        finals
            .iter()
            .find(|(fs, fn_, _, _)| fs == s && fn_ == n)
            .map_or(0.0, |(_, _, _, v)| *v)
    };
    let key = |(s, n, _, _): &(String, String, String, f64)| (s.clone(), n.clone());
    for (s, n) in &merged_keys(ca.iter().map(key), cb.iter().map(key)) {
        let va = value(&ca, s, n);
        let vb = value(&cb, s, n);
        let _ = writeln!(
            out,
            "  {s:<20} {n:<26} A={va:<18} B={vb:<18} delta={}",
            vb - va
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::RunLedger;

    fn sample() -> RunLedger {
        let mut l = RunLedger::new("dev", "2048 x 10");
        l.device_phases("dev", &[("compute", 0.75), ("stall", 0.25)]);
        l.counter("dev", "ops", 0.5, 10.0, "ops");
        l.counter("dev", "ops", 1.0, 25.0, "ops");
        l.instant(EventKind::Recovery, "supervisor", "restore", 0.9);
        l.host_value("harness", "host_wall_seconds", 0.1, "s");
        l
    }

    #[test]
    fn chrome_export_assigns_tracks_and_parses() {
        let json = ledger_to_chrome(&sample()).expect("finite times");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("host wall-clock"));
        crate::json::parse_json(&json).expect("chrome export is valid JSON");
    }

    #[test]
    fn prometheus_export_totals_phases_and_takes_final_counter() {
        let text = ledger_to_prometheus(&sample());
        assert!(text.contains("mdea_phase_seconds{source=\"dev\",phase=\"compute\"} 0.75"));
        assert!(
            text.contains("mdea_counter{source=\"dev\",name=\"ops\",unit=\"ops\"} 25"),
            "{text}"
        );
        assert!(text.contains("mdea_host{source=\"harness\",name=\"host_wall_seconds\"} 0.1"));
    }

    #[test]
    fn prometheus_labels_are_escaped() {
        let mut l = RunLedger::new("x", "w");
        l.phase("a\"b", "c\\d", 0.0, 1.0);
        let text = ledger_to_prometheus(&l);
        assert!(text.contains("source=\"a\\\"b\""));
        assert!(text.contains("phase=\"c\\\\d\""));
    }
}
