//! Schema-versioned per-run metrics: attribution, counters, derived rates.

use crate::counter::PerfMonitor;
use crate::json::JsonValue;
use sim_obs::{escape_json_string, json_f64};
use std::fmt::Write as _;

/// Version of the `RunMetrics` JSON schema. Bump when a field is added,
/// removed, or changes meaning; consumers must check it before diffing runs.
pub const SCHEMA_VERSION: u32 = 1;

/// Relative tolerance on `sum(attribution) == sim_seconds`. The devices
/// derive both sides from the same cost accumulators, so the only slack
/// allowed is floating-point re-association.
pub const ATTRIBUTION_REL_TOL: f64 = 1e-9;

/// Everything `perf_report` knows about one simulated run.
///
/// `attribution` is the centrepiece: a labelled partition of the run's
/// simulated seconds (compute vs DMA-wait vs mailbox vs PCIe vs memory
/// stalls) that [`validate`] requires to sum to `sim_seconds` within
/// [`ATTRIBUTION_REL_TOL`]. `counters` are the raw monotonic event counts,
/// `derived` the dimensionless or rate metrics computed from them.
///
/// [`validate`]: RunMetrics::validate
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    pub schema_version: u32,
    /// Device label, e.g. "cell-8spe", "gpu-7900gtx", "mta-2", "opteron".
    pub device: String,
    pub n_atoms: usize,
    pub steps: usize,
    /// Total simulated seconds for the run.
    pub sim_seconds: f64,
    /// Labelled partition of `sim_seconds`, in presentation order.
    pub attribution: Vec<(String, f64)>,
    /// Raw counters: `(name, value, unit)`.
    pub counters: Vec<(String, f64, String)>,
    /// Derived metrics: `(name, value)` — rates, fractions, ratios.
    pub derived: Vec<(String, f64)>,
}

impl RunMetrics {
    pub fn new(device: impl Into<String>, n_atoms: usize, steps: usize, sim_seconds: f64) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            device: device.into(),
            n_atoms,
            steps,
            sim_seconds,
            attribution: Vec::new(),
            counters: Vec::new(),
            derived: Vec::new(),
        }
    }

    /// Append one attribution bucket (seconds of simulated time).
    pub fn push_attribution(&mut self, name: impl Into<String>, seconds: f64) {
        self.attribution.push((name.into(), seconds));
    }

    /// Seconds attributed to `name` (0 if absent).
    pub fn attribution_seconds(&self, name: &str) -> f64 {
        self.attribution
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Fraction of total simulated time attributed to `name`.
    pub fn attribution_fraction(&self, name: &str) -> f64 {
        if self.sim_seconds == 0.0 {
            0.0
        } else {
            self.attribution_seconds(name) / self.sim_seconds
        }
    }

    /// Copy every counter's final value out of a [`PerfMonitor`].
    pub fn absorb_counters(&mut self, monitor: &PerfMonitor) {
        for c in monitor.counters() {
            self.counters
                .push((c.name.clone(), c.value(), c.unit.to_string()));
        }
    }

    /// Value of a raw counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    pub fn push_derived(&mut self, name: impl Into<String>, value: f64) {
        self.derived.push((name.into(), value));
    }

    /// Value of a derived metric (0 if absent).
    pub fn derived_value(&self, name: &str) -> f64 {
        self.derived
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Push the standard rate metrics: achieved vs peak op rate, utilization,
    /// and bytes moved per op. `ops` is the device's native work unit (flops,
    /// shader ops, instructions); `peak_ops_per_second` its theoretical peak.
    pub fn derive_rates(&mut self, ops: f64, peak_ops_per_second: f64, bytes_moved: f64) {
        let achieved = if self.sim_seconds > 0.0 {
            ops / self.sim_seconds
        } else {
            0.0
        };
        self.push_derived("achieved_gops_per_s", achieved / 1e9);
        self.push_derived("peak_gops_per_s", peak_ops_per_second / 1e9);
        self.push_derived(
            "utilization",
            if peak_ops_per_second > 0.0 {
                achieved / peak_ops_per_second
            } else {
                0.0
            },
        );
        self.push_derived(
            "bytes_per_op",
            if ops > 0.0 { bytes_moved / ops } else { 0.0 },
        );
    }

    /// Record host-side throughput: how fast the simulator itself executed
    /// (wall-clock), as opposed to the simulated seconds it modeled. Adds
    /// `host_wall_seconds` and `host_atom_steps_per_s` (atom·steps per
    /// wall-clock second — the figure of merit for the host-parallel
    /// execution path, DESIGN.md §12). `host_wall_seconds` must be measured
    /// by the *caller* (harness or bench): device simulators never read the
    /// host clock, so the timing always wraps the run from outside.
    pub fn record_host_throughput(&mut self, host_wall_seconds: f64) {
        let atom_steps = (self.n_atoms * self.steps.max(1)) as f64;
        self.push_derived("host_wall_seconds", host_wall_seconds);
        self.push_derived(
            "host_atom_steps_per_s",
            if host_wall_seconds > 0.0 {
                atom_steps / host_wall_seconds
            } else {
                0.0
            },
        );
    }

    /// Check the record's internal consistency. The attribution-sum check is
    /// the contract that makes `perf_report` trustworthy: if a device charges
    /// time it cannot attribute, this fails.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if !self.sim_seconds.is_finite() || self.sim_seconds < 0.0 {
            return Err(format!(
                "sim_seconds not finite/non-negative: {}",
                self.sim_seconds
            ));
        }
        let mut sum = 0.0;
        for (name, s) in &self.attribution {
            if !s.is_finite() || *s < 0.0 {
                return Err(format!("attribution {name:?} not finite/non-negative: {s}"));
            }
            sum += s;
        }
        let tol = ATTRIBUTION_REL_TOL * self.sim_seconds.max(f64::MIN_POSITIVE);
        if (sum - self.sim_seconds).abs() > tol {
            return Err(format!(
                "attribution sums to {sum} but sim_seconds is {} (|diff| {} > tol {tol})",
                self.sim_seconds,
                (sum - self.sim_seconds).abs()
            ));
        }
        for (name, v, _) in &self.counters {
            if !v.is_finite() || *v < 0.0 {
                return Err(format!("counter {name:?} not finite/non-negative: {v}"));
            }
        }
        for (name, v) in &self.derived {
            if !v.is_finite() {
                return Err(format!("derived {name:?} not finite: {v}"));
            }
        }
        Ok(())
    }

    /// Render as a pretty-printed JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(
            out,
            "  \"device\": \"{}\",",
            escape_json_string(&self.device)
        );
        let _ = writeln!(out, "  \"n_atoms\": {},", self.n_atoms);
        let _ = writeln!(out, "  \"steps\": {},", self.steps);
        let _ = writeln!(out, "  \"sim_seconds\": {},", json_f64(self.sim_seconds));
        out.push_str("  \"attribution\": {\n");
        for (i, (name, s)) in self.attribution.iter().enumerate() {
            let comma = if i + 1 < self.attribution.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    \"{}\": {}{comma}",
                escape_json_string(name),
                json_f64(*s)
            );
        }
        out.push_str("  },\n  \"counters\": [\n");
        for (i, (name, v, unit)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}}}{comma}",
                escape_json_string(name),
                escape_json_string(unit),
                json_f64(*v)
            );
        }
        out.push_str("  ],\n  \"derived\": {\n");
        for (i, (name, v)) in self.derived.iter().enumerate() {
            let comma = if i + 1 < self.derived.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {}{comma}",
                escape_json_string(name),
                json_f64(*v)
            );
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a record back from its [`RunMetrics::to_json`] rendering.
    ///
    /// Every number survives bit-exactly: `to_json` renders floats with
    /// Rust's shortest-round-trip `Display` and this parses them with
    /// `str::parse::<f64>`, so a record cached on disk equals the freshly
    /// computed one — the property the sweep result cache leans on.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_json_value(&crate::json::parse_json(text)?)
    }

    /// [`RunMetrics::from_json`] over an already-parsed [`JsonValue`] (for
    /// callers that embed the record inside a larger document).
    pub fn from_json_value(doc: &JsonValue) -> Result<Self, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_number)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let device = doc
            .get("device")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing string field \"device\"".to_string())?;
        let mut m = RunMetrics::new(
            device,
            num("n_atoms")? as usize,
            num("steps")? as usize,
            num("sim_seconds")?,
        );
        m.schema_version = num("schema_version")? as u32;
        let attribution = doc
            .get("attribution")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| "missing object field \"attribution\"".to_string())?;
        for (name, v) in attribution {
            let s = v
                .as_number()
                .ok_or_else(|| format!("attribution {name:?} is not a number"))?;
            m.push_attribution(name.clone(), s);
        }
        let counters = doc
            .get("counters")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "missing array field \"counters\"".to_string())?;
        for c in counters {
            let field = |key: &str| {
                c.get(key)
                    .ok_or_else(|| format!("counter entry missing {key:?}"))
            };
            let name = field("name")?
                .as_str()
                .ok_or_else(|| "counter \"name\" is not a string".to_string())?;
            let unit = field("unit")?
                .as_str()
                .ok_or_else(|| "counter \"unit\" is not a string".to_string())?;
            let value = field("value")?
                .as_number()
                .ok_or_else(|| format!("counter {name:?} value is not a number"))?;
            m.counters.push((name.to_string(), value, unit.to_string()));
        }
        let derived = doc
            .get("derived")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| "missing object field \"derived\"".to_string())?;
        for (name, v) in derived {
            let value = v
                .as_number()
                .ok_or_else(|| format!("derived {name:?} is not a number"))?;
            m.push_derived(name.clone(), value);
        }
        Ok(m)
    }
}

/// Human-readable engineering formatting for counter values ("3.20 G",
/// "14.1 k"). Unit-agnostic; the caller appends the unit label.
pub fn format_quantity(v: f64) -> String {
    let abs = v.abs();
    if abs >= 1e12 {
        format!("{:.2} T", v / 1e12)
    } else if abs >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if abs >= 1e6 {
        format!("{:.2} M", v / 1e6)
    } else if abs >= 1e3 {
        format!("{:.2} k", v / 1e3)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        let mut m = RunMetrics::new("cell-8spe", 2048, 10, 1.0);
        m.push_attribution("compute", 0.7);
        m.push_attribution("dma_wait", 0.2);
        m.push_attribution("mailbox", 0.1);
        m.counters
            .push(("cell.dma.bytes".to_string(), 4096.0, "bytes".to_string()));
        m.derive_rates(2e9, 25.6e9, 4096.0);
        m
    }

    #[test]
    fn valid_record_passes() {
        let m = sample();
        m.validate().expect("valid");
        assert!((m.attribution_fraction("compute") - 0.7).abs() < 1e-12);
        assert_eq!(m.attribution_seconds("nope"), 0.0);
        assert!((m.derived_value("achieved_gops_per_s") - 2.0).abs() < 1e-12);
        assert!((m.derived_value("utilization") - 2.0 / 25.6).abs() < 1e-12);
    }

    #[test]
    fn attribution_gap_detected() {
        let mut m = sample();
        m.attribution[0].1 = 0.6; // lose 0.1 s
        let err = m.validate().expect_err("gap");
        assert!(err.contains("attribution sums"), "{err}");
    }

    #[test]
    fn tiny_float_slack_tolerated() {
        let mut m = RunMetrics::new("x", 1, 1, 0.3);
        m.push_attribution("a", 0.1);
        m.push_attribution("b", 0.2); // 0.1 + 0.2 != 0.3 exactly in binary
        m.validate().expect("within 1e-9 relative");
    }

    #[test]
    fn json_is_valid_and_versioned() {
        let m = sample();
        let json = m.to_json();
        crate::json::validate_run_metrics_json(&json).expect("schema-valid");
        assert!(json.contains("\"schema_version\": 1"));
    }

    #[test]
    fn wrong_schema_version_rejected() {
        let mut m = sample();
        m.schema_version = 99;
        assert!(m.validate().is_err());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut m = sample();
        // Awkward values: shortest-round-trip rendering must survive both
        // directions bit for bit.
        m.push_derived("third", 1.0 / 3.0);
        m.push_derived("tiny", 5e-324);
        m.push_derived("huge", 1.7976931348623157e308);
        let back = RunMetrics::from_json(&m.to_json()).expect("parses");
        assert_eq!(back, m);
        // And the rendering is a fixed point: serialize → parse → serialize
        // yields the identical byte string.
        assert_eq!(back.to_json(), m.to_json());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(RunMetrics::from_json("{").is_err());
        assert!(RunMetrics::from_json("{}").is_err());
        let err = RunMetrics::from_json("{\"device\": \"x\"}").expect_err("incomplete");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn host_throughput_derives_atom_steps_per_second() {
        let mut m = sample(); // 2048 atoms, 10 steps
        m.record_host_throughput(0.5);
        assert_eq!(m.derived_value("host_wall_seconds"), 0.5);
        assert_eq!(
            m.derived_value("host_atom_steps_per_s"),
            2048.0 * 10.0 / 0.5
        );
        m.validate().expect("still a valid record");
        // Degenerate wall time must not poison the record with NaN/inf.
        let mut z = sample();
        z.record_host_throughput(0.0);
        assert_eq!(z.derived_value("host_atom_steps_per_s"), 0.0);
        z.validate().expect("zero wall time stays finite");
    }

    #[test]
    fn quantity_formatting() {
        assert_eq!(format_quantity(15.6e9), "15.60 G");
        assert_eq!(format_quantity(2048.0), "2.05 k");
        assert_eq!(format_quantity(0.5), "0.50");
    }
}
