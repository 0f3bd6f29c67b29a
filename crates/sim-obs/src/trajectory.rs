//! The cross-PR performance history: `BENCH_trajectory.json`.
//!
//! Every `bench_seed` invocation appends one entry here, so the repo
//! accumulates a speed trajectory instead of overwriting a single snapshot.
//! This module owns the only `SystemTime` call in the telemetry stack —
//! the timestamp is stamped at append time, inside the observer layer,
//! never inside an engine crate.

use crate::json::{escape_json_string, json_f64, parse_json, JsonValue};
use std::fmt::Write as _;
use std::path::Path;

pub const TRAJECTORY_SCHEMA_VERSION: u32 = 1;

/// One appended measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectoryEntry {
    /// Unix seconds when the entry was recorded (0 when unstamped).
    pub recorded_unix_s: u64,
    /// Device label the host run measured.
    pub device: String,
    pub n_atoms: u64,
    pub steps: u64,
    /// Simulated seconds — bitwise-stable across hosts.
    pub sim_seconds: f64,
    /// Best-of host wall seconds for the run.
    pub host_wall_seconds: f64,
    pub host_atom_steps_per_s: f64,
    /// Free-form provenance note ("bench_seed host-bench, best of 3").
    pub note: String,
}

impl TrajectoryEntry {
    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"recorded_unix_s\":{},\"device\":\"{}\",\"n_atoms\":{},\"steps\":{},\
             \"sim_seconds\":{},\"host_wall_seconds\":{},\"host_atom_steps_per_s\":{},\
             \"note\":\"{}\"}}",
            self.recorded_unix_s,
            escape_json_string(&self.device),
            self.n_atoms,
            self.steps,
            json_f64(self.sim_seconds),
            json_f64(self.host_wall_seconds),
            json_f64(self.host_atom_steps_per_s),
            escape_json_string(&self.note),
        );
        out
    }

    fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let int = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_number)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("entry missing integer {key}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_number)
                .ok_or_else(|| format!("entry missing number {key}"))
        };
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry missing string {key}"))
        };
        Ok(TrajectoryEntry {
            recorded_unix_s: int("recorded_unix_s")?,
            device: text("device")?,
            n_atoms: int("n_atoms")?,
            steps: int("steps")?,
            sim_seconds: num("sim_seconds")?,
            host_wall_seconds: num("host_wall_seconds")?,
            host_atom_steps_per_s: num("host_atom_steps_per_s")?,
            note: text("note")?,
        })
    }
}

/// Parse a trajectory file's entries.
pub fn parse_trajectory(text: &str) -> Result<Vec<TrajectoryEntry>, String> {
    let doc = parse_json(text).map_err(|e| format!("BENCH_trajectory.json: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(JsonValue::as_number)
        .ok_or("trajectory missing schema_version")?;
    if version != f64::from(TRAJECTORY_SCHEMA_VERSION) {
        return Err(format!(
            "unsupported trajectory schema_version {version} (expected {TRAJECTORY_SCHEMA_VERSION})"
        ));
    }
    doc.get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("trajectory missing entries array")?
        .iter()
        .map(TrajectoryEntry::from_json_value)
        .collect()
}

/// Serialize a full trajectory file.
pub fn render_trajectory(entries: &[TrajectoryEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": {TRAJECTORY_SCHEMA_VERSION},");
    let _ = writeln!(
        out,
        "  \"description\": \"Append-only host-performance history; one entry per bench_seed invocation. Simulated seconds are bitwise-stable; host numbers are machine-dependent.\","
    );
    let _ = writeln!(out, "  \"entries\": [");
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", entry.to_json());
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Stamp `recorded_unix_s` with the current wall clock. Lives here — and
/// only here — so engine crates never touch `SystemTime`.
#[expect(
    clippy::disallowed_methods,
    reason = "the trajectory timestamp is the one wall-clock date the telemetry stack records"
)]
pub fn stamp_now(entry: &mut TrajectoryEntry) {
    entry.recorded_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
}

/// Append one entry to the trajectory file at `path`, stamping it with the
/// current time. Creates the file if absent; existing entries are preserved
/// and re-rendered.
pub fn append_entry(path: &Path, mut entry: TrajectoryEntry) -> Result<(), String> {
    stamp_now(&mut entry);
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => parse_trajectory(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    entries.push(entry);
    std::fs::write(path, render_trajectory(&entries))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> TrajectoryEntry {
        TrajectoryEntry {
            recorded_unix_s: 1_700_000_000,
            device: "opteron".to_string(),
            n_atoms: 2048,
            steps: 10,
            sim_seconds: 0.41,
            host_wall_seconds: 0.21,
            host_atom_steps_per_s: 97_000.0,
            note: "best of 3".to_string(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let entries = vec![sample_entry(), {
            let mut e = sample_entry();
            e.device = "cell-8spe".to_string();
            e
        }];
        let text = render_trajectory(&entries);
        let back = parse_trajectory(&text).expect("parses");
        assert_eq!(back, entries);
    }

    #[test]
    fn empty_trajectory_is_valid() {
        let text = render_trajectory(&[]);
        assert!(parse_trajectory(&text).expect("parses").is_empty());
    }

    #[test]
    fn append_creates_then_extends() {
        let dir = std::env::temp_dir().join(format!("obs-traj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_trajectory.json");
        let _ = std::fs::remove_file(&path);
        append_entry(&path, sample_entry()).expect("first append");
        append_entry(&path, sample_entry()).expect("second append");
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = parse_trajectory(&text).expect("parses");
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.recorded_unix_s > 0), "stamped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_unknown_schema() {
        assert!(parse_trajectory("{\"schema_version\": 99, \"entries\": []}").is_err());
    }
}
