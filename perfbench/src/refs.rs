//! The committed references every op is checked against, bit for bit.
//!
//! Simulated outputs are deterministic, so a host-speed change must leave
//! them identical: these checks are exact, never tolerances.

use md_core::checkpoint::fnv1a;
use md_core::device::DeviceRun;
use sim_perf::{parse_json, JsonValue};
use std::path::Path;

pub const SUBSTRATE_GOLDEN: &str = "tests/golden/substrate_seed.json";
pub const BENCH_SEED: &str = "BENCH_seed.json";

/// One device's pinned outputs at 2048 atoms × 10 steps, as exact bit
/// patterns (the `substrate-seed-v1` record).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedRecord {
    pub sim_seconds: u64,
    pub kinetic: u64,
    pub potential: u64,
    pub total: u64,
    pub temperature: u64,
    pub state_fnv1a: u64,
}

impl SeedRecord {
    pub fn of_run(run: &DeviceRun) -> Self {
        let cp = &run.checkpoint;
        Self {
            sim_seconds: run.sim_seconds.to_bits(),
            kinetic: run.energies.kinetic.to_bits(),
            potential: run.energies.potential.to_bits(),
            total: run.energies.total.to_bits(),
            temperature: run.energies.temperature.to_bits(),
            state_fnv1a: fnv1a(&cp.encode_domain(0, cp.n())),
        }
    }
}

fn read_json(root: &Path, rel: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
    parse_json(&text).map_err(|e| format!("parse {rel}: {e}"))
}

fn number(doc: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(JsonValue::as_number)
        .ok_or_else(|| format!("{ctx}: missing number {key}"))
}

fn string<'a>(doc: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{ctx}: missing string {key}"))
}

/// `tests/golden/substrate_seed.json`: device label → record. The golden
/// pins 2048 atoms × 10 steps; anything else is refused.
pub fn substrate_golden(root: &Path) -> Result<Vec<(String, SeedRecord)>, String> {
    let doc = read_json(root, SUBSTRATE_GOLDEN)?;
    if number(&doc, "n_atoms", SUBSTRATE_GOLDEN)? != 2048.0
        || number(&doc, "steps", SUBSTRATE_GOLDEN)? != 10.0
    {
        return Err(format!(
            "{SUBSTRATE_GOLDEN}: expected 2048 atoms x 10 steps"
        ));
    }
    let devices = doc
        .get("devices")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| format!("{SUBSTRATE_GOLDEN}: missing devices"))?;
    devices
        .iter()
        .map(|(label, rec)| {
            let field = |name: &str| -> Result<u64, String> {
                let hex = string(rec, name, label)?;
                let digits = hex
                    .strip_prefix("0x")
                    .ok_or_else(|| format!("{label}.{name}: expected 0x-prefixed hex"))?;
                u64::from_str_radix(digits, 16).map_err(|e| format!("{label}.{name}: {e}"))
            };
            Ok((
                label.clone(),
                SeedRecord {
                    sim_seconds: field("sim_seconds")?,
                    kinetic: field("kinetic")?,
                    potential: field("potential")?,
                    total: field("total")?,
                    temperature: field("temperature")?,
                    state_fnv1a: field("state_fnv1a")?,
                },
            ))
        })
        .collect()
}

/// One `BENCH_seed.json` row.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedRow {
    pub figure: String,
    pub device: String,
    pub n_atoms: usize,
    pub sim_seconds: f64,
}

/// `BENCH_seed.json` rows in file order (the order of
/// `sim_sweep::spec::bench_seed()`'s points).
pub fn bench_seed(root: &Path) -> Result<Vec<SeedRow>, String> {
    let doc = read_json(root, BENCH_SEED)?;
    let rows = doc
        .get("benchmarks")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{BENCH_SEED}: missing benchmarks"))?;
    rows.iter()
        .map(|r| {
            Ok(SeedRow {
                figure: string(r, "figure", BENCH_SEED)?.to_string(),
                device: string(r, "device", BENCH_SEED)?.to_string(),
                n_atoms: number(r, "n_atoms", BENCH_SEED)? as usize,
                sim_seconds: number(r, "sim_seconds", BENCH_SEED)?,
            })
        })
        .collect()
}

/// A failure message when `got` and `want` differ in any bit.
pub fn bits_differ(what: &str, got: f64, want: f64) -> Option<String> {
    (got.to_bits() != want.to_bits()).then(|| format!("{what}: got {got:e}, reference {want:e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    #[test]
    fn committed_references_parse() {
        let golden = substrate_golden(repo_root()).expect("golden parses");
        assert_eq!(golden.len(), 4);
        let seed = bench_seed(repo_root()).expect("BENCH_seed parses");
        assert_eq!(seed.len(), sim_sweep::spec::bench_seed().len());
    }

    #[test]
    fn one_flipped_bit_is_a_mismatch() {
        let golden = substrate_golden(repo_root()).expect("golden parses");
        let rec = golden[0].1;
        let flipped = SeedRecord {
            state_fnv1a: rec.state_fnv1a ^ 1,
            ..rec
        };
        assert_ne!(rec, flipped);
        let x = f64::from_bits(rec.sim_seconds);
        assert!(bits_differ("x", x, f64::from_bits(rec.sim_seconds ^ 1)).is_some());
        assert!(bits_differ("x", x, x).is_none());
    }
}
