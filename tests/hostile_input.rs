//! Loaders never panic on hostile input: `SystemCheckpoint::decode` and the
//! JSON layer (`parse_json`, `RunLedger::parse_jsonl`, and the sweep cache
//! built on them) return typed errors for anything they cannot read.
//!
//! The fuzz properties mutate seed inputs — valid encodings plus the two
//! inputs an unguarded decoder crashes on: a 37-byte MDCP1 header claiming
//! 2⁶¹ atoms (length overflow, then a capacity-overflow panic) and one line
//! of 50,000 `[` (stack overflow in the recursive-descent parser).

use md_core::checkpoint::{SystemCheckpoint, HEADER_BYTES, MAGIC};
use md_core::params::SimConfig;
use proptest::collection::vec;
use proptest::prelude::*;
use sim_obs::{parse_json, RunLedger};
use sim_sweep::{point_key, ResultCache, CODE_VERSION_SALT};
use std::sync::OnceLock;
use vecmath::Vec3;

/// One byte edit: `(position, op, byte)` with `op` 0 = overwrite,
/// 1 = insert, 2 = delete, 3 = truncate. Positions wrap to the input.
type Edit = (usize, u8, u16);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    vec((0usize..1 << 20, 0u8..4, 0u16..256), 0..8)
}

fn mutate(seed: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut out = seed.to_vec();
    for &(pos, op, byte) in edits {
        let at = pos % (out.len() + 1);
        match op {
            0 if at < out.len() => out[at] = byte as u8,
            1 => out.insert(at, byte as u8),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            _ => {}
        }
    }
    out
}

/// The 37-byte header whose atom count (2⁶¹) overflows the payload length.
fn overflowing_header() -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&7u64.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
    bytes.extend_from_slice(&10.0f64.to_le_bytes());
    bytes.extend_from_slice(&1.0f64.to_le_bytes());
    assert_eq!(bytes.len(), HEADER_BYTES);
    bytes
}

fn valid_checkpoint() -> Vec<u8> {
    let v = |i: usize| Vec3::new(i as f64, 0.5 * i as f64, -1.25);
    SystemCheckpoint {
        step: 3,
        positions: (0..4).map(v).collect(),
        velocities: (4..8).map(v).collect(),
        accelerations: (8..12).map(v).collect(),
        box_len: 10.0,
        mass: 1.0,
    }
    .encode()
}

/// Decoding either succeeds on a buffer that re-encodes to the same bytes,
/// or returns a typed error. Panics fail the test.
fn decode_is_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(cp) = SystemCheckpoint::decode(bytes) {
        prop_assert_eq!(cp.encode(), bytes.to_vec());
    }
    Ok(())
}

#[test]
fn checkpoint_seeds_decode_or_fail_cleanly() {
    assert!(SystemCheckpoint::decode(&overflowing_header()).is_err());
    assert!(SystemCheckpoint::decode(&valid_checkpoint()).is_ok());
}

/// A small real ledger's JSONL, the deep-nesting line, and a line that
/// nests one level inside a real event.
fn json_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let sim = SimConfig::reduced_lj(108);
        let (_, ledger) = harness::device_ledger(harness::DeviceKind::Opteron, &sim, 1)
            .expect("the Opteron reference device is infallible");
        let jsonl = ledger.to_jsonl();
        let first = jsonl.lines().next().expect("ledger has a header line");
        let wrapped = format!("{{\"wrapped\": {first}}}");
        vec![jsonl, "[".repeat(50_000), wrapped]
    })
}

#[test]
fn json_seeds_parse_or_fail_cleanly() {
    let seeds = json_seeds();
    assert!(RunLedger::parse_jsonl(&seeds[0]).is_ok());
    assert!(parse_json(&seeds[1]).is_err());
    assert!(RunLedger::parse_jsonl(&seeds[1]).is_err());
    assert!(parse_json(&seeds[2]).is_ok());
}

/// A `results/cache/` entry whose document nests 50,000 deep (inside an
/// otherwise well-formed entry, and as the whole file) is a miss, not a
/// crash.
#[test]
fn deeply_nested_cache_entry_is_a_miss() {
    let dir = std::env::temp_dir().join(format!("mdea-hostile-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);
    let sim = SimConfig::reduced_lj(108);
    let (metrics, _) = harness::device_metrics(harness::DeviceKind::Opteron, &sim, 1)
        .expect("the Opteron reference device is infallible");
    let key = point_key(
        CODE_VERSION_SALT,
        "opteron:hostile",
        "lj:e1,s1/nve/native",
        108,
        1,
    );
    cache.store(&key, &metrics).expect("store");
    assert!(cache.load(&key).is_some(), "a clean entry hits");

    let deep = format!("{}1{}", "[".repeat(50_000), "]".repeat(50_000));
    let path = cache.path_for(&key);
    let nested = format!(
        "{{\"cache_schema\": {}, \"key\": \"{key}\", \"metrics\": {deep}}}",
        sim_sweep::CACHE_SCHEMA_VERSION
    );
    for body in [nested, deep] {
        std::fs::write(&path, body).expect("overwrite entry");
        assert!(cache.load(&key).is_none(), "a hostile entry is a miss");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checkpoint_decode_never_panics_on_random_bytes(
        bytes in vec((0u16..256).prop_map(|b| b as u8), 0..200),
    ) {
        decode_is_total(&bytes)?;
    }

    #[test]
    fn checkpoint_decode_never_panics_on_mutated_encodings(
        seed in 0usize..2,
        edits in edits(),
    ) {
        let seed = [overflowing_header(), valid_checkpoint()][seed].clone();
        decode_is_total(&mutate(&seed, &edits))?;
    }

    #[test]
    fn ledger_parsers_never_panic_on_mutated_lines(seed in 0usize..3, edits in edits()) {
        let seeds = json_seeds();
        let text = String::from_utf8_lossy(&mutate(seeds[seed].as_bytes(), &edits)).into_owned();
        let _ = RunLedger::parse_jsonl(&text);
        for line in text.lines() {
            let _ = parse_json(line);
        }
    }
}
