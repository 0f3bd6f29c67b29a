//! Loaders never panic on hostile input: `SystemCheckpoint::decode`, the
//! JSON layer (`parse_json`, `RunLedger::parse_jsonl` and
//! `RunLedger::validate`, the `RunMetrics` JSON reader and validator, and
//! the sweep cache built on them) and the two text parsers
//! (`ScenarioSpec::from_str`, `DeviceKind::from_str`) return typed errors
//! for anything they cannot read.
//!
//! The fuzz properties mutate seed inputs — valid encodings plus the two
//! inputs an unguarded decoder crashes on: a 37-byte MDCP1 header claiming
//! 2⁶¹ atoms (length overflow, then a capacity-overflow panic) and one line
//! of 50,000 `[` (stack overflow in the recursive-descent parser). The text
//! parsers are seeded with every valid label and canonical spec, plus specs
//! whose parameters are NaN or infinite, and must round-trip every input
//! they accept through `Display`. Whatever a JSON loader accepts must
//! serialize again: the writers assert that every number is finite. Every
//! ledger that parses must also render through every `obs` view (Chrome
//! trace, Prometheus, timeline, diff) without panicking, including a ledger
//! whose phase totals overflow to infinity; a ledger with negative times
//! does not parse.

use harness::DeviceKind;
use md_core::checkpoint::{SystemCheckpoint, HEADER_BYTES, MAGIC};
use md_core::device::HostParallelism;
use md_core::params::SimConfig;
use md_core::scenario::{PrecisionPolicy, ScenarioSpec};
use proptest::collection::vec;
use proptest::prelude::*;
use sim_obs::{
    ledger_diff, ledger_timeline, ledger_to_chrome, ledger_to_prometheus, parse_json, RunLedger,
};
use sim_perf::{validate_run_metrics_json, RunMetrics};
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

/// Append event lines to a ledger's JSONL, fixing up the header count.
fn with_events(jsonl: &str, lines: &[&str]) -> String {
    let n = jsonl.lines().count() - 1;
    let header = jsonl.lines().next().expect("ledger has a header line");
    let mut out = header.replace(
        &format!("\"events\":{n}}}"),
        &format!("\"events\":{}}}", n + lines.len()),
    );
    out.push('\n');
    for line in jsonl.lines().skip(1).chain(lines.iter().copied()) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// A small real ledger's JSONL, the deep-nesting line, a line that nests
/// one level inside a real event, the real ledger plus two phases whose
/// total overflows to infinity (valid, and once a panic in every `obs`
/// view that sums phases), and the real ledger plus a phase at a negative
/// time, then one with a negative duration (both invalid).
fn json_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let sim = SimConfig::reduced_lj(108);
        let (_, ledger) = harness::device_ledger(DeviceKind::Opteron, &sim, 1)
            .expect("the Opteron reference device is infallible");
        let jsonl = ledger.to_jsonl();
        let first = jsonl.lines().next().expect("ledger has a header line");
        let wrapped = format!("{{\"wrapped\": {first}}}");
        let overflowing = with_events(
            &jsonl,
            &[
                r#"{"t_s":0,"kind":"phase","source":"opteron","name":"big","dur_s":1e308}"#,
                r#"{"t_s":1,"kind":"phase","source":"opteron","name":"big","dur_s":1e308}"#,
            ],
        );
        let negative = |line: &str| with_events(&jsonl, &[line]);
        let negative_t = negative(r#"{"t_s":-5,"kind":"phase","source":"opteron","name":"n"}"#);
        let negative_dur =
            negative(r#"{"t_s":5,"kind":"phase","source":"opteron","name":"n","dur_s":-2}"#);
        vec![
            jsonl,
            "[".repeat(50_000),
            wrapped,
            overflowing,
            negative_t,
            negative_dur,
        ]
    })
}

#[test]
fn json_seeds_parse_or_fail_cleanly() {
    let seeds = json_seeds();
    assert!(RunLedger::parse_jsonl(&seeds[0]).is_ok());
    assert!(parse_json(&seeds[1]).is_err());
    assert!(RunLedger::parse_jsonl(&seeds[1]).is_err());
    assert!(parse_json(&seeds[2]).is_ok());
    let overflowing = RunLedger::parse_jsonl(&seeds[3]).expect("huge finite phases are valid");
    assert_eq!(overflowing.phase_total("opteron"), f64::INFINITY);
    ledger_loader_is_total(&seeds[3]).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        ledger_to_chrome(&overflowing).is_err(),
        "1e308 s overflows microseconds"
    );
    assert!(ledger_to_prometheus(&overflowing).contains("phase=\"big\"} +Inf"));
    for (seed, field) in [(&seeds[4], "t_s"), (&seeds[5], "dur_s")] {
        let err = RunLedger::parse_jsonl(seed).expect_err("negative times are invalid");
        assert!(
            err.contains(&format!("{field} must be non-negative")),
            "{err}"
        );
    }
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
    let metrics = harness::device_metrics(DeviceKind::Opteron, &sim, 1, HostParallelism::Serial)
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

/// Every canonical scenario spec, the named default, specs with NaN or
/// infinite parameters and one with the retired `mixed` precision policy;
/// then every parseable device label and alias.
fn text_seeds() -> Vec<String> {
    let mut seeds: Vec<String> = [
        ScenarioSpec::default(),
        ScenarioSpec::morse_nvt(),
        ScenarioSpec::coulomb_cutoff(),
        ScenarioSpec::morse_nvt().with_precision(PrecisionPolicy::ForceF64),
        ScenarioSpec::coulomb_cutoff().with_precision(PrecisionPolicy::ForceF32),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    seeds.extend(
        [
            "default",
            "lj:eNaN,s1",
            "morse:d1,ainf,r1.2/nvt:t0.7,k0.5",
            "coul:q-inf/nve/native",
            "lj:e1,s1/nvt:tNaN,k0.5",
            "lj:e1,s1/nve/mixed",
        ]
        .map(String::from),
    );
    seeds.extend(
        DeviceKind::parseable_roster()
            .iter()
            .map(ToString::to_string),
    );
    seeds.extend(["cell", "gpu", "mta", "mta-full", "mta-partial"].map(String::from));
    seeds
}

/// Both text parsers return `Ok` or `Err` on `text`, and whatever they
/// accept prints back to text that parses to the same value.
fn text_parsers_are_total(text: &str) -> Result<(), TestCaseError> {
    if let Ok(spec) = text.parse::<ScenarioSpec>() {
        prop_assert_eq!(spec.to_string().parse::<ScenarioSpec>(), Ok(spec));
    }
    if let Ok(kind) = text.parse::<DeviceKind>() {
        prop_assert_eq!(kind.to_string().parse::<DeviceKind>(), Ok(kind));
    }
    Ok(())
}

#[test]
fn text_seeds_parse_or_fail_cleanly() {
    let seeds = text_seeds();
    for seed in &seeds {
        text_parsers_are_total(seed).unwrap_or_else(|e| panic!("{seed:?}: {e}"));
    }
    for bad in ["lj:eNaN,s1", "morse:d1,ainf,r1.2/nvt:t0.7,k0.5"] {
        assert!(bad.parse::<ScenarioSpec>().is_err(), "{bad:?} must fail");
    }
    // A retired policy name is a parse error that names the valid ones.
    let err = "lj:e1,s1/nve/mixed"
        .parse::<ScenarioSpec>()
        .expect_err("mixed must fail");
    for policy in ["native", "f32", "f64"] {
        assert!(err.contains(policy), "{err:?} must name {policy}");
    }
    assert!(seeds.iter().any(|s| s.parse::<ScenarioSpec>().is_ok()));
    assert!(seeds.iter().any(|s| s.parse::<DeviceKind>().is_ok()));
    // Very long inputs: a huge number, many segments, a huge SPE count.
    for long in [
        format!("lj:e{},s1", "9".repeat(100_000)),
        format!("lj:e0.{}1,s1", "0".repeat(100_000)),
        "lj:e1,s1/".repeat(20_000),
        ",".repeat(100_000),
        format!("cell-{}spe", "9".repeat(10_000)),
    ] {
        text_parsers_are_total(&long).unwrap_or_else(|e| panic!("{} bytes: {e}", long.len()));
    }
}

/// A ledger the validator accepts parses to events that serialize again,
/// to text the validator accepts, and renders through every `obs` view:
/// the Chrome view is valid JSON or a typed error, and the Prometheus,
/// timeline and diff views (the latter against itself and the real seed
/// ledger) return text.
fn ledger_loader_is_total(text: &str) -> Result<(), TestCaseError> {
    let valid = RunLedger::validate(text).is_ok();
    let parsed = RunLedger::parse_jsonl(text);
    prop_assert_eq!(valid, parsed.is_ok());
    if let Ok(ledger) = parsed {
        prop_assert!(RunLedger::validate(&ledger.to_jsonl()).is_ok());
        if let Ok(json) = ledger_to_chrome(&ledger) {
            prop_assert!(parse_json(&json).is_ok(), "Chrome view is not JSON");
        }
        let _ = ledger_to_prometheus(&ledger);
        let _ = ledger_timeline(&ledger);
        let seed = RunLedger::parse_jsonl(&json_seeds()[0]).expect("seed ledger parses");
        let _ = ledger_diff(&ledger, &ledger);
        let _ = ledger_diff(&seed, &ledger);
    }
    Ok(())
}

/// Two real `RunMetrics` documents: an Opteron run and a Cell run, which
/// carry different attribution and counter sets.
fn metrics_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let sim = SimConfig::reduced_lj(108);
        ["opteron", "cell-8spe"]
            .map(|label| {
                let kind: DeviceKind = label.parse().expect("a roster label");
                harness::device_metrics(kind, &sim, 1, HostParallelism::Serial)
                    .expect("a 108-atom run succeeds")
                    .to_json()
            })
            .to_vec()
    })
}

/// Both `RunMetrics` readers return `Ok` or `Err`; a record that parses and
/// validates serializes again and parses back to itself.
fn metrics_loaders_are_total(text: &str) -> Result<(), TestCaseError> {
    let _ = validate_run_metrics_json(text);
    if let Ok(m) = RunMetrics::from_json(text) {
        if m.validate().is_ok() {
            prop_assert_eq!(RunMetrics::from_json(&m.to_json()), Ok(m));
        }
    }
    Ok(())
}

#[test]
fn metrics_and_ledger_seeds_load() {
    for seed in metrics_seeds() {
        assert!(validate_run_metrics_json(seed).is_ok());
        metrics_loaders_are_total(seed).unwrap_or_else(|e| panic!("{e}"));
    }
    ledger_loader_is_total(&json_seeds()[0]).unwrap_or_else(|e| panic!("{e}"));
}

/// The key and text of a stored cache entry holding the Opteron seed record.
fn cache_entry_seed() -> &'static (String, String) {
    static ENTRY: OnceLock<(String, String)> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mdea-fuzz-seed-{}", std::process::id()));
        let cache = ResultCache::new(&dir);
        let key = point_key(
            CODE_VERSION_SALT,
            "opteron:fuzz",
            "lj:e1,s1/nve/native",
            108,
            1,
        );
        let metrics = RunMetrics::from_json(&metrics_seeds()[0]).expect("seed parses");
        cache.store(&key, &metrics).expect("store");
        let body = std::fs::read_to_string(cache.path_for(&key)).expect("read entry");
        let _ = std::fs::remove_dir_all(&dir);
        (key, body)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn text_parsers_never_panic_on_mutated_seeds(
        seed in 0usize..64,
        edits in edits(),
        repeats in (0usize..4, 1usize..2000),
    ) {
        let seeds = text_seeds();
        let seed = &seeds[seed % seeds.len()];
        let text = String::from_utf8_lossy(&mutate(seed.as_bytes(), &edits)).into_owned();
        // One case in four repeats the mutant into a long input.
        let text = if repeats.0 == 0 { text.repeat(repeats.1) } else { text };
        text_parsers_are_total(&text)?;
    }

    #[test]
    fn text_parsers_never_panic_on_random_bytes(
        bytes in vec((0u16..256).prop_map(|b| b as u8), 0..200),
    ) {
        text_parsers_are_total(&String::from_utf8_lossy(&bytes))?;
    }

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
    fn ledger_parsers_never_panic_on_mutated_lines(seed in 0usize..6, edits in edits()) {
        let seeds = json_seeds();
        let text = String::from_utf8_lossy(&mutate(seeds[seed].as_bytes(), &edits)).into_owned();
        for line in text.lines() {
            let _ = parse_json(line);
        }
        ledger_loader_is_total(&text)?;
    }

    #[test]
    fn metrics_loaders_never_panic_on_mutated_records(seed in 0usize..2, edits in edits()) {
        let seed = &metrics_seeds()[seed];
        metrics_loaders_are_total(&String::from_utf8_lossy(&mutate(seed.as_bytes(), &edits)))?;
    }

    /// A mutated cache entry loads as a miss or as a record that validates.
    #[test]
    fn mutated_cache_entries_miss_or_load_valid_records(edits in edits()) {
        let (key, body) = cache_entry_seed();
        let dir = std::env::temp_dir().join(format!("mdea-fuzz-cache-{}", std::process::id()));
        let cache = ResultCache::new(&dir);
        std::fs::create_dir_all(&dir).expect("cache dir");
        std::fs::write(cache.path_for(key), mutate(body.as_bytes(), &edits)).expect("write entry");
        let loaded = cache.load(key);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(m) = loaded {
            prop_assert!(m.validate().is_ok());
        }
    }
}
