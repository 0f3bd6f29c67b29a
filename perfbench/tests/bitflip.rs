//! A committed reference with one bit flipped must fail the run: the result
//! object reports failed ops and the process exits non-zero. The same run
//! against an intact copy passes, so the flip is what fails it.

use std::path::Path;
use std::process::Command;

const GOLDEN: &str = "tests/golden/substrate_seed.json";

/// Copy the single-2048 reference into `dir`, flipping the lowest bit of the
/// Opteron state hash when `flip` is set, and run the benchmark there.
fn run_in(dir: &Path, flip: bool) -> (bool, String) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut golden = std::fs::read_to_string(repo.join(GOLDEN)).expect("read golden");
    if flip {
        let opteron = golden.find("\"opteron\"").expect("opteron record");
        let field = opteron
            + golden[opteron..]
                .find("\"state_fnv1a\": \"0x")
                .expect("hash field");
        let last = field + golden[field..].find("\"}").expect("hash end") - 1;
        let digit = u8::from_str_radix(&golden[last..=last], 16).expect("hex digit") ^ 1;
        golden.replace_range(last..=last, &format!("{digit:x}"));
    }
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("tests/golden")).expect("scratch dir");
    std::fs::write(dir.join(GOLDEN), golden).expect("write golden");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "single-2048",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .current_dir(dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

#[test]
fn one_flipped_reference_bit_fails_the_run() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));

    let (ok, result) = run_in(&tmp.join("intact"), false);
    assert!(ok, "intact references must pass: {result}");
    assert!(
        result.contains("\"correct\": true") && result.contains("\"failed\": 0,"),
        "{result}"
    );

    let (ok, result) = run_in(&tmp.join("flipped"), true);
    assert!(!ok, "a flipped reference bit must give a non-zero exit");
    assert!(result.contains("\"correct\": false"), "{result}");
    assert!(
        !result.contains("\"failed\": 0,"),
        "error_rate must be above 0: {result}"
    );
}
