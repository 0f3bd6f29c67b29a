//! `mdea run` end to end through the built binary.

use md_core::checkpoint::SystemCheckpoint;
use std::process::Command;

/// `mdea run --checkpoint FILE` writes an `MDCP1` checkpoint of the final
/// state that `SystemCheckpoint::decode` reads back.
#[test]
fn run_checkpoint_is_a_decodable_mdcp1_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mdea_run.ckpt");
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_mdea"))
        .args(["run", "--atoms", "108", "--steps", "7", "--checkpoint"])
        .arg(&path)
        .output()
        .expect("mdea runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bytes = std::fs::read(&path).expect("checkpoint written");
    let cp = SystemCheckpoint::decode(&bytes).expect("an MDCP1 checkpoint");
    assert_eq!(cp.step, 7);
    assert_eq!(cp.n(), 108);
    assert!(cp.restore::<f64>().is_finite(), "finite final state");
}

/// A trajectory write that fails only when the buffered frames are flushed
/// at the end of the run (`/dev/full` accepts the open, refuses the bytes)
/// is reported and fails the run.
#[cfg(target_os = "linux")]
#[test]
fn run_reports_a_failed_xyz_write() {
    let out = Command::new(env!("CARGO_BIN_EXE_mdea"))
        .args([
            "run",
            "--atoms",
            "108",
            "--steps",
            "10",
            "--xyz",
            "/dev/full",
        ])
        .output()
        .expect("mdea runs");
    assert!(!out.status.success(), "a lost trajectory must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error writing XYZ"), "{stderr}");
}
