//! Tier-1 gate for the `sim-vet` invariant linter and the Cell DMA/mailbox
//! hazard checker.
//!
//! Two halves:
//!
//! 1. **The shipped tree is lint-clean.** `scan_workspace` over the repo root
//!    must report zero unwaived findings — the same check `cargo run -p
//!    sim-vet` performs in CI. Seeded violations of all five rules must be
//!    *detected* (the linter is alive, not vacuously clean), and inline
//!    waivers must suppress exactly the findings they name.
//!
//! 2. **The hazard checker catches an injected race.** A DMA `get` whose tag
//!    is never waited on before compute reads the buffer is the classic Cell
//!    porting bug; the checker must flag it, surface it as a typed hazard,
//!    and emit it onto the trace timeline — while the shipped device port
//!    stays hazard-free.

use sim_vet::{scan_source, scan_workspace, Rule};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn shipped_tree_has_no_unwaived_findings() {
    let report = scan_workspace(repo_root()).expect("workspace scan");
    let unwaived: Vec<String> = report.unwaived().map(ToString::to_string).collect();
    assert!(
        unwaived.is_empty(),
        "sim-vet found unwaived violations:\n{}",
        unwaived.join("\n")
    );
    assert!(
        report.files_scanned >= 100,
        "scan looks truncated: only {} files",
        report.files_scanned
    );
    // The tree exercises the waiver machinery (kernel DP section etc.), so a
    // scanner that silently stopped matching would show zero waived too.
    assert!(
        report.waived().count() > 0,
        "expected at least one waived finding in the shipped tree"
    );
}

#[test]
fn seeded_precision_violation_detected() {
    let src = "pub fn lj(r2: f32) -> f32 {\n    let e: f64 = 4.0;\n    (e as f32) * r2\n}\n";
    let found = scan_source("crates/gpu/src/shader.rs", src);
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::PrecisionDiscipline && f.line == 2 && !f.waived),
        "{found:?}"
    );
    // The same source outside an f32 kernel module is not precision-checked.
    assert!(scan_source("crates/gpu/src/device.rs", src)
        .iter()
        .all(|f| f.rule != Rule::PrecisionDiscipline));
}

#[test]
fn seeded_determinism_violation_detected() {
    let src = "use std::collections::HashMap;\npub fn tally() -> usize { 0 }\n";
    let found = scan_source("crates/mta/src/kernel.rs", src);
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::Determinism && f.line == 1 && !f.waived),
        "{found:?}"
    );
}

#[test]
fn seeded_unordered_reduction_violation_detected() {
    // The host-parallel contract (DESIGN.md §12): lane work is an
    // order-preserving map, every reduction folds serially. A pool-side
    // `sum()` makes float accumulation order depend on work stealing.
    let src = "pub fn pe(rows: &[f32]) -> f32 {\n    rows.par_iter().sum::<f32>()\n}\n";
    let found = scan_source("crates/opteron/src/cpu.rs", src);
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::Determinism && f.line == 2 && !f.waived),
        "{found:?}"
    );
    // The sweep engine is held to the same rule…
    let spawn = "pub fn go() {\n    rayon::spawn(|| {});\n}\n";
    assert!(scan_source("crates/sim-sweep/src/engine.rs", spawn)
        .iter()
        .any(|f| f.rule == Rule::Determinism && f.line == 2 && !f.waived));
    // …but an order-preserving map into a serial fold is the sanctioned shape.
    let ok = "pub fn pe(rows: &[Row]) -> Vec<Out> {\n    rows.par_iter().map(run).collect()\n}\n";
    assert!(scan_source("crates/opteron/src/cpu.rs", ok)
        .iter()
        .all(|f| f.rule != Rule::Determinism));
}

#[test]
fn seeded_panic_violation_detected() {
    let src = "pub fn pick(v: &[f32]) -> f32 {\n    *v.first().unwrap()\n}\n";
    let found = scan_source("crates/cell-be/src/dma.rs", src);
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::PanicDiscipline && f.line == 2 && !f.waived),
        "{found:?}"
    );
}

#[test]
fn seeded_cost_violation_detected() {
    let src = "pub fn scribble(buf: &mut [f32]) {\n    buf[0] = 0.0;\n}\n";
    let found = scan_source("crates/opteron/src/cache.rs", src);
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::CostConservation && f.line == 1 && !f.waived),
        "{found:?}"
    );
}

#[test]
fn seeded_observer_purity_violation_detected() {
    let src = "pub fn sample(spe: &mut Spe) -> f64 {\n    spe.charge(4.0);\n    spe.cycles()\n}\n";
    let found = scan_source("crates/sim-perf/src/counter.rs", src);
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::ObserverPurity && f.line == 2 && !f.waived),
        "{found:?}"
    );
    // The run-ledger crate is held to the same purity rule: observation
    // (ledger-on) must stay bitwise-identical to ledger-off.
    let obs = scan_source("crates/sim-obs/src/ledger.rs", src);
    assert!(
        obs.iter()
            .any(|f| f.rule == Rule::ObserverPurity && f.line == 2 && !f.waived),
        "{obs:?}"
    );
    // The same call inside a device crate is legitimate cost accounting.
    assert!(scan_source("crates/cell-be/src/spe.rs", src)
        .iter()
        .all(|f| f.rule != Rule::ObserverPurity));
}

#[test]
fn seeded_eval_purity_violation_detected() {
    // Physics-once execution (DESIGN.md §17): the shared evaluator computes
    // physics only; charging simulated time there would double-count it into
    // every device that replays the result.
    let src = "pub fn row(spe: &mut Spe, r2: f32) -> f32 {\n    spe.charge(4.0);\n    r2\n}\n";
    let found = scan_source("crates/md-core/src/shared_eval.rs", src);
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::EvalPurity && f.line == 2 && !f.waived),
        "{found:?}"
    );
    // Sibling md-core modules and device replay layers charge legitimately.
    assert!(scan_source("crates/md-core/src/lj.rs", src)
        .iter()
        .all(|f| f.rule != Rule::EvalPurity));
    assert!(scan_source("crates/cell-be/src/kernel.rs", src)
        .iter()
        .all(|f| f.rule != Rule::EvalPurity));
}

#[test]
fn waiver_suppresses_exactly_its_rule() {
    let src = "use std::collections::HashMap; // sim-vet: allow(determinism): keyed by atom id, drained sorted\npub fn pick(v: &[f32]) -> f32 { *v.first().unwrap() }\n";
    let found = scan_source("crates/mta/src/kernel.rs", src);
    let det = found
        .iter()
        .find(|f| f.rule == Rule::Determinism)
        .expect("determinism finding");
    assert!(det.waived, "inline waiver must cover its line");
    let panic = found
        .iter()
        .find(|f| f.rule == Rule::PanicDiscipline)
        .expect("panic finding");
    assert!(
        !panic.waived,
        "waiver for one rule must not leak to another"
    );
}

/// The binary's failure path: a tree with a seeded violation scans unclean,
/// with a `file:line` diagnostic — exactly what makes `sim-vet` exit nonzero.
#[test]
fn seeded_tree_scans_unclean_with_file_line_diagnostic() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim-vet-seeded");
    let kernel_dir = dir.join("crates/gpu/src");
    std::fs::create_dir_all(&kernel_dir).expect("mkdir");
    std::fs::write(
        kernel_dir.join("shader.rs"),
        "pub fn lj(x: f32) -> f64 {\n    f64::from(x)\n}\n",
    )
    .expect("write seeded file");
    let report = scan_workspace(&dir).expect("scan seeded tree");
    assert!(!report.is_clean(), "seeded violation must fail the scan");
    let diag = report.unwaived().next().expect("diagnostic").to_string();
    assert!(diag.contains("crates/gpu/src/shader.rs:1:"), "{diag}");
    assert!(diag.contains("[precision-discipline]"), "{diag}");
    std::fs::remove_dir_all(&dir).ok();
}

mod hazard {
    use cell_be::hazard::{Dir, HazardChecker};
    use cell_be::LsRegion;

    #[test]
    fn injected_missing_tag_wait_is_detected_and_traced() {
        // Double-buffered get without the tag wait: buffer B is read while
        // its transfer is still in flight.
        let buf_a = LsRegion {
            offset: 0,
            len: 4096,
        };
        let buf_b = LsRegion {
            offset: 4096,
            len: 4096,
        };
        let mut hz = HazardChecker::new();
        hz.dma_issue(0, Dir::Get, buf_a);
        hz.tag_wait(0);
        hz.dma_issue(1, Dir::Get, buf_b);
        hz.compute_read(buf_a); // fine: tag 0 completed
        hz.compute_read(buf_b); // race: tag 1 still in flight
        assert_eq!(hz.hazards().len(), 1, "{:?}", hz.hazards());
        assert_eq!(hz.hazards()[0].kind(), "read-before-get");

        let mut trace = sim_obs::ChromeTrace::new();
        let emitted = hz.emit_to_trace(&mut trace, 2, 0.0015);
        assert_eq!(emitted, 1);
        let json = trace.render();
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("read-before-get"), "{json}");
    }

    #[test]
    fn shipped_cell_port_runs_hazard_free() {
        use cell_be::{CellBeDevice, CellRunConfig};
        let sim = md_core::params::SimConfig::reduced_lj(256);
        let device = CellBeDevice::paper_blade();
        let mut trace = sim_obs::ChromeTrace::new();
        device
            .run_md_traced(&sim, 3, CellRunConfig::best(), &mut trace)
            .expect("traced run");
        // The instrumented run emits every detected hazard as an instant
        // marker; a disciplined issue→wait→compute schedule emits none.
        let json = trace.render();
        assert!(trace.span_count() > 0);
        assert!(!json.contains("\"name\":\"hazard:"), "{json}");
    }
}
