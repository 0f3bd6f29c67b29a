//! Tier-1 guarantees for the sim-vet v2 analysis engine (DESIGN.md §13):
//! the seeded-violation fixture corpus stays green, the cache-token rule
//! actually bites when `DeviceKind::cache_token` drops a cost-model field,
//! and the machine-readable reports keep their published shape.

use sim_vet::{analyze_sources, discover_targets, Rule};
use std::collections::BTreeMap;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The workspace exactly as `scan_workspace` sees it: discovered targets
/// plus every non-fixture `.rs` file, read into memory so tests can mutate
/// individual sources before analysis.
fn workspace_sources() -> (Vec<(String, String)>, Vec<sim_vet::Target>) {
    let root = workspace_root();
    let targets = discover_targets(root).expect("discover targets");
    let mut files = Vec::new();
    sim_vet::discover::collect_rs_files(root, root, &mut files).expect("walk workspace");
    files.sort();
    let sources = files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(root.join(&path)).expect("read source");
            (path, text)
        })
        .collect();
    (sources, targets)
}

#[test]
fn selfcheck_fixture_corpus_passes() {
    let dir = workspace_root().join("crates/sim-vet/fixtures");
    let outcome = sim_vet::selfcheck::run(&dir).expect("read fixtures");
    assert!(outcome.ok(), "selfcheck failures: {:#?}", outcome.failures);
    // One fixture per new rule at minimum, each seeding real expectations.
    assert!(outcome.fixtures >= 4, "only {} fixtures", outcome.fixtures);
    assert!(
        outcome.expectations >= 8,
        "only {} expectations",
        outcome.expectations
    );
}

#[test]
fn workspace_is_clean_under_v2_rules() {
    let report = sim_vet::scan_workspace(workspace_root()).expect("scan workspace");
    let unwaived: Vec<_> = report.unwaived().collect();
    assert!(unwaived.is_empty(), "unwaived findings: {unwaived:#?}");
    assert!(report.files_scanned >= 100, "{}", report.files_scanned);
    // The waiver inventory is real (some exceptions exist) and contains no
    // dead entries — `dead-waiver` findings would be unwaived and caught
    // above, so here we just pin that waivers are exercised at all.
    assert!(report.waived().count() > 0);
}

/// The acceptance-criterion mutation test: deleting any single cost-model
/// field mention from `DeviceKind::cache_token` must produce a `cache-token`
/// finding whose span is the struct field's *definition* line.
#[test]
fn deleting_any_cache_token_field_mention_fails_the_lint() {
    let (sources, targets) = workspace_sources();
    let baseline = analyze_sources(&sources, &targets);
    assert!(baseline.is_clean(), "baseline not clean");

    // One representative field per cost-model struct family the token
    // encodes: Cell hardware, SPE costs, GPU, MTA, Opteron. A "deleted
    // field" loses its whole encoding: the format-string key segment AND
    // the argument that reads it.
    let mutations: [(&str, &[&str]); 5] = [
        (
            "dma_latency_cycles",
            &["dma_lat={},", "c.dma_latency_cycles,"],
        ),
        ("lj_eval", &["lj={},", "k.lj_eval,"]),
        ("jit_startup_s", &["jit={},", "g.jit_startup_s,"]),
        ("sync_instructions", &["sync={},", "m.sync_instructions,"]),
        ("prefetch", &["prefetch={},", "o.prefetch,"]),
    ];
    let device_rs = "crates/harness/src/device.rs";
    for (field, mentions) in mutations {
        let mut mutated = sources.clone();
        let (_, text) = mutated
            .iter_mut()
            .find(|(p, _)| p == device_rs)
            .expect("harness device.rs present");
        for mention in mentions {
            assert!(
                text.contains(mention),
                "expected `{mention}` in {device_rs}"
            );
            *text = text.replacen(mention, "", 1);
        }

        let report = analyze_sources(&mutated, &targets);
        let hit = report
            .findings
            .iter()
            .find(|f| f.rule == Rule::CacheToken && !f.waived && f.message.contains(field))
            .unwrap_or_else(|| panic!("no cache-token finding for `{field}`"));
        // The span points at the field definition, not at cache_token().
        assert_ne!(hit.path, device_rs, "{field}: {hit:?}");
        let (_, def_src) = mutated
            .iter()
            .find(|(p, _)| *p == hit.path)
            .unwrap_or_else(|| panic!("{field}: finding path {} not scanned", hit.path));
        let def_line = def_src.lines().nth(hit.line - 1).unwrap_or("");
        assert!(
            def_line.contains(field),
            "{field}: line {} of {} is `{def_line}`",
            hit.line,
            hit.path
        );
    }
}

/// A seeded report both machine formats are checked against: one unwaived
/// precision finding, one waived cost-conservation finding.
fn seeded_report() -> sim_vet::Report {
    let src = "const K: f64 = 1.0;\n\
               pub fn zero(b: &mut [f32]) {} // sim-vet: allow(cost-conservation): test seam\n";
    let sources = vec![("crates/gpu/src/shader.rs".to_string(), src.to_string())];
    analyze_sources(&sources, &[])
}

#[test]
fn json_report_is_parseable_and_complete() {
    let report = seeded_report();
    let parsed = sim_perf::parse_json(&sim_vet::output::to_json(&report)).expect("valid JSON");
    assert_eq!(
        parsed.get("files_scanned").and_then(|v| v.as_number()),
        Some(1.0)
    );
    let findings = parsed
        .get("findings")
        .and_then(|v| v.as_array())
        .expect("findings array");
    assert_eq!(findings.len(), report.findings.len());
    for (json, finding) in findings.iter().zip(&report.findings) {
        assert_eq!(
            json.get("rule").and_then(|v| v.as_str()),
            Some(finding.rule.name())
        );
        assert_eq!(
            json.get("line").and_then(|v| v.as_number()),
            Some(finding.line as f64)
        );
        assert!(json.get("waived").is_some());
    }
}

#[test]
fn sarif_report_matches_2_1_0_shape() {
    let report = seeded_report();
    let parsed = sim_perf::parse_json(&sim_vet::output::to_sarif(&report)).expect("valid JSON");
    assert!(parsed
        .get("$schema")
        .and_then(|v| v.as_str())
        .is_some_and(|s| s.contains("sarif") && s.contains("2.1.0")));
    assert_eq!(
        parsed.get("version").and_then(|v| v.as_str()),
        Some("2.1.0")
    );

    let runs = parsed.get("runs").and_then(|v| v.as_array()).expect("runs");
    assert_eq!(runs.len(), 1);
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(driver.get("name").and_then(|v| v.as_str()), Some("sim-vet"));
    // Every rule ships in the driver's rule catalog with a stable ID.
    let rules = driver
        .get("rules")
        .and_then(|v| v.as_array())
        .expect("rules");
    assert_eq!(rules.len(), Rule::ALL.len());
    for (entry, rule) in rules.iter().zip(Rule::ALL) {
        assert_eq!(entry.get("id").and_then(|v| v.as_str()), Some(rule.name()));
        assert!(entry
            .get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(|v| v.as_str())
            .is_some_and(|t| !t.is_empty()));
    }

    let results = runs[0]
        .get("results")
        .and_then(|v| v.as_array())
        .expect("results");
    assert_eq!(results.len(), report.findings.len());
    let rule_ids: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
    let mut suppressed = 0;
    for r in results {
        let id = r.get("ruleId").and_then(|v| v.as_str()).expect("ruleId");
        assert!(rule_ids.contains(&id), "unknown ruleId {id}");
        assert!(r
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(|v| v.as_str())
            .is_some_and(|t| !t.is_empty()));
        let phys = r
            .get("locations")
            .and_then(|v| v.as_array())
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .expect("physicalLocation");
        assert!(phys
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(|v| v.as_str())
            .is_some_and(|u| !u.is_empty()));
        let region = phys.get("region").expect("region");
        assert!(region
            .get("startLine")
            .and_then(|v| v.as_number())
            .is_some_and(|n| n >= 1.0));
        assert!(region
            .get("startColumn")
            .and_then(|v| v.as_number())
            .is_some_and(|n| n >= 1.0));
        if let Some(sup) = r.get("suppressions").and_then(|v| v.as_array()) {
            assert!(sup
                .iter()
                .all(|s| s.get("kind").and_then(|v| v.as_str()) == Some("inSource")));
            suppressed += 1;
        }
    }
    // The seeded waived finding surfaces as an inSource suppression.
    assert_eq!(suppressed, report.waived().count());
    assert!(suppressed >= 1);
}

/// The shipped `[package.metadata.simvet]` profiles and the built-in
/// path-prefix fallback must agree, so a manifest-less copy of the tree
/// (or a unit test using `scan_source`) lints identically.
#[test]
fn manifest_profiles_agree_with_builtin_fallback() {
    let (_, targets) = workspace_sources();
    assert!(!targets.is_empty(), "no targets discovered");
    let by_dir: BTreeMap<&str, &sim_vet::Target> =
        targets.iter().map(|t| (t.dir.as_str(), t)).collect();
    // Every member carries a recognized profile (no target-discovery debt).
    for t in &targets {
        assert!(
            t.profile.is_some(),
            "{} has no recognized simvet profile ({:?})",
            t.dir,
            t.bad_profile
        );
    }
    for (dir, t) in by_dir {
        let probe = format!("{dir}/src/__probe__.rs");
        let (builtin, _) = sim_vet::rules::builtin_profile(&probe);
        assert_eq!(
            t.profile,
            Some(builtin),
            "profile mismatch for {dir}: manifest {:?} vs builtin {builtin:?}",
            t.profile
        );
        for module in &t.f32_kernel_modules {
            let (_, f32_kernel) = sim_vet::rules::builtin_profile(module);
            assert!(f32_kernel, "builtin map misses f32 kernel {module}");
            assert!(
                sim_vet::applicable_rules(module).contains(&Rule::PrecisionDiscipline),
                "{module} lost precision-discipline"
            );
        }
        for module in &t.shared_eval_modules {
            assert!(
                sim_vet::rules::builtin_shared_eval(module),
                "builtin map misses shared-eval module {module}"
            );
            assert!(
                sim_vet::applicable_rules(module).contains(&Rule::EvalPurity),
                "{module} lost eval-purity"
            );
        }
    }
}

#[test]
fn rule_ids_are_stable_and_round_trip() {
    for rule in Rule::ALL {
        let name = rule.name();
        assert!(
            name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
            "{name}"
        );
        assert_eq!(Rule::from_name(name), Some(rule));
        assert!(!rule.description().is_empty());
    }
    assert_eq!(Rule::from_name("no-such-rule"), None);
}
