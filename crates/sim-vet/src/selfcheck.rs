//! Fixture selfcheck: proves the linter still *detects* what it claims to.
//!
//! Each file in `crates/sim-vet/fixtures/` is a seeded-violation corpus:
//!
//! - a `//! vet-path: <workspace-relative path>` header assigns the virtual
//!   path the fixture is linted under (scoping is path-based);
//! - every line carrying `vet-expect(rule)` in a comment must produce an
//!   unwaived finding of exactly that rule on that line;
//! - any unwaived finding *not* marked with `vet-expect` is a failure.
//!
//! A linter bug that silences a rule breaks the expectation; a rule that
//! starts over-firing breaks the no-unexpected check. CI runs this as the
//! `sim-vet --selfcheck` step; the tier-1 suite runs the same function.

use crate::{analyze_sources, Rule};
use std::collections::BTreeSet;
use std::path::Path;

/// Outcome of a fixture selfcheck run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub fixtures: usize,
    pub expectations: usize,
    /// Human-readable failures; empty means the corpus passed.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run the selfcheck over every `.rs` fixture in `dir`.
pub fn run(dir: &Path) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    names.sort();
    if names.is_empty() {
        outcome
            .failures
            .push(format!("no fixtures found in {}", dir.display()));
        return Ok(outcome);
    }
    for path in names {
        let text = std::fs::read_to_string(&path)?;
        let fixture = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        outcome.fixtures += 1;
        check_fixture(&fixture, &text, &mut outcome);
    }
    Ok(outcome)
}

/// Check one fixture source (exposed for in-memory tests).
pub fn check_fixture(fixture: &str, text: &str, outcome: &mut Outcome) {
    let Some(vpath) = text.lines().find_map(|l| {
        l.trim()
            .strip_prefix("//! vet-path:")
            .map(|p| p.trim().to_string())
    }) else {
        outcome
            .failures
            .push(format!("{fixture}: missing `//! vet-path:` header"));
        return;
    };

    let mut expected: BTreeSet<(Rule, usize)> = BTreeSet::new();
    for (idx, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("vet-expect(") {
            rest = &rest[pos + "vet-expect(".len()..];
            let Some(close) = rest.find(')') else { break };
            let name = rest[..close].trim();
            match Rule::from_name(name) {
                Some(rule) => {
                    expected.insert((rule, idx + 1));
                }
                None => outcome.failures.push(format!(
                    "{fixture}:{}: vet-expect names unknown rule `{name}`",
                    idx + 1
                )),
            }
            rest = &rest[close..];
        }
    }
    outcome.expectations += expected.len();

    let sources = vec![(vpath.clone(), text.to_string())];
    let report = analyze_sources(&sources, &[]);
    let actual: BTreeSet<(Rule, usize)> = report.unwaived().map(|f| (f.rule, f.line)).collect();

    for (rule, line) in expected.difference(&actual) {
        outcome.failures.push(format!(
            "{fixture}:{line}: expected [{}] finding was NOT detected (as {vpath})",
            rule.name()
        ));
    }
    for (rule, line) in actual.difference(&expected) {
        outcome.failures.push(format!(
            "{fixture}:{line}: unexpected unwaived [{}] finding (as {vpath})",
            rule.name()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missed_detection_is_a_failure() {
        let mut outcome = Outcome::default();
        check_fixture(
            "t.rs",
            "//! vet-path: crates/gpu/src/device.rs\npub fn f() -> u32 { 0 } // vet-expect(cost-conservation)\n",
            &mut outcome,
        );
        assert!(!outcome.ok());
        assert!(outcome.failures[0].contains("NOT detected"));
    }

    #[test]
    fn unexpected_finding_is_a_failure() {
        let mut outcome = Outcome::default();
        check_fixture(
            "t.rs",
            "//! vet-path: crates/gpu/src/device.rs\npub fn zero(v: &mut [u8]) {}\n",
            &mut outcome,
        );
        assert!(!outcome.ok());
        assert!(outcome.failures[0].contains("unexpected"));
    }
}
