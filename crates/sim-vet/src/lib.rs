//! `sim-vet` — a workspace invariant linter for the device simulators.
//!
//! The paper's evaluation methodology only works because every device model
//! is *numerically checkable* against the f64 reference kernel while charging
//! deterministic cycle costs. Source-level disciplines keep that true, and
//! this crate enforces them mechanically. v2 replaced the v1 line/regex
//! scanner with a real analysis pipeline:
//!
//! 1. **[`lexer`]** — a Rust token stream with byte spans and line/column
//!    positions. Rules match whole tokens, so `buf64` no longer trips the
//!    f64 check and a waiver inside a string literal waives nothing.
//! 2. **[`items`]** — brace-matched item extraction: structs with typed
//!    fields, enums with variants, fns with signatures and body spans,
//!    `#[cfg(test)]` gating.
//! 3. **[`symbols`]** — a workspace-wide symbol table, so rules can follow a
//!    type from a `DeviceKind` variant in `harness` to a cost-model struct
//!    three crates away.
//! 4. **[`rules`]** — per-file token rules plus cross-file semantic rules
//!    (`cache-token`, `sim-time-units`, `dead-waiver`).
//! 5. **[`discover`]** — scan targets come from the workspace `Cargo.toml`
//!    members and each member's `[package.metadata.simvet]` profile, not a
//!    hand-maintained directory list.
//!
//! Hash collections, wall clocks and panics are clippy's to enforce
//! (`clippy.toml`, the device crates' `[lints.clippy]`, `#[expect]` at each
//! legitimate site); sim-vet keeps the domain rules clippy cannot state.
//!
//! Known-good exceptions are waived inline:
//!
//! ```text
//! let cycles: f64 = ...; // sim-vet: allow(precision-discipline): cycle accounting, not physics
//! // sim-vet: begin-allow(precision-discipline): explicit DP kernel section
//! ...
//! // sim-vet: end-allow(precision-discipline)
//! // sim-vet: allow-file(cost-conservation): <file-wide reason>
//! ```
//!
//! A bare-line waiver (`// sim-vet: allow(rule)` alone on a line) applies to
//! the next line. A waiver that no longer suppresses anything is itself a
//! finding (`dead-waiver`), so the exception inventory cannot rot. The
//! binary (`cargo run -p sim-vet`) scans the workspace and exits nonzero
//! with `file:line` diagnostics for every unwaived finding; `--format
//! json|sarif` emits machine-readable reports.

pub mod discover;
pub mod items;
pub mod lexer;
pub mod output;
pub mod rules;
mod scanner;
pub mod selfcheck;
pub mod symbols;
pub mod waiver;

pub use discover::{discover_targets, Profile, Target};
pub use rules::{applicable_rules, Rule};
pub use scanner::strip_comments_and_strings;
pub use waiver::Waivers;

use rules::{check_cache_token, check_rule, profile_rules, AnalyzedFile, FileContext};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use symbols::SymbolTable;

/// One rule violation (or waived near-violation) at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (byte-based).
    pub col: usize,
    pub message: String,
    /// True if an inline/region/file waiver covers this finding.
    pub waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}{}",
            self.path,
            self.line,
            self.rule.name(),
            self.message,
            if self.waived { " (waived)" } else { "" }
        )
    }
}

/// Result of linting a whole tree.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    pub fn waived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived)
    }

    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }
}

/// Which rules bind `rel_path` given the discovered targets; empty when the
/// path is out of scope. With no targets (manifest-less tree), falls back to
/// the built-in path map in [`applicable_rules`].
fn rules_for_path(targets: &[Target], rel_path: &str) -> Vec<Rule> {
    if targets.is_empty() {
        return applicable_rules(rel_path);
    }
    // Longest-prefix match, so `crates/cell-be` wins over the root `.`.
    let mut best: Option<(&Target, usize)> = None;
    for t in targets {
        let prefix = if t.dir == "." {
            String::new()
        } else {
            format!("{}/", t.dir)
        };
        if rel_path.starts_with(&prefix) && best.is_none_or(|(_, l)| prefix.len() > l) {
            best = Some((t, prefix.len()));
        }
    }
    let Some((target, prefix_len)) = best else {
        return Vec::new();
    };
    // Invariant rules bind shipping code only.
    if !rel_path[prefix_len..].starts_with("src/") {
        return Vec::new();
    }
    match target.profile {
        Some(p) => profile_rules(
            p,
            target.f32_kernel_modules.iter().any(|m| m == rel_path),
            target.shared_eval_modules.iter().any(|m| m == rel_path),
        ),
        None => Vec::new(),
    }
}

/// Run the full pipeline over in-memory sources. `targets` scopes rules per
/// file (empty → built-in path map). This is the engine behind
/// [`scan_source`], [`scan_workspace`], and the fixture selfcheck.
pub fn analyze_sources(sources: &[(String, String)], targets: &[Target]) -> Report {
    struct Prepared {
        path: String,
        tokens: Vec<lexer::Token>,
        code: Vec<usize>,
        items: items::Items,
        waivers: Waivers,
        rules: Vec<Rule>,
    }
    let mut prepared = Vec::with_capacity(sources.len());
    let mut symbols = SymbolTable::default();
    for (path, text) in sources {
        let tokens = lexer::lex(text);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| lexer::is_code(&tokens[i]))
            .collect();
        let file_items = items::extract(text, &tokens);
        symbols.add_file(path, &file_items);
        prepared.push(Prepared {
            path: path.clone(),
            tokens,
            code,
            items: file_items,
            waivers: Waivers::parse(text),
            rules: rules_for_path(targets, path),
        });
    }

    let mut findings = Vec::new();
    // Per-file rules.
    for (p, (_, text)) in prepared.iter().zip(sources) {
        let ctx = FileContext {
            path: &p.path,
            src: text,
            tokens: &p.tokens,
            code: &p.code,
            items: &p.items,
        };
        for &rule in &p.rules {
            check_rule(rule, &ctx, &mut findings);
        }
    }
    // Workspace rules: cache-token completeness over in-scope files only
    // (exempt crates and test trees keep v1's out-of-scope behavior).
    let in_scope: Vec<AnalyzedFile<'_>> = prepared
        .iter()
        .zip(sources)
        .filter(|(p, _)| !p.rules.is_empty())
        .map(|(p, (_, text))| AnalyzedFile {
            path: &p.path,
            src: text,
            tokens: &p.tokens,
            code: &p.code,
            items: &p.items,
        })
        .collect();
    check_cache_token(&in_scope, &symbols, &mut findings);
    // Unclassified workspace members are findings: coverage can't rot.
    for t in targets {
        if t.profile.is_none() {
            let detail = match &t.bad_profile {
                Some(bad) => format!("unrecognized simvet profile `{bad}`"),
                None => "no [package.metadata.simvet] profile".to_string(),
            };
            findings.push(Finding {
                rule: Rule::TargetDiscovery,
                path: discover::join_rel(&t.dir, "Cargo.toml"),
                line: 1,
                col: 1,
                message: format!(
                    "{detail} — every member must opt into a discipline (device|observer|engine|core|exempt)"
                ),
                waived: false,
            });
        }
    }

    // Waiver marking, using the waivers of the file each finding lands in
    // (cache-token findings land at field *definitions*, possibly far from
    // the cache_token fn).
    let waivers_by_path: BTreeMap<&str, &Waivers> = prepared
        .iter()
        .map(|p| (p.path.as_str(), &p.waivers))
        .collect();
    for f in &mut findings {
        if let Some(w) = waivers_by_path.get(f.path.as_str()) {
            f.waived = w.covers(f.rule, f.line);
        }
    }

    // Dead-waiver audit: every directive in an in-scope file must still
    // suppress at least one finding.
    let mut dead = Vec::new();
    for p in &prepared {
        if p.rules.is_empty() {
            continue;
        }
        for e in p.waivers.entries() {
            let verdict = match e.rule {
                None => Some(format!(
                    "waiver names unknown rule `{}` — it can never suppress anything",
                    e.raw
                )),
                Some(Rule::DeadWaiver) => None,
                Some(rule) => {
                    let used = findings
                        .iter()
                        .any(|f| f.path == p.path && f.rule == rule && e.covers(f.rule, f.line));
                    (!used).then(|| {
                        format!(
                            "dead waiver: `allow({})` no longer suppresses any finding — remove it",
                            e.raw
                        )
                    })
                }
            };
            if let Some(message) = verdict {
                dead.push(Finding {
                    rule: Rule::DeadWaiver,
                    path: p.path.clone(),
                    line: e.line,
                    col: 1,
                    waived: p.waivers.covers(Rule::DeadWaiver, e.line),
                    message,
                });
            }
        }
    }
    findings.extend(dead);

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Report {
        findings,
        files_scanned: sources.len(),
    }
}

/// Lint one file's source text. `rel_path` selects which rules apply via the
/// built-in path map (see [`applicable_rules`]); the text never touches the
/// filesystem, so tests can lint synthetic sources.
pub fn scan_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let sources = vec![(rel_path.to_string(), text.to_string())];
    analyze_sources(&sources, &[]).findings
}

/// Lint every `.rs` file under `root`, skipping build output, VCS state, and
/// seeded `fixtures/` trees. Scan targets and rule scoping come from the
/// workspace manifest; a tree without one falls back to the built-in path
/// map (synthetic test trees). Returns an error only for I/O failures.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let targets = discover_targets(root)?;
    let mut files = Vec::new();
    discover::collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(root.join(&path))?;
        sources.push((path, text));
    }
    Ok(analyze_sources(&sources, &targets))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let src = "pub fn transfer(len: usize) -> f32 { len as f32 }\n";
        assert!(scan_source("crates/cell-be/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn non_device_paths_are_out_of_scope() {
        let src = "pub fn fill(buf: &mut [f64]) { buf[0] = 0.0; }\n";
        assert!(!scan_source("crates/gpu/src/shader.rs", src).is_empty());
        assert!(scan_source("crates/vecmath/src/forces.rs", src).is_empty());
        assert!(scan_source("src/cli.rs", src).is_empty());
    }

    #[test]
    fn findings_are_ordered_and_displayed() {
        let src = "const K: f64 = 1.0;\npub fn f(x: f64) {}\n";
        let found = scan_source("crates/gpu/src/shader.rs", src);
        assert!(found.len() >= 2);
        assert!(found.windows(2).all(|w| w[0].line <= w[1].line));
        let shown = found[0].to_string();
        assert!(shown.contains("crates/gpu/src/shader.rs:1:"), "{shown}");
        assert!(shown.contains("[precision-discipline]"), "{shown}");
    }

    #[test]
    fn cache_token_rule_demands_every_cost_model_field() {
        let sources = vec![
            (
                "crates/harness/src/device.rs".to_string(),
                r#"
pub enum DeviceKind {
    Opteron,
}
impl DeviceKind {
    pub fn cache_token(&self) -> String {
        let c = OpteronConfig::paper_node();
        format!("opteron:clk={}:cpf={}", c.clock_hz, c.cycles_per_flop)
    }
}
"#
                .to_string(),
            ),
            (
                "crates/opteron/src/config.rs".to_string(),
                "pub struct OpteronConfig {\n    pub clock_hz: f64,\n    pub cycles_per_flop: f64,\n    pub prefetch: bool,\n}\n"
                    .to_string(),
            ),
        ];
        let report = analyze_sources(&sources, &[]);
        let ct: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::CacheToken)
            .collect();
        assert_eq!(ct.len(), 1, "{:?}", report.findings);
        // The finding lands at the missing field's definition site.
        assert_eq!(ct[0].path, "crates/opteron/src/config.rs");
        assert_eq!(ct[0].line, 4);
        assert!(ct[0].message.contains("prefetch"), "{}", ct[0].message);
    }

    #[test]
    fn cache_token_rule_follows_nested_structs_and_let_ascriptions() {
        let sources = vec![
            (
                "crates/harness/src/device.rs".to_string(),
                r#"
impl DeviceKind {
    pub fn cache_token(&self) -> String {
        let c: CellConfig = config();
        format!("cell:clk={}:lj={}", c.clock_hz, c.costs.lj_eval)
    }
}
"#
                .to_string(),
            ),
            (
                "crates/cell-be/src/config.rs".to_string(),
                "pub struct CellConfig {\n    pub clock_hz: f64,\n    pub costs: SpeCostModel,\n}\npub struct SpeCostModel {\n    pub lj_eval: f64,\n    pub per_atom: f64,\n}\n"
                    .to_string(),
            ),
        ];
        let report = analyze_sources(&sources, &[]);
        let ct: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::CacheToken)
            .collect();
        // `per_atom` (nested, two levels down) is missing; everything else is
        // mentioned either as a field access or inside the format string.
        assert_eq!(ct.len(), 1, "{ct:?}");
        assert!(ct[0].message.contains("per_atom"));
    }

    #[test]
    fn dead_waiver_is_flagged_and_live_waiver_is_not() {
        let live = "pub fn zero(buf: &mut [f32]) {} // sim-vet: allow(cost-conservation): charged by the caller\n";
        let found = scan_source("crates/mta/src/kernel.rs", live);
        assert!(found
            .iter()
            .any(|f| f.rule == Rule::CostConservation && f.waived));
        assert!(
            found.iter().all(|f| f.rule != Rule::DeadWaiver),
            "{found:?}"
        );

        let dead = "pub fn f() -> u32 { 0 } // sim-vet: allow(cost-conservation): nothing here\n";
        let found = scan_source("crates/mta/src/kernel.rs", dead);
        let dw: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == Rule::DeadWaiver)
            .collect();
        assert_eq!(dw.len(), 1, "{found:?}");
        assert_eq!(dw[0].line, 1);
        assert!(!dw[0].waived);
    }

    #[test]
    fn unknown_rule_waiver_is_a_dead_waiver_finding() {
        let src = "// sim-vet: allow(determinsim): typo\npub fn f() -> u32 { 0 }\n";
        let found = scan_source("crates/gpu/src/device.rs", src);
        assert!(
            found
                .iter()
                .any(|f| f.rule == Rule::DeadWaiver && f.message.contains("determinsim")),
            "{found:?}"
        );
    }

    #[test]
    fn unclassified_member_is_a_target_discovery_finding() {
        let targets = vec![Target {
            dir: "crates/newthing".to_string(),
            profile: None,
            bad_profile: None,
            f32_kernel_modules: Vec::new(),
            shared_eval_modules: Vec::new(),
        }];
        let sources = vec![(
            "crates/newthing/src/lib.rs".to_string(),
            "pub fn f() {}\n".to_string(),
        )];
        let report = analyze_sources(&sources, &targets);
        let td: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::TargetDiscovery)
            .collect();
        assert_eq!(td.len(), 1);
        assert_eq!(td[0].path, "crates/newthing/Cargo.toml");
    }

    #[test]
    fn waiver_in_string_literal_does_not_waive() {
        let src =
            "pub fn f(buf: &mut [f32]) { let s = \"x // sim-vet: allow(cost-conservation)\"; }\n";
        let found = scan_source("crates/cell-be/src/dma.rs", src);
        let cost = found
            .iter()
            .find(|f| f.rule == Rule::CostConservation)
            .expect("cost-conservation finding");
        assert!(!cost.waived);
    }
}
