//! Inline waiver parsing — v2: directives are read from *comment tokens*,
//! so a waiver-shaped string literal can never waive anything, and every
//! parsed entry is kept so the `dead-waiver` rule can audit which waivers
//! still earn their place.
//!
//! Syntax (always inside a `//` comment, with an optional `: reason`):
//!
//! - `// sim-vet: allow(rule)` — trailing: waives `rule` on this line;
//!   alone on a line: waives `rule` on the next line.
//! - `// sim-vet: begin-allow(rule)` … `// sim-vet: end-allow(rule)` —
//!   waives `rule` for the region between the markers.
//! - `// sim-vet: allow-file(rule)` — waives `rule` for the whole file.

use crate::lexer::{lex, TokenKind};
use crate::rules::Rule;

/// One parsed waiver directive and the line span it suppresses.
#[derive(Clone, Debug)]
pub struct WaiverEntry {
    /// `None` when the rule name is unknown — itself a `dead-waiver` finding.
    pub rule: Option<Rule>,
    /// The rule name as written.
    pub raw: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// Covered line span (inclusive); the whole file for `allow-file`.
    pub lo: usize,
    pub hi: usize,
    /// True for `allow-file` entries.
    pub file_wide: bool,
}

impl WaiverEntry {
    pub fn covers(&self, rule: Rule, line: usize) -> bool {
        self.rule == Some(rule) && (self.file_wide || (self.lo..=self.hi).contains(&line))
    }
}

/// Parsed waivers for one file.
#[derive(Clone, Debug, Default)]
pub struct Waivers {
    entries: Vec<WaiverEntry>,
}

impl Waivers {
    pub fn parse(text: &str) -> Self {
        let tokens = lex(text);
        let total_lines = text.lines().count().max(1);
        // For bare-line detection: lines that carry a code token before the
        // comment make a trailing waiver; otherwise the waiver is bare and
        // covers the *next* line.
        let mut code_on_line = vec![false; total_lines + 2];
        for t in &tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && t.line < code_on_line.len()
            {
                code_on_line[t.line] = true;
            }
        }
        let mut entries = Vec::new();
        let mut open_regions: Vec<(usize, Option<Rule>, String, usize)> = Vec::new();
        for t in &tokens {
            if t.kind != TokenKind::LineComment {
                continue;
            }
            let comment = t.text(text);
            let Some(pos) = comment.find("sim-vet:") else {
                continue;
            };
            let directive = comment[pos + "sim-vet:".len()..].trim_start();
            for (prefix, kind) in [
                ("begin-allow(", WaiverKind::Begin),
                ("end-allow(", WaiverKind::End),
                ("allow-file(", WaiverKind::File),
                ("allow(", WaiverKind::Line),
            ] {
                let Some(rest) = directive.strip_prefix(prefix) else {
                    continue;
                };
                let Some(close) = rest.find(')') else {
                    break;
                };
                let raw = rest[..close].trim().to_string();
                let rule = Rule::from_name(&raw);
                match kind {
                    WaiverKind::Line => {
                        let covered = if code_on_line[t.line] {
                            t.line
                        } else {
                            t.line + 1
                        };
                        entries.push(WaiverEntry {
                            rule,
                            raw,
                            line: t.line,
                            lo: covered,
                            hi: covered,
                            file_wide: false,
                        });
                    }
                    WaiverKind::Begin => {
                        open_regions.push((entries.len(), rule, raw, t.line));
                        // Placeholder; span fixed by the matching end marker.
                        entries.push(WaiverEntry {
                            rule: None,
                            raw: String::new(),
                            line: t.line,
                            lo: t.line,
                            hi: t.line,
                            file_wide: false,
                        });
                    }
                    WaiverKind::End => {
                        if let Some(open_at) = open_regions.iter().rposition(|(_, r, raw2, _)| {
                            *r == rule && (r.is_some() || *raw2 == raw)
                        }) {
                            let (slot, r, raw2, start) = open_regions.remove(open_at);
                            entries[slot] = WaiverEntry {
                                rule: r,
                                raw: raw2,
                                line: start,
                                lo: start,
                                hi: t.line,
                                file_wide: false,
                            };
                        }
                    }
                    WaiverKind::File => entries.push(WaiverEntry {
                        rule,
                        raw,
                        line: t.line,
                        lo: 1,
                        hi: total_lines,
                        file_wide: true,
                    }),
                }
                break;
            }
        }
        // Unterminated regions run to end of file.
        for (slot, rule, raw, start) in open_regions {
            entries[slot] = WaiverEntry {
                rule,
                raw,
                line: start,
                lo: start,
                hi: total_lines,
                file_wide: false,
            };
        }
        Waivers { entries }
    }

    /// Does any waiver cover `rule` at `line`?
    pub fn covers(&self, rule: Rule, line: usize) -> bool {
        self.entries.iter().any(|e| e.covers(rule, line))
    }

    /// Every parsed directive, for the dead-waiver audit.
    pub fn entries(&self) -> &[WaiverEntry] {
        &self.entries
    }
}

enum WaiverKind {
    Line,
    Begin,
    End,
    File,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_waiver_covers_its_line() {
        let w = Waivers::parse("let x: f64 = 0.0; // sim-vet: allow(precision-discipline)\n");
        assert!(w.covers(Rule::PrecisionDiscipline, 1));
        assert!(!w.covers(Rule::PrecisionDiscipline, 2));
        assert!(!w.covers(Rule::CostConservation, 1));
    }

    #[test]
    fn bare_line_waiver_covers_next_line() {
        let w = Waivers::parse(
            "// sim-vet: allow(cost-conservation): charged by the caller\npub fn zero(b: &mut [f32]) {}\n",
        );
        assert!(w.covers(Rule::CostConservation, 2));
        assert!(!w.covers(Rule::CostConservation, 1));
    }

    #[test]
    fn region_waiver() {
        let src = "a();\n// sim-vet: begin-allow(precision-discipline): DP section\nb();\nc();\n// sim-vet: end-allow(precision-discipline)\nd();\n";
        let w = Waivers::parse(src);
        assert!(!w.covers(Rule::PrecisionDiscipline, 1));
        assert!(w.covers(Rule::PrecisionDiscipline, 3));
        assert!(w.covers(Rule::PrecisionDiscipline, 4));
        assert!(!w.covers(Rule::PrecisionDiscipline, 6));
    }

    #[test]
    fn unterminated_region_runs_to_eof() {
        let w = Waivers::parse("// sim-vet: begin-allow(sim-time-units)\nx();\ny();\n");
        assert!(w.covers(Rule::SimTimeUnits, 3));
    }

    #[test]
    fn file_waiver() {
        let w =
            Waivers::parse("// sim-vet: allow-file(cost-conservation): charged upstream\nx();\n");
        assert!(w.covers(Rule::CostConservation, 2));
        assert!(w.entries()[0].file_wide);
    }

    #[test]
    fn directive_inside_string_literal_is_ignored() {
        // v1's line scanner could be fooled by a string containing a
        // comment-looking waiver; token-level parsing cannot.
        let w = Waivers::parse("let s = \"// sim-vet: allow(sim-time-units)\";\n");
        assert!(!w.covers(Rule::SimTimeUnits, 1));
        assert!(w.entries().is_empty());
    }

    #[test]
    fn unknown_rule_is_kept_for_the_dead_waiver_audit() {
        let w = Waivers::parse("// sim-vet: allow(no-such-rule)\nx();\n");
        assert!(!w.covers(Rule::SimTimeUnits, 2));
        assert_eq!(w.entries().len(), 1);
        assert!(w.entries()[0].rule.is_none());
        assert_eq!(w.entries()[0].raw, "no-such-rule");
    }

    #[test]
    fn entry_spans_are_reported() {
        let src = "// sim-vet: begin-allow(sim-time-units)\na();\n// sim-vet: end-allow(sim-time-units)\nb(); // sim-vet: allow(cost-conservation)\n";
        let w = Waivers::parse(src);
        let region = &w.entries()[0];
        assert_eq!((region.lo, region.hi), (1, 3));
        let line = &w.entries()[1];
        assert_eq!((line.lo, line.hi), (4, 4));
    }
}
