//! Machine-readable report writers: plain JSON for scripting, SARIF 2.1.0
//! for code-scanning UIs. Both are hand-rolled (the container has no serde)
//! but fully escaped, and the SARIF shape is pinned by a tier-1 test.

use crate::rules::Rule;
use crate::{Finding, Report};

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The whole report as plain JSON:
/// `{"files_scanned": N, "findings": [{rule, path, line, col, message, waived}]}`.
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\", \"waived\": {}}}",
            f.rule.name(),
            esc(&f.path),
            f.line,
            f.col,
            esc(&f.message),
            f.waived
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// The report as a SARIF 2.1.0 log: one run, one `sim-vet` driver carrying
/// every rule's metadata, one result per finding. Waived findings are
/// reported with an `inSource` suppression so SARIF viewers show them as
/// reviewed, not open.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"sim-vet\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/sim-vet\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in Rule::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            rule.name(),
            esc(rule.description())
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&sarif_result(f));
    }
    if !report.findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

fn sarif_result(f: &Finding) -> String {
    let suppression = if f.waived {
        ",\n          \"suppressions\": [{\"kind\": \"inSource\"}]"
    } else {
        ""
    };
    format!(
        "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{\"uri\": \"{}\"}},\n                \"region\": {{\"startLine\": {}, \"startColumn\": {}}}\n              }}\n            }}\n          ]{suppression}\n        }}",
        f.rule.name(),
        esc(&f.message),
        esc(&f.path),
        f.line,
        f.col.max(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: Rule::PrecisionDiscipline,
                    path: "crates/gpu/src/shader.rs".into(),
                    line: 3,
                    col: 9,
                    message: "`f64` in an f32 kernel \"module\"".into(),
                    waived: false,
                },
                Finding {
                    rule: Rule::CostConservation,
                    path: "crates/cell-be/src/localstore.rs".into(),
                    line: 68,
                    col: 1,
                    message: "buffer mutator returns ()".into(),
                    waived: true,
                },
            ],
            files_scanned: 2,
        }
    }

    #[test]
    fn json_has_every_field_and_escapes() {
        let j = to_json(&sample());
        assert!(j.contains("\"files_scanned\": 2"), "{j}");
        assert!(j.contains("\"rule\": \"precision-discipline\""), "{j}");
        assert!(j.contains("\\\"module\\\""), "{j}");
        assert!(j.contains("\"waived\": true"), "{j}");
    }

    #[test]
    fn sarif_has_version_rules_and_suppressions() {
        let s = to_sarif(&sample());
        assert!(s.contains("\"version\": \"2.1.0\""), "{s}");
        assert!(s.contains("\"name\": \"sim-vet\""), "{s}");
        assert!(s.contains("\"ruleId\": \"cost-conservation\""), "{s}");
        assert!(s.contains("\"startLine\": 68"), "{s}");
        assert!(s.contains("\"suppressions\""), "{s}");
    }

    #[test]
    fn empty_report_is_valid_shapes() {
        let empty = Report::default();
        assert!(to_json(&empty).contains("\"findings\": []"));
        assert!(to_sarif(&empty).contains("\"results\": []"));
    }
}
