//! Target discovery from workspace manifests.
//!
//! v1 scanned a hand-maintained directory list that had to be extended by
//! hand every time a crate landed (`sim-fault` in PR 2, `sim-sweep` in
//! PR 4) — a silent coverage gap waiting to happen. v2 reads the workspace
//! `Cargo.toml`, expands its `members` globs, and reads each member's
//! `[package.metadata.simvet]` table:
//!
//! ```toml
//! [package.metadata.simvet]
//! profile = "device"               # device|observer|engine|core|exempt
//! f32-kernel-modules = ["src/kernel.rs"]   # precision-discipline targets
//! shared-eval-modules = ["src/shared_eval.rs"]   # eval-purity targets
//! ```
//!
//! A member with *no* profile is itself a finding: new crates must opt into
//! a discipline (or explicitly out) before the gate passes, so coverage can
//! never rot silently again.

use std::path::{Path, PathBuf};

/// Which rule families a crate opted into. See
/// [`profile_rules`](crate::rules::profile_rules) for the profile → rule
/// mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Simulated hardware charging cycle costs: the full discipline set.
    Device,
    /// Observability layer: must never charge costs; ordered output.
    Observer,
    /// Sweep/caching engine: purity of memoized results.
    Engine,
    /// Shared physics and host-side orchestration: sim-time unit hygiene.
    Core,
    /// No invariant rules (shims, the linter itself, pure math).
    Exempt,
}

impl Profile {
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "device" => Profile::Device,
            "observer" => Profile::Observer,
            "engine" => Profile::Engine,
            "core" => Profile::Core,
            "exempt" => Profile::Exempt,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Profile::Device => "device",
            Profile::Observer => "observer",
            Profile::Engine => "engine",
            Profile::Core => "core",
            Profile::Exempt => "exempt",
        }
    }
}

/// One discovered scan target (a workspace member or the root package).
#[derive(Clone, Debug)]
pub struct Target {
    /// Workspace-relative directory (`crates/cell-be`), `.` for the root.
    pub dir: String,
    /// `None` when the manifest has no `[package.metadata.simvet]` table —
    /// reported as a `target-discovery` finding.
    pub profile: Option<Profile>,
    /// Present but unrecognized profile string, kept for the diagnostic.
    pub bad_profile: Option<String>,
    /// Workspace-relative paths of declared f32 kernel modules.
    pub f32_kernel_modules: Vec<String>,
    /// Workspace-relative paths of declared shared-eval modules
    /// (eval-purity targets: physics only, no cost charging).
    pub shared_eval_modules: Vec<String>,
}

/// Discover every scan target under `root`. Falls back to "scan everything
/// as unclassified" when the root manifest is missing (synthetic test
/// trees), so seeded-tree tests keep working without manifests.
pub fn discover_targets(root: &Path) -> std::io::Result<Vec<Target>> {
    let manifest = root.join("Cargo.toml");
    let Ok(text) = std::fs::read_to_string(&manifest) else {
        return Ok(Vec::new());
    };
    let mut targets = Vec::new();
    // The root manifest may itself be a package (it is, here).
    if text.contains("[package]") {
        targets.push(target_from_manifest(root, ".", &text));
    }
    for member in expand_members(root, &parse_members(&text)) {
        let mtext =
            std::fs::read_to_string(root.join(&member).join("Cargo.toml")).unwrap_or_default();
        targets.push(target_from_manifest(root, &member, &mtext));
    }
    targets.sort_by(|a, b| a.dir.cmp(&b.dir));
    Ok(targets)
}

fn target_from_manifest(_root: &Path, dir: &str, manifest: &str) -> Target {
    let meta = metadata_table(manifest);
    let profile_str = meta.as_deref().and_then(|t| string_value(t, "profile"));
    let (profile, bad_profile) = match &profile_str {
        Some(s) => match Profile::from_name(s) {
            Some(p) => (Some(p), None),
            None => (None, Some(s.clone())),
        },
        None => (None, None),
    };
    let module_list = |key: &str| -> Vec<String> {
        meta.as_deref()
            .map(|t| {
                array_value(t, key)
                    .into_iter()
                    .map(|m| join_rel(dir, &m))
                    .collect()
            })
            .unwrap_or_default()
    };
    Target {
        dir: dir.to_string(),
        profile,
        bad_profile,
        f32_kernel_modules: module_list("f32-kernel-modules"),
        shared_eval_modules: module_list("shared-eval-modules"),
    }
}

/// `dir`-relative path joined workspace-relative with `/` separators.
pub fn join_rel(dir: &str, rel: &str) -> String {
    if dir == "." {
        rel.to_string()
    } else {
        format!("{dir}/{rel}")
    }
}

/// The `members = [...]` entries of the `[workspace]` table.
fn parse_members(manifest: &str) -> Vec<String> {
    let Some(ws) = table_body(manifest, "[workspace]") else {
        return Vec::new();
    };
    array_value(ws, "members")
}

/// Expand `crates/*`-style member globs against the filesystem (only the
/// trailing-`*` single-level form Cargo commonly uses; literal members pass
/// through).
fn expand_members(root: &Path, members: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for m in members {
        if let Some(prefix) = m.strip_suffix("/*") {
            let dir = root.join(prefix);
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            let mut found: Vec<String> = entries
                .filter_map(Result::ok)
                .filter(|e| e.path().join("Cargo.toml").is_file())
                .map(|e| format!("{prefix}/{}", e.file_name().to_string_lossy()))
                .collect();
            found.sort();
            out.extend(found);
        } else if root.join(m).join("Cargo.toml").is_file() {
            out.push(m.clone());
        }
    }
    out
}

/// The text of a named TOML table, up to the next `[` header at line start.
fn table_body<'t>(manifest: &'t str, header: &str) -> Option<&'t str> {
    let mut offset = 0;
    for line in manifest.lines() {
        if line.trim() == header {
            let start = offset + line.len();
            let rest = &manifest[start..];
            let end = rest
                .match_indices('\n')
                .find(|(i, _)| rest[i + 1..].trim_start_matches(' ').starts_with('['))
                .map_or(rest.len(), |(i, _)| i);
            return Some(&rest[..end]);
        }
        offset += line.len() + 1;
    }
    None
}

fn metadata_table(manifest: &str) -> Option<String> {
    table_body(manifest, "[package.metadata.simvet]").map(str::to_string)
}

/// `key = "value"` within a table body.
fn string_value(table: &str, key: &str) -> Option<String> {
    for line in table.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let rest = rest.trim();
                if rest.len() >= 2 && rest.starts_with('"') {
                    if let Some(close) = rest[1..].find('"') {
                        return Some(rest[1..1 + close].to_string());
                    }
                }
            }
        }
    }
    None
}

/// `key = ["a", "b"]` within a table body; tolerates multi-line arrays.
fn array_value(table: &str, key: &str) -> Vec<String> {
    let Some(pos) = table.find(key) else {
        return Vec::new();
    };
    let after = &table[pos + key.len()..];
    let Some(eq) = after.find('=') else {
        return Vec::new();
    };
    let after = &after[eq + 1..];
    let Some(open) = after.find('[') else {
        return Vec::new();
    };
    let after = &after[open + 1..];
    let Some(close) = after.find(']') else {
        return Vec::new();
    };
    after[..close]
        .split(',')
        .filter_map(|s| {
            let s = s.trim();
            (s.len() >= 2 && s.starts_with('"') && s.ends_with('"'))
                .then(|| s[1..s.len() - 1].to_string())
        })
        .collect()
}

/// Collect every `.rs` file under `dir` (recursive), workspace-relative with
/// `/` separators, skipping build output, VCS state, and seeded-violation
/// `fixtures/` corpora (they are *supposed* to scan dirty).
pub fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | "results" | ".github" | "fixtures"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative_slash_path(root, &path));
        }
    }
    Ok(())
}

pub fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_members_and_expands_globs_on_the_real_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let targets = discover_targets(root).unwrap();
        let dirs: Vec<&str> = targets.iter().map(|t| t.dir.as_str()).collect();
        assert!(dirs.contains(&"."), "{dirs:?}");
        assert!(dirs.contains(&"crates/cell-be"), "{dirs:?}");
        assert!(dirs.contains(&"crates/sim-sweep"), "{dirs:?}");
        assert!(dirs.contains(&"compat/rayon"), "{dirs:?}");
    }

    #[test]
    fn string_and_array_values() {
        let t = "profile = \"device\"\nf32-kernel-modules = [\"src/kernel.rs\", \"src/b.rs\"]\n";
        assert_eq!(string_value(t, "profile").as_deref(), Some("device"));
        assert_eq!(
            array_value(t, "f32-kernel-modules"),
            vec!["src/kernel.rs".to_string(), "src/b.rs".to_string()]
        );
    }

    #[test]
    fn missing_manifest_yields_no_targets() {
        let targets = discover_targets(Path::new("/nonexistent-simvet-root")).unwrap();
        assert!(targets.is_empty());
    }

    #[test]
    fn profile_names_round_trip() {
        for p in [
            Profile::Device,
            Profile::Observer,
            Profile::Engine,
            Profile::Core,
            Profile::Exempt,
        ] {
            assert_eq!(Profile::from_name(p.name()), Some(p));
        }
        assert_eq!(Profile::from_name("nope"), None);
    }
}
