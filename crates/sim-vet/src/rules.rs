//! The invariant rules, v2: token/AST-level checks with cross-file semantic
//! rules resolved through the workspace symbol table.
//!
//! These are the disciplines clippy cannot state. Hash collections, wall
//! clocks and panics are clippy's (`clippy.toml` and the device crates'
//! `[lints.clippy]`); unordered rayon reductions do not compile against the
//! in-tree shim. The ported v1 rules (`precision-discipline`,
//! `cost-conservation`, `observer-purity`) match whole tokens instead of
//! substrings, so an identifier merely *containing* `f64` cannot fire.
//! The v2 rules see structure v1 could not:
//!
//! | rule | invariant |
//! |---|---|
//! | `cache-token` | every field of every cost-model/config struct reachable from `DeviceKind` is encoded in `cache_token()` — adding a cost parameter can never silently serve stale cached sweep results |
//! | `sim-time-units` | no arithmetic mixes host wall-clock identifiers with simulated-seconds accumulators; no float literal is added to sim-time outside cost-model modules |
//! | `dead-waiver` | a waiver that no longer suppresses any finding is itself a finding — the waiver inventory stays honest |

use crate::discover::Profile;
use crate::items::Items;
use crate::lexer::{Token, TokenKind};
use crate::symbols::SymbolTable;
use crate::Finding;
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    PrecisionDiscipline,
    CostConservation,
    ObserverPurity,
    EvalPurity,
    CacheToken,
    SimTimeUnits,
    DeadWaiver,
    TargetDiscovery,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::PrecisionDiscipline,
        Rule::CostConservation,
        Rule::ObserverPurity,
        Rule::EvalPurity,
        Rule::CacheToken,
        Rule::SimTimeUnits,
        Rule::DeadWaiver,
        Rule::TargetDiscovery,
    ];

    /// Stable rule id — the SARIF `ruleId` and the name waivers use.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PrecisionDiscipline => "precision-discipline",
            Rule::CostConservation => "cost-conservation",
            Rule::ObserverPurity => "observer-purity",
            Rule::EvalPurity => "eval-purity",
            Rule::CacheToken => "cache-token",
            Rule::SimTimeUnits => "sim-time-units",
            Rule::DeadWaiver => "dead-waiver",
            Rule::TargetDiscovery => "target-discovery",
        }
    }

    /// One-line description for SARIF rule metadata and `--help`.
    pub fn description(self) -> &'static str {
        match self {
            Rule::PrecisionDiscipline => {
                "f32 device kernel modules contain no f64 types, casts, or literals"
            }
            Rule::CostConservation => {
                "pub device fns that mutate buffers report a cost — every data movement is charged"
            }
            Rule::ObserverPurity => "the observability layer observes costs and never charges them",
            Rule::EvalPurity => "shared-eval modules evaluate physics only and never charge costs",
            Rule::CacheToken => {
                "every cost-model field reachable from DeviceKind is encoded in cache_token()"
            }
            Rule::SimTimeUnits => {
                "no arithmetic mixes host wall-clock values with simulated-seconds accumulators"
            }
            Rule::DeadWaiver => "every inline waiver still suppresses at least one finding",
            Rule::TargetDiscovery => {
                "every workspace member declares a [package.metadata.simvet] profile"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// Per-file context the rules run over.
pub struct FileContext<'a> {
    pub path: &'a str,
    pub src: &'a str,
    pub tokens: &'a [Token],
    /// Indices of non-comment tokens in `tokens`.
    pub code: &'a [usize],
    pub items: &'a Items,
}

impl FileContext<'_> {
    fn tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.src)
    }

    fn is_ident(&self, ci: usize, t: &str) -> bool {
        let tok = self.tok(ci);
        tok.kind == TokenKind::Ident && tok.text(self.src) == t
    }

    fn is_punct(&self, ci: usize, t: &str) -> bool {
        let tok = self.tok(ci);
        tok.kind == TokenKind::Punct && tok.text(self.src) == t
    }

    fn emit(&self, out: &mut Vec<Finding>, rule: Rule, ci: usize, message: String) {
        let tok = self.tok(ci);
        if !self.items.in_test_code(tok.line) {
            out.push(Finding {
                rule,
                path: self.path.to_string(),
                line: tok.line,
                col: tok.col,
                message,
                waived: false,
            });
        }
    }
}

/// Which per-file rules a profile applies to a crate-`src` file.
pub fn profile_rules(profile: Profile, is_f32_kernel: bool, is_shared_eval: bool) -> Vec<Rule> {
    let mut rules = Vec::new();
    // Physics-once execution (DESIGN.md §17): a declared shared-eval module
    // computes physics and nothing else, whatever its crate's profile — cost
    // interpretation belongs to each device's replay layer.
    if is_shared_eval {
        rules.push(Rule::EvalPurity);
    }
    match profile {
        Profile::Device => {
            if is_f32_kernel {
                rules.push(Rule::PrecisionDiscipline);
            }
            rules.extend([Rule::CostConservation, Rule::SimTimeUnits]);
        }
        Profile::Observer => rules.push(Rule::ObserverPurity),
        Profile::Engine => rules.extend([Rule::ObserverPurity, Rule::SimTimeUnits]),
        Profile::Core => rules.push(Rule::SimTimeUnits),
        Profile::Exempt => {}
    }
    rules
}

/// Built-in path → profile fallback, mirroring the shipped
/// `[package.metadata.simvet]` tables. Used by [`crate::scan_source`] on
/// synthetic paths and by workspace scans of trees without manifests;
/// `tests/static_analysis.rs` asserts it agrees with the real metadata.
pub fn builtin_profile(rel_path: &str) -> (Profile, bool) {
    const F32_KERNEL_MODULES: &[&str] = &[
        "crates/cell-be/src/kernel.rs",
        "crates/gpu/src/mdshader.rs",
        "crates/gpu/src/shader.rs",
    ];
    let profile = if [
        "crates/cell-be/",
        "crates/gpu/",
        "crates/mta/",
        "crates/opteron/",
        "crates/sim-fault/",
    ]
    .iter()
    .any(|p| rel_path.starts_with(p))
    {
        Profile::Device
    } else if rel_path.starts_with("crates/sim-perf/") || rel_path.starts_with("crates/sim-obs/") {
        Profile::Observer
    } else if rel_path.starts_with("crates/sim-sweep/")
        || rel_path.starts_with("crates/sim-cluster/")
    {
        Profile::Engine
    } else if rel_path.starts_with("crates/md-core/") || rel_path.starts_with("crates/harness/") {
        Profile::Core
    } else {
        Profile::Exempt
    };
    (profile, F32_KERNEL_MODULES.contains(&rel_path))
}

/// Built-in shared-eval module list, mirroring the shipped
/// `shared-eval-modules` metadata entries (see [`builtin_profile`]).
pub fn builtin_shared_eval(rel_path: &str) -> bool {
    const SHARED_EVAL_MODULES: &[&str] = &["crates/md-core/src/shared_eval.rs"];
    SHARED_EVAL_MODULES.contains(&rel_path)
}

/// Which rules apply to a workspace-relative path under the built-in
/// fallback scoping. Invariant rules bind shipping code (`…/src/…`) only.
pub fn applicable_rules(rel_path: &str) -> Vec<Rule> {
    if !rel_path.contains("/src/") {
        return Vec::new();
    }
    let (profile, f32) = builtin_profile(rel_path);
    profile_rules(profile, f32, builtin_shared_eval(rel_path))
}

/// Run one per-file rule.
pub fn check_rule(rule: Rule, ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    match rule {
        Rule::PrecisionDiscipline => check_precision(ctx, out),
        Rule::CostConservation => check_cost_conservation(ctx, out),
        Rule::ObserverPurity => check_observer_purity(ctx, out),
        Rule::EvalPurity => check_eval_purity(ctx, out),
        Rule::SimTimeUnits => check_sim_time_units(ctx, out),
        // Workspace-level rules are driven by `lib.rs`, not per file.
        Rule::CacheToken | Rule::DeadWaiver | Rule::TargetDiscovery => {}
    }
}

// ---------------------------------------------------------------------------
// precision-discipline

fn check_precision(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for ci in 0..ctx.code.len() {
        let tok = ctx.tok(ci);
        let hit = match tok.kind {
            TokenKind::Ident => tok.text(ctx.src) == "f64",
            TokenKind::Number => tok.text(ctx.src).ends_with("f64"),
            _ => false,
        };
        if hit {
            ctx.emit(
                out,
                Rule::PrecisionDiscipline,
                ci,
                "`f64` in an f32 device kernel module — single precision is the modeled datapath"
                    .into(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// cost-conservation

fn check_cost_conservation(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for f in &ctx.items.fns {
        if f.in_test || !f.is_pub || f.ret != "()" {
            continue;
        }
        let params = split_params(&f.params);
        let mut mut_self = false;
        let mut mut_buffer_param = false;
        let mut data_param = false;
        for (i, p) in params.iter().enumerate() {
            let p = p.trim();
            let is_self =
                i == 0 && (p == "self" || p.ends_with(" self") || p == "&self" || p == "& self");
            if is_self {
                mut_self = p.contains("mut self");
                continue;
            }
            if p.contains("& mut ") || p.contains("* mut ") {
                mut_buffer_param = true;
            }
            if p.contains('[') || p.contains("Vec <") {
                data_param = true;
            }
        }
        if mut_buffer_param || (mut_self && data_param) {
            out.push(Finding {
                rule: Rule::CostConservation,
                path: ctx.path.to_string(),
                line: f.line,
                col: 1,
                message:
                    "pub device fn mutates a buffer but returns `()` — every data movement must report its cost"
                        .into(),
                waived: false,
            });
        }
    }
}

/// Split a rendered parameter token string at top-level commas.
fn split_params(params: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for tok in params.split(' ') {
        match tok {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            "," if depth <= 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        if !cur.is_empty() {
            cur.push(' ');
        }
        cur.push_str(tok);
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------------
// observer-purity

/// Cost-charging device/clock API calls that observability *and* shared-eval
/// modules must never make (counters-on must stay bitwise-identical to
/// counters-off; the shared evaluator computes physics once, costs are
/// replayed per device).
const COST_CHARGING_CALLS: &[&str] = &[
    "charge_cycles",
    "advance_cycles",
    "transfer_cycles",
    "integration_cycles",
    "scale_kernel_cycles",
    "loop_cycles",
    "loop_seconds",
    "upload_seconds",
    "readback_seconds",
];

fn check_observer_purity(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    check_cost_charging(
        ctx,
        Rule::ObserverPurity,
        "in the observability layer — observers watch costs, they never charge them",
        out,
    );
}

/// Physics-once execution (DESIGN.md §17): a shared-eval module computes
/// each evaluation's physics exactly once; charging simulated time or cycles
/// there would double-count it into every device that replays the result.
fn check_eval_purity(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    check_cost_charging(
        ctx,
        Rule::EvalPurity,
        "in a shared-eval module — the shared evaluator computes physics once; cost interpretation belongs to each device's replay layer",
        out,
    );
}

fn check_cost_charging(ctx: &FileContext<'_>, rule: Rule, why: &str, out: &mut Vec<Finding>) {
    let n = ctx.code.len();
    for ci in 0..n {
        if ci + 2 < n
            && ctx.is_punct(ci, ".")
            && ctx.is_ident(ci + 1, "charge")
            && ctx.is_punct(ci + 2, "(")
        {
            ctx.emit(out, rule, ci + 1, format!("`.charge()` {why}"));
        }
        if ci + 1 < n && ctx.is_punct(ci + 1, "(") {
            let tok = ctx.tok(ci);
            if tok.kind == TokenKind::Ident {
                let t = tok.text(ctx.src);
                if COST_CHARGING_CALLS.contains(&t) {
                    ctx.emit(out, rule, ci, format!("`{t}()` {why}"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// sim-time-units (new in v2)

/// Does an identifier name a simulated-seconds accumulator?
fn is_sim_time_ident(name: &str) -> bool {
    name.contains("sim_seconds")
        || name.contains("sim_time")
        || name.contains("simulated_seconds")
        || name.contains("sim_elapsed")
        || name == "sim_s"
}

/// Does an identifier name a host wall-clock value?
fn is_wall_ident(name: &str) -> bool {
    name.contains("wall")
}

/// Is this file a cost-model module, where literal seconds/cycles constants
/// legitimately enter sim-time?
fn is_cost_model_module(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    file == "config.rs" || file.contains("cost") || file.contains("calibrat")
}

fn check_sim_time_units(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let n = ctx.code.len();
    // Locals derived from a wall clock: `let X = …Instant…/…elapsed()…;`
    let mut wall_locals: BTreeSet<String> = BTreeSet::new();
    for ci in 0..n {
        if !ctx.is_ident(ci, "let") {
            continue;
        }
        let mut j = ci + 1;
        if j < n && ctx.is_ident(j, "mut") {
            j += 1;
        }
        if j >= n || ctx.tok(j).kind != TokenKind::Ident {
            continue;
        }
        let name = ctx.text(j).to_string();
        let mut k = j + 1;
        let mut depth = 0i32;
        let mut from_wall = false;
        while k < n {
            let t = ctx.text(k);
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                "Instant" | "SystemTime" | "elapsed" => from_wall = true,
                _ => from_wall = from_wall || is_wall_ident(t),
            }
            k += 1;
        }
        if from_wall {
            wall_locals.insert(name);
        }
    }
    let wall_like = |name: &str| is_wall_ident(name) || wall_locals.contains(name);

    // Statement-wise scan: a statement mixing sim-time and wall-clock
    // identifiers around arithmetic is a unit violation.
    let mut stmt_start = 0usize;
    let mut ci = 0usize;
    while ci <= n {
        let at_break = ci == n || {
            let t = ctx.text(ci);
            t == ";" || t == "{" || t == "}"
        };
        if at_break {
            let stmt = stmt_start..ci;
            let mut sim_at: Option<usize> = None;
            let mut wall_at: Option<usize> = None;
            let mut has_arith = false;
            for k in stmt.clone() {
                let tok = ctx.tok(k);
                match tok.kind {
                    TokenKind::Ident => {
                        let t = tok.text(ctx.src);
                        if is_sim_time_ident(t) && sim_at.is_none() {
                            sim_at = Some(k);
                        }
                        if wall_like(t) && wall_at.is_none() {
                            wall_at = Some(k);
                        }
                    }
                    TokenKind::Punct => {
                        if matches!(
                            tok.text(ctx.src),
                            "+" | "-" | "*" | "/" | "+=" | "-=" | "*=" | "/="
                        ) {
                            has_arith = true;
                        }
                    }
                    _ => {}
                }
            }
            if let (Some(sim), Some(_wall), true) = (sim_at, wall_at, has_arith) {
                ctx.emit(
                    out,
                    Rule::SimTimeUnits,
                    sim,
                    format!("arithmetic mixes simulated seconds (`{}`) with a host wall-clock value (`{}`) — the two clocks must never meet in one expression", ctx.text(sim), ctx.text(wall_at.unwrap_or(sim))),
                );
            }
            // Float literal folded straight into a sim-time accumulator,
            // outside cost-model modules: `sim_x += 1.5e-6` / `sim_x + 0.3`.
            if !is_cost_model_module(ctx.path) {
                for k in stmt.clone() {
                    if ctx.tok(k).kind != TokenKind::Ident || !is_sim_time_ident(ctx.text(k)) {
                        continue;
                    }
                    if k + 1 < ci {
                        let op = ctx.text(k + 1);
                        if (op == "+=" || op == "+" || op == "-")
                            && k + 2 < ci
                            && is_float_literal(ctx.tok(k + 2), ctx.src)
                        {
                            ctx.emit(
                                out,
                                Rule::SimTimeUnits,
                                k + 2,
                                format!("float literal `{}` added directly to sim-time `{}` outside a cost-model module — name the constant in the device's cost model instead", ctx.text(k + 2), ctx.text(k)),
                            );
                        }
                    }
                    if k >= 2 && ctx.text(k - 1) == "+" && is_float_literal(ctx.tok(k - 2), ctx.src)
                    {
                        ctx.emit(
                            out,
                            Rule::SimTimeUnits,
                            k - 2,
                            format!("float literal `{}` added directly to sim-time `{}` outside a cost-model module — name the constant in the device's cost model instead", ctx.text(k - 2), ctx.text(k)),
                        );
                    }
                }
            }
            stmt_start = ci + 1;
        }
        ci += 1;
    }
}

fn is_float_literal(tok: &Token, src: &str) -> bool {
    if tok.kind != TokenKind::Number {
        return false;
    }
    let t = tok.text(src);
    let t = t.trim_end_matches("f32").trim_end_matches("f64");
    (t.contains('.') || t.contains('e') || t.contains('E')) && !t.starts_with("0x") && t != "0.0"
}

// ---------------------------------------------------------------------------
// cache-token (new in v2) — workspace rule

/// One analyzed file handed to workspace rules.
pub struct AnalyzedFile<'a> {
    pub path: &'a str,
    pub src: &'a str,
    pub tokens: &'a [Token],
    pub code: &'a [usize],
    pub items: &'a Items,
}

/// Every field of every cost-model/config struct reachable from a
/// `cache_token()` fn must be *mentioned* in its body — as a field access
/// (`c.clock_hz`), a destructured binding (`n_spes`), or a format-string
/// interpolation (`{n_spes}`). Struct roots are the types constructed in
/// the body (`CellConfig::paper_blade()`, `let c: GpuConfig = …`); nested
/// struct-typed fields are expanded recursively, so a parameter added three
/// levels down (`costs.lj_eval`) still demands encoding. Missing fields are
/// reported *at the field's definition*, which is where the fix (or the
/// waiver, with justification) belongs.
pub fn check_cache_token(
    files: &[AnalyzedFile<'_>],
    symbols: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    for fnsym in symbols.fns_named("cache_token") {
        if fnsym.item.in_test {
            continue;
        }
        let Some((body_lo, body_hi)) = fnsym.item.body else {
            continue;
        };
        let Some(file) = files.iter().find(|f| f.path == fnsym.path) else {
            continue;
        };
        // Mentioned identifiers: code idents in the body plus words inside
        // the body's string literals (format interpolations).
        let mut mentioned: BTreeSet<String> = BTreeSet::new();
        let mut roots: Vec<String> = Vec::new();
        let body_code: Vec<usize> = file
            .code
            .iter()
            .copied()
            .filter(|&ti| ti >= body_lo && ti <= body_hi)
            .collect();
        for (bi, &ti) in body_code.iter().enumerate() {
            let tok = &file.tokens[ti];
            match tok.kind {
                TokenKind::Ident => {
                    let t = tok.text(file.src).to_string();
                    // Root detection: `T::ctor(` and `let x: T =`.
                    if symbols.has_struct(&t) {
                        let next = body_code
                            .get(bi + 1)
                            .map(|&nt| file.tokens[nt].text(file.src));
                        let prev = bi
                            .checked_sub(1)
                            .and_then(|p| body_code.get(p))
                            .map(|&pt| file.tokens[pt].text(file.src));
                        if next == Some("::") || prev == Some(":") {
                            roots.push(t.clone());
                        }
                    }
                    mentioned.insert(t);
                }
                TokenKind::Str => {
                    let text = tok.text(file.src);
                    for word in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                        if !word.is_empty() {
                            mentioned.insert(word.to_string());
                        }
                    }
                }
                _ => {}
            }
        }
        let fn_label = match &fnsym.item.self_ty {
            Some(ty) => format!("{ty}::cache_token"),
            None => "cache_token".to_string(),
        };
        // The enclosing type's own fields are configuration knobs too. A
        // struct self type (e.g. a scenario spec) joins the expansion roots
        // so its fields — and any struct-typed fields below them — must all
        // be encoded; an enum self type gets its variant fields checked
        // directly.
        if let Some(self_ty) = &fnsym.item.self_ty {
            if symbols.has_struct(self_ty) {
                roots.push(self_ty.clone());
            }
            if let Some(en) = symbols.enumeration(self_ty) {
                for v in &en.item.variants {
                    for f in &v.fields {
                        if !mentioned.contains(&f.name) {
                            out.push(Finding {
                                rule: Rule::CacheToken,
                                path: en.path.clone(),
                                line: f.line,
                                col: f.col,
                                message: format!(
                                    "variant field `{}::{}.{}` is not encoded in `{fn_label}` — changing it would silently serve stale cached results",
                                    self_ty, v.name, f.name
                                ),
                                waived: false,
                            });
                        }
                    }
                }
            }
        }
        // Recursive struct expansion.
        let mut visited: BTreeSet<String> = BTreeSet::new();
        let mut queue = roots;
        while let Some(name) = queue.pop() {
            if !visited.insert(name.clone()) {
                continue;
            }
            let Some(sym) = symbols.structure(&name) else {
                continue;
            };
            for f in &sym.item.fields {
                if !mentioned.contains(&f.name) {
                    out.push(Finding {
                        rule: Rule::CacheToken,
                        path: sym.path.clone(),
                        line: f.line,
                        col: f.col,
                        message: format!(
                            "cost-model field `{}.{}` is not encoded in `{fn_label}` — changing it would silently serve stale cached results",
                            name, f.name
                        ),
                        waived: false,
                    });
                }
                if let Some(nested) = symbols.resolve_field_struct(&f.ty) {
                    queue.push(nested.item.name.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_source;

    fn check(path: &str, src: &str, rule: Rule) -> Vec<Finding> {
        scan_source(path, src)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect()
    }

    #[test]
    fn scoping() {
        assert!(
            applicable_rules("crates/cell-be/src/kernel.rs").contains(&Rule::PrecisionDiscipline)
        );
        assert!(applicable_rules("crates/cell-be/src/dma.rs").contains(&Rule::CostConservation));
        assert!(!applicable_rules("crates/cell-be/src/dma.rs").contains(&Rule::PrecisionDiscipline));
        assert!(applicable_rules("crates/sim-fault/src/plan.rs").contains(&Rule::CostConservation));
        assert_eq!(
            applicable_rules("crates/md-core/src/lj.rs"),
            vec![Rule::SimTimeUnits]
        );
        assert!(applicable_rules("crates/cell-be/tests/integration.rs").is_empty());
        assert!(applicable_rules("src/main.rs").is_empty());
        assert_eq!(
            applicable_rules("crates/sim-perf/src/counter.rs"),
            vec![Rule::ObserverPurity],
        );
        // sim-obs is the second observer crate: same profile, same rules.
        assert_eq!(
            applicable_rules("crates/sim-obs/src/ledger.rs"),
            vec![Rule::ObserverPurity],
        );
        assert!(applicable_rules("crates/sim-sweep/src/engine.rs").contains(&Rule::ObserverPurity));
        // harness is a core crate: the same rules as md-core.
        assert_eq!(
            applicable_rules("crates/harness/src/device.rs"),
            applicable_rules("crates/md-core/src/lj.rs")
        );
        // The declared shared-eval module carries eval-purity on top of its
        // crate's core profile; sibling md-core files do not.
        assert!(applicable_rules("crates/md-core/src/shared_eval.rs").contains(&Rule::EvalPurity));
        assert!(!applicable_rules("crates/md-core/src/lj.rs").contains(&Rule::EvalPurity));
    }

    #[test]
    fn eval_purity_flags_cost_charging_in_shared_eval_modules() {
        let path = "crates/md-core/src/shared_eval.rs";
        for src in [
            "pub fn row(spe: &mut Spe) { spe.charge(4.0); }\n",
            "pub fn row(s: &mut Session) { s.charge_cycles(4, 3.2e9); }\n",
            "pub fn row(g: &Gpu, t: &Texture) -> f64 { g.upload_seconds(t) }\n",
        ] {
            assert_eq!(check(path, src, Rule::EvalPurity).len(), 1, "{src}");
        }
        // Pure physics — and cost charging *outside* the shared evaluator
        // (a device's replay layer) — are both fine.
        let pure = "pub fn row(r2: f32) -> f32 { 1.0 / r2 }\n";
        assert!(check(path, pure, Rule::EvalPurity).is_empty());
        let replay = "pub fn f(spe: &mut Spe) { spe.charge(4.0); }\n";
        assert!(check("crates/cell-be/src/kernel.rs", replay, Rule::EvalPurity).is_empty());
    }

    #[test]
    fn precision_flags_types_casts_and_suffixes() {
        let path = "crates/gpu/src/shader.rs";
        for src in [
            "pub fn f(x: f64) {}\n",
            "pub fn f() { let y = 1u32 as f64; }\n",
            "pub fn f() { let z = 1.0f64; }\n",
            "const K: f64 = 0.5;\n",
        ] {
            assert_eq!(
                check(path, src, Rule::PrecisionDiscipline).len(),
                1,
                "{src}"
            );
        }
        // Identifiers merely containing the substring are fine — and so are
        // macro-generated names and doc comments mentioning f64.
        for src in [
            "pub fn f() { let buf64 = 0u32; }\n",
            "/// Returns f64-quality error bounds (prose, not code).\npub fn f() {}\n",
            "pub fn f() { let s = \"f64\"; }\n",
        ] {
            assert!(
                check(path, src, Rule::PrecisionDiscipline).is_empty(),
                "{src}"
            );
        }
    }

    #[test]
    fn cost_conservation_flags_unit_buffer_mutators() {
        let path = "crates/cell-be/src/localstore.rs";
        let bad = "pub fn write_bytes(&mut self, offset: usize, data: &[u8]) {\n}\n";
        assert_eq!(check(path, bad, Rule::CostConservation).len(), 1);
        let bad2 = "pub fn fill(dst: &mut [f32], v: f32) {\n}\n";
        assert_eq!(check(path, bad2, Rule::CostConservation).len(), 1);
        let good = "pub fn write_bytes(&mut self, offset: usize, data: &[u8]) -> u64 {\n0\n}\n";
        assert!(check(path, good, Rule::CostConservation).is_empty());
        let state = "pub fn reset(&mut self) {\n}\n";
        assert!(check(path, state, Rule::CostConservation).is_empty());
        let private = "fn scribble(dst: &mut [u8]) {\n}\n";
        assert!(check(path, private, Rule::CostConservation).is_empty());
        // Multiline signatures report the `fn` keyword's line.
        let multi = "pub fn upload(\n    &mut self,\n    data: &[f32],\n) {\n}\n";
        let found = check("crates/gpu/src/device.rs", multi, Rule::CostConservation);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn observer_purity_flags_cost_charging_calls() {
        let path = "crates/sim-perf/src/counter.rs";
        for src in [
            "pub fn f(spe: &mut Spe) { spe.charge(12.0); }\n",
            "pub fn f(s: &mut Session) { s.charge_cycles(4, 3.2e9); }\n",
            "pub fn f(d: &Dma) -> f64 { d.transfer_cycles(1024) }\n",
            "pub fn f(g: &Gpu, t: &Texture) -> f64 { g.upload_seconds(t) }\n",
        ] {
            assert_eq!(check(path, src, Rule::ObserverPurity).len(), 1, "{src}");
        }
        for src in [
            "pub fn f(m: &RunMetrics) -> f64 { m.attribution_seconds(\"dma\") }\n",
            "pub fn f(c: &CounterSeries) -> f64 { c.value() }\n",
        ] {
            assert!(check(path, src, Rule::ObserverPurity).is_empty(), "{src}");
        }
    }

    #[test]
    fn sim_time_units_flags_mixed_clock_arithmetic() {
        let path = "crates/gpu/src/device.rs";
        let mixed = "pub fn f(sim_seconds: f64, host_wall_seconds: f64) -> f64 { sim_seconds + host_wall_seconds }\n";
        assert_eq!(check(path, mixed, Rule::SimTimeUnits).len(), 1);
        let lit = "pub fn f(mut sim_seconds: f64) -> f64 { sim_seconds += 1.5e-6; sim_seconds }\n";
        assert_eq!(check(path, lit, Rule::SimTimeUnits).len(), 1);
        // Cost-model modules may introduce calibrated literal costs.
        assert!(check("crates/gpu/src/config.rs", lit, Rule::SimTimeUnits).is_empty());
        // Adding a named cost-model field is the sanctioned shape.
        let ok = "pub fn f(mut sim_seconds: f64, c: &GpuConfig) -> f64 { sim_seconds += c.dispatch_overhead_s; sim_seconds }\n";
        assert!(check(path, ok, Rule::SimTimeUnits).is_empty());
        // Wall-clock math on its own (throughput reporting) is fine.
        let wall_only =
            "pub fn f(host_wall_seconds: f64, n: f64) -> f64 { n / host_wall_seconds }\n";
        assert!(check(path, wall_only, Rule::SimTimeUnits).is_empty());
    }
}
