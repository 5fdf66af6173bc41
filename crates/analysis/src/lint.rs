//! Lints over annotated programs.
//!
//! Lints are *advisory* static diagnostics: unlike proof obligations they
//! never change a verification verdict, and unlike parse errors they never
//! stop a run. Each lint carries a stable machine-readable [`LintCode`]
//! (same append-only contract as
//! [`DiagnosticCode`](crate::diag::DiagnosticCode)) and a [`Severity`];
//! `commcsl lint --deny warnings` turns warning-severity lints into a
//! non-zero exit.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

use commcsl_pure::{Symbol, Term};
use commcsl_telemetry::Json;

use crate::diag::{DiagnosticCode, SourceSpan};
use crate::lowness::analyze_lowness;
use crate::prepass::goal_statically_valid;
use crate::program::{path_from_json, path_to_json, AnnotatedProgram, StmtPath, VStmt};

/// Stable machine-readable identifier of a lint kind.
///
/// Spellings are append-only, like diagnostic codes: renaming or re-using
/// one is a breaking change to the JSON and protocol surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// A declared resource is never shared or acted on.
    UnusedResource,
    /// An action of a used resource is never performed.
    UnusedAction,
    /// A `share` with no matching `unshare` anywhere in the program.
    ShareWithoutUnshare,
    /// An atomic block on a resource that is not currently shared.
    WithOnUnshared,
    /// An action precondition that is trivially true — the `requires`
    /// annotation has no effect.
    TrivialRequires,
    /// An `assert low` the static pre-pass already proves — the
    /// annotation is redundant (and a candidate for pruning).
    DeadAssertLow,
    /// A binding that shadows an existing variable.
    ShadowedVar,
    /// A variable that is bound but never read.
    UnusedVar,
    /// An annotation (an `unshare`'s abstraction-equality assumption) that
    /// no proved obligation needed. Emitted by the verifier's proof-core
    /// tracking, not by the static lint passes.
    UnneededAnnotation,
}

impl LintCode {
    /// All codes, in a stable order.
    pub const ALL: [LintCode; 9] = [
        LintCode::UnusedResource,
        LintCode::UnusedAction,
        LintCode::ShareWithoutUnshare,
        LintCode::WithOnUnshared,
        LintCode::TrivialRequires,
        LintCode::DeadAssertLow,
        LintCode::ShadowedVar,
        LintCode::UnusedVar,
        LintCode::UnneededAnnotation,
    ];

    /// The stable string form used in JSON output and the protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::UnusedResource => "unused-resource",
            LintCode::UnusedAction => "unused-action",
            LintCode::ShareWithoutUnshare => "share-without-unshare",
            LintCode::WithOnUnshared => "with-on-unshared",
            LintCode::TrivialRequires => "trivial-requires",
            LintCode::DeadAssertLow => "dead-assert-low",
            LintCode::ShadowedVar => "shadowed-var",
            LintCode::UnusedVar => "unused-var",
            LintCode::UnneededAnnotation => "unneeded-annotation",
        }
    }

    /// The default severity of this lint.
    pub fn severity(self) -> Severity {
        match self {
            // Structural mistakes: almost certainly bugs.
            LintCode::UnusedResource
            | LintCode::ShareWithoutUnshare
            | LintCode::WithOnUnshared
            | LintCode::ShadowedVar => Severity::Warning,
            // Hints: legitimate programs trip these (a spec library
            // action the program happens not to perform, a redundant
            // annotation kept for documentation, a deliberately ignored
            // input).
            LintCode::UnusedAction
            | LintCode::TrivialRequires
            | LintCode::DeadAssertLow
            | LintCode::UnusedVar
            | LintCode::UnneededAnnotation => Severity::Note,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for LintCode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| format!("unknown lint code `{s}`"))
    }
}

/// How serious a lint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never affects exit codes.
    Note,
    /// Likely a mistake; `--deny warnings` turns these into failures.
    Warning,
}

impl Severity {
    /// The stable string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// The stable code.
    pub code: LintCode,
    /// Severity (the code's default; kept on the finding so callers can
    /// re-level without consulting the code table).
    pub severity: Severity,
    /// Statement path of the offending site (empty for program-level
    /// findings such as an unused resource declaration).
    pub path: StmtPath,
    /// Source position, when the program came through the frontend.
    pub span: Option<SourceSpan>,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "{span}: {}[{}]: {}", self.severity, self.code, self.message),
            None => write!(f, "{}[{}]: {}", self.severity, self.code, self.message),
        }
    }
}

impl Lint {
    /// Decodes a finding. A missing `severity` defaults to the code's and
    /// a missing `path` to the program level.
    pub fn from_json(doc: &Json) -> Result<Lint, String> {
        let code = doc
            .get("code")
            .and_then(Json::as_str)
            .ok_or("lint needs `code`")?
            .parse::<LintCode>()?;
        let severity = match doc.get("severity").and_then(Json::as_str) {
            Some("warning") => Severity::Warning,
            Some("note") => Severity::Note,
            Some(other) => return Err(format!("unknown severity `{other}`")),
            None => code.severity(),
        };
        Ok(Lint {
            code,
            severity,
            path: doc
                .get("path")
                .map(path_from_json)
                .transpose()?
                .unwrap_or_default(),
            span: doc.get("span").map(SourceSpan::from_json).transpose()?,
            message: doc
                .get("message")
                .and_then(Json::as_str)
                .ok_or("lint needs `message`")?
                .to_owned(),
        })
    }
}

impl From<&Lint> for Json {
    /// `{"code","severity","span"?,"path","message"}`: the one shape of a
    /// finding in report `hints`, the daemon's `lint` op and events, and
    /// `commcsl lint --json`.
    fn from(lint: &Lint) -> Json {
        let mut fields = vec![
            ("code", Json::str(lint.code.as_str())),
            ("severity", Json::str(lint.severity.as_str())),
        ];
        if let Some(span) = lint.span {
            fields.push(("span", span.into()));
        }
        fields.push(("path", path_to_json(&lint.path)));
        fields.push(("message", Json::str(&lint.message)));
        Json::obj(fields)
    }
}

/// Runs every lint pass over `program`, returning findings sorted by
/// statement path, then code.
pub fn lint_program(program: &AnnotatedProgram) -> Vec<Lint> {
    let mut lints = Vec::new();
    let usage = collect_usage(program);
    lint_resources(program, &usage, &mut lints);
    lint_share_discipline(program, &usage, &mut lints);
    lint_variables(program, &mut lints);
    lint_dead_asserts(program, &mut lints);
    lints.sort_by(|a, b| a.path.cmp(&b.path).then(a.code.cmp(&b.code)));
    lints
}

fn push(
    program: &AnnotatedProgram,
    lints: &mut Vec<Lint>,
    code: LintCode,
    path: &[u32],
    message: String,
) {
    lints.push(Lint {
        code,
        severity: code.severity(),
        path: path.to_vec(),
        span: program.span_at(path),
        message,
    });
}

// ------------------------------------------------------------- usage scan

/// Everything the resource lints need from one walk of the body.
#[derive(Default)]
struct Usage {
    /// Paths of `share` statements per resource index.
    shares: BTreeMap<usize, Vec<StmtPath>>,
    /// Resources with at least one `unshare`.
    unshared: BTreeSet<usize>,
    /// Action names performed per resource index.
    performed: BTreeMap<usize, BTreeSet<Symbol>>,
    /// Any mention of the resource at all (share, act, unshare).
    mentioned: BTreeSet<usize>,
}

fn collect_usage(program: &AnnotatedProgram) -> Usage {
    let mut usage = Usage::default();
    walk_paths(&program.body, &mut Vec::new(), &mut |stmt, path| match stmt {
        VStmt::Share { resource, .. } => {
            usage.mentioned.insert(*resource);
            usage.shares.entry(*resource).or_default().push(path.to_vec());
        }
        VStmt::Unshare { resource, .. } => {
            usage.mentioned.insert(*resource);
            usage.unshared.insert(*resource);
        }
        VStmt::Atomic {
            resource, action, ..
        }
        | VStmt::AtomicBatch {
            resource, action, ..
        }
        | VStmt::AtomicDeferred {
            resource, action, ..
        }
        | VStmt::ConsumeBind {
            resource, action, ..
        } => {
            usage.mentioned.insert(*resource);
            usage
                .performed
                .entry(*resource)
                .or_default()
                .insert(action.clone());
        }
        _ => {}
    });
    usage
}

/// Calls `f` on every statement with its path, in program order (workers
/// of a `par` in declaration order), using the path conventions shared
/// with the symbolic execution (see [`StmtPath`]).
fn walk_paths<F: FnMut(&VStmt, &[u32])>(body: &[VStmt], path: &mut StmtPath, f: &mut F) {
    for (i, stmt) in body.iter().enumerate() {
        path.push(i as u32);
        f(stmt, path);
        walk_children(stmt, path, f);
        path.pop();
    }
}

/// Visits the children of one (already-visited) statement.
fn walk_children<F: FnMut(&VStmt, &[u32])>(stmt: &VStmt, path: &mut StmtPath, f: &mut F) {
    let visit = |s: &VStmt, idx: u32, path: &mut StmtPath, f: &mut F| {
        path.push(idx);
        f(s, path);
        walk_children(s, path, f);
        path.pop();
    };
    match stmt {
        VStmt::If { then_b, else_b, .. } => {
            let then_len = then_b.len() as u32;
            for (j, s) in then_b.iter().enumerate() {
                visit(s, j as u32, path, f);
            }
            for (j, s) in else_b.iter().enumerate() {
                visit(s, then_len + j as u32, path, f);
            }
        }
        VStmt::For { body, .. } => {
            for (j, s) in body.iter().enumerate() {
                visit(s, j as u32, path, f);
            }
        }
        VStmt::Par { workers } => {
            for (w, worker) in workers.iter().enumerate() {
                path.push(w as u32);
                for (j, s) in worker.iter().enumerate() {
                    visit(s, j as u32, path, f);
                }
                path.pop();
            }
        }
        _ => {}
    }
}

// ------------------------------------------------------- resource lints

fn lint_resources(program: &AnnotatedProgram, usage: &Usage, lints: &mut Vec<Lint>) {
    for (i, spec) in program.resources.iter().enumerate() {
        if !usage.mentioned.contains(&i) {
            push(
                program,
                lints,
                LintCode::UnusedResource,
                &[],
                format!("resource `{}` is declared but never used", spec.name),
            );
            continue;
        }
        let performed = usage.performed.get(&i);
        for act in &spec.actions {
            if performed.is_none_or(|s| !s.contains(&act.name)) {
                push(
                    program,
                    lints,
                    LintCode::UnusedAction,
                    &[],
                    format!(
                        "action `{}` of resource `{}` is never performed",
                        act.name, spec.name
                    ),
                );
            }
            if goal_statically_valid(&act.pre) {
                // Attach to the first share site when there is one — that
                // is where the spec enters the program.
                let path = usage
                    .shares
                    .get(&i)
                    .and_then(|s| s.first())
                    .cloned()
                    .unwrap_or_default();
                push(
                    program,
                    lints,
                    LintCode::TrivialRequires,
                    &path,
                    format!(
                        "`requires` of action `{}` on resource `{}` is trivially true",
                        act.name, spec.name
                    ),
                );
            }
        }
    }
}

fn lint_share_discipline(program: &AnnotatedProgram, usage: &Usage, lints: &mut Vec<Lint>) {
    // share without a matching unshare anywhere.
    for (resource, shares) in &usage.shares {
        if !usage.unshared.contains(resource) {
            let name = resource_name(program, *resource);
            for path in shares {
                push(
                    program,
                    lints,
                    LintCode::ShareWithoutUnshare,
                    path,
                    format!("resource `{name}` is shared here but never unshared"),
                );
            }
        }
    }
    // Atomic blocks outside a share..unshare window. One forward walk
    // with the currently-shared set; `par` workers all run inside the
    // same window, so the sequential visit order is conservative only in
    // the benign direction (a worker cannot unshare what a sibling uses —
    // unshare inside `par` is rejected by the verifier anyway).
    let mut shared: BTreeSet<usize> = BTreeSet::new();
    walk_paths(&program.body, &mut Vec::new(), &mut |stmt, path| match stmt {
        VStmt::Share { resource, .. } => {
            shared.insert(*resource);
        }
        VStmt::Unshare { resource, .. } => {
            shared.remove(resource);
        }
        VStmt::Atomic { resource, .. }
        | VStmt::AtomicBatch { resource, .. }
        | VStmt::AtomicDeferred { resource, .. }
        | VStmt::ConsumeBind { resource, .. }
            if !shared.contains(resource) =>
        {
            let name = resource_name(program, *resource);
            push(
                program,
                lints,
                LintCode::WithOnUnshared,
                path,
                format!("atomic block on resource `{name}` which is not shared here"),
            );
        }
        _ => {}
    });
}

fn resource_name(program: &AnnotatedProgram, resource: usize) -> String {
    program
        .resources
        .get(resource)
        .map(|s| s.name.to_string())
        .unwrap_or_else(|| format!("#{resource}"))
}

// ------------------------------------------------------- variable lints

fn lint_variables(program: &AnnotatedProgram, lints: &mut Vec<Lint>) {
    // Reads: every free variable of every expression in the program.
    let mut reads: BTreeSet<Symbol> = BTreeSet::new();
    walk_paths(&program.body, &mut Vec::new(), &mut |stmt, _| {
        let mut read = |t: &Term| reads.extend(t.free_vars());
        match stmt {
            VStmt::Assign(_, e) | VStmt::AssertLow(e) | VStmt::Output(e) => read(e),
            VStmt::If { cond, .. } => read(cond),
            VStmt::For { from, to, .. } => {
                read(from);
                read(to);
            }
            VStmt::Share { init, .. } => read(init),
            VStmt::Atomic { arg, .. } | VStmt::AtomicDeferred { arg, .. } => read(arg),
            VStmt::AtomicBatch { arg, count, .. } => {
                read(arg);
                read(count);
            }
            VStmt::ConsumeBind { index, .. } => read(index),
            VStmt::Input { .. } | VStmt::Par { .. } | VStmt::Unshare { .. } => {}
        }
    });

    // Bindings: first-bind sites. A later `:=` to an existing variable is
    // mutation; a later *binding* form (input / loop var / consume /
    // unshare-into) over an existing name shadows it. Scoping matters
    // here: nested blocks see enclosing bindings, but sibling scopes —
    // the workers of a `par`, the two arms of an `if` — do not see each
    // other's, so a name bound in each worker is NOT a shadow.
    walk_scoped(
        program,
        &program.body,
        0,
        &mut Vec::new(),
        &mut BTreeSet::new(),
        &reads,
        lints,
    );
}

/// The binding walk of [`lint_variables`]: statements of one block extend
/// `bound` in order; each nested block starts from a *clone* of the
/// enclosing scope, so bindings never leak into siblings (the workers of
/// a `par`, the arms of an `if`). `base` offsets child indices per the
/// [`walk_children`] path conventions (an `else` arm continues the `then`
/// arm's numbering).
fn walk_scoped(
    program: &AnnotatedProgram,
    body: &[VStmt],
    base: u32,
    path: &mut StmtPath,
    bound: &mut BTreeSet<Symbol>,
    reads: &BTreeSet<Symbol>,
    lints: &mut Vec<Lint>,
) {
    for (i, stmt) in body.iter().enumerate() {
        path.push(base + i as u32);
        visit_scoped(program, stmt, path, bound, reads, lints);
        // Descend after the statement's own binder (a loop variable is
        // in scope inside its body).
        match stmt {
            VStmt::If { then_b, else_b, .. } => {
                let mut then_scope = bound.clone();
                walk_scoped(program, then_b, 0, path, &mut then_scope, reads, lints);
                let mut else_scope = bound.clone();
                walk_scoped(
                    program,
                    else_b,
                    then_b.len() as u32,
                    path,
                    &mut else_scope,
                    reads,
                    lints,
                );
            }
            VStmt::For { body, .. } => {
                let mut scope = bound.clone();
                walk_scoped(program, body, 0, path, &mut scope, reads, lints);
            }
            VStmt::Par { workers } => {
                for (w, worker) in workers.iter().enumerate() {
                    path.push(w as u32);
                    let mut scope = bound.clone();
                    walk_scoped(program, worker, 0, path, &mut scope, reads, lints);
                    path.pop();
                }
            }
            _ => {}
        }
        path.pop();
    }
}

/// Flags one statement's binder against the current scope (no descent).
fn visit_scoped(
    program: &AnnotatedProgram,
    stmt: &VStmt,
    path: &StmtPath,
    bound: &mut BTreeSet<Symbol>,
    reads: &BTreeSet<Symbol>,
    lints: &mut Vec<Lint>,
) {
    let binder: Option<(&Symbol, bool)> = match stmt {
        VStmt::Input { var, .. } => Some((var, true)),
        VStmt::Assign(var, _) => Some((var, false)),
        VStmt::For { var, .. } => Some((var, true)),
        VStmt::ConsumeBind { var, .. } => Some((var, true)),
        VStmt::Unshare { into, .. } => Some((into, true)),
        _ => None,
    };
    if let Some((var, rebind_shadows)) = binder {
        if !bound.insert(var.clone()) && rebind_shadows {
            push(
                program,
                lints,
                LintCode::ShadowedVar,
                path,
                format!("binding of `{var}` shadows an existing variable"),
            );
        }
        if !reads.contains(var) {
            push(
                program,
                lints,
                LintCode::UnusedVar,
                path,
                format!("variable `{var}` is bound but never read"),
            );
        }
    }
}

fn lint_dead_asserts(program: &AnnotatedProgram, lints: &mut Vec<Lint>) {
    let analysis = analyze_lowness(program);
    for p in &analysis.predictions {
        if p.code == DiagnosticCode::LowAssert {
            push(
                program,
                lints,
                LintCode::DeadAssertLow,
                &p.path,
                "`assert low` is statically proven; the annotation is redundant".to_owned(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commcsl_logic::spec::{ActionDef, ResourceSpec};
    use commcsl_pure::Sort;

    fn has(lints: &[Lint], code: LintCode) -> bool {
        lints.iter().any(|l| l.code == code)
    }

    #[test]
    fn codes_roundtrip_and_are_distinct() {
        let mut seen = BTreeSet::new();
        for code in LintCode::ALL {
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert_eq!(code.as_str().parse::<LintCode>().unwrap(), code);
        }
        assert!("nonsense".parse::<LintCode>().is_err());
    }

    #[test]
    fn unused_resource_and_action() {
        let p = AnnotatedProgram::new("t")
            .with_resource(ResourceSpec::counter_add())
            .with_resource(ResourceSpec::keyset_map())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share {
                    resource: 0,
                    init: Term::int(0),
                },
                VStmt::atomic(0, "Add", Term::var("a")),
                VStmt::Unshare {
                    resource: 0,
                    into: "c".into(),
                },
                VStmt::Output(Term::var("c")),
            ]);
        let lints = lint_program(&p);
        assert!(has(&lints, LintCode::UnusedResource), "{lints:?}");
        // keyset_map's actions are not reported (the whole resource
        // already is); counter's `Add` is performed.
        assert!(!lints
            .iter()
            .any(|l| l.code == LintCode::UnusedAction && l.message.contains("Add")));
    }

    #[test]
    fn share_without_unshare_and_atomic_outside_window() {
        let p = AnnotatedProgram::new("t")
            .with_resource(ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share {
                    resource: 0,
                    init: Term::int(0),
                },
                VStmt::atomic(0, "Add", Term::var("a")),
            ]);
        let lints = lint_program(&p);
        assert!(has(&lints, LintCode::ShareWithoutUnshare), "{lints:?}");
        assert!(!has(&lints, LintCode::WithOnUnshared));

        let q = AnnotatedProgram::new("t2")
            .with_resource(ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::atomic(0, "Add", Term::var("a")),
            ]);
        let lints = lint_program(&q);
        assert!(has(&lints, LintCode::WithOnUnshared), "{lints:?}");
    }

    #[test]
    fn trivial_requires_is_flagged() {
        let spec = ResourceSpec::new(
            "rel",
            Sort::Int,
            Term::var(ResourceSpec::VALUE_VAR),
            [ActionDef::shared(
                "Nop",
                Sort::Int,
                Term::var(ResourceSpec::VALUE_VAR),
                Term::tt(),
            )],
        );
        let p = AnnotatedProgram::new("t").with_resource(spec).with_body([
            VStmt::Share {
                resource: 0,
                init: Term::int(0),
            },
            VStmt::atomic(0, "Nop", Term::int(1)),
            VStmt::Unshare {
                resource: 0,
                into: "c".into(),
            },
        ]);
        let lints = lint_program(&p);
        assert!(has(&lints, LintCode::TrivialRequires), "{lints:?}");
        // The counter spec's requires (arg low) is not trivial.
        let q = AnnotatedProgram::new("q")
            .with_resource(ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share {
                    resource: 0,
                    init: Term::int(0),
                },
                VStmt::atomic(0, "Add", Term::var("a")),
                VStmt::Unshare {
                    resource: 0,
                    into: "c".into(),
                },
            ]);
        assert!(!has(&lint_program(&q), LintCode::TrivialRequires));
    }

    #[test]
    fn shadowed_and_unused_vars() {
        let p = AnnotatedProgram::new("t").with_body([
            VStmt::input("x", Sort::Int, true),
            VStmt::input("x", Sort::Int, false),
            VStmt::input("never", Sort::Int, true),
            VStmt::Output(Term::var("x")),
        ]);
        let lints = lint_program(&p);
        assert!(has(&lints, LintCode::ShadowedVar), "{lints:?}");
        assert!(lints
            .iter()
            .any(|l| l.code == LintCode::UnusedVar && l.message.contains("never")));
        // Plain re-assignment does not shadow.
        let q = AnnotatedProgram::new("q").with_body([
            VStmt::assign("x", Term::int(1)),
            VStmt::assign("x", Term::int(2)),
            VStmt::Output(Term::var("x")),
        ]);
        assert!(!has(&lint_program(&q), LintCode::ShadowedVar));
    }

    #[test]
    fn sibling_scopes_do_not_shadow_each_other() {
        // The same name bound in each worker of a `par` (the standard
        // split-loop idiom) and in both arms of an `if` is NOT a shadow:
        // sibling scopes cannot see each other's bindings.
        let worker = || {
            vec![VStmt::for_range(
                "i",
                Term::int(0),
                Term::int(4),
                vec![VStmt::input("item", Sort::Int, true)],
            )]
        };
        let p = AnnotatedProgram::new("t").with_body([
            VStmt::input("c", Sort::Bool, true),
            VStmt::Par {
                workers: vec![worker(), worker()],
            },
            VStmt::If {
                cond: Term::var("c"),
                then_b: vec![VStmt::input("x", Sort::Int, true)],
                else_b: vec![VStmt::input("x", Sort::Int, true)],
            },
            VStmt::Output(Term::int(0)),
        ]);
        let lints = lint_program(&p);
        assert!(!has(&lints, LintCode::ShadowedVar), "{lints:?}");

        // An enclosing binding IS shadowed from inside a nested block.
        let q = AnnotatedProgram::new("q").with_body([
            VStmt::input("x", Sort::Int, true),
            VStmt::for_range(
                "i",
                Term::int(0),
                Term::var("x"),
                vec![VStmt::input("x", Sort::Int, false)],
            ),
            VStmt::Output(Term::var("x")),
        ]);
        let lints = lint_program(&q);
        let shadow = lints
            .iter()
            .find(|l| l.code == LintCode::ShadowedVar)
            .expect("nested rebinding shadows");
        assert_eq!(shadow.path, vec![1, 0], "{lints:?}");
    }

    #[test]
    fn dead_assert_low_uses_the_lowness_pass() {
        let p = AnnotatedProgram::new("t").with_body([
            VStmt::input("a", Sort::Int, true),
            VStmt::input("h", Sort::Int, false),
            VStmt::AssertLow(Term::var("a")),
            VStmt::AssertLow(Term::var("h")),
            VStmt::Output(Term::var("a")),
        ]);
        let lints = lint_program(&p);
        let dead: Vec<&Lint> = lints
            .iter()
            .filter(|l| l.code == LintCode::DeadAssertLow)
            .collect();
        assert_eq!(dead.len(), 1, "{lints:?}");
        assert_eq!(dead[0].path, vec![2]);
        assert_eq!(dead[0].severity, Severity::Note);
    }

    #[test]
    fn lints_are_sorted_and_carry_spans_when_present() {
        let p = AnnotatedProgram::new("t")
            .with_resource(ResourceSpec::counter_add())
            .with_body([VStmt::atomic(0, "Add", Term::int(1))])
            .with_span(vec![0], SourceSpan::new(3, 5));
        let lints = lint_program(&p);
        let w = lints
            .iter()
            .find(|l| l.code == LintCode::WithOnUnshared)
            .expect("with-on-unshared");
        assert_eq!(w.span, Some(SourceSpan::new(3, 5)));
        assert!(w.to_string().starts_with("3:5: warning[with-on-unshared]"));
        let mut sorted = lints.clone();
        sorted.sort_by(|a, b| a.path.cmp(&b.path).then(a.code.cmp(&b.code)));
        assert_eq!(lints, sorted);
    }
}
