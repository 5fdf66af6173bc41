//! Lowering from the surface AST to the verifier's
//! [`AnnotatedProgram`].
//!
//! Lowering resolves resource and action *names* to the indices the
//! verifier works with, builds [`ResourceSpec`]s out of resource
//! declarations, and performs the well-formedness checks that have natural
//! surface-level diagnostics:
//!
//! * duplicate resource binders / action names,
//! * free-variable discipline (`alpha` over `v`; action bodies over `v`,
//!   `arg`; preconditions over `arg1`, `arg2`),
//! * boolean-sortedness of `requires` clauses,
//! * unknown resources and actions, action argument arity, and
//! * sort compatibility of `share` initializers and action arguments.
//!
//! Every error is a [`ParseError`] carrying the `line:column` position of
//! the offending surface construct.

use std::collections::BTreeMap;

use commcsl_lang::span::{ParseError, Pos};
use commcsl_logic::spec::{ActionDef, ResourceSpec};
use commcsl_pure::{Sort, Symbol, Term, Value};
use commcsl_verifier::diag::SourceSpan;
use commcsl_verifier::program::{AnnotatedProgram, StmtPath, VStmt};

use crate::ast::{ResourceDecl, Stmt, StmtKind, SurfaceProgram, WithSuffix};
use crate::sorts::infer;

/// Lowers a parsed surface program into a verifiable annotated program.
///
/// Every lowered statement's source position lands in the program's span
/// table (keyed by [`StmtPath`], mirroring the verifier's traversal), so
/// verification reports can point back at the `.csl` line of a failed
/// obligation.
///
/// This copies the surface program's terms; [`crate::compile`] lowers the
/// program it has just parsed by moving them instead.
///
/// # Errors
///
/// Returns a [`ParseError`] (with position) on name-resolution or
/// sort-discipline violations; see the module docs for the full list.
pub fn lower(surface: &SurfaceProgram) -> Result<AnnotatedProgram, ParseError> {
    lower_owned(surface.clone())
}

/// [`lower`], consuming the surface program: its terms and names move
/// into the lowered program.
pub(crate) fn lower_owned(surface: SurfaceProgram) -> Result<AnnotatedProgram, ParseError> {
    let mut resources = Vec::new();
    let mut index_of: BTreeMap<Symbol, usize> = BTreeMap::new();
    for (i, decl) in surface.resources.into_iter().enumerate() {
        if index_of.contains_key(&decl.binder) {
            return Err(ParseError::new(
                decl.binder_pos,
                format!("duplicate resource `{}`", decl.binder),
            ));
        }
        let binder = decl.binder.clone();
        resources.push(lower_resource(decl)?);
        index_of.insert(binder, i);
    }
    let ctx = Ctx { index_of, specs: &resources };
    let mut spans: BTreeMap<StmtPath, SourceSpan> = BTreeMap::new();
    let mut path: StmtPath = Vec::new();
    let body = lower_body(surface.body, &ctx, &mut path, 0, &mut spans)?;
    Ok(AnnotatedProgram {
        name: surface.name,
        resources,
        body,
        spans,
    })
}

fn check_free_vars(
    term: &Term,
    allowed: &[&str],
    what: &str,
    pos: Pos,
) -> Result<(), ParseError> {
    for v in term.free_vars() {
        if !allowed.contains(&v.as_str()) {
            return Err(ParseError::new(
                pos,
                format!(
                    "{what} may only mention {}, found `{v}`",
                    allowed
                        .iter()
                        .map(|a| format!("`{a}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn lower_resource(decl: ResourceDecl) -> Result<ResourceSpec, ParseError> {
    check_free_vars(&decl.alpha, &["v"], "the abstraction function", decl.alpha_pos)?;
    let mut actions: Vec<ActionDef> = Vec::new();
    for action in decl.actions {
        if actions.iter().any(|a| a.name == action.name) {
            return Err(ParseError::new(
                action.name_pos,
                format!("duplicate action `{}`", action.name),
            ));
        }
        check_free_vars(
            &action.body,
            &["v", "arg"],
            "an action body",
            action.body_pos,
        )?;
        let pre = match action.pre {
            None => Term::tt(),
            Some((pre, pre_pos)) => {
                check_free_vars(&pre, &["arg1", "arg2"], "a `requires` clause", pre_pos)?;
                let env: BTreeMap<Symbol, Sort> = [
                    (Symbol::new("arg1"), action.arg_sort.clone()),
                    (Symbol::new("arg2"), action.arg_sort.clone()),
                ]
                .into_iter()
                .collect();
                let sort = infer(&pre, &env);
                if !sort.compatible(&Sort::Bool) {
                    return Err(ParseError::new(
                        pre_pos,
                        format!(
                            "ill-sorted `requires` clause: expected Bool, found {sort}"
                        ),
                    ));
                }
                pre
            }
        };
        actions.push(ActionDef {
            name: action.name,
            kind: action.kind,
            arg_sort: action.arg_sort,
            body: action.body,
            pre,
        });
    }
    Ok(ResourceSpec::new(
        decl.spec_name.unwrap_or(decl.binder),
        decl.value_sort,
        decl.alpha,
        actions,
    ))
}

struct Ctx<'a> {
    index_of: BTreeMap<Symbol, usize>,
    specs: &'a [ResourceSpec],
}

impl<'a> Ctx<'a> {
    fn resolve(&self, name: &str, pos: Pos) -> Result<usize, ParseError> {
        self.index_of.get(name).copied().ok_or_else(|| {
            ParseError::new(pos, format!("unknown resource `{name}`"))
        })
    }
}

/// Lowers a statement list whose members live at path components
/// `offset..offset + stmts.len()` under `path`, recording every
/// statement's source position in `spans`. The offset conventions match
/// [`StmtPath`]'s documentation (and the verifier's traversal) exactly.
fn lower_body(
    stmts: Vec<Stmt>,
    ctx: &Ctx<'_>,
    path: &mut StmtPath,
    offset: u32,
    spans: &mut BTreeMap<StmtPath, SourceSpan>,
) -> Result<Vec<VStmt>, ParseError> {
    let mut lowered = Vec::with_capacity(stmts.len());
    for (i, s) in stmts.into_iter().enumerate() {
        path.push(offset + i as u32);
        spans.insert(path.clone(), SourceSpan::new(s.pos.line, s.pos.col));
        lowered.push(lower_stmt(s.kind, ctx, path, spans)?);
        path.pop();
    }
    Ok(lowered)
}

fn lower_stmt(
    kind: StmtKind,
    ctx: &Ctx<'_>,
    path: &mut StmtPath,
    spans: &mut BTreeMap<StmtPath, SourceSpan>,
) -> Result<VStmt, ParseError> {
    Ok(match kind {
        StmtKind::Input { var, sort, low } => VStmt::Input { var, sort, low },
        StmtKind::Assign { var, expr } => VStmt::Assign(var, expr),
        StmtKind::If { cond, then_b, else_b } => {
            let else_offset = then_b.len() as u32;
            VStmt::If {
                cond,
                then_b: lower_body(then_b, ctx, path, 0, spans)?,
                else_b: lower_body(else_b, ctx, path, else_offset, spans)?,
            }
        }
        StmtKind::For { var, from, to, body } => VStmt::For {
            var,
            from,
            to,
            body: lower_body(body, ctx, path, 0, spans)?,
        },
        StmtKind::Share { resource, resource_pos, init, init_pos } => {
            let index = ctx.resolve(resource.as_str(), resource_pos)?;
            let spec = &ctx.specs[index];
            let init_sort = infer(&init, &BTreeMap::new());
            if !init_sort.compatible(&spec.value_sort) {
                return Err(ParseError::new(
                    init_pos,
                    format!(
                        "initial value has sort {init_sort}, but resource `{resource}` \
                         holds {}",
                        spec.value_sort
                    ),
                ));
            }
            VStmt::Share { resource: index, init }
        }
        StmtKind::Par { workers } => VStmt::Par {
            workers: workers
                .into_iter()
                .enumerate()
                .map(|(w, worker)| {
                    path.push(w as u32);
                    let lowered = lower_body(worker, ctx, path, 0, spans);
                    path.pop();
                    lowered
                })
                .collect::<Result<_, _>>()?,
        },
        StmtKind::With {
            resource,
            resource_pos,
            action,
            action_pos,
            args,
            args_pos,
            suffix,
        } => {
            let index = ctx.resolve(resource.as_str(), resource_pos)?;
            let spec = &ctx.specs[index];
            let Some(action_def) = spec.action(action.as_str()) else {
                let known: Vec<&str> =
                    spec.actions.iter().map(|a| a.name.as_str()).collect();
                return Err(ParseError::new(
                    action_pos,
                    format!(
                        "resource `{resource}` (spec `{}`) has no action `{action}`; \
                         available: {}",
                        spec.name,
                        known.join(", ")
                    ),
                ));
            };
            if matches!(suffix, WithSuffix::Binding { .. }) && !args.is_empty() {
                return Err(ParseError::new(
                    args_pos,
                    format!(
                        "a consuming `binding` action takes no argument, got {}",
                        args.len()
                    ),
                ));
            }
            if args.len() > 1 {
                return Err(ParseError::new(
                    args_pos,
                    format!(
                        "action `{action}` takes at most one argument, got {}",
                        args.len()
                    ),
                ));
            }
            let arg = args.into_iter().next().unwrap_or(Term::Lit(Value::Unit));
            let arg_sort = infer(&arg, &BTreeMap::new());
            if !matches!(suffix, WithSuffix::Binding { .. })
                && !arg_sort.compatible(&action_def.arg_sort)
            {
                return Err(ParseError::new(
                    args_pos,
                    format!(
                        "action `{action}` expects an argument of sort {}, found {arg_sort}",
                        action_def.arg_sort
                    ),
                ));
            }
            match suffix {
                WithSuffix::None => VStmt::Atomic { resource: index, action, arg },
                WithSuffix::Deferred => VStmt::AtomicDeferred { resource: index, action, arg },
                WithSuffix::Times(count) => VStmt::AtomicBatch {
                    resource: index,
                    action,
                    arg,
                    count,
                },
                WithSuffix::Binding { var, index: at } => VStmt::ConsumeBind {
                    resource: index,
                    action,
                    var,
                    index: at,
                },
            }
        }
        StmtKind::Unshare { resource, resource_pos, into } => VStmt::Unshare {
            resource: ctx.resolve(resource.as_str(), resource_pos)?,
            into,
        },
        StmtKind::AssertLow(e) => VStmt::AssertLow(e),
        StmtKind::Output(e) => VStmt::Output(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_surface;

    fn compile(src: &str) -> Result<AnnotatedProgram, ParseError> {
        lower(&parse_surface(src)?)
    }

    const COUNTER: &str = "program demo;\n\
                           resource ctr: Int named \"counter-add\" {\n\
                               alpha(v) = v;\n\
                               shared action Add(arg: Int) = v + arg requires arg1 == arg2;\n\
                           }\n";

    #[test]
    fn lowers_counter_program() {
        let src = format!(
            "{COUNTER}\
             input a: Int low;\n\
             share ctr = 0;\n\
             par {{ with ctr performing Add(a); }} || {{ with ctr performing Add(2); }}\n\
             unshare ctr into total;\n\
             output total;"
        );
        let p = compile(&src).unwrap();
        assert_eq!(p.name, "demo");
        assert_eq!(p.resources.len(), 1);
        assert_eq!(p.resources[0].name.as_str(), "counter-add");
        assert_eq!(p.body.len(), 5);
        assert!(matches!(p.body[1], VStmt::Share { resource: 0, .. }));
        let VStmt::Par { workers } = &p.body[2] else {
            panic!("expected par");
        };
        assert_eq!(
            workers[0][0],
            VStmt::atomic(0, "Add", Term::var("a"))
        );
        // The lowered program actually verifies.
        let report = commcsl_verifier::verify(&p, &Default::default());
        assert!(report.verified(), "{report}");
    }

    #[test]
    fn unknown_resource_is_positioned() {
        let err = compile("program p;\nshare ctr = 0;").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (2, 7));
        assert!(err.message.contains("unknown resource `ctr`"));
    }

    #[test]
    fn unknown_action_lists_alternatives() {
        let src = format!("{COUNTER}share ctr = 0;\nwith ctr performing Sub(1);");
        let err = compile(&src).unwrap_err();
        assert_eq!(err.pos.line, 7);
        assert!(err.message.contains("no action `Sub`"));
        assert!(err.message.contains("available: Add"));
    }

    #[test]
    fn arity_violation_is_positioned() {
        let src = format!("{COUNTER}with ctr performing Add(1, 2);");
        let err = compile(&src).unwrap_err();
        assert_eq!(err.pos.line, 6);
        assert!(err.message.contains("takes at most one argument, got 2"));
    }

    #[test]
    fn ill_sorted_requires_is_rejected() {
        let src = "program p;\n\
                   resource ctr: Int {\n\
                       alpha(v) = v;\n\
                       shared action Add(arg: Int) = v + arg requires arg1 + arg2;\n\
                   }";
        let err = compile(src).unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (4, 48));
        assert!(err.message.contains("ill-sorted `requires`"));
        assert!(err.message.contains("found Int"));
    }

    #[test]
    fn foreign_variables_are_rejected() {
        let src = "program p;\n\
                   resource ctr: Int {\n\
                       alpha(v) = v + x;\n\
                   }";
        let err = compile(src).unwrap_err();
        assert!(err.message.contains("may only mention `v`"));
        let src = "program p;\n\
                   resource ctr: Int {\n\
                       alpha(v) = v;\n\
                       shared action A(arg: Int) = v + arg requires arg1 == other;\n\
                   }";
        let err = compile(src).unwrap_err();
        assert!(err.message.contains("`requires` clause"));
    }

    #[test]
    fn share_initializer_sort_is_checked() {
        let src = format!("{COUNTER}share ctr = empty_seq;");
        let err = compile(&src).unwrap_err();
        assert!(err.message.contains("holds Int"));
    }

    #[test]
    fn binding_rejects_arguments() {
        let src = "program p;\n\
                   resource q: Pair[Either[Int, Seq[Int]], Seq[Int]] {\n\
                       alpha(v) = snd(v);\n\
                       unique action Cons(arg: Unit) = v;\n\
                   }\n\
                   with q performing Cons(1) binding x at 0;";
        let err = compile(src).unwrap_err();
        assert_eq!(err.pos.line, 6);
        assert!(err.message.contains("takes no argument"));
    }

    #[test]
    fn duplicate_declarations_are_rejected() {
        let src = "program p;\n\
                   resource a: Int { alpha(v) = v; }\n\
                   resource a: Int { alpha(v) = v; }";
        let err = compile(src).unwrap_err();
        assert!(err.message.contains("duplicate resource"));
        let src = "program p;\n\
                   resource a: Int {\n\
                       alpha(v) = v;\n\
                       shared action A(arg: Int) = v;\n\
                       shared action A(arg: Int) = v;\n\
                   }";
        let err = compile(src).unwrap_err();
        assert!(err.message.contains("duplicate action"));
    }
}
