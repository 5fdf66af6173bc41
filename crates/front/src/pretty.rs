//! Pretty-printing annotated programs back to `.csl` surface syntax.
//!
//! [`pretty`] is the inverse of `parse` + `lower`: for any program built
//! from surface-expressible pieces, `compile(&pretty(p)) == p` holds
//! *structurally* (pinned by the frontend's round-trip tests over all 18
//! Table 1 fixtures and by proptest-generated programs). `commcsl fmt`
//! prints `.csl` files through it.
//!
//! Non-surface-expressible pieces degrade gracefully rather than panic:
//!
//! * non-empty container *literals* print as constructor chains
//!   (`append(append(empty_seq, 1), 2)`), which re-parse to applications
//!   that *evaluate* to the original literal but are not structurally
//!   identical;
//! * `Term::int(i64::MIN)` prints as a constant expression (the lexer
//!   reads a literal's magnitude first, which would overflow), which
//!   re-parses to an application that evaluates to the same value;
//! * uninterpreted function symbols print as calls that the parser will
//!   reject (there is deliberately no surface syntax for them).

use commcsl_lang::parser::func_surface_name;
use commcsl_logic::spec::{ActionKind, ResourceSpec};
use commcsl_pure::{Func, Term, Value};
use commcsl_verifier::program::{AnnotatedProgram, VStmt};

use crate::parser::is_keyword;

/// Renders a whole program as a parseable `.csl` document.
pub fn pretty(program: &AnnotatedProgram) -> String {
    let mut out = String::new();
    out.push_str(&format!("program {};\n", name_token(&program.name)));
    let binders = resource_binders(&program.resources);
    for (spec, binder) in program.resources.iter().zip(&binders) {
        out.push('\n');
        pretty_resource(spec, binder, &mut out);
    }
    if !program.body.is_empty() {
        out.push('\n');
    }
    for stmt in &program.body {
        pretty_stmt(stmt, &binders, 0, &mut out);
    }
    out
}

/// Renders one expression (at statement precedence, no outer parens).
pub fn pretty_term(term: &Term) -> String {
    let mut out = String::new();
    term_at(term, 0, &mut out);
    out
}

/// `true` when `s` lexes as a single identifier and is not reserved.
pub fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_alphabetic() || first == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_')
        && !is_keyword(s)
}

fn name_token(name: &str) -> String {
    if is_ident(name) {
        name.to_owned()
    } else {
        quote_str(name)
    }
}

/// Quotes a string with the lexer's escape sequences (`\"`, `\\`, `\n`).
fn quote_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Picks one valid, unique surface binder per resource, derived from the
/// specification names where possible.
fn resource_binders(resources: &[ResourceSpec]) -> Vec<String> {
    let mut taken: Vec<String> = Vec::new();
    resources
        .iter()
        .map(|spec| {
            let mut base: String = spec
                .name
                .as_str()
                .chars()
                .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
                .collect();
            if base.is_empty() || base.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                base.insert(0, 'r');
            }
            if is_keyword(&base) {
                base.push('_');
            }
            let mut binder = base.clone();
            let mut k = 1;
            while taken.contains(&binder) {
                binder = format!("{base}_{k}");
                k += 1;
            }
            taken.push(binder.clone());
            binder
        })
        .collect()
}

fn pretty_resource(spec: &ResourceSpec, binder: &str, out: &mut String) {
    out.push_str(&format!("resource {binder}: {}", spec.value_sort));
    if binder != spec.name.as_str() {
        out.push_str(&format!(" named {}", quote_str(spec.name.as_str())));
    }
    out.push_str(" {\n");
    out.push_str(&format!("    alpha(v) = {};\n", pretty_term(&spec.alpha)));
    for action in &spec.actions {
        let kind = match action.kind {
            ActionKind::Shared => "shared",
            ActionKind::Unique => "unique",
        };
        out.push_str(&format!(
            "    {kind} action {}(arg: {}) = {}",
            action.name, action.arg_sort,
            pretty_term(&action.body)
        ));
        if action.pre != Term::tt() {
            out.push_str(&format!("\n        requires {}", pretty_term(&action.pre)));
        }
        out.push_str(";\n");
    }
    out.push_str("}\n");
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn pretty_block(body: &[VStmt], binders: &[String], depth: usize, out: &mut String) {
    out.push_str("{\n");
    for stmt in body {
        pretty_stmt(stmt, binders, depth + 1, out);
    }
    indent(depth, out);
    out.push('}');
}

fn pretty_stmt(stmt: &VStmt, binders: &[String], depth: usize, out: &mut String) {
    indent(depth, out);
    match stmt {
        VStmt::Input { var, sort, low } => {
            out.push_str(&format!(
                "input {var}: {sort} {};\n",
                if *low { "low" } else { "high" }
            ));
        }
        VStmt::Assign(var, e) => {
            out.push_str(&format!("{var} := {};\n", pretty_term(e)));
        }
        VStmt::If { cond, then_b, else_b } => {
            out.push_str(&format!("if ({}) ", pretty_term(cond)));
            pretty_block(then_b, binders, depth, out);
            if !else_b.is_empty() {
                out.push_str(" else ");
                pretty_block(else_b, binders, depth, out);
            }
            out.push('\n');
        }
        VStmt::For { var, from, to, body } => {
            out.push_str(&format!(
                "for {var} in {} .. {} ",
                pretty_term(from),
                pretty_term(to)
            ));
            pretty_block(body, binders, depth, out);
            out.push('\n');
        }
        VStmt::Share { resource, init } => {
            out.push_str(&format!(
                "share {} = {};\n",
                binders[*resource],
                pretty_term(init)
            ));
        }
        VStmt::Par { workers } => {
            out.push_str("par ");
            for (i, worker) in workers.iter().enumerate() {
                if i > 0 {
                    out.push_str(" || ");
                }
                pretty_block(worker, binders, depth, out);
            }
            out.push('\n');
        }
        VStmt::Atomic { resource, action, arg } => {
            out.push_str(&format!(
                "with {} performing {action}{};\n",
                binders[*resource],
                args_token(arg)
            ));
        }
        VStmt::AtomicDeferred { resource, action, arg } => {
            out.push_str(&format!(
                "with {} performing {action}{} deferred;\n",
                binders[*resource],
                args_token(arg)
            ));
        }
        VStmt::AtomicBatch { resource, action, arg, count } => {
            out.push_str(&format!(
                "with {} performing {action}{} times {};\n",
                binders[*resource],
                args_token(arg),
                pretty_term(count)
            ));
        }
        VStmt::ConsumeBind { resource, action, var, index } => {
            out.push_str(&format!(
                "with {} performing {action}() binding {var} at {};\n",
                binders[*resource],
                pretty_term(index)
            ));
        }
        VStmt::Unshare { resource, into } => {
            out.push_str(&format!("unshare {} into {into};\n", binders[*resource]));
        }
        VStmt::AssertLow(e) => {
            out.push_str(&format!("assert low({});\n", pretty_term(e)));
        }
        VStmt::Output(e) => {
            out.push_str(&format!("output {};\n", pretty_term(e)));
        }
    }
}

/// The argument list of a `with` statement: `()` for the unit argument.
fn args_token(arg: &Term) -> String {
    if *arg == Term::Lit(Value::Unit) {
        "()".to_owned()
    } else {
        format!("({})", pretty_term(arg))
    }
}

// ------------------------------------------------------------- expressions

/// Precedence levels: 0 `||`, 1 `&&`, 2 comparisons, 3 `+ -`, 4 `* / %`,
/// 5 unary, 6 atoms. `term_at(t, level, …)` parenthesizes `t` when its
/// own precedence is below `level`.
fn term_at(term: &Term, level: u8, out: &mut String) {
    let prec = term_prec(term);
    if prec < level {
        out.push('(');
        term_render(term, out);
        out.push(')');
    } else {
        term_render(term, out);
    }
}

fn term_prec(term: &Term) -> u8 {
    match term {
        Term::Var(_) => 6,
        Term::Lit(Value::Int(n)) if *n < 0 => 5,
        Term::Lit(_) => 6,
        Term::App(f, args) => match f {
            Func::Or => 0,
            Func::And => 1,
            Func::Eq | Func::Lt | Func::Le => 2,
            Func::Not if matches!(&args[..], [Term::App(Func::Eq, _)]) => 2,
            Func::Add | Func::Sub => 3,
            Func::Mul | Func::Div | Func::Mod => 4,
            Func::Neg | Func::Not => 5,
            _ => 6,
        },
    }
}

fn infix(op: &str, args: &[Term], level: u8, rhs_level: u8, out: &mut String) {
    term_at(&args[0], level, out);
    out.push_str(&format!(" {op} "));
    term_at(&args[1], rhs_level, out);
}

fn term_render(term: &Term, out: &mut String) {
    match term {
        Term::Var(x) => out.push_str(x.as_str()),
        Term::Lit(v) => value_render(v, out),
        Term::App(f, args) => match f {
            Func::Or => {
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" || ");
                    }
                    term_at(a, 1, out);
                }
            }
            Func::And => {
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" && ");
                    }
                    term_at(a, 2, out);
                }
            }
            Func::Eq => infix("==", args, 3, 3, out),
            Func::Lt => infix("<", args, 3, 3, out),
            Func::Le => infix("<=", args, 3, 3, out),
            Func::Not => {
                // `Term::neq` builds `Not(Eq(a, b))`; print it back as `!=`.
                if let [Term::App(Func::Eq, eq_args)] = &args[..] {
                    infix("!=", eq_args, 3, 3, out);
                } else {
                    out.push('!');
                    term_at(&args[0], 5, out);
                }
            }
            Func::Add => infix("+", args, 3, 4, out),
            Func::Sub => infix("-", args, 3, 4, out),
            Func::Mul => infix("*", args, 4, 5, out),
            Func::Div => infix("/", args, 4, 5, out),
            Func::Mod => infix("%", args, 4, 5, out),
            Func::Neg => {
                out.push('-');
                // Parenthesize a literal operand so `-(1)` does not re-parse
                // as the folded negative literal `-1`.
                if matches!(args[0], Term::Lit(_)) {
                    out.push('(');
                    term_render(&args[0], out);
                    out.push(')');
                } else {
                    term_at(&args[0], 5, out);
                }
            }
            Func::Uninterpreted(name) => {
                // No surface syntax; rendered for debugging only.
                call_render(name.as_str(), args, out);
            }
            _ => {
                let name = func_surface_name(f)
                    .expect("every interpreted non-operator Func has a surface name");
                call_render(name, args, out);
            }
        },
    }
}

fn call_render(name: &str, args: &[Term], out: &mut String) {
    out.push_str(name);
    out.push('(');
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        term_at(a, 0, out);
    }
    out.push(')');
}

fn value_render(v: &Value, out: &mut String) {
    match v {
        Value::Unit => out.push_str("unit"),
        // `i64::MIN` has no literal form (the lexer reads the magnitude
        // first, which overflows), so it degrades to a constant expression
        // that evaluates back to the same value.
        Value::Int(n) if *n == i64::MIN => {
            out.push_str(&format!("({} - 1)", i64::MIN + 1));
        }
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Str(s) => out.push_str(&quote_str(s.as_str())),
        Value::Pair(a, b) => {
            out.push_str("pair(");
            value_render(a, out);
            out.push_str(", ");
            value_render(b, out);
            out.push(')');
        }
        Value::Left(a) => {
            out.push_str("left(");
            value_render(a, out);
            out.push(')');
        }
        Value::Right(b) => {
            out.push_str("right(");
            value_render(b, out);
            out.push(')');
        }
        Value::Seq(xs) if xs.is_empty() => out.push_str("empty_seq"),
        Value::Set(s) if s.is_empty() => out.push_str("empty_set"),
        Value::Multiset(m) if m.is_empty() => out.push_str("empty_ms"),
        Value::Map(m) if m.is_empty() => out.push_str("empty_map"),
        // Non-empty container literals: constructor chains (re-parse to
        // applications that evaluate to the same value).
        Value::Seq(xs) => {
            chain_render("append", "empty_seq", xs.iter(), out);
        }
        Value::Set(s) => {
            chain_render("set_add", "empty_set", s.iter(), out);
        }
        Value::Multiset(m) => {
            chain_render("ms_add", "empty_ms", m.iter_expanded(), out);
        }
        Value::Map(m) => {
            let mut acc = "empty_map".to_owned();
            for (k, val) in m.iter() {
                let mut kv = String::new();
                value_render(k, &mut kv);
                kv.push_str(", ");
                value_render(val, &mut kv);
                acc = format!("put({acc}, {kv})");
            }
            out.push_str(&acc);
        }
    }
}

fn chain_render<'v>(
    op: &str,
    empty: &str,
    elems: impl Iterator<Item = &'v Value>,
    out: &mut String,
) {
    let mut acc = empty.to_owned();
    for e in elems {
        let mut elem = String::new();
        value_render(e, &mut elem);
        acc = format!("{op}({acc}, {elem})");
    }
    out.push_str(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;
    use commcsl_pure::{Sort, Symbol};

    fn roundtrip(t: &Term) {
        let printed = pretty_term(t);
        let reparsed = parse_term(&printed)
            .unwrap_or_else(|e| panic!("re-parsing `{printed}` failed: {e}"));
        assert_eq!(&reparsed, t, "printed as `{printed}`");
    }

    #[test]
    fn operators_round_trip_with_precedence() {
        roundtrip(&Term::add(
            Term::int(1),
            Term::mul(Term::int(2), Term::int(3)),
        ));
        roundtrip(&Term::mul(
            Term::add(Term::int(1), Term::int(2)),
            Term::int(3),
        ));
        roundtrip(&Term::sub(
            Term::int(1),
            Term::sub(Term::int(2), Term::int(3)),
        ));
        roundtrip(&Term::sub(
            Term::sub(Term::int(1), Term::int(2)),
            Term::int(3),
        ));
        roundtrip(&Term::and([
            Term::eq(Term::var("a"), Term::var("b")),
            Term::lt(Term::var("c"), Term::var("d")),
            Term::tt(),
        ]));
        roundtrip(&Term::or([
            Term::and([Term::tt(), Term::ff()]),
            Term::not(Term::var("p")),
        ]));
        // Nested variadic connectives keep their grouping via parens.
        roundtrip(&Term::app(
            Func::And,
            [
                Term::app(Func::And, [Term::var("a"), Term::var("b")]),
                Term::var("c"),
            ],
        ));
    }

    #[test]
    fn neq_prints_as_operator() {
        let t = Term::neq(Term::var("a"), Term::var("b"));
        assert_eq!(pretty_term(&t), "a != b");
        roundtrip(&t);
        // A bare Not around something else stays prefix.
        let t = Term::not(Term::var("p"));
        assert_eq!(pretty_term(&t), "!p");
        roundtrip(&t);
    }

    #[test]
    fn negative_literals_and_negation_round_trip() {
        roundtrip(&Term::int(-7));
        roundtrip(&Term::app(Func::Neg, [Term::int(1)]));
        roundtrip(&Term::app(Func::Neg, [Term::var("x")]));
        roundtrip(&Term::sub(Term::int(1), Term::int(-2)));
        roundtrip(&Term::mul(Term::int(-2), Term::var("x")));
    }

    #[test]
    fn calls_and_literals_round_trip() {
        roundtrip(&Term::app(
            Func::MapPut,
            [Term::var("m"), Term::int(1), Term::var("x")],
        ));
        roundtrip(&Term::app(
            Func::SeqSorted,
            [Term::app(
                Func::SetToSeq,
                [Term::app(Func::MapDom, [Term::var("m")])],
            )],
        ));
        roundtrip(&Term::Lit(Value::seq_empty()));
        roundtrip(&Term::Lit(Value::map_empty()));
        roundtrip(&Term::Lit(Value::Unit));
        roundtrip(&Term::Lit(Value::str("nAdults")));
        roundtrip(&Term::ite(Term::tt(), Term::int(1), Term::int(2)));
    }

    #[test]
    fn strings_with_specials_round_trip_escaped() {
        let t = Term::Lit(Value::str("a\"b\\c\nd"));
        assert_eq!(pretty_term(&t), "\"a\\\"b\\\\c\\nd\"");
        roundtrip(&t);
    }

    #[test]
    fn quoted_program_and_spec_names_round_trip_escaped() {
        use crate::compile;
        use commcsl_logic::spec::ResourceSpec;
        let program = AnnotatedProgram {
            name: "odd \"name\"".into(),
            resources: vec![ResourceSpec::new(
                "spec \"x\"",
                Sort::Int,
                Term::var("v"),
                [],
            )],
            body: vec![VStmt::Output(Term::int(0))],
            spans: Default::default(),
        };
        let printed = pretty(&program);
        let reparsed = compile(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(reparsed, program);
    }

    #[test]
    fn i64_min_degrades_to_an_equivalent_expression() {
        let printed = pretty_term(&Term::int(i64::MIN));
        assert_eq!(printed, "(-9223372036854775807 - 1)");
        let reparsed = parse_term(&printed).unwrap();
        assert_eq!(
            reparsed.eval(&Default::default()).unwrap(),
            Value::Int(i64::MIN)
        );
        // All other extremes round-trip structurally.
        roundtrip(&Term::int(i64::MIN + 1));
        roundtrip(&Term::int(i64::MAX));
    }

    #[test]
    fn nonempty_container_literals_evaluate_back() {
        let lit = Value::seq([Value::Int(1), Value::Int(2)]);
        let printed = pretty_term(&Term::Lit(lit.clone()));
        assert_eq!(printed, "append(append(empty_seq, 1), 2)");
        let reparsed = parse_term(&printed).unwrap();
        assert_eq!(reparsed.eval(&Default::default()).unwrap(), lit);
    }

    #[test]
    fn binders_are_sanitized_and_unique() {
        use commcsl_logic::spec::ResourceSpec;
        let specs = vec![
            ResourceSpec::producer_consumer(false),
            ResourceSpec::producer_consumer(false),
            ResourceSpec::new("share", Sort::Int, Term::var("v"), []),
            ResourceSpec::new("9lives", Sort::Int, Term::var("v"), []),
        ];
        let binders = resource_binders(&specs);
        assert_eq!(binders[0], "producer_consumer_1x1");
        assert_eq!(binders[1], "producer_consumer_1x1_1");
        assert_eq!(binders[2], "share_");
        assert_eq!(binders[3], "r9lives");
        for b in &binders {
            assert!(is_ident(b), "{b}");
        }
        let _ = Symbol::new("touch"); // keep the import used on all paths
    }
}
