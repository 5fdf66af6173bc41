//! Parser for the `.csl` surface syntax.
//!
//! ```text
//! program   ::= "program" name ";" resource* stmt*
//! name      ::= ident | string
//!
//! resource  ::= "resource" ident ":" sort ("named" string)? "{"
//!                   "alpha" "(" "v" ")" "=" expr ";"
//!                   action*
//!               "}"
//! action    ::= ("shared" | "unique") "action" ident "(" "arg" ":" sort ")"
//!                   "=" expr ("requires" expr)? ";"
//!
//! sort      ::= "Int" | "Bool" | "Unit" | "Str" | "?"
//!             | ("Seq" | "Set" | "Multiset") "[" sort "]"
//!             | ("Map" | "Pair" | "Either") "[" sort "," sort "]"
//!
//! stmt      ::= "input" ident ":" sort ("low" | "high") ";"
//!             | ident ":=" expr ";"
//!             | "if" "(" expr ")" block ("else" block)?
//!             | "for" ident "in" expr ".." expr block
//!             | "share" ident "=" expr ";"
//!             | "par" block ("||" block)*
//!             | "with" ident "performing" ident "(" args ")" suffix ";"
//!             | "unshare" ident "into" ident ";"
//!             | "assert" "low" "(" expr ")" ";"
//!             | "output" expr ";"
//! suffix    ::= ε | "deferred" | "times" expr | "binding" ident "at" expr
//! block     ::= "{" stmt* "}"
//! args      ::= ε | expr ("," expr)*
//! ```
//!
//! Expressions are the shared expression language of
//! [`commcsl_lang::parser`] (same precedence, same function-call table),
//! with two extensions: `&&` / `||` chains build *variadic*
//! conjunctions/disjunctions (so `a && b && c` is one `And` node, matching
//! the builder API's [`commcsl_pure::Term::and`]), and a unary minus
//! directly before an integer literal folds into a negative literal (so
//! `-1` round-trips as `Term::int(-1)`).
//!
//! All diagnostics carry 1-based `line:column` positions via the shared
//! [`commcsl_lang::span`] machinery.

use commcsl_lang::parser::{Dialect, Parser, Word};
use commcsl_lang::span::{unescape, ParseError, Sym, Token};
use commcsl_logic::spec::ActionKind;
use commcsl_pure::{Sort, Symbol, Term};

use crate::ast::{ActionDecl, ResourceDecl, Stmt, StmtKind, SurfaceProgram, WithSuffix};

/// `true` for the words that cannot open an assignment statement or bind
/// a resource (`program`, `resource`, `input`, `low`, …; see
/// [`Word::reserved`]).
pub fn is_keyword(ident: &str) -> bool {
    Word::of(ident).is_some_and(Word::reserved)
}

/// Parses a whole `.csl` file into its surface AST.
///
/// # Errors
///
/// Returns a [`ParseError`] (with `line:column` position) on malformed
/// input, including trailing junk.
pub fn parse_surface(input: &str) -> Result<SurfaceProgram, ParseError> {
    let mut p = Parser::new(input, Dialect::Annotated)?;
    let prog = program(&mut p)?;
    p.expect_eof()?;
    Ok(prog)
}

/// Parses a single expression of the annotated language.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing junk.
pub fn parse_term(input: &str) -> Result<Term, ParseError> {
    let mut p = Parser::new(input, Dialect::Annotated)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

// ----------------------------------------------------------------- program

fn program(p: &mut Parser<'_>) -> Result<SurfaceProgram, ParseError> {
    p.eat_word(Word::Program)?;
    let name = match p.tok() {
        Token::Ident(s) => s.to_owned(),
        Token::Str(raw) => unescape(raw).into_owned(),
        other => {
            return p.err(format!(
                "expected a program name (identifier or string), found {other}"
            ))
        }
    };
    p.advance()?;
    p.eat(Sym::Semi)?;
    let mut resources = Vec::new();
    while p.at_word(Word::Resource) {
        resources.push(resource(p)?);
    }
    let mut body = Vec::new();
    while p.tok() != Token::Eof {
        body.push(stmt(p)?);
    }
    Ok(SurfaceProgram { name, resources, body })
}

fn resource(p: &mut Parser<'_>) -> Result<ResourceDecl, ParseError> {
    p.eat_word(Word::Resource)?;
    let reserved = p.word().is_some_and(Word::reserved);
    let (binder, binder_pos) = p.eat_ident("a resource name")?;
    if reserved {
        return Err(ParseError::new(
            binder_pos,
            format!("`{binder}` is a reserved word and cannot name a resource"),
        ));
    }
    p.eat(Sym::Colon)?;
    let value_sort = sort(p)?;
    let spec_name = if p.at_word(Word::Named) {
        p.advance()?;
        let Token::Str(raw) = p.tok() else {
            return p.err(format!("expected a string after `named`, found {}", p.tok()));
        };
        p.advance()?;
        Some(Symbol::new(unescape(raw)))
    } else {
        None
    };
    p.eat(Sym::LBrace)?;
    p.eat_word(Word::Alpha)?;
    p.eat(Sym::LParen)?;
    p.eat_word(Word::V)?;
    p.eat(Sym::RParen)?;
    p.eat(Sym::Eq)?;
    let alpha_pos = p.pos();
    let alpha = p.parse_expr()?;
    p.eat(Sym::Semi)?;
    let mut actions = Vec::new();
    while p.at_word(Word::Shared) || p.at_word(Word::Unique) {
        actions.push(action(p)?);
    }
    p.eat(Sym::RBrace)?;
    Ok(ResourceDecl {
        binder: p.symbol(binder),
        binder_pos,
        spec_name,
        value_sort,
        alpha,
        alpha_pos,
        actions,
    })
}

fn action(p: &mut Parser<'_>) -> Result<ActionDecl, ParseError> {
    let kind = if p.at_word(Word::Shared) {
        ActionKind::Shared
    } else {
        ActionKind::Unique
    };
    p.advance()?;
    p.eat_word(Word::Action)?;
    let (name, name_pos) = p.eat_ident("an action name")?;
    p.eat(Sym::LParen)?;
    p.eat_word(Word::Arg)?;
    p.eat(Sym::Colon)?;
    let arg_sort = sort(p)?;
    p.eat(Sym::RParen)?;
    p.eat(Sym::Eq)?;
    let body_pos = p.pos();
    let body = p.parse_expr()?;
    let pre = if p.at_word(Word::Requires) {
        p.advance()?;
        let pre_pos = p.pos();
        Some((p.parse_expr()?, pre_pos))
    } else {
        None
    };
    p.eat(Sym::Semi)?;
    Ok(ActionDecl {
        name: p.symbol(name),
        name_pos,
        kind,
        arg_sort,
        body,
        body_pos,
        pre,
    })
}

// ------------------------------------------------------------------- sorts

fn sort(p: &mut Parser<'_>) -> Result<Sort, ParseError> {
    if p.at(Sym::Question) {
        p.advance()?;
        return Ok(Sort::Unknown);
    }
    let word = p.word();
    let (head, head_pos) = p.eat_ident("a sort")?;
    let one = |p: &mut Parser<'_>| -> Result<Sort, ParseError> {
        p.eat(Sym::LBracket)?;
        let s = sort(p)?;
        p.eat(Sym::RBracket)?;
        Ok(s)
    };
    let two = |p: &mut Parser<'_>| -> Result<(Sort, Sort), ParseError> {
        p.eat(Sym::LBracket)?;
        let a = sort(p)?;
        p.eat(Sym::Comma)?;
        let b = sort(p)?;
        p.eat(Sym::RBracket)?;
        Ok((a, b))
    };
    match word {
        Some(Word::IntSort) => Ok(Sort::Int),
        Some(Word::BoolSort) => Ok(Sort::Bool),
        Some(Word::UnitSort) => Ok(Sort::Unit),
        Some(Word::StrSort) => Ok(Sort::Str),
        Some(Word::SeqSort) => Ok(Sort::seq(one(p)?)),
        Some(Word::SetSort) => Ok(Sort::set(one(p)?)),
        Some(Word::MultisetSort) => Ok(Sort::multiset(one(p)?)),
        Some(Word::MapSort) => {
            let (k, v) = two(p)?;
            Ok(Sort::map(k, v))
        }
        Some(Word::PairSort) => {
            let (a, b) = two(p)?;
            Ok(Sort::pair(a, b))
        }
        Some(Word::EitherSort) => {
            let (a, b) = two(p)?;
            Ok(Sort::either(a, b))
        }
        _ => Err(ParseError::new(head_pos, format!("unknown sort `{head}`"))),
    }
}

// -------------------------------------------------------------- statements

fn block(p: &mut Parser<'_>) -> Result<Vec<Stmt>, ParseError> {
    p.eat(Sym::LBrace)?;
    let mut body = Vec::new();
    while !p.at(Sym::RBrace) {
        body.push(stmt(p)?);
    }
    p.advance()?;
    Ok(body)
}

fn stmt(p: &mut Parser<'_>) -> Result<Stmt, ParseError> {
    let pos = p.pos();
    let kind = stmt_kind(p)?;
    Ok(Stmt { pos, kind })
}

/// An identifier as a variable name.
fn var(p: &mut Parser<'_>, what: &str) -> Result<Symbol, ParseError> {
    let (name, _) = p.eat_ident(what)?;
    Ok(p.symbol(name))
}

fn stmt_kind(p: &mut Parser<'_>) -> Result<StmtKind, ParseError> {
    let Token::Ident(name) = p.tok() else {
        return p.err(format!("expected a statement, found {}", p.tok()));
    };
    let Some(word) = p.word().filter(|w| w.reserved()) else {
        p.advance()?;
        p.eat(Sym::Assign)?;
        let expr = p.parse_expr()?;
        p.eat(Sym::Semi)?;
        return Ok(StmtKind::Assign { var: p.symbol(name), expr });
    };
    match word {
        Word::Input => {
            p.advance()?;
            let var = var(p, "a variable")?;
            p.eat(Sym::Colon)?;
            let sort = sort(p)?;
            let low = match p.word() {
                Some(Word::Low) => true,
                Some(Word::High) => false,
                _ => return p.err(format!("expected `low` or `high`, found {}", p.tok())),
            };
            p.advance()?;
            p.eat(Sym::Semi)?;
            Ok(StmtKind::Input { var, sort, low })
        }
        Word::If => {
            p.advance()?;
            p.eat(Sym::LParen)?;
            let cond = p.parse_expr()?;
            p.eat(Sym::RParen)?;
            let then_b = block(p)?;
            let else_b = if p.at_word(Word::Else) {
                p.advance()?;
                block(p)?
            } else {
                Vec::new()
            };
            Ok(StmtKind::If { cond, then_b, else_b })
        }
        Word::For => {
            p.advance()?;
            let var = var(p, "a loop variable")?;
            p.eat_word(Word::In)?;
            let from = p.parse_expr()?;
            p.eat(Sym::DotDot)?;
            let to = p.parse_expr()?;
            let body = block(p)?;
            Ok(StmtKind::For { var, from, to, body })
        }
        Word::Share => {
            p.advance()?;
            let (resource, resource_pos) = p.eat_ident("a resource name")?;
            p.eat(Sym::Eq)?;
            let init_pos = p.pos();
            let init = p.parse_expr()?;
            p.eat(Sym::Semi)?;
            Ok(StmtKind::Share {
                resource: p.symbol(resource),
                resource_pos,
                init,
                init_pos,
            })
        }
        Word::Par => {
            p.advance()?;
            let mut workers = vec![block(p)?];
            while p.at(Sym::OrOr) {
                p.advance()?;
                workers.push(block(p)?);
            }
            Ok(StmtKind::Par { workers })
        }
        Word::With => {
            p.advance()?;
            let (resource, resource_pos) = p.eat_ident("a resource name")?;
            p.eat_word(Word::Performing)?;
            let (action, action_pos) = p.eat_ident("an action name")?;
            let args_pos = p.pos();
            // An action takes at most one argument.
            let args = p.parse_args(1)?;
            let suffix = match p.word() {
                Some(Word::Deferred) => {
                    p.advance()?;
                    WithSuffix::Deferred
                }
                Some(Word::Times) => {
                    p.advance()?;
                    WithSuffix::Times(p.parse_expr()?)
                }
                Some(Word::Binding) => {
                    p.advance()?;
                    let var = var(p, "a variable")?;
                    p.eat_word(Word::At)?;
                    let index = p.parse_expr()?;
                    WithSuffix::Binding { var, index }
                }
                _ => WithSuffix::None,
            };
            p.eat(Sym::Semi)?;
            Ok(StmtKind::With {
                resource: p.symbol(resource),
                resource_pos,
                action: p.symbol(action),
                action_pos,
                args,
                args_pos,
                suffix,
            })
        }
        Word::Unshare => {
            p.advance()?;
            let (resource, resource_pos) = p.eat_ident("a resource name")?;
            p.eat_word(Word::Into)?;
            let into = var(p, "a variable")?;
            p.eat(Sym::Semi)?;
            let resource = p.symbol(resource);
            Ok(StmtKind::Unshare { resource, resource_pos, into })
        }
        Word::Assert => {
            p.advance()?;
            p.eat_word(Word::Low)?;
            p.eat(Sym::LParen)?;
            let e = p.parse_expr()?;
            p.eat(Sym::RParen)?;
            p.eat(Sym::Semi)?;
            Ok(StmtKind::AssertLow(e))
        }
        Word::Output => {
            p.advance()?;
            let e = p.parse_expr()?;
            p.eat(Sym::Semi)?;
            Ok(StmtKind::Output(e))
        }
        _ => p.err(format!("unexpected keyword `{name}`")),
    }
}

#[cfg(test)]
mod tests {
    use commcsl_pure::Func;

    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse_surface("program demo;\noutput 1;").unwrap();
        assert_eq!(p.name, "demo");
        assert!(p.resources.is_empty());
        assert_eq!(p.body.len(), 1);
        assert_eq!(p.body[0].kind, StmtKind::Output(Term::int(1)));
        assert_eq!((p.body[0].pos.line, p.body[0].pos.col), (2, 1));
    }

    #[test]
    fn parses_string_program_name() {
        let p = parse_surface("program \"count-vaccinated\";").unwrap();
        assert_eq!(p.name, "count-vaccinated");
    }

    #[test]
    fn parses_resource_with_actions() {
        let src = "program p;\n\
                   resource ctr: Int named \"counter-add\" {\n\
                       alpha(v) = v;\n\
                       shared action Add(arg: Int) = v + arg requires arg1 == arg2;\n\
                       unique action Reset(arg: Unit) = 0;\n\
                   }\n\
                   share ctr = 0;\n\
                   unshare ctr into c;\n\
                   output c;";
        let p = parse_surface(src).unwrap();
        assert_eq!(p.resources.len(), 1);
        let r = &p.resources[0];
        assert_eq!(r.binder.as_str(), "ctr");
        assert_eq!(r.spec_name.as_ref().map(Symbol::as_str), Some("counter-add"));
        assert_eq!(r.value_sort, Sort::Int);
        assert_eq!(r.alpha, Term::var("v"));
        assert_eq!(r.actions.len(), 2);
        assert_eq!(r.actions[0].kind, ActionKind::Shared);
        assert!(r.actions[0].pre.is_some());
        assert_eq!(r.actions[1].kind, ActionKind::Unique);
        assert!(r.actions[1].pre.is_none());
    }

    #[test]
    fn parses_compound_sorts() {
        let src = "program p;\n\
                   resource q: Pair[Either[Int, Seq[Int]], Seq[Int]] {\n\
                       alpha(v) = snd(v);\n\
                   }";
        let p = parse_surface(src).unwrap();
        assert_eq!(
            p.resources[0].value_sort,
            Sort::pair(
                Sort::either(Sort::Int, Sort::seq(Sort::Int)),
                Sort::seq(Sort::Int)
            )
        );
    }

    #[test]
    fn parses_par_and_with_forms() {
        let src = "program p;\n\
                   par {\n\
                       with q performing Prod(x);\n\
                       with q performing Prod(2 * x) deferred;\n\
                   } || {\n\
                       with q performing Cons() times k;\n\
                       with q performing Cons() binding y at i;\n\
                   }";
        let p = parse_surface(src).unwrap();
        let StmtKind::Par { workers } = &p.body[0].kind else {
            panic!("expected par");
        };
        assert_eq!(workers.len(), 2);
        let StmtKind::With { suffix, args, .. } = &workers[0][1].kind else {
            panic!("expected with");
        };
        assert_eq!(*suffix, WithSuffix::Deferred);
        assert_eq!(args.len(), 1);
        let StmtKind::With { suffix, args, .. } = &workers[1][1].kind else {
            panic!("expected with");
        };
        assert!(args.is_empty());
        assert!(matches!(suffix, WithSuffix::Binding { var, .. } if var.as_str() == "y"));
    }

    #[test]
    fn parses_loops_inputs_and_conditionals() {
        let src = "program p;\n\
                   input n: Int low;\n\
                   input h: Int high;\n\
                   for i in 0 .. n / 2 {\n\
                       if (h == 0) { x := 1; } else { x := 2; }\n\
                       assert low(x);\n\
                   }";
        let p = parse_surface(src).unwrap();
        assert_eq!(p.body.len(), 3);
        let StmtKind::For { from, to, body, .. } = &p.body[2].kind else {
            panic!("expected for");
        };
        assert_eq!(*from, Term::int(0));
        assert_eq!(
            *to,
            Term::app(Func::Div, [Term::var("n"), Term::int(2)])
        );
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn chained_connectives_are_variadic() {
        let t = parse_term("a == b && c == d && e == f").unwrap();
        let Term::App(Func::And, operands) = t else {
            panic!("expected And");
        };
        assert_eq!(operands.len(), 3);
        let t = parse_term("x == 1 || y == 2").unwrap();
        let Term::App(Func::Or, operands) = t else {
            panic!("expected Or");
        };
        assert_eq!(operands.len(), 2);
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_term("-1").unwrap(), Term::int(-1));
        assert_eq!(
            parse_term("-(1)").unwrap(),
            Term::app(Func::Neg, [Term::int(1)])
        );
        assert_eq!(
            parse_term("-x").unwrap(),
            Term::app(Func::Neg, [Term::var("x")])
        );
        assert_eq!(
            parse_term("1 - -2").unwrap(),
            Term::sub(Term::int(1), Term::int(-2))
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_surface("program p;\ninput x: Wrong low;").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (2, 10));
        assert!(err.message.contains("unknown sort"));

        let err = parse_surface("program p;\nx := ;").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (2, 6));
    }

    #[test]
    fn keywords_cannot_be_assigned() {
        let err = parse_surface("program p;\nshare := 1;").unwrap_err();
        assert!(err.message.contains("expected"));
        let err = parse_surface("program p;\noutput := 1;").unwrap_err();
        // `output :=` parses as `output` statement with expression `:= 1`.
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn rejects_trailing_junk() {
        assert!(parse_surface("program p;\noutput 1; }").is_err());
    }
}
