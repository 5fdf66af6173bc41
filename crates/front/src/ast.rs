//! The surface AST of the annotated language.
//!
//! This is the parse-level representation of a `.csl` file: resources and
//! actions are referred to *by name*, and the positions needed for
//! lowering diagnostics (unknown resource, bad action arity, ill-sorted
//! precondition, …) are recorded alongside. [`crate::lower`] resolves it
//! into a [`commcsl_verifier::program::AnnotatedProgram`].

use commcsl_lang::span::Pos;
use commcsl_logic::spec::ActionKind;
use commcsl_pure::{Sort, Symbol, Term};

/// A parsed `.csl` file.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceProgram {
    /// Program name (the `program` header).
    pub name: String,
    /// Resource declarations, in order (the order defines the indices the
    /// lowered program uses).
    pub resources: Vec<ResourceDecl>,
    /// Program body.
    pub body: Vec<Stmt>,
}

/// A `resource` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDecl {
    /// The surface name `share` / `with` / `unshare` statements refer to.
    pub binder: Symbol,
    /// Position of the binder (for duplicate-declaration diagnostics).
    pub binder_pos: Pos,
    /// Specification name override (`named "…"`); defaults to the binder.
    pub spec_name: Option<Symbol>,
    /// Sort of the resource value.
    pub value_sort: Sort,
    /// The abstraction function body, over the fixed variable `v`.
    pub alpha: Term,
    /// Position of the abstraction expression.
    pub alpha_pos: Pos,
    /// The declared actions.
    pub actions: Vec<ActionDecl>,
}

/// An `action` declaration inside a resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDecl {
    /// Action name.
    pub name: Symbol,
    /// Position of the action name.
    pub name_pos: Pos,
    /// `shared` or `unique`.
    pub kind: ActionKind,
    /// Sort of the action argument (the fixed variable `arg`).
    pub arg_sort: Sort,
    /// Transition function body, over `v` and `arg`.
    pub body: Term,
    /// Position of the body expression.
    pub body_pos: Pos,
    /// The relational precondition over `arg1` / `arg2`, with its
    /// position; absent means `true`.
    pub pre: Option<(Term, Pos)>,
}

/// What follows the argument list of a `with … performing a(…)` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum WithSuffix {
    /// Plain atomic action (`VStmt::Atomic`).
    None,
    /// `deferred` — the precondition is checked retroactively
    /// (`VStmt::AtomicDeferred`).
    Deferred,
    /// `times e` — counted batch (`VStmt::AtomicBatch`).
    Times(Term),
    /// `binding x at e` — consuming action binding the popped element
    /// (`VStmt::ConsumeBind`).
    Binding {
        /// Variable bound to the consumed element.
        var: Symbol,
        /// Index of the consumed element in the produced sequence.
        index: Term,
    },
}

/// A surface statement: its source position plus the statement proper.
///
/// The position is the first token of the statement; the lowering
/// threads it into the verifier's span table so obligations point back
/// at the `.csl` line that generated them.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Position of the statement's first token.
    pub pos: Pos,
    /// The statement.
    pub kind: StmtKind,
}

/// A surface statement's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `input x: Sort low|high;`
    Input {
        /// Variable bound.
        var: Symbol,
        /// Declared sort.
        sort: Sort,
        /// `low` or `high`.
        low: bool,
    },
    /// `x := e;`
    Assign {
        /// Assigned variable.
        var: Symbol,
        /// Right-hand side.
        expr: Term,
    },
    /// `if (e) { … } [else { … }]`
    If {
        /// Condition.
        cond: Term,
        /// Then branch.
        then_b: Vec<Stmt>,
        /// Else branch (empty when omitted).
        else_b: Vec<Stmt>,
    },
    /// `for x in e .. e { … }`
    For {
        /// Loop variable.
        var: Symbol,
        /// Inclusive lower bound.
        from: Term,
        /// Exclusive upper bound.
        to: Term,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `share r = e;`
    Share {
        /// Resource binder.
        resource: Symbol,
        /// Position of the binder use.
        resource_pos: Pos,
        /// Initial value expression.
        init: Term,
        /// Position of the initial value.
        init_pos: Pos,
    },
    /// `par { … } || { … } …`
    Par {
        /// Worker bodies.
        workers: Vec<Vec<Stmt>>,
    },
    /// `with r performing a(e) [deferred | times e | binding x at e];`
    With {
        /// Resource binder.
        resource: Symbol,
        /// Position of the binder use.
        resource_pos: Pos,
        /// Action name.
        action: Symbol,
        /// Position of the action name.
        action_pos: Pos,
        /// Parsed argument list (`()` is empty; lowering maps it to `unit`).
        args: Vec<Term>,
        /// Position of the argument list's opening parenthesis.
        args_pos: Pos,
        /// The statement form.
        suffix: WithSuffix,
    },
    /// `unshare r into x;`
    Unshare {
        /// Resource binder.
        resource: Symbol,
        /// Position of the binder use.
        resource_pos: Pos,
        /// Variable receiving the final value.
        into: Symbol,
    },
    /// `assert low(e);`
    AssertLow(Term),
    /// `output e;`
    Output(Term),
}
