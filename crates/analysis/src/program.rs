//! Annotated programs: the verifier's input language.
//!
//! An [`AnnotatedProgram`] is the structured, specification-carrying form
//! of a concurrent program — the analogue of a HyperViper source file
//! (method bodies plus `share`/`with … performing`/`unshare` annotations,
//! App. E of the paper). `commcsl-front` compiles `.csl` files into this
//! form; the Table 1 corpus is such a set of files.

use std::collections::BTreeMap;

use commcsl_logic::spec::ResourceSpec;
use commcsl_pure::{Sort, Symbol, Term};
use commcsl_telemetry::Json;

use crate::diag::SourceSpan;

/// Address of a statement inside a program body: one index per nesting
/// level. The conventions (shared with the symbolic execution and the
/// `commcsl-front` lowering, which must agree exactly):
///
/// * top-level statement `i` → `[i]`,
/// * inside `If` at path `p`: `then_b[j]` → `p ++ [j]`,
///   `else_b[j]` → `p ++ [then_b.len() + j]`,
/// * inside `For` at `p`: `body[j]` → `p ++ [j]`,
/// * inside `Par` at `p`: `workers[w][j]` → `p ++ [w, j]`.
pub type StmtPath = Vec<u32>;

/// Encodes a statement path as a JSON array of its components.
pub fn path_to_json(path: &[u32]) -> Json {
    Json::Arr(path.iter().map(|&c| Json::Num(f64::from(c))).collect())
}

/// Decodes a statement path encoded by [`path_to_json`].
pub fn path_from_json(doc: &Json) -> Result<StmtPath, String> {
    doc.as_arr()
        .ok_or("`path` must be an array")?
        .iter()
        .map(|c| {
            c.as_u64()
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| "path components must be small numbers".to_owned())
        })
        .collect()
}

/// A statement of the annotated language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VStmt {
    /// Reads a program input: `low` inputs are equal across the two
    /// executions, high inputs are unconstrained.
    Input {
        /// Variable bound.
        var: Symbol,
        /// Sort of the input (used by countermodel search).
        sort: Sort,
        /// Whether the input is low.
        low: bool,
    },
    /// Pure assignment `x := e`.
    Assign(Symbol, Term),
    /// Conditional. Branches containing effectful statements require the
    /// condition to be provably low; effect-free branches are merged by
    /// `ite` per execution (high branching allowed, as in the paper).
    If {
        /// Condition.
        cond: Term,
        /// Then branch.
        then_b: Vec<VStmt>,
        /// Else branch.
        else_b: Vec<VStmt>,
    },
    /// A lockstep loop `for var in from..to { body }`. The bounds must be
    /// provably low; each iteration of execution 1 is related to the same
    /// iteration of execution 2, which provides the PRE bijection for the
    /// actions performed inside (the paper's loop-invariant idiom, Fig. 5).
    For {
        /// Loop variable.
        var: Symbol,
        /// Inclusive lower bound.
        from: Term,
        /// Exclusive upper bound.
        to: Term,
        /// Body.
        body: Vec<VStmt>,
    },
    /// Shares resource `resource` with initial value `init`; proves the
    /// specification valid and `Low(α(init))`, and hands out guards.
    Share {
        /// Index into the program's resource list.
        resource: usize,
        /// Initial pure value.
        init: Term,
    },
    /// Parallel workers. Shared guards are split among them; each unique
    /// action may be used by at most one worker.
    Par {
        /// Worker bodies.
        workers: Vec<Vec<VStmt>>,
    },
    /// Performs one action on a shared resource inside an atomic block;
    /// the relational precondition is proved at this point (lockstep).
    Atomic {
        /// Resource index.
        resource: usize,
        /// Action name.
        action: Symbol,
        /// Argument expression.
        arg: Term,
    },
    /// Performs an action `count` times with the same argument — the
    /// *counted batch* form used when the per-worker count is
    /// schedule-dependent (e.g. multi-consumer queues); the argument's
    /// precondition is proved here, and the *total* count across workers
    /// is proved low at `unshare` (the paper's retroactive check).
    AtomicBatch {
        /// Resource index.
        resource: usize,
        /// Action name.
        action: Symbol,
        /// Argument expression.
        arg: Term,
        /// Number of repetitions (may be high per worker).
        count: Term,
    },
    /// Performs a consuming action (FIFO pop) on a single-consumer queue
    /// resource and binds `var` to the consumed element — modeled as the
    /// `index`-th element of the queue's produced sequence (the second
    /// component of its pure value). The binding fact becomes available
    /// when the resource is unshared, which is what makes the *retroactive*
    /// precondition checks of the pipeline example go through (Sec. 5).
    ConsumeBind {
        /// Resource index.
        resource: usize,
        /// Consuming action name.
        action: Symbol,
        /// Variable bound to the consumed element.
        var: Symbol,
        /// Index of the consumed element in the produced sequence.
        index: Term,
    },
    /// Like [`VStmt::Atomic`], but the precondition obligation is
    /// discharged at the *end of the program*, when facts learned from
    /// later `unshare`s (e.g. "the first queue's content was low after
    /// all") are available — the paper's retroactive checking.
    AtomicDeferred {
        /// Resource index.
        resource: usize,
        /// Action name.
        action: Symbol,
        /// Argument expression.
        arg: Term,
    },
    /// Unshares the resource: consumes the guards, performs the remaining
    /// PRE checks, and binds `into` to the final value, with
    /// `Low(α(into))` available from here on (the Share rule's
    /// postcondition).
    Unshare {
        /// Resource index.
        resource: usize,
        /// Variable receiving the final pure value.
        into: Symbol,
    },
    /// Proves `Low(e)` (an intermediate assertion).
    AssertLow(Term),
    /// Outputs `e`; requires proving `Low(e)` (the paper's I/O extension).
    Output(Term),
}

impl VStmt {
    /// Convenience constructor for [`VStmt::Input`].
    pub fn input(var: impl Into<Symbol>, sort: Sort, low: bool) -> VStmt {
        VStmt::Input {
            var: var.into(),
            sort,
            low,
        }
    }

    /// Convenience constructor for [`VStmt::Assign`].
    pub fn assign(var: impl Into<Symbol>, e: Term) -> VStmt {
        VStmt::Assign(var.into(), e)
    }

    /// Convenience constructor for [`VStmt::Atomic`].
    pub fn atomic(resource: usize, action: impl Into<Symbol>, arg: Term) -> VStmt {
        VStmt::Atomic {
            resource,
            action: action.into(),
            arg,
        }
    }

    /// Convenience constructor for [`VStmt::For`].
    pub fn for_range(
        var: impl Into<Symbol>,
        from: Term,
        to: Term,
        body: impl IntoIterator<Item = VStmt>,
    ) -> VStmt {
        VStmt::For {
            var: var.into(),
            from,
            to,
            body: body.into_iter().collect(),
        }
    }

    /// `true` when the statement (recursively) contains resource effects or
    /// outputs — used to decide whether a conditional may be high.
    pub fn has_effects(&self) -> bool {
        match self {
            VStmt::Input { .. } | VStmt::Assign(_, _) | VStmt::AssertLow(_) => false,
            VStmt::Share { .. }
            | VStmt::Atomic { .. }
            | VStmt::AtomicBatch { .. }
            | VStmt::AtomicDeferred { .. }
            | VStmt::ConsumeBind { .. }
            | VStmt::Unshare { .. }
            | VStmt::Output(_)
            | VStmt::Par { .. } => true,
            VStmt::If {
                then_b, else_b, ..
            } => then_b.iter().chain(else_b).any(VStmt::has_effects),
            VStmt::For { body, .. } => body.iter().any(VStmt::has_effects),
        }
    }

    /// Statement count, the annotated-program "lines of code" used by the
    /// Table 1 harness.
    pub fn loc(&self) -> usize {
        match self {
            VStmt::If {
                then_b, else_b, ..
            } => 1 + body_loc(then_b) + body_loc(else_b),
            VStmt::For { body, .. } => 1 + body_loc(body),
            VStmt::Par { workers } => 1 + workers.iter().map(|w| body_loc(w)).sum::<usize>(),
            _ => 1,
        }
    }
}

fn body_loc(body: &[VStmt]) -> usize {
    body.iter().map(VStmt::loc).sum()
}

/// A verifiable annotated program.
#[derive(Debug, Clone, Eq)]
pub struct AnnotatedProgram {
    /// Program name (for reports).
    pub name: String,
    /// The resource specifications the program shares.
    pub resources: Vec<ResourceSpec>,
    /// The program body.
    pub body: Vec<VStmt>,
    /// Source positions per statement, keyed by [`StmtPath`]. Populated
    /// by the `commcsl-front` lowering; empty for builder-constructed
    /// programs. Spans are diagnostic payload: they flow into failed
    /// obligations' reports (and therefore into the content hash), but
    /// two programs differing only in spans compare *equal* — the
    /// pretty-printer cannot reproduce source positions, and
    /// `compile(pretty(p)) == p` is a load-bearing invariant.
    pub spans: BTreeMap<StmtPath, SourceSpan>,
}

// Equality deliberately ignores `spans`; see the field docs.
impl PartialEq for AnnotatedProgram {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.resources == other.resources
            && self.body == other.body
    }
}

impl AnnotatedProgram {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        AnnotatedProgram {
            name: name.into(),
            resources: Vec::new(),
            body: Vec::new(),
            spans: BTreeMap::new(),
        }
    }

    /// Records a statement's source position (builder style; used by the
    /// frontend lowering).
    #[must_use]
    pub fn with_span(mut self, path: StmtPath, span: SourceSpan) -> Self {
        self.spans.insert(path, span);
        self
    }

    /// The source position of the statement at `path`, if known.
    pub fn span_at(&self, path: &[u32]) -> Option<SourceSpan> {
        self.spans.get(path).copied()
    }

    /// Adds a resource specification (builder style).
    #[must_use]
    pub fn with_resource(mut self, spec: ResourceSpec) -> Self {
        self.resources.push(spec);
        self
    }

    /// Sets the body (builder style).
    #[must_use]
    pub fn with_body(mut self, body: impl IntoIterator<Item = VStmt>) -> Self {
        self.body = body.into_iter().collect();
        self
    }

    /// Total statement count.
    pub fn loc(&self) -> usize {
        body_loc(&self.body)
    }

    /// Number of annotation-bearing constructs (inputs, share/unshare,
    /// atomic annotations, assertions) — the "Ann." column analogue of
    /// Table 1.
    pub fn annotation_count(&self) -> usize {
        fn count(body: &[VStmt]) -> usize {
            body.iter()
                .map(|s| match s {
                    VStmt::Input { .. }
                    | VStmt::Share { .. }
                    | VStmt::Unshare { .. }
                    | VStmt::Atomic { .. }
                    | VStmt::AtomicBatch { .. }
                    | VStmt::AtomicDeferred { .. }
                    | VStmt::ConsumeBind { .. }
                    | VStmt::AssertLow(_) => 1,
                    VStmt::If {
                        then_b, else_b, ..
                    } => count(then_b) + count(else_b),
                    VStmt::For { body, .. } => count(body),
                    VStmt::Par { workers } => {
                        workers.iter().map(|w| count(w)).sum::<usize>()
                    }
                    _ => 0,
                })
                .sum()
        }
        count(&self.body) + self.resources.iter().map(|r| r.actions.len() + 1).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commcsl_logic::spec::ResourceSpec;

    #[test]
    fn effect_classification() {
        let pure_if = VStmt::If {
            cond: Term::var("h"),
            then_b: vec![VStmt::assign("x", Term::int(1))],
            else_b: vec![VStmt::assign("x", Term::int(2))],
        };
        assert!(!pure_if.has_effects());
        let effectful = VStmt::If {
            cond: Term::var("h"),
            then_b: vec![VStmt::Output(Term::var("x"))],
            else_b: vec![],
        };
        assert!(effectful.has_effects());
    }

    #[test]
    fn loc_and_annotations_count() {
        let p = AnnotatedProgram::new("t")
            .with_resource(ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share {
                    resource: 0,
                    init: Term::int(0),
                },
                VStmt::Par {
                    workers: vec![
                        vec![VStmt::atomic(0, "Add", Term::var("a"))],
                        vec![VStmt::atomic(0, "Add", Term::int(1))],
                    ],
                },
                VStmt::Unshare {
                    resource: 0,
                    into: "c".into(),
                },
                VStmt::Output(Term::var("c")),
            ]);
        assert_eq!(p.loc(), 7);
        // input + share + 2 atomics + unshare + (1 action + 1 alpha) = 7
        assert_eq!(p.annotation_count(), 7);
    }
}
