//! Structured diagnostics for verification reports.
//!
//! Every proof obligation carries a [`DiagnosticCode`] — a *stable*,
//! machine-readable identifier of the obligation kind — and, when the
//! program came through the `commcsl-front` surface language, a
//! [`SourceSpan`] pointing at the statement that generated it. Failed
//! obligations carry a [`Failure`] with the human-readable reason and,
//! when the falsifier found one, a [`Counterexample`]: the concrete
//! variable assignment **per execution** under which the relational
//! property breaks.
//!
//! Codes are part of the tool's machine interface (JSON reports, the
//! daemon protocol, the verdict cache): their spellings are append-only.
//! Renaming or re-using a code is a breaking change and requires a bump
//! of `commcsl-verifier`'s `HASH_FORMAT_VERSION`.

use std::fmt;
use std::str::FromStr;

use commcsl_pure::term::Env;
use commcsl_telemetry::Json;

/// Stable machine-readable identifier of an obligation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// Resource-specification validity at `share` (Def. 3.1).
    SpecValidity,
    /// `Low(α(init))` at `share` (property 1).
    LowInit,
    /// The relational action precondition at a perform site (property 3a).
    ActionPre,
    /// A deferred action precondition, discharged retroactively at the
    /// end of the program.
    ActionPreRetro,
    /// Low-ness of an effectful branch condition.
    LowBranch,
    /// Low-ness of lockstep loop bounds.
    LowLoopBounds,
    /// An explicit `assert low` annotation.
    LowAssert,
    /// `Low(e)` at an `output` statement.
    LowOutput,
    /// The retroactive low-total-count check for counted batches
    /// (property 2).
    LowBatchTotal,
}

impl DiagnosticCode {
    /// All codes, in a stable order.
    pub const ALL: [DiagnosticCode; 9] = [
        DiagnosticCode::SpecValidity,
        DiagnosticCode::LowInit,
        DiagnosticCode::ActionPre,
        DiagnosticCode::ActionPreRetro,
        DiagnosticCode::LowBranch,
        DiagnosticCode::LowLoopBounds,
        DiagnosticCode::LowAssert,
        DiagnosticCode::LowOutput,
        DiagnosticCode::LowBatchTotal,
    ];

    /// The stable string form used in JSON reports and the cache format.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::SpecValidity => "spec-validity",
            DiagnosticCode::LowInit => "low-init",
            DiagnosticCode::ActionPre => "action-pre",
            DiagnosticCode::ActionPreRetro => "action-pre-retro",
            DiagnosticCode::LowBranch => "low-branch",
            DiagnosticCode::LowLoopBounds => "low-loop-bounds",
            DiagnosticCode::LowAssert => "low-assert",
            DiagnosticCode::LowOutput => "low-output",
            DiagnosticCode::LowBatchTotal => "low-batch-total",
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for DiagnosticCode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DiagnosticCode::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| format!("unknown diagnostic code `{s}`"))
    }
}

/// A 1-based `line:column` position in the surface source.
///
/// Spans are attached by the `commcsl-front` lowering; programs built
/// through the Rust builder API have none. They are diagnostic payload —
/// [`AnnotatedProgram`](crate::program::AnnotatedProgram) equality ignores
/// them — but they *are* folded into the content hash, because reports
/// embed them and a cached verdict must replay byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceSpan {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl SourceSpan {
    /// Creates a span.
    pub fn new(line: u32, col: u32) -> Self {
        SourceSpan { line, col }
    }
}

impl fmt::Display for SourceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

impl SourceSpan {
    /// Decodes the `"line:col"` string a span encodes to.
    pub fn from_json(doc: &Json) -> Result<SourceSpan, String> {
        doc.as_str().ok_or("`span` must be a string")?.parse()
    }
}

impl From<SourceSpan> for Json {
    fn from(span: SourceSpan) -> Json {
        Json::Str(span.to_string())
    }
}

impl FromStr for SourceSpan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (line, col) = s
            .split_once(':')
            .ok_or_else(|| format!("span must be line:col, got `{s}`"))?;
        Ok(SourceSpan {
            line: line.parse().map_err(|e| format!("bad span line: {e}"))?,
            col: col.parse().map_err(|e| format!("bad span column: {e}"))?,
        })
    }
}

/// One variable of a counterexample: its concrete value in each of the
/// two executions of the relational product. Low (shared) variables have
/// equal values on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CexBinding {
    /// Variable name (the program variable where known, otherwise the
    /// symbolic name minus its per-execution suffix).
    pub var: String,
    /// Rendered value in execution 1.
    pub exec1: String,
    /// Rendered value in execution 2.
    pub exec2: String,
}

/// A falsifying assignment for a failed relational obligation: for every
/// relevant variable, its value in execution 1 and execution 2. Replaying
/// these values satisfies the collected hypotheses and breaks the goal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counterexample {
    /// Per-variable, per-execution values, sorted by variable name.
    pub bindings: Vec<CexBinding>,
}

impl Counterexample {
    /// Builds a counterexample from a falsifier environment by pairing
    /// per-execution variables: `x@1`/`x@2` and `x1`/`x2` collapse to one
    /// binding named `x`; unpaired variables are low (both sides equal).
    pub fn from_env(env: &Env) -> Counterexample {
        let mut bindings: Vec<CexBinding> = Vec::new();
        let mut upsert = |var: String, side: u8, value: String| {
            let entry = match bindings.iter_mut().find(|b| b.var == var) {
                Some(entry) => entry,
                None => {
                    bindings.push(CexBinding {
                        var,
                        exec1: String::new(),
                        exec2: String::new(),
                    });
                    bindings.last_mut().expect("just pushed")
                }
            };
            match side {
                1 => entry.exec1 = value,
                2 => entry.exec2 = value,
                _ => {
                    entry.exec1 = value.clone();
                    entry.exec2 = value;
                }
            }
        };
        for (name, value) in env {
            let name = name.as_str();
            let rendered = format!("{value:?}");
            if let Some(base) = name.strip_suffix("@1") {
                upsert(base.to_owned(), 1, rendered);
            } else if let Some(base) = name.strip_suffix("@2") {
                upsert(base.to_owned(), 2, rendered);
            } else if let Some(base) = name.strip_suffix('1') {
                // `v1`/`v2` style pairs (validity obligations) — only pair
                // when the partner exists, so `k1` without `k2` stays
                // itself.
                if env.contains_key(&commcsl_pure::Symbol::new(format!("{base}2"))) && !base.is_empty() {
                    upsert(base.to_owned(), 1, rendered);
                } else {
                    upsert(name.to_owned(), 0, rendered);
                }
            } else if let Some(base) = name.strip_suffix('2') {
                if env.contains_key(&commcsl_pure::Symbol::new(format!("{base}1"))) && !base.is_empty() {
                    upsert(base.to_owned(), 2, rendered);
                } else {
                    upsert(name.to_owned(), 0, rendered);
                }
            } else {
                upsert(name.to_owned(), 0, rendered);
            }
        }
        bindings.sort_by(|a, b| a.var.cmp(&b.var));
        Counterexample { bindings }
    }

    /// `true` when the counterexample carries no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Decodes the binding array a counterexample encodes to.
    pub fn from_json(doc: &Json) -> Result<Counterexample, String> {
        let bindings = doc
            .as_arr()
            .ok_or("`counterexample` must be an array")?
            .iter()
            .map(|b| {
                let field = |key: &str| {
                    b.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or(format!("counterexample binding needs `{key}`"))
                };
                Ok(CexBinding {
                    var: field("var")?,
                    exec1: field("exec1")?,
                    exec2: field("exec2")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Counterexample { bindings })
    }
}

impl From<&Counterexample> for Json {
    /// `[{"var":…,"exec1":…,"exec2":…},…]`, in binding order.
    fn from(cex: &Counterexample) -> Json {
        Json::Arr(
            cex.bindings
                .iter()
                .map(|b| {
                    Json::obj([
                        ("var", Json::str(&b.var)),
                        ("exec1", Json::str(&b.exec1)),
                        ("exec2", Json::str(&b.exec2)),
                    ])
                })
                .collect(),
        )
    }
}

/// Why an obligation failed: the reason, plus a concrete counterexample
/// when one was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Human-readable explanation.
    pub reason: String,
    /// A falsifying per-execution assignment, when the falsifier found
    /// one within budget.
    pub counterexample: Option<Counterexample>,
}

impl Failure {
    /// A failure with a reason and no counterexample.
    pub fn new(reason: impl Into<String>) -> Failure {
        Failure {
            reason: reason.into(),
            counterexample: None,
        }
    }

    /// Attaches a counterexample (builder style).
    #[must_use]
    pub fn with_counterexample(mut self, cex: Counterexample) -> Failure {
        self.counterexample = Some(cex);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commcsl_pure::{Symbol, Value};

    #[test]
    fn codes_roundtrip_and_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for code in DiagnosticCode::ALL {
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert_eq!(code.as_str().parse::<DiagnosticCode>().unwrap(), code);
        }
        assert!("nonsense".parse::<DiagnosticCode>().is_err());
    }

    #[test]
    fn spans_parse_and_render() {
        let span = SourceSpan::new(12, 3);
        assert_eq!(span.to_string(), "12:3");
        assert_eq!("12:3".parse::<SourceSpan>().unwrap(), span);
        assert!("12".parse::<SourceSpan>().is_err());
        assert!("a:b".parse::<SourceSpan>().is_err());
    }

    #[test]
    fn counterexample_pairs_per_execution_variables() {
        let env: Env = [
            (Symbol::new("ν1_h@1"), Value::Int(0)),
            (Symbol::new("ν1_h@2"), Value::Int(1)),
            (Symbol::new("v1"), Value::Int(7)),
            (Symbol::new("v2"), Value::Int(7)),
            (Symbol::new("shared"), Value::Bool(true)),
        ]
        .into_iter()
        .collect();
        let cex = Counterexample::from_env(&env);
        let by_var: std::collections::BTreeMap<&str, (&str, &str)> = cex
            .bindings
            .iter()
            .map(|b| (b.var.as_str(), (b.exec1.as_str(), b.exec2.as_str())))
            .collect();
        assert_eq!(by_var["ν1_h"], ("0", "1"));
        assert_eq!(by_var["v"], ("7", "7"));
        assert_eq!(by_var["shared"], ("true", "true"));
    }

    #[test]
    fn unpaired_numeric_suffix_is_not_split() {
        let env: Env = [(Symbol::new("k1"), Value::Int(3))].into_iter().collect();
        let cex = Counterexample::from_env(&env);
        assert_eq!(cex.bindings.len(), 1);
        assert_eq!(cex.bindings[0].var, "k1");
        assert_eq!(cex.bindings[0].exec1, cex.bindings[0].exec2);
    }
}
