//! Verification reports with structured diagnostics.
//!
//! A [`VerifierReport`] lists every proof obligation the symbolic
//! execution generated, each carrying a stable
//! [`DiagnosticCode`], an optional [`SourceSpan`] (threaded from the
//! `commcsl-front` lowering), and — on failure — a [`Failure`] with the
//! reason and an optional falsifying [`Counterexample`]. The JSON shape
//! produced by [`VerifierReport::to_json`] is the single wire format:
//! the CLI `--json` mode embeds it verbatim, the daemon protocol streams
//! it byte-identically, and the verdict cache stores it losslessly. Each
//! type here has one [`Json`] encoder (a `From` impl) and one decoder
//! (`from_json`).

use std::fmt;

use commcsl_logic::validity::ValidityConfig;
use commcsl_smt::falsify::FalsifyConfig;
use commcsl_smt::{BackendKind, SolverConfig};
use commcsl_telemetry::Json;

pub use crate::diag::{CexBinding, Counterexample, DiagnosticCode, Failure, SourceSpan};
pub use commcsl_analysis::lint::{Lint, LintCode, Severity};

use crate::program::{path_from_json, path_to_json, StmtPath};

/// Version of the report JSON shape emitted by
/// [`VerifierReport::to_json`] (and therefore by the CLI's `--json`
/// output and the daemon protocol). Bumped whenever a field is added,
/// removed, or reinterpreted, so machine consumers can detect documents
/// they do not understand. Independent of
/// [`HASH_FORMAT_VERSION`](crate::hash::HASH_FORMAT_VERSION) (the cache
/// address version), though a schema bump implies a hash bump — the
/// bytes change.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Configuration for the verifier.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// Solver budgets for program obligations.
    pub solver: SolverConfig,
    /// Budgets for specification validity checking at `share` (including
    /// the validity checker's own backend choice).
    pub validity: ValidityConfig,
    /// Countermodel search budgets for failed obligations.
    pub falsify: FalsifyConfig,
    /// Which solver backend discharges program obligations. The symbolic
    /// execution opens one session per program and mirrors its path
    /// condition into solver scopes, so an incremental backend saturates
    /// each path fact once however many goals are checked against it.
    pub backend: BackendKind,
    /// Whether failed obligations hunt for a concrete falsifying
    /// assignment (surfaced as [`Counterexample`] in reports). Part of
    /// the content hash: toggling it changes report bytes.
    pub counterexamples: bool,
    /// Whether the static pre-pass may discharge obligations whose goal
    /// normalizes to `true` without consulting the solver. Verdicts are
    /// byte-identical either way (the pre-pass only claims goals the
    /// solver's own rewriter proves in its first saturation round), but
    /// the knob is still part of the content hash — cached timings and
    /// discharge counters are only comparable within one setting.
    pub static_prepass: bool,
    /// Whether falsified obligations delta-debug their path-fact cone
    /// down to a minimal falsifying environment (see
    /// [`crate::minimize`]). Off by default: minimization re-checks
    /// shrunk fact subsets through a scratch solver session, so it costs
    /// extra solver/falsifier work per failure. Part of the content hash;
    /// with the knob off, report bytes are identical to a build without
    /// the feature.
    pub minimize_counterexamples: bool,
    /// Whether proved obligations record their *proof core* — the subset
    /// of path facts the proof can have used (see
    /// [`commcsl_smt::assume`]) — and reports aggregate the cores into
    /// per-program unneeded-annotation hints. Off by default; part of the
    /// content hash; with the knob off, report bytes are identical to a
    /// build without the feature.
    pub proof_cores: bool,
}

impl VerifierConfig {
    /// The default configuration (incremental backend, counterexample
    /// search enabled).
    pub fn new() -> Self {
        VerifierConfig::default()
    }
}

// `Default` must enable counterexample search; deriving would pick `false`.
impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            solver: SolverConfig::default(),
            validity: ValidityConfig::default(),
            falsify: FalsifyConfig::default(),
            backend: BackendKind::default(),
            counterexamples: true,
            static_prepass: true,
            minimize_counterexamples: false,
            proof_cores: false,
        }
    }
}

/// The status of one proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObligationStatus {
    /// Proved by the solver.
    Proved,
    /// Could not be proved; carries the structured failure.
    Failed(Failure),
}

impl ObligationStatus {
    /// Convenience constructor for a reason-only failure.
    pub fn failed(reason: impl Into<String>) -> ObligationStatus {
        ObligationStatus::Failed(Failure::new(reason))
    }

    /// Decodes a status from the `proved`, `reason` and `counterexample`
    /// fields of `doc` (other fields are ignored, so this also reads the
    /// status out of an encoded [`ObligationResult`]).
    pub fn from_json(doc: &Json) -> Result<ObligationStatus, String> {
        let proved = doc
            .get("proved")
            .and_then(Json::as_bool)
            .ok_or("obligation needs `proved`")?;
        if proved {
            return Ok(ObligationStatus::Proved);
        }
        let reason = doc
            .get("reason")
            .and_then(Json::as_str)
            .ok_or("failed obligation needs `reason`")?;
        let mut failure = Failure::new(reason);
        if let Some(cex) = doc.get("counterexample") {
            failure = failure.with_counterexample(Counterexample::from_json(cex)?);
        }
        Ok(ObligationStatus::Failed(failure))
    }
}

impl From<&ObligationStatus> for Json {
    /// `{"proved":true}`, or `{"proved":false,"reason":…}` plus the
    /// `counterexample` when one was found.
    fn from(status: &ObligationStatus) -> Json {
        match status {
            ObligationStatus::Proved => Json::obj([("proved", Json::Bool(true))]),
            ObligationStatus::Failed(failure) => {
                let mut fields = vec![
                    ("proved", Json::Bool(false)),
                    ("reason", Json::str(&failure.reason)),
                ];
                if let Some(cex) = &failure.counterexample {
                    fields.push(("counterexample", cex.into()));
                }
                Json::obj(fields)
            }
        }
    }
}

/// One fact site contributing to an obligation's proof core: the
/// statement that asserted the fact, identified by its [`StmtPath`] and —
/// when the program came through the frontend — its source position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoreFact {
    /// Statement path of the asserting site.
    pub path: StmtPath,
    /// Source position of the asserting site, when known.
    pub span: Option<SourceSpan>,
}

impl CoreFact {
    /// Decodes a `{"path":[…],"span"?:…}` fact.
    pub(crate) fn from_json(doc: &Json) -> Result<CoreFact, String> {
        Ok(CoreFact {
            path: path_from_json(doc.get("path").ok_or("core fact needs `path`")?)?,
            span: doc.get("span").map(SourceSpan::from_json).transpose()?,
        })
    }
}

impl From<&CoreFact> for Json {
    fn from(fact: &CoreFact) -> Json {
        let mut fields = vec![("path", path_to_json(&fact.path))];
        if let Some(span) = fact.span {
            fields.push(("span", span.into()));
        }
        Json::obj(fields)
    }
}

/// One discharged (or failed) obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationResult {
    /// A human-readable description (e.g. `"pre of Put at worker 1"`).
    pub description: String,
    /// Stable machine-readable obligation kind.
    pub code: DiagnosticCode,
    /// Source position of the generating statement, when the program was
    /// compiled from `.csl` source.
    pub span: Option<SourceSpan>,
    /// The outcome.
    pub status: ObligationStatus,
    /// The proof core — fact sites the proof can have used, deduplicated
    /// by path and sorted. `Some` only for proved obligations of a run
    /// with [`VerifierConfig::proof_cores`] enabled, so reports with the
    /// knob off render byte-identically to builds without the field.
    pub core: Option<Vec<CoreFact>>,
}

impl ObligationResult {
    /// The failure, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match &self.status {
            ObligationStatus::Proved => None,
            ObligationStatus::Failed(failure) => Some(failure),
        }
    }

    /// Decodes an obligation encoded by its `From` impl.
    pub(crate) fn from_json(doc: &Json) -> Result<ObligationResult, String> {
        Ok(ObligationResult {
            description: doc
                .get("description")
                .and_then(Json::as_str)
                .ok_or("obligation needs `description`")?
                .to_owned(),
            code: doc
                .get("code")
                .and_then(Json::as_str)
                .ok_or("obligation needs `code`")?
                .parse::<DiagnosticCode>()?,
            span: doc.get("span").map(SourceSpan::from_json).transpose()?,
            status: ObligationStatus::from_json(doc)?,
            core: doc
                .get("core")
                .map(|core| {
                    core.as_arr()
                        .ok_or("`core` must be an array")?
                        .iter()
                        .map(CoreFact::from_json)
                        .collect::<Result<Vec<_>, String>>()
                })
                .transpose()?,
        })
    }
}

impl From<&ObligationResult> for Json {
    /// `description`, `code` and the optional `span`, the status fields,
    /// then the optional proof `core`.
    fn from(o: &ObligationResult) -> Json {
        let mut fields = vec![
            ("description".to_owned(), Json::str(&o.description)),
            ("code".to_owned(), Json::str(o.code.as_str())),
        ];
        if let Some(span) = o.span {
            fields.push(("span".to_owned(), span.into()));
        }
        if let Json::Obj(status) = Json::from(&o.status) {
            fields.extend(status);
        }
        if let Some(core) = &o.core {
            fields.push((
                "core".to_owned(),
                Json::Arr(core.iter().map(Json::from).collect()),
            ));
        }
        Json::Obj(fields)
    }
}

/// The result of verifying one annotated program.
#[derive(Debug, Clone)]
pub struct VerifierReport {
    /// Program name.
    pub program: String,
    /// Every obligation, in order of generation.
    pub obligations: Vec<ObligationResult>,
    /// Structural errors (guard misuse, malformed program) that prevent
    /// verification regardless of the solver.
    pub errors: Vec<String>,
    /// Lint-style notes aggregated from the proof cores: annotation sites
    /// whose facts no proved obligation needed (see
    /// [`LintCode::UnneededAnnotation`]). Empty — and absent from the
    /// JSON — unless [`VerifierConfig::proof_cores`] is enabled.
    pub hints: Vec<Lint>,
}

impl VerifierReport {
    /// `true` when the program verified: no structural errors and every
    /// obligation proved.
    pub fn verified(&self) -> bool {
        self.errors.is_empty()
            && self
                .obligations
                .iter()
                .all(|o| o.status == ObligationStatus::Proved)
    }

    /// The failed obligations.
    pub fn failures(&self) -> impl Iterator<Item = &ObligationResult> {
        self.obligations
            .iter()
            .filter(|o| o.status != ObligationStatus::Proved)
    }

    /// Number of obligations discharged.
    pub fn proved_count(&self) -> usize {
        self.obligations
            .iter()
            .filter(|o| o.status == ObligationStatus::Proved)
            .count()
    }
}

impl VerifierReport {
    /// Renders the report as one JSON object (no trailing newline).
    ///
    /// Field order and spelling are part of the tool's machine interface:
    /// the CLI's `--json` output, the daemon protocol and the verdict
    /// cache all carry these bytes.
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }

    /// Decodes a report. The derived fields (`verified`, `proved`) are
    /// recomputed, so `VerifierReport::from_json(&Json::parse(&r.to_json())?)`
    /// reproduces `r` byte-identically under `to_json`. A
    /// `schema_version` other than [`REPORT_SCHEMA_VERSION`] is rejected.
    pub fn from_json(doc: &Json) -> Result<VerifierReport, String> {
        if let Some(schema) = doc.get("schema_version") {
            let schema = schema.as_u64().ok_or("`schema_version` must be a number")?;
            if schema != u64::from(REPORT_SCHEMA_VERSION) {
                return Err(format!(
                    "unsupported report schema v{schema} (this build reads v{REPORT_SCHEMA_VERSION})"
                ));
            }
        }
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("report needs `{key}`"))
        };
        Ok(VerifierReport {
            program: doc
                .get("program")
                .and_then(Json::as_str)
                .ok_or("report needs `program`")?
                .to_owned(),
            obligations: list("obligations")?
                .iter()
                .map(ObligationResult::from_json)
                .collect::<Result<_, String>>()?,
            errors: list("errors")?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "errors must be strings".to_owned())
                })
                .collect::<Result<_, String>>()?,
            hints: doc
                .get("hints")
                .map(|hints| {
                    hints
                        .as_arr()
                        .ok_or("`hints` must be an array")?
                        .iter()
                        .map(Lint::from_json)
                        .collect::<Result<Vec<_>, String>>()
                })
                .transpose()?
                .unwrap_or_default(),
        })
    }
}

impl From<&VerifierReport> for Json {
    /// `hints` is present only when non-empty, so reports of runs without
    /// proof cores render byte-identically to builds without the field.
    fn from(report: &VerifierReport) -> Json {
        let mut fields = vec![
            (
                "schema_version",
                Json::Num(f64::from(REPORT_SCHEMA_VERSION)),
            ),
            ("program", Json::str(&report.program)),
            ("verified", Json::Bool(report.verified())),
            ("proved", Json::Num(report.proved_count() as f64)),
            (
                "obligations",
                Json::Arr(report.obligations.iter().map(Json::from).collect()),
            ),
            (
                "errors",
                Json::Arr(report.errors.iter().map(Json::str).collect()),
            ),
        ];
        if !report.hints.is_empty() {
            fields.push((
                "hints",
                Json::Arr(report.hints.iter().map(Json::from).collect()),
            ));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for VerifierReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {}: {}/{} obligations proved",
            if self.verified() { "OK" } else { "FAIL" },
            self.program,
            self.proved_count(),
            self.obligations.len()
        )?;
        for e in &self.errors {
            writeln!(f, "  error: {e}")?;
        }
        for o in self.failures() {
            if let ObligationStatus::Failed(failure) = &o.status {
                let at = o
                    .span
                    .map(|s| format!(" at {s}"))
                    .unwrap_or_default();
                writeln!(
                    f,
                    "  failed [{}]{at}: {} — {}",
                    o.code, o.description, failure.reason
                )?;
                if let Some(cex) = &failure.counterexample {
                    for b in &cex.bindings {
                        if b.exec1 == b.exec2 {
                            writeln!(f, "    where {} = {}", b.var, b.exec1)?;
                        } else {
                            writeln!(
                                f,
                                "    where {} = {} vs {}",
                                b.var, b.exec1, b.exec2
                            )?;
                        }
                    }
                }
            }
        }
        for hint in &self.hints {
            writeln!(f, "  {hint}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn proved(description: &str) -> ObligationResult {
        ObligationResult {
            description: description.into(),
            code: DiagnosticCode::LowOutput,
            span: None,
            status: ObligationStatus::Proved,
            core: None,
        }
    }

    #[test]
    fn verified_requires_all_proved_and_no_errors() {
        let mut r = VerifierReport {
            program: "p".into(),
            obligations: vec![proved("d")],
            errors: vec![],
            hints: vec![],
        };
        assert!(r.verified());
        r.errors.push("structural".into());
        assert!(!r.verified());
        r.errors.clear();
        r.obligations.push(ObligationResult {
            description: "bad".into(),
            code: DiagnosticCode::ActionPre,
            span: Some(SourceSpan::new(3, 1)),
            status: ObligationStatus::failed("nope"),
            core: None,
        });
        assert!(!r.verified());
        assert_eq!(r.failures().count(), 1);
        let shown = r.to_string();
        assert!(shown.contains("FAIL"));
        assert!(shown.contains("bad"));
        assert!(shown.contains("[action-pre]"));
        assert!(shown.contains("at 3:1"));
    }

    /// A report exercising every optional field and string position.
    pub(crate) fn nasty_report() -> VerifierReport {
        VerifierReport {
            program: "p \"q\" \\ \n\t\u{1}".into(),
            obligations: vec![
                ObligationResult {
                    description: "pre of Put\tat worker 1".into(),
                    code: DiagnosticCode::ActionPre,
                    span: Some(SourceSpan::new(12, 7)),
                    status: ObligationStatus::Proved,
                    core: Some(vec![
                        CoreFact {
                            path: vec![],
                            span: None,
                        },
                        CoreFact {
                            path: vec![3, 1, 0],
                            span: Some(SourceSpan::new(8, 4)),
                        },
                    ]),
                },
                ObligationResult {
                    description: "Low(output \"x\")".into(),
                    code: DiagnosticCode::LowOutput,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new("countermodel: h\u{2}=1").with_counterexample(
                            Counterexample {
                                bindings: vec![
                                    CexBinding {
                                        var: "h \"quoted\"\t".into(),
                                        exec1: "0".into(),
                                        exec2: "1\n".into(),
                                    },
                                    CexBinding {
                                        var: "k".into(),
                                        exec1: "Seq([])".into(),
                                        exec2: "Seq([])".into(),
                                    },
                                ],
                            },
                        ),
                    ),
                    core: None,
                },
                ObligationResult {
                    description: "empty cex stays Some".into(),
                    code: DiagnosticCode::LowAssert,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new("no witness").with_counterexample(Counterexample::default()),
                    ),
                    core: None,
                },
                ObligationResult {
                    description: "reason only".into(),
                    code: DiagnosticCode::LowAssert,
                    span: None,
                    status: ObligationStatus::failed("ctr\r\nmodel"),
                    core: None,
                },
            ],
            errors: vec!["guard \\ misuse\nsecond line".into()],
            hints: vec![Lint {
                code: LintCode::UnneededAnnotation,
                severity: Severity::Note,
                path: vec![4],
                span: Some(SourceSpan::new(14, 1)),
                message: "no proved obligation needed \"this\" unshare".into(),
            }],
        }
    }

    fn roundtrip(report: &VerifierReport) -> VerifierReport {
        let parsed = Json::parse(&report.to_json()).unwrap();
        VerifierReport::from_json(&parsed).unwrap()
    }

    #[test]
    fn report_json_roundtrips_every_field_shape() {
        let report = nasty_report();
        let recovered = roundtrip(&report);
        assert_eq!(recovered.program, report.program);
        assert_eq!(recovered.obligations, report.obligations);
        assert_eq!(recovered.errors, report.errors);
        assert_eq!(recovered.hints, report.hints);
        assert_eq!(recovered.to_json(), report.to_json());
        // Each status also round-trips on its own.
        for o in &report.obligations {
            let status = Json::parse(&Json::from(&o.status).to_string()).unwrap();
            assert_eq!(ObligationStatus::from_json(&status).as_ref(), Ok(&o.status));
        }
    }

    #[test]
    fn report_parse_back_roundtrips_exhaustive_control_chars() {
        // Every C0 control character, plus quote/backslash runs, in every
        // string position of a report: `to_json` must parse back to an
        // identical report (the cache's byte-identical guarantee depends
        // on this codec being lossless).
        let mut nasty = String::from("q\" b\\ run\\\\ ");
        nasty.extend((0u32..0x20).map(|c| char::from_u32(c).unwrap()));
        let report = VerifierReport {
            program: nasty.clone(),
            obligations: vec![ObligationResult {
                description: nasty.clone(),
                code: DiagnosticCode::LowAssert,
                span: Some(SourceSpan::new(1, 999)),
                status: ObligationStatus::Failed(Failure::new(nasty.clone()).with_counterexample(
                    Counterexample {
                        bindings: vec![CexBinding {
                            var: nasty.clone(),
                            exec1: nasty.clone(),
                            exec2: nasty.clone(),
                        }],
                    },
                )),
                core: None,
            }],
            errors: vec![nasty.clone()],
            hints: vec![],
        };
        let recovered = roundtrip(&report);
        assert_eq!(recovered.program, report.program);
        assert_eq!(recovered.errors, report.errors);
        assert_eq!(recovered.obligations, report.obligations);
        assert_eq!(recovered.to_json(), report.to_json());
    }

    #[test]
    fn report_decoding_rejects_malformed_documents() {
        let good = nasty_report().to_json();
        for (from, to) in [
            ("\"schema_version\":1", "\"schema_version\":2"),
            ("\"program\":", "\"name\":"),
            ("\"code\":\"action-pre\"", "\"code\":\"no-such-code\""),
            ("\"span\":\"12:7\"", "\"span\":\"12\""),
            ("\"proved\":true", "\"proved\":1"),
            ("\"reason\":\"no witness\"", "\"why\":\"no witness\""),
            ("\"exec2\":\"Seq([])\"", "\"exec3\":\"Seq([])\""),
            ("\"path\":[3,1,0]", "\"path\":[3,-1,0]"),
            ("\"severity\":\"note\"", "\"severity\":\"fatal\""),
            ("\"errors\":[\"", "\"errors\":[1,\""),
        ] {
            assert!(good.contains(from), "{from}");
            let bad = Json::parse(&good.replacen(from, to, 1)).unwrap();
            assert!(VerifierReport::from_json(&bad).is_err(), "{from} -> {to}");
        }
    }

    #[test]
    fn report_json_with_nasty_program_names_stays_balanced() {
        for name in [
            "quotes \"inside\" the name",
            "back\\slash \\\" combo",
            "newline\nand\ttab and \u{0}null",
            "trailing backslash \\",
        ] {
            let r = VerifierReport {
                program: name.into(),
                obligations: vec![ObligationResult {
                    description: format!("pre of {name}"),
                    code: DiagnosticCode::ActionPre,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new(format!("why: {name}")).with_counterexample(
                            Counterexample {
                                bindings: vec![CexBinding {
                                    var: name.into(),
                                    exec1: "Int(0)".into(),
                                    exec2: name.into(),
                                }],
                            },
                        ),
                    ),
                    core: None,
                }],
                errors: vec![name.into()],
                hints: vec![],
            };
            let json = r.to_json();
            // No raw control characters or unescaped quotes survive.
            assert!(json.chars().all(|c| (c as u32) >= 0x20), "{json}");
            for (open, close) in [('{', '}'), ('[', ']')] {
                assert_eq!(
                    json.matches(open).count(),
                    json.matches(close).count(),
                    "{json}"
                );
            }
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let r = VerifierReport {
            program: "p \"q\"".into(),
            obligations: vec![
                ObligationResult {
                    description: "pre of Put".into(),
                    code: DiagnosticCode::ActionPre,
                    span: Some(SourceSpan::new(7, 5)),
                    status: ObligationStatus::Proved,
                    core: None,
                },
                ObligationResult {
                    description: "Low(output)".into(),
                    code: DiagnosticCode::LowOutput,
                    span: None,
                    status: ObligationStatus::Failed(
                        Failure::new("countermodel").with_counterexample(Counterexample {
                            bindings: vec![CexBinding {
                                var: "h".into(),
                                exec1: "Int(0)".into(),
                                exec2: "Int(1)".into(),
                            }],
                        }),
                    ),
                    core: None,
                },
            ],
            errors: vec!["guard misuse".into()],
            hints: vec![],
        };
        let json = r.to_json();
        assert!(json.starts_with(&format!(
            "{{\"schema_version\":{REPORT_SCHEMA_VERSION},\"program\":\"p \\\"q\\\"\""
        )));
        assert!(json.contains("\"verified\":false"));
        assert!(json.contains("\"proved\":1"));
        assert!(json.contains("\"code\":\"action-pre\""));
        assert!(json.contains("\"span\":\"7:5\""));
        assert!(json.contains("\"reason\":\"countermodel\""));
        assert!(json.contains(
            "\"counterexample\":[{\"var\":\"h\",\"exec1\":\"Int(0)\",\"exec2\":\"Int(1)\"}]"
        ));
        assert!(json.contains("\"errors\":[\"guard misuse\"]"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count()
            );
        }
    }
}
