//! Stable structural hashing of verifier inputs.
//!
//! Verification is a pure function of the lowered [`AnnotatedProgram`]
//! (including its [`ResourceSpec`]s) and the [`VerifierConfig`], which
//! makes verdicts **content-addressable**: two inputs with the same
//! structural hash have byte-identical reports. This module computes that
//! address — a 128-bit FNV-1a hash over a canonical byte encoding of the
//! whole input tree — for the result cache ([`crate::cache`]) and the
//! `commcsl-server` verification daemon.
//!
//! Stability contract:
//!
//! * The hash is **deterministic across processes, platforms, and runs**
//!   (no pointer values, no `std::hash::Hasher` randomization, no
//!   iteration-order dependence: every container in the input tree is
//!   ordered).
//! * Every node is encoded as a tag (a stable name, *not* a Rust
//!   discriminant index) followed by its children, and variable-length
//!   sequences are length-prefixed, so distinct trees cannot collide by
//!   concatenation ambiguity.
//! * [`HASH_FORMAT_VERSION`] is folded into every hash. Bump it whenever
//!   the encoding *or the meaning of a verdict* changes (new obligation
//!   kinds, solver semantics changes, …); a bump invalidates every
//!   previously cached verdict, which is always safe — a stale verdict
//!   never is.

use std::fmt;
use std::str::FromStr;

use commcsl_logic::spec::{ActionDef, ActionKind, ResourceSpec};
use commcsl_pure::{Func, Sort, Symbol, Term, Value};

use crate::program::{AnnotatedProgram, VStmt};
use crate::report::VerifierConfig;

/// Version of the hash encoding *and* of verdict semantics. Bumping this
/// invalidates all cached verdicts (they key on the hash).
///
/// v2: reports grew structured diagnostics (stable codes, source spans,
/// per-execution counterexamples), the solver backend became pluggable,
/// and the backend/counterexample knobs joined the hashed configuration —
/// any v1 verdict would replay without those fields.
///
/// v3: the cache grew an **obligation tier**
/// ([`ObligationKey`](crate::obligation::ObligationKey)-addressed
/// per-obligation statuses for workspace re-verification), report JSON
/// gained a leading `schema_version` field, and this version seeds the
/// obligation-key hasher too — v2 verdicts would replay the old report
/// shape.
///
/// v4: the static pre-pass joined the discharge pipeline — obligations
/// whose goal normalizes to `true` skip the solver — and its knob
/// ([`static_prepass`](crate::report::VerifierConfig::static_prepass))
/// joined the hashed configuration. Verdicts are byte-identical across
/// the knob, but v3 verdicts were produced by a binary that did not hash
/// it, so they must not replay against one that does.
///
/// v5: reports grew editor-facing payloads — delta-debugged *minimized*
/// counterexamples on failures and *proof cores* (the facts each proved
/// obligation needed) with their aggregated unneeded-annotation hints —
/// and both knobs
/// ([`minimize_counterexamples`](crate::report::VerifierConfig::minimize_counterexamples),
/// [`proof_cores`](crate::report::VerifierConfig::proof_cores)) joined
/// the hashed configuration. With both knobs off the report bytes are
/// unchanged from v4, but a v4 verdict must not answer for a
/// configuration that can carry the new fields.
///
/// v6: disk files and remote-cache payloads became one JSON entry
/// (`{"format","version","key","report"|"status"}`) over the report's own
/// JSON codec, replacing the tab-separated line format. The bump changes
/// every key and the tier directory, so v5 line-format files are orphaned
/// rather than read.
pub const HASH_FORMAT_VERSION: u32 = 6;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit content hash of a verification input.
///
/// Displayed (and parsed) as 32 lowercase hex digits; used as the cache
/// key in memory, the file name on disk, and the `key` field of the
/// daemon protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgramHash(pub u128);

impl fmt::Display for ProgramHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for ProgramHash {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(format!("program hash must be 32 hex digits, got {}", s.len()));
        }
        u128::from_str_radix(s, 16)
            .map(ProgramHash)
            .map_err(|e| format!("bad program hash: {e}"))
    }
}

/// An incremental FNV-1a (128-bit) hasher over a canonical byte stream.
///
/// Unlike `std::hash::Hasher` implementations, the result is specified:
/// the same byte feed produces the same value on every platform and in
/// every process.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl StableHasher {
    /// A fresh hasher, already seeded with [`HASH_FORMAT_VERSION`].
    pub fn new() -> Self {
        let mut h = StableHasher { state: FNV128_OFFSET };
        h.write_u32(HASH_FORMAT_VERSION);
        h
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// Feeds an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, n: i64) {
        self.write(&n.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` so 32- and 64-bit platforms agree.
    pub fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Feeds a node tag (a short stable name such as `"term.app"`).
    /// Tags are deliberately strings, not discriminant indices, so
    /// reordering an enum in source never silently changes hashes.
    pub fn tag(&mut self, t: &str) {
        self.write_str(t);
    }

    /// Finalizes the hash.
    pub fn finish(&self) -> ProgramHash {
        ProgramHash(self.state)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Types with a canonical, cross-process-stable hash encoding.
pub trait StableHash {
    /// Feeds `self`'s canonical encoding into the hasher.
    fn stable_hash(&self, h: &mut StableHasher);
}

fn hash_slice<T: StableHash>(items: &[T], h: &mut StableHasher) {
    h.write_usize(items.len());
    for item in items {
        item.stable_hash(h);
    }
}

impl StableHash for Symbol {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self.as_str());
    }
}

impl StableHash for Sort {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Sort::Unknown => h.tag("sort.unknown"),
            Sort::Unit => h.tag("sort.unit"),
            Sort::Int => h.tag("sort.int"),
            Sort::Bool => h.tag("sort.bool"),
            Sort::Str => h.tag("sort.str"),
            Sort::Pair(a, b) => {
                h.tag("sort.pair");
                a.stable_hash(h);
                b.stable_hash(h);
            }
            Sort::Either(a, b) => {
                h.tag("sort.either");
                a.stable_hash(h);
                b.stable_hash(h);
            }
            Sort::Seq(e) => {
                h.tag("sort.seq");
                e.stable_hash(h);
            }
            Sort::Set(e) => {
                h.tag("sort.set");
                e.stable_hash(h);
            }
            Sort::Multiset(e) => {
                h.tag("sort.multiset");
                e.stable_hash(h);
            }
            Sort::Map(k, v) => {
                h.tag("sort.map");
                k.stable_hash(h);
                v.stable_hash(h);
            }
        }
    }
}

impl StableHash for Value {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Value::Unit => h.tag("val.unit"),
            Value::Int(n) => {
                h.tag("val.int");
                h.write_i64(*n);
            }
            Value::Bool(b) => {
                h.tag("val.bool");
                h.write(&[u8::from(*b)]);
            }
            Value::Str(s) => {
                h.tag("val.str");
                s.stable_hash(h);
            }
            Value::Pair(a, b) => {
                h.tag("val.pair");
                a.stable_hash(h);
                b.stable_hash(h);
            }
            Value::Left(v) => {
                h.tag("val.left");
                v.stable_hash(h);
            }
            Value::Right(v) => {
                h.tag("val.right");
                v.stable_hash(h);
            }
            Value::Seq(xs) => {
                h.tag("val.seq");
                hash_slice(xs, h);
            }
            // Ordered containers iterate deterministically (BTree-backed).
            Value::Set(s) => {
                h.tag("val.set");
                h.write_usize(s.len());
                for v in s {
                    v.stable_hash(h);
                }
            }
            Value::Multiset(m) => {
                h.tag("val.multiset");
                h.write_usize(m.iter().count());
                for (v, n) in m.iter() {
                    v.stable_hash(h);
                    h.write_usize(n);
                }
            }
            Value::Map(m) => {
                h.tag("val.map");
                h.write_usize(m.len());
                for (k, v) in m {
                    k.stable_hash(h);
                    v.stable_hash(h);
                }
            }
        }
    }
}

impl StableHash for Func {
    fn stable_hash(&self, h: &mut StableHasher) {
        let name = match self {
            Func::Add => "add",
            Func::Sub => "sub",
            Func::Mul => "mul",
            Func::Div => "div",
            Func::Mod => "mod",
            Func::Neg => "neg",
            Func::Max => "max",
            Func::Min => "min",
            Func::Eq => "eq",
            Func::Lt => "lt",
            Func::Le => "le",
            Func::Not => "not",
            Func::And => "and",
            Func::Or => "or",
            Func::Implies => "implies",
            Func::Iff => "iff",
            Func::Ite => "ite",
            Func::MkPair => "mkpair",
            Func::Fst => "fst",
            Func::Snd => "snd",
            Func::MkLeft => "mkleft",
            Func::MkRight => "mkright",
            Func::IsLeft => "isleft",
            Func::FromLeft => "fromleft",
            Func::FromRight => "fromright",
            Func::SeqAppend => "seqappend",
            Func::SeqConcat => "seqconcat",
            Func::SeqLen => "seqlen",
            Func::SeqIndex => "seqindex",
            Func::SeqIndexOr => "seqindexor",
            Func::SeqTail => "seqtail",
            Func::SeqHeadOr => "seqheador",
            Func::SeqSum => "seqsum",
            Func::SeqMean => "seqmean",
            Func::SeqSorted => "seqsorted",
            Func::SeqToMultiset => "seqtomultiset",
            Func::SeqToSet => "seqtoset",
            Func::SetAdd => "setadd",
            Func::SetUnion => "setunion",
            Func::SetCard => "setcard",
            Func::SetContains => "setcontains",
            Func::SetToSeq => "settoseq",
            Func::MsAdd => "msadd",
            Func::MsUnion => "msunion",
            Func::MsCard => "mscard",
            Func::MsContains => "mscontains",
            Func::MsToSortedSeq => "mstosortedseq",
            Func::MapPut => "mapput",
            Func::MapGetOr => "mapgetor",
            Func::MapDom => "mapdom",
            Func::MapContains => "mapcontains",
            Func::MapLen => "maplen",
            Func::Uninterpreted(sym) => {
                h.tag("func.uninterpreted");
                sym.stable_hash(h);
                return;
            }
        };
        h.tag("func");
        h.write_str(name);
    }
}

impl StableHash for Term {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            Term::Var(x) => {
                h.tag("term.var");
                x.stable_hash(h);
            }
            Term::Lit(v) => {
                h.tag("term.lit");
                v.stable_hash(h);
            }
            Term::App(f, args) => {
                h.tag("term.app");
                f.stable_hash(h);
                hash_slice(args, h);
            }
        }
    }
}

impl StableHash for ActionKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.tag(match self {
            ActionKind::Shared => "action.shared",
            ActionKind::Unique => "action.unique",
        });
    }
}

impl StableHash for ActionDef {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.tag("actiondef");
        self.name.stable_hash(h);
        self.kind.stable_hash(h);
        self.arg_sort.stable_hash(h);
        self.body.stable_hash(h);
        self.pre.stable_hash(h);
    }
}

impl StableHash for ResourceSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.tag("resourcespec");
        self.name.stable_hash(h);
        self.value_sort.stable_hash(h);
        self.alpha.stable_hash(h);
        hash_slice(&self.actions, h);
    }
}

impl StableHash for VStmt {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            VStmt::Input { var, sort, low } => {
                h.tag("stmt.input");
                var.stable_hash(h);
                sort.stable_hash(h);
                h.write(&[u8::from(*low)]);
            }
            VStmt::Assign(var, e) => {
                h.tag("stmt.assign");
                var.stable_hash(h);
                e.stable_hash(h);
            }
            VStmt::If { cond, then_b, else_b } => {
                h.tag("stmt.if");
                cond.stable_hash(h);
                hash_slice(then_b, h);
                hash_slice(else_b, h);
            }
            VStmt::For { var, from, to, body } => {
                h.tag("stmt.for");
                var.stable_hash(h);
                from.stable_hash(h);
                to.stable_hash(h);
                hash_slice(body, h);
            }
            VStmt::Share { resource, init } => {
                h.tag("stmt.share");
                h.write_usize(*resource);
                init.stable_hash(h);
            }
            VStmt::Par { workers } => {
                h.tag("stmt.par");
                h.write_usize(workers.len());
                for w in workers {
                    hash_slice(w, h);
                }
            }
            VStmt::Atomic { resource, action, arg } => {
                h.tag("stmt.atomic");
                h.write_usize(*resource);
                action.stable_hash(h);
                arg.stable_hash(h);
            }
            VStmt::AtomicBatch { resource, action, arg, count } => {
                h.tag("stmt.atomicbatch");
                h.write_usize(*resource);
                action.stable_hash(h);
                arg.stable_hash(h);
                count.stable_hash(h);
            }
            VStmt::ConsumeBind { resource, action, var, index } => {
                h.tag("stmt.consumebind");
                h.write_usize(*resource);
                action.stable_hash(h);
                var.stable_hash(h);
                index.stable_hash(h);
            }
            VStmt::AtomicDeferred { resource, action, arg } => {
                h.tag("stmt.atomicdeferred");
                h.write_usize(*resource);
                action.stable_hash(h);
                arg.stable_hash(h);
            }
            VStmt::Unshare { resource, into } => {
                h.tag("stmt.unshare");
                h.write_usize(*resource);
                into.stable_hash(h);
            }
            VStmt::AssertLow(e) => {
                h.tag("stmt.assertlow");
                e.stable_hash(h);
            }
            VStmt::Output(e) => {
                h.tag("stmt.output");
                e.stable_hash(h);
            }
        }
    }
}

impl StableHash for AnnotatedProgram {
    fn stable_hash(&self, h: &mut StableHasher) {
        hash_program(self, h, |_| {});
    }
}

/// The [`AnnotatedProgram`] encoding, calling `after_statement` with the
/// hasher after each top-level statement.
fn hash_program(
    program: &AnnotatedProgram,
    h: &mut StableHasher,
    mut after_statement: impl FnMut(&StableHasher),
) {
    h.tag("program");
    h.write_str(&program.name);
    hash_slice(&program.resources, h);
    h.write_usize(program.body.len());
    for stmt in &program.body {
        stmt.stable_hash(h);
        after_statement(h);
    }
    // Source spans are report payload (failed obligations embed them),
    // so they address the verdict even though program *equality*
    // ignores them: a reformatted source must not replay a cached
    // report carrying the old positions.
    h.tag("spans");
    h.write_usize(program.spans.len());
    for (path, span) in &program.spans {
        h.write_usize(path.len());
        for component in path {
            h.write_u32(*component);
        }
        h.write_u32(span.line);
        h.write_u32(span.col);
    }
}

impl StableHash for VerifierConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.tag("config");
        // Every budget knob that can change a verdict (a bigger budget can
        // flip Failed("unknown") to Proved) is part of the key.
        for solver in [&self.solver, &self.validity.solver] {
            h.write_usize(solver.max_depth);
            h.write_usize(solver.max_branches);
            h.write_usize(solver.normalize_rounds);
            h.write_usize(solver.lia.max_constraints);
        }
        for falsify in [&self.falsify, &self.validity.falsify] {
            h.write_u64(falsify.seed);
            h.write_usize(falsify.random_tries);
            h.write_i64(falsify.enum_int_bound);
            h.write_usize(falsify.enum_max_len);
            h.write_usize(falsify.enum_budget);
            h.write_i64(falsify.gen.int_bound);
            h.write_usize(falsify.gen.max_len);
            h.write_usize(falsify.gen.max_depth);
        }
        // Backend choices and diagnostic knobs: backends are pinned
        // verdict-identical on the corpus, but the cache must never bet on
        // that — a backend (or counterexample-search) change is always a
        // different address, a miss, never a stale verdict.
        h.tag("backend");
        h.write_str(self.backend.name());
        h.tag("validity-backend");
        h.write_str(self.validity.backend.name());
        h.tag("counterexamples");
        h.write(&[u8::from(self.counterexamples)]);
        h.tag("static-prepass");
        h.write(&[u8::from(self.static_prepass)]);
        h.tag("minimize-counterexamples");
        h.write(&[u8::from(self.minimize_counterexamples)]);
        h.tag("proof-cores");
        h.write(&[u8::from(self.proof_cores)]);
    }
}

/// The content address of one verification job: a stable structural hash
/// of the lowered program (with its resource specifications) and the
/// verifier configuration, under [`HASH_FORMAT_VERSION`].
pub fn program_hash(program: &AnnotatedProgram, config: &VerifierConfig) -> ProgramHash {
    let mut h = StableHasher::new();
    program.stable_hash(&mut h);
    config.stable_hash(&mut h);
    h.finish()
}

/// [`program_hash`], plus the hasher's state after each top-level
/// statement. The encoding feeds the program's name, resources and
/// statement count before the statements, so two programs whose states
/// agree at statement `i` agree, as far as a 128-bit hash tells, on all
/// of those and on statements `0..=i`.
pub(crate) fn program_hash_by_statement(
    program: &AnnotatedProgram,
    config: &VerifierConfig,
) -> (ProgramHash, Vec<ProgramHash>) {
    let mut h = StableHasher::new();
    let mut states = Vec::with_capacity(program.body.len());
    hash_program(program, &mut h, |h| states.push(h.finish()));
    config.stable_hash(&mut h);
    (h.finish(), states)
}

#[cfg(test)]
mod tests {
    use commcsl_logic::spec::ResourceSpec;
    use commcsl_pure::{Sort, Term};

    use super::*;

    fn sample() -> AnnotatedProgram {
        AnnotatedProgram::new("sample")
            .with_resource(ResourceSpec::counter_add())
            .with_body([
                VStmt::input("a", Sort::Int, true),
                VStmt::Share { resource: 0, init: Term::int(0) },
                VStmt::Par {
                    workers: vec![
                        vec![VStmt::atomic(0, "Add", Term::var("a"))],
                        vec![VStmt::atomic(0, "Add", Term::int(2))],
                    ],
                },
                VStmt::Unshare { resource: 0, into: "c".into() },
                VStmt::Output(Term::var("c")),
            ])
    }

    #[test]
    fn hash_is_deterministic_and_hex_roundtrips() {
        let config = VerifierConfig::default();
        let h1 = program_hash(&sample(), &config);
        let h2 = program_hash(&sample(), &config);
        assert_eq!(h1, h2);
        let hex = h1.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex.parse::<ProgramHash>().unwrap(), h1);
    }

    #[test]
    fn hash_separates_programs_and_configs() {
        let config = VerifierConfig::default();
        let base = program_hash(&sample(), &config);

        // Change the program body.
        let mut renamed = sample();
        renamed.name = "other".into();
        assert_ne!(program_hash(&renamed, &config), base);

        let mut tweaked = sample();
        tweaked.body.pop();
        assert_ne!(program_hash(&tweaked, &config), base);

        // Change a low-ness flag only.
        let mut high = sample();
        high.body[0] = VStmt::input("a", Sort::Int, false);
        assert_ne!(program_hash(&high, &config), base);

        // Change a solver budget only.
        let mut deep = VerifierConfig::default();
        deep.solver.max_depth += 1;
        assert_ne!(program_hash(&sample(), &deep), base);
    }

    #[test]
    fn backend_and_diagnostic_knobs_address_the_verdict() {
        use commcsl_smt::BackendKind;

        let config = VerifierConfig::default();
        let base = program_hash(&sample(), &config);

        let fresh = VerifierConfig {
            backend: BackendKind::Fresh,
            ..Default::default()
        };
        assert_ne!(program_hash(&sample(), &fresh), base);

        let mut vfresh = VerifierConfig::default();
        vfresh.validity.backend = BackendKind::Fresh;
        assert_ne!(program_hash(&sample(), &vfresh), base);

        let nocex = VerifierConfig {
            counterexamples: false,
            ..Default::default()
        };
        assert_ne!(program_hash(&sample(), &nocex), base);

        // Spans address the verdict even though program equality ignores
        // them (reports embed the positions).
        let spanned = sample().with_span(vec![0], crate::diag::SourceSpan::new(1, 1));
        assert_eq!(spanned, sample(), "equality ignores spans");
        assert_ne!(program_hash(&spanned, &config), base, "hash does not");
    }

    #[test]
    fn length_prefixing_prevents_concatenation_ambiguity() {
        // ["ab"] vs ["a", "b"] as successive worker bodies.
        let p1 = AnnotatedProgram::new("p").with_body([VStmt::Par {
            workers: vec![
                vec![VStmt::assign("ab", Term::int(1))],
                vec![],
            ],
        }]);
        let p2 = AnnotatedProgram::new("p").with_body([VStmt::Par {
            workers: vec![
                vec![VStmt::assign("a", Term::int(1))],
                vec![VStmt::assign("b", Term::int(1))],
            ],
        }]);
        let config = VerifierConfig::default();
        assert_ne!(program_hash(&p1, &config), program_hash(&p2, &config));
    }

    #[test]
    fn fixture_like_values_hash_without_panics() {
        // Exercise every Value constructor through a literal-heavy term.
        use commcsl_pure::Value;
        let v = Value::map([
            (
                Value::pair(Value::Int(1), Value::str("k")),
                Value::seq([Value::left(Value::Unit), Value::right(Value::Bool(true))]),
            ),
            (
                Value::set([Value::Int(3)]),
                Value::multiset([Value::Int(1), Value::Int(1)]),
            ),
        ]);
        let p = AnnotatedProgram::new("vals").with_body([VStmt::Output(Term::Lit(v))]);
        let h = program_hash(&p, &VerifierConfig::default());
        assert_eq!(h, program_hash(&p, &VerifierConfig::default()));
    }
}
