//! Seeded input generator with known answers.
//!
//! Every input is `.csl` text plus its expected verdict. The text comes
//! either verbatim from the hand-labelled `examples/programs` (verify)
//! and `examples/rejected` (reject) directories, or from the templates
//! below — never from the verifier or the pretty-printer, so a change to
//! either cannot change what the benchmark feeds the program. A
//! template's verdict is part of the template: the shared-map families
//! verify by construction (low keys under a key-set abstraction), and
//! each leak mutant carries the diagnostic code its deliberate leak must
//! raise.
//!
//! The seed picks cosmetic and numeric variation (program tags, key
//! offsets, output constants) and every ordering; the *shape* of each
//! family is fixed, so different seeds cost the same to verify.

use std::fmt::Write as _;
use std::path::Path;

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so independent streams
    /// (corpus, schedule, per-thread) never share draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// A short lowercase hex tag.
    pub fn tag(&mut self) -> String {
        format!("{:06x}", self.next_u64() & 0xff_ffff)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The answer an input must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every obligation proved.
    Verified,
    /// Rejected; with a code, some failed obligation must carry it.
    Rejected(Option<&'static str>),
}

impl Expect {
    /// Whether a report with this verdict and these failed-obligation
    /// codes matches the expectation.
    pub fn matches<'a>(
        self,
        verified: bool,
        mut failed_codes: impl Iterator<Item = &'a str>,
    ) -> bool {
        match self {
            Expect::Verified => verified,
            Expect::Rejected(None) => !verified,
            Expect::Rejected(Some(code)) => !verified && failed_codes.any(|c| c == code),
        }
    }
}

/// Which family an input belongs to (drives sizing and reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A Table 1 program from `examples/programs`.
    Table1,
    /// A hand-labelled rejected program from `examples/rejected`.
    Rejected,
    /// A shared-map family with composite aggregate outputs.
    ScaleReport,
    /// A shared-map family with key-set cardinality outputs.
    ScaleAudit,
    /// A small program with one deliberate leak.
    Mutant,
}

/// One generated input: `.csl` text and its known answer.
#[derive(Debug, Clone)]
pub struct Input {
    /// Display name (unique within a corpus).
    pub name: String,
    /// The `.csl` source text.
    pub source: String,
    /// Expected verdict.
    pub expect: Expect,
    /// Family.
    pub family: Family,
}

/// Reads every `.csl` file of `dir`, sorted by file name.
fn read_dir_sorted(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "csl") {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            files.push((name, source));
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no .csl files in {}", dir.display()));
    }
    Ok(files)
}

/// The 18 Table 1 programs, labelled verified by their directory.
pub fn table1(root: &Path) -> Result<Vec<Input>, String> {
    Ok(read_dir_sorted(&root.join("examples/programs"))?
        .into_iter()
        .map(|(name, source)| Input {
            name,
            source,
            expect: Expect::Verified,
            family: Family::Table1,
        })
        .collect())
}

/// The hand-written rejected programs, labelled rejected by their
/// directory.
pub fn rejected(root: &Path) -> Result<Vec<Input>, String> {
    Ok(read_dir_sorted(&root.join("examples/rejected"))?
        .into_iter()
        .map(|(name, source)| Input {
            name,
            source,
            expect: Expect::Rejected(None),
            family: Family::Rejected,
        })
        .collect())
}

/// The key-set map resource shared by every template.
const MAP_RESOURCE: &str = "\
resource audit_map: Map[Int, Int] named \"audit-keyset-map\" {
    alpha(v) = dom(v);
    shared action Put(arg: Pair[Int, Int]) = put(v, fst(arg), snd(arg))
        requires fst(arg1) == fst(arg2);
}
";

/// The composite aggregate output `j` of a report family: a mean, a
/// tail sum and a modulus over the key set, all low because the domain
/// is.
fn report_goal(j: i64) -> String {
    format!(
        "mean(set_to_seq(dom(m))) * set_card(dom(m)) / {} + sum(tail(set_to_seq(dom(m)))) \
         + sum(set_to_seq(dom(m))) % (set_card(dom(m)) + {})",
        j + 1,
        j + 2
    )
}

/// The key-set cardinality output `j` of an audit family.
fn audit_goal(j: i64) -> String {
    format!("set_card(set_add(dom(m), {j}))")
}

/// One worker of a map family: a lockstep loop of `puts` `Put`s with
/// distinct low keys and high values.
fn map_worker(out: &mut String, lo: &str, hi: &str, keys: &[i64]) {
    let _ = writeln!(out, "    for i in {lo} .. {hi} {{");
    out.push_str("        input adr: Int low;\n        input rsn: Int high;\n");
    for k in keys {
        let _ = writeln!(
            out,
            "        with audit_map performing Put(pair(adr + {k}, rsn));"
        );
    }
    out.push_str("    }\n");
}

/// A shared-map family program: two workers of `puts` puts per
/// iteration, then `outputs` outputs over the key set. `report` picks
/// composite aggregates (solver-heavy) over plain cardinalities.
/// Verifies by construction.
pub fn map_family(rng: &mut Rng, report: bool, puts: usize, outputs: usize) -> Input {
    let flavor = if report { "report" } else { "audit" };
    let name = format!("scale-map-{flavor}-{puts}x{outputs}-{}", rng.tag());
    let base = rng.range(1, 900);
    let stride = rng.range(1, 3);
    let keys: Vec<i64> = (0..puts as i64).map(|j| base + j * stride).collect();
    let offset = rng.range(0, 50);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// Shared-map {flavor} family, {puts} puts x {outputs} outputs."
    );
    let _ = writeln!(s, "\nprogram \"{name}\";\n");
    s.push_str(MAP_RESOURCE);
    s.push_str("\ninput n: Int low;\nshare audit_map = empty_map;\npar {\n");
    map_worker(&mut s, "0", "n / 2", &keys);
    s.push_str("} || {\n");
    map_worker(&mut s, "n / 2", "n", &keys);
    s.push_str("}\nunshare audit_map into m;\n");
    for j in 0..outputs as i64 {
        let goal = if report {
            report_goal(offset + j)
        } else {
            audit_goal(offset + j)
        };
        let _ = writeln!(s, "output {goal};");
    }
    Input {
        name,
        source: s,
        expect: Expect::Verified,
        family: if report {
            Family::ScaleReport
        } else {
            Family::ScaleAudit
        },
    }
}

/// The deliberate leaks a mutant can carry, with the diagnostic code
/// each must raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leak {
    /// `output` of a `high` input.
    HighOutput,
    /// `output` of a map *value* (the key-set abstraction hides values).
    MapValue,
    /// An action performed under a `high` branch condition.
    HighBranch,
}

impl Leak {
    /// Every leak kind.
    pub const ALL: [Leak; 3] = [Leak::HighOutput, Leak::MapValue, Leak::HighBranch];

    /// The diagnostic code the leak must raise.
    pub fn code(self) -> &'static str {
        match self {
            Leak::HighOutput | Leak::MapValue => "low-output",
            Leak::HighBranch => "low-branch",
        }
    }

    fn slug(self) -> &'static str {
        match self {
            Leak::HighOutput => "high-output",
            Leak::MapValue => "map-value",
            Leak::HighBranch => "high-branch",
        }
    }
}

/// A small shared-map program with one deliberate leak.
pub fn leak_mutant(rng: &mut Rng, leak: Leak) -> Input {
    let name = format!("leak-{}-{}", leak.slug(), rng.tag());
    let key = rng.range(1, 900);
    let c = rng.range(1, 99);
    let mut s = String::new();
    let _ = writeln!(s, "// Leak mutant: {}.", leak.slug());
    let _ = writeln!(s, "\nprogram \"{name}\";\n");
    s.push_str(MAP_RESOURCE);
    s.push_str("\ninput n: Int low;\nshare audit_map = empty_map;\npar {\n");
    map_worker(&mut s, "0", "n / 2", &[key]);
    s.push_str("} || {\n");
    if leak == Leak::HighBranch {
        s.push_str("    for i in n / 2 .. n {\n");
        s.push_str("        input adr: Int low;\n        input rsn: Int high;\n");
        let _ = writeln!(s, "        if (rsn <= {c}) {{");
        let _ = writeln!(
            s,
            "            with audit_map performing Put(pair(adr + {key}, rsn));"
        );
        s.push_str("        }\n    }\n");
    } else {
        map_worker(&mut s, "n / 2", "n", &[key]);
    }
    s.push_str("}\nunshare audit_map into m;\n");
    let _ = writeln!(s, "output set_card(dom(m)) + {c};");
    match leak {
        Leak::HighOutput => {
            s.push_str("input secret: Int high;\n");
            let _ = writeln!(s, "output secret + {c};");
        }
        Leak::MapValue => {
            let _ = writeln!(s, "output get_or(m, {key}, 0);");
        }
        Leak::HighBranch => {}
    }
    Input {
        name,
        source: s,
        expect: Expect::Rejected(Some(leak.code())),
        family: Family::Mutant,
    }
}

/// An editor edit, applied to a document's base text. Edits never
/// accumulate: each one is the base text plus one change, so a document
/// keeps its size over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// A trailing comment: the same program (a program-tier hit).
    Comment,
    /// `n` comment lines inserted at the top: spans shift, every
    /// obligation's cone is unchanged.
    TopInsert,
    /// The final `output e;` becomes `output pair(e, n);`: one new
    /// obligation.
    OutputChange,
    /// One mid-body `Put` key changes: the cone of obligations that
    /// depend on the shared map is re-checked.
    ActionArg,
    /// A leak: the output of a fresh `high` input.
    Leak,
    /// Back to the base text.
    Revert,
}

impl Edit {
    /// The op class name.
    pub fn class(self) -> &'static str {
        match self {
            Edit::Comment => "comment",
            Edit::TopInsert => "top-insert",
            Edit::OutputChange => "output-change",
            Edit::ActionArg => "action-arg",
            Edit::Leak => "leak",
            Edit::Revert => "revert",
        }
    }

    /// The answer the edited document must produce, given the base
    /// document's.
    pub fn expect(self, base: Expect) -> Expect {
        match self {
            Edit::Leak => Expect::Rejected(Some("low-output")),
            _ => base,
        }
    }
}

/// Applies `edit` with the unique number `n` to `base`; `None` when the
/// edit does not apply (no top-level final output, no `Put` line).
pub fn apply_edit(base: &str, edit: Edit, n: u64) -> Option<String> {
    match edit {
        Edit::Comment => Some(format!("{base}// edit {n}\n")),
        Edit::TopInsert => Some(format!("{}{base}", "//\n".repeat(n as usize))),
        Edit::OutputChange => {
            let at = base.rfind("\noutput ")? + 1;
            let end = at + base[at..].find(";\n")?;
            let expr = &base[at + "output ".len()..end];
            Some(format!(
                "{}output pair({expr}, {n}){}",
                &base[..at],
                &base[end..]
            ))
        }
        Edit::ActionArg => {
            let puts: Vec<usize> = base
                .match_indices("Put(pair(adr + ")
                .map(|(i, _)| i)
                .collect();
            let at = puts.get(n as usize % puts.len().max(1))? + "Put(pair(adr + ".len();
            let end = at + base[at..].find(',')?;
            Some(format!("{}{}{}", &base[..at], 5000 + n, &base[end..]))
        }
        Edit::Leak => Some(format!(
            "{base}input leak_{n}: Int high;\noutput leak_{n};\n"
        )),
        Edit::Revert => Some(base.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(seed: u64) -> Vec<Input> {
        let mut rng = Rng::new(seed, "test");
        let mut out = vec![
            map_family(&mut rng, true, 6, 24),
            map_family(&mut rng, false, 12, 12),
        ];
        out.extend(Leak::ALL.map(|leak| leak_mutant(&mut rng, leak)));
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = corpus(7);
        let b = corpus(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.source.as_bytes(), y.source.as_bytes());
            assert_eq!(x.expect, y.expect);
        }
        let c = corpus(8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source));
    }

    #[test]
    fn edits_compile_and_carry_their_answers() {
        let mut rng = Rng::new(5, "edits");
        let base = map_family(&mut rng, true, 6, 24);
        let all = [
            Edit::Comment,
            Edit::TopInsert,
            Edit::OutputChange,
            Edit::ActionArg,
            Edit::Leak,
            Edit::Revert,
        ];
        for (n, edit) in all.into_iter().enumerate() {
            let source = apply_edit(&base.source, edit, n as u64 + 1).expect("edit applies");
            assert_ne!(edit == Edit::Revert, source != base.source, "{edit:?}");
            let program =
                commcsl_front::compile(&source).unwrap_or_else(|e| panic!("{edit:?}: {e}"));
            let report = commcsl_verifier::verify(&program, &Default::default());
            let codes: Vec<&str> = report.failures().map(|o| o.code.as_str()).collect();
            assert!(
                edit.expect(base.expect)
                    .matches(report.verified(), codes.iter().copied()),
                "{edit:?}: verified={} codes={codes:?}\n{source}",
                report.verified()
            );
        }
        assert_eq!(apply_edit("program p;\n", Edit::ActionArg, 1), None);
    }

    #[test]
    fn templates_compile_and_carry_their_answers() {
        for input in corpus(3) {
            let program = commcsl_front::compile(&input.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", input.name, input.source));
            let report = commcsl_verifier::verify(&program, &Default::default());
            let codes: Vec<&str> = report.failures().map(|o| o.code.as_str()).collect();
            assert!(
                input
                    .expect
                    .matches(report.verified(), codes.iter().copied()),
                "{}: expected {:?}, got verified={} codes={codes:?}",
                input.name,
                input.expect,
                report.verified()
            );
        }
    }
}
