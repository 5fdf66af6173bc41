//! The evaluation corpus of the CommCSL paper: the 18 rows of Table 1
//! and the 5 known-insecure variants the verifier must reject.
//!
//! The committed `.csl` files under `examples/programs/` and
//! `examples/rejected/` are the only definition of these programs: each
//! is embedded here with `include_str!` next to its Table 1 metadata
//! (row name, data structure, abstraction) and compiled with [`compile`]
//! on every call. [`all`] returns the rows in the paper's order;
//! [`rejected`] returns the negative controls (Fig. 1's assignments with
//! the value leaked, the Fig. 3 map leaking a value, the literal-mean
//! abstraction, a unique action used twice, a high input under unrelated
//! low guards).
//!
//! Nine rows, and the Fig. 1 variant, also come with an executable
//! `commcsl-lang` program for the *empirical* non-interference harness
//! ([`NiSetup`]). These paraphrase the annotated program and have no
//! `.csl` form. Each spins on the secret before its shared-data
//! operation: the internal-timing adversary of Fig. 1, so the schedule
//! at the shared data structure depends on high data, and only
//! commutativity (modulo abstraction) keeps the low outputs stable.

use commcsl_lang::ast::Cmd;
use commcsl_lang::parser::parse_program;
use commcsl_pure::{Symbol, Value};
use commcsl_verifier::program::AnnotatedProgram;

use crate::compile;

/// Inputs for the empirical non-interference check of a fixture.
#[derive(Debug, Clone)]
pub struct NiSetup {
    /// The executable program.
    pub program: Cmd,
    /// Low inputs (identical in all runs).
    pub low_inputs: Vec<(Symbol, Value)>,
    /// High input assignments (pairwise compared).
    pub high_inputs: Vec<Vec<(Symbol, Value)>>,
    /// Low output variables (the output log is always observed).
    pub low_outputs: Vec<Symbol>,
}

/// One evaluation example (a row of Table 1).
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Row name as in Table 1.
    pub name: &'static str,
    /// "Data structure" column.
    pub data_structure: &'static str,
    /// "Abstraction" column.
    pub abstraction: &'static str,
    /// The annotated program, compiled from its `.csl` file.
    pub program: AnnotatedProgram,
    /// Optional executable setup for the empirical harness.
    pub ni: Option<NiSetup>,
}

/// A corpus file: its path under `examples/` and its text.
type Source = (&'static str, &'static str);

/// Embeds `examples/<path>`.
macro_rules! corpus_file {
    ($path:literal) => {
        ($path, include_str!(concat!("../../../examples/", $path)))
    };
}

/// A Table 1 row as stored: metadata, source, and the executable's text.
struct Row {
    name: &'static str,
    data_structure: &'static str,
    abstraction: &'static str,
    source: Source,
    executable: Option<&'static str>,
}

/// The 18 rows, in Table 1 order (which is file order).
const ROWS: [Row; 18] = [
    Row {
        name: "Count-Vaccinated",
        data_structure: "Counter, increment",
        abstraction: "None",
        source: corpus_file!("programs/01_count_vaccinated.csl"),
        executable: None,
    },
    // The executable's spin models a look-up whose time depends on high
    // data (hash collisions).
    Row {
        name: "Figure 2",
        data_structure: "Integer, add",
        abstraction: "None",
        source: corpus_file!("programs/02_figure2_target_size.csl"),
        executable: Some(
            "par { t1 := 0; while (t1 < h) { t1 := t1 + 1 };
                   atomic { c := c + 1 }; atomic { c := c + 2 } }
                 { atomic { c := c + 3 }; atomic { c := c + 4 } };
             output(c)",
        ),
    },
    Row {
        name: "Count-Sick-Days",
        data_structure: "Integer, add",
        abstraction: "None",
        source: corpus_file!("programs/03_count_sick_days.csl"),
        executable: None,
    },
    // The racy assignments are fine because `s` is never output.
    Row {
        name: "Figure 1",
        data_structure: "Integer, arbitrary",
        abstraction: "Constant",
        source: corpus_file!("programs/04_figure1_constant.csl"),
        executable: Some(
            "par { t1 := 0; while (t1 < 20) { t1 := t1 + 1 }; atomic { s := 3 } }
                 { t2 := 0; while (t2 < h) { t2 := t2 + 1 }; atomic { s := 4 } };
             output(0)",
        ),
    },
    Row {
        name: "Mean-Salary",
        data_structure: "List, append",
        abstraction: "Mean",
        source: corpus_file!("programs/05_mean_salary.csl"),
        executable: Some(
            "l := empty_seq;
             par { t1 := 0; while (t1 < h) { t1 := t1 + 1 }; atomic { l := append(l, 10) } }
                 { atomic { l := append(l, 20) } };
             output(mean(l))",
        ),
    },
    Row {
        name: "Email-Metadata",
        data_structure: "List, append",
        abstraction: "Multiset",
        source: corpus_file!("programs/06_email_metadata.csl"),
        executable: Some(
            "l := empty_seq;
             par { t1 := 0; while (t1 < h) { t1 := t1 + 1 }; atomic { l := append(l, 10) } }
                 { atomic { l := append(l, 20) } };
             output(sorted(l))",
        ),
    },
    Row {
        name: "Patient-Statistic",
        data_structure: "List, append",
        abstraction: "Length",
        source: corpus_file!("programs/07_patient_statistic.csl"),
        executable: Some(
            "l := empty_seq;
             par { t1 := 0; while (t1 < h) { t1 := t1 + 1 }; atomic { l := append(l, h) } }
                 { atomic { l := append(l, 7) } };
             output(len(l))",
        ),
    },
    Row {
        name: "Debt-Sum",
        data_structure: "List, append",
        abstraction: "Sum",
        source: corpus_file!("programs/08_debt_sum.csl"),
        executable: None,
    },
    Row {
        name: "Sick-Employee-Names",
        data_structure: "Treeset, add",
        abstraction: "None",
        source: corpus_file!("programs/09_sick_employee_names.csl"),
        executable: None,
    },
    Row {
        name: "Website-Visitor-IPs",
        data_structure: "Listset, add",
        abstraction: "None",
        source: corpus_file!("programs/10_website_visitor_ips.csl"),
        executable: Some(
            "s := empty_set;
             par { t1 := 0; while (t1 < h) { t1 := t1 + 1 }; atomic { s := set_add(s, 8) } }
                 { atomic { s := set_add(s, 9) } };
             output(sorted(set_to_seq(s)))",
        ),
    },
    Row {
        name: "Figure 3",
        data_structure: "HashMap, put",
        abstraction: "Key set",
        source: corpus_file!("programs/11_figure3_map_keyset.csl"),
        executable: Some(
            "m := empty_map;
             par { t1 := 0; while (t1 < h) { t1 := t1 + 1 }; atomic { m := put(m, 1, h) } }
                 { atomic { m := put(m, 2, 5) } };
             output(sorted(set_to_seq(dom(m))))",
        ),
    },
    Row {
        name: "Sales-By-Region",
        data_structure: "HashMap, disjoint put",
        abstraction: "None",
        source: corpus_file!("programs/12_sales_by_region.csl"),
        executable: None,
    },
    Row {
        name: "Salary-Histogram",
        data_structure: "HashMap, increment value",
        abstraction: "None",
        source: corpus_file!("programs/13_salary_histogram.csl"),
        executable: Some(
            "m := empty_map;
             par { t1 := 0; while (t1 < h) { t1 := t1 + 1 };
                   atomic { m := put(m, 3, get_or(m, 3, 0) + 1) } }
                 { atomic { m := put(m, 3, get_or(m, 3, 0) + 1) } };
             output(get_or(m, 3, 0))",
        ),
    },
    Row {
        name: "Count-Purchases",
        data_structure: "HashMap, add value",
        abstraction: "None",
        source: corpus_file!("programs/14_count_purchases.csl"),
        executable: None,
    },
    Row {
        name: "Most-Valuable-Purchase",
        data_structure: "HashMap, conditional put",
        abstraction: "None",
        source: corpus_file!("programs/15_most_valuable_purchase.csl"),
        executable: Some(
            "m := empty_map;
             par { t1 := 0; while (t1 < h) { t1 := t1 + 1 };
                   atomic { m := put(m, 1, max(get_or(m, 1, 0), 10)) } }
                 { atomic { m := put(m, 1, max(get_or(m, 1, 0), 30)) } };
             output(get_or(m, 1, 0))",
        ),
    },
    Row {
        name: "1-Producer-1-Consumer",
        data_structure: "Queue",
        abstraction: "Consumed sequence",
        source: corpus_file!("programs/16_producer_consumer_1x1.csl"),
        executable: None,
    },
    Row {
        name: "Pipeline",
        data_structure: "Two queues",
        abstraction: "Consumed sequences",
        source: corpus_file!("programs/17_pipeline.csl"),
        executable: None,
    },
    Row {
        name: "2-Producers-2-Consumers",
        data_structure: "Queue",
        abstraction: "Produced multiset",
        source: corpus_file!("programs/18_producers_consumers_2x2.csl"),
        executable: None,
    },
];

/// The known-insecure variants, by name, in file order.
const REJECTED: [(&str, Source); 5] = [
    (
        "figure1-assignments",
        corpus_file!("rejected/figure1_assignments.csl"),
    ),
    (
        "figure3-value-leak",
        corpus_file!("rejected/figure3_value_leak.csl"),
    ),
    ("literal-mean", corpus_file!("rejected/literal_mean.csl")),
    (
        "unique-guard-violation",
        corpus_file!("rejected/unique_guard_violation.csl"),
    ),
    (
        "unused-low-leak",
        corpus_file!("rejected/unused_low_leak.csl"),
    ),
];

fn compile_source((path, text): Source) -> AnnotatedProgram {
    compile(text).unwrap_or_else(|e| panic!("examples/{path}: {e}"))
}

/// An executable run with `h` set to 0 and to `high`.
fn ni_setup(source: &str, high: i64) -> NiSetup {
    let h = |v| vec![(Symbol::new("h"), Value::Int(v))];
    NiSetup {
        program: parse_program(source).unwrap_or_else(|e| panic!("{e}:\n{source}")),
        low_inputs: vec![],
        high_inputs: vec![h(0), h(high)],
        low_outputs: vec![],
    }
}

/// All 18 fixtures, in Table 1 order.
pub fn all() -> Vec<Fixture> {
    ROWS.iter()
        .map(|row| Fixture {
            name: row.name,
            data_structure: row.data_structure,
            abstraction: row.abstraction,
            program: compile_source(row.source),
            ni: row.executable.map(|source| ni_setup(source, 40)),
        })
        .collect()
}

/// The known-insecure variants with their names, in file order.
pub fn rejected() -> Vec<(&'static str, AnnotatedProgram)> {
    REJECTED
        .iter()
        .map(|&(name, source)| (name, compile_source(source)))
        .collect()
}

/// The executable Fig. 1 with the value printed (`figure1-assignments`):
/// it exhibits the internal timing channel under the scheduler battery.
pub fn figure1_assignments_executable() -> NiSetup {
    ni_setup(
        "par { t1 := 0; while (t1 < 20) { t1 := t1 + 1 }; atomic { s := 3 } }
             { t2 := 0; while (t2 < h) { t2 := t2 + 1 }; atomic { s := 4 } };
         output(s)",
        200,
    )
}

/// Looks up a fixture by Table 1 row name (`"Figure 3"`) or by annotated
/// program name (`"figure3-map-keyset"`) — the latter is what frontend
/// tooling sees after parsing a `.csl` file. Program names are unique
/// across the suite (pinned by a test here).
pub fn find(name: &str) -> Option<Fixture> {
    all()
        .into_iter()
        .find(|f| f.name == name || f.program.name == name)
}

/// For a name [`find`] does not know, the closest known name (row or
/// program name, case-insensitively) — the "did you mean …?" candidate
/// for CLI error paths. `None` when nothing is plausibly close (edit
/// distance more than half the query length).
pub fn suggest(name: &str) -> Option<String> {
    let query = name.to_lowercase();
    let mut best: Option<(usize, String)> = None;
    for f in all() {
        for candidate in [f.name.to_owned(), f.program.name] {
            let d = edit_distance(&query, &candidate.to_lowercase());
            if best.as_ref().is_none_or(|(b, _)| d < *b) {
                best = Some((d, candidate));
            }
        }
    }
    let (distance, candidate) = best?;
    (distance <= name.chars().count().div_ceil(2)).then_some(candidate)
}

/// Levenshtein distance over characters (two-row dynamic program).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row[j + 1] = subst.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    use super::*;

    /// The `.csl` files under `examples/<dir>`, as `<dir>/<file>` paths.
    fn files_on_disk(dir: &str) -> Vec<String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples")
            .join(dir);
        let mut files: Vec<String> = std::fs::read_dir(&root)
            .unwrap_or_else(|e| panic!("{}: {e}", root.display()))
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".csl"))
            .map(|name| format!("{dir}/{name}"))
            .collect();
        files.sort();
        files
    }

    /// A new, renamed or deleted corpus file must fail here: the
    /// embedded tables name every `.csl` file exactly once.
    #[test]
    fn tables_name_every_corpus_file_exactly_once() {
        let embedded: Vec<&str> = ROWS.iter().map(|row| row.source.0).collect();
        assert_eq!(embedded, files_on_disk("programs"));
        let embedded: Vec<&str> = REJECTED.iter().map(|(_, source)| source.0).collect();
        assert_eq!(embedded, files_on_disk("rejected"));
    }

    #[test]
    fn rows_come_in_file_order_with_matching_headers() {
        for (i, row) in ROWS.iter().enumerate() {
            let (path, text) = row.source;
            let prefix = format!("programs/{:02}_", i + 1);
            assert!(path.starts_with(&prefix), "{path} is row {}", i + 1);
            // Line 1 of each file restates the row's metadata.
            let header = format!(
                "// Table 1, row {}: {} — data structure: {}; abstraction: {}.",
                i + 1,
                row.name,
                row.data_structure,
                row.abstraction
            );
            assert_eq!(text.lines().next(), Some(header.as_str()), "{path}");
        }
    }

    #[test]
    fn all_eighteen_rows_present_in_order() {
        let names: Vec<&str> = all().iter().map(|f| f.name).collect();
        assert_eq!(
            names,
            vec![
                "Count-Vaccinated",
                "Figure 2",
                "Count-Sick-Days",
                "Figure 1",
                "Mean-Salary",
                "Email-Metadata",
                "Patient-Statistic",
                "Debt-Sum",
                "Sick-Employee-Names",
                "Website-Visitor-IPs",
                "Figure 3",
                "Sales-By-Region",
                "Salary-Histogram",
                "Count-Purchases",
                "Most-Valuable-Purchase",
                "1-Producer-1-Consumer",
                "Pipeline",
                "2-Producers-2-Consumers",
            ]
        );
        let executables = all().iter().filter(|f| f.ni.is_some()).count();
        assert_eq!(executables, 9);
    }

    #[test]
    fn program_names_are_unique_and_findable() {
        let fixtures = all();
        let rejected = rejected();
        let names: BTreeSet<&str> = fixtures
            .iter()
            .map(|f| f.program.name.as_str())
            .chain(rejected.iter().map(|(_, p)| p.name.as_str()))
            .collect();
        assert_eq!(
            names.len(),
            fixtures.len() + rejected.len(),
            "program names must be unique"
        );
        for f in &fixtures {
            assert_eq!(find(f.name).unwrap().name, f.name);
            assert_eq!(find(&f.program.name).unwrap().name, f.name);
            assert!(
                !f.program.spans.is_empty(),
                "{}: compiled with spans",
                f.name
            );
        }
        assert!(find("no-such-example").is_none());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("figure3", "figure2"), 1);
    }

    #[test]
    fn suggestions_catch_typos_but_not_noise() {
        // Typos in row names and program names both resolve.
        assert_eq!(suggest("Figure 33").as_deref(), Some("Figure 3"));
        assert_eq!(suggest("figure 2").as_deref(), Some("Figure 2"));
        assert_eq!(suggest("mean-salery").as_deref(), Some("Mean-Salary"));
        assert_eq!(suggest("pipelin").as_deref(), Some("Pipeline"));
        // Exact names suggest themselves (callers only consult `suggest`
        // after `find` failed, so this is harmless).
        assert_eq!(suggest("Pipeline").as_deref(), Some("Pipeline"));
        // Garbage is not "corrected".
        assert_eq!(suggest("zzzzzzzzzzzzzzzzzzzzzz"), None);
    }
}
