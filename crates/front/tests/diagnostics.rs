//! Negative tests for frontend diagnostics: every error carries the
//! `line:column` of the offending construct in a realistic multi-line
//! program, not a byte offset into a flattened string.

use commcsl_front::compile;

const HEADER: &str = "\
program \"diagnostics-demo\";

resource reg: Map[Int, Int] named \"MK-keyset-map\" {
    alpha(v) = dom(v);
    shared action Put(arg: Pair[Int, Int]) = put(v, fst(arg), snd(arg))
        requires fst(arg1) == fst(arg2);
}
";

fn err_at(src: &str) -> (u32, u32, String) {
    let e = compile(src).expect_err("program must be rejected");
    (e.pos.line, e.pos.col, e.message)
}

#[test]
fn unknown_resource_in_share_with_unshare() {
    let (line, col, msg) = err_at(&format!("{HEADER}share registry = empty_map;\n"));
    assert_eq!((line, col), (8, 7));
    assert!(msg.contains("unknown resource `registry`"));

    let src = format!(
        "{HEADER}share reg = empty_map;\nwith regg performing Put(pair(1, 2));\n"
    );
    let (line, col, msg) = err_at(&src);
    assert_eq!((line, col), (9, 6));
    assert!(msg.contains("unknown resource `regg`"));

    let src = format!("{HEADER}share reg = empty_map;\nunshare r into m;\n");
    let (line, col, msg) = err_at(&src);
    assert_eq!((line, col), (9, 9));
    assert!(msg.contains("unknown resource `r`"));
}

#[test]
fn bad_action_arity_points_at_argument_list() {
    let src = format!(
        "{HEADER}share reg = empty_map;\nwith reg performing Put(1, 2);\n"
    );
    let (line, col, msg) = err_at(&src);
    assert_eq!((line, col), (9, 24));
    assert!(msg.contains("takes at most one argument, got 2"));
}

#[test]
fn unknown_action_points_at_action_name() {
    let src = format!(
        "{HEADER}share reg = empty_map;\nwith reg performing Get(1);\n"
    );
    let (line, col, msg) = err_at(&src);
    assert_eq!((line, col), (9, 21));
    assert!(msg.contains("has no action `Get`"));
    assert!(msg.contains("available: Put"));
}

#[test]
fn ill_sorted_precondition_points_at_requires_clause() {
    let src = "\
program p;

resource ctr: Int {
    alpha(v) = v;
    shared action Add(arg: Int) = v + arg
        requires arg1 + arg2;
}
";
    let (line, col, msg) = err_at(src);
    assert_eq!((line, col), (6, 18));
    assert!(msg.contains("ill-sorted `requires` clause"));
    assert!(msg.contains("expected Bool, found Int"));
}

#[test]
fn ill_sorted_share_initializer() {
    let src = format!("{HEADER}share reg = 7;\n");
    let (line, col, msg) = err_at(&src);
    assert_eq!((line, col), (8, 13));
    assert!(msg.contains("initial value has sort Int"));
    assert!(msg.contains("holds Map[Int, Int]"));
}

#[test]
fn syntax_errors_point_into_later_lines() {
    let src = format!("{HEADER}share reg = empty_map;\noutput dom(;\n");
    let (line, col, _) = err_at(&src);
    assert_eq!((line, col), (9, 12));
}

#[test]
fn columns_count_characters_after_multibyte_identifiers_strings_and_comments() {
    // `ö`, `ß` and `π` take two bytes each, `—` three; columns count
    // characters.
    let (line, col, msg) = err_at("program p;\ninput größe: Int low;\nπ := größe +;\n");
    assert_eq!((line, col), (3, 13));
    assert!(msg.contains("expected an expression, found `;`"));

    let (line, col, msg) = err_at("program p;\nαβ := 1 @ 2;\n");
    assert_eq!((line, col), (2, 9));
    assert_eq!(msg, "unexpected character '@'");

    // After a string literal on the same line, and after one that spans
    // a line break.
    let (line, col, msg) = err_at("program \"naïve—demo\" x;\n");
    assert_eq!((line, col), (1, 22));
    assert_eq!(msg, "expected `;`, found `x`");
    let (line, col, _) = err_at("program \"a\nβγ\" x;\n");
    assert_eq!((line, col), (2, 5));

    // An escape error inside a string points at its backslash.
    let (line, col, msg) = err_at("program \"ü\\q\";\n");
    assert_eq!((line, col), (1, 11));
    assert_eq!(msg, "unknown escape sequence `\\q`");

    // After a `//` comment: the next line starts at column 1, and the end
    // of input after a trailing comment sits past its last character.
    let (line, col, _) = err_at("program p; // ünïcödé ✓\noutput 1 +;\n");
    assert_eq!((line, col), (2, 11));
    let (line, col, msg) = err_at("program p;\noutput 1 // ünï");
    assert_eq!((line, col), (2, 16));
    assert_eq!(msg, "expected `;`, found end of input");
}
