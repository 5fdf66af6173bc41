//! Seeded mutations of every `.csl` file under `examples/`: byte
//! deletions, insertions and substitutions (multi-byte characters and
//! split UTF-8 sequences included), and texts cut off inside a string
//! literal or a `//` comment. `compile` must never panic, every error
//! must point inside the input at the `line:column` its byte offset
//! spells (columns counting characters), and a mutant that compiles must
//! survive `compile(pretty(p)) == p`.

use std::path::Path;

use commcsl_front::{compile, pretty::pretty};
use commcsl_lang::span::ParseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutants per corpus file.
const MUTANTS: usize = 70;

/// Text that insertions and substitutions splice in: multi-byte letters,
/// digits and spaces, punctuation that opens a string, comment or block,
/// and out-of-range or keyword tokens.
const SNIPPETS: &[&str] = &[
    "é", "αβ", "x٣", "٣", "\u{a0}", "\u{3000}", "😀", "\"", "\"é", "//", "// ü\n", "\\", "\n",
    "\t", "\r", "{", "}", "(", ")", ";", ":=", "..", "||", "&&", "-", "0", "@", "=",
    "99999999999999999999", "x", "program", "output", "v",
];

fn corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files = Vec::new();
    for dir in ["programs", "rejected"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("examples directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "csl") {
                let text = std::fs::read_to_string(&path).expect("corpus file");
                files.push((path.display().to_string(), text));
            }
        }
    }
    files.sort();
    assert!(files.len() >= 23, "both corpora are present");
    files
}

/// A random byte position in `from..=to`.
fn pick(rng: &mut StdRng, from: usize, to: usize) -> usize {
    rng.gen_range(from..to + 1)
}

/// The start of a random occurrence of `needle` in `bytes`.
fn occurrence(rng: &mut StdRng, bytes: &[u8], needle: &[u8]) -> Option<usize> {
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i..].starts_with(needle))
        .collect();
    (!starts.is_empty()).then(|| starts[rng.gen_range(0..starts.len())])
}

/// One to three edits of `text`'s bytes, which may split a UTF-8
/// sequence: the result is read back lossily, so a split character
/// becomes U+FFFD.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let snippet = SNIPPETS[rng.gen_range(0..SNIPPETS.len())].as_bytes();
        let at = pick(rng, 0, bytes.len());
        match rng.gen_range(0..6) {
            0 => {
                let end = (at + rng.gen_range(1..4usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            1 => {
                bytes.splice(at..at, snippet.iter().copied());
            }
            2 => {
                let end = (at + 1).min(bytes.len());
                bytes.splice(at..end, snippet.iter().copied());
            }
            // Cut the text off just after an opening quote or a `//`.
            3 => {
                if let Some(quote) = occurrence(rng, &bytes, b"\"") {
                    bytes.truncate(pick(rng, quote + 1, bytes.len().min(quote + 4)));
                }
            }
            4 => {
                if let Some(comment) = occurrence(rng, &bytes, b"//") {
                    bytes.truncate(pick(rng, comment + 2, bytes.len().min(comment + 6)));
                }
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `e` points inside `src`, at the line and character column its byte
/// offset spells.
fn assert_position_inside(src: &str, e: &ParseError) {
    let offset = e.pos.offset;
    assert!(
        offset <= src.len() && src.is_char_boundary(offset),
        "{e} at byte {offset} of {} bytes\n--- source ---\n{src}",
        src.len()
    );
    let before = &src[..offset];
    let line = before.matches('\n').count() + 1;
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let col = before[line_start..].chars().count() + 1;
    assert_eq!(
        (e.pos.line as usize, e.pos.col as usize),
        (line, col),
        "{e} at byte {offset}\n--- source ---\n{src}"
    );
}

#[test]
fn mutated_corpus_never_panics_and_errors_point_inside_the_input() {
    let mut rng = StdRng::seed_from_u64(0x00c5_1ea7);
    let (mut rejected, mut compiled) = (0, 0);
    for (name, text) in corpus() {
        for _ in 0..MUTANTS {
            let src = mutate(&mut rng, &text);
            let outcome = std::panic::catch_unwind(|| compile(&src));
            let Ok(result) = outcome else {
                panic!("{name}: compile panicked\n--- source ---\n{src}");
            };
            match result {
                Err(e) => {
                    rejected += 1;
                    assert_position_inside(&src, &e);
                }
                Ok(program) => {
                    compiled += 1;
                    let printed = pretty(&program);
                    let reparsed = compile(&printed)
                        .unwrap_or_else(|e| panic!("{name}: {e}\n--- printed ---\n{printed}"));
                    assert_eq!(reparsed, program, "{name}\n--- source ---\n{src}");
                }
            }
        }
    }
    // Both outcomes occur, so both halves of the test run.
    assert!(rejected > 1000 && compiled > 50, "{rejected} rejected, {compiled} compiled");
}
