//! Source positions, spans, and the shared lexer.
//!
//! Both surface parsers of the workspace — the plain-program parser in
//! [`crate::parser`] and the annotated-program parser in `commcsl-front` —
//! report diagnostics in `line:column` form and tokenize the same lexical
//! classes (identifiers, integer and string literals, punctuation,
//! `//`-comments). This module holds the machinery they share: [`Pos`]
//! positions, the [`ParseError`] type, and a [`Lexer`] parameterized by
//! the punctuation of the language at hand.

use std::borrow::Cow;
use std::fmt;

/// A position in a source text: 1-based line and column, plus the byte
/// offset (columns count characters, not bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in characters).
    pub col: u32,
    /// Byte offset into the input.
    pub offset: usize,
}

impl Pos {
    /// The start of any input.
    pub fn start() -> Pos {
        Pos { line: 1, col: 1, offset: 0 }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parse (or lowering) error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the problem was detected.
    pub pos: Pos,
    /// Description of the problem.
    pub message: String,
}

impl ParseError {
    /// Creates an error at a position.
    pub fn new(pos: Pos, message: impl Into<String>) -> Self {
        ParseError { pos, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Declares [`Sym`] with each symbol's source text.
macro_rules! symbols {
    ($($sym:ident = $text:literal,)*) => {
        /// A punctuation symbol. Each language admits a subset (the table it
        /// hands to [`Lexer::new`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Sym {
            $(
                #[doc = concat!("`", $text, "`")]
                $sym,
            )*
        }

        impl Sym {
            /// The symbol's source text.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Sym::$sym => $text,)*
                }
            }
        }
    };
}

symbols! {
    Assign = ":=",
    EqEq = "==",
    NotEq = "!=",
    Le = "<=",
    Ge = ">=",
    AndAnd = "&&",
    OrOr = "||",
    DotDot = "..",
    LParen = "(",
    RParen = ")",
    LBracket = "[",
    RBracket = "]",
    LBrace = "{",
    RBrace = "}",
    Comma = ",",
    Semi = ";",
    Colon = ":",
    Plus = "+",
    Minus = "-",
    Star = "*",
    Slash = "/",
    Percent = "%",
    Lt = "<",
    Gt = ">",
    Bang = "!",
    Eq = "=",
    Question = "?",
    Dot = ".",
}

impl Sym {
    /// The symbols that can start with byte `first`: the two-byte one
    /// when `second` completes it, and the one-byte one.
    fn candidates(first: u8, second: Option<u8>) -> (Option<Sym>, Option<Sym>) {
        let pair = |next: u8, long: Sym| (second == Some(next)).then_some(long);
        match first {
            b':' => (pair(b'=', Sym::Assign), Some(Sym::Colon)),
            b'=' => (pair(b'=', Sym::EqEq), Some(Sym::Eq)),
            b'!' => (pair(b'=', Sym::NotEq), Some(Sym::Bang)),
            b'<' => (pair(b'=', Sym::Le), Some(Sym::Lt)),
            b'>' => (pair(b'=', Sym::Ge), Some(Sym::Gt)),
            b'&' => (pair(b'&', Sym::AndAnd), None),
            b'|' => (pair(b'|', Sym::OrOr), None),
            b'.' => (pair(b'.', Sym::DotDot), Some(Sym::Dot)),
            b'(' => (None, Some(Sym::LParen)),
            b')' => (None, Some(Sym::RParen)),
            b'[' => (None, Some(Sym::LBracket)),
            b']' => (None, Some(Sym::RBracket)),
            b'{' => (None, Some(Sym::LBrace)),
            b'}' => (None, Some(Sym::RBrace)),
            b',' => (None, Some(Sym::Comma)),
            b';' => (None, Some(Sym::Semi)),
            b'+' => (None, Some(Sym::Plus)),
            b'-' => (None, Some(Sym::Minus)),
            b'*' => (None, Some(Sym::Star)),
            b'/' => (None, Some(Sym::Slash)),
            b'%' => (None, Some(Sym::Percent)),
            b'?' => (None, Some(Sym::Question)),
            _ => (None, None),
        }
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A lexical token. Identifiers and string literals borrow the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// An identifier or keyword.
    Ident(&'a str),
    /// An integer literal (unsigned; sign is applied by the parser).
    Int(i64),
    /// A string literal: the raw text between the quotes, escapes still
    /// in. The lexer has checked them; [`unescape`] resolves them.
    Str(&'a str),
    /// A punctuation symbol from the lexer's table.
    Sym(Sym),
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Int(n) => write!(f, "`{n}`"),
            Token::Str(raw) => write!(f, "\"{}\"", unescape(raw)),
            Token::Sym(s) => write!(f, "`{s}`"),
            Token::Eof => f.write_str("end of input"),
        }
    }
}

/// The content of a string literal's raw text ([`Token::Str`]): `\"`,
/// `\\` and `\n` resolved. Borrows when there is nothing to resolve.
pub fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            // The lexer admits only `\"` and `\\` besides `\n`.
            Some(other) => out.push(other),
            None => {}
        }
    }
    Cow::Owned(out)
}

/// The number of UTF-8 continuation bytes (`0b10xx_xxxx`) in `bytes`:
/// the bytes that do not start a character.
fn continuation_bytes(bytes: &[u8]) -> u32 {
    bytes.iter().filter(|&&b| b & 0xC0 == 0x80).count() as u32
}

/// A lexer over a source text, tracking line:column positions.
///
/// It scans bytes: punctuation is picked by its first byte, and the
/// longest symbol of the table wins (`:=` over `:`, `..` over `.`).
/// A non-ASCII character is decoded where it occurs and keeps the
/// `char` rules — Unicode letters and digits continue an identifier,
/// Unicode whitespace separates tokens — and columns count characters.
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unconsumed character.
    at: usize,
    /// The admitted symbols, one bit per [`Sym`] discriminant.
    symbols: u32,
    line: u32,
    /// Byte offset where the current line starts.
    line_start: usize,
    /// Continuation bytes consumed on the current line: a column is the
    /// byte distance from the line start less these, plus one.
    line_continuations: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input` admitting the given punctuation.
    pub fn new(input: &'a str, symbols: &[Sym]) -> Self {
        Lexer {
            input,
            at: 0,
            symbols: symbols.iter().fold(0, |set, &s| set | 1 << s as u32),
            line: 1,
            line_start: 0,
            line_continuations: 0,
        }
    }

    /// The position of byte `offset` on the current line, every
    /// character before which has been consumed.
    fn pos_at(&self, offset: usize) -> Pos {
        let col = (offset - self.line_start) as u32 - self.line_continuations + 1;
        Pos { line: self.line, col, offset }
    }

    /// Records the line break at byte `offset`.
    fn newline(&mut self, offset: usize) {
        self.line += 1;
        self.line_start = offset + 1;
        self.line_continuations = 0;
    }

    /// Consumes the non-ASCII character `c` at the current offset.
    fn consume_wide(&mut self, c: char) {
        self.at += c.len_utf8();
        self.line_continuations += c.len_utf8() as u32 - 1;
    }

    /// The character starting at byte `offset` (which is in the input).
    fn char_at(&self, offset: usize) -> char {
        self.input[offset..].chars().next().expect("offset inside the input")
    }

    fn skip_trivia(&mut self) {
        let bytes = self.input.as_bytes();
        while let Some(&b) = bytes.get(self.at) {
            match b {
                b'\n' => {
                    self.newline(self.at);
                    self.at += 1;
                }
                b' ' | b'\t' | b'\r' | 0x0B | 0x0C => self.at += 1,
                b'/' if bytes.get(self.at + 1) == Some(&b'/') => {
                    let end = bytes[self.at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |n| self.at + n);
                    self.line_continuations += continuation_bytes(&bytes[self.at..end]);
                    self.at = end;
                }
                0x80.. => {
                    let c = self.char_at(self.at);
                    if !c.is_whitespace() {
                        return;
                    }
                    self.consume_wide(c);
                }
                _ => return,
            }
        }
    }

    /// Lexes the next token, returning it with its start position.
    ///
    /// String literals support the escape sequences `\"`, `\\`, and `\n`;
    /// the returned [`Token::Str`] holds the raw text, which [`unescape`]
    /// resolves.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input (unknown characters,
    /// unknown escapes, unterminated strings, out-of-range integer
    /// literals).
    // Inlined into its one caller, `Parser::advance`: the token then goes
    // straight into the parser's fields. Returned through memory, its
    // odd-sized copies stalled store forwarding for a quarter of a parse.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<(Token<'a>, Pos), ParseError> {
        self.skip_trivia();
        let begin = self.at;
        let start = self.pos_at(begin);
        let bytes = self.input.as_bytes();
        let Some(&b) = bytes.get(begin) else {
            return Ok((Token::Eof, start));
        };
        let token = match b {
            b'0'..=b'9' => {
                let len = bytes[begin..].iter().take_while(|b| b.is_ascii_digit()).count();
                self.at = begin + len;
                let text = &self.input[begin..self.at];
                let n: i64 = text.parse().map_err(|_| {
                    ParseError::new(start, format!("integer literal out of range: {text}"))
                })?;
                Token::Int(n)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Token::Ident(self.ident(begin)),
            0x80.. if self.char_at(begin).is_alphabetic() => Token::Ident(self.ident(begin)),
            b'"' => Token::Str(self.string(start)?),
            _ => {
                let (long, short) = Sym::candidates(b, bytes.get(begin + 1).copied());
                let admitted = |s: &Option<Sym>| s.is_some_and(|s| self.symbols & (1 << s as u32) != 0);
                let (sym, len) = if admitted(&long) {
                    (long, 2)
                } else if admitted(&short) {
                    (short, 1)
                } else {
                    let c = self.char_at(begin);
                    return Err(ParseError::new(start, format!("unexpected character {c:?}")));
                };
                self.at = begin + len;
                Token::Sym(sym.expect("admitted symbol"))
            }
        };
        Ok((token, start))
    }

    /// Scans the identifier starting at byte `begin`.
    fn ident(&mut self, begin: usize) -> &'a str {
        let bytes = self.input.as_bytes();
        self.at = begin;
        while let Some(&b) = bytes.get(self.at) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.at += 1;
            } else if b >= 0x80 && self.char_at(self.at).is_alphanumeric() {
                self.consume_wide(self.char_at(self.at));
            } else {
                break;
            }
        }
        &self.input[begin..self.at]
    }

    /// Scans the string literal whose opening quote is at `start`,
    /// returning its raw text.
    fn string(&mut self, start: Pos) -> Result<&'a str, ParseError> {
        let bytes = self.input.as_bytes();
        let content = start.offset + 1;
        let unterminated = || ParseError::new(start, "unterminated string literal".to_owned());
        let mut i = content;
        loop {
            match *bytes.get(i).ok_or_else(unterminated)? {
                b'"' => {
                    self.at = i + 1;
                    return Ok(&self.input[content..i]);
                }
                b'\\' => match bytes.get(i + 1) {
                    Some(b'"' | b'\\' | b'n') => i += 2,
                    Some(_) => {
                        let other = self.char_at(i + 1);
                        let at = self.pos_at(i);
                        return Err(ParseError::new(
                            at,
                            format!("unknown escape sequence `\\{other}`"),
                        ));
                    }
                    None => return Err(unterminated()),
                },
                b'\n' => {
                    self.newline(i);
                    i += 1;
                }
                b => {
                    self.line_continuations += u32::from(b & 0xC0 == 0x80);
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYMS: &[Sym] = &[
        Sym::DotDot,
        Sym::Assign,
        Sym::EqEq,
        Sym::Colon,
        Sym::Plus,
        Sym::LParen,
        Sym::RParen,
        Sym::Dot,
    ];

    fn lex_all(input: &str) -> Vec<(Token<'_>, Pos)> {
        let mut lexer = Lexer::new(input, SYMS);
        let mut out = Vec::new();
        loop {
            let (tok, pos) = lexer.next_token().unwrap();
            let eof = tok == Token::Eof;
            out.push((tok, pos));
            if eof {
                break;
            }
        }
        out
    }

    #[test]
    fn tracks_lines_and_columns() {
        let toks = lex_all("ab := 1\n  cd");
        assert_eq!(toks[0].0, Token::Ident("ab"));
        assert_eq!((toks[0].1.line, toks[0].1.col), (1, 1));
        assert_eq!(toks[1].0, Token::Sym(Sym::Assign));
        assert_eq!((toks[1].1.line, toks[1].1.col), (1, 4));
        assert_eq!(toks[2].0, Token::Int(1));
        assert_eq!((toks[2].1.line, toks[2].1.col), (1, 7));
        assert_eq!(toks[3].0, Token::Ident("cd"));
        assert_eq!((toks[3].1.line, toks[3].1.col), (2, 3));
    }

    #[test]
    fn longest_symbol_wins() {
        let toks = lex_all("1 .. 2 . 3 := x == y");
        let syms: Vec<&Token> = toks.iter().map(|(t, _)| t).collect();
        assert_eq!(*syms[1], Token::Sym(Sym::DotDot));
        assert_eq!(*syms[3], Token::Sym(Sym::Dot));
        assert_eq!(*syms[5], Token::Sym(Sym::Assign));
        assert_eq!(*syms[7], Token::Sym(Sym::EqEq));
    }

    #[test]
    fn symbols_outside_the_table_are_unexpected() {
        // `=` alone is not in the table, `==` is; `&` and `|` never lex alone.
        for (input, shown) in [("=", "'='"), ("x = 1", "'='"), ("&", "'&'"), ("a | b", "'|'")] {
            let mut lexer = Lexer::new(input, SYMS);
            let err = loop {
                match lexer.next_token() {
                    Ok((Token::Eof, _)) => panic!("{input:?} lexed"),
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            assert_eq!(err.message, format!("unexpected character {shown}"), "{input:?}");
        }
    }

    #[test]
    fn comments_are_skipped_and_positions_survive() {
        let toks = lex_all("// first line\nx");
        assert_eq!(toks[0].0, Token::Ident("x"));
        assert_eq!((toks[0].1.line, toks[0].1.col), (2, 1));
        // A comment that ends the input leaves the end position after it,
        // counted in characters.
        let toks = lex_all("x // é");
        assert_eq!((toks[1].1.line, toks[1].1.col, toks[1].1.offset), (1, 7, 7));
    }

    #[test]
    fn string_literals_and_errors() {
        let toks = lex_all("\"hi\"");
        assert_eq!(toks[0].0, Token::Str("hi"));
        let err = Lexer::new("\"open", SYMS).next_token().unwrap_err();
        assert!(err.message.contains("unterminated"));
        let err = Lexer::new("@", SYMS).next_token().unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (1, 1));
    }

    #[test]
    fn string_escapes_unescape() {
        let toks = lex_all(r#""a\"b\\c\nd""#);
        assert_eq!(toks[0].0, Token::Str(r#"a\"b\\c\nd"#));
        assert_eq!(unescape(r#"a\"b\\c\nd"#), "a\"b\\c\nd");
        assert_eq!(toks[0].0.to_string(), "\"a\"b\\c\nd\"");
        let err = Lexer::new(r#""\q""#, SYMS).next_token().unwrap_err();
        assert!(err.message.contains("unknown escape"));
        let err = Lexer::new("\"x\\", SYMS).next_token().unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn strings_span_lines_and_escape_errors_point_at_the_backslash() {
        let toks = lex_all("\"a\nβ\" x");
        assert_eq!(toks[0].0, Token::Str("a\nβ"));
        assert_eq!((toks[1].1.line, toks[1].1.col), (2, 4));
        let err = Lexer::new("\"ü\nαβ\\é\"", SYMS).next_token().unwrap_err();
        assert_eq!(err.message, "unknown escape sequence `\\é`");
        assert_eq!((err.pos.line, err.pos.col, err.pos.offset), (2, 3, 8));
    }

    #[test]
    fn offsets_are_bytes_columns_are_chars() {
        // 'α' is 2 bytes but 1 column.
        let toks = lex_all("αβ + x");
        assert_eq!(toks[0].0, Token::Ident("αβ"));
        assert_eq!(toks[1].0, Token::Sym(Sym::Plus));
        assert_eq!(toks[1].1.col, 4);
        assert_eq!(toks[1].1.offset, 5);
    }

    #[test]
    fn unicode_identifiers_and_whitespace_keep_char_rules() {
        // NBSP (U+00A0) separates tokens; `x٣` continues with an Arabic-
        // Indic digit; the ideographic space (U+3000) is whitespace.
        let toks = lex_all("a\u{a0}x٣\u{3000}_é1");
        assert_eq!(toks[0].0, Token::Ident("a"));
        assert_eq!(toks[1].0, Token::Ident("x٣"));
        assert_eq!((toks[1].1.col, toks[1].1.offset), (3, 3));
        assert_eq!(toks[2].0, Token::Ident("_é1"));
        assert_eq!((toks[2].1.col, toks[2].1.offset), (6, 9));
        // A non-letter, non-space character is reported whole.
        let mut lexer = Lexer::new("x ٣", SYMS);
        lexer.next_token().unwrap();
        let err = lexer.next_token().unwrap_err();
        assert_eq!(err.message, "unexpected character '٣'");
        assert_eq!(err.pos.col, 3);
    }

    #[test]
    fn integer_literals_are_checked() {
        let toks = lex_all("9223372036854775807 12ab");
        assert_eq!(toks[0].0, Token::Int(i64::MAX));
        assert_eq!(toks[1].0, Token::Int(12));
        assert_eq!(toks[2].0, Token::Ident("ab"));
        let err = Lexer::new("9223372036854775808", SYMS).next_token().unwrap_err();
        assert_eq!(err.message, "integer literal out of range: 9223372036854775808");
    }

    #[test]
    fn error_display_is_line_colon_column() {
        let e = ParseError::new(Pos { line: 3, col: 7, offset: 40 }, "boom");
        assert_eq!(e.to_string(), "parse error at 3:7: boom");
    }
}
