//! Textual surface syntax for programs and expressions.
//!
//! The concrete syntax follows the paper's figures closely:
//!
//! ```text
//! stmt  ::= "skip"
//!         | x ":=" expr
//!         | x ":=" "[" expr "]"
//!         | "[" expr "]" ":=" expr
//!         | x ":=" "alloc" "(" expr ")"
//!         | "if" "(" expr ")" block "else" block
//!         | "while" "(" expr ")" block
//!         | "par" block block
//!         | "atomic" block
//!         | "output" "(" expr ")"
//! block ::= "{" stmt (";" stmt)* "}"
//! ```
//!
//! Expressions have the usual precedence (`||` < `&&` < comparisons <
//! additive < multiplicative < unary), and container operations are spelled
//! as function calls (`put(m, k, v)`, `dom(m)`, `append(s, e)`, `len(s)`,
//! `to_ms(s)`, …).
//!
//! Lexing and error positions use the shared machinery in [`crate::span`]:
//! every [`ParseError`] carries a 1-based `line:column` [`Pos`]. The
//! annotated-program frontend (`commcsl-front`) parses with the same
//! [`Parser`] in its [`Dialect::Annotated`] form: the same lexer, the same
//! expression grammar, the same function-call table ([`func_by_name`] /
//! [`func_surface_name`]) and the same [`Word`] vocabulary.

use commcsl_pure::{Func, Symbol, Term, Value};

use crate::ast::Cmd;
use crate::span::{unescape, Lexer, Pos, Sym, Token};

pub use crate::span::ParseError;

/// Parses a whole program.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing junk.
///
/// # Example
///
/// ```
/// use commcsl_lang::parser::parse_program;
///
/// let prog = parse_program("x := 1; par { x := x + 1 } { skip }").unwrap();
/// assert_eq!(prog.loc(), 4);
/// ```
pub fn parse_program(input: &str) -> Result<Cmd, ParseError> {
    let mut p = Parser::new(input, Dialect::Plain)?;
    let cmd = p.parse_stmts()?;
    p.expect_eof()?;
    Ok(cmd)
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing junk.
pub fn parse_expr(input: &str) -> Result<Term, ParseError> {
    let mut p = Parser::new(input, Dialect::Plain)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// A fixed list of names with constant-time lookup by text: an
/// open-addressing table, built at compile time, probed from a slot that
/// the name's length and first and last bytes pick.
struct NameTable {
    names: &'static [&'static str],
    /// Index + 1 of the name in each slot; 0 for an empty slot.
    slots: [u8; 256],
}

impl NameTable {
    const fn new(names: &'static [&'static str]) -> NameTable {
        assert!(names.len() < 128, "a name table stays sparse");
        let mut slots = [0u8; 256];
        let mut i = 0;
        while i < names.len() {
            let mut slot = Self::slot(names[i].as_bytes());
            while slots[slot] != 0 {
                slot = (slot + 1) % 256;
            }
            slots[slot] = i as u8 + 1;
            i += 1;
        }
        NameTable { names, slots }
    }

    const fn slot(name: &[u8]) -> usize {
        (name.len() + 9 * name[0] as usize + 46 * name[name.len() - 1] as usize) % 256
    }

    /// The index of `name` in the list.
    fn find(&self, name: &str) -> Option<usize> {
        if name.is_empty() {
            return None;
        }
        let mut slot = Self::slot(name.as_bytes());
        loop {
            let index = usize::from(self.slots[slot]).checked_sub(1)?;
            if self.names[index] == name {
                return Some(index);
            }
            slot = (slot + 1) % 256;
        }
    }
}

/// Declares the surface call table: the name ↔ [`Func`] ↔ arity list
/// shared by the plain-program parser, the annotated-program frontend,
/// and the pretty-printer.
macro_rules! call_table {
    ($($name:literal => $func:ident / $arity:literal,)*) => {
        const CALLS: NameTable = NameTable::new(&[$($name),*]);
        const CALL_TARGETS: &[(Func, usize)] = &[$((Func::$func, $arity)),*];

        /// Looks up a surface function name, returning the [`Func`] and its
        /// arity.
        pub fn func_by_name(name: &str) -> Option<(Func, usize)> {
            CALLS.find(name).map(|i| CALL_TARGETS[i].clone())
        }

        /// The surface call name of a [`Func`], if it has one. Operators
        /// (`Add`, `Eq`, …) and uninterpreted symbols have none.
        pub fn func_surface_name(f: &Func) -> Option<&'static str> {
            match f {
                $(Func::$func => Some($name),)*
                _ => None,
            }
        }
    };
}

call_table! {
    "pair" => MkPair / 2,
    "fst" => Fst / 1,
    "snd" => Snd / 1,
    "left" => MkLeft / 1,
    "right" => MkRight / 1,
    "is_left" => IsLeft / 1,
    "from_left" => FromLeft / 1,
    "from_right" => FromRight / 1,
    "append" => SeqAppend / 2,
    "concat" => SeqConcat / 2,
    "len" => SeqLen / 1,
    "index" => SeqIndex / 2,
    "index_or" => SeqIndexOr / 3,
    "tail" => SeqTail / 1,
    "head_or" => SeqHeadOr / 2,
    "sum" => SeqSum / 1,
    "mean" => SeqMean / 1,
    "sorted" => SeqSorted / 1,
    "to_ms" => SeqToMultiset / 1,
    "to_set" => SeqToSet / 1,
    "set_add" => SetAdd / 2,
    "set_union" => SetUnion / 2,
    "set_card" => SetCard / 1,
    "set_contains" => SetContains / 2,
    "set_to_seq" => SetToSeq / 1,
    "ms_add" => MsAdd / 2,
    "ms_union" => MsUnion / 2,
    "ms_card" => MsCard / 1,
    "ms_contains" => MsContains / 2,
    "ms_to_seq" => MsToSortedSeq / 1,
    "put" => MapPut / 3,
    "get_or" => MapGetOr / 3,
    "dom" => MapDom / 1,
    "map_contains" => MapContains / 2,
    "map_len" => MapLen / 1,
    "max" => Max / 2,
    "min" => Min / 2,
    "implies" => Implies / 2,
    "iff" => Iff / 2,
    "ite" => Ite / 3,
}

/// Declares [`Word`]: each word with its text and whether the annotated
/// language reserves it.
macro_rules! vocabulary {
    ($($word:ident = $text:literal $(, $reserved:ident)?;)*) => {
        /// A word either surface language gives a meaning to: keywords,
        /// sort names, literal names and the fixed variables of resource
        /// declarations. [`Parser`] classifies every identifier once, when
        /// it lexes it, so the grammar tests words without comparing text.
        ///
        /// Only the words [`Word::reserved`] names are off limits as
        /// identifiers (and only in the annotated language); the others
        /// stay usable as variable names.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Word {
            $(
                #[doc = concat!("`", $text, "`")]
                $word,
            )*
        }

        impl Word {
            const ALL: &[Word] = &[$(Word::$word),*];
            const TEXTS: NameTable = NameTable::new(&[$($text),*]);

            /// The word an identifier spells, if any.
            pub fn of(ident: &str) -> Option<Word> {
                Self::TEXTS.find(ident).map(|i| Self::ALL[i])
            }

            /// The word's source text.
            pub fn as_str(self) -> &'static str {
                Self::TEXTS.names[self as usize]
            }

            /// `true` for the keywords of the annotated language, which
            /// cannot be assigned or name a resource.
            pub fn reserved(self) -> bool {
                match self {
                    $(Word::$word => vocabulary!(@reserved $($reserved)?),)*
                }
            }
        }
    };
    (@reserved reserved) => { true };
    (@reserved) => { false };
}

vocabulary! {
    // Keywords of the annotated language.
    Program = "program", reserved;
    Resource = "resource", reserved;
    Named = "named", reserved;
    Alpha = "alpha", reserved;
    Shared = "shared", reserved;
    Unique = "unique", reserved;
    Action = "action", reserved;
    Requires = "requires", reserved;
    Input = "input", reserved;
    Low = "low", reserved;
    High = "high", reserved;
    If = "if", reserved;
    Else = "else", reserved;
    For = "for", reserved;
    In = "in", reserved;
    Share = "share", reserved;
    Par = "par", reserved;
    With = "with", reserved;
    Performing = "performing", reserved;
    Deferred = "deferred", reserved;
    Times = "times", reserved;
    Binding = "binding", reserved;
    At = "at", reserved;
    Unshare = "unshare", reserved;
    Into = "into", reserved;
    Assert = "assert", reserved;
    Output = "output", reserved;
    // Keywords of plain programs only.
    Skip = "skip";
    While = "while";
    Atomic = "atomic";
    Alloc = "alloc";
    // The fixed variables of resource declarations.
    V = "v";
    Arg = "arg";
    // Sort names.
    IntSort = "Int";
    BoolSort = "Bool";
    UnitSort = "Unit";
    StrSort = "Str";
    SeqSort = "Seq";
    SetSort = "Set";
    MultisetSort = "Multiset";
    MapSort = "Map";
    PairSort = "Pair";
    EitherSort = "Either";
    // Literal names.
    True = "true";
    False = "false";
    EmptySeq = "empty_seq";
    EmptySet = "empty_set";
    EmptyMs = "empty_ms";
    EmptyMap = "empty_map";
    Unit = "unit";
}

/// Which surface language a [`Parser`] reads. Both share the lexer, the
/// expression grammar, the call table and the [`Word`] vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Plain programs (this module's grammar): `&&` / `||` build nested
    /// binary nodes, and `-1` is the negation of `1`.
    Plain,
    /// Annotated `.csl` programs (`commcsl-front`): `&&` / `||` chains
    /// build one *variadic* node (matching the builder API's
    /// [`Term::and`]), and a unary minus directly before an integer
    /// literal folds into a negative literal (so `-1` round-trips as
    /// `Term::int(-1)`). Adds the `..`, `:`, `?` and `.` punctuation.
    Annotated,
}

impl Dialect {
    fn symbols(self) -> &'static [Sym] {
        const PLAIN: &[Sym] = &[
            Sym::Assign, Sym::EqEq, Sym::NotEq, Sym::Le, Sym::Ge, Sym::AndAnd, Sym::OrOr,
            Sym::LParen, Sym::RParen, Sym::LBracket, Sym::RBracket, Sym::LBrace, Sym::RBrace,
            Sym::Comma, Sym::Semi, Sym::Plus, Sym::Minus, Sym::Star, Sym::Slash, Sym::Percent,
            Sym::Lt, Sym::Gt, Sym::Bang, Sym::Eq,
        ];
        const ANNOTATED: &[Sym] = &[
            Sym::Assign, Sym::EqEq, Sym::NotEq, Sym::Le, Sym::Ge, Sym::AndAnd, Sym::OrOr,
            Sym::DotDot, Sym::LParen, Sym::RParen, Sym::LBracket, Sym::RBracket, Sym::LBrace,
            Sym::RBrace, Sym::Comma, Sym::Semi, Sym::Colon, Sym::Plus, Sym::Minus, Sym::Star,
            Sym::Slash, Sym::Percent, Sym::Lt, Sym::Gt, Sym::Bang, Sym::Eq, Sym::Question,
            Sym::Dot,
        ];
        match self {
            Dialect::Plain => PLAIN,
            Dialect::Annotated => ANNOTATED,
        }
    }
}

/// The binding strength of the binary operators, loosest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    Or,
    And,
    Cmp,
    Add,
    Mul,
}

/// The binary operator `tok` spells, with its strength.
fn binary_op(tok: Token<'_>) -> Option<(Prec, Sym)> {
    let Token::Sym(sym) = tok else {
        return None;
    };
    let prec = match sym {
        Sym::OrOr => Prec::Or,
        Sym::AndAnd => Prec::And,
        Sym::EqEq | Sym::NotEq | Sym::Lt | Sym::Le | Sym::Gt | Sym::Ge => Prec::Cmp,
        Sym::Plus | Sym::Minus => Prec::Add,
        Sym::Star | Sym::Slash | Sym::Percent => Prec::Mul,
        _ => return None,
    };
    Some((prec, sym))
}

/// A recursive-descent parser over the shared lexer, one token of
/// lookahead: the token cursor and expression grammar both surface
/// languages build on. [`parse_program`] adds the plain statements;
/// `commcsl-front` adds the annotated ones.
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    dialect: Dialect,
    tok: Token<'a>,
    pos: Pos,
    word: Option<Word>,
    /// Recently made variable symbols, so a repeated name shares one
    /// allocation.
    recent: [Option<Symbol>; 8],
    next_recent: usize,
}

impl<'a> Parser<'a> {
    /// Starts parsing `input`, lexing its first token.
    ///
    /// # Errors
    ///
    /// Returns the lexer's [`ParseError`] for a malformed first token.
    pub fn new(input: &'a str, dialect: Dialect) -> Result<Self, ParseError> {
        let mut p = Parser {
            lexer: Lexer::new(input, dialect.symbols()),
            dialect,
            tok: Token::Eof,
            pos: Pos::start(),
            word: None,
            recent: Default::default(),
            next_recent: 0,
        };
        p.advance()?;
        Ok(p)
    }

    /// The current token.
    pub fn tok(&self) -> Token<'a> {
        self.tok
    }

    /// The start position of the current token.
    pub fn pos(&self) -> Pos {
        self.pos
    }

    /// The [`Word`] the current token spells, if it is one.
    pub fn word(&self) -> Option<Word> {
        self.word
    }

    /// An error at the current token.
    pub fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(self.pos, message))
    }

    /// Moves to the next token.
    ///
    /// # Errors
    ///
    /// Returns the lexer's [`ParseError`] for a malformed token.
    // Out of line: it holds the whole inlined lexer.
    #[inline(never)]
    pub fn advance(&mut self) -> Result<(), ParseError> {
        let (tok, pos) = self.lexer.next_token()?;
        self.word = match tok {
            Token::Ident(ident) => Word::of(ident),
            _ => None,
        };
        self.tok = tok;
        self.pos = pos;
        Ok(())
    }

    /// `true` when the current token is `sym`.
    pub fn at(&self, sym: Sym) -> bool {
        self.tok == Token::Sym(sym)
    }

    /// Consumes `sym`.
    ///
    /// # Errors
    ///
    /// `expected `sym`, found …` at any other token.
    pub fn eat(&mut self, sym: Sym) -> Result<(), ParseError> {
        if self.at(sym) {
            self.advance()
        } else {
            self.err(format!("expected `{sym}`, found {}", self.tok))
        }
    }

    /// `true` when the current token is the word `word`.
    pub fn at_word(&self, word: Word) -> bool {
        self.word == Some(word)
    }

    /// Consumes the word `word`.
    ///
    /// # Errors
    ///
    /// `expected keyword `word`, found …` at any other token.
    pub fn eat_word(&mut self, word: Word) -> Result<(), ParseError> {
        if self.at_word(word) {
            self.advance()
        } else {
            self.err(format!("expected keyword `{}`, found {}", word.as_str(), self.tok))
        }
    }

    /// Consumes an identifier (a word included), returning it with its
    /// position.
    ///
    /// # Errors
    ///
    /// `expected {what}, found …` at any other token.
    pub fn eat_ident(&mut self, what: &str) -> Result<(&'a str, Pos), ParseError> {
        match self.tok {
            Token::Ident(ident) => {
                let pos = self.pos;
                self.advance()?;
                Ok((ident, pos))
            }
            other => self.err(format!("expected {what}, found {other}")),
        }
    }

    /// Succeeds at the end of the input.
    ///
    /// # Errors
    ///
    /// `trailing input: …` at any token.
    pub fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.tok == Token::Eof {
            Ok(())
        } else {
            self.err(format!("trailing input: {}", self.tok))
        }
    }

    // ------------------------------------------------------------ commands

    fn parse_stmts(&mut self) -> Result<Cmd, ParseError> {
        let mut cmds = vec![self.parse_stmt()?];
        while self.at(Sym::Semi) {
            self.advance()?;
            if self.tok == Token::Eof || self.at(Sym::RBrace) {
                break; // trailing semicolon
            }
            cmds.push(self.parse_stmt()?);
        }
        Ok(Cmd::block(cmds))
    }

    fn parse_block(&mut self) -> Result<Cmd, ParseError> {
        self.eat(Sym::LBrace)?;
        if self.at(Sym::RBrace) {
            self.advance()?;
            return Ok(Cmd::Skip);
        }
        let body = self.parse_stmts()?;
        self.eat(Sym::RBrace)?;
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Cmd, ParseError> {
        match (self.word, self.tok) {
            (Some(Word::Skip), _) => {
                self.advance()?;
                Ok(Cmd::Skip)
            }
            (Some(Word::If), _) => {
                self.advance()?;
                self.eat(Sym::LParen)?;
                let cond = self.parse_expr()?;
                self.eat(Sym::RParen)?;
                let then_c = self.parse_block()?;
                self.eat_word(Word::Else)?;
                let else_c = self.parse_block()?;
                Ok(Cmd::if_(cond, then_c, else_c))
            }
            (Some(Word::While), _) => {
                self.advance()?;
                self.eat(Sym::LParen)?;
                let cond = self.parse_expr()?;
                self.eat(Sym::RParen)?;
                let body = self.parse_block()?;
                Ok(Cmd::while_(cond, body))
            }
            (Some(Word::Par), _) => {
                self.advance()?;
                let left = self.parse_block()?;
                let right = self.parse_block()?;
                Ok(Cmd::par(left, right))
            }
            (Some(Word::Atomic), _) => {
                self.advance()?;
                let body = self.parse_block()?;
                Ok(Cmd::atomic(body))
            }
            (Some(Word::Output), _) => {
                self.advance()?;
                self.eat(Sym::LParen)?;
                let e = self.parse_expr()?;
                self.eat(Sym::RParen)?;
                Ok(Cmd::Output(e))
            }
            (_, Token::Ident(name)) => {
                // Assignment forms: x := e, x := [e], x := alloc(e).
                self.advance()?;
                self.eat(Sym::Assign)?;
                if self.at(Sym::LBracket) {
                    self.advance()?;
                    let addr = self.parse_expr()?;
                    self.eat(Sym::RBracket)?;
                    return Ok(Cmd::Load(Symbol::new(name), addr));
                }
                if self.at_word(Word::Alloc) {
                    self.advance()?;
                    self.eat(Sym::LParen)?;
                    let init = self.parse_expr()?;
                    self.eat(Sym::RParen)?;
                    return Ok(Cmd::Alloc(Symbol::new(name), init));
                }
                let e = self.parse_expr()?;
                Ok(Cmd::Assign(Symbol::new(name), e))
            }
            (_, Token::Sym(Sym::LBracket)) => {
                self.advance()?;
                let addr = self.parse_expr()?;
                self.eat(Sym::RBracket)?;
                self.eat(Sym::Assign)?;
                let val = self.parse_expr()?;
                Ok(Cmd::Store(addr, val))
            }
            (_, other) => self.err(format!("expected a statement, found {other}")),
        }
    }

    // ---------------------------------------------------------- expressions

    /// Parses one expression of the dialect's expression grammar.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] at the first token that does not fit.
    #[inline]
    pub fn parse_expr(&mut self) -> Result<Term, ParseError> {
        self.parse_binary(Prec::Or)
    }

    /// The operators binding at least as tightly as `min`, by precedence
    /// climbing over the levels of [`Prec`]: `+ - * / %` associate to the
    /// left, `&&` / `||` chains build one node (variadic in the annotated
    /// dialect, left-nested binary ones in the plain one), and
    /// comparisons do not chain — a comparison after a comparison or a
    /// connective ends the expression.
    fn parse_binary(&mut self, min: Prec) -> Result<Term, ParseError> {
        let lhs = self.parse_unary()?;
        if binary_op(self.tok).is_none() {
            return Ok(lhs);
        }
        self.parse_operators(lhs, min)
    }

    /// The operator loop of [`Parser::parse_binary`] after its first
    /// operand (kept out of line: most operands stand alone).
    #[inline(never)]
    fn parse_operators(&mut self, mut lhs: Term, min: Prec) -> Result<Term, ParseError> {
        let mut last: Option<Prec> = None;
        while let Some((prec, op)) = binary_op(self.tok) {
            if prec < min || (prec == Prec::Cmp && last.is_some_and(|l| l <= Prec::Cmp)) {
                break;
            }
            lhs = match prec {
                Prec::Or | Prec::And => {
                    let node: fn(Vec<Term>) -> Term = if prec == Prec::Or { Term::or } else { Term::and };
                    let operand = if prec == Prec::Or { Prec::And } else { Prec::Cmp };
                    let mut operands = vec![lhs];
                    while self.at(op) {
                        self.advance()?;
                        if self.dialect == Dialect::Plain && operands.len() == 2 {
                            // `a op b op c` is `(a op b) op c`.
                            let nested = node(std::mem::take(&mut operands));
                            operands.push(nested);
                        }
                        operands.push(self.parse_binary(operand)?);
                    }
                    node(operands)
                }
                Prec::Cmp => {
                    self.advance()?;
                    let rhs = self.parse_binary(Prec::Add)?;
                    match op {
                        Sym::EqEq => Term::eq(lhs, rhs),
                        Sym::NotEq => Term::neq(lhs, rhs),
                        Sym::Lt => Term::lt(lhs, rhs),
                        Sym::Le => Term::le(lhs, rhs),
                        Sym::Gt => Term::lt(rhs, lhs),
                        _ => Term::le(rhs, lhs),
                    }
                }
                Prec::Add => {
                    self.advance()?;
                    let rhs = self.parse_binary(Prec::Mul)?;
                    if op == Sym::Plus {
                        Term::add(lhs, rhs)
                    } else {
                        Term::sub(lhs, rhs)
                    }
                }
                Prec::Mul => {
                    self.advance()?;
                    let rhs = self.parse_unary()?;
                    match op {
                        Sym::Star => Term::mul(lhs, rhs),
                        Sym::Slash => Term::app(Func::Div, [lhs, rhs]),
                        _ => Term::app(Func::Mod, [lhs, rhs]),
                    }
                }
            };
            last = Some(prec);
        }
        Ok(lhs)
    }

    #[inline]
    fn parse_unary(&mut self) -> Result<Term, ParseError> {
        match self.tok {
            Token::Sym(Sym::Bang) => {
                self.advance()?;
                Ok(Term::not(self.parse_unary()?))
            }
            Token::Sym(Sym::Minus) => {
                self.advance()?;
                if let (Dialect::Annotated, Token::Int(n)) = (self.dialect, self.tok) {
                    self.advance()?;
                    return Ok(Term::int(-n));
                }
                Ok(Term::app(Func::Neg, [self.parse_unary()?]))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Term, ParseError> {
        match self.tok {
            Token::Int(n) => {
                self.advance()?;
                Ok(Term::int(n))
            }
            Token::Str(raw) => {
                self.advance()?;
                Ok(Term::Lit(Value::str(unescape(raw))))
            }
            Token::Sym(Sym::LParen) => {
                self.advance()?;
                let e = self.parse_expr()?;
                self.eat(Sym::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                let word = self.word;
                self.advance()?;
                let literal = match word {
                    Some(Word::True) => Term::tt(),
                    Some(Word::False) => Term::ff(),
                    Some(Word::EmptySeq) => Term::Lit(Value::seq_empty()),
                    Some(Word::EmptySet) => Term::Lit(Value::set_empty()),
                    Some(Word::EmptyMs) => Term::Lit(Value::multiset_empty()),
                    Some(Word::EmptyMap) => Term::Lit(Value::map_empty()),
                    Some(Word::Unit) => Term::Lit(Value::Unit),
                    _ if !self.at(Sym::LParen) => Term::Var(self.symbol(name)),
                    _ => return self.parse_call(name),
                };
                Ok(literal)
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    /// The symbol for `name`, sharing one allocation with the recent
    /// symbols of the same name.
    pub fn symbol(&mut self, name: &str) -> Symbol {
        if let Some(symbol) = self.recent.iter().flatten().find(|s| s.as_str() == name) {
            return symbol.clone();
        }
        let symbol = Symbol::new(name);
        self.recent[self.next_recent] = Some(symbol.clone());
        self.next_recent = (self.next_recent + 1) % self.recent.len();
        symbol
    }

    /// Parses a call of `name` from its `(`.
    fn parse_call(&mut self, name: &str) -> Result<Term, ParseError> {
        let func = func_by_name(name);
        let args = self.parse_args(func.as_ref().map_or(0, |&(_, arity)| arity))?;
        let Some((func, arity)) = func else {
            return self.err(format!("unknown function `{name}`"));
        };
        if args.len() != arity {
            return self.err(format!(
                "`{name}` expects {arity} argument(s), got {}",
                args.len()
            ));
        }
        Ok(Term::App(func, args.into()))
    }

    /// Parses a parenthesized, comma-separated argument list (possibly
    /// empty), from its `(` through its `)`, into a vector with room for
    /// `expected` arguments.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] at the first token that does not fit.
    pub fn parse_args(&mut self, expected: usize) -> Result<Vec<Term>, ParseError> {
        self.eat(Sym::LParen)?;
        let mut args = Vec::with_capacity(expected);
        if !self.at(Sym::RParen) {
            args.push(self.parse_expr()?);
            while self.at(Sym::Comma) {
                self.advance()?;
                args.push(self.parse_expr()?);
            }
        }
        self.eat(Sym::RParen)?;
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_assignments_and_sequencing() {
        let c = parse_program("x := 1; y := x + 2").unwrap();
        assert_eq!(
            c,
            Cmd::seq(
                Cmd::assign("x", Term::int(1)),
                Cmd::assign("y", Term::add(Term::var("x"), Term::int(2))),
            )
        );
    }

    #[test]
    fn parses_heap_commands() {
        let c = parse_program("p := alloc(7); x := [p]; [p] := x + 1").unwrap();
        assert_eq!(c.loc(), 3);
        assert!(matches!(
            c,
            Cmd::Seq(ref a, _) if matches!(**a, Cmd::Alloc(_, _))
        ));
    }

    #[test]
    fn parses_control_flow() {
        let c = parse_program(
            "if (h > 0) { x := 1 } else { x := 2 }; while (x < 5) { x := x + 1 }",
        )
        .unwrap();
        // if(1) + two branches(2) + while(1) + body(1)
        assert_eq!(c.loc(), 5);
    }

    #[test]
    fn parses_par_and_atomic() {
        let c = parse_program("par { atomic { x := x + 3 } } { atomic { x := x + 4 } }")
            .unwrap();
        match c {
            Cmd::Par(l, r) => {
                assert!(matches!(*l, Cmd::Atomic(_)));
                assert!(matches!(*r, Cmd::Atomic(_)));
            }
            other => panic!("expected par, got {other:?}"),
        }
    }

    #[test]
    fn parses_container_calls() {
        let e = parse_expr("put(m, k, v)").unwrap();
        assert_eq!(
            e,
            Term::app(
                Func::MapPut,
                [Term::var("m"), Term::var("k"), Term::var("v")]
            )
        );
        let e = parse_expr("sorted(set_to_seq(dom(m)))").unwrap();
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        // Evaluates to true.
        assert_eq!(
            e.eval(&Default::default()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn comparison_desugaring() {
        assert_eq!(
            parse_expr("a > b").unwrap(),
            Term::lt(Term::var("b"), Term::var("a"))
        );
        assert_eq!(
            parse_expr("a != b").unwrap(),
            Term::neq(Term::var("a"), Term::var("b"))
        );
    }

    #[test]
    fn plain_connectives_nest_and_minus_negates() {
        assert_eq!(
            parse_expr("a && b && c").unwrap(),
            Term::and([Term::and([Term::var("a"), Term::var("b")]), Term::var("c")])
        );
        assert_eq!(
            parse_expr("a || b || c").unwrap(),
            Term::or([Term::or([Term::var("a"), Term::var("b")]), Term::var("c")])
        );
        assert_eq!(parse_expr("-1").unwrap(), Term::app(Func::Neg, [Term::int(1)]));
    }

    #[test]
    fn words_stay_usable_as_names() {
        // `else` and `alloc` are words, but only the statement keywords
        // open statements; any other word assigns or reads a variable.
        let c = parse_program("else := low + alloc").unwrap();
        assert_eq!(
            c,
            Cmd::assign("else", Term::add(Term::var("low"), Term::var("alloc")))
        );
    }

    #[test]
    fn comments_and_whitespace() {
        let c = parse_program("// init\nx := 1; // set x\ny := 2").unwrap();
        assert_eq!(c.loc(), 2);
    }

    #[test]
    fn string_literals() {
        let e = parse_expr("get_or(household, \"nAdults\", 0)").unwrap();
        assert!(matches!(e, Term::App(Func::MapGetOr, _)));
        let e = parse_expr(r#""a\"b\\c\nd""#).unwrap();
        assert_eq!(e, Term::Lit(Value::str("a\"b\\c\nd")));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("x := ").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.pos.col >= 5);
        assert!(err.pos.offset >= 4);
        assert!(err.to_string().contains("expected an expression"));
    }

    #[test]
    fn error_positions_span_lines() {
        let err = parse_program("x := 1;\ny := !!").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.col, 8);
    }

    #[test]
    fn annotated_punctuation_is_not_plain() {
        let err = parse_program("x := 1 .. 2").unwrap_err();
        assert_eq!(err.message, "unexpected character '.'");
        assert_eq!(err.pos.col, 8);
    }

    #[test]
    fn rejects_trailing_junk() {
        assert!(parse_program("skip }").is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(parse_expr("put(m, k)").is_err());
        assert!(parse_expr("nonsense(1)").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_program("x := 1;").is_ok());
        assert!(parse_program("par { x := 1; } { y := 2; }").is_ok());
    }

    #[test]
    fn empty_block_is_skip() {
        let c = parse_program("par { } { skip }").unwrap();
        assert_eq!(c, Cmd::par(Cmd::Skip, Cmd::Skip));
    }

    #[test]
    fn call_table_roundtrips() {
        for name in ["put", "dom", "append", "ite", "implies"] {
            let (func, _) = func_by_name(name).unwrap();
            assert_eq!(func_surface_name(&func), Some(name));
        }
        assert!(func_by_name("nonsense").is_none());
        assert_eq!(func_surface_name(&Func::Add), None);
    }

    #[test]
    fn words_round_trip_through_their_text() {
        for text in ["program", "v", "Multiset", "empty_ms", "alloc"] {
            assert_eq!(Word::of(text).map(Word::as_str), Some(text));
        }
        assert_eq!(Word::of("Program"), None);
        assert!(Word::Output.reserved() && !Word::Skip.reserved() && !Word::V.reserved());
    }
}
