//! Hand-rolled lexer for the `.mk` loop-kernel DSL.
//!
//! Produces a flat token stream with one [`Span`] (1-based line and
//! column) per token; every later diagnostic — parse or semantic —
//! anchors to one of these spans.

use crate::ParseError;

/// A 1-based source position (the anchor of every diagnostic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column, counted in characters.
    pub col: u32,
}

impl Span {
    /// The very first source position.
    pub fn start() -> Span {
        Span { line: 1, col: 1 }
    }
}

/// One lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok<'src> {
    /// An identifier (never a keyword), borrowed from the source.
    Ident(&'src str),
    /// An unsigned integer literal; the magnitude is kept raw so the
    /// parser can fold a leading `-` down to `i64::MIN`.
    Int(u64),
    /// `kernel`
    KwKernel,
    /// `rec`
    KwRec,
    /// `i32`
    KwI32,
    /// `in`
    KwIn,
    /// `out`
    KwOut,
    /// `abs`
    KwAbs,
    /// `min`
    KwMin,
    /// `max`
    KwMax,
    /// `select`
    KwSelect,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `@`
    At,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `~`
    Tilde,
    /// End of input (always the last token).
    Eof,
}

impl Tok<'_> {
    /// How the token reads in a diagnostic.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(name) => format!("`{name}`"),
            Tok::Int(v) => format!("`{v}`"),
            Tok::KwKernel => "`kernel`".into(),
            Tok::KwRec => "`rec`".into(),
            Tok::KwI32 => "`i32`".into(),
            Tok::KwIn => "`in`".into(),
            Tok::KwOut => "`out`".into(),
            Tok::KwAbs => "`abs`".into(),
            Tok::KwMin => "`min`".into(),
            Tok::KwMax => "`max`".into(),
            Tok::KwSelect => "`select`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Comma => "`,`".into(),
            Tok::At => "`@`".into(),
            Tok::Assign => "`=`".into(),
            Tok::EqEq => "`==`".into(),
            Tok::Plus => "`+`".into(),
            Tok::Minus => "`-`".into(),
            Tok::Star => "`*`".into(),
            Tok::Slash => "`/`".into(),
            Tok::Amp => "`&`".into(),
            Tok::Pipe => "`|`".into(),
            Tok::Caret => "`^`".into(),
            Tok::Shl => "`<<`".into(),
            Tok::Shr => "`>>`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Tilde => "`~`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token plus where it starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lexeme<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// Where it starts in the source.
    pub span: Span,
}

/// Tokenizes a whole source text. `//` starts a line comment;
/// whitespace separates tokens.
///
/// The scan runs over bytes: ASCII (everything the DSL's own syntax
/// uses) is classified directly, and only a non-ASCII byte decodes its
/// character, so identifiers and whitespace keep Unicode's
/// `is_alphabetic`/`is_whitespace` meaning and columns count
/// characters, not bytes.
///
/// # Errors
///
/// Returns a [`ParseError`] at the offending character for bytes the
/// DSL has no use for and for integer literals past `2^63` (the one
/// magnitude a leading `-` can still fold into `i64::MIN`).
pub fn lex(source: &str) -> Result<Vec<Lexeme<'_>>, ParseError> {
    let bytes = source.as_bytes();
    // A token is at least one byte plus, in practice, a separator.
    let mut out = Vec::with_capacity(bytes.len() / 3 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    while i < bytes.len() {
        let b = bytes[i];
        let span = Span { line, col };
        if b == b'\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        if b >= 0x80 {
            // Outside ASCII the only legal characters are whitespace
            // and identifier letters.
            let c = char_at(source, i);
            if c.is_whitespace() {
                col += 1;
                i += c.len_utf8();
                continue;
            }
            if c.is_alphabetic() {
                i = ident(source, i, span, &mut col, &mut out);
                continue;
            }
            return Err(ParseError::new(span, format!("unexpected character `{c}`")));
        }
        if (b as char).is_whitespace() {
            col += 1;
            i += 1;
            continue;
        }
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            // Up to the newline, which the loop then counts; every
            // character (UTF-8 lead or ASCII byte) is one column.
            let end = bytes[i..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |k| i + k);
            col += bytes[i..end]
                .iter()
                .filter(|&&b| !is_continuation(b))
                .count() as u32;
            i = end;
            continue;
        }
        if b.is_ascii_digit() {
            let mut value: u128 = 0;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                value = value * 10 + u128::from(bytes[i] - b'0');
                if value > 1u128 << 63 {
                    return Err(ParseError::new(span, "integer literal out of range"));
                }
                col += 1;
                i += 1;
            }
            if i < bytes.len() && starts_ident(source, i) {
                return Err(ParseError::new(
                    Span { line, col },
                    "identifiers cannot start with a digit",
                ));
            }
            out.push(Lexeme {
                tok: Tok::Int(value as u64),
                span,
            });
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            i = ident(source, i, span, &mut col, &mut out);
            continue;
        }
        let next = bytes.get(i + 1).copied();
        let (tok, width) = match (b, next) {
            (b'=', Some(b'=')) => (Tok::EqEq, 2),
            (b'<', Some(b'<')) => (Tok::Shl, 2),
            (b'>', Some(b'>')) => (Tok::Shr, 2),
            (b'{', _) => (Tok::LBrace, 1),
            (b'}', _) => (Tok::RBrace, 1),
            (b'(', _) => (Tok::LParen, 1),
            (b')', _) => (Tok::RParen, 1),
            (b'[', _) => (Tok::LBracket, 1),
            (b']', _) => (Tok::RBracket, 1),
            (b';', _) => (Tok::Semi, 1),
            (b',', _) => (Tok::Comma, 1),
            (b'@', _) => (Tok::At, 1),
            (b'=', _) => (Tok::Assign, 1),
            (b'+', _) => (Tok::Plus, 1),
            (b'-', _) => (Tok::Minus, 1),
            (b'*', _) => (Tok::Star, 1),
            (b'/', _) => (Tok::Slash, 1),
            (b'&', _) => (Tok::Amp, 1),
            (b'|', _) => (Tok::Pipe, 1),
            (b'^', _) => (Tok::Caret, 1),
            (b'<', _) => (Tok::Lt, 1),
            (b'~', _) => (Tok::Tilde, 1),
            _ => {
                return Err(ParseError::new(
                    span,
                    format!("unexpected character `{}`", b as char),
                ));
            }
        };
        out.push(Lexeme { tok, span });
        col += width;
        i += width as usize;
    }
    out.push(Lexeme {
        tok: Tok::Eof,
        span: Span { line, col },
    });
    Ok(out)
}

/// The character starting at byte `i` (a character boundary).
fn char_at(source: &str, i: usize) -> char {
    source[i..].chars().next().expect("i is inside the source")
}

/// True for the bytes inside a multi-byte UTF-8 character (after its
/// lead byte).
fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

/// True if an identifier may start at byte `i`: `_` or a letter.
fn starts_ident(source: &str, i: usize) -> bool {
    match source.as_bytes()[i] {
        b if b < 0x80 => b.is_ascii_alphabetic() || b == b'_',
        _ => char_at(source, i).is_alphabetic(),
    }
}

/// Lexes the identifier or keyword starting at byte `start` (letters,
/// digits and `_`), pushes it and returns the byte after it.
fn ident<'src>(
    source: &'src str,
    start: usize,
    span: Span,
    col: &mut u32,
    out: &mut Vec<Lexeme<'src>>,
) -> usize {
    let bytes = source.as_bytes();
    let mut i = start;
    while i < bytes.len() {
        let b = bytes[i];
        if b < 0x80 {
            if !(b.is_ascii_alphanumeric() || b == b'_') {
                break;
            }
            i += 1;
        } else {
            let c = char_at(source, i);
            if !c.is_alphanumeric() {
                break;
            }
            i += c.len_utf8();
        }
        *col += 1;
    }
    let word = &source[start..i];
    let tok = match word {
        "kernel" => Tok::KwKernel,
        "rec" => Tok::KwRec,
        "i32" => Tok::KwI32,
        "in" => Tok::KwIn,
        "out" => Tok::KwOut,
        "abs" => Tok::KwAbs,
        "min" => Tok::KwMin,
        "max" => Tok::KwMax,
        "select" => Tok::KwSelect,
        _ => Tok::Ident(word),
    };
    out.push(Lexeme { tok, span });
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("kernel k {\n  i32 x = 1;\n}").unwrap();
        assert_eq!(toks[0].tok, Tok::KwKernel);
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[3].tok, Tok::KwI32);
        assert_eq!(toks[3].span, Span { line: 2, col: 3 });
        assert_eq!(toks.last().unwrap().tok, Tok::Eof);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("// header\nout // trailing\n(").unwrap();
        assert_eq!(toks[0].tok, Tok::KwOut);
        assert_eq!(toks[0].span, Span { line: 2, col: 1 });
        assert_eq!(toks[1].tok, Tok::LParen);
        assert_eq!(toks[1].span, Span { line: 3, col: 1 });
    }

    #[test]
    fn two_char_operators_lex_greedily() {
        let toks = lex("== << >> = <").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|l| &l.tok).collect();
        assert_eq!(
            kinds,
            [
                &Tok::EqEq,
                &Tok::Shl,
                &Tok::Shr,
                &Tok::Assign,
                &Tok::Lt,
                &Tok::Eof
            ]
        );
    }

    #[test]
    fn unknown_character_is_positioned() {
        let err = lex("kernel k {\n  $\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn oversized_literal_rejected() {
        assert!(lex("9223372036854775808").is_ok(), "2^63 folds to i64::MIN");
        let err = lex("9223372036854775809").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    /// Tokens as `Tok@line:col`, space-separated, or the error as
    /// `ERR line:col message`.
    fn render(source: &str) -> String {
        match lex(source) {
            Ok(toks) => toks
                .iter()
                .map(|l| format!("{:?}@{}:{}", l.tok, l.span.line, l.span.col))
                .collect::<Vec<_>>()
                .join(" "),
            Err(e) => format!("ERR {}:{} {}", e.line, e.col, e.message),
        }
    }

    #[test]
    fn non_ascii_input_keeps_character_columns() {
        // Pinned from the character-by-character lexer this byte lexer
        // replaced: identifiers take any Unicode letter, comments and
        // whitespace any character, and a column is one character
        // however many bytes encode it.
        let cases = [
            (
                "kernel é { i32 λx = in(0); out(λx); }",
                "KwKernel@1:1 Ident(\"é\")@1:8 LBrace@1:10 KwI32@1:12 Ident(\"λx\")@1:16 \
                 Assign@1:19 KwIn@1:21 LParen@1:23 Int(0)@1:24 RParen@1:25 Semi@1:26 \
                 KwOut@1:28 LParen@1:31 Ident(\"λx\")@1:32 RParen@1:34 Semi@1:35 \
                 RBrace@1:37 Eof@1:38",
            ),
            (
                "// ünïcödé comment — ✓\nkernel k { // 日本語\n  out(in(0)); }",
                "KwKernel@2:1 Ident(\"k\")@2:8 LBrace@2:10 KwOut@3:3 LParen@3:6 KwIn@3:7 \
                 LParen@3:9 Int(0)@3:10 RParen@3:11 RParen@3:12 Semi@3:13 RBrace@3:15 \
                 Eof@3:16",
            ),
            (
                "kernel k {\r\n\ti32 a = in(0);\r\n\tout(a);\r\n}\r\n",
                "KwKernel@1:1 Ident(\"k\")@1:8 LBrace@1:10 KwI32@2:2 Ident(\"a\")@2:6 \
                 Assign@2:8 KwIn@2:10 LParen@2:12 Int(0)@2:13 RParen@2:14 Semi@2:15 \
                 KwOut@3:2 LParen@3:5 Ident(\"a\")@3:6 RParen@3:7 Semi@3:8 RBrace@4:1 \
                 Eof@5:1",
            ),
            (
                "kernel\u{a0}k\u{2003}{ \u{b}\u{c}out(in(0)); }",
                "KwKernel@1:1 Ident(\"k\")@1:8 LBrace@1:10 KwOut@1:14 LParen@1:17 \
                 KwIn@1:18 LParen@1:20 Int(0)@1:21 RParen@1:22 RParen@1:23 Semi@1:24 \
                 RBrace@1:26 Eof@1:27",
            ),
            (
                "kernel k { i32 ab = 1; λ € }",
                "ERR 1:26 unexpected character `€`",
            ),
            (
                "kernel k { i32 x² = 1; ٣ }",
                "ERR 1:24 unexpected character `٣`",
            ),
            (
                "kernel k {\n\t// naïve\n\tout(1é); }",
                "ERR 3:7 identifiers cannot start with a digit",
            ),
        ];
        for (source, expected) in cases {
            assert_eq!(render(source), expected, "{source:?}");
        }
    }

    #[test]
    fn digit_prefixed_identifier_rejected() {
        let err = lex("i32 1x = 2;").unwrap_err();
        assert_eq!((err.line, err.col), (1, 6));
    }
}
