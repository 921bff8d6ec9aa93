//! Recursive-descent parser: token stream → [`Program`].
//!
//! The grammar is LL(1) except for one spot — `(name[i] = v)` versus a
//! plain parenthesized load — which is resolved by parsing the load
//! first and upgrading it to a [`Expr::StoreValue`] when an `=`
//! follows (assignment-as-expression, as in C). Binary operators are
//! parsed by precedence climbing, which builds the same left-leaning
//! trees as one recursive function per precedence level would, without
//! descending through every level for every operand.
//!
//! Expression nesting is depth-bounded so crafted inputs degrade into
//! a [`ParseError`] instead of exhausting the stack (the fuzz battery
//! feeds the parser arbitrarily mangled bytes): each parenthesis,
//! bracketed index, call's argument list and unary operator opens one
//! level, and `MAX_DEPTH` (128) levels may be open at once.
//!
//! Nothing is copied on the way: identifiers stay slices of the source
//! from token to tree, and diagnostic text is only formatted once an
//! error is certain.

use std::fmt;

use crate::ast::{BinOp, Expr, ExprId, Kernel, Program, Stmt, UnOp};
use crate::lexer::{lex, Lexeme, Span, Tok};
use crate::ParseError;

/// Maximum expression nesting depth before the parser refuses: how
/// many parentheses, bracketed indices, call argument lists and unary
/// operators may enclose one another.
const MAX_DEPTH: usize = 128;

/// Parses a whole source text.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, positioned at the
/// offending token.
pub fn parse(source: &str) -> Result<Program<'_>, ParseError> {
    let toks = lex(source)?;
    let mut parser = Parser {
        toks,
        pos: 0,
        exprs: Vec::new(),
    };
    parser.program()
}

struct Parser<'src> {
    toks: Vec<Lexeme<'src>>,
    pos: usize,
    /// The expressions of the kernel being parsed.
    exprs: Vec<Expr<'src>>,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &Tok<'src> {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok<'src> {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Steps past the current token (never past the final `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &Tok<'_>) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok<'_>, context: impl fmt::Display) -> Result<(), ParseError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(ParseError::new(
                self.span(),
                format!(
                    "expected {} {context}, found {}",
                    tok.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    /// The current identifier's name (the caller has checked the token
    /// is one), stepping past it.
    fn take_ident(&mut self) -> &'src str {
        let Tok::Ident(name) = self.toks[self.pos].tok else {
            unreachable!("take_ident on a non-identifier");
        };
        self.bump();
        name
    }

    fn expect_ident(&mut self, context: &str) -> Result<(&'src str, Span), ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::Ident(_) => Ok((self.take_ident(), span)),
            other => Err(ParseError::new(
                span,
                format!("expected {context}, found {}", other.describe()),
            )),
        }
    }

    /// Stores an expression of the current kernel.
    fn push(&mut self, expr: Expr<'src>) -> ExprId {
        self.exprs.push(expr);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Opens one nesting level for a construct starting at `at`.
    fn nest(depth: usize, at: Span) -> Result<usize, ParseError> {
        if depth >= MAX_DEPTH {
            Err(ParseError::new(at, "expression nesting too deep"))
        } else {
            Ok(depth + 1)
        }
    }

    fn program(&mut self) -> Result<Program<'src>, ParseError> {
        let mut kernels = Vec::new();
        while self.peek() != &Tok::Eof {
            self.expect(Tok::KwKernel, "to start a kernel")?;
            let (name, span) = self.expect_ident("a kernel name")?;
            self.expect(Tok::LBrace, "to open the kernel body")?;
            let mut stmts = Vec::new();
            while self.peek() != &Tok::RBrace {
                if self.peek() == &Tok::Eof {
                    return Err(ParseError::new(
                        self.span(),
                        format!("kernel `{name}` is missing its closing `}}`"),
                    ));
                }
                stmts.push(self.stmt()?);
            }
            self.bump(); // `}`
            let exprs = std::mem::take(&mut self.exprs);
            kernels.push(Kernel {
                name,
                span,
                stmts,
                exprs,
            });
        }
        Ok(Program { kernels })
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, ParseError> {
        let span = self.span();
        let stmt = match self.peek() {
            Tok::KwI32 => {
                self.bump();
                if self.eat(&Tok::LBracket) {
                    self.expect(Tok::RBracket, "to finish the array type")?;
                    let (name, span) = self.expect_ident("an array name")?;
                    Stmt::ArrayDecl { name, span }
                } else {
                    let (name, span) = self.expect_ident("a variable name")?;
                    self.expect(Tok::Assign, "to initialize the declaration")?;
                    let expr = self.expr(0)?;
                    Stmt::ScalarDecl { name, span, expr }
                }
            }
            Tok::KwRec => {
                self.bump();
                self.expect(Tok::KwI32, "after `rec`")?;
                let (name, span) = self.expect_ident("a recurrence name")?;
                self.expect(Tok::Assign, "to give the initial value")?;
                let init = self.int_literal("a literal initial value")?;
                Stmt::RecDecl { name, span, init }
            }
            Tok::KwOut => {
                self.bump();
                self.expect(Tok::LParen, "after `out`")?;
                let expr = self.expr(0)?;
                self.expect(Tok::RParen, "to finish `out(...)`")?;
                Stmt::Out { span, expr }
            }
            Tok::Ident(_) => {
                let name = self.take_ident();
                if self.eat(&Tok::LBracket) {
                    let index = self.expr(0)?;
                    self.expect(Tok::RBracket, "to finish the store address")?;
                    self.expect(Tok::Assign, "to give the stored value")?;
                    let value = self.expr(0)?;
                    Stmt::Store {
                        array: name,
                        span,
                        index,
                        value,
                    }
                } else {
                    self.expect(Tok::Assign, "to close the recurrence")?;
                    let expr = self.expr(0)?;
                    let distance = if self.eat(&Tok::At) {
                        let at = self.span();
                        let d = self.int_literal("a literal iteration distance")?;
                        if d < 1 {
                            return Err(ParseError::new(
                                at,
                                "recurrence distance must be at least 1",
                            ));
                        }
                        u32::try_from(d).map_err(|_| {
                            ParseError::new(at, "recurrence distance does not fit in 32 bits")
                        })?
                    } else {
                        1
                    };
                    Stmt::Close {
                        name,
                        span,
                        expr,
                        distance,
                    }
                }
            }
            other => {
                return Err(ParseError::new(
                    span,
                    format!("expected a statement, found {}", other.describe()),
                ));
            }
        };
        self.expect(Tok::Semi, "after the statement")?;
        Ok(stmt)
    }

    /// A literal integer with an optional leading `-`.
    fn int_literal(&mut self, context: &str) -> Result<i64, ParseError> {
        let negative = self.eat(&Tok::Minus);
        let span = self.span();
        match *self.peek() {
            Tok::Int(magnitude) => {
                self.bump();
                fold_literal(magnitude, negative, span)
            }
            ref other => Err(ParseError::new(
                span,
                format!("expected {context}, found {}", other.describe()),
            )),
        }
    }

    // ----- expressions -------------------------------------------------

    /// An expression inside `depth` open nesting levels.
    fn expr(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        let lhs = self.unary(depth)?;
        self.climb(lhs, 0, depth)
    }

    /// The binary operator at the cursor and its precedence level,
    /// loosest binding first (C order: `|` < `^` < `&` < `==` < `<` <
    /// shifts < additive < multiplicative).
    fn binary_op(&self) -> Option<(u8, BinOp)> {
        Some(match self.peek() {
            Tok::Pipe => (0, BinOp::Or),
            Tok::Caret => (1, BinOp::Xor),
            Tok::Amp => (2, BinOp::And),
            Tok::EqEq => (3, BinOp::Eq),
            Tok::Lt => (4, BinOp::Lt),
            Tok::Shl => (5, BinOp::Shl),
            Tok::Shr => (5, BinOp::Shr),
            Tok::Plus => (6, BinOp::Add),
            Tok::Minus => (6, BinOp::Sub),
            Tok::Star => (7, BinOp::Mul),
            Tok::Slash => (7, BinOp::Div),
            _ => return None,
        })
    }

    /// Precedence climbing: folds every following operator of level
    /// `min_level` or tighter onto `lhs`, left-associatively; an
    /// operator's right operand takes only tighter-binding operators.
    fn climb(
        &mut self,
        mut lhs: ExprId,
        min_level: u8,
        depth: usize,
    ) -> Result<ExprId, ParseError> {
        while let Some((level, op)) = self.binary_op() {
            if level < min_level {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.unary(depth)?;
            let rhs = self.climb(rhs, level + 1, depth)?;
            lhs = self.push(Expr::Binary { op, lhs, rhs, span });
        }
        Ok(lhs)
    }

    fn unary(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        // Parentheses are dispatched here rather than in `primary`, one
        // frame fewer per nesting level.
        match self.peek() {
            Tok::Minus | Tok::Tilde => self.prefixed(depth),
            Tok::LParen => self.paren(depth),
            _ => self.primary(depth),
        }
    }

    /// `-e` or `~e`; `-literal` folds to a negative constant (this is
    /// how negative `Const` payloads are written).
    fn prefixed(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        let span = self.span();
        let op = if self.peek() == &Tok::Minus {
            UnOp::Neg
        } else {
            UnOp::Not
        };
        self.bump();
        if let (UnOp::Neg, &Tok::Int(magnitude)) = (op, self.peek()) {
            let lit_span = self.span();
            self.bump();
            let value = fold_literal(magnitude, true, lit_span)?;
            return Ok(self.push(Expr::Int { value, span }));
        }
        let operand = self.unary(Self::nest(depth, span)?)?;
        Ok(self.push(Expr::Unary { op, operand, span }))
    }

    /// A primary expression other than a parenthesized one (which
    /// [`Parser::unary`] dispatches). Every form has its own function,
    /// so the frames that stay live while a nested expression is parsed
    /// are small (in unoptimized builds too, where each local keeps its
    /// own stack slot) and the nesting bound also bounds stack use.
    fn primary(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        match self.peek() {
            Tok::Int(_) => self.literal(),
            Tok::Ident(_) => self.name_or_load(depth),
            Tok::KwIn => self.input(),
            Tok::KwAbs | Tok::KwMin | Tok::KwMax | Tok::KwSelect | Tok::KwOut => {
                self.builtin(depth)
            }
            _ => Err(self.expected_expression()),
        }
    }

    #[cold]
    fn expected_expression(&self) -> ParseError {
        ParseError::new(
            self.span(),
            format!("expected an expression, found {}", self.peek().describe()),
        )
    }

    fn literal(&mut self) -> Result<ExprId, ParseError> {
        let span = self.span();
        let Tok::Int(magnitude) = *self.peek() else {
            unreachable!("literal on a non-literal");
        };
        self.bump();
        let value = fold_literal(magnitude, false, span)?;
        Ok(self.push(Expr::Int { value, span }))
    }

    /// `name` or the load `name[index]`.
    fn name_or_load(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        let span = self.span();
        let name = self.take_ident();
        if self.peek() != &Tok::LBracket {
            return Ok(self.push(Expr::Name { name, span }));
        }
        let index = self.index(depth)?;
        self.expect(Tok::RBracket, "to finish the load address")?;
        Ok(self.push(Expr::Load {
            array: name,
            span,
            index,
        }))
    }

    /// `in(channel)`.
    fn input(&mut self) -> Result<ExprId, ParseError> {
        let span = self.span();
        self.bump();
        self.expect(Tok::LParen, "after `in`")?;
        let ch_span = self.span();
        let channel = match *self.peek() {
            Tok::Int(ch) => {
                self.bump();
                u32::try_from(ch).map_err(|_| {
                    ParseError::new(ch_span, "in() channel index does not fit in 32 bits")
                })?
            }
            ref other => {
                return Err(ParseError::new(
                    ch_span,
                    format!(
                        "in() takes a literal channel index, found {}",
                        other.describe()
                    ),
                ));
            }
        };
        self.expect(Tok::RParen, "to finish `in(...)`")?;
        Ok(self.push(Expr::In { channel, span }))
    }

    /// A call of `abs`, `min`, `max`, `select` or `out`.
    fn builtin(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        let span = self.span();
        let keyword = self.peek().clone();
        self.bump();
        let expr = match keyword {
            Tok::KwAbs => {
                let [operand] = self.call_args("abs", depth, span)?;
                Expr::Unary {
                    op: UnOp::Abs,
                    operand,
                    span,
                }
            }
            Tok::KwMin | Tok::KwMax => {
                let (op, name) = if keyword == Tok::KwMin {
                    (BinOp::Min, "min")
                } else {
                    (BinOp::Max, "max")
                };
                let [lhs, rhs] = self.call_args(name, depth, span)?;
                Expr::Binary { op, lhs, rhs, span }
            }
            Tok::KwSelect => {
                let [cond, then, otherwise] = self.call_args("select", depth, span)?;
                Expr::Select {
                    cond,
                    then,
                    otherwise,
                    span,
                }
            }
            _ => {
                let [expr] = self.call_args("out", depth, span)?;
                Expr::OutValue { span, expr }
            }
        };
        Ok(self.push(expr))
    }

    /// `( expr )`, or `(name[i] = v)`: a store used as a value.
    fn paren(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        let depth = Self::nest(depth, self.span())?;
        self.bump();
        let inner = if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::LBracket {
            self.store_or_load(depth)?
        } else {
            self.expr(depth)?
        };
        self.expect(Tok::RParen, "to close the parenthesis")?;
        Ok(inner)
    }

    /// Inside parentheses, `name[i] = v` (a store whose value is
    /// used) or a load that starts an ordinary expression.
    fn store_or_load(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        let array_span = self.span();
        let array = self.take_ident();
        let index = self.index(depth)?;
        self.expect(Tok::RBracket, "to finish the address")?;
        if self.eat(&Tok::Assign) {
            let value = self.expr(depth)?;
            return Ok(self.push(Expr::StoreValue {
                array,
                span: array_span,
                index,
                value,
            }));
        }
        // Just a parenthesized load: resume the precedence climb with
        // it as the leftmost operand.
        let load = self.push(Expr::Load {
            array,
            span: array_span,
            index,
        });
        self.climb(load, 0, depth)
    }

    /// The `[index]` address after an array name, up to (not
    /// including) the `]`; the bracket opens a nesting level.
    fn index(&mut self, depth: usize) -> Result<ExprId, ParseError> {
        let depth = Self::nest(depth, self.span())?;
        self.bump(); // `[`
        self.expr(depth)
    }

    /// The parenthesized arguments of the built-in `name`, which takes
    /// exactly `N`; the argument list opens a nesting level at `at`,
    /// the call's name.
    fn call_args<const N: usize>(
        &mut self,
        name: &str,
        depth: usize,
        at: Span,
    ) -> Result<[ExprId; N], ParseError> {
        let depth = Self::nest(depth, at)?;
        let open = self.span();
        self.expect(Tok::LParen, format_args!("after `{name}`"))?;
        // Surplus arguments are still parsed (an error inside one comes
        // first) and counted for the diagnostic, but not kept.
        let mut args = [ExprId(0); N];
        let mut found = 0;
        if self.peek() != &Tok::RParen {
            loop {
                let arg = self.expr(depth)?;
                if let Some(slot) = args.get_mut(found) {
                    *slot = arg;
                }
                found += 1;
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, format_args!("to finish `{name}(...)`"))?;
        if found != N {
            return Err(ParseError::new(
                open,
                format!("{name}() takes exactly {N} argument(s), found {found}"),
            ));
        }
        Ok(args)
    }
}

/// Folds a literal magnitude (with optional leading `-`) into an
/// `i64`, admitting `-(2^63)` = `i64::MIN` and nothing larger.
fn fold_literal(magnitude: u64, negative: bool, span: Span) -> Result<i64, ParseError> {
    if negative {
        if magnitude > 1u64 << 63 {
            return Err(ParseError::new(span, "integer literal out of range"));
        }
        Ok((magnitude as i64).wrapping_neg())
    } else {
        i64::try_from(magnitude).map_err(|_| ParseError::new(span, "integer literal out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_kernel(src: &str) -> Kernel<'_> {
        let program = parse(src).expect("parse");
        assert_eq!(program.kernels.len(), 1);
        program.kernels.into_iter().next().unwrap()
    }

    #[test]
    fn parses_the_statement_forms() {
        let k = one_kernel(
            "kernel k {\n\
             i32[] mem;\n\
             i32 x = in(0);\n\
             rec i32 s = -3;\n\
             i32 y = mem[x + 1] * 2;\n\
             mem[y] = x;\n\
             s = s + y @ 2;\n\
             out(s);\n\
             }",
        );
        assert_eq!(k.name, "k");
        assert_eq!(k.stmts.len(), 7);
        assert!(matches!(k.stmts[0], Stmt::ArrayDecl { .. }));
        assert!(matches!(k.stmts[2], Stmt::RecDecl { init: -3, .. }));
        assert!(matches!(k.stmts[5], Stmt::Close { distance: 2, .. }));
    }

    #[test]
    fn precedence_follows_c() {
        // 1 + 2 * 3 parses as 1 + (2 * 3).
        let k = one_kernel("kernel k { i32 x = 1 + 2 * 3; }");
        let Stmt::ScalarDecl { expr, .. } = &k.stmts[0] else {
            panic!("expected decl");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = k.expr(*expr)
        else {
            panic!("expected + at the root, got {expr:?}");
        };
        assert!(matches!(k.expr(*rhs), Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn store_value_in_parens() {
        let k = one_kernel("kernel k { i32[] m; i32 x = 1; i32 y = (m[x] = x) + 1; }");
        let Stmt::ScalarDecl { expr, .. } = &k.stmts[2] else {
            panic!("expected decl");
        };
        let Expr::Binary { lhs, .. } = k.expr(*expr) else {
            panic!("expected + at the root");
        };
        assert!(matches!(k.expr(*lhs), Expr::StoreValue { .. }));
    }

    #[test]
    fn parenthesized_load_still_climbs() {
        let k = one_kernel("kernel k { i32[] m; i32 x = 1; i32 y = (m[x] + 2); }");
        let Stmt::ScalarDecl { expr, .. } = &k.stmts[2] else {
            panic!("expected decl");
        };
        assert!(matches!(k.expr(*expr), Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn missing_semicolon_is_positioned() {
        let err = parse("kernel k {\n  i32 x = 1\n}").unwrap_err();
        assert_eq!((err.line, err.col), (3, 1));
        assert!(err.message.contains("expected `;`"), "{}", err.message);
    }

    #[test]
    fn zero_distance_rejected() {
        let err = parse("kernel k { rec i32 s = 0; s = s @ 0; }").unwrap_err();
        assert!(err.message.contains("at least 1"), "{}", err.message);
    }

    #[test]
    fn deep_nesting_degrades_to_an_error() {
        let mut src = String::from("kernel k { i32 x = ");
        src.push_str(&"(".repeat(4000));
        src.push('1');
        src.push_str(&")".repeat(4000));
        src.push_str("; }");
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{}", err.message);
    }

    /// `kernel k` whose output is `a` wrapped in `levels` copies of
    /// `open` ... `close`.
    fn nested(levels: usize, open: &str, close: &str) -> String {
        format!(
            "kernel k {{ i32[] mem; i32 a = in(0); out({}a{}); }}",
            open.repeat(levels),
            close.repeat(levels)
        )
    }

    /// Parses `levels` nestings of one construct: `Ok` or the error's
    /// `(line, col, message)`.
    fn nesting_verdict(levels: usize, open: &str, close: &str) -> Result<(), (u32, u32, String)> {
        parse(&nested(levels, open, close))
            .map(|_| ())
            .map_err(|e| (e.line, e.col, e.message))
    }

    /// The verdict for one more nesting than allowed: refused at the
    /// construct that opens level `MAX_DEPTH + 1` (a call at its name,
    /// an index at its `[`).
    fn too_deep<T>(open: &str) -> Result<T, (u32, u32, String)> {
        let at = open.find('[').unwrap_or(0);
        let col =
            "kernel k { i32[] mem; i32 a = in(0); out(".len() + MAX_DEPTH * open.len() + at + 1;
        Err((1, col as u32, "expression nesting too deep".into()))
    }

    #[test]
    fn nesting_is_charged_per_construct() {
        // Each parenthesis, unary operator, call argument list and
        // index bracket is one level, whatever precedence levels lie
        // between them: MAX_DEPTH levels parse, and one more is refused
        // where it opens.
        for (open, close) in [
            ("(", ")"),
            ("-", ""),
            ("~", ""),
            ("abs(", ")"),
            ("mem[", "]"),
        ] {
            for levels in [10, MAX_DEPTH] {
                assert_eq!(
                    nesting_verdict(levels, open, close),
                    Ok(()),
                    "{levels} x {open}"
                );
            }
            for levels in [MAX_DEPTH + 1, 4000] {
                assert_eq!(
                    nesting_verdict(levels, open, close),
                    too_deep(open),
                    "{levels} x {open}"
                );
            }
        }
    }

    #[test]
    fn nested_parentheses_fit_a_small_stack() {
        // The bound keeps recursion shallow: MAX_DEPTH parentheses
        // compile, and deeper ones are refused, on a 256 KiB thread.
        let verdicts = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                [MAX_DEPTH, MAX_DEPTH + 1, 4000].map(|levels| {
                    let src = nested(levels, "(", ")");
                    crate::compile_one(&src)
                        .map(|dfg| dfg.num_nodes())
                        .map_err(|e| (e.line, e.col, e.message))
                })
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(verdicts[0], Ok(2), "in(0) and its output");
        assert_eq!(verdicts[1], too_deep("("));
        assert_eq!(verdicts[2], too_deep("("));
    }

    #[test]
    fn negative_literal_folds_to_min() {
        let k = one_kernel("kernel k { i32 x = -9223372036854775808; }");
        let Stmt::ScalarDecl { expr, .. } = &k.stmts[0] else {
            panic!("expected decl");
        };
        assert!(matches!(
            k.expr(*expr),
            Expr::Int {
                value: i64::MIN,
                ..
            }
        ));
    }

    #[test]
    fn wrong_call_arity_reported() {
        let err = parse("kernel k { i32 x = min(1); }").unwrap_err();
        assert!(err.message.contains("exactly 2"), "{}", err.message);
    }

    #[test]
    fn missing_close_brace_reported() {
        let err = parse("kernel k { i32 x = 1;").unwrap_err();
        assert!(err.message.contains("closing"), "{}", err.message);
    }
}
