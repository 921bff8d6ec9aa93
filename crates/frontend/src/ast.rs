//! The abstract syntax tree of a `.mk` program.
//!
//! Every node carries the [`Span`] it started at, so the DFG builder
//! can anchor semantic diagnostics (undefined names, type mismatches,
//! recurrence misuse) to source positions without re-parsing. Names
//! borrow from the source text (`'src`), so building the tree copies
//! no identifier. A kernel's expressions live in one vector
//! ([`Kernel::exprs`]) and refer to their operands by [`ExprId`]: the
//! tree costs one allocation, not one per operator, and dropping a
//! long operator chain does not recurse once per operator.

use crate::lexer::Span;

/// A whole source file: zero or more kernels.
#[derive(Clone, Debug)]
pub struct Program<'src> {
    /// The kernels, in source order.
    pub kernels: Vec<Kernel<'src>>,
}

/// One `kernel name { ... }` block.
#[derive(Clone, Debug)]
pub struct Kernel<'src> {
    /// The kernel's name (becomes the [`cgra_dfg::Dfg`] name).
    pub name: &'src str,
    /// Where the name appears.
    pub span: Span,
    /// The body, in source order.
    pub stmts: Vec<Stmt<'src>>,
    /// Every expression of the body, indexed by [`ExprId`].
    pub exprs: Vec<Expr<'src>>,
}

impl<'src> Kernel<'src> {
    /// The expression `id` names.
    pub fn expr(&self, id: ExprId) -> &Expr<'src> {
        &self.exprs[id.index()]
    }
}

/// An expression of a kernel: its index in [`Kernel::exprs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExprId(pub u32);

impl ExprId {
    /// The index into [`Kernel::exprs`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One statement.
#[derive(Clone, Debug)]
pub enum Stmt<'src> {
    /// `i32[] name;` — declares a memory region for loads/stores.
    ArrayDecl {
        /// The array name.
        name: &'src str,
        /// Where the name appears.
        span: Span,
    },
    /// `i32 name = expr;` — names the value of an expression.
    ScalarDecl {
        /// The scalar name.
        name: &'src str,
        /// Where the name appears.
        span: Span,
        /// The initializer.
        expr: ExprId,
    },
    /// `rec i32 name = init;` — a loop-carried recurrence (a φ node
    /// seeded with `init`), closed later by a [`Stmt::Close`].
    RecDecl {
        /// The recurrence name.
        name: &'src str,
        /// Where the name appears.
        span: Span,
        /// The first-iteration value (the φ payload).
        init: i64,
    },
    /// `name = expr;` / `name = expr @ d;` — closes a recurrence with
    /// the value carried `d` iterations forward (default 1).
    Close {
        /// The recurrence being closed.
        name: &'src str,
        /// Where the name appears.
        span: Span,
        /// The carried value.
        expr: ExprId,
        /// The iteration distance (≥ 1, enforced by the parser).
        distance: u32,
    },
    /// `name[index] = value;` — a store whose value nobody reads.
    Store {
        /// The array name.
        array: &'src str,
        /// Where the array name appears.
        span: Span,
        /// The address expression.
        index: ExprId,
        /// The stored value.
        value: ExprId,
    },
    /// `out(expr);` — marks a loop live-out.
    Out {
        /// Where `out` appears.
        span: Span,
        /// The exported value.
        expr: ExprId,
    },
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// `-e`
    Neg,
    /// `~e`
    Not,
    /// `abs(e)`
    Abs,
}

/// Binary operators, in surface form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `==`
    Eq,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
}

/// One expression. Every operator application becomes one DFG node;
/// integer literals become fresh `Const` nodes per occurrence.
#[derive(Clone, Debug)]
pub enum Expr<'src> {
    /// An integer literal.
    Int {
        /// The literal value (a leading `-` on a literal is folded).
        value: i64,
        /// Where the literal starts.
        span: Span,
    },
    /// A reference to a declared scalar or recurrence.
    Name {
        /// The referenced name.
        name: &'src str,
        /// Where the reference appears.
        span: Span,
    },
    /// `in(ch)` — the per-iteration live-in on channel `ch`.
    In {
        /// The input channel.
        channel: u32,
        /// Where `in` appears.
        span: Span,
    },
    /// A unary operator application.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: ExprId,
        /// Where the operator appears.
        span: Span,
    },
    /// A binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand (slot 0).
        lhs: ExprId,
        /// Right operand (slot 1).
        rhs: ExprId,
        /// Where the operator appears.
        span: Span,
    },
    /// `select(c, t, e)`.
    Select {
        /// The condition (slot 0).
        cond: ExprId,
        /// Value when the condition is non-zero (slot 1).
        then: ExprId,
        /// Value when the condition is zero (slot 2).
        otherwise: ExprId,
        /// Where `select` appears.
        span: Span,
    },
    /// `name[index]` — a load.
    Load {
        /// The array name.
        array: &'src str,
        /// Where the array name appears.
        span: Span,
        /// The address expression.
        index: ExprId,
    },
    /// `(name[index] = value)` — a store used as a value (yields the
    /// stored value, as in C).
    StoreValue {
        /// The array name.
        array: &'src str,
        /// Where the array name appears.
        span: Span,
        /// The address expression.
        index: ExprId,
        /// The stored value.
        value: ExprId,
    },
    /// `out(expr)` used as a value (yields the exported value).
    OutValue {
        /// Where `out` appears.
        span: Span,
        /// The exported value.
        expr: ExprId,
    },
}

impl Expr<'_> {
    /// The span the expression starts at.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int { span, .. }
            | Expr::Name { span, .. }
            | Expr::In { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Select { span, .. }
            | Expr::Load { span, .. }
            | Expr::StoreValue { span, .. }
            | Expr::OutValue { span, .. } => *span,
        }
    }
}
