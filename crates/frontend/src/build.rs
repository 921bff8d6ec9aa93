//! Per-kernel DFG builder: AST → [`Dfg`], with semantic checks.
//!
//! The builder walks statements in source order, creating one DFG node
//! per operation (operands before operators, so node indices are
//! automatically topological over data edges) and resolving names
//! against a scalar/array/recurrence environment. Every semantic error
//! — undefined or redefined names, type mismatches, recurrence misuse
//! — carries the span of the offending token.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use cgra_dfg::{Dfg, EdgeKind, NodeId, Operation};

use crate::ast::{BinOp, Expr, ExprId, Kernel, Program, Stmt, UnOp};
use crate::lexer::Span;
use crate::ParseError;

/// What a name is bound to.
enum Binding {
    /// A scalar value: references resolve to this node.
    Scalar(NodeId),
    /// A memory region; only valid under `name[...]`.
    Array,
    /// A recurrence: the φ node, whether it has been closed yet, and
    /// the declaration span (for the "never closed" diagnostic).
    Rec {
        phi: NodeId,
        closed: bool,
        decl: Span,
    },
}

/// Builds every kernel of a parsed program, in source order.
pub fn build_program(program: &Program<'_>) -> Result<Vec<Dfg>, ParseError> {
    let mut seen: HashMap<&str, Span> = HashMap::new();
    for kernel in &program.kernels {
        if seen.insert(kernel.name, kernel.span).is_some() {
            return Err(ParseError::new(
                kernel.span,
                format!("duplicate kernel name `{}`", kernel.name),
            ));
        }
    }
    program.kernels.iter().map(build_kernel).collect()
}

/// Builds one kernel into a validated [`Dfg`].
pub fn build_kernel(kernel: &Kernel<'_>) -> Result<Dfg, ParseError> {
    let mut b = KernelBuilder {
        dfg: Dfg::new(kernel.name),
        // At most one name per statement.
        env: HashMap::with_capacity(kernel.stmts.len()),
        exprs: &kernel.exprs,
        spine: Vec::new(),
        temps: 0,
    };
    for stmt in &kernel.stmts {
        b.stmt(stmt)?;
    }
    // Every recurrence must have been closed — an unclosed φ has no
    // operand, which is a missing loop-carried dependence, not a
    // mapper-level validation failure.
    let mut unclosed: Option<(&str, Span)> = None;
    for (name, binding) in &b.env {
        if let Binding::Rec {
            closed: false,
            decl,
            ..
        } = binding
        {
            // Deterministic choice when several are unclosed: the
            // earliest declaration.
            if unclosed.is_none_or(|(_, s)| (decl.line, decl.col) < (s.line, s.col)) {
                unclosed = Some((name, *decl));
            }
        }
    }
    if let Some((name, decl)) = unclosed {
        return Err(ParseError::new(
            decl,
            format!("recurrence `{name}` is never closed (assign `{name} = ...;` in the body)"),
        ));
    }
    if let Err(e) = b.dfg.validate() {
        // Unreachable by construction (define-before-use makes the
        // data subgraph acyclic; closes only target φ nodes with
        // distance ≥ 1) — kept as a hard backstop so a builder bug
        // can never hand the mapper an invalid graph.
        return Err(ParseError::new(
            kernel.span,
            format!("internal: built an invalid DFG for `{}`: {e}", kernel.name),
        ));
    }
    Ok(b.dfg)
}

/// Lowers one kernel; names resolve against an environment that
/// borrows them from the kernel's tree.
struct KernelBuilder<'k> {
    dfg: Dfg,
    env: HashMap<&'k str, Binding>,
    exprs: &'k [Expr<'k>],
    /// Scratch for [`KernelBuilder::binary_chain`]: the operators of
    /// the left-leaning chains being lowered, innermost last.
    spine: Vec<ExprId>,
    temps: usize,
}

impl<'k> KernelBuilder<'k> {
    /// The next temporary's node name: `prefix` and a running count
    /// (`c1`, `b2`, ...).
    fn fresh_name(&mut self, prefix: &str) -> String {
        self.temps += 1;
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut n = self.temps;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let digits = std::str::from_utf8(&digits[at..]).expect("ASCII digits");
        let mut name = String::with_capacity(prefix.len() + digits.len());
        name.push_str(prefix);
        name.push_str(digits);
        name
    }

    fn declare(&mut self, name: &'k str, span: Span, binding: Binding) -> Result<(), ParseError> {
        match self.env.entry(name) {
            Entry::Occupied(_) => Err(ParseError::new(span, format!("redefinition of `{name}`"))),
            Entry::Vacant(slot) => {
                slot.insert(binding);
                Ok(())
            }
        }
    }

    /// Resolves a scalar reference. `declaring` is the name currently
    /// being declared, if any — referencing it is the self-dependence
    /// special case, which gets its own diagnostic pointing at the
    /// `rec` form.
    fn scalar(
        &self,
        name: &str,
        span: Span,
        declaring: Option<&str>,
    ) -> Result<NodeId, ParseError> {
        match self.env.get(name) {
            Some(Binding::Scalar(id)) => Ok(*id),
            Some(Binding::Rec { phi, .. }) => Ok(*phi),
            Some(Binding::Array) => Err(ParseError::new(
                span,
                format!("type mismatch: `{name}` is an array, expected a scalar value"),
            )),
            None if Some(name) == declaring => Err(ParseError::new(
                span,
                format!(
                    "`{name}` depends on itself: within an iteration a value cannot \
                     be its own operand; declare `rec i32 {name} = ...;` and close it \
                     with `{name} = ...;` to carry it across iterations"
                ),
            )),
            None => Err(ParseError::new(span, format!("undefined name `{name}`"))),
        }
    }

    /// Checks that `name` is a declared array (loads and stores).
    fn array(&self, name: &str, span: Span) -> Result<(), ParseError> {
        match self.env.get(name) {
            Some(Binding::Array) => Ok(()),
            Some(_) => Err(ParseError::new(
                span,
                format!("type mismatch: cannot index `{name}`, it is not an array"),
            )),
            None => Err(ParseError::new(span, format!("undefined name `{name}`"))),
        }
    }

    fn stmt(&mut self, stmt: &Stmt<'k>) -> Result<(), ParseError> {
        match stmt {
            Stmt::ArrayDecl { name, span } => self.declare(name, *span, Binding::Array),
            Stmt::ScalarDecl { name, span, expr } => {
                let id = self.expr(*expr, Some(name))?;
                self.declare(name, *span, Binding::Scalar(id))
            }
            Stmt::RecDecl { name, span, init } => {
                let phi = self.dfg.add_node(Operation::Phi(*init), *name);
                self.declare(
                    name,
                    *span,
                    Binding::Rec {
                        phi,
                        closed: false,
                        decl: *span,
                    },
                )
            }
            Stmt::Close {
                name,
                span,
                expr,
                distance,
            } => {
                let value = self.expr(*expr, None)?;
                match self.env.get_mut(name) {
                    Some(Binding::Rec { closed: true, .. }) => Err(ParseError::new(
                        *span,
                        format!("recurrence `{name}` is already closed"),
                    )),
                    Some(Binding::Rec { phi, closed, .. }) => {
                        let phi = *phi;
                        *closed = true;
                        self.dfg.add_edge(
                            value,
                            phi,
                            0,
                            EdgeKind::LoopCarried {
                                distance: *distance,
                            },
                        );
                        Ok(())
                    }
                    Some(Binding::Scalar(_)) => Err(ParseError::new(
                        *span,
                        format!(
                            "`{name}` is not a recurrence: assigning it again would make \
                             it depend on a later value in the same iteration; declare \
                             `rec i32 {name} = ...;` for a loop-carried dependence"
                        ),
                    )),
                    Some(Binding::Array) => Err(ParseError::new(
                        *span,
                        format!("type mismatch: cannot assign to array `{name}`"),
                    )),
                    None => Err(ParseError::new(*span, format!("undefined name `{name}`"))),
                }
            }
            Stmt::Store {
                array,
                span,
                index,
                value,
            } => self.store(array, *span, *index, *value).map(|_| ()),
            Stmt::Out { expr, .. } => {
                let value = self.expr(*expr, None)?;
                let name = self.fresh_name("out");
                let id = self.dfg.add_node(Operation::Output, name);
                self.dfg.add_edge(value, id, 0, EdgeKind::Data);
                Ok(())
            }
        }
    }

    fn store(
        &mut self,
        array: &str,
        span: Span,
        index: ExprId,
        value: ExprId,
    ) -> Result<NodeId, ParseError> {
        self.array(array, span)?;
        let addr = self.expr(index, None)?;
        let val = self.expr(value, None)?;
        let name = self.fresh_name("st");
        let id = self.dfg.add_node(Operation::Store, name);
        self.dfg.add_edge(addr, id, 0, EdgeKind::Data);
        self.dfg.add_edge(val, id, 1, EdgeKind::Data);
        Ok(id)
    }

    /// Lowers the binary operator `id` and the chain of binary
    /// operators down its left operands (`a + b - c` leans left) in a
    /// loop rather than one recursion per operator, so a long chain
    /// cannot exhaust the stack. Nodes come out in the same post-order
    /// as recursion: the innermost left operand, then per operator its
    /// right operand and itself.
    fn binary_chain(&mut self, id: ExprId, declaring: Option<&str>) -> Result<NodeId, ParseError> {
        let base = self.spine.len();
        let mut leftmost = id;
        while let Expr::Binary { lhs, .. } = self.exprs[leftmost.index()] {
            self.spine.push(leftmost);
            leftmost = lhs;
        }
        let mut acc = self.expr(leftmost, declaring)?;
        for k in (base..self.spine.len()).rev() {
            let Expr::Binary { op, rhs, .. } = self.exprs[self.spine[k].index()] else {
                unreachable!("the spine holds binary operators");
            };
            let b = self.expr(rhs, declaring)?;
            let operation = match op {
                BinOp::Add => Operation::Add,
                BinOp::Sub => Operation::Sub,
                BinOp::Mul => Operation::Mul,
                BinOp::Div => Operation::Div,
                BinOp::And => Operation::And,
                BinOp::Or => Operation::Or,
                BinOp::Xor => Operation::Xor,
                BinOp::Shl => Operation::Shl,
                BinOp::Shr => Operation::Shr,
                BinOp::Lt => Operation::Lt,
                BinOp::Eq => Operation::Eq,
                BinOp::Min => Operation::Min,
                BinOp::Max => Operation::Max,
            };
            let name = self.fresh_name("b");
            let node = self.dfg.add_node(operation, name);
            self.dfg.add_edge(acc, node, 0, EdgeKind::Data);
            self.dfg.add_edge(b, node, 1, EdgeKind::Data);
            acc = node;
        }
        self.spine.truncate(base);
        Ok(acc)
    }

    /// Lowers an expression to the node producing its value, creating
    /// operand nodes first (post-order).
    fn expr(&mut self, id: ExprId, declaring: Option<&str>) -> Result<NodeId, ParseError> {
        match &self.exprs[id.index()] {
            Expr::Int { value, .. } => {
                let name = self.fresh_name("c");
                Ok(self.dfg.add_node(Operation::Const(*value), name))
            }
            Expr::Name { name, span } => self.scalar(name, *span, declaring),
            Expr::In { channel, .. } => {
                let name = self.fresh_name("in");
                Ok(self.dfg.add_node(Operation::Input(*channel), name))
            }
            Expr::Unary { op, operand, .. } => {
                let a = self.expr(*operand, declaring)?;
                let operation = match op {
                    UnOp::Neg => Operation::Neg,
                    UnOp::Not => Operation::Not,
                    UnOp::Abs => Operation::Abs,
                };
                let name = self.fresh_name("u");
                let id = self.dfg.add_node(operation, name);
                self.dfg.add_edge(a, id, 0, EdgeKind::Data);
                Ok(id)
            }
            Expr::Binary { .. } => self.binary_chain(id, declaring),
            Expr::Select {
                cond,
                then,
                otherwise,
                ..
            } => {
                let c = self.expr(*cond, declaring)?;
                let t = self.expr(*then, declaring)?;
                let e = self.expr(*otherwise, declaring)?;
                let name = self.fresh_name("s");
                let id = self.dfg.add_node(Operation::Select, name);
                self.dfg.add_edge(c, id, 0, EdgeKind::Data);
                self.dfg.add_edge(t, id, 1, EdgeKind::Data);
                self.dfg.add_edge(e, id, 2, EdgeKind::Data);
                Ok(id)
            }
            Expr::Load { array, span, index } => {
                self.array(array, *span)?;
                let addr = self.expr(*index, declaring)?;
                let name = self.fresh_name("ld");
                let id = self.dfg.add_node(Operation::Load, name);
                self.dfg.add_edge(addr, id, 0, EdgeKind::Data);
                Ok(id)
            }
            Expr::StoreValue {
                array,
                span,
                index,
                value,
            } => self.store(array, *span, *index, *value),
            Expr::OutValue { expr, .. } => {
                let value = self.expr(*expr, declaring)?;
                let name = self.fresh_name("out");
                let id = self.dfg.add_node(Operation::Output, name);
                self.dfg.add_edge(value, id, 0, EdgeKind::Data);
                Ok(id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn build_one(src: &str) -> Result<Dfg, ParseError> {
        build_program(&parse(src)?).map(|mut v| v.remove(0))
    }

    #[test]
    fn accumulator_builds_the_expected_graph() {
        let dfg = build_one(
            "kernel acc {\n\
             i32 x = in(0);\n\
             rec i32 s = 0;\n\
             s = s + x;\n\
             out(s);\n\
             }",
        )
        .unwrap();
        assert_eq!(dfg.name(), "acc");
        assert_eq!(dfg.num_nodes(), 4); // in, phi, add, out
        assert_eq!(dfg.recurrence_cycles(), vec![(2, 1)]);
    }

    #[test]
    fn undefined_name_is_positioned() {
        let err = build_one("kernel k {\n  i32 x = y + 1;\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 11));
        assert_eq!(err.message, "undefined name `y`");
    }

    #[test]
    fn self_dependence_points_at_rec() {
        let err = build_one("kernel k { i32 x = x + 1; }").unwrap_err();
        assert!(err.message.contains("rec i32 x"), "{}", err.message);
    }

    #[test]
    fn reassigning_a_scalar_points_at_rec() {
        let err = build_one("kernel k { i32 x = 1; x = x + 1; }").unwrap_err();
        assert!(err.message.contains("not a recurrence"), "{}", err.message);
    }

    #[test]
    fn array_in_scalar_position_is_a_type_mismatch() {
        let err = build_one("kernel k { i32[] m; i32 x = m + 1; }").unwrap_err();
        assert!(err.message.contains("type mismatch"), "{}", err.message);
    }

    #[test]
    fn indexing_a_scalar_is_a_type_mismatch() {
        let err = build_one("kernel k { i32 x = 1; i32 y = x[0]; }").unwrap_err();
        assert!(err.message.contains("not an array"), "{}", err.message);
    }

    #[test]
    fn unclosed_recurrence_reported_at_declaration() {
        let err = build_one("kernel k {\n  rec i32 s = 0;\n  out(s);\n}").unwrap_err();
        assert_eq!((err.line, err.col), (2, 11));
        assert!(err.message.contains("never closed"), "{}", err.message);
    }

    #[test]
    fn double_close_rejected() {
        let err = build_one("kernel k { rec i32 s = 0; s = s + 1; s = s + 2; }").unwrap_err();
        assert!(err.message.contains("already closed"), "{}", err.message);
    }

    #[test]
    fn self_close_is_legal() {
        // s = s @ 1: the φ carries its own value — a 1-cycle.
        let dfg = build_one("kernel k { rec i32 s = 7; s = s; out(s); }").unwrap();
        assert_eq!(dfg.recurrence_cycles(), vec![(1, 1)]);
    }

    #[test]
    fn duplicate_kernel_names_rejected() {
        let err = build_program(&parse("kernel k { } kernel k { }").unwrap()).unwrap_err();
        assert!(err.message.contains("duplicate kernel"), "{}", err.message);
    }

    #[test]
    fn store_value_feeds_downstream() {
        let dfg = build_one("kernel k { i32[] m; i32 a = in(0); i32 v = (m[a] = a) + 1; out(v); }")
            .unwrap();
        let stores: Vec<_> = dfg
            .nodes()
            .filter(|&v| dfg.op(v) == Operation::Store)
            .collect();
        assert_eq!(stores.len(), 1);
        assert_eq!(dfg.out_edges(stores[0]).count(), 1, "store value consumed");
    }
}
