//! Execution semantics shared by every interpreter of `clc` kernels.
//!
//! The bytecode VM ([`super::vm`]) is the only interpreter in the
//! production crates. The tree-walking reference oracle that the
//! differential suite holds it against lives in the test-only
//! `dopia-interp-oracle` crate and builds on the helpers here, so both
//! engines bind arguments, split barrier phases, evaluate binary operators
//! and analyze loops with one implementation and report byte-identical
//! errors.

use super::tracer::Tracer;
use super::Value;
use crate::buffer::{ArgValue, Memory};
use clc::{BinOp, Expr, Param, Span, Stmt, Type, UnOp};
use std::fmt;

/// Execution mode; see the [`crate::interp`] module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Faithful functional execution.
    Full,
    /// Sampling/profiling execution: global stores suppressed, analyzable
    /// loops extrapolated.
    Profile,
}

/// In profile mode, how many iterations of an analyzable loop are executed
/// before extrapolating the remainder.
pub const PROFILE_LOOP_SAMPLES: usize = 4;

/// Runtime error (out-of-bounds access, division by zero, unsupported
/// construct, argument mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    pub message: String,
    pub span: Span,
}

impl ExecError {
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ExecError { message: message.into(), span }
    }

    /// A functional ([`Mode::Full`]) write to a virtual buffer: the buffer
    /// has no storage, so the value would be lost without a trace.
    pub fn virtual_store(index: i64, span: Span) -> Self {
        ExecError::new(
            format!("store index {} targets a virtual buffer in a functional run", index),
            span,
        )
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ExecError {}

pub type ExecResult<T> = Result<T, ExecError>;

/// Bind kernel arguments to parameter slots (in declaration order),
/// validating kinds. Shared by the VM and the reference oracle so both report
/// byte-identical argument errors.
pub fn bind_args(
    kernel_name: &str,
    params: &[Param],
    kernel_span: Span,
    args: &[ArgValue],
    mem: &Memory,
) -> ExecResult<Vec<Value>> {
    if args.len() != params.len() {
        return Err(ExecError::new(
            format!(
                "kernel `{}` takes {} arguments, {} supplied",
                kernel_name,
                params.len(),
                args.len()
            ),
            kernel_span,
        ));
    }
    let mut bindings = Vec::with_capacity(args.len());
    for (param, arg) in params.iter().zip(args) {
        let value = match (&param.ty, arg) {
            (Type::Ptr { elem, .. }, ArgValue::Buffer(id)) => {
                let buf_elem = mem.get(*id).elem();
                // Float pointers must bind float buffers and vice versa; the
                // integer width is flexible (int buffers back int/long ptrs).
                if elem.is_float() != buf_elem.is_float() {
                    return Err(ExecError::new(
                        format!(
                            "argument for `{}` has element type {} but buffer holds {}",
                            param.name, elem, buf_elem
                        ),
                        param.span,
                    ));
                }
                Value::GlobalPtr { buf: *id, offset: 0, elem: *elem }
            }
            (Type::Scalar(s), ArgValue::Int(v)) if s.is_integer() => Value::Int(*v),
            (Type::Scalar(s), ArgValue::Float(v)) if s.is_float() => Value::Float(*v),
            (Type::Scalar(s), ArgValue::Int(v)) if s.is_float() => Value::Float(*v as f32),
            (ty, arg) => {
                return Err(ExecError::new(
                    format!("argument for `{}` ({}) does not match {:?}", param.name, ty, arg),
                    param.span,
                ));
            }
        };
        bindings.push(value);
    }
    Ok(bindings)
}

/// Split the kernel body into barrier-delimited phases. A `barrier(...)`
/// appearing anywhere other than a top-level statement is an error.
pub fn split_phases(body: &[Stmt], kernel_span: Span) -> ExecResult<Vec<&[Stmt]>> {
    fn contains_nested_barrier(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Expr(Expr::Call { name, .. }) => name == "barrier",
            Stmt::If { then, els, .. } => {
                contains_nested_barrier(then)
                    || els.as_deref().is_some_and(contains_nested_barrier)
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                contains_nested_barrier(body)
            }
            Stmt::Block { stmts, .. } => stmts.iter().any(contains_nested_barrier),
            _ => false,
        }
    }

    let mut phases = Vec::new();
    let mut start = 0;
    for (i, stmt) in body.iter().enumerate() {
        if let Stmt::Expr(Expr::Call { name, .. }) = stmt {
            if name == "barrier" {
                phases.push(&body[start..i]);
                start = i + 1;
                continue;
            }
        }
        if contains_nested_barrier(stmt) {
            return Err(ExecError::new(
                "barrier() must be a top-level statement of the kernel body",
                kernel_span,
            ));
        }
    }
    phases.push(&body[start..]);
    Ok(phases)
}

/// The binary-operator kernel shared verbatim by the VM and the reference
/// oracle: one arith event, then C-style evaluation on int or float
/// operands.
pub fn binary_op<T: Tracer>(
    tracer: &mut T,
    op: BinOp,
    l: Value,
    r: Value,
    span: Span,
) -> ExecResult<Value> {
    let float = l.is_float() || r.is_float();
    tracer.arith(float, 1.0);
    use BinOp::*;
    if float {
        let (a, b) = (l.as_f32(), r.as_f32());
        return Ok(match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => Value::Float(a / b),
            Lt => Value::Int((a < b) as i64),
            Gt => Value::Int((a > b) as i64),
            Le => Value::Int((a <= b) as i64),
            Ge => Value::Int((a >= b) as i64),
            Eq => Value::Int((a == b) as i64),
            Ne => Value::Int((a != b) as i64),
            other => {
                return Err(ExecError::new(
                    format!("`{}` on float operands", other.symbol()),
                    span,
                ));
            }
        });
    }
    let (a, b) = (l.as_i64(), r.as_i64());
    Ok(match op {
        Add => Value::Int(a.wrapping_add(b)),
        Sub => Value::Int(a.wrapping_sub(b)),
        Mul => Value::Int(a.wrapping_mul(b)),
        Div => {
            if b == 0 {
                return Err(ExecError::new("integer division by zero", span));
            }
            Value::Int(a.wrapping_div(b))
        }
        Rem => {
            if b == 0 {
                return Err(ExecError::new("integer remainder by zero", span));
            }
            Value::Int(a.wrapping_rem(b))
        }
        Shl => Value::Int(a.wrapping_shl(b as u32)),
        Shr => Value::Int(a.wrapping_shr(b as u32)),
        BitAnd => Value::Int(a & b),
        BitOr => Value::Int(a | b),
        BitXor => Value::Int(a ^ b),
        Lt => Value::Int((a < b) as i64),
        Gt => Value::Int((a > b) as i64),
        Le => Value::Int((a <= b) as i64),
        Ge => Value::Int((a >= b) as i64),
        Eq => Value::Int((a == b) as i64),
        Ne => Value::Int((a != b) as i64),
        And | Or => unreachable!("short-circuited above"),
    })
}

/// Syntactic check for a compile-time integer constant (used by loop
/// analysis for step deltas).
pub fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::IntLit { value, .. } => Some(*value),
        Expr::Unary { op: UnOp::Neg, operand, .. } => const_int(operand).map(|v| -v),
        _ => None,
    }
}

/// Does `stmt` contain any write to variable `var`?
pub fn writes_var(stmt: &Stmt, var: &str) -> bool {
    fn expr_writes(e: &Expr, var: &str) -> bool {
        match e {
            Expr::Assign { target, value, .. } => {
                matches!(target.as_ref(), Expr::Ident { name, .. } if name == var)
                    || expr_writes(target, var)
                    || expr_writes(value, var)
            }
            Expr::IncDec { target, .. } => {
                matches!(target.as_ref(), Expr::Ident { name, .. } if name == var)
                    || expr_writes(target, var)
            }
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => expr_writes(operand, var),
            Expr::Binary { lhs, rhs, .. } => expr_writes(lhs, var) || expr_writes(rhs, var),
            Expr::Call { args, .. } => args.iter().any(|a| expr_writes(a, var)),
            Expr::Index { base, index, .. } => expr_writes(base, var) || expr_writes(index, var),
            Expr::Ternary { cond, then, els, .. } => {
                expr_writes(cond, var) || expr_writes(then, var) || expr_writes(els, var)
            }
            _ => false,
        }
    }
    match stmt {
        Stmt::Decl(d) => d.init.as_ref().is_some_and(|e| expr_writes(e, var)),
        Stmt::Expr(e) => expr_writes(e, var),
        Stmt::If { cond, then, els, .. } => {
            expr_writes(cond, var)
                || writes_var(then, var)
                || els.as_deref().is_some_and(|s| writes_var(s, var))
        }
        Stmt::For { init, cond, step, body, .. } => {
            init.as_deref().is_some_and(|s| writes_var(s, var))
                || cond.as_ref().is_some_and(|e| expr_writes(e, var))
                || step.as_ref().is_some_and(|e| expr_writes(e, var))
                || writes_var(body, var)
        }
        Stmt::While { cond, body, .. } | Stmt::DoWhile { body, cond, .. } => {
            expr_writes(cond, var) || writes_var(body, var)
        }
        Stmt::Block { stmts, .. } => stmts.iter().any(|s| writes_var(s, var)),
        Stmt::Return { value, .. } => value.as_ref().is_some_and(|e| expr_writes(e, var)),
        Stmt::Break { .. } | Stmt::Continue { .. } => false,
    }
}
