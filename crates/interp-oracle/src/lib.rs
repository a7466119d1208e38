//! The tree-walking reference interpreter for `clc` kernels.
//!
//! The production crates run every kernel on the bytecode VM in
//! `sim::interp`. This crate keeps the original AST evaluator as an
//! independent oracle: the differential suite (`tests/bytecode_equivalence.rs`)
//! requires both engines to emit the same tracer events in the same order,
//! leave memory in the same state, raise the same errors and aggregate to
//! bit-identical profiles, and the `dopia-bench` cold-profile benchmark
//! measures the VM's speedup against it. No production crate links it.
//!
//! The evaluator re-walks the AST per work-item with a name-keyed scope
//! chain; see the `sim::interp` module docs for the execution model. It
//! shares argument binding, barrier-phase splitting, binary operators and
//! loop analysis with the VM (`sim::interp::{bind_args, split_phases,
//! binary_op, const_int, writes_var}`) and derives access-site ids from the
//! same [`SiteTable`].

use clc::{AssignOp, BinOp, Expr, Kernel, Scalar, Span, Stmt, Type, UnOp};
use sim::interp::{
    bind_args, binary_op, const_int, split_phases, writes_var, ExecError, ExecResult, Mode,
    SiteKey, SiteTable, Tracer, Value, PROFILE_LOOP_SAMPLES,
};
use sim::{ArgValue, KernelProfile, Memory, NdRange};
use std::collections::HashMap;

/// Profile `kernel` for a launch geometry on the tree-walker: the same
/// sampled work-items and aggregation as `sim::profile::profile_kernel`,
/// with every item interpreted from the AST.
pub fn profile_kernel(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
) -> Result<KernelProfile, ExecError> {
    sim::profile::profile_with(nd, mem, |id, mem, tracer| {
        run_single_items(kernel, args, nd, &[id], mem, Mode::Profile, tracer)
    })
}

/// Assert that two profiles agree bit for bit in every field (feature-vector
/// parity); `ctx` names the case in failure messages.
pub fn assert_profiles_equal(a: &KernelProfile, b: &KernelProfile, ctx: &str) {
    assert_eq!(a.flops_per_item.to_bits(), b.flops_per_item.to_bits(), "{}: flops", ctx);
    assert_eq!(a.iops_per_item.to_bits(), b.iops_per_item.to_bits(), "{}: iops", ctx);
    assert_eq!(a.divergence.to_bits(), b.divergence.to_bits(), "{}: divergence", ctx);
    assert_eq!(a.items_sampled, b.items_sampled, "{}: items_sampled", ctx);
    assert_eq!(a.sites.len(), b.sites.len(), "{}: site count", ctx);
    for (i, (sa, sb)) in a.sites.iter().zip(&b.sites).enumerate() {
        assert_eq!(sa.class, sb.class, "{}: site {} class", ctx, i);
        assert_eq!(sa.is_store, sb.is_store, "{}: site {} is_store", ctx, i);
        assert_eq!(sa.elem_bytes, sb.elem_bytes, "{}: site {} elem_bytes", ctx, i);
        assert_eq!(
            sa.accesses_per_item.to_bits(),
            sb.accesses_per_item.to_bits(),
            "{}: site {} accesses",
            ctx,
            i
        );
        assert_eq!(sa.cross_item_delta, sb.cross_item_delta, "{}: site {} delta", ctx, i);
        assert_eq!(sa.buffer_elems, sb.buffer_elems, "{}: site {} footprint", ctx, i);
    }
}

/// Statement completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// Result of analyzing an affine `for` loop for profile-mode extrapolation.
struct LoopPlan {
    /// Induction variable name.
    var: String,
    /// Signed step per iteration.
    delta: i64,
    /// Total trip count from the current induction value.
    trips: u64,
}

/// Per-work-item persistent state (survives across barrier phases).
struct ItemState {
    /// Scope stack of (name, value) bindings; scope 0 holds parameters and
    /// top-level declarations.
    scopes: Vec<Vec<(String, Value)>>,
    /// Private (per-item) arrays.
    priv_arrays: Vec<Vec<Value>>,
    returned: bool,
}

/// Group-shared `__local` arrays.
#[derive(Default)]
struct Locals {
    arrays: Vec<Vec<Value>>,
    by_name: HashMap<String, usize>,
}

/// Bind kernel arguments to parameter names (the scope layout of the
/// evaluator).
fn bind_params(kernel: &Kernel, args: &[ArgValue], mem: &Memory) -> ExecResult<Vec<(String, Value)>> {
    let values = bind_args(&kernel.name, &kernel.params, kernel.span, args, mem)?;
    Ok(kernel.params.iter().map(|p| p.name.clone()).zip(values).collect())
}

/// Execute one entire work-group (all its work-items, phase by phase).
pub fn run_work_group<T: Tracer>(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    group_linear: usize,
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    let phases = split_phases(&kernel.body, kernel.span)?;
    let params = bind_params(kernel, args, mem)?;
    let sites = SiteTable::build(kernel);
    let local_size = nd.local_size();
    let group = nd.group_coords(group_linear);
    let mut locals = Locals::default();
    let mut items: Vec<ItemState> = (0..local_size)
        .map(|_| ItemState { scopes: vec![params.clone()], priv_arrays: Vec::new(), returned: false })
        .collect();
    for phase in phases {
        for (linear, item) in items.iter_mut().enumerate() {
            if item.returned {
                continue;
            }
            let local = nd.local_coords(linear);
            let gid = [
                group[0] * nd.local[0] + local[0] + nd.offset[0],
                group[1] * nd.local[1] + local[1] + nd.offset[1],
                group[2] * nd.local[2] + local[2] + nd.offset[2],
            ];
            let mut interp = Interp {
                mem,
                tracer,
                mode,
                sites: &sites,
                locals: &mut locals,
                item,
                nd,
                gid,
                lid: local,
                grp: group,
            };
            for stmt in phase {
                match interp.exec_stmt(stmt)? {
                    Flow::Return => {
                        item.returned = true;
                        break;
                    }
                    Flow::Normal => {}
                    other => {
                        return Err(ExecError::new(
                            format!("{:?} escaped to kernel top level", other),
                            stmt.span(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Execute the whole NDRange functionally (every group, every item).
pub fn run_kernel<T: Tracer>(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    nd.validate().map_err(|m| ExecError::new(m, kernel.span))?;
    for g in 0..nd.num_groups() {
        run_work_group(kernel, args, nd, g, mem, mode, tracer)?;
    }
    Ok(())
}

/// Execute specific work-items by *global linear id* (dimension 0 fastest),
/// each in its own single-item context. Used by the profiler; kernels with
/// barriers are rejected (profiling targets original, barrier-free kernels).
pub fn run_single_items<T: Tracer>(
    kernel: &Kernel,
    args: &[ArgValue],
    nd: &NdRange,
    global_ids: &[usize],
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    let phases = split_phases(&kernel.body, kernel.span)?;
    if phases.len() > 1 {
        return Err(ExecError::new(
            "run_single_items cannot execute kernels with barriers",
            kernel.span,
        ));
    }
    let params = bind_params(kernel, args, mem)?;
    let sites = SiteTable::build(kernel);
    for &linear in global_ids {
        // Decompose the linear id into per-dimension global coordinates.
        let g0 = nd.global[0];
        let g1 = nd.global[1];
        let gid3 = [linear % g0, (linear / g0) % g1, linear / (g0 * g1)];
        let gid = [
            gid3[0] + nd.offset[0],
            gid3[1] + nd.offset[1],
            gid3[2] + nd.offset[2],
        ];
        let lid = [
            gid3[0] % nd.local[0],
            gid3[1] % nd.local[1],
            gid3[2] % nd.local[2],
        ];
        let grp = [
            gid3[0] / nd.local[0],
            gid3[1] / nd.local[1],
            gid3[2] / nd.local[2],
        ];
        let mut locals = Locals::default();
        let mut item =
            ItemState { scopes: vec![params.clone()], priv_arrays: Vec::new(), returned: false };
        let mut interp = Interp {
            mem,
            tracer,
            mode,
            sites: &sites,
            locals: &mut locals,
            item: &mut item,
            nd,
            gid,
            lid,
            grp,
        };
        for stmt in &kernel.body {
            if matches!(interp.exec_stmt(stmt)?, Flow::Return) {
                break;
            }
        }
    }
    Ok(())
}

struct Interp<'a, T: Tracer> {
    mem: &'a mut Memory,
    tracer: &'a mut T,
    mode: Mode,
    sites: &'a SiteTable,
    locals: &'a mut Locals,
    item: &'a mut ItemState,
    nd: &'a NdRange,
    gid: [usize; 3],
    lid: [usize; 3],
    grp: [usize; 3],
}

impl<'a, T: Tracer> Interp<'a, T> {
    // ----- scopes ----------------------------------------------------------

    fn push_scope(&mut self) {
        self.item.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        self.item.scopes.pop();
    }

    fn declare(&mut self, name: &str, value: Value) {
        self.item
            .scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), value));
    }

    fn lookup(&self, name: &str, span: Span) -> ExecResult<Value> {
        for scope in self.item.scopes.iter().rev() {
            for (n, v) in scope.iter().rev() {
                if n == name {
                    return Ok(*v);
                }
            }
        }
        Err(ExecError::new(format!("unbound variable `{}`", name), span))
    }

    fn set_var(&mut self, name: &str, value: Value, span: Span) -> ExecResult<()> {
        for scope in self.item.scopes.iter_mut().rev() {
            for (n, v) in scope.iter_mut().rev() {
                if n == name {
                    *v = value;
                    return Ok(());
                }
            }
        }
        Err(ExecError::new(format!("unbound variable `{}`", name), span))
    }

    // ----- statements ------------------------------------------------------

    fn exec_stmt(&mut self, stmt: &Stmt) -> ExecResult<Flow> {
        match stmt {
            Stmt::Decl(decl) => {
                if let Some(len) = decl.array_len {
                    let elem = match decl.ty {
                        Type::Ptr { elem, .. } => elem,
                        Type::Scalar(s) => s,
                        Type::Void => unreachable!("sema rejects void decls"),
                    };
                    let zero =
                        if elem.is_float() { Value::Float(0.0) } else { Value::Int(0) };
                    let value = if decl.space == clc::Space::Local {
                        // One allocation per work-group, shared by items.
                        let idx = match self.locals.by_name.get(&decl.name) {
                            Some(&idx) => idx,
                            None => {
                                let idx = self.locals.arrays.len();
                                self.locals.arrays.push(vec![zero; len]);
                                self.locals.by_name.insert(decl.name.clone(), idx);
                                idx
                            }
                        };
                        Value::LocalPtr { arr: idx, offset: 0 }
                    } else {
                        let idx = self.item.priv_arrays.len();
                        self.item.priv_arrays.push(vec![zero; len]);
                        Value::PrivPtr { arr: idx, offset: 0 }
                    };
                    self.declare(&decl.name, value);
                    return Ok(Flow::Normal);
                }
                let value = match &decl.init {
                    Some(init) => {
                        let v = self.eval(init)?;
                        self.coerce_to(v, decl.ty, init.span())?
                    }
                    None => match decl.ty {
                        Type::Scalar(s) if s.is_float() => Value::Float(0.0),
                        Type::Scalar(_) => Value::Int(0),
                        _ => Value::Int(0),
                    },
                };
                self.declare(&decl.name, value);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, els, .. } => {
                let c = self.eval(cond)?;
                if c.is_truthy() {
                    self.exec_scoped(then)
                } else if let Some(els) = els {
                    self.exec_scoped(els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For { init, cond, step, body, .. } => self.exec_for(init, cond, step, body),
            Stmt::While { cond, body, .. } => {
                loop {
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                    match self.exec_scoped(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond, .. } => {
                loop {
                    match self.exec_scoped(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Block { stmts, .. } => {
                self.push_scope();
                let mut flow = Flow::Normal;
                for s in stmts {
                    flow = self.exec_stmt(s)?;
                    if flow != Flow::Normal {
                        break;
                    }
                }
                self.pop_scope();
                Ok(flow)
            }
            Stmt::Return { .. } => Ok(Flow::Return),
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
        }
    }

    /// Execute a statement in its own scope (bodies of if/while/for).
    fn exec_scoped(&mut self, stmt: &Stmt) -> ExecResult<Flow> {
        match stmt {
            // Blocks already push a scope.
            Stmt::Block { .. } => self.exec_stmt(stmt),
            _ => {
                self.push_scope();
                let flow = self.exec_stmt(stmt);
                self.pop_scope();
                flow
            }
        }
    }

    fn exec_for(
        &mut self,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
    ) -> ExecResult<Flow> {
        self.push_scope();
        if let Some(init) = init {
            self.exec_stmt(init)?;
        }

        // Profile-mode extrapolation for analyzable loops.
        if self.mode == Mode::Profile {
            if let (Some(cond), Some(step)) = (cond, step) {
                if let Some(plan) = self.analyze_loop(init.as_deref(), cond, step, body)? {
                    let flow = self.run_extrapolated(&plan, cond, step, body)?;
                    self.pop_scope();
                    return Ok(flow);
                }
            }
        }

        let mut flow = Flow::Normal;
        loop {
            if let Some(cond) = cond {
                if !self.eval(cond)?.is_truthy() {
                    break;
                }
            }
            match self.exec_scoped(body)? {
                Flow::Break => break,
                Flow::Return => {
                    flow = Flow::Return;
                    break;
                }
                Flow::Normal | Flow::Continue => {}
            }
            if let Some(step) = step {
                self.eval(step)?;
            }
        }
        self.pop_scope();
        Ok(flow)
    }

    // ----- profile-mode loop extrapolation ----------------------------------

    /// Try to recognize `for (i = i0; i <op> bound; i += d)` with a body
    /// that never writes `i`. Returns the extrapolation plan (trip count and
    /// induction details) or `None` to fall back to full execution.
    fn analyze_loop(
        &mut self,
        init: Option<&Stmt>,
        cond: &Expr,
        step: &Expr,
        body: &Stmt,
    ) -> ExecResult<Option<LoopPlan>> {
        // Induction variable from the init clause.
        let var = match init {
            Some(Stmt::Decl(d)) => d.name.clone(),
            Some(Stmt::Expr(Expr::Assign { op: AssignOp::Assign, target, .. })) => {
                match target.as_ref() {
                    Expr::Ident { name, .. } => name.clone(),
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        // Step delta.
        let delta: i64 = match step {
            Expr::IncDec { inc, target, .. } => match target.as_ref() {
                Expr::Ident { name, .. } if *name == var => {
                    if *inc {
                        1
                    } else {
                        -1
                    }
                }
                _ => return Ok(None),
            },
            Expr::Assign { op, target, value, .. } => {
                let tname = match target.as_ref() {
                    Expr::Ident { name, .. } => name,
                    _ => return Ok(None),
                };
                if *tname != var {
                    return Ok(None);
                }
                match op {
                    AssignOp::Add | AssignOp::Sub => match const_int(value) {
                        Some(c) => {
                            if *op == AssignOp::Add {
                                c
                            } else {
                                -c
                            }
                        }
                        None => return Ok(None),
                    },
                    AssignOp::Assign => match value.as_ref() {
                        Expr::Binary { op: BinOp::Add, lhs, rhs, .. } => {
                            match (lhs.as_ref(), rhs.as_ref()) {
                                (Expr::Ident { name, .. }, other) if *name == var => {
                                    match const_int(other) {
                                        Some(c) => c,
                                        None => return Ok(None),
                                    }
                                }
                                (other, Expr::Ident { name, .. }) if *name == var => {
                                    match const_int(other) {
                                        Some(c) => c,
                                        None => return Ok(None),
                                    }
                                }
                                _ => return Ok(None),
                            }
                        }
                        _ => return Ok(None),
                    },
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        if delta == 0 {
            return Ok(None);
        }
        // Comparison bound.
        let (op, bound_expr) = match cond {
            Expr::Binary { op, lhs, rhs, .. } => match lhs.as_ref() {
                Expr::Ident { name, .. } if *name == var => (op, rhs.as_ref()),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
            return Ok(None);
        }
        // The body must not write the induction variable.
        if writes_var(body, &var) {
            return Ok(None);
        }
        // Evaluate the bound and the current value now.
        let bound = self.eval(bound_expr)?.as_i64();
        let cur = self.lookup(&var, cond.span())?.as_i64();
        let trips: i64 = match op {
            BinOp::Lt if delta > 0 => (bound - cur + delta - 1).div_euclid(delta).max(0),
            BinOp::Le if delta > 0 => (bound - cur + delta).div_euclid(delta).max(0),
            BinOp::Gt if delta < 0 => (cur - bound - delta - 1).div_euclid(-delta).max(0),
            BinOp::Ge if delta < 0 => (cur - bound - delta).div_euclid(-delta).max(0),
            _ => return Ok(None),
        };
        Ok(Some(LoopPlan { var, delta, trips: trips as u64 }))
    }

    fn run_extrapolated(
        &mut self,
        plan: &LoopPlan,
        _cond: &Expr,
        step: &Expr,
        body: &Stmt,
    ) -> ExecResult<Flow> {
        let samples = PROFILE_LOOP_SAMPLES as u64;
        if plan.trips <= samples * 2 {
            // Short loop: run all iterations, no extrapolation.
            for _ in 0..plan.trips {
                match self.exec_scoped(body)? {
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return => return Ok(Flow::Return),
                    Flow::Normal | Flow::Continue => {}
                }
                self.eval(step)?;
            }
            return Ok(Flow::Normal);
        }
        // Run `samples` iterations inside a scale region so the recorded
        // counts represent the full `trips` iterations.
        let factor = plan.trips as f64 / samples as f64;
        self.tracer.begin_scale(factor);
        let mut early: Option<Flow> = None;
        for _ in 0..samples {
            match self.exec_scoped(body)? {
                Flow::Break => {
                    early = Some(Flow::Normal);
                    break;
                }
                Flow::Return => {
                    early = Some(Flow::Return);
                    break;
                }
                Flow::Normal | Flow::Continue => {}
            }
            self.eval(step)?;
        }
        self.tracer.end_scale();
        if let Some(flow) = early {
            // A data-dependent break fired during sampling — the
            // extrapolation overestimates, but the loop exits here.
            return Ok(flow);
        }
        // Fast-forward the induction variable to its post-loop value.
        let cur = self.lookup(&plan.var, body.span())?.as_i64();
        let remaining = (plan.trips - samples) as i64;
        self.set_var(&plan.var, Value::Int(cur + remaining * plan.delta), body.span())?;
        Ok(Flow::Normal)
    }

    // ----- expressions ------------------------------------------------------

    fn eval(&mut self, expr: &Expr) -> ExecResult<Value> {
        match expr {
            Expr::IntLit { value, .. } => Ok(Value::Int(*value)),
            Expr::FloatLit { value, .. } => Ok(Value::Float(*value as f32)),
            Expr::BoolLit { value, .. } => Ok(Value::Int(*value as i64)),
            Expr::Ident { name, span } => self.lookup(name, *span),
            Expr::Unary { op, operand, span } => {
                let v = self.eval(operand)?;
                self.tracer.arith(v.is_float(), 1.0);
                match op {
                    UnOp::Neg => Ok(match v {
                        Value::Int(x) => Value::Int(-x),
                        Value::Float(x) => Value::Float(-x),
                        _ => return Err(ExecError::new("cannot negate pointer", *span)),
                    }),
                    UnOp::Not => Ok(Value::Int((!v.is_truthy()) as i64)),
                    UnOp::BitNot => Ok(Value::Int(!v.as_i64())),
                }
            }
            Expr::Binary { op, lhs, rhs, span } => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs)?;
                        self.tracer.arith(false, 1.0);
                        if !l.is_truthy() {
                            return Ok(Value::Int(0));
                        }
                        let r = self.eval(rhs)?;
                        return Ok(Value::Int(r.is_truthy() as i64));
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs)?;
                        self.tracer.arith(false, 1.0);
                        if l.is_truthy() {
                            return Ok(Value::Int(1));
                        }
                        let r = self.eval(rhs)?;
                        return Ok(Value::Int(r.is_truthy() as i64));
                    }
                    _ => {}
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.binary(*op, l, r, *span)
            }
            Expr::Assign { op, target, value, span } => {
                let rhs = self.eval(value)?;
                let result = match op.binop() {
                    Some(bin) => {
                        let old = self.read_lvalue(target)?;
                        self.binary(bin, old, rhs, *span)?
                    }
                    None => rhs,
                };
                self.write_lvalue(target, result)?;
                Ok(result)
            }
            Expr::IncDec { inc, pre, target, span } => {
                let old = self.read_lvalue(target)?;
                self.tracer.arith(false, 1.0);
                let delta = if *inc { 1 } else { -1 };
                let new = Value::Int(old.as_i64() + delta);
                self.write_lvalue(target, new)?;
                let _ = span;
                Ok(if *pre { new } else { old })
            }
            Expr::Call { name, args, span } => self.call(name, args, *span),
            Expr::Index { .. } => self.load_index(expr),
            Expr::Cast { to, operand, .. } => {
                let v = self.eval(operand)?;
                Ok(cast_value(v, *to))
            }
            Expr::Ternary { cond, then, els, .. } => {
                let c = self.eval(cond)?;
                if c.is_truthy() {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
        }
    }

    fn binary(&mut self, op: BinOp, l: Value, r: Value, span: Span) -> ExecResult<Value> {
        binary_op(self.tracer, op, l, r, span)
    }

    // ----- lvalues & memory -------------------------------------------------

    /// Evaluate `base[index]` into (pointer value, element index, site key).
    fn eval_index(&mut self, expr: &Expr) -> ExecResult<(Value, i64, SiteKey)> {
        let Expr::Index { base, index, .. } = expr else {
            unreachable!("eval_index on non-index expression");
        };
        let ptr = self.eval(base)?;
        let idx = self.eval(index)?.as_i64();
        let site = self.sites.id_of(expr);
        Ok((ptr, idx, site))
    }

    fn load_index(&mut self, expr: &Expr) -> ExecResult<Value> {
        let (ptr, idx, site) = self.eval_index(expr)?;
        match ptr {
            Value::GlobalPtr { buf, offset, elem } => {
                let i = offset + idx;
                let b = self.mem.get(buf);
                if i < 0 || i as usize >= b.len() {
                    return Err(ExecError::new(
                        format!("load index {} out of bounds ({} elements)", i, b.len()),
                        expr.span(),
                    ));
                }
                self.tracer.load(site, buf, i, elem.size_bytes());
                Ok(if elem.is_float() {
                    Value::Float(b.load_f64(i as usize) as f32)
                } else {
                    Value::Int(b.load_i64(i as usize))
                })
            }
            Value::LocalPtr { arr, offset } => {
                let a = &self.locals.arrays[arr];
                let i = offset + idx;
                if i < 0 || i as usize >= a.len() {
                    return Err(ExecError::new(
                        format!("local load index {} out of bounds ({})", i, a.len()),
                        expr.span(),
                    ));
                }
                Ok(a[i as usize])
            }
            Value::PrivPtr { arr, offset } => {
                let a = &self.item.priv_arrays[arr];
                let i = offset + idx;
                if i < 0 || i as usize >= a.len() {
                    return Err(ExecError::new(
                        format!("private load index {} out of bounds ({})", i, a.len()),
                        expr.span(),
                    ));
                }
                Ok(a[i as usize])
            }
            other => Err(ExecError::new(
                format!("cannot index non-pointer value {:?}", other),
                expr.span(),
            )),
        }
    }

    fn read_lvalue(&mut self, target: &Expr) -> ExecResult<Value> {
        match target {
            Expr::Ident { name, span } => self.lookup(name, *span),
            Expr::Index { .. } => self.load_index(target),
            other => Err(ExecError::new("not an lvalue", other.span())),
        }
    }

    fn write_lvalue(&mut self, target: &Expr, value: Value) -> ExecResult<()> {
        match target {
            Expr::Ident { name, span } => self.set_var(name, value, *span),
            Expr::Index { .. } => {
                let (ptr, idx, site) = self.eval_index(target)?;
                match ptr {
                    Value::GlobalPtr { buf, offset, elem } => {
                        let i = offset + idx;
                        let len = self.mem.get(buf).len();
                        if i < 0 || i as usize >= len {
                            return Err(ExecError::new(
                                format!("store index {} out of bounds ({} elements)", i, len),
                                target.span(),
                            ));
                        }
                        self.tracer.store(site, buf, i, elem.size_bytes());
                        if self.mode == Mode::Full {
                            let b = self.mem.get_mut(buf);
                            if b.is_virtual() {
                                return Err(ExecError::virtual_store(i, target.span()));
                            }
                            if elem.is_float() {
                                b.store_f64(i as usize, value.as_f32() as f64);
                            } else {
                                b.store_i64(i as usize, value.as_i64());
                            }
                        }
                        Ok(())
                    }
                    Value::LocalPtr { arr, offset } => {
                        let a = &mut self.locals.arrays[arr];
                        let i = offset + idx;
                        if i < 0 || i as usize >= a.len() {
                            return Err(ExecError::new(
                                format!("local store index {} out of bounds ({})", i, a.len()),
                                target.span(),
                            ));
                        }
                        a[i as usize] = value;
                        Ok(())
                    }
                    Value::PrivPtr { arr, offset } => {
                        let a = &mut self.item.priv_arrays[arr];
                        let i = offset + idx;
                        if i < 0 || i as usize >= a.len() {
                            return Err(ExecError::new(
                                format!("private store index {} out of bounds ({})", i, a.len()),
                                target.span(),
                            ));
                        }
                        a[i as usize] = value;
                        Ok(())
                    }
                    other => Err(ExecError::new(
                        format!("cannot index non-pointer value {:?}", other),
                        target.span(),
                    )),
                }
            }
            other => Err(ExecError::new("not an lvalue", other.span())),
        }
    }

    // ----- builtins ----------------------------------------------------------

    fn call(&mut self, name: &str, args: &[Expr], span: Span) -> ExecResult<Value> {
        match name {
            "get_global_id" | "get_local_id" | "get_group_id" | "get_global_size"
            | "get_local_size" | "get_num_groups" | "get_global_offset" => {
                let d = self.eval(&args[0])?.as_i64() as usize;
                if d > 2 {
                    return Err(ExecError::new(format!("dimension {} out of range", d), span));
                }
                let v = match name {
                    "get_global_id" => self.gid[d],
                    "get_local_id" => self.lid[d],
                    "get_group_id" => self.grp[d],
                    "get_global_size" => self.nd.global[d],
                    "get_local_size" => self.nd.local[d],
                    "get_num_groups" => self.nd.groups_in_dim(d),
                    "get_global_offset" => self.nd.offset[d],
                    _ => unreachable!(),
                };
                Ok(Value::Int(v as i64))
            }
            "get_work_dim" => Ok(Value::Int(self.nd.work_dim as i64)),
            "barrier" => Err(ExecError::new(
                "barrier() must be a top-level statement of the kernel body",
                span,
            )),
            "atomic_inc" | "atomic_dec" => {
                let ptr = self.eval(&args[0])?;
                let delta = if name == "atomic_inc" { 1 } else { -1 };
                self.atomic_rmw(ptr, span, |old| old + delta)
            }
            "atomic_add" | "atomic_sub" => {
                let ptr = self.eval(&args[0])?;
                let v = self.eval(&args[1])?.as_i64();
                let delta = if name == "atomic_add" { v } else { -v };
                self.atomic_rmw(ptr, span, |old| old.wrapping_add(delta))
            }
            "atomic_xchg" => {
                let ptr = self.eval(&args[0])?;
                let v = self.eval(&args[1])?.as_i64();
                self.atomic_rmw(ptr, span, |_| v)
            }
            "atomic_min" => {
                let ptr = self.eval(&args[0])?;
                let v = self.eval(&args[1])?.as_i64();
                self.atomic_rmw(ptr, span, |old| old.min(v))
            }
            "atomic_max" => {
                let ptr = self.eval(&args[0])?;
                let v = self.eval(&args[1])?.as_i64();
                self.atomic_rmw(ptr, span, |old| old.max(v))
            }
            "atomic_cmpxchg" => {
                let ptr = self.eval(&args[0])?;
                let cmp = self.eval(&args[1])?.as_i64();
                let val = self.eval(&args[2])?.as_i64();
                self.atomic_rmw(ptr, span, |old| if old == cmp { val } else { old })
            }
            // Scalar math: count as heavier float work (4 flops).
            "sqrt" | "rsqrt" | "fabs" | "exp" | "log" | "sin" | "cos" | "floor" | "ceil" => {
                let x = self.eval(&args[0])?.as_f32();
                self.tracer.arith(true, 4.0);
                let r = match name {
                    "sqrt" => x.sqrt(),
                    "rsqrt" => 1.0 / x.sqrt(),
                    "fabs" => x.abs(),
                    "exp" => x.exp(),
                    "log" => x.ln(),
                    "sin" => x.sin(),
                    "cos" => x.cos(),
                    "floor" => x.floor(),
                    "ceil" => x.ceil(),
                    _ => unreachable!(),
                };
                Ok(Value::Float(r))
            }
            "pow" | "fmin" | "fmax" => {
                let a = self.eval(&args[0])?.as_f32();
                let b = self.eval(&args[1])?.as_f32();
                self.tracer.arith(true, if name == "pow" { 4.0 } else { 1.0 });
                let r = match name {
                    "pow" => a.powf(b),
                    "fmin" => a.min(b),
                    "fmax" => a.max(b),
                    _ => unreachable!(),
                };
                Ok(Value::Float(r))
            }
            "mad" | "fma" => {
                let a = self.eval(&args[0])?.as_f32();
                let b = self.eval(&args[1])?.as_f32();
                let c = self.eval(&args[2])?.as_f32();
                self.tracer.arith(true, 2.0);
                Ok(Value::Float(a * b + c))
            }
            "min" | "max" | "abs" => {
                let a = self.eval(&args[0])?;
                let float = if name == "abs" {
                    a.is_float()
                } else {
                    let b = self.eval(&args[1])?;
                    // Re-evaluate below; cheap enough and keeps arg effects.
                    self.tracer.arith(a.is_float() || b.is_float(), 1.0);
                    let r = match (name, a.is_float() || b.is_float()) {
                        ("min", true) => Value::Float(a.as_f32().min(b.as_f32())),
                        ("max", true) => Value::Float(a.as_f32().max(b.as_f32())),
                        ("min", false) => Value::Int(a.as_i64().min(b.as_i64())),
                        ("max", false) => Value::Int(a.as_i64().max(b.as_i64())),
                        _ => unreachable!(),
                    };
                    return Ok(r);
                };
                self.tracer.arith(float, 1.0);
                Ok(match a {
                    Value::Int(x) => Value::Int(x.abs()),
                    Value::Float(x) => Value::Float(x.abs()),
                    _ => return Err(ExecError::new("abs on pointer", span)),
                })
            }
            other => Err(ExecError::new(format!("unknown builtin `{}`", other), span)),
        }
    }

    fn atomic_rmw(
        &mut self,
        ptr: Value,
        span: Span,
        f: impl FnOnce(i64) -> i64,
    ) -> ExecResult<Value> {
        match ptr {
            Value::LocalPtr { arr, offset } => {
                let a = &mut self.locals.arrays[arr];
                let i = offset as usize;
                let old = a[i].as_i64();
                a[i] = Value::Int(f(old));
                Ok(Value::Int(old))
            }
            Value::GlobalPtr { buf, offset, .. } => {
                let b = self.mem.get_mut(buf);
                let i = offset as usize;
                if i >= b.len() {
                    return Err(ExecError::new("atomic index out of bounds", span));
                }
                if self.mode == Mode::Full && b.is_virtual() {
                    return Err(ExecError::virtual_store(i as i64, span));
                }
                let old = b.load_i64(i);
                // Atomics take effect even in profile mode: they carry
                // scheduling state (worklists), not workload data.
                b.store_i64(i, f(old));
                Ok(Value::Int(old))
            }
            Value::PrivPtr { arr, offset } => {
                let a = &mut self.item.priv_arrays[arr];
                let i = offset as usize;
                let old = a[i].as_i64();
                a[i] = Value::Int(f(old));
                Ok(Value::Int(old))
            }
            other => Err(ExecError::new(
                format!("atomic operation on non-pointer {:?}", other),
                span,
            )),
        }
    }

    fn coerce_to(&self, value: Value, ty: Type, span: Span) -> ExecResult<Value> {
        match ty {
            Type::Scalar(s) => Ok(cast_value(value, s)),
            Type::Ptr { .. } => match value {
                Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => {
                    Ok(value)
                }
                other => Err(ExecError::new(
                    format!("cannot initialize pointer from {:?}", other),
                    span,
                )),
            },
            Type::Void => Err(ExecError::new("void value", span)),
        }
    }
}

/// Convert a value to the given scalar type with C semantics.
fn cast_value(v: Value, to: Scalar) -> Value {
    match v {
        Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => v,
        _ => {
            if to.is_float() {
                Value::Float(v.as_f32())
            } else {
                Value::Int(v.as_i64())
            }
        }
    }
}
