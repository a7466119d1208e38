//! The bytecode VM: executes [`super::compile::CompiledKernel`] phases with
//! a dense `Vec<Value>` register file.
//!
//! This is the only interpreter in the production crates: the profiler and
//! functional execution both run here. Every instruction handler reproduces
//! the behaviour of the tree-walking reference oracle (the test-only
//! `dopia-interp-oracle` crate) *exactly* — same tracer events in the same
//! order, same error messages, same arithmetic (including the shared
//! [`binary_op`] kernel and the same overflow/panic behaviour on degenerate
//! inputs). The differential suite in that crate pins the two together.

use super::compile::{AtomicFn, CompiledKernel, IdFn, Insn, LocalSpec, Math1Fn, Math2Fn, Phase};
use super::exec::{bind_args, binary_op, ExecError, ExecResult, Mode, PROFILE_LOOP_SAMPLES};
use super::tracer::Tracer;
use super::Value;
use crate::buffer::{ArgValue, Memory};
use crate::ndrange::NdRange;
use clc::{BinOp, UnOp};

/// Per-dispatch execution context: one work-item's view of the world.
struct Vm<'a, T: Tracer> {
    mem: &'a mut Memory,
    tracer: &'a mut T,
    mode: Mode,
    nd: &'a NdRange,
    gid: [usize; 3],
    lid: [usize; 3],
    grp: [usize; 3],
    /// `__local` array shapes from the compiler (allocated lazily on first
    /// [`Insn::BindLocal`], shared by the work-group).
    specs: &'a [LocalSpec],
    locals: &'a mut Vec<Option<Vec<Value>>>,
    /// Private arrays of the current work-item (persist across phases).
    priv_arrays: &'a mut Vec<Vec<Value>>,
}

impl<'a, T: Tracer> Vm<'a, T> {
    /// Run one phase to completion. Returns `true` if the item executed a
    /// `return` (it then skips all remaining phases).
    fn run_phase(&mut self, phase: &Phase, regs: &mut [Value]) -> ExecResult<bool> {
        let code = &phase.code;
        let spans = &phase.spans;
        let mut pc = 0usize;
        // Open scale regions (profile-mode loop extrapolation). `return`
        // unwinds them all, exactly like a `return` propagating out of
        // nested extrapolated loops in the reference oracle.
        let mut scale_depth = 0usize;
        while pc < code.len() {
            let span = spans[pc];
            match code[pc] {
                Insn::ConstInt { dst, v } => regs[dst as usize] = Value::Int(v),
                Insn::ConstFloat { dst, v } => regs[dst as usize] = Value::Float(v),
                Insn::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
                Insn::Truthy { dst, src } => {
                    regs[dst as usize] = Value::Int(regs[src as usize].is_truthy() as i64);
                }
                Insn::CountIop => self.tracer.arith(false, 1.0),
                Insn::Unary { op, dst, src } => {
                    let v = regs[src as usize];
                    self.tracer.arith(v.is_float(), 1.0);
                    regs[dst as usize] = match op {
                        UnOp::Neg => match v {
                            Value::Int(x) => Value::Int(-x),
                            Value::Float(x) => Value::Float(-x),
                            _ => return Err(ExecError::new("cannot negate pointer", span)),
                        },
                        UnOp::Not => Value::Int((!v.is_truthy()) as i64),
                        UnOp::BitNot => Value::Int(!v.as_i64()),
                    };
                }
                Insn::Binary { op, dst, lhs, rhs } => {
                    regs[dst as usize] =
                        binary_op(self.tracer, op, regs[lhs as usize], regs[rhs as usize], span)?;
                }
                Insn::IncDec { old_dst, new_dst, src, delta } => {
                    let v = regs[src as usize];
                    self.tracer.arith(false, 1.0);
                    regs[new_dst as usize] = Value::Int(v.as_i64() + delta);
                    regs[old_dst as usize] = v;
                }
                Insn::Jump { to } => {
                    pc = to as usize;
                    continue;
                }
                Insn::JumpIfFalse { cond, to } => {
                    if !regs[cond as usize].is_truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Insn::JumpIfTrue { cond, to } => {
                    if regs[cond as usize].is_truthy() {
                        pc = to as usize;
                        continue;
                    }
                }
                Insn::JumpIfFull { to } => {
                    if self.mode == Mode::Full {
                        pc = to as usize;
                        continue;
                    }
                }
                Insn::Load { dst, ptr, idx, site } => {
                    let idx = regs[idx as usize].as_i64();
                    regs[dst as usize] = match regs[ptr as usize] {
                        Value::GlobalPtr { buf, offset, elem } => {
                            let i = offset + idx;
                            let b = self.mem.get(buf);
                            if i < 0 || i as usize >= b.len() {
                                return Err(ExecError::new(
                                    format!(
                                        "load index {} out of bounds ({} elements)",
                                        i,
                                        b.len()
                                    ),
                                    span,
                                ));
                            }
                            self.tracer.load(site, buf, i, elem.size_bytes());
                            if elem.is_float() {
                                Value::Float(b.load_f64(i as usize) as f32)
                            } else {
                                Value::Int(b.load_i64(i as usize))
                            }
                        }
                        Value::LocalPtr { arr, offset } => {
                            let a = self.locals[arr].as_ref().expect("local bound before use");
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!("local load index {} out of bounds ({})", i, a.len()),
                                    span,
                                ));
                            }
                            a[i as usize]
                        }
                        Value::PrivPtr { arr, offset } => {
                            let a = &self.priv_arrays[arr];
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!(
                                        "private load index {} out of bounds ({})",
                                        i,
                                        a.len()
                                    ),
                                    span,
                                ));
                            }
                            a[i as usize]
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("cannot index non-pointer value {:?}", other),
                                span,
                            ));
                        }
                    };
                }
                Insn::Store { src, ptr, idx, site } => {
                    let value = regs[src as usize];
                    let idx = regs[idx as usize].as_i64();
                    match regs[ptr as usize] {
                        Value::GlobalPtr { buf, offset, elem } => {
                            let i = offset + idx;
                            let len = self.mem.get(buf).len();
                            if i < 0 || i as usize >= len {
                                return Err(ExecError::new(
                                    format!("store index {} out of bounds ({} elements)", i, len),
                                    span,
                                ));
                            }
                            self.tracer.store(site, buf, i, elem.size_bytes());
                            if self.mode == Mode::Full {
                                let b = self.mem.get_mut(buf);
                                if b.is_virtual() {
                                    return Err(ExecError::virtual_store(i, span));
                                }
                                if elem.is_float() {
                                    b.store_f64(i as usize, value.as_f32() as f64);
                                } else {
                                    b.store_i64(i as usize, value.as_i64());
                                }
                            }
                        }
                        Value::LocalPtr { arr, offset } => {
                            let a = self.locals[arr].as_mut().expect("local bound before use");
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!("local store index {} out of bounds ({})", i, a.len()),
                                    span,
                                ));
                            }
                            a[i as usize] = value;
                        }
                        Value::PrivPtr { arr, offset } => {
                            let a = &mut self.priv_arrays[arr];
                            let i = offset + idx;
                            if i < 0 || i as usize >= a.len() {
                                return Err(ExecError::new(
                                    format!(
                                        "private store index {} out of bounds ({})",
                                        i,
                                        a.len()
                                    ),
                                    span,
                                ));
                            }
                            a[i as usize] = value;
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("cannot index non-pointer value {:?}", other),
                                span,
                            ));
                        }
                    }
                }
                Insn::GetId { which, dst, dim } => {
                    let d = regs[dim as usize].as_i64() as usize;
                    if d > 2 {
                        return Err(ExecError::new(format!("dimension {} out of range", d), span));
                    }
                    let v = match which {
                        IdFn::GlobalId => self.gid[d],
                        IdFn::LocalId => self.lid[d],
                        IdFn::GroupId => self.grp[d],
                        IdFn::GlobalSize => self.nd.global[d],
                        IdFn::LocalSize => self.nd.local[d],
                        IdFn::NumGroups => self.nd.groups_in_dim(d),
                        IdFn::GlobalOffset => self.nd.offset[d],
                    };
                    regs[dst as usize] = Value::Int(v as i64);
                }
                Insn::GetWorkDim { dst } => {
                    regs[dst as usize] = Value::Int(self.nd.work_dim as i64);
                }
                Insn::CastScalar { dst, src, to_float } => {
                    let v = regs[src as usize];
                    regs[dst as usize] = match v {
                        Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => {
                            v
                        }
                        _ if to_float => Value::Float(v.as_f32()),
                        _ => Value::Int(v.as_i64()),
                    };
                }
                Insn::CoercePtr { dst, src } => {
                    let v = regs[src as usize];
                    regs[dst as usize] = match v {
                        Value::GlobalPtr { .. } | Value::LocalPtr { .. } | Value::PrivPtr { .. } => {
                            v
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("cannot initialize pointer from {:?}", other),
                                span,
                            ));
                        }
                    };
                }
                Insn::AllocPriv { dst, len, is_float } => {
                    let zero = if is_float { Value::Float(0.0) } else { Value::Int(0) };
                    self.priv_arrays.push(vec![zero; len as usize]);
                    regs[dst as usize] =
                        Value::PrivPtr { arr: self.priv_arrays.len() - 1, offset: 0 };
                }
                Insn::BindLocal { dst, idx } => {
                    let slot = &mut self.locals[idx as usize];
                    if slot.is_none() {
                        let spec = self.specs[idx as usize];
                        let zero =
                            if spec.is_float { Value::Float(0.0) } else { Value::Int(0) };
                        *slot = Some(vec![zero; spec.len]);
                    }
                    regs[dst as usize] = Value::LocalPtr { arr: idx as usize, offset: 0 };
                }
                Insn::Atomic { f, dst, ptr, a, b } => {
                    let av = match f {
                        AtomicFn::Inc | AtomicFn::Dec => 0,
                        _ => regs[a as usize].as_i64(),
                    };
                    let bv = match f {
                        AtomicFn::Cmpxchg => regs[b as usize].as_i64(),
                        _ => 0,
                    };
                    let apply = |old: i64| -> i64 {
                        match f {
                            AtomicFn::Inc => old + 1,
                            AtomicFn::Dec => old - 1,
                            AtomicFn::Add => old.wrapping_add(av),
                            AtomicFn::Sub => old.wrapping_add(-av),
                            AtomicFn::Xchg => av,
                            AtomicFn::Min => old.min(av),
                            AtomicFn::Max => old.max(av),
                            AtomicFn::Cmpxchg => {
                                if old == av {
                                    bv
                                } else {
                                    old
                                }
                            }
                        }
                    };
                    regs[dst as usize] = match regs[ptr as usize] {
                        Value::LocalPtr { arr, offset } => {
                            let arr =
                                self.locals[arr].as_mut().expect("local bound before use");
                            let i = offset as usize;
                            let old = arr[i].as_i64();
                            arr[i] = Value::Int(apply(old));
                            Value::Int(old)
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
                            // Atomics take effect even in profile mode: they
                            // carry scheduling state, not workload data.
                            b.store_i64(i, apply(old));
                            Value::Int(old)
                        }
                        Value::PrivPtr { arr, offset } => {
                            let arr = &mut self.priv_arrays[arr];
                            let i = offset as usize;
                            let old = arr[i].as_i64();
                            arr[i] = Value::Int(apply(old));
                            Value::Int(old)
                        }
                        other => {
                            return Err(ExecError::new(
                                format!("atomic operation on non-pointer {:?}", other),
                                span,
                            ));
                        }
                    };
                }
                Insn::Math1 { f, dst, x } => {
                    let x = regs[x as usize].as_f32();
                    self.tracer.arith(true, 4.0);
                    let r = match f {
                        Math1Fn::Sqrt => x.sqrt(),
                        Math1Fn::Rsqrt => 1.0 / x.sqrt(),
                        Math1Fn::Fabs => x.abs(),
                        Math1Fn::Exp => x.exp(),
                        Math1Fn::Log => x.ln(),
                        Math1Fn::Sin => x.sin(),
                        Math1Fn::Cos => x.cos(),
                        Math1Fn::Floor => x.floor(),
                        Math1Fn::Ceil => x.ceil(),
                    };
                    regs[dst as usize] = Value::Float(r);
                }
                Insn::Math2 { f, dst, a, b } => {
                    let a = regs[a as usize].as_f32();
                    let b = regs[b as usize].as_f32();
                    self.tracer.arith(true, if f == Math2Fn::Pow { 4.0 } else { 1.0 });
                    let r = match f {
                        Math2Fn::Pow => a.powf(b),
                        Math2Fn::Fmin => a.min(b),
                        Math2Fn::Fmax => a.max(b),
                    };
                    regs[dst as usize] = Value::Float(r);
                }
                Insn::Mad { dst, a, b, c } => {
                    let a = regs[a as usize].as_f32();
                    let b = regs[b as usize].as_f32();
                    let c = regs[c as usize].as_f32();
                    self.tracer.arith(true, 2.0);
                    regs[dst as usize] = Value::Float(a * b + c);
                }
                Insn::MinMax { is_min, dst, a, b } => {
                    let a = regs[a as usize];
                    let b = regs[b as usize];
                    let float = a.is_float() || b.is_float();
                    self.tracer.arith(float, 1.0);
                    regs[dst as usize] = match (is_min, float) {
                        (true, true) => Value::Float(a.as_f32().min(b.as_f32())),
                        (false, true) => Value::Float(a.as_f32().max(b.as_f32())),
                        (true, false) => Value::Int(a.as_i64().min(b.as_i64())),
                        (false, false) => Value::Int(a.as_i64().max(b.as_i64())),
                    };
                }
                Insn::Abs { dst, src } => {
                    let v = regs[src as usize];
                    self.tracer.arith(v.is_float(), 1.0);
                    regs[dst as usize] = match v {
                        Value::Int(x) => Value::Int(x.abs()),
                        Value::Float(x) => Value::Float(x.abs()),
                        _ => return Err(ExecError::new("abs on pointer", span)),
                    };
                }
                Insn::LoopBegin { var, bound, counter, scaled, ffwd, delta, cmp } => {
                    let bnd = regs[bound as usize].as_i64();
                    let cur = regs[var as usize].as_i64();
                    let trips: i64 = match cmp {
                        BinOp::Lt => (bnd - cur + delta - 1).div_euclid(delta).max(0),
                        BinOp::Le => (bnd - cur + delta).div_euclid(delta).max(0),
                        BinOp::Gt => (cur - bnd - delta - 1).div_euclid(-delta).max(0),
                        _ => (cur - bnd - delta).div_euclid(-delta).max(0),
                    };
                    let trips = trips as u64;
                    let samples = PROFILE_LOOP_SAMPLES as u64;
                    if trips <= samples * 2 {
                        // Short loop: run every iteration, no extrapolation.
                        regs[counter as usize] = Value::Int(trips as i64);
                        regs[scaled as usize] = Value::Int(0);
                    } else {
                        self.tracer.begin_scale(trips as f64 / samples as f64);
                        scale_depth += 1;
                        regs[counter as usize] = Value::Int(samples as i64);
                        regs[scaled as usize] = Value::Int(1);
                        regs[ffwd as usize] = Value::Int((trips - samples) as i64 * delta);
                    }
                }
                Insn::LoopNext { counter, scaled, ffwd, var, back } => {
                    let c = regs[counter as usize].as_i64() - 1;
                    regs[counter as usize] = Value::Int(c);
                    if c > 0 {
                        pc = back as usize;
                        continue;
                    }
                    if regs[scaled as usize].is_truthy() {
                        self.tracer.end_scale();
                        scale_depth -= 1;
                        regs[scaled as usize] = Value::Int(0);
                        // Fast-forward the induction variable to its
                        // post-loop value.
                        regs[var as usize] = Value::Int(
                            regs[var as usize].as_i64() + regs[ffwd as usize].as_i64(),
                        );
                    }
                }
                Insn::EndScaleIf { scaled } => {
                    if regs[scaled as usize].is_truthy() {
                        self.tracer.end_scale();
                        scale_depth -= 1;
                        regs[scaled as usize] = Value::Int(0);
                    }
                }
                Insn::Ret => {
                    // `return` out of extrapolated loops closes every open
                    // scale region (Flow::Return propagation).
                    for _ in 0..scale_depth {
                        self.tracer.end_scale();
                    }
                    return Ok(true);
                }
                Insn::Fail { ref msg } => {
                    return Err(ExecError::new(msg.to_string(), span));
                }
            }
            pc += 1;
        }
        Ok(false)
    }
}

/// Per-item state surviving across barrier phases (registers and private
/// arrays).
struct Item {
    regs: Vec<Value>,
    priv_arrays: Vec<Vec<Value>>,
    returned: bool,
}

/// Execute one entire work-group (all its work-items, phase by phase).
pub fn run_work_group<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    group_linear: usize,
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    let params = bind_args(&ck.name, &ck.params, ck.span, args, mem)?;
    let local_size = nd.local_size();
    let group = nd.group_coords(group_linear);
    let mut locals: Vec<Option<Vec<Value>>> = vec![None; ck.locals.len()];
    let mut items: Vec<Item> = (0..local_size)
        .map(|_| {
            let mut regs = vec![Value::Int(0); ck.n_regs];
            regs[..params.len()].copy_from_slice(&params);
            Item { regs, priv_arrays: Vec::new(), returned: false }
        })
        .collect();
    for phase in &ck.phases {
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
            let mut vm = Vm {
                mem,
                tracer,
                mode,
                nd,
                gid,
                lid: local,
                grp: group,
                specs: &ck.locals,
                locals: &mut locals,
                priv_arrays: &mut item.priv_arrays,
            };
            if vm.run_phase(phase, &mut item.regs)? {
                item.returned = true;
            }
        }
    }
    Ok(())
}

/// Execute the whole NDRange functionally (every group, every item).
pub fn run_kernel<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    nd.validate().map_err(|m| ExecError::new(m, ck.span))?;
    for g in 0..nd.num_groups() {
        run_work_group(ck, args, nd, g, mem, mode, tracer)?;
    }
    Ok(())
}

/// Execute specific work-items by *global linear id* (dimension 0 fastest),
/// each in its own single-item context. Used by the profiler; kernels with
/// barriers are rejected (profiling targets original, barrier-free kernels).
pub fn run_single_items<T: Tracer>(
    ck: &CompiledKernel,
    args: &[ArgValue],
    nd: &NdRange,
    global_ids: &[usize],
    mem: &mut Memory,
    mode: Mode,
    tracer: &mut T,
) -> ExecResult<()> {
    if ck.phases.len() > 1 {
        return Err(ExecError::new(
            "run_single_items cannot execute kernels with barriers",
            ck.span,
        ));
    }
    let params = bind_args(&ck.name, &ck.params, ck.span, args, mem)?;
    // One register file and arena reused across items (reset per item, so
    // every item starts from fresh state without reallocating).
    let mut regs = vec![Value::Int(0); ck.n_regs];
    let mut priv_arrays: Vec<Vec<Value>> = Vec::new();
    let mut locals: Vec<Option<Vec<Value>>> = vec![None; ck.locals.len()];
    for &linear in global_ids {
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
        for r in regs.iter_mut() {
            *r = Value::Int(0);
        }
        regs[..params.len()].copy_from_slice(&params);
        priv_arrays.clear();
        for l in locals.iter_mut() {
            *l = None;
        }
        let mut vm = Vm {
            mem,
            tracer,
            mode,
            nd,
            gid,
            lid,
            grp,
            specs: &ck.locals,
            locals: &mut locals,
            priv_arrays: &mut priv_arrays,
        };
        vm.run_phase(&ck.phases[0], &mut regs)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{compile_kernel, NullTracer, TracingTracer};

    fn kernel_of(src: &str) -> clc::Kernel {
        clc::compile(src).unwrap().kernels.remove(0)
    }

    fn compile1(src: &str) -> CompiledKernel {
        compile_kernel(&kernel_of(src)).unwrap()
    }

    fn run(src: &str, args: &[ArgValue], nd: NdRange, mem: &mut Memory) {
        let k = compile1(src);
        run_kernel(&k, args, &nd, mem, Mode::Full, &mut NullTracer).unwrap();
    }

    #[test]
    fn vector_scale() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32((0..16).map(|i| i as f32).collect());
        run(
            "__kernel void s(__global float* a, float f, int n) {
                int i = get_global_id(0);
                if (i < n) { a[i] = a[i] * f; }
            }",
            &[ArgValue::Buffer(a), ArgValue::Float(2.0), ArgValue::Int(16)],
            NdRange::d1(16, 4),
            &mut mem,
        );
        let out = mem.read_f32(a);
        assert_eq!(out[5], 10.0);
        assert_eq!(out[15], 30.0);
    }

    #[test]
    fn two_dim_ids() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 8 * 4]);
        run(
            "__kernel void f(__global int* a, int w) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                a[y * w + x] = y * 100 + x;
            }",
            &[ArgValue::Buffer(a), ArgValue::Int(8)],
            NdRange::d2([8, 4], [4, 2]),
            &mut mem,
        );
        let out = mem.read_i32(a);
        assert_eq!(out[0], 0);
        assert_eq!(out[8 * 3 + 7], 307);
    }

    #[test]
    fn nested_loops_matrix_sum() {
        let mut mem = Memory::new();
        let n = 4usize;
        let a = mem.alloc_f32(vec![1.0; n * n * n]);
        let b = mem.alloc_f32(vec![2.0; n * n * n]);
        let c = mem.alloc_f32(vec![0.0; n * n * n]);
        run(
            "__kernel void two_mat3d(__global float* A, __global float* B, __global float* C,
                                     int NZ, int NY, int NX) {
                int z = get_global_id(0);
                if (z < NZ) {
                    for (int y = 0; y < NY; y++) {
                        for (int x = 0; x < NX; x++) {
                            int idx = z * (NY * NX) + y * NX + x;
                            C[idx] = A[idx] + B[idx];
                        }
                    }
                }
            }",
            &[
                ArgValue::Buffer(a),
                ArgValue::Buffer(b),
                ArgValue::Buffer(c),
                ArgValue::Int(n as i64),
                ArgValue::Int(n as i64),
                ArgValue::Int(n as i64),
            ],
            NdRange::d1(n, 2),
            &mut mem,
        );
        assert!(mem.read_f32(c).iter().all(|&v| v == 3.0));
    }

    #[test]
    fn barrier_and_local_worklist() {
        // The exact malleable shape from paper Fig. 5: only lanes with
        // local_id % mod < alloc work, pulling items off a local worklist.
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 32]);
        run(
            "__kernel void m(__global float* A, int dop_mod, int dop_alloc) {
                __local int wl[1];
                if (get_local_id(0) == 0) { wl[0] = 0; }
                barrier(CLK_LOCAL_MEM_FENCE);
                if (get_local_id(0) % dop_mod < dop_alloc) {
                    for (int w = atomic_inc(wl); w < get_local_size(0); w = atomic_inc(wl)) {
                        int idx = get_group_id(0) * get_local_size(0) + w;
                        A[idx] = A[idx] + 1.0f;
                    }
                }
            }",
            &[ArgValue::Buffer(a), ArgValue::Int(4), ArgValue::Int(1)],
            NdRange::d1(32, 8),
            &mut mem,
        );
        // Every element incremented exactly once despite only 1/4 of lanes
        // being active.
        assert!(mem.read_f32(a).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn nested_barrier_rejected() {
        // The VM rejects the kernel when lowering it, before any launch.
        let k = kernel_of(
            "__kernel void f() { if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); } }",
        );
        let err = compile_kernel(&k).unwrap_err();
        assert!(err.message.contains("top-level"));
    }

    #[test]
    fn out_of_bounds_reported() {
        let k = compile1(
            "__kernel void f(__global float* a) { a[get_global_id(0)] = 1.0f; }",
        );
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 2]);
        let err = run_kernel(
            &k,
            &[ArgValue::Buffer(a)],
            &NdRange::d1(4, 2),
            &mut mem,
            Mode::Full,
            &mut NullTracer,
        )
        .unwrap_err();
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn division_by_zero_reported() {
        let k = compile1("__kernel void f(int x, int y) { x = x / y; }");
        let mut mem = Memory::new();
        let err = run_kernel(
            &k,
            &[ArgValue::Int(1), ArgValue::Int(0)],
            &NdRange::d1(1, 1),
            &mut mem,
            Mode::Full,
            &mut NullTracer,
        )
        .unwrap_err();
        assert!(err.message.contains("division by zero"));
    }

    #[test]
    fn wrong_arg_count_reported() {
        let k = compile1("__kernel void f(int x) { x = 0; }");
        let mut mem = Memory::new();
        let err = run_kernel(
            &k,
            &[],
            &NdRange::d1(1, 1),
            &mut mem,
            Mode::Full,
            &mut NullTracer,
        )
        .unwrap_err();
        assert!(err.message.contains("takes 1 arguments"));
    }

    #[test]
    fn profile_mode_suppresses_global_stores() {
        let k = compile1("__kernel void f(__global float* a) { a[get_global_id(0)] = 5.0f; }");
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 4]);
        let mut t = TracingTracer::new();
        run_single_items(
            &k,
            &[ArgValue::Buffer(a)],
            &NdRange::d1(4, 4),
            &[0, 1],
            &mut mem,
            Mode::Profile,
            &mut t,
        )
        .unwrap();
        assert_eq!(mem.read_f32(a), &[1.0; 4]); // untouched
        assert_eq!(t.total_accesses(), 2.0); // but traced
    }

    #[test]
    fn profile_extrapolates_long_loops() {
        // 1000-iteration loop: only ~4 iterations actually execute but the
        // tracer reports ~1000 accesses.
        let k = compile1(
            "__kernel void f(__global float* a, float s, int n) {
                for (int i = 0; i < n; i++) { s = s + a[i % 8]; }
                a[0] = s;
            }",
        );
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![1.0; 8]);
        let mut t = TracingTracer::new();
        run_single_items(
            &k,
            &[ArgValue::Buffer(a), ArgValue::Float(0.0), ArgValue::Int(1000)],
            &NdRange::d1(1, 1),
            &[0],
            &mut mem,
            Mode::Profile,
            &mut t,
        )
        .unwrap();
        let loads: f64 = t
            .sites()
            .filter(|(_, s)| !s.is_store)
            .map(|(_, s)| s.count)
            .sum();
        assert!((loads - 1000.0).abs() < 1e-6, "extrapolated loads = {}", loads);
    }

    #[test]
    fn profile_and_full_agree_on_counts_for_short_loops() {
        let src = "__kernel void f(__global float* a, float s, int n) {
            for (int i = 0; i < n; i++) { s = s + a[i]; }
            a[0] = s;
        }";
        let k = compile1(src);
        let nd = NdRange::d1(1, 1);
        let count_with = |mode: Mode| {
            let mut mem = Memory::new();
            let a = mem.alloc_f32(vec![1.0; 8]);
            let mut t = TracingTracer::new();
            run_single_items(
                &k,
                &[ArgValue::Buffer(a), ArgValue::Float(0.0), ArgValue::Int(8)],
                &nd,
                &[0],
                &mut mem,
                mode,
                &mut t,
            )
            .unwrap();
            t.total_accesses()
        };
        assert_eq!(count_with(Mode::Full), count_with(Mode::Profile));
    }

    #[test]
    fn data_dependent_loop_extrapolates_with_loaded_bound() {
        // SpMV-style loop bound loaded from a row-pointer array.
        let k = compile1(
            "__kernel void f(__global int* rp, __global float* v, __global float* out) {
                int i = get_global_id(0);
                float s = 0.0f;
                for (int j = rp[i]; j < rp[i + 1]; j++) { s = s + v[j]; }
                out[i] = s;
            }",
        );
        let mut mem = Memory::new();
        let rp = mem.alloc_i32(vec![0, 100, 300]);
        let v = mem.alloc_f32(vec![1.0; 300]);
        let out = mem.alloc_f32(vec![0.0; 2]);
        let mut t = TracingTracer::new();
        run_single_items(
            &k,
            &[ArgValue::Buffer(rp), ArgValue::Buffer(v), ArgValue::Buffer(out)],
            &NdRange::d1(2, 1),
            &[1],
            &mut mem,
            Mode::Profile,
            &mut t,
        )
        .unwrap();
        // Row 1 has 200 elements.
        let v_loads: f64 = t
            .sites()
            .filter(|(_, s)| s.buffer == Some(v) && !s.is_store)
            .map(|(_, s)| s.count)
            .sum();
        assert!((v_loads - 200.0).abs() < 1e-6, "v loads = {}", v_loads);
    }

    #[test]
    fn while_loop_and_break_continue() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 1]);
        run(
            "__kernel void f(__global int* a) {
                int i = 0;
                int sum = 0;
                while (true) {
                    i++;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    sum += i;
                }
                a[0] = sum;
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(1, 1),
            &mut mem,
        );
        assert_eq!(mem.read_i32(a)[0], 1 + 3 + 5 + 7 + 9);
    }

    #[test]
    fn ternary_and_math_builtins() {
        let mut mem = Memory::new();
        let a = mem.alloc_f32(vec![0.0; 3]);
        run(
            "__kernel void f(__global float* a) {
                a[0] = sqrt(16.0f);
                a[1] = fmax(1.0f, 2.0f);
                a[2] = 3 > 2 ? 1.5f : 0.5f;
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(1, 1),
            &mut mem,
        );
        assert_eq!(mem.read_f32(a), &[4.0, 2.0, 1.5]);
    }

    #[test]
    fn int_buffer_backs_long_pointer_and_casts() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 2]);
        run(
            "__kernel void f(__global int* a) {
                a[0] = (int)(2.9f);
                a[1] = (int)((float)7 / 2.0f);
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(1, 1),
            &mut mem,
        );
        assert_eq!(mem.read_i32(a), &[2, 3]);
    }

    #[test]
    fn global_atomics_accumulate_across_groups() {
        let mut mem = Memory::new();
        let c = mem.alloc_i32(vec![0; 1]);
        run(
            "__kernel void f(__global int* c) { atomic_add(c, 2); }",
            &[ArgValue::Buffer(c)],
            NdRange::d1(16, 4),
            &mut mem,
        );
        assert_eq!(mem.read_i32(c)[0], 32);
    }

    #[test]
    fn global_offset_shifts_ids() {
        // OpenCL global_work_offset: ids start at the offset; the guard
        // kernel writes only within [off, off + range).
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 48]);
        let k = compile1(
            "__kernel void f(__global int* a) {
                int i = get_global_id(0);
                a[i] = get_global_offset(0) + 1;
            }",
        );
        let nd = NdRange::d1(16, 8).with_offset([32, 0, 0]);
        run_kernel(&k, &[ArgValue::Buffer(a)], &nd, &mut mem, Mode::Full, &mut NullTracer)
            .unwrap();
        let out = mem.read_i32(a);
        assert!(out[..32].iter().all(|&v| v == 0));
        assert!(out[32..48].iter().all(|&v| v == 33));
    }

    #[test]
    fn return_skips_rest_of_item() {
        let mut mem = Memory::new();
        let a = mem.alloc_i32(vec![0; 4]);
        run(
            "__kernel void f(__global int* a) {
                int i = get_global_id(0);
                if (i >= 2) { return; }
                a[i] = 1;
            }",
            &[ArgValue::Buffer(a)],
            NdRange::d1(4, 4),
            &mut mem,
        );
        assert_eq!(mem.read_i32(a), &[1, 1, 0, 0]);
    }
}
