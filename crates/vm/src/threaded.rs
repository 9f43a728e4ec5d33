//! Threaded template compilation: the execution layer over the
//! regalloc'd decoded stream.
//!
//! `compile_func` lowers each function's validated `DecodedOp` stream
//! into a flat array of pre-bound [`Template`]s — a `fn` pointer paired
//! with a packed operand struct ([`TArgs`]) — so the threaded engine's
//! hot loop in `crate::interp` is `loop { (templates[ip].fn)(...) }`
//! with **no `match` on op kind and no enum payload unpacking**:
//! operands (register indices, immediates, jump targets) are resolved at
//! compile time into per-op monomorphic thunks.
//!
//! ## Template binding rules
//!
//! - **Slot encoding**: operand immediates are materialized into
//!   per-function constant pools ([`ThreadedFunc::consts`] /
//!   [`ThreadedFunc::consts_i64`]) and every operand becomes one `u32`
//!   slot — a register-stack index, or (high bit [`SLOT_CONST`] set) a
//!   pool index. Reads are `Vm::tval*`: one predictable branch, no
//!   `Operand` match.
//! - **Type-specialized `i64` lanes get their own templates**: `BinI` /
//!   `CmpI` bind one monomorphic thunk per operator (`t_bini::<B_ADD>`,
//!   …), scalar loads/stores one per [`MemTy`] — the op kind is a const
//!   generic, folded at compile time. [`DecodedOp::ElidedCopy`] binds
//!   its own retire-only thunk.
//! - Payload-carrying cold ops (calls, `Ret` with 2+ values, vector
//!   memory, FP-lane ops) keep a dec-bound thunk: a monomorphic handler
//!   that reads its own `DecodedOp` (irrefutable match) — still no
//!   dispatch `match`.
//! - Every template also pre-binds its synthetic `pc`, so the hot loop
//!   never touches the `pcs` table.
//!
//! ## Superblock formation
//!
//! On top of the template stream, `form_blocks` forms straight-line
//! superblocks at compile time: maximal runs of block-eligible ops
//! (everything except calls, returns, and vector memory refs that are
//! strided, register-strided or wider than 64 bytes) that no jump
//! target lands inside, optionally ending in a branch. Each block
//! precomputes its machine-op total, memory-reference count (each
//! reference scalar or unit-stride vector, so ≤ 2 lines), branch count,
//! and FLOP total — the shape
//! [`mperf_sim::Core::block_ready`] turns into a conservative PMU event
//! bound checked **once** against the watermark headroom, so a block of
//! 6–20 ops ticks the PMU a single time via
//! [`mperf_sim::Core::retire_block`] instead of per op.
//!
//! **The observable-invariance contract** is the same as regalloc's:
//! cycles, instructions, PMU counter files, sampling IPs/callchains, and
//! traps landing mid-block are bit-identical to the reference engine.
//! Three mechanisms enforce it:
//! - the block-entry guard: whole-block fuel plus PMU headroom;
//! - exact near-wrap mode where the headroom check fails: a block whose
//!   every slot retires one machine op (no host call or profile
//!   counter) stays deferred, checks the accumulated events against the
//!   PMU's remaining budget after each op, and commits at the first op
//!   that crosses it, delivering any overflow at that op. Other refused
//!   blocks fall back to per-op template execution;
//! - eager timing with deferred ticks, so `Core::cycles` stays exact
//!   mid-block and a mid-block trap commits the partial accumulator —
//!   additive counters make the split unobservable.
//!
//! **Adding a template for a new `DecodedOp`**: give it a thunk
//! (generic over `const DEFER: bool` — `false` retires per op, `true`
//! defers the PMU tick into the open block accumulator — dispatched via
//! the `single`/`block` entries of its [`Template`]), bind it in
//! `bind`, and classify it in `unit_cost` (blockable? how many
//! machine ops / memory refs / branches / FLOPs?). The cross-engine
//! equivalence properties in `tests/properties.rs` then gate the
//! observables.

use crate::decode::{DecodedFunc, DecodedModule, DecodedOp, HostTarget};
use crate::error::VmError;
use crate::interp::{eval_bin, eval_cast, eval_cmp, eval_fma, DFrame, Step, TCtx, Vm};
use crate::value::{LanesF32, LanesF64, LanesI64, Value};
use mperf_ir::{BinOp, CmpOp, MemTy, Operand, ReduceOp, Ty, UnOp};
use mperf_sim::cache::LINE_BYTES;
use mperf_sim::machine_op::{MachineOp, MemRef, OpClass};
use std::fmt;

/// High bit of an operand slot: set ⇒ the low bits index the function's
/// constant pool; clear ⇒ they index the frame's register window.
pub const SLOT_CONST: u32 = 1 << 31;

/// Packed pre-bound operands of one template: four generic `u32` fields
/// (register/pool slots or jump targets — meaning fixed per thunk) plus
/// the op's synthetic pc.
#[derive(Debug, Clone, Copy, Default)]
pub struct TArgs {
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub d: u32,
    pub pc: u64,
}

/// One template thunk: `(vm, decoded module, this function's threaded
/// form, pre-bound args, frame cursor) -> control`.
pub(crate) type ThunkFn = for<'a, 'm> fn(
    &'a mut Vm<'m>,
    &'a DecodedModule,
    &'a ThreadedFunc,
    &'a TArgs,
    &'a mut TCtx,
) -> Result<Step, VmError>;

/// One pre-bound op: a tick-per-op entry point (`single`), a
/// deferred-tick entry point for superblock execution (`block` — the
/// same thunk monomorphized with `DEFER = true`), and the packed
/// operands.
#[derive(Clone, Copy)]
pub struct Template {
    pub(crate) single: ThunkFn,
    pub(crate) block: ThunkFn,
    pub args: TArgs,
}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Template")
            .field("args", &self.args)
            .finish()
    }
}

/// One straight-line superblock over the template stream. All fields are
/// compile-time constants of the stream; `machine_ops` is exact (every
/// covered slot retires a fixed machine-op count), the rest are the
/// shape [`mperf_sim::Core::block_ready`] bounds events with.
#[derive(Debug, Clone, Copy)]
pub struct BlockInfo {
    /// First covered op index.
    pub start: u32,
    /// Final covered slot index — the driver stops after dispatching
    /// its template.
    pub last: u32,
    /// Total machine ops the block retires.
    pub machine_ops: u32,
    /// Memory references inside the block, each touching ≤ 2 lines
    /// (scalar, or unit-stride vector of at most 64 bytes).
    pub mem_refs: u32,
    /// Branch ops inside the block (0 or 1, always last).
    pub branches: u32,
    /// Architectural FLOPs inside the block.
    pub flops: u32,
}

/// The threaded form of one function: templates parallel to the decoded
/// op array (so pre-resolved jump targets stay valid), superblock table,
/// and the operand constant pools.
#[derive(Debug, Clone, Default)]
pub struct ThreadedFunc {
    /// One pre-bound template per decoded op slot.
    pub templates: Vec<Template>,
    /// Superblocks; entered only at their first slot.
    pub blocks: Vec<BlockInfo>,
    /// Per-slot superblock index (`u32::MAX` = no block starts here).
    pub block_at: Vec<u32>,
    /// Value-lane immediates referenced by [`SLOT_CONST`] slots.
    pub consts: Vec<Value>,
    /// Raw-`i64` immediates for the type-specialized integer lanes.
    pub consts_i64: Vec<i64>,
}

/// Compile one decoded (validated, regalloc'd) function into its
/// threaded template form. Runs once per decode, after `validate_func`
/// — the thunks' unchecked register accesses rely on its pinned
/// invariants.
pub(crate) fn compile_func(df: &DecodedFunc) -> ThreadedFunc {
    let mut tf = ThreadedFunc {
        templates: Vec::with_capacity(df.ops.len()),
        ..ThreadedFunc::default()
    };
    for (op, pc) in df.ops.iter().zip(&df.pcs) {
        let t = bind(op, &mut tf, *pc);
        tf.templates.push(t);
    }
    form_blocks(df, &mut tf);
    debug_assert_eq!(tf.templates.len(), df.ops.len());
    debug_assert_eq!(tf.block_at.len(), df.ops.len());
    tf
}

// ---------------------------------------------------------------------
// Operand slot binding.

fn vconst(pool: &mut Vec<Value>, v: Value) -> u32 {
    let idx = pool.iter().position(|p| p == &v).unwrap_or_else(|| {
        pool.push(v);
        pool.len() - 1
    });
    assert!((idx as u32) < SLOT_CONST, "constant pool overflow");
    idx as u32 | SLOT_CONST
}

/// Value-lane operand → slot.
fn vslot(o: &Operand, pool: &mut Vec<Value>) -> u32 {
    match o {
        Operand::Reg(r) => r.index() as u32,
        Operand::I64(v) => vconst(pool, Value::I64(*v)),
        Operand::F32(v) => vconst(pool, Value::F32(*v)),
        Operand::F64(v) => vconst(pool, Value::F64(*v)),
        Operand::Bool(v) => vconst(pool, Value::Bool(*v)),
    }
}

/// Raw-`i64`-lane operand → slot (verifier guarantees the type).
fn islot(o: &Operand, pool: &mut Vec<i64>) -> u32 {
    match o {
        Operand::Reg(r) => r.index() as u32,
        Operand::I64(v) => {
            let idx = pool.iter().position(|p| p == v).unwrap_or_else(|| {
                pool.push(*v);
                pool.len() - 1
            });
            assert!((idx as u32) < SLOT_CONST, "constant pool overflow");
            idx as u32 | SLOT_CONST
        }
        other => unreachable!("verifier admits i64 operand, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Template binding.

/// Build a two-entry template from a `const DEFER: bool` thunk, or a
/// three-param thunk carrying an extra const (op kind, memory type).
macro_rules! tpl {
    ($f:ident, $args:expr) => {
        Template {
            single: $f::<false>,
            block: $f::<true>,
            args: $args,
        }
    };
    ($f:ident, $c:expr, $args:expr) => {
        Template {
            single: $f::<{ $c }, false>,
            block: $f::<{ $c }, true>,
            args: $args,
        }
    };
}

/// A template whose op can never sit inside a superblock (calls,
/// returns): both entries point at the tick-per-op thunk.
fn single_only(f: ThunkFn, args: TArgs) -> Template {
    Template {
        single: f,
        block: f,
        args,
    }
}

// Const-generic op-kind encodings (folded inside the monomorphic
// thunks; never decoded at runtime).
const B_ADD: u8 = 0;
const B_SUB: u8 = 1;
const B_MUL: u8 = 2;
const B_DIV: u8 = 3;
const B_REM: u8 = 4;
const B_AND: u8 = 5;
const B_OR: u8 = 6;
const B_XOR: u8 = 7;
const B_SHL: u8 = 8;
const B_SHR: u8 = 9;

const C_EQ: u8 = 0;
const C_NE: u8 = 1;
const C_LT: u8 = 2;
const C_LE: u8 = 3;
const C_GT: u8 = 4;
const C_GE: u8 = 5;

const M_I8: u8 = 0;
const M_I16: u8 = 1;
const M_I32: u8 = 2;
const M_I64: u8 = 3;
const M_F32: u8 = 4;
const M_F64: u8 = 5;

const fn mem_of(mt: u8) -> MemTy {
    match mt {
        M_I8 => MemTy::I8,
        M_I16 => MemTy::I16,
        M_I32 => MemTy::I32,
        M_I64 => MemTy::I64,
        M_F32 => MemTy::F32,
        _ => MemTy::F64,
    }
}

fn bini_template(op: BinOp, args: TArgs) -> Template {
    match op {
        BinOp::Add => tpl!(t_bini, B_ADD, args),
        BinOp::Sub => tpl!(t_bini, B_SUB, args),
        BinOp::Mul => tpl!(t_bini, B_MUL, args),
        BinOp::Div => tpl!(t_bini, B_DIV, args),
        BinOp::Rem => tpl!(t_bini, B_REM, args),
        BinOp::And => tpl!(t_bini, B_AND, args),
        BinOp::Or => tpl!(t_bini, B_OR, args),
        BinOp::Xor => tpl!(t_bini, B_XOR, args),
        BinOp::Shl => tpl!(t_bini, B_SHL, args),
        BinOp::Shr => tpl!(t_bini, B_SHR, args),
        other => unreachable!("verifier admits integer {other:?}"),
    }
}

fn cmpi_template(op: CmpOp, args: TArgs) -> Template {
    match op {
        CmpOp::Eq => tpl!(t_cmpi, C_EQ, args),
        CmpOp::Ne => tpl!(t_cmpi, C_NE, args),
        CmpOp::Lt => tpl!(t_cmpi, C_LT, args),
        CmpOp::Le => tpl!(t_cmpi, C_LE, args),
        CmpOp::Gt => tpl!(t_cmpi, C_GT, args),
        CmpOp::Ge => tpl!(t_cmpi, C_GE, args),
    }
}

fn load_template(mem: MemTy, args: TArgs) -> Template {
    match mem {
        MemTy::I8 => tpl!(t_load_scalar, M_I8, args),
        MemTy::I16 => tpl!(t_load_scalar, M_I16, args),
        MemTy::I32 => tpl!(t_load_scalar, M_I32, args),
        MemTy::I64 => tpl!(t_load_scalar, M_I64, args),
        MemTy::F32 => tpl!(t_load_scalar, M_F32, args),
        MemTy::F64 => tpl!(t_load_scalar, M_F64, args),
    }
}

fn store_template(mem: MemTy, args: TArgs) -> Template {
    match mem {
        MemTy::I8 => tpl!(t_store_scalar, M_I8, args),
        MemTy::I16 => tpl!(t_store_scalar, M_I16, args),
        MemTy::I32 => tpl!(t_store_scalar, M_I32, args),
        MemTy::I64 => tpl!(t_store_scalar, M_I64, args),
        MemTy::F32 => tpl!(t_store_scalar, M_F32, args),
        MemTy::F64 => tpl!(t_store_scalar, M_F64, args),
    }
}

/// Bind one decoded op to its template.
fn bind(op: &DecodedOp, tf: &mut ThreadedFunc, pc: u64) -> Template {
    use DecodedOp as D;
    let args0 = TArgs {
        pc,
        ..TArgs::default()
    };
    match op {
        D::BinI {
            op, dst, lhs, rhs, ..
        } => bini_template(
            *op,
            TArgs {
                a: *dst,
                b: islot(lhs, &mut tf.consts_i64),
                c: islot(rhs, &mut tf.consts_i64),
                d: 0,
                pc,
            },
        ),
        D::CmpI { op, dst, lhs, rhs } => cmpi_template(
            *op,
            TArgs {
                a: *dst,
                b: islot(lhs, &mut tf.consts_i64),
                c: islot(rhs, &mut tf.consts_i64),
                d: 0,
                pc,
            },
        ),
        D::PtrAdd { dst, base, offset } => tpl!(
            t_ptradd,
            TArgs {
                a: *dst,
                b: islot(base, &mut tf.consts_i64),
                c: islot(offset, &mut tf.consts_i64),
                d: 0,
                pc,
            }
        ),
        D::Select { dst, cond, t, f } => tpl!(
            t_select,
            TArgs {
                a: *dst,
                b: vslot(cond, &mut tf.consts),
                c: vslot(t, &mut tf.consts),
                d: vslot(f, &mut tf.consts),
                pc,
            }
        ),
        D::Copy { dst, src } => tpl!(
            t_copy,
            TArgs {
                a: *dst,
                b: vslot(src, &mut tf.consts),
                d: 0,
                c: 0,
                pc,
            }
        ),
        D::ElidedCopy => tpl!(t_elided, args0),
        D::Load {
            lanes: 1,
            dst,
            addr,
            mem,
            ..
        } => load_template(
            *mem,
            TArgs {
                a: *dst,
                b: islot(addr, &mut tf.consts_i64),
                c: 0,
                d: 0,
                pc,
            },
        ),
        D::Store {
            lanes: 1,
            addr,
            val,
            mem,
            ..
        } => store_template(
            *mem,
            TArgs {
                a: islot(addr, &mut tf.consts_i64),
                b: vslot(val, &mut tf.consts),
                c: 0,
                d: 0,
                pc,
            },
        ),
        D::Load { .. } => tpl!(t_load_vec, args0),
        D::Store { .. } => tpl!(t_store_vec, args0),
        D::Bin { .. } => tpl!(t_bin, args0),
        D::Cmp { .. } => tpl!(t_cmp, args0),
        D::Un { .. } => tpl!(t_un, args0),
        D::Fma { .. } => tpl!(t_fma, args0),
        D::Cast { .. } => tpl!(t_cast, args0),
        D::Splat { .. } => tpl!(t_splat, args0),
        D::Reduce { .. } => tpl!(t_reduce, args0),
        D::ProfCount(_) => tpl!(t_profcount, args0),
        D::CallHost { .. } => tpl!(t_callhost, args0),
        D::CallFunc { .. } => single_only(t_callfunc, args0),
        D::Br { target } => tpl!(
            t_br,
            TArgs {
                a: *target,
                b: 0,
                c: 0,
                d: 0,
                pc,
            }
        ),
        D::CondBr { cond, t, f } => tpl!(
            t_condbr,
            TArgs {
                a: vslot(cond, &mut tf.consts),
                b: *t,
                c: *f,
                d: 0,
                pc,
            }
        ),
        D::Ret { vals } => match vals.len() {
            0 => single_only(t_ret0, args0),
            1 => single_only(
                t_ret1,
                TArgs {
                    a: vslot(&vals[0], &mut tf.consts),
                    b: 0,
                    c: 0,
                    d: 0,
                    pc,
                },
            ),
            _ => single_only(t_retn, args0),
        },
    }
}

// ---------------------------------------------------------------------
// Superblock formation.

struct Unit {
    machine_ops: u32,
    mem_refs: u32,
    branches: u32,
    flops: u32,
    term: bool,
}

/// Classify one op slot as a block unit, or `None` when it cannot sit
/// inside a superblock (frame transfers, and vector memory refs whose
/// event footprint the block shape does not bound).
fn unit_cost(op: &DecodedOp) -> Option<Unit> {
    use DecodedOp as D;
    let unit = |machine_ops, mem_refs, branches, flops, term| Unit {
        machine_ops,
        mem_refs,
        branches,
        flops,
        term,
    };
    Some(match op {
        D::CallFunc { .. } | D::Ret { .. } => return None,
        // A vector ref joins only when its stride is the constant lane
        // width and it spans at most one line's bytes: it then touches
        // ≤ 2 lines, the scalar-ref shape `block_ready` bounds, with no
        // strided-lane penalty. Strided, register-stride and wider refs
        // keep per-op retire.
        D::Load {
            lanes, mem, stride, ..
        }
        | D::Store {
            lanes, mem, stride, ..
        } if *lanes > 1
            && (*stride != Operand::I64(mem.bytes() as i64)
                || *lanes as u64 * mem.bytes() > LINE_BYTES) =>
        {
            return None
        }
        D::Br { .. } => unit(1, 0, 0, 0, true),
        D::CondBr { .. } => unit(1, 0, 1, 0, true),
        D::CallHost { .. } => unit(4, 0, 0, 0, false),
        D::ProfCount(_) => unit(5, 2, 0, 0, false),
        D::Bin { flops, .. }
        | D::Un { flops, .. }
        | D::Fma { flops, .. }
        | D::Reduce { flops, .. } => unit(1, 0, 0, *flops, false),
        D::Load { .. } | D::Store { .. } => unit(1, 1, 0, 0, false),
        // BinI, Cmp, CmpI, PtrAdd, Select, Cast, Copy, ElidedCopy, Splat.
        _ => unit(1, 0, 0, 0, false),
    })
}

/// Form maximal straight-line superblocks: runs of blockable ops no
/// jump target lands inside, ending at a branch, a non-blockable op, or
/// a block entry. Runs retiring a single machine op get no block (the
/// per-op path is already optimal for them).
fn form_blocks(df: &DecodedFunc, tf: &mut ThreadedFunc) {
    let len = df.ops.len();
    tf.block_at = vec![u32::MAX; len];
    let mut is_entry = vec![false; len];
    for e in &df.block_entry {
        is_entry[*e as usize] = true;
    }
    let mut i = 0usize;
    while i < len {
        let start = i;
        let (mut mo, mut mem, mut br, mut fl) = (0u32, 0u32, 0u32, 0u32);
        let mut j = i;
        while j < len && (j == start || !is_entry[j]) {
            let Some(u) = unit_cost(&df.ops[j]) else {
                break;
            };
            mo += u.machine_ops;
            mem += u.mem_refs;
            br += u.branches;
            fl += u.flops;
            j += 1;
            if u.term {
                break;
            }
        }
        // A block needs at least two machine ops to amortize its entry
        // guard.
        if mo >= 2 {
            tf.block_at[start] = tf.blocks.len() as u32;
            tf.blocks.push(BlockInfo {
                start: start as u32,
                last: (j - 1) as u32,
                machine_ops: mo,
                mem_refs: mem,
                branches: br,
                flops: fl,
            });
            i = j;
        } else {
            i = start + 1;
        }
    }
}

// ---------------------------------------------------------------------
// Thunks. Every thunk assumes the driver pre-incremented `ctx.cur.ip`
// (so `ctx.cur.ip - 1` is this op's slot), mirrors the reference
// engine's order of effects (evaluate → trap → write → retire), and
// retires through `Vm::retire_*::<DEFER>` — per-op ticks when driven
// singly, deferred accumulation inside a guarded superblock.

/// This thunk's own `DecodedOp` (for the payload-carrying cold ops).
#[inline(always)]
fn cur_op<'a>(dec: &'a DecodedModule, ctx: &TCtx) -> &'a DecodedOp {
    // SAFETY: the driver validated `func`/`ip` exactly as the decoded
    // engine does (validated stream, terminator-last invariant).
    unsafe {
        dec.funcs
            .get_unchecked(ctx.cur.func as usize)
            .ops
            .get_unchecked(ctx.cur.ip as usize - 1)
    }
}

#[inline(always)]
fn bini_eval<const OP: u8>(x: i64, y: i64, pc: u64) -> Result<i64, VmError> {
    Ok(match OP {
        B_ADD => x.wrapping_add(y),
        B_SUB => x.wrapping_sub(y),
        B_MUL => x.wrapping_mul(y),
        B_DIV => {
            if y == 0 {
                return Err(VmError::DivisionByZero { pc });
            }
            x.wrapping_div(y)
        }
        B_REM => {
            if y == 0 {
                return Err(VmError::DivisionByZero { pc });
            }
            x.wrapping_rem(y)
        }
        B_AND => x & y,
        B_OR => x | y,
        B_XOR => x ^ y,
        B_SHL => x.wrapping_shl(y as u32 & 63),
        _ => x.wrapping_shr(y as u32 & 63),
    })
}

fn t_bini<const OP: u8, const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let x = vm.tval_i64(base, ta.b, &tf.consts_i64);
    let y = vm.tval_i64(base, ta.c, &tf.consts_i64);
    let v = bini_eval::<OP>(x, y, ta.pc)?;
    vm.dset(base, ta.a, Value::I64(v));
    let class = match OP {
        B_MUL => OpClass::IntMul,
        B_DIV | B_REM => OpClass::IntDiv,
        _ => OpClass::IntAlu,
    };
    vm.retire_class::<DEFER>(class, ta.pc);
    Ok(Step::Continue)
}

fn t_cmpi<const OP: u8, const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let x = vm.tval_i64(base, ta.b, &tf.consts_i64);
    let y = vm.tval_i64(base, ta.c, &tf.consts_i64);
    let c = match OP {
        C_EQ => x == y,
        C_NE => x != y,
        C_LT => x < y,
        C_LE => x <= y,
        C_GT => x > y,
        _ => x >= y,
    };
    vm.dset(base, ta.a, Value::Bool(c));
    vm.retire_class::<DEFER>(OpClass::IntAlu, ta.pc);
    Ok(Step::Continue)
}

fn t_ptradd<const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let b = vm.tval_i64(base, ta.b, &tf.consts_i64);
    let o = vm.tval_i64(base, ta.c, &tf.consts_i64);
    vm.dset(base, ta.a, Value::I64(b.wrapping_add(o)));
    vm.retire_class::<DEFER>(OpClass::AddrCalc, ta.pc);
    Ok(Step::Continue)
}

fn t_select<const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let c = vm.tval_bool(base, ta.b, &tf.consts);
    let v = if c {
        vm.tval(base, ta.c, &tf.consts)
    } else {
        vm.tval(base, ta.d, &tf.consts)
    };
    vm.dset(base, ta.a, v);
    vm.retire_class::<DEFER>(OpClass::IntAlu, ta.pc);
    Ok(Step::Continue)
}

fn t_copy<const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let v = vm.tval(base, ta.b, &tf.consts);
    vm.dset(base, ta.a, v);
    vm.regalloc_dyn.copies_moved += 1;
    vm.retire_class::<DEFER>(OpClass::Move, ta.pc);
    Ok(Step::Continue)
}

fn t_elided<const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    _ctx: &mut TCtx,
) -> Result<Step, VmError> {
    // A coalesced copy: only the modeled `Move` retires — same machine
    // op, same pc, no data movement.
    vm.stats.mir_ops += 1;
    vm.regalloc_dyn.copies_elided += 1;
    vm.retire_class::<DEFER>(OpClass::Move, ta.pc);
    Ok(Step::Continue)
}

fn t_load_scalar<const MT: u8, const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let addr = vm.tval_i64(base, ta.b, &tf.consts_i64) as u64;
    let mem = mem_of(MT);
    let v = vm.load_scalar(addr, mem)?;
    vm.dset(base, ta.a, v);
    vm.retire_one::<DEFER>(
        MachineOp::simple(OpClass::Load, ta.pc).with_mem(MemRef::scalar(
            addr,
            mem.bytes() as u32,
            false,
        )),
    );
    Ok(Step::Continue)
}

fn t_store_scalar<const MT: u8, const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let addr = vm.tval_i64(base, ta.a, &tf.consts_i64) as u64;
    let mem = mem_of(MT);
    let v = vm.tval(base, ta.b, &tf.consts);
    vm.store_scalar(addr, mem, &v)?;
    vm.retire_one::<DEFER>(
        MachineOp::simple(OpClass::Store, ta.pc).with_mem(MemRef::scalar(
            addr,
            mem.bytes() as u32,
            true,
        )),
    );
    Ok(Step::Continue)
}

fn t_load_vec<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Load {
        class,
        dst,
        addr,
        mem,
        lanes,
        stride,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Load")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let a = vm.deval_i64(base, *addr) as u64;
    let st = vm.deval_i64(base, *stride);
    let v = vm.load_value(a, *mem, *lanes, st)?;
    vm.dset(base, *dst, v);
    let mref = MemRef {
        addr: a,
        bytes: mem.bytes() as u32,
        lanes: *lanes as u32,
        stride: st,
        is_store: false,
    };
    vm.retire_one::<DEFER>(MachineOp::simple(*class, ta.pc).with_mem(mref));
    Ok(Step::Continue)
}

fn t_store_vec<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Store {
        class,
        addr,
        val,
        mem,
        lanes,
        stride,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Store")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let a = vm.deval_i64(base, *addr) as u64;
    let st = vm.deval_i64(base, *stride);
    let v = vm.deval(base, *val);
    vm.store_value(a, *mem, *lanes, st, &v)?;
    let mref = MemRef {
        addr: a,
        bytes: mem.bytes() as u32,
        lanes: *lanes as u32,
        stride: st,
        is_store: true,
    };
    vm.retire_one::<DEFER>(MachineOp::simple(*class, ta.pc).with_mem(mref));
    Ok(Step::Continue)
}

fn t_bin<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Bin {
        op,
        class,
        flops,
        dst,
        lhs,
        rhs,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Bin")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let a = vm.deval(base, *lhs);
    let b = vm.deval(base, *rhs);
    let v = eval_bin(*op, &a, &b, ta.pc)?;
    vm.dset(base, *dst, v);
    vm.retire_one::<DEFER>(MachineOp::simple(*class, ta.pc).with_flops(*flops));
    Ok(Step::Continue)
}

fn t_cmp<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Cmp { op, dst, lhs, rhs } = cur_op(dec, ctx) else {
        unreachable!("bound to Cmp")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let a = vm.deval(base, *lhs);
    let b = vm.deval(base, *rhs);
    vm.dset(base, *dst, Value::Bool(eval_cmp(*op, &a, &b)));
    vm.retire_class::<DEFER>(OpClass::IntAlu, ta.pc);
    Ok(Step::Continue)
}

fn t_un<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Un {
        op,
        class,
        flops,
        dst,
        src,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Un")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let v = vm.deval(base, *src);
    let r = match (op, v) {
        (UnOp::Neg, Value::I64(x)) => Value::I64(x.wrapping_neg()),
        (UnOp::FNeg, Value::F32(x)) => Value::F32(-x),
        (UnOp::FNeg, Value::F64(x)) => Value::F64(-x),
        (UnOp::FNeg, Value::VF32(x)) => Value::VF32(x.iter().map(|l| -l).collect()),
        (UnOp::FNeg, Value::VF64(x)) => Value::VF64(x.iter().map(|l| -l).collect()),
        (UnOp::Not, Value::Bool(x)) => Value::Bool(!x),
        (o, v) => unreachable!("verifier admits {o:?} of {v:?}"),
    };
    vm.dset(base, *dst, r);
    vm.retire_one::<DEFER>(MachineOp::simple(*class, ta.pc).with_flops(*flops));
    Ok(Step::Continue)
}

fn t_fma<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Fma {
        class,
        flops,
        dst,
        a,
        b,
        c,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Fma")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let va = vm.deval(base, *a);
    let vb = vm.deval(base, *b);
    let vc = vm.deval(base, *c);
    let r = eval_fma(va, vb, vc);
    vm.dset(base, *dst, r);
    vm.retire_one::<DEFER>(MachineOp::simple(*class, ta.pc).with_flops(*flops));
    Ok(Step::Continue)
}

fn t_cast<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Cast {
        kind,
        class,
        dst_ty,
        dst,
        src,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Cast")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let v = vm.deval(base, *src);
    let r = eval_cast(*kind, &v, *dst_ty);
    vm.dset(base, *dst, r);
    vm.retire_class::<DEFER>(*class, ta.pc);
    Ok(Step::Continue)
}

fn t_splat<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Splat {
        elem,
        lanes,
        dst,
        src,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Splat")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let v = vm.deval(base, *src);
    let n = *lanes as usize;
    let r = match (elem, v) {
        (Ty::F32, Value::F32(x)) => Value::VF32(LanesF32::splat(x, n)),
        (Ty::F64, Value::F64(x)) => Value::VF64(LanesF64::splat(x, n)),
        (Ty::I64, Value::I64(x)) => Value::VI64(LanesI64::splat(x, n)),
        (t, v) => unreachable!("verifier admits splat {t} of {v:?}"),
    };
    vm.dset(base, *dst, r);
    // Vector class: the vec-instruction event needs the full op path.
    vm.retire_one::<DEFER>(MachineOp::simple(OpClass::VecShuffle, ta.pc));
    Ok(Step::Continue)
}

fn t_reduce<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Reduce {
        op,
        flops,
        dst,
        src,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to Reduce")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let v = vm.deval(base, *src);
    let r = match (op, v) {
        (ReduceOp::FAdd, Value::VF32(x)) => Value::F32(x.iter().sum()),
        (ReduceOp::FAdd, Value::VF64(x)) => Value::F64(x.iter().sum()),
        (ReduceOp::Add, Value::VI64(x)) => {
            Value::I64(x.iter().fold(0i64, |a, b| a.wrapping_add(*b)))
        }
        (o, v) => unreachable!("verifier admits reduce {o:?} of {v:?}"),
    };
    vm.dset(base, *dst, r);
    vm.retire_one::<DEFER>(MachineOp::simple(OpClass::VecShuffle, ta.pc).with_flops(*flops));
    Ok(Step::Continue)
}

fn t_profcount<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::ProfCount(counts) = cur_op(dec, ctx) else {
        unreachable!("bound to ProfCount")
    };
    vm.stats.mir_ops += 1;
    vm.roofline.prof_count(*counts);
    // The counter update is real guest work: a handful of integer ops
    // plus a load/store to the counter block.
    let scratch = vm.prof_scratch;
    vm.retire_classes::<DEFER>(
        &[OpClass::IntAlu, OpClass::IntAlu, OpClass::IntAlu],
        &[ta.pc, ta.pc, ta.pc],
    );
    vm.retire_one::<DEFER>(
        MachineOp::simple(OpClass::Load, ta.pc).with_mem(MemRef::scalar(scratch, 8, false)),
    );
    vm.retire_one::<DEFER>(
        MachineOp::simple(OpClass::Store, ta.pc).with_mem(MemRef::scalar(scratch, 8, true)),
    );
    Ok(Step::Continue)
}

fn t_callhost<const DEFER: bool>(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::CallHost { target, dsts, args } = cur_op(dec, ctx) else {
        unreachable!("bound to CallHost")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let mut argv = std::mem::take(&mut vm.arg_scratch);
    argv.clear();
    for a in args.iter() {
        argv.push(vm.deval(base, *a));
    }
    vm.stats.calls += 1;
    // One call op plus a few instructions of real notification work
    // (mirrors `Vm::call_host`).
    vm.retire_classes::<DEFER>(
        &[
            OpClass::CallRet,
            OpClass::IntAlu,
            OpClass::IntAlu,
            OpClass::IntAlu,
        ],
        &[ta.pc, ta.pc, ta.pc, ta.pc],
    );
    match target {
        HostTarget::LoopBegin => {
            let id = argv[0].as_i64() as u32;
            let now = vm.core.cycles();
            vm.roofline.loop_begin(id, now);
        }
        HostTarget::LoopEnd => {
            let id = argv[0].as_i64() as u32;
            let now = vm.core.cycles();
            vm.roofline.loop_end(id, now);
        }
        HostTarget::IsInstrumented => {
            let v = Value::Bool(vm.roofline.instrumented);
            if let Some(d) = dsts.first() {
                vm.dregs[base + d.index()] = v;
            }
        }
        HostTarget::Named(id) => {
            let name = &dec.host_names[*id as usize];
            let rets = match vm.host.get_mut(name) {
                Some(h) => h(&argv).map_err(VmError::HostFault)?,
                None => {
                    vm.arg_scratch = argv;
                    return Err(VmError::UnknownHost(name.clone()));
                }
            };
            for (d, v) in dsts.iter().zip(rets) {
                vm.dregs[base + d.index()] = v;
            }
        }
    }
    vm.arg_scratch = argv;
    Ok(Step::Continue)
}

/// Single-mode only (calls transfer frames, so they end superblocks).
fn t_callfunc(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::CallFunc {
        callee,
        dsts: _,
        args,
    } = cur_op(dec, ctx)
    else {
        unreachable!("bound to CallFunc")
    };
    vm.stats.mir_ops += 1;
    let base = ctx.cur.base as usize;
    let mut argv = std::mem::take(&mut vm.arg_scratch);
    argv.clear();
    for a in args.iter() {
        argv.push(vm.deval(base, *a));
    }
    vm.stats.calls += 1;
    vm.retire_d(MachineOp::simple(OpClass::CallRet, ta.pc));
    if vm.dstack.len() >= vm.max_depth {
        vm.arg_scratch = argv;
        return Err(VmError::StackOverflow {
            depth: vm.dstack.len(),
        });
    }
    // SAFETY: callee ids are validated at decode time.
    let cf = unsafe { dec.funcs.get_unchecked(*callee as usize) };
    let new_base = vm.dregs.len();
    vm.dregs
        .resize(new_base + cf.num_regs as usize, Value::I64(0));
    for (p, a) in cf.params.iter().zip(argv.drain(..)) {
        vm.dregs[new_base + *p as usize] = a;
    }
    vm.arg_scratch = argv;
    vm.dstack.last_mut().expect("caller frame").ip = ctx.cur.ip;
    ctx.cur = DFrame {
        func: *callee,
        base: new_base as u32,
        ip: 0,
        call_pc: ta.pc,
    };
    vm.dstack.push(ctx.cur);
    Ok(Step::Continue)
}

/// Shared frame-pop tail of the `Ret` templates.
#[inline(always)]
fn ret_with(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    ctx: &mut TCtx,
    mut out: Vec<Value>,
    pc: u64,
) -> Result<Step, VmError> {
    vm.retire_d(MachineOp::simple(OpClass::CallRet, pc));
    let base = ctx.cur.base as usize;
    vm.dstack.pop();
    if vm.dstack.len() == ctx.base_depth {
        vm.dregs.truncate(base);
        vm.ret_scratch = out;
        return Ok(Step::Finished);
    }
    ctx.cur = *vm.dstack.last().expect("caller frame");
    let pf = &dec.funcs[ctx.cur.func as usize];
    let dsts = match &pf.ops[ctx.cur.ip as usize - 1] {
        DecodedOp::CallFunc { dsts, .. } => dsts,
        other => unreachable!("return to non-call op {other:?}"),
    };
    for (d, v) in dsts.iter().zip(out.drain(..)) {
        vm.dregs[ctx.cur.base as usize + d.index()] = v;
    }
    vm.dregs.truncate(base);
    vm.ret_scratch = out;
    Ok(Step::Continue)
}

fn t_ret0(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let mut out = std::mem::take(&mut vm.ret_scratch);
    out.clear();
    ret_with(vm, dec, ctx, out, ta.pc)
}

fn t_ret1(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let mut out = std::mem::take(&mut vm.ret_scratch);
    out.clear();
    out.push(vm.tval(ctx.cur.base as usize, ta.a, &tf.consts));
    ret_with(vm, dec, ctx, out, ta.pc)
}

fn t_retn(
    vm: &mut Vm<'_>,
    dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let DecodedOp::Ret { vals } = cur_op(dec, ctx) else {
        unreachable!("bound to Ret")
    };
    let base = ctx.cur.base as usize;
    let mut out = std::mem::take(&mut vm.ret_scratch);
    out.clear();
    for v in vals.iter() {
        out.push(vm.deval(base, *v));
    }
    ret_with(vm, dec, ctx, out, ta.pc)
}

fn t_br<const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    _tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    vm.retire_class::<DEFER>(OpClass::Move, ta.pc);
    ctx.cur.ip = ta.a;
    Ok(Step::Continue)
}

fn t_condbr<const DEFER: bool>(
    vm: &mut Vm<'_>,
    _dec: &DecodedModule,
    tf: &ThreadedFunc,
    ta: &TArgs,
    ctx: &mut TCtx,
) -> Result<Step, VmError> {
    let base = ctx.cur.base as usize;
    let c = vm.tval_bool(base, ta.a, &tf.consts);
    if DEFER {
        vm.stats.machine_ops += 1;
        vm.core.block_apply_branch(ta.pc, c, &mut vm.block_acc);
    } else {
        vm.retire_d(MachineOp::simple(OpClass::Branch, ta.pc).with_taken(c));
    }
    ctx.cur.ip = if c { ta.b } else { ta.c };
    Ok(Step::Continue)
}

#[cfg(test)]
mod tests {
    use crate::decode::DecodedModule;
    use mperf_ir::compile;

    #[test]
    fn templates_parallel_the_op_stream() {
        let src = r#"
            fn f(p: *i64, n: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) { s = s + p[i % 8]; }
                return s;
            }
        "#;
        let mut module = compile("t", src).unwrap();
        mperf_ir::transform::PassManager::standard().run(&mut module);
        let dec = DecodedModule::decode(&module);
        for (df, tf) in dec.funcs.iter().zip(&dec.threaded) {
            assert_eq!(tf.templates.len(), df.ops.len());
            assert_eq!(tf.block_at.len(), df.ops.len());
            for b in &tf.blocks {
                assert!((b.start as usize) < df.ops.len());
                assert!(b.start <= b.last && (b.last as usize) < df.ops.len());
                assert!(b.machine_ops >= 2, "single-unit runs form no block");
            }
            // Every block index in block_at points at a real block whose
            // start is that slot.
            for (ip, bi) in tf.block_at.iter().enumerate() {
                if *bi != u32::MAX {
                    assert_eq!(tf.blocks[*bi as usize].start as usize, ip);
                }
            }
        }
    }

    #[test]
    fn blocks_cover_the_hot_loop_body() {
        // The spin loop body must form at least one multi-op superblock
        // with a branch at the end.
        let src = r#"
            fn spin(n: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    s = (s ^ i) + (i >> 2);
                }
                return s;
            }
        "#;
        let mut module = compile("t", src).unwrap();
        mperf_ir::transform::PassManager::standard().run(&mut module);
        let dec = DecodedModule::decode(&module);
        let tf = &dec.threaded[0];
        assert!(!tf.blocks.is_empty(), "spin forms superblocks");
        // The loop body (the bins, the elided-copy assignment, and its
        // terminator) collapses into one multi-op block — one PMU tick
        // instead of four-plus. The back-edge compare-and-branch block
        // is a jump target, so it forms its own block.
        assert!(
            tf.blocks.iter().any(|b| b.machine_ops >= 5),
            "a multi-op body block exists: {:?}",
            tf.blocks
        );
    }

    /// A conditional inside a straight-line body keeps its
    /// compare-and-branch *inside* the superblock (branch-terminated
    /// block).
    #[test]
    fn branch_terminated_blocks_form() {
        let src = r#"
            fn f(p: *i64, n: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    if (p[i % 8] > 3) { s = s + 1; }
                }
                return s;
            }
        "#;
        let mut module = compile("t", src).unwrap();
        mperf_ir::transform::PassManager::standard().run(&mut module);
        let dec = DecodedModule::decode(&module);
        let tf = &dec.threaded[0];
        assert!(
            tf.blocks
                .iter()
                .any(|b| b.branches == 1 && b.machine_ops >= 3),
            "a branch-terminated multi-op block exists: {:?}",
            tf.blocks
        );
    }

    /// The X60 roofline kernel: `miniperf`'s triad source through the
    /// same pipeline `mperf_workloads::compile_for` runs for the X60
    /// (standard passes, RVV-256 unit-stride vectorization, roofline
    /// instrumentation).
    fn x60_triad() -> crate::decode::DecodedModule {
        use mperf_ir::transform::instrument::{InstrumentOptions, InstrumentPass};
        use mperf_ir::transform::vectorize::{TargetVecCaps, VectorizePass};
        let src = r#"
            fn triad(a: *f64, b: *f64, c: *f64, n: i64, k: f64) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    a[i] = b[i] + k * c[i];
                }
            }
        "#;
        let mut module = compile("cli", src).unwrap();
        mperf_ir::transform::PassManager::standard().run(&mut module);
        VectorizePass::new(TargetVecCaps::rvv_256_unit_stride()).run_with_report(&mut module);
        InstrumentPass::new(InstrumentOptions::default()).run(&mut module);
        DecodedModule::decode(&module)
    }

    /// Slot indices of the vector loads and stores of one function.
    fn vector_refs(df: &crate::decode::DecodedFunc) -> (Vec<usize>, Vec<usize>) {
        use crate::decode::DecodedOp as D;
        let (mut loads, mut stores) = (Vec::new(), Vec::new());
        for (i, op) in df.ops.iter().enumerate() {
            match op {
                D::Load { lanes, .. } if *lanes > 1 => loads.push(i),
                D::Store { lanes, .. } if *lanes > 1 => stores.push(i),
                _ => {}
            }
        }
        (loads, stores)
    }

    /// Whether some superblock of `tf` covers slot `ip`.
    fn covered(tf: &super::ThreadedFunc, ip: usize) -> bool {
        tf.blocks
            .iter()
            .any(|b| (b.start as usize..=b.last as usize).contains(&ip))
    }

    /// Unit-stride vector refs of at most 64 bytes join superblocks: the
    /// X60 triad's vector loop body (in both the baseline and the
    /// instrumented outlined copy) is one block covering both `vload`s
    /// and the `vstore`. A register stride, a non-unit constant stride,
    /// and a 128-byte ref each keep per-op retire.
    #[test]
    fn unit_stride_vector_refs_join_superblocks() {
        use crate::decode::DecodedOp as D;
        use mperf_ir::{Operand, Reg};
        let dec = x60_triad();
        let vector_loops: Vec<usize> = (0..dec.funcs.len())
            .filter(|&f| !vector_refs(&dec.funcs[f]).0.is_empty())
            .collect();
        assert_eq!(vector_loops.len(), 2, "baseline + instrumented vector loop");
        for &f in &vector_loops {
            let (df, tf) = (&dec.funcs[f], &dec.threaded[f]);
            let (loads, stores) = vector_refs(df);
            assert_eq!(
                (loads.len(), stores.len()),
                (2, 1),
                "triad vectorized on X60"
            );
            let body = tf
                .blocks
                .iter()
                .find(|b| (b.start as usize..=b.last as usize).contains(&loads[0]))
                .expect("the vector loop body forms a block");
            for ip in loads.iter().chain(&stores) {
                assert!(
                    (body.start as usize..=body.last as usize).contains(ip),
                    "slot {ip} in the body block {body:?}"
                );
            }
        }

        // Each disqualifying shape, patched into the first vload, keeps
        // that slot out of every block.
        let df = &dec.funcs[vector_loops[0]];
        let (loads, stores) = vector_refs(df);
        type Patch = fn(&mut u8, &mut Operand);
        let patches: [(&str, Patch); 3] = [
            ("register stride", |_, stride| {
                *stride = Operand::Reg(Reg(0))
            }),
            ("non-unit stride", |_, stride| *stride = Operand::I64(16)),
            ("128-byte ref", |lanes, _| *lanes = 16),
        ];
        for (what, patch) in patches {
            let mut patched = df.clone();
            let D::Load { lanes, stride, .. } = &mut patched.ops[loads[0]] else {
                unreachable!("a vector load")
            };
            patch(lanes, stride);
            let tf = super::compile_func(&patched);
            assert!(!covered(&tf, loads[0]), "{what} stays out of blocks");
            assert!(
                covered(&tf, stores[0]),
                "{what}: the vstore still joins a block"
            );
        }
    }

    #[test]
    fn immediates_land_in_constant_pools() {
        let src = "fn f(x: i64) -> i64 { return x + 41; }";
        let module = compile("t", src).unwrap();
        let dec = DecodedModule::decode(&module);
        let tf = &dec.threaded[0];
        assert!(
            tf.consts_i64.contains(&41),
            "immediate materialized: {:?}",
            tf.consts_i64
        );
    }
}
