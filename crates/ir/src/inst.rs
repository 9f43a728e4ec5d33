//! MIR instructions and terminators.
//!
//! The instruction set is deliberately LLVM-IR-shaped: explicit loads and
//! stores, typed arithmetic, a call instruction, and block terminators.
//! Two differences from LLVM matter for this project: registers are not
//! SSA (a [`Reg`] may be written many times), and calls and returns carry
//! any number of values ([`Inst::Call`], [`Term::Ret`]).

use crate::types::{MemTy, Ty};
use crate::value::{Operand, Reg};
use std::fmt;

/// Binary operation kinds. Integer and floating-point operations are
/// distinguished by the instruction's type, not by the opcode; the
/// verifier rejects e.g. `FAdd` at type `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    // Integer ops (valid at i64 / <n x i64>).
    Add,
    Sub,
    Mul,
    /// Signed division. Division by zero traps in the VM.
    Div,
    /// Signed remainder. Division by zero traps in the VM.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    /// Arithmetic (sign-propagating) right shift.
    Shr,
    // Floating ops (valid at f32 / f64 / vector-of-float).
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// Whether this opcode operates on floating-point values.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "sdiv",
            BinOp::Rem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

/// Comparison predicates. Signed semantics for integers, ordered
/// semantics for floats (any comparison with NaN is false except `Ne`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The predicate with operands swapped (`a < b` becomes `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of the predicate.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Unary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Floating negation.
    FNeg,
    /// Boolean not.
    Not,
}

/// Value cast kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Signed integer to float (i64 -> f32/f64 chosen by dst type).
    IntToFloat,
    /// Float to signed integer, truncating toward zero.
    FloatToInt,
    /// f32 <-> f64.
    FloatCast,
    /// i64 <-> ptr reinterpretation (no-op at runtime).
    IntToPtr,
    /// ptr -> i64 reinterpretation (no-op at runtime).
    PtrToInt,
}

/// Horizontal vector reduction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of all lanes.
    Add,
    /// Floating sum of all lanes.
    FAdd,
}

/// Call target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the same module, by index.
    Func(crate::module::FuncId),
    /// A host (runtime-provided) function resolved by name at execution
    /// time; used for the roofline runtime (`mperf.*`) and I/O helpers.
    Host(String),
}

/// Per-block static operation tallies inserted by the instrumentation pass.
///
/// This models the counter-update code the paper's LLVM pass inserts at the
/// basic-block level. Executing it accumulates the tallies into the active
/// loop handle; it costs a few machine instructions of overhead but its own
/// work is *not* added to the tallies (counts are derived statically from
/// the un-instrumented IR, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ProfCounts {
    /// Bytes loaded from memory by the block, per execution.
    pub loaded_bytes: u64,
    /// Bytes stored to memory by the block, per execution.
    pub stored_bytes: u64,
    /// Integer arithmetic operations (incl. address arithmetic), per execution.
    pub int_ops: u64,
    /// Floating-point operations (FMA counts as 2, vectors count per lane),
    /// per execution.
    pub flops: u64,
}

impl ProfCounts {
    /// Component-wise sum.
    pub fn merge(self, other: ProfCounts) -> ProfCounts {
        ProfCounts {
            loaded_bytes: self.loaded_bytes + other.loaded_bytes,
            stored_bytes: self.stored_bytes + other.stored_bytes,
            int_ops: self.int_ops + other.int_ops,
            flops: self.flops + other.flops,
        }
    }

    /// Whether every tally is zero.
    pub fn is_zero(self) -> bool {
        self == ProfCounts::default()
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = op ty lhs, rhs`. Scalar or vector according to `ty`.
    Bin {
        op: BinOp,
        ty: Ty,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cmp.pred ty lhs, rhs` producing `bool`. `ty` is the operand type.
    Cmp {
        op: CmpOp,
        ty: Ty,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = un op src`.
    Un {
        op: UnOp,
        ty: Ty,
        dst: Reg,
        src: Operand,
    },
    /// `dst = fma ty a, b, c` computing `a * b + c` with one rounding.
    /// Counts as 2 FLOPs per lane.
    Fma {
        ty: Ty,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    /// Scalar or vector load. `lanes == 1` is a scalar access of `mem`;
    /// `lanes > 1` loads that many consecutive elements. `stride` is the
    /// byte distance between lanes (an `i64` operand, so runtime strides
    /// are expressible, like RVV's `vlse` instructions);
    /// `stride == mem.bytes()` is a unit-stride access, anything else is a
    /// strided gather.
    Load {
        dst: Reg,
        addr: Operand,
        mem: MemTy,
        lanes: u8,
        stride: Operand,
    },
    /// Scalar or vector store (see [`Inst::Load`] for lane semantics).
    Store {
        addr: Operand,
        val: Operand,
        mem: MemTy,
        lanes: u8,
        stride: Operand,
    },
    /// `dst = ptradd base, offset_bytes` — pointer displacement in bytes.
    PtrAdd {
        dst: Reg,
        base: Operand,
        offset: Operand,
    },
    /// `dst = select cond, a, b`.
    Select {
        ty: Ty,
        dst: Reg,
        cond: Operand,
        t: Operand,
        f: Operand,
    },
    /// `dst = cast.kind src`.
    Cast {
        kind: CastKind,
        dst: Reg,
        src: Operand,
    },
    /// `dst = copy src` (register-to-register or materialize an immediate).
    Copy { ty: Ty, dst: Reg, src: Operand },
    /// `dst = splat src` broadcasting a scalar into every lane of `ty`.
    Splat { ty: Ty, dst: Reg, src: Operand },
    /// `dst = reduce.op src` horizontally reducing a vector to its scalar
    /// element type.
    Reduce {
        op: ReduceOp,
        dst: Reg,
        src: Operand,
    },
    /// `dsts = call callee(args)` — multi-value returns are permitted
    /// (used by the code extractor; MiniC itself only produces 0 or 1).
    Call {
        dsts: Vec<Reg>,
        callee: Callee,
        args: Vec<Operand>,
    },
    /// Instrumentation counter update (see [`ProfCounts`]).
    ProfCount(ProfCounts),
}

impl Inst {
    /// The register this instruction defines, if exactly one non-call def.
    /// Calls may define several; use [`Inst::defs`] for the general case.
    pub fn single_def(&self) -> Option<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Fma { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::PtrAdd { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Splat { dst, .. }
            | Inst::Reduce { dst, .. } => Some(*dst),
            Inst::Call { dsts, .. } if dsts.len() == 1 => Some(dsts[0]),
            _ => None,
        }
    }

    /// All registers defined by this instruction.
    pub fn defs(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::Call { dsts, .. } => out.extend_from_slice(dsts),
            other => {
                if let Some(d) = other.single_def() {
                    out.push(d);
                }
            }
        }
    }

    /// All operands read by this instruction.
    pub fn uses(&self, out: &mut Vec<Operand>) {
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Inst::Un { src, .. }
            | Inst::Cast { src, .. }
            | Inst::Copy { src, .. }
            | Inst::Splat { src, .. }
            | Inst::Reduce { src, .. } => out.push(*src),
            Inst::Fma { a, b, c, .. } => {
                out.push(*a);
                out.push(*b);
                out.push(*c);
            }
            Inst::Load { addr, stride, .. } => {
                out.push(*addr);
                out.push(*stride);
            }
            Inst::Store {
                addr, val, stride, ..
            } => {
                out.push(*addr);
                out.push(*val);
                out.push(*stride);
            }
            Inst::PtrAdd { base, offset, .. } => {
                out.push(*base);
                out.push(*offset);
            }
            Inst::Select { cond, t, f, .. } => {
                out.push(*cond);
                out.push(*t);
                out.push(*f);
            }
            Inst::Call { args, .. } => out.extend_from_slice(args),
            Inst::ProfCount(_) => {}
        }
    }

    /// Registers read by this instruction (operand uses filtered to regs).
    pub fn used_regs(&self, out: &mut Vec<Reg>) {
        let mut ops = Vec::new();
        self.uses(&mut ops);
        out.extend(ops.into_iter().filter_map(Operand::as_reg));
    }

    /// Rewrite every register use through `f` (definitions are untouched).
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        let map_op = |op: &mut Operand, f: &mut dyn FnMut(Reg) -> Reg| {
            if let Operand::Reg(r) = op {
                *r = f(*r);
            }
        };
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                map_op(lhs, &mut f);
                map_op(rhs, &mut f);
            }
            Inst::Un { src, .. }
            | Inst::Cast { src, .. }
            | Inst::Copy { src, .. }
            | Inst::Splat { src, .. }
            | Inst::Reduce { src, .. } => map_op(src, &mut f),
            Inst::Fma { a, b, c, .. } => {
                map_op(a, &mut f);
                map_op(b, &mut f);
                map_op(c, &mut f);
            }
            Inst::Load { addr, stride, .. } => {
                map_op(addr, &mut f);
                map_op(stride, &mut f);
            }
            Inst::Store {
                addr, val, stride, ..
            } => {
                map_op(addr, &mut f);
                map_op(val, &mut f);
                map_op(stride, &mut f);
            }
            Inst::PtrAdd { base, offset, .. } => {
                map_op(base, &mut f);
                map_op(offset, &mut f);
            }
            Inst::Select { cond, t, f: fv, .. } => {
                map_op(cond, &mut f);
                map_op(t, &mut f);
                map_op(fv, &mut f);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    map_op(a, &mut f);
                }
            }
            Inst::ProfCount(_) => {}
        }
    }

    /// Rewrite every register definition through `f`.
    pub fn map_defs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Fma { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::PtrAdd { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Splat { dst, .. }
            | Inst::Reduce { dst, .. } => *dst = f(*dst),
            Inst::Call { dsts, .. } => {
                for d in dsts {
                    *d = f(*d);
                }
            }
            Inst::Store { .. } | Inst::ProfCount(_) => {}
        }
    }

    /// Whether removing this instruction can change observable behaviour
    /// beyond its defined registers (calls, stores, instrumentation).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. } | Inst::Call { .. } | Inst::ProfCount(_)
        )
    }

    /// Static metric contribution of this single instruction, as counted by
    /// the roofline instrumentation pass. Vector operations count per lane;
    /// FMA counts as two FLOPs per lane. `ProfCount` and control overhead
    /// contribute nothing (they are measurement, not workload).
    pub fn prof_counts(&self) -> ProfCounts {
        let mut c = ProfCounts::default();
        match self {
            Inst::Bin { op, ty, .. } => {
                let lanes = ty.lanes() as u64;
                if op.is_float() {
                    c.flops += lanes;
                } else {
                    c.int_ops += lanes;
                }
            }
            Inst::Cmp { ty, .. } => {
                // Comparisons are counted as integer ops regardless of the
                // compared type, matching how the paper's pass classifies
                // "integer arithmetic operations" vs FLOPs (FP compares do
                // not contribute to GFLOP/s).
                c.int_ops += ty.lanes() as u64;
            }
            Inst::Un { op, ty, .. } => {
                if matches!(op, UnOp::FNeg) {
                    c.flops += ty.lanes() as u64;
                } else {
                    c.int_ops += ty.lanes() as u64;
                }
            }
            Inst::Fma { ty, .. } => c.flops += 2 * ty.lanes() as u64,
            Inst::Load { mem, lanes, .. } => {
                c.loaded_bytes += mem.bytes() * *lanes as u64;
            }
            Inst::Store { mem, lanes, .. } => {
                c.stored_bytes += mem.bytes() * *lanes as u64;
            }
            Inst::PtrAdd { .. } => c.int_ops += 1,
            Inst::Select { .. } | Inst::Cast { .. } => c.int_ops += 1,
            Inst::Copy { .. } | Inst::Splat { .. } => {}
            Inst::Reduce { op, .. } => match op {
                ReduceOp::FAdd => c.flops += 1,
                ReduceOp::Add => c.int_ops += 1,
            },
            Inst::Call { .. } | Inst::ProfCount(_) => {}
        }
        c
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional branch.
    Br(crate::function::BlockId),
    /// Conditional branch on a `bool` operand.
    CondBr {
        cond: Operand,
        t: crate::function::BlockId,
        f: crate::function::BlockId,
    },
    /// Return zero or more values (arity must match the signature).
    Ret(Vec<Operand>),
}

impl Term {
    /// Successor block ids, in branch order.
    pub fn successors(&self) -> Vec<crate::function::BlockId> {
        match self {
            Term::Br(b) => vec![*b],
            Term::CondBr { t, f, .. } => vec![*t, *f],
            Term::Ret(_) => vec![],
        }
    }

    /// Rewrite successor block ids through `f`.
    pub fn map_succs(
        &mut self,
        mut f: impl FnMut(crate::function::BlockId) -> crate::function::BlockId,
    ) {
        match self {
            Term::Br(b) => *b = f(*b),
            Term::CondBr { t, f: fb, .. } => {
                *t = f(*t);
                *fb = f(*fb);
            }
            Term::Ret(_) => {}
        }
    }

    /// Operands read by the terminator.
    pub fn uses(&self, out: &mut Vec<Operand>) {
        match self {
            Term::CondBr { cond, .. } => out.push(*cond),
            Term::Ret(vals) => out.extend_from_slice(vals),
            Term::Br(_) => {}
        }
    }

    /// Rewrite register uses through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        let map_op = |op: &mut Operand, f: &mut dyn FnMut(Reg) -> Reg| {
            if let Operand::Reg(r) = op {
                *r = f(*r);
            }
        };
        match self {
            Term::CondBr { cond, .. } => map_op(cond, &mut f),
            Term::Ret(vals) => {
                for v in vals {
                    map_op(v, &mut f);
                }
            }
            Term::Br(_) => {}
        }
    }
}

impl fmt::Display for Callee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Callee::Func(id) => write!(f, "@fn{}", id.0),
            Callee::Host(name) => write!(f, "@host.{name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::BlockId;

    #[test]
    fn cmp_op_algebra() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn prof_counts_scalar_ops() {
        let add = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            dst: Reg(0),
            lhs: Operand::I64(1),
            rhs: Operand::I64(2),
        };
        assert_eq!(add.prof_counts().int_ops, 1);
        let fadd = Inst::Bin {
            op: BinOp::FAdd,
            ty: Ty::F32,
            dst: Reg(0),
            lhs: Operand::F32(1.0),
            rhs: Operand::F32(2.0),
        };
        assert_eq!(fadd.prof_counts().flops, 1);
    }

    #[test]
    fn prof_counts_vector_and_fma() {
        let vfma = Inst::Fma {
            ty: Ty::VecF32(8),
            dst: Reg(0),
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
            c: Operand::Reg(Reg(3)),
        };
        assert_eq!(vfma.prof_counts().flops, 16);
        let vload = Inst::Load {
            dst: Reg(0),
            addr: Operand::Reg(Reg(1)),
            mem: MemTy::F32,
            lanes: 8,
            stride: Operand::I64(4),
        };
        assert_eq!(vload.prof_counts().loaded_bytes, 32);
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::Store {
            addr: Operand::Reg(Reg(1)),
            val: Operand::Reg(Reg(2)),
            mem: MemTy::I64,
            lanes: 1,
            stride: Operand::I64(8),
        };
        let mut defs = Vec::new();
        i.defs(&mut defs);
        assert!(defs.is_empty());
        let mut used = Vec::new();
        i.used_regs(&mut used);
        assert_eq!(used, vec![Reg(1), Reg(2)]);
        assert!(i.has_side_effects());
    }

    #[test]
    fn map_uses_rewrites_registers() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            dst: Reg(0),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::I64(5),
        };
        i.map_uses(|r| Reg(r.0 + 10));
        match i {
            Inst::Bin { lhs, rhs, dst, .. } => {
                assert_eq!(lhs, Operand::Reg(Reg(11)));
                assert_eq!(rhs, Operand::I64(5));
                assert_eq!(dst, Reg(0), "defs untouched by map_uses");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn term_successors() {
        let t = Term::CondBr {
            cond: Operand::Bool(true),
            t: BlockId(1),
            f: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Term::Ret(vec![]).successors().is_empty());
    }

    #[test]
    fn prof_counts_merge() {
        let a = ProfCounts {
            loaded_bytes: 4,
            stored_bytes: 8,
            int_ops: 1,
            flops: 2,
        };
        let b = ProfCounts {
            loaded_bytes: 1,
            stored_bytes: 1,
            int_ops: 1,
            flops: 1,
        };
        let m = a.merge(b);
        assert_eq!(m.loaded_bytes, 5);
        assert_eq!(m.stored_bytes, 9);
        assert_eq!(m.int_ops, 2);
        assert_eq!(m.flops, 3);
        assert!(!m.is_zero());
        assert!(ProfCounts::default().is_zero());
    }
}
