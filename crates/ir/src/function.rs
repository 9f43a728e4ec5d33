//! Functions, basic blocks, and the function builder.

use crate::inst::{Inst, Term};
use crate::types::Ty;
use crate::value::{Operand, Reg};

/// A basic block index local to one [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block id as a usize (for table lookups).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A basic block: a straight-line instruction sequence ending in a
/// terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub insts: Vec<Inst>,
    pub term: Term,
    /// Source line of the statement that created this block (0 = unknown).
    /// Used by the instrumentation pass to attach `LoopInfo{line, ...}`
    /// debug locations, mirroring the paper's `LoopInfo` struct.
    pub line: u32,
}

impl Block {
    /// An empty block ending in `ret` (placeholder until sealed).
    pub fn new() -> Block {
        Block {
            insts: Vec::new(),
            term: Term::Ret(Vec::new()),
            line: 0,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

/// A MIR function: a register-typed CFG.
///
/// Invariants (enforced by [`crate::verify`]):
/// - the entry block is `BlockId(0)`;
/// - every branch target is in range;
/// - register uses are type-consistent with `reg_tys`.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    /// Parameter registers in order. Each is also listed in `reg_tys`.
    pub params: Vec<Reg>,
    /// Return types (MiniC produces 0 or 1; the extractor may produce more).
    pub ret_tys: Vec<Ty>,
    pub blocks: Vec<Block>,
    /// Type of every virtual register, indexed by `Reg::index`.
    pub reg_tys: Vec<Ty>,
    /// Source line of the `fn` item (0 = unknown).
    pub line: u32,
    /// True for compiler-generated outlined/instrumented clones; such
    /// functions are skipped when the instrumentation pass walks a module.
    pub synthetic: bool,
}

impl Function {
    /// Create an empty function with the given parameter/return types.
    /// Parameters receive the first register indices in order.
    pub fn new(name: impl Into<String>, param_tys: &[Ty], ret_tys: &[Ty]) -> Function {
        let mut f = Function {
            name: name.into(),
            params: Vec::new(),
            ret_tys: ret_tys.to_vec(),
            blocks: vec![Block::new()],
            reg_tys: Vec::new(),
            line: 0,
            synthetic: false,
        };
        for &ty in param_tys {
            let r = f.fresh_reg(ty);
            f.params.push(r);
        }
        f
    }

    /// The entry block id (always `bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of virtual registers.
    pub fn num_regs(&self) -> usize {
        self.reg_tys.len()
    }

    /// Allocate a fresh register of type `ty`.
    pub fn fresh_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_tys.len() as u32);
        self.reg_tys.push(ty);
        r
    }

    /// Append a new empty block and return its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// The type of a register.
    ///
    /// # Panics
    /// Panics if the register is out of range.
    pub fn ty_of(&self, r: Reg) -> Ty {
        self.reg_tys[r.index()]
    }

    /// The type of an operand in the context of this function. `I64`
    /// immediates report `i64` even when used where a `ptr` is expected
    /// (the verifier allows that coercion).
    pub fn operand_ty(&self, op: Operand) -> Ty {
        match op {
            Operand::Reg(r) => self.ty_of(r),
            other => other.imm_ty().expect("immediates always have a type"),
        }
    }

    /// Shared access to a block.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)` pairs in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total instruction count across all blocks (terminators excluded).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// Convenience builder that tracks a current insertion block.
///
/// ```
/// use mperf_ir::{FunctionBuilder, Ty, BinOp, Operand, Term};
///
/// let mut b = FunctionBuilder::new("add1", &[Ty::I64], &[Ty::I64]);
/// let p = b.func().params[0];
/// let sum = b.bin(BinOp::Add, Ty::I64, p.into(), Operand::I64(1));
/// b.ret(vec![sum.into()]);
/// let f = b.finish();
/// assert_eq!(f.num_blocks(), 1);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
    /// True once the current block's terminator has been set explicitly.
    sealed: bool,
}

impl FunctionBuilder {
    /// Start building a function with the given signature.
    pub fn new(name: impl Into<String>, param_tys: &[Ty], ret_tys: &[Ty]) -> FunctionBuilder {
        FunctionBuilder {
            func: Function::new(name, param_tys, ret_tys),
            cur: BlockId(0),
            sealed: false,
        }
    }

    /// The function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Mutable access to the function under construction.
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Whether the current block already has an explicit terminator.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Create a new block (does not switch insertion point).
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Switch the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.sealed = false;
    }

    /// Record the source line on the current block.
    pub fn set_line(&mut self, line: u32) {
        let cur = self.cur;
        self.func.block_mut(cur).line = line;
    }

    /// Append a raw instruction to the current block.
    ///
    /// # Panics
    /// Panics if the current block is already sealed.
    pub fn push(&mut self, inst: Inst) {
        assert!(!self.sealed, "appending to a sealed block");
        let cur = self.cur;
        self.func.block_mut(cur).insts.push(inst);
    }

    /// Allocate a register of `ty`.
    pub fn fresh(&mut self, ty: Ty) -> Reg {
        self.func.fresh_reg(ty)
    }

    /// Emit a binary operation and return its destination register.
    pub fn bin(&mut self, op: crate::inst::BinOp, ty: Ty, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.fresh(ty);
        self.push(Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// Emit a comparison producing a `bool` register.
    pub fn cmp(&mut self, op: crate::inst::CmpOp, ty: Ty, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.fresh(Ty::Bool);
        self.push(Inst::Cmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// Emit a scalar load.
    pub fn load(&mut self, addr: Operand, mem: crate::types::MemTy) -> Reg {
        let dst = self.fresh(mem.reg_ty());
        self.push(Inst::Load {
            dst,
            addr,
            mem,
            lanes: 1,
            stride: Operand::I64(mem.bytes() as i64),
        });
        dst
    }

    /// Emit a scalar store.
    pub fn store(&mut self, addr: Operand, val: Operand, mem: crate::types::MemTy) {
        self.push(Inst::Store {
            addr,
            val,
            mem,
            lanes: 1,
            stride: Operand::I64(mem.bytes() as i64),
        });
    }

    /// Emit pointer displacement by a byte offset.
    pub fn ptradd(&mut self, base: Operand, offset: Operand) -> Reg {
        let dst = self.fresh(Ty::Ptr);
        self.push(Inst::PtrAdd { dst, base, offset });
        dst
    }

    /// Emit a call. Result registers are allocated from `ret_tys`.
    pub fn call(
        &mut self,
        callee: crate::inst::Callee,
        args: Vec<Operand>,
        ret_tys: &[Ty],
    ) -> Vec<Reg> {
        let dsts: Vec<Reg> = ret_tys.iter().map(|&t| self.fresh(t)).collect();
        self.push(Inst::Call {
            dsts: dsts.clone(),
            callee,
            args,
        });
        dsts
    }

    /// Emit a copy (also used to materialize immediates into registers).
    pub fn copy(&mut self, ty: Ty, src: Operand) -> Reg {
        let dst = self.fresh(ty);
        self.push(Inst::Copy { ty, dst, src });
        dst
    }

    /// Seal the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.seal(Term::Br(target));
    }

    /// Seal the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Operand, t: BlockId, f: BlockId) {
        self.seal(Term::CondBr { cond, t, f });
    }

    /// Seal the current block with a return.
    pub fn ret(&mut self, vals: Vec<Operand>) {
        self.seal(Term::Ret(vals));
    }

    fn seal(&mut self, term: Term) {
        assert!(!self.sealed, "block already sealed");
        let cur = self.cur;
        self.func.block_mut(cur).term = term;
        self.sealed = true;
    }

    /// Finish building and return the function.
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    #[test]
    fn builder_basic_function() {
        let mut b = FunctionBuilder::new("f", &[Ty::I64, Ty::I64], &[Ty::I64]);
        let (x, y) = (b.func().params[0], b.func().params[1]);
        let s = b.bin(BinOp::Add, Ty::I64, x.into(), y.into());
        b.ret(vec![s.into()]);
        let f = b.finish();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.num_regs(), 3);
        assert_eq!(f.ty_of(s), Ty::I64);
        assert_eq!(f.num_insts(), 1);
        assert_eq!(f.entry(), BlockId(0));
    }

    #[test]
    fn builder_multiple_blocks() {
        let mut b = FunctionBuilder::new("g", &[Ty::Bool], &[]);
        let c = b.func().params[0];
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c.into(), t, e);
        b.switch_to(t);
        b.ret(vec![]);
        b.switch_to(e);
        b.ret(vec![]);
        let f = b.finish();
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.block(BlockId(0)).term.successors(), vec![t, e]);
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn push_after_seal_panics() {
        let mut b = FunctionBuilder::new("h", &[], &[]);
        b.ret(vec![]);
        b.copy(Ty::I64, Operand::I64(0));
    }

    #[test]
    fn operand_types_resolve() {
        let f = Function::new("t", &[Ty::Ptr], &[]);
        assert_eq!(f.operand_ty(f.params[0].into()), Ty::Ptr);
        assert_eq!(f.operand_ty(Operand::F64(0.0)), Ty::F64);
    }
}
