//! Restricted innermost-loop vectorizer.
//!
//! Exists so the paper's §5.1 claim — *instructions retired is a useful
//! proxy for vectorization quality* — is demonstrable: a vectorized build
//! of a kernel retires ~VF× fewer instructions than the scalar build, and
//! a target whose vector capabilities are too weak (no strided memory
//! operations) falls back to scalar code, exactly the situation the paper
//! observes on the SpacemiT X60 vs x86 (§5.2).
//!
//! ## Supported shape
//!
//! A canonical counted loop of exactly two blocks,
//!
//! ```text
//! header: %c = cmp.lt i64 %iv, bound ; condbr %c, body, exit
//! body:   straight-line code ; %iv += 1 ; br header
//! ```
//!
//! whose body consists of: loop-invariant scalar computation, address
//! chains affine in the induction variable, loads/stores at affine
//! addresses, elementwise FP/int arithmetic, and at most one reduction
//! (`acc += expr`, also in FMA form). Anything else bails with a reason.
//!
//! ## Legality caveats
//!
//! Pointers are assumed not to alias (MiniC has no `restrict`; this
//! mirrors compiling the paper's kernels with aggressive flags), and FP
//! reductions are reassociated (fast-math). A caller whose pointer
//! arguments overlap, or whose FP reduction is sensitive to summation
//! order, can therefore get results that differ from the unvectorized
//! build.

use super::loop_simplify::ensure_preheader;
use super::ModulePass;
use crate::analysis::{Cfg, Dominators, LoopForest};
use crate::function::{BlockId, Function};
use crate::inst::{BinOp, CmpOp, Inst, ReduceOp, Term};
use crate::module::Module;
use crate::types::Ty;
use crate::value::{Operand, Reg};
use std::collections::HashMap;

/// Vector capabilities of a compilation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetVecCaps {
    /// Lanes for f32 vectors (0 disables vectorization entirely).
    pub vf_f32: u8,
    /// Lanes for f64 vectors.
    pub vf_f64: u8,
    /// Lanes for i64 vectors.
    pub vf_i64: u8,
    /// Whether non-unit-stride (gather/scatter-style) vector memory
    /// accesses are supported. AVX2-class targets: yes (`vgather`);
    /// our X60 model: no — RVV strided ops exist architecturally, but the
    /// modeled compiler backend does not emit them, reproducing the
    /// "complete lack of vectorization" the paper observes for this kernel.
    pub allow_strided: bool,
}

impl TargetVecCaps {
    /// A 256-bit AVX2-like target: 8×f32, 4×f64, strided loads allowed.
    pub fn avx2() -> TargetVecCaps {
        TargetVecCaps {
            vf_f32: 8,
            vf_f64: 4,
            vf_i64: 4,
            allow_strided: true,
        }
    }

    /// A 256-bit RVV 1.0 target with unit-stride-only codegen.
    pub fn rvv_256_unit_stride() -> TargetVecCaps {
        TargetVecCaps {
            vf_f32: 8,
            vf_f64: 4,
            vf_i64: 4,
            allow_strided: false,
        }
    }

    /// Scalar-only target (no vector unit, e.g. SiFive U74).
    pub fn scalar_only() -> TargetVecCaps {
        TargetVecCaps {
            vf_f32: 0,
            vf_f64: 0,
            vf_i64: 0,
            allow_strided: false,
        }
    }

    fn vf_for(&self, elem: Ty) -> u8 {
        match elem {
            Ty::F32 => self.vf_f32,
            Ty::F64 => self.vf_f64,
            Ty::I64 => self.vf_i64,
            _ => 0,
        }
    }
}

/// One loop's vectorization outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopOutcome {
    pub func: String,
    pub line: u32,
    /// `Ok(vf)` when vectorized with that factor, `Err(reason)` otherwise.
    pub result: Result<u8, String>,
}

/// Summary of a vectorizer run.
#[derive(Debug, Clone, Default)]
pub struct VectorizeReport {
    pub outcomes: Vec<LoopOutcome>,
}

impl VectorizeReport {
    /// Number of loops vectorized.
    pub fn vectorized(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }
}

/// The loop-vectorization pass.
#[derive(Debug, Clone)]
pub struct VectorizePass {
    caps: TargetVecCaps,
}

impl VectorizePass {
    /// Create the pass for a target.
    pub fn new(caps: TargetVecCaps) -> VectorizePass {
        VectorizePass { caps }
    }

    /// Run and collect per-loop outcomes.
    pub fn run_with_report(&self, module: &mut Module) -> VectorizeReport {
        let mut report = VectorizeReport::default();
        if self.caps.vf_f32 == 0 && self.caps.vf_f64 == 0 && self.caps.vf_i64 == 0 {
            return report; // scalar-only target
        }
        for fid in module.func_ids() {
            if module.func(fid).synthetic {
                continue;
            }
            let fname = module.func(fid).name.clone();
            // Innermost loops, one at a time (ids stay valid because we
            // only append blocks and retarget edges).
            let mut attempted: Vec<BlockId> = Vec::new();
            loop {
                let f = module.func(fid);
                let cfg = Cfg::compute(f);
                let dom = Dominators::compute(f, &cfg);
                let forest = LoopForest::compute(f, &cfg, &dom);
                let candidate = forest
                    .loops()
                    .iter()
                    .find(|l| l.children.is_empty() && !attempted.contains(&l.header))
                    .map(|l| l.header);
                let Some(header) = candidate else { break };
                attempted.push(header);
                let line = f.block(header).line;
                match vectorize_loop(module.func_mut(fid), header, self.caps) {
                    Ok(vf) => report.outcomes.push(LoopOutcome {
                        func: fname.clone(),
                        line,
                        result: Ok(vf),
                    }),
                    Err(reason) => report.outcomes.push(LoopOutcome {
                        func: fname.clone(),
                        line,
                        result: Err(reason),
                    }),
                }
            }
        }
        report
    }
}

impl ModulePass for VectorizePass {
    fn name(&self) -> &'static str {
        "vectorize"
    }

    fn run_module(&self, module: &mut Module) -> bool {
        self.run_with_report(module).vectorized() > 0
    }
}

/// Symbolic derivative of an integer value with respect to the IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deriv {
    /// Loop-invariant.
    Zero,
    /// Constant step per iteration.
    Imm(i64),
    /// `reg * imm` per iteration, `reg` loop-invariant.
    Scaled(Reg, i64),
}

impl Deriv {
    fn add(self, other: Deriv) -> Option<Deriv> {
        match (self, other) {
            (Deriv::Zero, d) | (d, Deriv::Zero) => Some(d),
            (Deriv::Imm(a), Deriv::Imm(b)) => Some(Deriv::Imm(a + b)),
            _ => None,
        }
    }

    fn sub(self, other: Deriv) -> Option<Deriv> {
        match (self, other) {
            (d, Deriv::Zero) => Some(d),
            (Deriv::Imm(a), Deriv::Imm(b)) => Some(Deriv::Imm(a - b)),
            (Deriv::Zero, Deriv::Imm(a)) => Some(Deriv::Imm(-a)),
            (Deriv::Zero, Deriv::Scaled(r, m)) => Some(Deriv::Scaled(r, -m)),
            _ => None,
        }
    }

    fn scale_imm(self, k: i64) -> Deriv {
        match self {
            Deriv::Zero => Deriv::Zero,
            Deriv::Imm(a) => Deriv::Imm(a * k),
            Deriv::Scaled(r, m) => Deriv::Scaled(r, m * k),
        }
    }

    fn scale_reg(self, r: Reg) -> Option<Deriv> {
        match self {
            Deriv::Zero => Some(Deriv::Zero),
            Deriv::Imm(0) => Some(Deriv::Zero),
            Deriv::Imm(k) => Some(Deriv::Scaled(r, k)),
            Deriv::Scaled(..) => None,
        }
    }
}

/// Per-instruction plan produced by classification.
#[derive(Debug, Clone, PartialEq)]
enum Plan {
    /// Clone unchanged (invariant or affine scalar computation).
    Scalar,
    /// The `%t = add %iv, 1` of the increment; rewritten to `+VF`.
    IvStep,
    /// The `copy %iv, %t` completing the increment; stays in the body.
    IvCopy,
    /// Vector load; `stride` describes the per-lane byte distance.
    VLoad { stride: Deriv },
    /// Vector store.
    VStore { stride: Deriv },
    /// Elementwise vector arithmetic (Bin/Fma/Un/Copy).
    VArith,
    /// The reduction update (its dst becomes the vector accumulator).
    Reduction,
    /// The `copy acc, x` following the reduction update; dropped.
    ReductionCopy,
}

struct LoopShape {
    header: BlockId,
    body: BlockId,
    exit: BlockId,
    preheader: BlockId,
    iv: Reg,
    bound: Operand,
    /// Index of the cmp inst in the header (for rewriting nothing — the
    /// scalar loop is kept as the remainder loop).
    plans: Vec<Plan>,
    /// Reduction accumulator register, if any.
    acc: Option<(Reg, ReduceOp)>,
    vf: u8,
}

/// Attempt to vectorize the loop headed at `header`.
fn vectorize_loop(f: &mut Function, header: BlockId, caps: TargetVecCaps) -> Result<u8, String> {
    ensure_preheader(f, header).ok_or_else(|| "no preheader".to_string())?;
    let shape = classify(f, header, caps)?;
    emit(f, &shape);
    Ok(shape.vf)
}

fn classify(f: &Function, header: BlockId, caps: TargetVecCaps) -> Result<LoopShape, String> {
    let cfg = Cfg::compute(f);
    let dom = Dominators::compute(f, &cfg);
    let forest = LoopForest::compute(f, &cfg, &dom);
    let lp = forest
        .loops()
        .iter()
        .find(|l| l.header == header)
        .ok_or_else(|| "not a loop header".to_string())?;
    if lp.blocks.len() != 2 {
        return Err(format!("loop has {} blocks, need 2", lp.blocks.len()));
    }
    let body = *lp
        .blocks
        .iter()
        .find(|&&b| b != header)
        .expect("two-block loop has a body");
    if lp.latches != vec![body] {
        return Err("body is not the unique latch".into());
    }
    let preheader = lp
        .preheader(f, &cfg)
        .ok_or_else(|| "no dedicated preheader".to_string())?;

    // Header: single `cmp.lt i64 %iv, bound` + condbr.
    let hblock = f.block(header);
    if hblock.insts.len() != 1 {
        return Err("header must contain only the trip test".into());
    }
    let Inst::Cmp {
        op: CmpOp::Lt,
        ty: Ty::I64,
        dst: cdst,
        lhs: Operand::Reg(iv),
        rhs: bound,
    } = hblock.insts[0]
    else {
        return Err("header test is not `cmp.lt i64 reg, bound`".into());
    };
    let Term::CondBr { cond, t, f: fexit } = hblock.term.clone() else {
        return Err("header does not end in condbr".into());
    };
    if cond != Operand::Reg(cdst) || t != body {
        return Err("header condbr shape mismatch".into());
    }
    let exit = fexit;
    // Bound must be invariant: an immediate or a register not defined in
    // the loop body.
    let body_defs = collect_defs(f, body);
    if let Operand::Reg(r) = bound {
        if body_defs.contains(&r) {
            return Err("loop bound is modified in the loop".into());
        }
    }

    let bblock = f.block(body);
    let Term::Br(back) = bblock.term else {
        return Err("body does not branch back unconditionally".into());
    };
    if back != header {
        return Err("body latch does not target the header".into());
    }

    // Find the IV increment pair: `%t = add %iv, 1` then `copy %iv, %t`.
    let mut iv_step_idx = None;
    let mut iv_copy_idx = None;
    for (i, inst) in bblock.insts.iter().enumerate() {
        if let Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            dst,
            lhs: Operand::Reg(l),
            rhs: Operand::I64(1),
        } = inst
        {
            if *l == iv {
                // The copy must follow and write iv from dst.
                for (j, inst2) in bblock.insts.iter().enumerate().skip(i + 1) {
                    if let Inst::Copy {
                        dst: cdst2,
                        src: Operand::Reg(csrc),
                        ..
                    } = inst2
                    {
                        if *cdst2 == iv && csrc == dst {
                            iv_step_idx = Some(i);
                            iv_copy_idx = Some(j);
                            break;
                        }
                    }
                }
            }
        }
    }
    let (iv_step_idx, iv_copy_idx) = match (iv_step_idx, iv_copy_idx) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("no canonical `iv += 1` increment found".into()),
    };
    // The IV must not be written anywhere else in the body.
    let mut scratch = Vec::new();
    for (i, inst) in bblock.insts.iter().enumerate() {
        if i == iv_copy_idx {
            continue;
        }
        scratch.clear();
        inst.defs(&mut scratch);
        if scratch.contains(&iv) {
            return Err("induction variable written more than once".into());
        }
    }

    // Detect a reduction: `%x = fadd/add acc, e` or `%x = fma a, b, acc`
    // followed by `copy acc, %x`, acc invariant (defined outside).
    let mut acc: Option<(Reg, ReduceOp)> = None;
    let mut reduction_idx: Option<(usize, usize)> = None;
    for (i, inst) in bblock.insts.iter().enumerate() {
        // Note: the accumulator *is* defined in the body (by the trailing
        // `copy acc, x`); the uses/defs-elsewhere scan below ensures that
        // copy is its only body definition.
        let (x, acc_candidate, op) = match inst {
            Inst::Bin {
                op: BinOp::FAdd,
                dst,
                lhs: Operand::Reg(a),
                rhs: _,
                ..
            } => (*dst, *a, ReduceOp::FAdd),
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::I64,
                dst,
                lhs: Operand::Reg(a),
                rhs: _,
            } if *a != iv => (*dst, *a, ReduceOp::Add),
            Inst::Fma {
                dst,
                c: Operand::Reg(a),
                ..
            } => (*dst, *a, ReduceOp::FAdd),
            _ => continue,
        };
        // Find `copy acc, x` right after.
        let Some(j) = bblock
            .insts
            .iter()
            .enumerate()
            .skip(i + 1)
            .find_map(|(j, k)| {
                matches!(k, Inst::Copy { dst, src: Operand::Reg(s), .. }
                     if *dst == acc_candidate && *s == x)
                .then_some(j)
            })
        else {
            continue;
        };
        // acc must not be used elsewhere in the body.
        let mut uses_elsewhere = 0;
        for (k, inst2) in bblock.insts.iter().enumerate() {
            if k == i || k == j {
                continue;
            }
            scratch.clear();
            inst2.used_regs(&mut scratch);
            uses_elsewhere += scratch.iter().filter(|&&r| r == acc_candidate).count();
            scratch.clear();
            inst2.defs(&mut scratch);
            if scratch.contains(&acc_candidate) {
                uses_elsewhere += 1;
            }
        }
        if uses_elsewhere == 0 {
            acc = Some((acc_candidate, op));
            reduction_idx = Some((i, j));
            break;
        }
    }

    // Walk the body, classifying each instruction.
    let mut affine: HashMap<Reg, Deriv> = HashMap::new();
    affine.insert(iv, Deriv::Imm(1));
    let mut vec_regs: Vec<bool> = vec![false; f.num_regs()];
    let mut plans: Vec<Plan> = Vec::with_capacity(bblock.insts.len());
    let mut elem_tys: Vec<Ty> = Vec::new();
    let mut any_vector = false;

    let deriv_of =
        |op: Operand, affine: &HashMap<Reg, Deriv>, body_defs: &[Reg]| -> Option<Deriv> {
            match op {
                Operand::Reg(r) => {
                    if let Some(d) = affine.get(&r) {
                        Some(*d)
                    } else if !body_defs.contains(&r) {
                        Some(Deriv::Zero)
                    } else {
                        None
                    }
                }
                _ => Some(Deriv::Zero),
            }
        };
    let is_vec = |op: Operand, vec_regs: &[bool]| match op {
        Operand::Reg(r) => vec_regs[r.index()],
        _ => false,
    };
    // An operand a vector op may consume: vector, invariant scalar, or imm.
    let vectorizable_operand =
        |op: Operand, vec_regs: &[bool], affine: &HashMap<Reg, Deriv>, body_defs: &[Reg]| -> bool {
            if is_vec(op, vec_regs) {
                return true;
            }
            matches!(deriv_of(op, affine, body_defs), Some(Deriv::Zero))
        };

    for (i, inst) in bblock.insts.iter().enumerate() {
        if i == iv_step_idx {
            plans.push(Plan::IvStep);
            continue;
        }
        if i == iv_copy_idx {
            plans.push(Plan::IvCopy);
            continue;
        }
        if let Some((ri, rj)) = reduction_idx {
            if i == ri {
                // Validate the non-acc operands.
                let ok = match inst {
                    Inst::Bin { lhs, rhs, .. } => {
                        let (acc_reg, _) = acc.expect("reduction implies acc");
                        let other = if *lhs == Operand::Reg(acc_reg) {
                            *rhs
                        } else {
                            *lhs
                        };
                        vectorizable_operand(other, &vec_regs, &affine, &body_defs)
                    }
                    Inst::Fma { a, b, .. } => {
                        vectorizable_operand(*a, &vec_regs, &affine, &body_defs)
                            && vectorizable_operand(*b, &vec_regs, &affine, &body_defs)
                    }
                    _ => false,
                };
                if !ok {
                    return Err("reduction operand is not vectorizable".into());
                }
                if let Inst::Bin { ty, .. } | Inst::Fma { ty, .. } = inst {
                    elem_tys.push(*ty);
                }
                any_vector = true;
                plans.push(Plan::Reduction);
                continue;
            }
            if i == rj {
                plans.push(Plan::ReductionCopy);
                continue;
            }
        }
        match inst {
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                // Try affine/invariant scalar first.
                let dl = deriv_of(*lhs, &affine, &body_defs);
                let dr = deriv_of(*rhs, &affine, &body_defs);
                let scalar_deriv = match (op, dl, dr) {
                    (BinOp::Add, Some(a), Some(b)) => a.add(b),
                    (BinOp::Sub, Some(a), Some(b)) => a.sub(b),
                    (BinOp::Mul, Some(a), Some(Deriv::Zero)) => match *rhs {
                        Operand::I64(k) => Some(a.scale_imm(k)),
                        Operand::Reg(r) => a.scale_reg(r),
                        _ => None,
                    },
                    (BinOp::Mul, Some(Deriv::Zero), Some(b)) => match *lhs {
                        Operand::I64(k) => Some(b.scale_imm(k)),
                        Operand::Reg(r) => b.scale_reg(r),
                        _ => None,
                    },
                    // Strength-reduced scaling: `x << k` is `x * 2^k`.
                    (BinOp::Shl, Some(a), Some(Deriv::Zero)) => match *rhs {
                        Operand::I64(k) if (0..63).contains(&k) => Some(a.scale_imm(1i64 << k)),
                        _ => None,
                    },
                    (_, Some(Deriv::Zero), Some(Deriv::Zero)) => Some(Deriv::Zero),
                    _ => None,
                };
                if *ty == Ty::I64 {
                    if let Some(d) = scalar_deriv {
                        affine.insert(*dst, d);
                        plans.push(Plan::Scalar);
                        continue;
                    }
                }
                if ty.is_float() || *ty == Ty::I64 {
                    let supported = matches!(
                        op,
                        BinOp::FAdd
                            | BinOp::FSub
                            | BinOp::FMul
                            | BinOp::FDiv
                            | BinOp::Add
                            | BinOp::Sub
                            | BinOp::Mul
                            | BinOp::And
                            | BinOp::Or
                            | BinOp::Xor
                    );
                    if supported
                        && vectorizable_operand(*lhs, &vec_regs, &affine, &body_defs)
                        && vectorizable_operand(*rhs, &vec_regs, &affine, &body_defs)
                        && (is_vec(*lhs, &vec_regs) || is_vec(*rhs, &vec_regs))
                    {
                        vec_regs[dst.index()] = true;
                        elem_tys.push(*ty);
                        any_vector = true;
                        plans.push(Plan::VArith);
                        continue;
                    }
                    if scalar_deriv == Some(Deriv::Zero)
                        || (ty.is_float() && dl == Some(Deriv::Zero) && dr == Some(Deriv::Zero))
                    {
                        // Invariant FP computation stays scalar.
                        affine.insert(*dst, Deriv::Zero);
                        plans.push(Plan::Scalar);
                        continue;
                    }
                }
                return Err(format!("unsupported binary op at body inst {i}"));
            }
            Inst::Fma { ty, dst, a, b, c } => {
                let ops = [*a, *b, *c];
                if ops
                    .iter()
                    .all(|o| vectorizable_operand(*o, &vec_regs, &affine, &body_defs))
                    && ops.iter().any(|o| is_vec(*o, &vec_regs))
                {
                    vec_regs[dst.index()] = true;
                    elem_tys.push(*ty);
                    any_vector = true;
                    plans.push(Plan::VArith);
                    continue;
                }
                if ops
                    .iter()
                    .all(|o| matches!(deriv_of(*o, &affine, &body_defs), Some(Deriv::Zero)))
                {
                    affine.insert(*dst, Deriv::Zero);
                    plans.push(Plan::Scalar);
                    continue;
                }
                return Err("unsupported fma operands".into());
            }
            Inst::PtrAdd { dst, base, offset } => {
                let db = deriv_of(*base, &affine, &body_defs)
                    .ok_or_else(|| "non-affine pointer base".to_string())?;
                let doff = deriv_of(*offset, &affine, &body_defs)
                    .ok_or_else(|| "non-affine pointer offset".to_string())?;
                let d = db
                    .add(doff)
                    .ok_or_else(|| "pointer stride too complex".to_string())?;
                affine.insert(*dst, d);
                plans.push(Plan::Scalar);
                continue;
            }
            Inst::Load {
                dst,
                addr,
                mem,
                lanes,
                ..
            } => {
                if *lanes != 1 {
                    return Err("already vectorized".into());
                }
                let d = deriv_of(*addr, &affine, &body_defs)
                    .ok_or_else(|| "load address is not affine in the IV".to_string())?;
                match d {
                    Deriv::Zero => {
                        // Invariant load: keep scalar, value splatted at use.
                        affine.insert(*dst, Deriv::Zero);
                        plans.push(Plan::Scalar);
                    }
                    Deriv::Imm(k) if k == mem.bytes() as i64 => {
                        vec_regs[dst.index()] = true;
                        elem_tys.push(mem.reg_ty());
                        any_vector = true;
                        plans.push(Plan::VLoad { stride: d });
                    }
                    Deriv::Imm(_) | Deriv::Scaled(..) => {
                        if !caps.allow_strided {
                            return Err("strided vector load not supported by target".into());
                        }
                        vec_regs[dst.index()] = true;
                        elem_tys.push(mem.reg_ty());
                        any_vector = true;
                        plans.push(Plan::VLoad { stride: d });
                    }
                }
                continue;
            }
            Inst::Store {
                addr,
                val,
                mem,
                lanes,
                ..
            } => {
                if *lanes != 1 {
                    return Err("already vectorized".into());
                }
                let d = deriv_of(*addr, &affine, &body_defs)
                    .ok_or_else(|| "store address is not affine in the IV".to_string())?;
                if d == Deriv::Zero {
                    return Err("store to loop-invariant address".into());
                }
                let unit = matches!(d, Deriv::Imm(k) if k == mem.bytes() as i64);
                if !unit && !caps.allow_strided {
                    return Err("strided vector store not supported by target".into());
                }
                if !vectorizable_operand(*val, &vec_regs, &affine, &body_defs) {
                    return Err("stored value is not vectorizable".into());
                }
                elem_tys.push(mem.reg_ty());
                any_vector = true;
                plans.push(Plan::VStore { stride: d });
                continue;
            }
            Inst::Copy { dst, src, .. } => {
                if is_vec(*src, &vec_regs) {
                    vec_regs[dst.index()] = true;
                    plans.push(Plan::VArith);
                    continue;
                }
                if let Some(d) = deriv_of(*src, &affine, &body_defs) {
                    affine.insert(*dst, d);
                    plans.push(Plan::Scalar);
                    continue;
                }
                return Err("unsupported copy".into());
            }
            Inst::Cast { dst, src, .. } | Inst::Un { dst, src, .. } => {
                if matches!(deriv_of(*src, &affine, &body_defs), Some(Deriv::Zero)) {
                    affine.insert(*dst, Deriv::Zero);
                    plans.push(Plan::Scalar);
                    continue;
                }
                return Err("cast/unary of non-invariant value".into());
            }
            other => {
                return Err(format!(
                    "instruction kind not supported by the vectorizer: {other:?}"
                ));
            }
        }
    }

    if !any_vector {
        return Err("nothing to vectorize".into());
    }

    // Vector factor: the minimum VF over every element type touched.
    let mut vf = u8::MAX;
    for t in &elem_tys {
        let cap = caps.vf_for(t.elem());
        if cap < 2 {
            return Err(format!("target cannot vectorize element type {t}"));
        }
        vf = vf.min(cap);
    }
    if vf == u8::MAX {
        return Err("no vectorizable element types".into());
    }

    Ok(LoopShape {
        header,
        body,
        exit,
        preheader,
        iv,
        bound,
        plans,
        acc,
        vf,
    })
}

fn collect_defs(f: &Function, body: BlockId) -> Vec<Reg> {
    let mut defs = Vec::new();
    for inst in &f.block(body).insts {
        inst.defs(&mut defs);
    }
    defs
}

/// Emit the vector preamble, vector loop, and reduction epilogue.
fn emit(f: &mut Function, shape: &LoopShape) {
    let vf = shape.vf;
    let vpre = f.add_block();
    let vheader = f.add_block();
    let vbody = f.add_block();
    let mid = f.add_block();
    let line = f.block(shape.header).line;
    for b in [vpre, vheader, vbody, mid] {
        f.block_mut(b).line = line;
    }

    // Map from scalar body regs to their vector counterparts in vbody.
    let mut vmap: HashMap<Reg, Reg> = HashMap::new();
    // Splat cache: scalar operand -> splatted vector reg (per element ty).
    let mut splat_cache: HashMap<(String, Ty), Reg> = HashMap::new();

    // --- vpre: n_vec = bound - (vf-1); vacc = splat 0; stride temps.
    let mut vpre_insts: Vec<Inst> = Vec::new();
    let nv_op = match shape.bound {
        Operand::I64(n) => Operand::I64(n - (vf as i64 - 1)),
        b => {
            let nv = f.fresh_reg(Ty::I64);
            vpre_insts.push(Inst::Bin {
                op: BinOp::Sub,
                ty: Ty::I64,
                dst: nv,
                lhs: b,
                rhs: Operand::I64(vf as i64 - 1),
            });
            Operand::Reg(nv)
        }
    };
    // The vector accumulator, if a reduction exists. Its element type is
    // that of the accumulator register.
    let vacc = shape.acc.map(|(acc_reg, _)| {
        let ety = f.ty_of(acc_reg);
        let vty = ety.vec_of(vf);
        let v = f.fresh_reg(vty);
        let zero = match ety {
            Ty::F32 => Operand::F32(0.0),
            Ty::F64 => Operand::F64(0.0),
            _ => Operand::I64(0),
        };
        vpre_insts.push(Inst::Splat {
            ty: vty,
            dst: v,
            src: zero,
        });
        v
    });

    // Stride materialization for Scaled derivs (shared across accesses).
    let mut stride_cache: HashMap<(Reg, i64), Reg> = HashMap::new();
    let body_insts = f.block(shape.body).insts.clone();
    let mut materialize_stride =
        |f: &mut Function, vpre_insts: &mut Vec<Inst>, d: Deriv| -> Operand {
            match d {
                Deriv::Zero => Operand::I64(0),
                Deriv::Imm(k) => Operand::I64(k),
                Deriv::Scaled(r, m) => {
                    if let Some(&s) = stride_cache.get(&(r, m)) {
                        return Operand::Reg(s);
                    }
                    let s = f.fresh_reg(Ty::I64);
                    vpre_insts.push(Inst::Bin {
                        op: BinOp::Mul,
                        ty: Ty::I64,
                        dst: s,
                        lhs: Operand::Reg(r),
                        rhs: Operand::I64(m),
                    });
                    stride_cache.insert((r, m), s);
                    Operand::Reg(s)
                }
            }
        };

    // --- vbody construction, with LICM and address strength reduction:
    // invariant/affine scalar computation is *hoisted* into the vector
    // preheader (it computes correct lane-0 values for the first
    // iteration there), and every vector memory access walks a running
    // pointer that is bumped by `stride x VF` per iteration — the shape
    // LLVM's LICM + LSR produce for vectorized loops. The scalar
    // remainder loop keeps the original body and recomputes everything
    // from the IV.
    let mut vbody_insts: Vec<Inst> = Vec::new();
    // Hoisted scalar chain (original order) and post-chain setup (running
    // address initializers + splats), both appended to the preheader.
    let mut hoisted: Vec<Inst> = Vec::new();
    let mut vpre_tail: Vec<Inst> = Vec::new();
    // addr reg -> (running reg, per-iteration advance).
    let mut run_regs: HashMap<Reg, (Reg, Deriv)> = HashMap::new();
    {
        // Helper to map an operand into vector form; splats are loop
        // invariant and land in the preheader tail.
        fn vec_operand(
            f: &mut Function,
            vpre_tail: &mut Vec<Inst>,
            vmap: &HashMap<Reg, Reg>,
            splat_cache: &mut HashMap<(String, Ty), Reg>,
            op: Operand,
            vty: Ty,
        ) -> Operand {
            if let Operand::Reg(r) = op {
                if let Some(&vr) = vmap.get(&r) {
                    return Operand::Reg(vr);
                }
            }
            let key = (format!("{op}"), vty);
            if let Some(&s) = splat_cache.get(&key) {
                return Operand::Reg(s);
            }
            let s = f.fresh_reg(vty);
            vpre_tail.push(Inst::Splat {
                ty: vty,
                dst: s,
                src: op,
            });
            splat_cache.insert(key, s);
            s.into()
        }

        // Get (or create) the running pointer for a memory operand.
        fn run_reg_for(
            f: &mut Function,
            vpre_tail: &mut Vec<Inst>,
            run_regs: &mut HashMap<Reg, (Reg, Deriv)>,
            addr: Operand,
            stride: Deriv,
        ) -> Operand {
            let Operand::Reg(a) = addr else {
                // An affine address must involve the IV, hence a register.
                unreachable!("affine vector address is always a register")
            };
            if let Some(&(r, _)) = run_regs.get(&a) {
                return Operand::Reg(r);
            }
            let r = f.fresh_reg(Ty::Ptr);
            vpre_tail.push(Inst::Copy {
                ty: Ty::Ptr,
                dst: r,
                src: Operand::Reg(a),
            });
            run_regs.insert(a, (r, stride));
            Operand::Reg(r)
        }

        for (inst, plan) in body_insts.iter().zip(&shape.plans) {
            match plan {
                Plan::Scalar => hoisted.push(inst.clone()),
                Plan::IvCopy => vbody_insts.push(inst.clone()),
                Plan::IvStep => {
                    let Inst::Bin { dst, lhs, .. } = inst else {
                        unreachable!("IvStep plan is always a Bin")
                    };
                    vbody_insts.push(Inst::Bin {
                        op: BinOp::Add,
                        ty: Ty::I64,
                        dst: *dst,
                        lhs: *lhs,
                        rhs: Operand::I64(vf as i64),
                    });
                }
                Plan::VLoad { stride } => {
                    let Inst::Load { dst, addr, mem, .. } = inst else {
                        unreachable!("VLoad plan is always a Load")
                    };
                    let vty = mem.reg_ty().vec_of(vf);
                    let vdst = f.fresh_reg(vty);
                    vmap.insert(*dst, vdst);
                    let stride_op = materialize_stride(f, &mut vpre_insts, *stride);
                    let run = run_reg_for(f, &mut vpre_tail, &mut run_regs, *addr, *stride);
                    vbody_insts.push(Inst::Load {
                        dst: vdst,
                        addr: run,
                        mem: *mem,
                        lanes: vf,
                        stride: stride_op,
                    });
                }
                Plan::VStore { stride } => {
                    let Inst::Store { addr, val, mem, .. } = inst else {
                        unreachable!("VStore plan is always a Store")
                    };
                    let vty = mem.reg_ty().vec_of(vf);
                    let vval = vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *val, vty);
                    let stride_op = materialize_stride(f, &mut vpre_insts, *stride);
                    let run = run_reg_for(f, &mut vpre_tail, &mut run_regs, *addr, *stride);
                    vbody_insts.push(Inst::Store {
                        addr: run,
                        val: vval,
                        mem: *mem,
                        lanes: vf,
                        stride: stride_op,
                    });
                }
                Plan::VArith => match inst {
                    Inst::Bin {
                        op,
                        ty,
                        dst,
                        lhs,
                        rhs,
                    } => {
                        let vty = ty.vec_of(vf);
                        let vl = vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *lhs, vty);
                        let vr = vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *rhs, vty);
                        let vdst = f.fresh_reg(vty);
                        vmap.insert(*dst, vdst);
                        vbody_insts.push(Inst::Bin {
                            op: *op,
                            ty: vty,
                            dst: vdst,
                            lhs: vl,
                            rhs: vr,
                        });
                    }
                    Inst::Fma { ty, dst, a, b, c } => {
                        let vty = ty.vec_of(vf);
                        let va = vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *a, vty);
                        let vb = vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *b, vty);
                        let vc = vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *c, vty);
                        let vdst = f.fresh_reg(vty);
                        vmap.insert(*dst, vdst);
                        vbody_insts.push(Inst::Fma {
                            ty: vty,
                            dst: vdst,
                            a: va,
                            b: vb,
                            c: vc,
                        });
                    }
                    Inst::Copy { dst, src, .. } => {
                        let Operand::Reg(sr) = src else {
                            unreachable!("VArith copy has a vector source")
                        };
                        let vsrc = vmap[sr];
                        vmap.insert(*dst, vsrc);
                        // No instruction needed: vector copies are pure
                        // renames at this level.
                    }
                    other => unreachable!("VArith plan on {other:?}"),
                },
                Plan::Reduction => {
                    let vacc = vacc.expect("reduction implies accumulator");
                    let vty = f.ty_of(vacc);
                    match inst {
                        Inst::Bin {
                            op,
                            dst: _,
                            lhs,
                            rhs,
                            ..
                        } => {
                            let (acc_reg, _) = shape.acc.expect("reduction");
                            let other = if *lhs == Operand::Reg(acc_reg) {
                                *rhs
                            } else {
                                *lhs
                            };
                            let vother =
                                vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, other, vty);
                            vbody_insts.push(Inst::Bin {
                                op: *op,
                                ty: vty,
                                dst: vacc,
                                lhs: Operand::Reg(vacc),
                                rhs: vother,
                            });
                        }
                        Inst::Fma { a, b, .. } => {
                            let va =
                                vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *a, vty);
                            let vb =
                                vec_operand(f, &mut vpre_tail, &vmap, &mut splat_cache, *b, vty);
                            vbody_insts.push(Inst::Fma {
                                ty: vty,
                                dst: vacc,
                                a: va,
                                b: vb,
                                c: Operand::Reg(vacc),
                            });
                        }
                        other => unreachable!("Reduction plan on {other:?}"),
                    }
                }
                Plan::ReductionCopy => { /* dropped: vacc is updated in place */ }
            }
        }

        // Bump the running pointers once per vector iteration.
        let mut bumps: Vec<(Reg, Deriv)> = run_regs.values().copied().collect();
        bumps.sort_by_key(|(r, _)| r.index());
        for (r, d) in bumps {
            let step = materialize_stride(f, &mut vpre_insts, d.scale_imm(vf as i64));
            vbody_insts.push(Inst::PtrAdd {
                dst: r,
                base: Operand::Reg(r),
                offset: step,
            });
        }
    }
    // Assemble the preheader: head (bounds/vacc/strides), hoisted chain,
    // then running-pointer and splat setup.
    vpre_insts.extend(hoisted);
    vpre_insts.extend(vpre_tail);

    // --- mid: fold the vector accumulator back into the scalar one.
    let mut mid_insts: Vec<Inst> = Vec::new();
    if let (Some((acc_reg, red_op)), Some(vacc)) = (shape.acc, vacc) {
        let ety = f.ty_of(acc_reg);
        let partial = f.fresh_reg(ety);
        mid_insts.push(Inst::Reduce {
            op: red_op,
            dst: partial,
            src: Operand::Reg(vacc),
        });
        let op = if ety.is_float() {
            BinOp::FAdd
        } else {
            BinOp::Add
        };
        mid_insts.push(Inst::Bin {
            op,
            ty: ety,
            dst: acc_reg,
            lhs: Operand::Reg(acc_reg),
            rhs: Operand::Reg(partial),
        });
    }

    // --- wire the blocks.
    let cdst = f.fresh_reg(Ty::Bool);
    {
        let b = f.block_mut(vpre);
        b.insts = vpre_insts;
        b.term = Term::Br(vheader);
    }
    {
        let b = f.block_mut(vheader);
        b.insts = vec![Inst::Cmp {
            op: CmpOp::Lt,
            ty: Ty::I64,
            dst: cdst,
            lhs: Operand::Reg(shape.iv),
            rhs: nv_op,
        }];
        b.term = Term::CondBr {
            cond: Operand::Reg(cdst),
            t: vbody,
            f: mid,
        };
    }
    {
        let b = f.block_mut(vbody);
        b.insts = vbody_insts;
        b.term = Term::Br(vheader);
    }
    {
        let b = f.block_mut(mid);
        b.insts = mid_insts;
        b.term = Term::Br(shape.header);
    }
    // Preheader now enters the vector pipeline.
    f.block_mut(shape.preheader)
        .term
        .map_succs(|s| if s == shape.header { vpre } else { s });
    let _ = shape.exit;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::transform::{ModulePass, PassManager};
    use crate::verify::verify_module;

    fn prep(src: &str) -> Module {
        let mut m = compile("t", src).unwrap();
        PassManager::standard().run(&mut m);
        m
    }

    fn count_kind(f: &Function, pred: impl Fn(&Inst) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| pred(i))
            .count()
    }

    const SAXPY: &str = r#"
        fn saxpy(a: *f32, b: *f32, n: i64, k: f32) {
            for (var i: i64 = 0; i < n; i = i + 1) {
                b[i] = b[i] + a[i] * k;
            }
        }
    "#;

    #[test]
    fn vectorizes_saxpy_with_avx2_caps() {
        let mut m = prep(SAXPY);
        let report = VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        assert_eq!(report.vectorized(), 1, "{:?}", report.outcomes);
        assert_eq!(report.outcomes[0].result, Ok(8));
        verify_module(&m).unwrap();
        let f = m.func_by_name("saxpy").unwrap();
        let vloads = count_kind(f, |i| matches!(i, Inst::Load { lanes, .. } if *lanes > 1));
        let vstores = count_kind(f, |i| matches!(i, Inst::Store { lanes, .. } if *lanes > 1));
        assert_eq!(vloads, 2, "{f}");
        assert_eq!(vstores, 1, "{f}");
        // Scalar remainder loop still present.
        let sloads = count_kind(f, |i| matches!(i, Inst::Load { lanes: 1, .. }));
        assert_eq!(sloads, 2, "{f}");
    }

    #[test]
    fn scalar_only_target_leaves_code_unchanged() {
        let mut m = prep(SAXPY);
        let before = m.func_by_name("saxpy").unwrap().to_string();
        let report = VectorizePass::new(TargetVecCaps::scalar_only()).run_with_report(&mut m);
        assert_eq!(report.vectorized(), 0);
        assert_eq!(m.func_by_name("saxpy").unwrap().to_string(), before);
    }

    const DOT: &str = r#"
        fn dot(a: *f32, b: *f32, n: i64) -> f32 {
            var s: f32 = 0.0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                s = s + a[i] * b[i];
            }
            return s;
        }
    "#;

    #[test]
    fn vectorizes_fma_reduction() {
        let mut m = prep(DOT);
        let report = VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        assert_eq!(report.vectorized(), 1, "{:?}", report.outcomes);
        verify_module(&m).unwrap();
        let f = m.func_by_name("dot").unwrap();
        let reduces = count_kind(f, |i| matches!(i, Inst::Reduce { .. }));
        assert_eq!(reduces, 1, "{f}");
        let vfmas = count_kind(f, |i| matches!(i, Inst::Fma { ty, .. } if ty.is_vector()));
        assert_eq!(vfmas, 1, "{f}");
        let splats = count_kind(f, |i| matches!(i, Inst::Splat { .. }));
        assert!(splats >= 1, "accumulator init splat: {f}");
    }

    const MATMUL_INNER: &str = r#"
        fn kernel(a: *f32, b: *f32, n: i64, i: i64, j: i64, init: f32) -> f32 {
            var sum: f32 = init;
            for (var k: i64 = 0; k < n; k = k + 1) {
                sum = sum + a[i * n + k] * b[k * n + j];
            }
            return sum;
        }
    "#;

    #[test]
    fn strided_access_needs_target_support() {
        // The B access strides by n*4 bytes per k: AVX2-like caps (gather
        // available) vectorize; unit-stride-only caps bail — this is the
        // mechanism behind the paper's scalar X60 matmul.
        let mut m1 = prep(MATMUL_INNER);
        let r1 = VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m1);
        assert_eq!(r1.vectorized(), 1, "{:?}", r1.outcomes);
        verify_module(&m1).unwrap();

        let mut m2 = prep(MATMUL_INNER);
        let r2 = VectorizePass::new(TargetVecCaps::rvv_256_unit_stride()).run_with_report(&mut m2);
        assert_eq!(r2.vectorized(), 0, "{:?}", r2.outcomes);
        let reason = r2.outcomes[0].result.clone().unwrap_err();
        assert!(reason.contains("strided"), "{reason}");
    }

    #[test]
    fn strided_load_uses_runtime_stride_operand() {
        let mut m = prep(MATMUL_INNER);
        VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        let f = m.func_by_name("kernel").unwrap();
        // One of the vector loads must carry a register stride (n*4).
        let has_reg_stride = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Load {
                    lanes,
                    stride: Operand::Reg(_),
                    ..
                } if *lanes > 1
            )
        });
        assert!(has_reg_stride, "{f}");
    }

    #[test]
    fn memset_like_store_loop_vectorizes() {
        let src = r#"
            fn fill(p: *i64, n: i64, v: i64) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    p[i] = v;
                }
            }
        "#;
        let mut m = prep(src);
        let report = VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        assert_eq!(report.vectorized(), 1, "{:?}", report.outcomes);
        verify_module(&m).unwrap();
        let f = m.func_by_name("fill").unwrap();
        let vstores = count_kind(f, |i| matches!(i, Inst::Store { lanes, .. } if *lanes > 1));
        assert_eq!(vstores, 1, "{f}");
    }

    #[test]
    fn loop_with_call_bails() {
        let src = r#"
            fn g(x: f64) -> f64 { return x; }
            fn f(p: *f64, n: i64) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    p[i] = g(p[i]);
                }
            }
        "#;
        let mut m = prep(src);
        let report = VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        let f_outcomes: Vec<_> = report.outcomes.iter().filter(|o| o.func == "f").collect();
        assert_eq!(f_outcomes.len(), 1);
        assert!(f_outcomes[0].result.is_err());
    }

    #[test]
    fn conditional_body_bails() {
        let src = r#"
            fn f(p: *f64, n: i64) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    if (p[i] > 0.0) { p[i] = 0.0; }
                }
            }
        "#;
        let mut m = prep(src);
        let report = VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        assert_eq!(report.vectorized(), 0, "{:?}", report.outcomes);
    }

    #[test]
    fn vectorized_module_passes_verification_and_standard_opts() {
        let mut m = prep(DOT);
        VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        // Running cleanup passes after vectorization must not break it.
        PassManager::standard().run(&mut m);
        verify_module(&m).unwrap();
        let f = m.func_by_name("dot").unwrap();
        assert!(count_kind(f, |i| matches!(i, Inst::Reduce { .. })) == 1);
    }

    #[test]
    fn f64_loop_uses_vf4() {
        let src = r#"
            fn scale(p: *f64, n: i64, k: f64) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    p[i] = p[i] * k;
                }
            }
        "#;
        let mut m = prep(src);
        let report = VectorizePass::new(TargetVecCaps::avx2()).run_with_report(&mut m);
        assert_eq!(report.outcomes[0].result, Ok(4), "{:?}", report.outcomes);
    }

    #[test]
    fn module_pass_interface_reports_change() {
        let mut m = prep(SAXPY);
        assert!(VectorizePass::new(TargetVecCaps::avx2()).run_module(&mut m));
        let mut m2 = prep(SAXPY);
        assert!(!VectorizePass::new(TargetVecCaps::scalar_only()).run_module(&mut m2));
    }
}
