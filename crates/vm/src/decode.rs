//! One-time pre-decode of a [`Module`] into a flat, index-driven form.
//!
//! The reference interpreter re-resolves `module → func → block` and
//! clones each [`Inst`] (including the `Vec`-carrying `Call` payloads)
//! on every executed step. This pass pays those costs once per module:
//! each function's blocks are flattened into a dense `Vec<DecodedOp>`
//! with
//!
//! - precomputed synthetic `pc`s (bit-identical to the reference
//!   interpreter's `pc_of`, so PMU sample IPs and branch-predictor
//!   indexing are unchanged),
//! - pre-resolved jump targets as flat op indices,
//! - precomputed [`OpClass`] and FLOP counts,
//! - host callees pre-classified (the `mperf.*` notifications become
//!   enum variants; other host functions get dense name-table ids).
//!
//! The decoded program is immutable and borrows nothing from the module,
//! so it can be shared (`Arc`) across many short-lived [`crate::Vm`]s
//! executing the same workload — including VMs running concurrently on
//! sweep worker threads. [`decode_module`] produces that shared decode
//! directly, without constructing a throwaway VM.
//!
//! ## The pipeline
//!
//! [`DecodedModule::decode_cfg`] runs four steps per function:
//!
//! 1. **decode** — flatten blocks into `DecodedOp`s (scalar-integer
//!    `Bin`/`Cmp` are type-specialized to [`DecodedOp::BinI`] /
//!    [`DecodedOp::CmpI`] here);
//! 2. **regalloc** — the copy-coalescing pass ([`crate::regalloc`])
//!    merges the source and destination registers of every `copy` whose
//!    live ranges do not interfere; the producer then writes directly
//!    into the consumer's slot, and the `Copy` slot becomes the
//!    data-free [`DecodedOp::ElidedCopy`] (same `Move` retire at the same
//!    pc, so observables are untouched). [`RegallocStats`] records the
//!    static coalescing rate; `DecodeConfig { regalloc }` /
//!    `--no-regalloc` is the escape hatch;
//! 3. **validate** — `validate_func` checks every index the template
//!    thunks use without bounds checks (jump targets, register numbers,
//!    callee ids, host ids, and the terminator-last invariant), so the
//!    hot loop's unchecked fetches are sound;
//! 4. **template compile** — `threaded::compile_func` lowers
//!    the validated stream into pre-bound templates and superblocks.
//!
//! `DecodedOp` is the IR the templates are compiled from: a new op needs
//! a decode arm here and a template in [`crate::threaded`], nothing
//! else.

use crate::interp::pc_of;
use crate::lower::{bin_class, bin_flops, cast_class, un_class, un_flops};
use crate::regalloc::{regalloc_func, RegallocStats};
use mperf_ir::{
    BinOp, BlockId, Callee, CastKind, CmpOp, FuncId, Inst, MemTy, Module, Operand, ProfCounts,
    ReduceOp, Reg, Term, Ty, UnOp,
};
use mperf_sim::machine_op::OpClass;
use std::sync::Arc;

/// A pre-resolved host call target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostTarget {
    /// `mperf.loop_begin(region_id)`.
    LoopBegin,
    /// `mperf.loop_end(region_id)`.
    LoopEnd,
    /// `mperf.is_instrumented()`.
    IsInstrumented,
    /// Any other host function: index into [`DecodedModule::host_names`].
    Named(u32),
}

/// One flattened operation. Terminators are ops too, so a function body
/// is a single dense `Vec` and the hot loop is one indexed fetch.
#[derive(Debug, Clone)]
pub enum DecodedOp {
    Bin {
        op: BinOp,
        class: OpClass,
        flops: u32,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// Type-specialized scalar-integer binary op (`ty ∈ {i64, ptr}`): the
    /// handler moves raw `i64`s instead of cloning `Value` enums. The
    /// dominant op of compiled integer code.
    BinI {
        op: BinOp,
        class: OpClass,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    Cmp {
        op: CmpOp,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// Type-specialized scalar-integer compare (`ty ∈ {i64, ptr}`).
    CmpI {
        op: CmpOp,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    Un {
        op: UnOp,
        class: OpClass,
        flops: u32,
        dst: u32,
        src: Operand,
    },
    Fma {
        class: OpClass,
        flops: u32,
        dst: u32,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    Load {
        class: OpClass,
        dst: u32,
        addr: Operand,
        mem: MemTy,
        lanes: u8,
        stride: Operand,
    },
    Store {
        class: OpClass,
        addr: Operand,
        val: Operand,
        mem: MemTy,
        lanes: u8,
        stride: Operand,
    },
    PtrAdd {
        dst: u32,
        base: Operand,
        offset: Operand,
    },
    Select {
        dst: u32,
        cond: Operand,
        t: Operand,
        f: Operand,
    },
    Cast {
        kind: CastKind,
        class: OpClass,
        dst_ty: Ty,
        dst: u32,
        src: Operand,
    },
    Copy {
        dst: u32,
        src: Operand,
    },
    Splat {
        elem: Ty,
        lanes: u8,
        dst: u32,
        src: Operand,
    },
    Reduce {
        op: ReduceOp,
        flops: u32,
        dst: u32,
        src: Operand,
    },
    CallFunc {
        callee: u32,
        dsts: Box<[Reg]>,
        args: Box<[Operand]>,
    },
    CallHost {
        target: HostTarget,
        dsts: Box<[Reg]>,
        args: Box<[Operand]>,
    },
    ProfCount(ProfCounts),
    /// A `Copy` whose source and destination registers were coalesced
    /// by the register-allocation pass: the data movement is gone, but
    /// the op still retires the same `Move` machine op at the same pc,
    /// keeping instruction counts, cycles, PMU state, and sampling IPs
    /// bit-identical to the uncoalesced stream. Reads and writes no
    /// registers.
    ElidedCopy,
    Br {
        target: u32,
    },
    CondBr {
        cond: Operand,
        t: u32,
        f: u32,
    },
    Ret {
        vals: Box<[Operand]>,
    },
}

/// One flattened function.
#[derive(Debug, Clone)]
pub struct DecodedFunc {
    /// All blocks' instructions + terminators, flattened in block order.
    pub ops: Vec<DecodedOp>,
    /// Synthetic pc per op (parallel to `ops`); identical to the
    /// reference interpreter's `pc_of(func, block, idx)`.
    pub pcs: Vec<u64>,
    /// Flat op index of each block's first op.
    pub block_entry: Vec<u32>,
    /// Register-file size.
    pub num_regs: u32,
    /// Parameter register indices, in call-argument order.
    pub params: Box<[u32]>,
}

/// Which decode-time optimization pass runs. Both settings are
/// observably identical — the pass changes speed, never measurements;
/// `regalloc: false` is the `--no-regalloc` escape hatch for bisection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeConfig {
    /// Run copy coalescing + register compaction.
    pub regalloc: bool,
}

impl Default for DecodeConfig {
    /// The production default: register allocation on.
    fn default() -> DecodeConfig {
        DecodeConfig { regalloc: true }
    }
}

/// A fully pre-decoded module, ready for index-driven execution.
#[derive(Debug, Clone)]
pub struct DecodedModule {
    pub funcs: Vec<DecodedFunc>,
    /// Per-function threaded template form (parallel to `funcs`):
    /// pre-bound op thunks + superblock table, compiled once here so
    /// `Arc`-sharing a decode also shares the template compile (see
    /// [`crate::threaded`]).
    pub threaded: Vec<crate::threaded::ThreadedFunc>,
    /// Dense table of non-`mperf.*` host callee names.
    pub host_names: Vec<String>,
    /// Decode-time register-allocation statistics (`copies_coalesced`
    /// and the reg deltas are zero when `coalesced` is false).
    pub regalloc: RegallocStats,
    /// Whether the copy-coalescing pass ran.
    pub coalesced: bool,
}

impl DecodedModule {
    /// Decode every function of `module` with the default pass
    /// (register allocation on).
    pub fn decode(module: &Module) -> DecodedModule {
        DecodedModule::decode_cfg(module, DecodeConfig::default())
    }

    /// Decode every function of `module` with an explicit pass
    /// configuration. Observable behaviour is identical for every
    /// configuration; only speed differs.
    pub fn decode_cfg(module: &Module, cfg: DecodeConfig) -> DecodedModule {
        let mut hosts = HostTable::default();
        let mut regalloc = RegallocStats::default();
        let mut funcs: Vec<DecodedFunc> = module
            .iter_funcs()
            .map(|(fid, _)| decode_func(module, fid, &mut hosts))
            .collect();
        if cfg.regalloc {
            for f in &mut funcs {
                regalloc_func(f, &mut regalloc);
            }
        }
        for f in &funcs {
            validate_func(f, funcs.len(), hosts.names.len());
        }
        // Template compilation runs last, over the validated stream —
        // the thunks inherit the pinned indices.
        let threaded = funcs.iter().map(crate::threaded::compile_func).collect();
        DecodedModule {
            funcs,
            threaded,
            host_names: hosts.names,
            regalloc,
            coalesced: cfg.regalloc,
        }
    }
}

/// Decode `module` once into the `Arc`-shared form every VM (and every
/// sweep worker thread) executing it can reuse via
/// [`crate::Vm::set_decoded`]. This is the sweep entry point: callers
/// decode each workload exactly once, then fan its phase/platform jobs
/// out over threads that all share this one decode.
pub fn decode_module(module: &Module) -> Arc<DecodedModule> {
    Arc::new(DecodedModule::decode(module))
}

/// [`decode_module`] with the pass selectable.
pub fn decode_module_cfg(module: &Module, cfg: DecodeConfig) -> Arc<DecodedModule> {
    Arc::new(DecodedModule::decode_cfg(module, cfg))
}

#[derive(Default)]
struct HostTable {
    names: Vec<String>,
}

impl HostTable {
    fn resolve(&mut self, name: &str) -> HostTarget {
        match name {
            "mperf.loop_begin" => HostTarget::LoopBegin,
            "mperf.loop_end" => HostTarget::LoopEnd,
            "mperf.is_instrumented" => HostTarget::IsInstrumented,
            _ => {
                let id = match self.names.iter().position(|n| n == name) {
                    Some(i) => i,
                    None => {
                        self.names.push(name.to_string());
                        self.names.len() - 1
                    }
                };
                HostTarget::Named(id as u32)
            }
        }
    }
}

fn decode_func(module: &Module, fid: FuncId, hosts: &mut HostTable) -> DecodedFunc {
    let f = module.func(fid);
    // Pass 1: flat entry offset of every block (insts + its terminator).
    let mut block_entry = Vec::with_capacity(f.num_blocks());
    let mut off = 0u32;
    for b in &f.blocks {
        block_entry.push(off);
        off += b.insts.len() as u32 + 1;
    }

    // Pass 2: emit ops with pre-resolved targets and classes.
    let mut ops = Vec::with_capacity(off as usize);
    let mut pcs = Vec::with_capacity(off as usize);
    for (bidx, b) in f.blocks.iter().enumerate() {
        let bid = BlockId(bidx as u32);
        for (idx, inst) in b.insts.iter().enumerate() {
            pcs.push(pc_of(fid, bid, idx));
            ops.push(decode_inst(f, inst, hosts));
        }
        pcs.push(pc_of(fid, bid, b.insts.len()));
        ops.push(decode_term(&b.term, &block_entry));
    }

    DecodedFunc {
        ops,
        pcs,
        block_entry,
        num_regs: f.num_regs() as u32,
        params: f.params.iter().map(|p| p.index() as u32).collect(),
    }
}

/// Visit every register an op *reads* (operand registers; destinations
/// are writes and excluded). Drives the liveness analysis in
/// [`crate::regalloc`] and the register range checks in
/// [`validate_func`].
pub(crate) fn op_reads(op: &DecodedOp, mut f: impl FnMut(u32)) {
    let mut rd = |o: &Operand| {
        if let Operand::Reg(r) = o {
            f(r.index() as u32);
        }
    };
    match op {
        DecodedOp::Bin { lhs, rhs, .. }
        | DecodedOp::BinI { lhs, rhs, .. }
        | DecodedOp::Cmp { lhs, rhs, .. }
        | DecodedOp::CmpI { lhs, rhs, .. } => {
            rd(lhs);
            rd(rhs);
        }
        DecodedOp::Un { src, .. }
        | DecodedOp::Cast { src, .. }
        | DecodedOp::Copy { src, .. }
        | DecodedOp::Splat { src, .. }
        | DecodedOp::Reduce { src, .. } => rd(src),
        DecodedOp::Fma { a, b, c, .. } => {
            rd(a);
            rd(b);
            rd(c);
        }
        DecodedOp::Load { addr, stride, .. } => {
            rd(addr);
            rd(stride);
        }
        DecodedOp::Store {
            addr, val, stride, ..
        } => {
            rd(addr);
            rd(val);
            rd(stride);
        }
        DecodedOp::PtrAdd { base, offset, .. } => {
            rd(base);
            rd(offset);
        }
        DecodedOp::Select { cond, t, f, .. } => {
            rd(cond);
            rd(t);
            rd(f);
        }
        DecodedOp::CallFunc { args, .. } | DecodedOp::CallHost { args, .. } => {
            for a in args.iter() {
                rd(a);
            }
        }
        DecodedOp::CondBr { cond, .. } => rd(cond),
        DecodedOp::Ret { vals } => {
            for v in vals.iter() {
                rd(v);
            }
        }
        DecodedOp::ProfCount(_) | DecodedOp::Br { .. } | DecodedOp::ElidedCopy => {}
    }
}

/// Visit every register an op *writes* (destinations, including call
/// return slots). The def half of the liveness analysis in
/// [`crate::regalloc`].
pub(crate) fn op_defs(op: &DecodedOp, mut f: impl FnMut(u32)) {
    match op {
        DecodedOp::Bin { dst, .. }
        | DecodedOp::BinI { dst, .. }
        | DecodedOp::Cmp { dst, .. }
        | DecodedOp::CmpI { dst, .. }
        | DecodedOp::Un { dst, .. }
        | DecodedOp::Fma { dst, .. }
        | DecodedOp::Load { dst, .. }
        | DecodedOp::PtrAdd { dst, .. }
        | DecodedOp::Select { dst, .. }
        | DecodedOp::Cast { dst, .. }
        | DecodedOp::Copy { dst, .. }
        | DecodedOp::Splat { dst, .. }
        | DecodedOp::Reduce { dst, .. } => f(*dst),
        DecodedOp::CallFunc { dsts, .. } | DecodedOp::CallHost { dsts, .. } => {
            for d in dsts.iter() {
                f(d.index() as u32);
            }
        }
        DecodedOp::Store { .. }
        | DecodedOp::ProfCount(_)
        | DecodedOp::Br { .. }
        | DecodedOp::CondBr { .. }
        | DecodedOp::Ret { .. }
        | DecodedOp::ElidedCopy => {}
    }
}

/// Panic unless every index the threaded engine dereferences without
/// bounds checks is in range: the soundness gate for the template
/// thunks' `get_unchecked` fetches. Runs once per decode.
fn validate_func(df: &DecodedFunc, num_funcs: usize, num_hosts: usize) {
    let len = df.ops.len();
    assert_eq!(df.pcs.len(), len, "pcs parallel to ops");
    let reg_ok = |r: u32| assert!(r < df.num_regs, "register {r} out of range");
    let tgt_ok = |t: u32| assert!((t as usize) < len, "jump target {t} out of range");
    for op in &df.ops {
        op_reads(op, reg_ok);
        op_defs(op, reg_ok);
        match op {
            DecodedOp::CallFunc { callee, .. } => {
                assert!((*callee as usize) < num_funcs, "callee out of range");
            }
            DecodedOp::CallHost {
                target: HostTarget::Named(id),
                ..
            } => assert!((*id as usize) < num_hosts, "host id out of range"),
            DecodedOp::Br { target } => tgt_ok(*target),
            DecodedOp::CondBr { t, f, .. } => {
                tgt_ok(*t);
                tgt_ok(*f);
            }
            _ => {}
        }
    }
    for p in df.params.iter() {
        reg_ok(*p);
    }
    for e in &df.block_entry {
        assert!((*e as usize) < len, "block entry out of range");
    }
    // The last op must end the function: non-branching ops advance to
    // ip+1, so only a terminator may sit last.
    match df.ops.last() {
        Some(DecodedOp::Ret { .. } | DecodedOp::Br { .. } | DecodedOp::CondBr { .. }) => {}
        other => panic!("function must end in a terminator, found {other:?}"),
    }
}

fn decode_inst(f: &mperf_ir::Function, inst: &Inst, hosts: &mut HostTable) -> DecodedOp {
    match inst {
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } if matches!(ty, Ty::I64 | Ty::Ptr) => DecodedOp::BinI {
            op: *op,
            class: bin_class(*op, *ty),
            dst: dst.index() as u32,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => DecodedOp::Bin {
            op: *op,
            class: bin_class(*op, *ty),
            flops: bin_flops(*op, *ty),
            dst: dst.index() as u32,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Cmp {
            op,
            ty: Ty::I64 | Ty::Ptr,
            dst,
            lhs,
            rhs,
        } => DecodedOp::CmpI {
            op: *op,
            dst: dst.index() as u32,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Cmp {
            op, dst, lhs, rhs, ..
        } => DecodedOp::Cmp {
            op: *op,
            dst: dst.index() as u32,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Un { op, ty, dst, src } => DecodedOp::Un {
            op: *op,
            class: un_class(*op, *ty),
            flops: un_flops(*op, *ty),
            dst: dst.index() as u32,
            src: *src,
        },
        Inst::Fma { ty, dst, a, b, c } => DecodedOp::Fma {
            class: if ty.is_vector() {
                OpClass::VecFma
            } else {
                OpClass::FpFma
            },
            flops: 2 * ty.lanes() as u32,
            dst: dst.index() as u32,
            a: *a,
            b: *b,
            c: *c,
        },
        Inst::Load {
            dst,
            addr,
            mem,
            lanes,
            stride,
        } => DecodedOp::Load {
            class: if *lanes > 1 {
                OpClass::VecLoad
            } else {
                OpClass::Load
            },
            dst: dst.index() as u32,
            addr: *addr,
            mem: *mem,
            lanes: *lanes,
            stride: *stride,
        },
        Inst::Store {
            addr,
            val,
            mem,
            lanes,
            stride,
        } => DecodedOp::Store {
            class: if *lanes > 1 {
                OpClass::VecStore
            } else {
                OpClass::Store
            },
            addr: *addr,
            val: *val,
            mem: *mem,
            lanes: *lanes,
            stride: *stride,
        },
        Inst::PtrAdd { dst, base, offset } => DecodedOp::PtrAdd {
            dst: dst.index() as u32,
            base: *base,
            offset: *offset,
        },
        Inst::Select {
            dst, cond, t, f, ..
        } => DecodedOp::Select {
            dst: dst.index() as u32,
            cond: *cond,
            t: *t,
            f: *f,
        },
        Inst::Cast { kind, dst, src } => DecodedOp::Cast {
            kind: *kind,
            class: cast_class(*kind),
            dst_ty: f.ty_of(*dst),
            dst: dst.index() as u32,
            src: *src,
        },
        Inst::Copy { dst, src, .. } => DecodedOp::Copy {
            dst: dst.index() as u32,
            src: *src,
        },
        Inst::Splat { ty, dst, src } => DecodedOp::Splat {
            elem: ty.elem(),
            lanes: ty.lanes(),
            dst: dst.index() as u32,
            src: *src,
        },
        Inst::Reduce { op, dst, src } => DecodedOp::Reduce {
            op: *op,
            // The reference interpreter derives this from the runtime
            // value's lane count; types are enforced by the verifier, so
            // the static operand type gives the identical number.
            flops: match op {
                ReduceOp::FAdd => (f.operand_ty(*src).lanes() as u32).saturating_sub(1),
                ReduceOp::Add => 0,
            },
            dst: dst.index() as u32,
            src: *src,
        },
        Inst::Call { dsts, callee, args } => {
            let dsts: Box<[Reg]> = dsts.clone().into_boxed_slice();
            let args: Box<[Operand]> = args.clone().into_boxed_slice();
            match callee {
                Callee::Func(fid) => DecodedOp::CallFunc {
                    callee: fid.0,
                    dsts,
                    args,
                },
                Callee::Host(name) => DecodedOp::CallHost {
                    target: hosts.resolve(name),
                    dsts,
                    args,
                },
            }
        }
        Inst::ProfCount(counts) => DecodedOp::ProfCount(*counts),
    }
}

fn decode_term(term: &Term, block_entry: &[u32]) -> DecodedOp {
    match term {
        Term::Br(b) => DecodedOp::Br {
            target: block_entry[b.index()],
        },
        Term::CondBr { cond, t, f } => DecodedOp::CondBr {
            cond: *cond,
            t: block_entry[t.index()],
            f: block_entry[f.index()],
        },
        Term::Ret(vals) => DecodedOp::Ret {
            vals: vals.clone().into_boxed_slice(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mperf_ir::compile;

    #[test]
    fn flattening_covers_every_block_and_terminator() {
        let src = r#"
            fn f(n: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) { s = s + i; }
                return s;
            }
        "#;
        let module = compile("t", src).unwrap();
        let dec = DecodedModule::decode(&module);
        let f = module.func_by_name("f").unwrap();
        let d = &dec.funcs[module.func_id("f").unwrap().index()];
        let expected: usize = f.blocks.iter().map(|b| b.insts.len() + 1).sum();
        assert_eq!(d.ops.len(), expected);
        assert_eq!(d.pcs.len(), expected);
        assert_eq!(d.block_entry.len(), f.num_blocks());
        // Register allocation may only shrink the register file.
        assert!(d.num_regs as usize <= f.num_regs());
    }

    #[test]
    fn jump_targets_resolve_to_block_entries() {
        let src = "fn f(c: bool) -> i64 { if (c) { return 1; } return 2; }";
        let module = compile("t", src).unwrap();
        let dec = DecodedModule::decode(&module);
        let d = &dec.funcs[0];
        for op in &d.ops {
            match op {
                DecodedOp::Br { target } => {
                    assert!(d.block_entry.contains(target));
                }
                DecodedOp::CondBr { t, f, .. } => {
                    assert!(d.block_entry.contains(t));
                    assert!(d.block_entry.contains(f));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn host_targets_pre_resolve() {
        let src = r#"
            extern fn helper(v: i64) -> i64;
            fn f(x: i64) -> i64 { return helper(x); }
        "#;
        let module = compile("t", src).unwrap();
        let dec = DecodedModule::decode(&module);
        assert_eq!(dec.host_names, vec!["helper".to_string()]);
        let named = dec.funcs[0].ops.iter().any(|op| {
            matches!(
                op,
                DecodedOp::CallHost {
                    target: HostTarget::Named(0),
                    ..
                }
            )
        });
        assert!(named, "helper call resolves to dense id 0");
    }
}
