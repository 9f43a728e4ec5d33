//! Code extraction: outline a SESE loop region into a new function
//! (LLVM `CodeExtractor` analogue, §4.2 step 2 of the paper).
//!
//! Inputs are the registers live into the region from outside; outputs are
//! the registers defined inside the region and live after it. Unlike LLVM,
//! MIR calls support multiple results, so outputs are returned directly
//! rather than through out-pointers.

use crate::analysis::regions::SeseRegion;
use crate::analysis::{Cfg, Liveness};
use crate::function::{Block, BlockId, Function};
use crate::inst::{Callee, Inst, Term};
use crate::module::{FuncId, Module};
use crate::value::Reg;
use std::collections::BTreeMap;

/// Result of outlining one region.
#[derive(Debug, Clone)]
pub struct ExtractedRegion {
    /// The new outlined function.
    pub func: FuncId,
    /// The block in the original function that now calls the outlined
    /// function and branches to the old exit target.
    pub call_block: BlockId,
    /// Registers passed as arguments (in the caller's numbering).
    pub inputs: Vec<Reg>,
    /// Registers received as results (in the caller's numbering).
    pub outputs: Vec<Reg>,
    /// True if the region contained calls (its static op counts are
    /// therefore lower bounds; paper §4.4 "External Function Calls").
    pub region_has_calls: bool,
}

/// Outline `region` of `func_id` into a new function named `new_name`.
///
/// The original function is rewritten to call the outlined function; the
/// region's blocks are removed.
///
/// # Panics
/// Panics if `region` is inconsistent with the function's current CFG
/// (callers must pass a region validated by
/// [`crate::analysis::regions::check_sese`] against the *current* body).
pub fn extract_region(
    module: &mut Module,
    func_id: FuncId,
    region: &SeseRegion,
    new_name: &str,
) -> ExtractedRegion {
    let f = module.func(func_id);
    let cfg = Cfg::compute(f);
    let live = Liveness::compute(f, &cfg);

    // Registers used and defined within the region.
    let mut used_in = vec![false; f.num_regs()];
    let mut defined_in = vec![false; f.num_regs()];
    let mut has_calls = false;
    let mut scratch: Vec<Reg> = Vec::new();
    for &b in &region.blocks {
        let block = f.block(b);
        for inst in &block.insts {
            if matches!(inst, Inst::Call { .. }) {
                has_calls = true;
            }
            scratch.clear();
            inst.used_regs(&mut scratch);
            for &r in &scratch {
                used_in[r.index()] = true;
            }
            scratch.clear();
            inst.defs(&mut scratch);
            for &r in &scratch {
                defined_in[r.index()] = true;
            }
        }
        let mut ops = Vec::new();
        block.term.uses(&mut ops);
        for op in ops {
            if let Some(r) = op.as_reg() {
                used_in[r.index()] = true;
            }
        }
    }

    // Inputs: live into the header and referenced by the region.
    let inputs: Vec<Reg> = live
        .live_in(region.header)
        .iter()
        .filter(|r| used_in[r.index()])
        .collect();
    // Outputs: defined inside and live at the exit target.
    let outputs: Vec<Reg> = live
        .live_in(region.exit_target)
        .iter()
        .filter(|r| defined_in[r.index()])
        .collect();

    let param_tys: Vec<_> = inputs.iter().map(|&r| f.ty_of(r)).collect();
    let ret_tys: Vec<_> = outputs.iter().map(|&r| f.ty_of(r)).collect();

    // Build the outlined function.
    let mut g = Function::new(new_name, &param_tys, &ret_tys);
    g.synthetic = true;
    g.line = f.block(region.header).line;

    // Caller-reg -> outlined-reg map. Inputs map to parameters; everything
    // else referenced by the region gets a fresh register on demand.
    let mut reg_map: BTreeMap<Reg, Reg> = BTreeMap::new();
    for (i, &r) in inputs.iter().enumerate() {
        reg_map.insert(r, g.params[i]);
    }

    // Region block order: header first, then the rest sorted.
    let mut order: Vec<BlockId> = vec![region.header];
    order.extend(
        region
            .blocks
            .iter()
            .copied()
            .filter(|&b| b != region.header),
    );

    // Block id map; g's entry (bb0) hosts the header copy.
    let mut block_map: BTreeMap<BlockId, BlockId> = BTreeMap::new();
    block_map.insert(region.header, g.entry());
    for &b in order.iter().skip(1) {
        let nb = g.add_block();
        block_map.insert(b, nb);
    }
    // Dedicated return block.
    let ret_bb = g.add_block();

    // Copy blocks, remapping registers and successors.
    for &b in &order {
        let src_block = f.block(b).clone();
        let mut new_block = Block {
            insts: src_block.insts,
            term: src_block.term,
            line: src_block.line,
        };
        for inst in &mut new_block.insts {
            inst.map_uses(|r| map_reg(&mut g, f, &mut reg_map, r));
            inst.map_defs(|r| map_reg(&mut g, f, &mut reg_map, r));
        }
        new_block
            .term
            .map_uses(|r| map_reg(&mut g, f, &mut reg_map, r));
        new_block.term.map_succs(|s| {
            if s == region.exit_target {
                ret_bb
            } else {
                *block_map
                    .get(&s)
                    .expect("SESE region: all successors are in-region or the exit target")
            }
        });
        *g.block_mut(block_map[&b]) = new_block;
    }
    // Seal the return block.
    let ret_vals: Vec<_> = outputs
        .iter()
        .map(|&r| {
            crate::value::Operand::Reg(
                *reg_map
                    .get(&r)
                    .expect("outputs are defined in-region and thus remapped"),
            )
        })
        .collect();
    g.block_mut(ret_bb).term = Term::Ret(ret_vals);

    let g_id = module.add_func(g);

    // Rewrite the caller: new call block replaces the region.
    let f = module.func_mut(func_id);
    let call_block = f.add_block();
    let call_inst = Inst::Call {
        dsts: outputs.clone(),
        callee: Callee::Func(g_id),
        args: inputs
            .iter()
            .map(|&r| crate::value::Operand::Reg(r))
            .collect(),
    };
    {
        let cb = f.block_mut(call_block);
        cb.insts.push(call_inst);
        cb.term = Term::Br(region.exit_target);
        cb.line = 0;
    }
    let header_line = f.block(region.header).line;
    f.block_mut(call_block).line = header_line;
    // Retarget the preheader to the call block.
    f.block_mut(region.preheader)
        .term
        .map_succs(|s| if s == region.header { call_block } else { s });
    // Stub out the region blocks. They become unreachable returns so that
    // block ids stay stable while the instrumentation pass processes the
    // remaining loops of this function; callers compact at the end via
    // [`simplify_cfg::remove_unreachable`].
    let stub_rets: Vec<crate::value::Operand> =
        f.ret_tys.clone().into_iter().map(zero_operand).collect();
    for &b in &region.blocks {
        let blk = f.block_mut(b);
        blk.insts.clear();
        blk.term = Term::Ret(stub_rets.clone());
    }

    ExtractedRegion {
        func: g_id,
        call_block,
        inputs,
        outputs,
        region_has_calls: has_calls,
    }
}

/// Zero immediate for a scalar return type (extraction runs before
/// vectorization, so vector returns cannot occur).
fn zero_operand(ty: crate::types::Ty) -> crate::value::Operand {
    use crate::types::Ty;
    use crate::value::Operand;
    match ty {
        Ty::I64 | Ty::Ptr => Operand::I64(0),
        Ty::F32 => Operand::F32(0.0),
        Ty::F64 => Operand::F64(0.0),
        Ty::Bool => Operand::Bool(false),
        v => panic!("unexpected vector return type {v} during extraction"),
    }
}

fn map_reg(g: &mut Function, f: &Function, reg_map: &mut BTreeMap<Reg, Reg>, r: Reg) -> Reg {
    if let Some(&m) = reg_map.get(&r) {
        return m;
    }
    let nr = g.fresh_reg(f.ty_of(r));
    reg_map.insert(r, nr);
    nr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::regions::check_sese;
    use crate::analysis::{Cfg, Dominators, LoopForest};
    use crate::compile;
    use crate::verify::verify_module;

    fn extract_first_loop(src: &str, fname: &str) -> (Module, ExtractedRegion) {
        let mut m = compile("t", src).unwrap();
        let fid = m.func_id(fname).unwrap();
        let f = m.func(fid);
        let cfg = Cfg::compute(f);
        let dom = Dominators::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        let top = forest.top_level();
        let lp = forest.get(top[0]);
        let region = check_sese(f, &cfg, lp).expect("loop is SESE");
        let ext = extract_region(&mut m, fid, &region, &format!("{fname}_loop0_outlined"));
        crate::transform::simplify_cfg::remove_unreachable(m.func_mut(fid));
        verify_module(&m).expect("extraction preserves validity");
        (m, ext)
    }

    const SUM_SRC: &str = r#"
        fn sum(n: i64) -> i64 {
            var s: i64 = 0;
            var i: i64 = 0;
            while (i < n) {
                s = s + i;
                i = i + 1;
            }
            return s;
        }
    "#;

    #[test]
    fn extracts_simple_loop() {
        let (m, ext) = extract_first_loop(SUM_SRC, "sum");
        let g = m.func(ext.func);
        assert_eq!(g.name, "sum_loop0_outlined");
        assert!(g.synthetic);
        // Inputs: n, s, i. Outputs: s (and possibly i if live after).
        assert!(ext.inputs.len() >= 2, "{ext:?}");
        assert!(!ext.outputs.is_empty(), "{ext:?}");
        assert!(!ext.region_has_calls);
    }

    #[test]
    fn caller_calls_outlined_function() {
        let (m, ext) = extract_first_loop(SUM_SRC, "sum");
        let f = m.func_by_name("sum").unwrap();
        let calls: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 1);
        match calls[0] {
            Inst::Call { dsts, args, .. } => {
                assert_eq!(dsts.len(), ext.outputs.len());
                assert_eq!(args.len(), ext.inputs.len());
            }
            _ => unreachable!(),
        }
        // Original loop gone from the caller.
        let cfg = Cfg::compute(f);
        let dom = Dominators::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        assert!(forest.is_empty(), "loop should now live in the callee");
    }

    #[test]
    fn outlined_function_contains_the_loop() {
        let (m, ext) = extract_first_loop(SUM_SRC, "sum");
        let g = m.func(ext.func);
        let cfg = Cfg::compute(g);
        let dom = Dominators::compute(g, &cfg);
        let forest = LoopForest::compute(g, &cfg, &dom);
        assert_eq!(forest.len(), 1);
    }

    #[test]
    fn extraction_of_nested_loop_keeps_outer() {
        let src = r#"
            fn f(n: i64) -> i64 {
                var total: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    for (var j: i64 = 0; j < n; j = j + 1) {
                        total = total + j;
                    }
                }
                return total;
            }
        "#;
        // Extract the whole outer nest.
        let (m, ext) = extract_first_loop(src, "f");
        let g = m.func(ext.func);
        let cfg = Cfg::compute(g);
        let dom = Dominators::compute(g, &cfg);
        let forest = LoopForest::compute(g, &cfg, &dom);
        assert_eq!(forest.len(), 2, "both loops moved: {g}");
    }

    #[test]
    fn region_with_calls_is_flagged() {
        let src = r#"
            fn leaf(x: i64) -> i64 { return x + 1; }
            fn f(n: i64) -> i64 {
                var s: i64 = 0;
                var i: i64 = 0;
                while (i < n) {
                    s = leaf(s);
                    i = i + 1;
                }
                return s;
            }
        "#;
        let (_, ext) = extract_first_loop(src, "f");
        assert!(ext.region_has_calls);
    }

    #[test]
    fn memory_loop_extraction_keeps_pointer_params() {
        let src = r#"
            fn scale(a: *f32, n: i64, k: f32) {
                var i: i64 = 0;
                while (i < n) {
                    a[i] = a[i] * k;
                    i = i + 1;
                }
            }
        "#;
        let (m, ext) = extract_first_loop(src, "scale");
        let g = m.func(ext.func);
        // a, n, k, i all inputs; no outputs (nothing live after).
        assert_eq!(ext.inputs.len(), 4, "{:?}\n{g}", ext);
        assert!(ext.outputs.is_empty());
    }
}
