//! Decode-time register allocation: copy coalescing over the flat
//! op stream.
//!
//! After [`crate::decode`] flattens a function, roughly a third of its
//! dynamic ops are `Copy`s — the `var = expr` lowering writes every
//! expression into a temporary and copies it into the variable's
//! register. Each such copy costs a `Value` clone and a register-stack
//! write on top of the modeled `Move` it retires.
//!
//! This pass eliminates the data movement outright: it computes
//! per-function liveness over the flat stream, builds a register
//! interference relation, and merges the source and destination of each
//! `copy dst = src` whose live ranges do not conflict — so the producer
//! writes directly into the consumer's slot. A coalesced `Copy` slot is
//! rewritten to [`DecodedOp::ElidedCopy`]: a retire-only op that ticks
//! the same `Move` machine op at the same pc (keeping every modeled
//! observable — cycles, instruction counts, PMU state, sampling IPs —
//! bit-identical to the reference engine) but moves no data and reads
//! no registers. Register numbers are then compacted, shrinking each
//! frame's register-stack window.
//!
//! ## Soundness
//!
//! Coalescing `dst` and `src` is safe iff their merged class is never
//! simultaneously live with conflicting values:
//!
//! - every op's destinations *interfere* with every register live-out
//!   of that op (writing one would clobber the other) — except the
//!   copy's own `dst`/`src` pair at the copy itself, where both hold
//!   the same value by construction;
//! - destinations written by the same op interfere pairwise;
//! - function parameters interfere pairwise and with everything
//!   live-in at entry (each holds a distinct caller-supplied value).
//!
//! Classes grow only through `Copy` ops, which the IR verifier
//! type-checks, so merged registers always carry one type — the
//! threaded engine's raw-`i64` lanes stay type-confusion-free. A read
//! of a never-written register sees the zero-initialized slot exactly
//! as before: any other class member's def inside the read's live
//! range would have recorded interference and blocked the merge.

use crate::decode::{op_defs, op_reads, DecodedFunc, DecodedOp};
use mperf_ir::{Operand, Reg};

/// Decode-time register-allocation statistics, aggregated over all
/// functions and recorded on [`crate::decode::DecodedModule`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegallocStats {
    /// `Copy` ops in the pre-pass stream.
    pub copies_static: u64,
    /// `Copy` ops coalesced away (now [`DecodedOp::ElidedCopy`]).
    pub copies_coalesced: u64,
    /// Total register-file slots before the pass.
    pub regs_before: u64,
    /// Total register-file slots after compaction.
    pub regs_after: u64,
}

/// Word-granular bitset helpers over `&[u64]` rows.
#[inline]
fn bit_set(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

fn for_each_bit(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            f(w * 64 + b);
            bits &= bits - 1;
        }
    }
}

/// Flat `rows × words` bit matrix.
struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    fn new(rows: usize, words: usize) -> BitMatrix {
        BitMatrix {
            words,
            bits: vec![0; rows * words],
        }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..(r + 1) * self.words]
    }

    /// `row(dst) |= row(src)` for two distinct rows.
    fn or_row(&mut self, dst: usize, src: usize) {
        debug_assert_ne!(dst, src);
        let (lo, hi, dst_first) = if dst < src {
            (dst, src, true)
        } else {
            (src, dst, false)
        };
        let (a, b) = self.bits.split_at_mut(hi * self.words);
        let lo_row = &mut a[lo * self.words..(lo + 1) * self.words];
        let hi_row = &mut b[..self.words];
        if dst_first {
            for (d, s) in lo_row.iter_mut().zip(hi_row.iter()) {
                *d |= *s;
            }
        } else {
            for (d, s) in hi_row.iter_mut().zip(lo_row.iter()) {
                *d |= *s;
            }
        }
    }
}

/// Union-find with path halving.
fn find(parent: &mut [u32], mut r: u32) -> u32 {
    while parent[r as usize] != r {
        let g = parent[parent[r as usize] as usize];
        parent[r as usize] = g;
        r = g;
    }
    r
}

/// Flat-index successors of the op at `i` (`len` = stream length).
/// Non-terminators fall through; branches go to their pre-resolved
/// targets; `Ret` ends the walk. Traps abort execution entirely, so the
/// normal successor edge is the only one liveness needs.
#[inline]
fn successors(op: &DecodedOp, i: usize, mut f: impl FnMut(usize)) {
    match op {
        DecodedOp::Br { target } => f(*target as usize),
        DecodedOp::CondBr { t, f: fe, .. } => {
            f(*t as usize);
            f(*fe as usize);
        }
        DecodedOp::Ret { .. } => {}
        _ => f(i + 1),
    }
}

/// Run copy coalescing + register compaction over one flattened
/// function. Accumulates into `stats`.
pub(crate) fn regalloc_func(df: &mut DecodedFunc, stats: &mut RegallocStats) {
    let nregs = df.num_regs as usize;
    let len = df.ops.len();
    stats.regs_before += nregs as u64;
    let copies = df
        .ops
        .iter()
        .filter(|op| matches!(op, DecodedOp::Copy { .. }))
        .count() as u64;
    stats.copies_static += copies;
    if nregs == 0 || len == 0 {
        stats.regs_after += nregs as u64;
        return;
    }
    let words = nregs.div_ceil(64);

    // Per-op use/def bitsets.
    let mut use_b = BitMatrix::new(len, words);
    let mut def_b = BitMatrix::new(len, words);
    for (i, op) in df.ops.iter().enumerate() {
        op_reads(op, |r| bit_set(use_b.row_mut(i), r as usize));
        op_defs(op, |r| bit_set(def_b.row_mut(i), r as usize));
    }

    // Backward liveness to a fixpoint:
    // live_in(i) = use(i) ∪ (∪_succ live_in(succ) − def(i)).
    let mut live_in = BitMatrix::new(len, words);
    let mut out = vec![0u64; words];
    let mut new_in = vec![0u64; words];
    loop {
        let mut changed = false;
        for i in (0..len).rev() {
            out.iter_mut().for_each(|w| *w = 0);
            successors(&df.ops[i], i, |s| {
                debug_assert!(s < len, "validated streams end in terminators");
                for (o, w) in out.iter_mut().zip(live_in.row(s)) {
                    *o |= *w;
                }
            });
            for (((n, o), u), d) in new_in
                .iter_mut()
                .zip(&out)
                .zip(use_b.row(i))
                .zip(def_b.row(i))
            {
                *n = u | (o & !d);
            }
            let row = live_in.row_mut(i);
            if row != new_in.as_slice() {
                row.copy_from_slice(&new_in);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Interference: for each op, every destination conflicts with every
    // register live-out of the op (minus the copy's own dst/src pair),
    // and same-op destinations conflict pairwise. Parameters conflict
    // pairwise and with everything live-in at entry.
    let mut intf = BitMatrix::new(nregs, words);
    let mut defs: Vec<u32> = Vec::new();
    for i in 0..len {
        let op = &df.ops[i];
        out.iter_mut().for_each(|w| *w = 0);
        successors(op, i, |s| {
            for (o, w) in out.iter_mut().zip(live_in.row(s)) {
                *o |= *w;
            }
        });
        let copy_pair = match op {
            DecodedOp::Copy {
                dst,
                src: Operand::Reg(s),
            } => Some((*dst, s.index() as u32)),
            _ => None,
        };
        defs.clear();
        op_defs(op, |d| defs.push(d));
        for &d in &defs {
            for_each_bit(&out, |r| {
                if r != d as usize && copy_pair != Some((d, r as u32)) {
                    bit_set(intf.row_mut(d as usize), r);
                    bit_set(intf.row_mut(r), d as usize);
                }
            });
        }
        for (k, &d) in defs.iter().enumerate() {
            for &e in &defs[k + 1..] {
                if d != e {
                    bit_set(intf.row_mut(d as usize), e as usize);
                    bit_set(intf.row_mut(e as usize), d as usize);
                }
            }
        }
    }
    for (k, &p) in df.params.iter().enumerate() {
        for_each_bit(live_in.row(0), |r| {
            if r != p as usize {
                bit_set(intf.row_mut(p as usize), r);
                bit_set(intf.row_mut(r), p as usize);
            }
        });
        for &q in &df.params[k + 1..] {
            if p != q {
                bit_set(intf.row_mut(p as usize), q as usize);
                bit_set(intf.row_mut(q as usize), p as usize);
            }
        }
    }

    // Greedy coalescing in stream order. Class membership and class
    // interference live at the representative's rows and are merged on
    // union, so the conflict probe is one bitset intersection.
    let mut parent: Vec<u32> = (0..nregs as u32).collect();
    let mut members = BitMatrix::new(nregs, words);
    for r in 0..nregs {
        bit_set(members.row_mut(r), r);
    }
    for op in &df.ops {
        let DecodedOp::Copy {
            dst,
            src: Operand::Reg(s),
        } = op
        else {
            continue;
        };
        let a = find(&mut parent, *dst) as usize;
        let b = find(&mut parent, s.index() as u32) as usize;
        if a == b {
            continue;
        }
        // Interference was recorded symmetrically, so one direction
        // suffices: no member of `a`'s class conflicts with `b`'s.
        if intersects(intf.row(a), members.row(b)) {
            continue;
        }
        parent[b] = a as u32;
        members.or_row(a, b);
        intf.or_row(a, b);
    }

    // Compact: referenced classes get dense slots in first-use order.
    let mut referenced = vec![false; nregs];
    for op in &df.ops {
        op_reads(op, |r| referenced[r as usize] = true);
        op_defs(op, |r| referenced[r as usize] = true);
    }
    for &p in df.params.iter() {
        referenced[p as usize] = true;
    }
    let mut map = vec![u32::MAX; nregs];
    let mut next = 0u32;
    for r in 0..nregs as u32 {
        if !referenced[r as usize] {
            continue;
        }
        let rep = find(&mut parent, r) as usize;
        if map[rep] == u32::MAX {
            map[rep] = next;
            next += 1;
        }
        map[r as usize] = map[rep];
    }

    // Rewrite the stream through the map, elide no-op copies, and
    // shrink the register file.
    for op in df.ops.iter_mut() {
        rewrite_op(op, &map);
        if let DecodedOp::Copy {
            dst,
            src: Operand::Reg(s),
        } = op
        {
            if *dst == s.index() as u32 {
                *op = DecodedOp::ElidedCopy;
                stats.copies_coalesced += 1;
            }
        }
    }
    df.params = df.params.iter().map(|p| map[*p as usize]).collect();
    df.num_regs = next;
    stats.regs_after += next as u64;
}

#[inline]
fn remap(map: &[u32], r: u32) -> u32 {
    let m = map[r as usize];
    debug_assert_ne!(m, u32::MAX, "referenced register has a slot");
    m
}

fn rewrite_operand(o: &mut Operand, map: &[u32]) {
    if let Operand::Reg(r) = o {
        *r = Reg(remap(map, r.index() as u32));
    }
}

/// Remap every register field of `op` (reads and writes).
fn rewrite_op(op: &mut DecodedOp, map: &[u32]) {
    use DecodedOp as D;
    match op {
        D::Bin { dst, lhs, rhs, .. }
        | D::BinI { dst, lhs, rhs, .. }
        | D::Cmp { dst, lhs, rhs, .. }
        | D::CmpI { dst, lhs, rhs, .. } => {
            *dst = remap(map, *dst);
            rewrite_operand(lhs, map);
            rewrite_operand(rhs, map);
        }
        D::Un { dst, src, .. }
        | D::Cast { dst, src, .. }
        | D::Copy { dst, src }
        | D::Splat { dst, src, .. }
        | D::Reduce { dst, src, .. } => {
            *dst = remap(map, *dst);
            rewrite_operand(src, map);
        }
        D::Fma { dst, a, b, c, .. } => {
            *dst = remap(map, *dst);
            rewrite_operand(a, map);
            rewrite_operand(b, map);
            rewrite_operand(c, map);
        }
        D::Load {
            dst, addr, stride, ..
        } => {
            *dst = remap(map, *dst);
            rewrite_operand(addr, map);
            rewrite_operand(stride, map);
        }
        D::Store {
            addr, val, stride, ..
        } => {
            rewrite_operand(addr, map);
            rewrite_operand(val, map);
            rewrite_operand(stride, map);
        }
        D::PtrAdd { dst, base, offset } => {
            *dst = remap(map, *dst);
            rewrite_operand(base, map);
            rewrite_operand(offset, map);
        }
        D::Select { dst, cond, t, f } => {
            *dst = remap(map, *dst);
            rewrite_operand(cond, map);
            rewrite_operand(t, map);
            rewrite_operand(f, map);
        }
        D::CallFunc { dsts, args, .. } | D::CallHost { dsts, args, .. } => {
            for d in dsts.iter_mut() {
                *d = Reg(remap(map, d.index() as u32));
            }
            for a in args.iter_mut() {
                rewrite_operand(a, map);
            }
        }
        D::CondBr { cond, .. } => rewrite_operand(cond, map),
        D::Ret { vals } => {
            for v in vals.iter_mut() {
                rewrite_operand(v, map);
            }
        }
        D::ProfCount(_) | D::Br { .. } | D::ElidedCopy => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{DecodeConfig, DecodedModule};
    use mperf_ir::compile;

    fn decode(src: &str, optimize: bool) -> DecodedModule {
        let mut module = compile("t", src).unwrap();
        if optimize {
            mperf_ir::transform::PassManager::standard().run(&mut module);
        }
        DecodedModule::decode(&module)
    }

    #[test]
    fn loop_assignment_copies_coalesce() {
        // Every `var = expr` copy in the loop body and back edge is
        // coalescible: the temporary dies at the copy.
        let src = r#"
            fn spin(n: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    s = (s ^ i) + (i >> 2);
                }
                return s;
            }
        "#;
        let dec = decode(src, true);
        let st = &dec.regalloc;
        assert!(st.copies_static >= 2, "{st:?}");
        assert!(st.copies_coalesced >= 2, "{st:?}");
        assert!(st.regs_after < st.regs_before, "{st:?}");
        let f = &dec.funcs[0];
        // Every register-to-register copy coalesces (the loop-body and
        // back-edge assignments); only immediate-initializer copies may
        // survive as real data movement.
        assert!(
            !f.ops.iter().any(|op| matches!(
                op,
                DecodedOp::Copy {
                    src: Operand::Reg(_),
                    ..
                }
            )),
            "reg-to-reg copies all coalesce"
        );
        assert!(f.ops.iter().any(|op| matches!(op, DecodedOp::ElidedCopy)));
    }

    #[test]
    fn interfering_copy_survives() {
        // The Fibonacci shuffle: `t` snapshots `cur` before `cur` is
        // redefined while `t` is still live, and `prev` is redefined
        // while holding a value `t`'s def range overlaps — those ranges
        // conflict with different values, so at least one shuffle copy
        // must survive as real data movement.
        let src = r#"
            fn fib(n: i64) -> i64 {
                var prev: i64 = 0;
                var cur: i64 = 1;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    var t: i64 = cur;
                    cur = cur + prev;
                    prev = t;
                }
                return cur;
            }
        "#;
        let dec = decode(src, false);
        let f = &dec.funcs[0];
        assert!(
            f.ops.iter().any(|op| matches!(
                op,
                DecodedOp::Copy {
                    src: Operand::Reg(_),
                    ..
                }
            )),
            "interfering shuffle copy must survive: {:?}",
            dec.regalloc
        );
    }

    #[test]
    fn stream_shape_is_preserved() {
        // The pass rewrites in place: op count, pcs, and block entries
        // are untouched; only registers and Copy→ElidedCopy change.
        let src = r#"
            fn f(p: *i64, n: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) { s = s + p[i % 8]; }
                return s;
            }
        "#;
        let mut module = compile("t", src).unwrap();
        mperf_ir::transform::PassManager::standard().run(&mut module);
        let plain = DecodedModule::decode_cfg(&module, DecodeConfig { regalloc: false });
        let ra = DecodedModule::decode(&module);
        for (fp, fr) in plain.funcs.iter().zip(&ra.funcs) {
            assert_eq!(fp.ops.len(), fr.ops.len());
            assert_eq!(fp.pcs, fr.pcs);
            assert_eq!(fp.block_entry, fr.block_entry);
            assert!(fr.num_regs <= fp.num_regs);
            assert_eq!(fp.params.len(), fr.params.len());
        }
    }

    #[test]
    fn params_keep_distinct_slots() {
        let src = "fn f(a: i64, b: i64, c: i64) -> i64 { return a + b + c; }";
        let dec = decode(src, false);
        let f = &dec.funcs[0];
        let mut seen = std::collections::HashSet::new();
        for p in f.params.iter() {
            assert!(seen.insert(*p), "params must stay distinct: {:?}", f.params);
            assert!(*p < f.num_regs);
        }
    }
}
