//! The simulated core: retires machine ops, advances the timing model,
//! drives caches/branch prediction, and ticks the PMU.

use crate::branch::BranchPredictor;
use crate::cache::MemorySystem;
use crate::csr::{Csr, CsrError};
use crate::events::EventDeltas;
use crate::isa::IsaModel;
use crate::machine_op::{MachineOp, OpClass};
use crate::platform::{PlatformSpec, Unit};
use crate::pmu::Pmu;

/// RISC-V privilege modes (the x86 model reuses User/Supervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivMode {
    User,
    Supervisor,
    Machine,
}

/// Result of retiring one machine op.
#[derive(Debug, Clone, Default)]
pub struct RetireInfo {
    /// Whole cycles the core advanced.
    pub cycles: u64,
    /// Instructions retired (ISA expansion applied).
    pub instructions: u64,
    /// Bitmask of PMU counters whose overflow interrupt fired.
    pub overflow: u32,
}

/// Deferred-retire accumulator for one superblock: ops apply their
/// timing/cache/branch effects immediately (so `Core::cycles` stays
/// exact mid-block) while their PMU event deltas accumulate here, to be
/// ticked once by [`Core::retire_block`]. Armed in place by
/// [`Core::block_begin_in`]; guard the whole block with
/// [`Core::block_ready`] first so the single combined tick cannot wrap
/// a counter.
#[derive(Debug, Clone, Default)]
pub struct BlockAcc {
    /// Commit time at block entry (centi-cycles).
    start_centi: u64,
    /// Instruction events from the scalar class lanes
    /// ([`Core::block_apply_class`]/[`Core::block_apply_classes`]) — the
    /// dominant case, kept out of the full [`EventDeltas`] bundle so an
    /// all-ALU block touches two words, not twelve.
    instructions: u64,
    /// Whether any applied op carried events beyond cycles/instructions
    /// (memory, branch, FP, vector) — selects the PMU tick lane, and
    /// marks `deltas` dirty (reset lazily by [`Core::block_begin_in`]).
    complex: bool,
    deltas: EventDeltas,
}

/// One simulated hart.
#[derive(Debug, Clone)]
pub struct Core {
    pub spec: PlatformSpec,
    pub csr: Csr,
    pmu: Pmu,
    mem: MemorySystem,
    bp: BranchPredictor,
    isa: IsaModel,
    mode: PrivMode,
    /// Committed time in centi-cycles (in-order accumulator).
    centi: u64,
    /// Out-of-order per-unit occupancy accumulators (centi-cycles).
    unit_busy: [u64; Unit::COUNT],
    /// Issue-slot accumulator (centi-cycles).
    slots: u64,
    retired: u64,
    /// Centi-cycles one issue slot costs (`100 / issue_width`, floored at
    /// 1) — precomputed off the retire path.
    slot_unit: u64,
    /// Per-unit conservative event bounds for superblock retire
    /// ([`Core::block_ready`]): events+cycles per machine op, …
    block_op_ub: u64,
    /// … extra per scalar (≤ 2-line) memory reference (static part; the
    /// DRAM queue backlog is added dynamically), …
    block_mem_ub: u64,
    /// … extra per branch, …
    block_branch_ub: u64,
    /// … FP-event multiplier per architectural FLOP, …
    block_fp_ub: u64,
    /// … and the per-line DRAM channel occupancy bound.
    block_occ_ub: u64,
}

impl Core {
    /// Power on a core for `spec`.
    pub fn new(spec: PlatformSpec) -> Core {
        let isa = spec.isa_model();
        let slot_unit = (100 / spec.issue_width as u64).max(1);
        Core {
            csr: Csr::new(spec.cpu_id),
            pmu: Pmu::new(spec.num_hpm_counters),
            mem: MemorySystem::new(spec.caches),
            bp: BranchPredictor::new(spec.predictor_index_bits),
            mode: PrivMode::User,
            centi: 0,
            unit_busy: [0; Unit::COUNT],
            slots: 0,
            retired: 0,
            slot_unit,
            block_op_ub: block_op_ub(&spec, &isa, slot_unit),
            block_mem_ub: block_mem_ub(&spec),
            block_branch_ub: block_branch_ub(&spec),
            block_fp_ub: spec.fp_event_percent as u64 / 100 + 1,
            block_occ_ub: Core::dram_occupancy_bound(&spec.caches),
            isa,
            spec,
        }
    }

    /// Current privilege mode.
    pub fn mode(&self) -> PrivMode {
        self.mode
    }

    /// Switch privilege mode (ecall/sret boundaries in the SBI layer).
    pub fn set_mode(&mut self, mode: PrivMode) {
        self.mode = mode;
    }

    /// Committed whole cycles since power-on.
    pub fn cycles(&self) -> u64 {
        self.current_centi() / 100
    }

    /// Instructions retired since power-on.
    pub fn instructions(&self) -> u64 {
        self.retired
    }

    /// Shared PMU access (the SBI layer programs it through CSRs; tools
    /// read it through this for assertions).
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// Mutable PMU access for the firmware layer.
    pub fn pmu_mut(&mut self) -> &mut Pmu {
        &mut self.pmu
    }

    /// Toggle the PMU's batched tick path (on by default; identical
    /// observable behaviour — see [`Pmu::set_batched`]).
    pub fn set_pmu_batching(&mut self, on: bool) {
        self.pmu.set_batched(on);
    }

    /// Memory-hierarchy statistics access.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Flush caches and reset the branch predictor (between benchmark
    /// phases; the PMU and clocks are *not* reset).
    pub fn reset_microarch(&mut self) {
        self.mem.flush();
        self.bp.reset();
    }

    /// Read a CSR at the current privilege mode.
    ///
    /// # Errors
    /// Propagates [`CsrError`] (illegal instruction) on privilege or
    /// decode failures.
    pub fn csr_read(&self, addr: u16) -> Result<u64, CsrError> {
        self.csr.read(addr, self.mode, &self.pmu)
    }

    /// Read a CSR as if in `mode` (the firmware runs in M-mode while the
    /// core state says otherwise during a trap; this keeps the model
    /// simple without a full trap unit).
    pub fn csr_read_as(&self, addr: u16, mode: PrivMode) -> Result<u64, CsrError> {
        self.csr.read(addr, mode, &self.pmu)
    }

    /// Write a CSR as if in `mode`.
    ///
    /// # Errors
    /// Propagates [`CsrError`] on privilege or decode failures.
    pub fn csr_write_as(&mut self, addr: u16, value: u64, mode: PrivMode) -> Result<(), CsrError> {
        self.csr.write(addr, value, mode, &mut self.pmu)
    }

    fn current_centi(&self) -> u64 {
        if self.spec.out_of_order {
            let unit_max = self.unit_busy.iter().copied().max().unwrap_or(0);
            self.centi.max(unit_max).max(self.slots)
        } else {
            self.centi
        }
    }

    /// Retire one machine op: advance time, count events, tick the PMU.
    #[inline]
    pub fn retire(&mut self, op: &MachineOp) -> RetireInfo {
        // The dominant op shape (scalar ALU/move/addr/call classes: no
        // memory reference, no branch bookkeeping, no FLOPs, no
        // vec-instruction event) takes a slimmer path that skips the
        // full event bundle; identical arithmetic.
        if op.mem.is_none()
            && op.flops == 0
            && !matches!(op.class, OpClass::Branch)
            && !op.is_vector()
        {
            return self.retire_simple(op);
        }
        self.retire_full(op)
    }

    /// Fast path for non-memory, non-branch, non-FP ops.
    fn retire_simple(&mut self, op: &MachineOp) -> RetireInfo {
        let before = self.current_centi();
        let expansion = self.isa.expand(op.class);
        let inv_tp = self.spec.timing.inv_tp(op.class);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;

        if self.spec.out_of_order {
            let unit = Unit::of(op.class);
            self.unit_busy[unit.index()] += inv_tp;
            self.slots += slot_cost;
        } else {
            self.centi += inv_tp.max(slot_cost);
        }

        let after = self.current_centi();
        let cycles = after / 100 - before / 100;
        self.retired += expansion as u64;

        let overflow = self
            .pmu
            .tick_batched_simple(cycles, expansion as u64, self.mode);
        RetireInfo {
            cycles,
            instructions: expansion as u64,
            overflow,
        }
    }

    fn retire_full(&mut self, op: &MachineOp) -> RetireInfo {
        let before = self.current_centi();
        let mut deltas = EventDeltas::default();
        self.apply_op(op, &mut deltas);
        deltas.cycles = self.current_centi() / 100 - before / 100;
        let overflow = self.pmu.tick_batched(&deltas, self.mode);
        RetireInfo {
            cycles: deltas.cycles,
            instructions: deltas.instructions,
            overflow,
        }
    }

    /// The tick-free, cycle-free body of one retire: advance the timing
    /// model, drive caches and branch prediction, and *accumulate* this
    /// op's non-cycle event deltas into `deltas` — without touching the
    /// PMU. Applying N ops in order and computing the cycle delta once is
    /// exactly N per-op retires: per-op cycle deltas telescope
    /// (`Σ (afterᵢ − beforeᵢ) = after_N − before_0`) and event counts are
    /// additive — the foundation of [`Core::retire_block`]. Returns
    /// `true` when the op took the slim path (no events beyond
    /// cycles/instructions).
    #[inline]
    fn apply_op(&mut self, op: &MachineOp, deltas: &mut EventDeltas) -> bool {
        let expansion = self.isa.expand(op.class);
        let inv_tp = self.spec.timing.inv_tp(op.class);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;
        deltas.instructions += expansion as u64;
        self.retired += expansion as u64;

        // The dominant shape (no memory, no branch, no FLOPs, no vector
        // event) skips the full event bundle; identical arithmetic to
        // the slow path below with every extra term zero.
        if op.mem.is_none()
            && op.flops == 0
            && !matches!(op.class, OpClass::Branch)
            && !op.is_vector()
        {
            if self.spec.out_of_order {
                self.unit_busy[Unit::of(op.class).index()] += inv_tp;
                self.slots += slot_cost;
            } else {
                self.centi += inv_tp.max(slot_cost);
            }
            return true;
        }

        let before = self.current_centi();
        if op.flops != 0 {
            // The PMU event applies the platform's overcount model
            // (speculation, masked lanes); see `fp_event_percent`.
            deltas.fp_ops += op.flops as u64 * self.spec.fp_event_percent as u64 / 100;
        }
        if op.is_vector() && expansion > 0 {
            deltas.vec_instructions += expansion as u64;
        }

        // Branch handling. A mispredict serializes the whole pipeline:
        // on the out-of-order model it becomes a floor on commit time
        // rather than occupancy on one unit.
        let mut stall_centi = 0u64;
        let mut mispredicted = false;
        if matches!(op.class, OpClass::Branch) {
            deltas.branches += 1;
            if op.taken {
                stall_centi += self.spec.taken_branch_bubble as u64 * 100;
            }
            if !self.bp.predict_and_update(op.pc, op.taken) {
                deltas.branch_misses += 1;
                mispredicted = true;
                if !self.spec.out_of_order {
                    stall_centi += self.spec.branch_mispredict_penalty as u64 * 100;
                }
            }
        }

        // Memory handling.
        if let Some(mem) = &op.mem {
            let ev = self.mem.access(mem, before);
            deltas.l1d_access += ev.l1_accesses;
            deltas.l1d_miss += ev.l1_misses;
            deltas.l2_miss += ev.l2_misses;
            deltas.dram_bytes += ev.dram_bytes;
            let miss_raw = ev.stall_cycles * 100;
            stall_centi += if self.spec.out_of_order {
                // L1-hit latency is fully hidden by the scheduler; miss
                // latency partially overlaps.
                miss_raw / self.spec.ooo_mem_overlap as u64
            } else {
                miss_raw + ev.hit_cycles * 100 + self.spec.load_use_penalty as u64 * 100
            };
            // Strided vector memory ops occupy the memory unit longer.
            if mem.lanes > 1 && !mem.is_unit_stride() {
                stall_centi += self.spec.strided_lane_penalty_centi as u64 * mem.lanes as u64;
            }
        }

        // Advance the clock model.
        if self.spec.out_of_order {
            let unit = Unit::of(op.class);
            self.unit_busy[unit.index()] += inv_tp + stall_centi;
            self.slots += slot_cost;
            if mispredicted {
                // Pipeline restart: every accumulator jumps to the
                // mispredict resolution point.
                let floor = self.current_centi() + self.spec.branch_mispredict_penalty as u64 * 100;
                self.centi = self.centi.max(floor);
                for u in &mut self.unit_busy {
                    *u = (*u).max(floor);
                }
                self.slots = self.slots.max(floor);
            }
        } else {
            self.centi += inv_tp.max(slot_cost) + stall_centi;
        }

        false
    }

    /// Whether a straight-line superblock with the given shape —
    /// `machine_ops` total machine ops, `mem_refs` scalar (≤ 2-line)
    /// memory references, `branches` branch ops, `flops` architectural
    /// FLOPs, no vector memory ops — is guaranteed not to wrap any PMU
    /// counter, so the whole block may retire as one batched tick via
    /// [`Core::retire_block`].
    ///
    /// The probe compares a conservative event-total upper bound (three
    /// multiplies over per-unit bounds precomputed from the platform
    /// spec, plus the dynamic DRAM queue backlog when the block touches
    /// memory) against the PMU's distance-to-overflow watermark.
    /// `false` means a counter is near wrapping (or PMU batching is
    /// disabled): the caller must execute the block op by op through
    /// the ordinary retire path so the overflow interrupt is attributed
    /// to exactly the op that wraps — the same exactness rule the
    /// watermark enforces for single-op batching.
    #[inline]
    pub fn block_ready(
        &mut self,
        machine_ops: u32,
        mem_refs: u32,
        branches: u32,
        flops: u32,
    ) -> bool {
        let mut ub = machine_ops as u64 * self.block_op_ub
            + branches as u64 * self.block_branch_ub
            + flops as u64 * self.block_fp_ub
            + 16;
        if mem_refs > 0 {
            // Each scalar reference touches ≤ 2 lines; queue delay is
            // bounded by the current backlog plus the block's own lines
            // stacking up behind each other.
            let lines = 2 * mem_refs as u64;
            ub += mem_refs as u64 * self.block_mem_ub
                + lines
                    * (self.mem.backlog_cycles(self.current_centi()) + lines * self.block_occ_ub);
        }
        let mode = self.mode;
        self.pmu.batch_headroom(ub, mode)
    }

    /// Arm the deferred-retire accumulator for one superblock (resetting
    /// it in place — the full delta bundle is only cleared when the
    /// previous block dirtied it). Apply ops through
    /// [`Core::block_apply`] (or the specialized class/branch lanes) and
    /// commit with [`Core::retire_block`]; guard the block with
    /// [`Core::block_ready`] first.
    #[inline]
    pub fn block_begin_in(&self, acc: &mut BlockAcc) {
        acc.start_centi = self.current_centi();
        acc.instructions = 0;
        if acc.complex {
            acc.deltas = EventDeltas::default();
            acc.complex = false;
        }
    }

    /// Apply one op's timing/cache/branch effects now, accumulating its
    /// PMU event deltas into `acc` instead of ticking — the per-op half
    /// of [`Core::retire_block`]. Arithmetic-identical to
    /// [`Core::retire`] with the tick deferred.
    #[inline]
    pub fn block_apply(&mut self, op: &MachineOp, acc: &mut BlockAcc) {
        let instr_before = acc.deltas.instructions;
        let simple = self.apply_op(op, &mut acc.deltas);
        if simple {
            // A simple op's only event is its instruction count: move it
            // to the scalar lane so the accumulator keeps the
            // `!complex ⇒ deltas all-zero` invariant — the simple tick
            // path in `retire_block` reads only `acc.instructions`, and
            // the lazily-reset delta bundle must stay clean.
            acc.instructions += acc.deltas.instructions - instr_before;
            acc.deltas.instructions = instr_before;
        } else {
            acc.complex = true;
        }
    }

    /// [`Core::block_apply`] for one memory-free, branch-free,
    /// FLOP-free, scalar class, skipping `MachineOp` construction.
    ///
    /// This and [`Core::block_apply_branch`] intentionally duplicate
    /// `Core::apply_op`'s timing arithmetic (its slim path and its
    /// branch handling): skipping `MachineOp` construction and the full
    /// `EventDeltas` bundle is what makes the in-block lanes cheap. A
    /// timing change in `apply_op` must be mirrored here — the
    /// `block_retire_matches_per_op_retire` test pins all three sites to
    /// per-op behaviour on every platform model.
    #[inline]
    pub fn block_apply_class(&mut self, class: OpClass, acc: &mut BlockAcc) {
        let expansion = self.isa.expand(class);
        let inv_tp = self.spec.timing.inv_tp(class);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;
        if self.spec.out_of_order {
            self.unit_busy[Unit::of(class).index()] += inv_tp;
            self.slots += slot_cost;
        } else {
            self.centi += inv_tp.max(slot_cost);
        }
        self.retired += expansion as u64;
        acc.instructions += expansion as u64;
    }

    /// [`Core::block_apply_class`] over a class slice.
    #[inline]
    pub fn block_apply_classes(&mut self, classes: &[OpClass], acc: &mut BlockAcc) {
        for &class in classes {
            self.block_apply_class(class, acc);
        }
    }

    /// [`Core::block_apply`] for one branch at `pc` with outcome
    /// `taken` (mirrors `apply_op`'s branch handling; see
    /// [`Core::block_apply_class`] for the duplication contract).
    #[inline]
    pub fn block_apply_branch(&mut self, pc: u64, taken: bool, acc: &mut BlockAcc) {
        let expansion = self.isa.expand(OpClass::Branch);
        let inv_tp = self.spec.timing.inv_tp(OpClass::Branch);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;
        let mut stall_centi = 0u64;
        let mut mispredicted = false;
        acc.deltas.branches += 1;
        acc.complex = true;
        if taken {
            stall_centi += self.spec.taken_branch_bubble as u64 * 100;
        }
        if !self.bp.predict_and_update(pc, taken) {
            acc.deltas.branch_misses += 1;
            mispredicted = true;
            if !self.spec.out_of_order {
                stall_centi += self.spec.branch_mispredict_penalty as u64 * 100;
            }
        }
        if self.spec.out_of_order {
            self.unit_busy[Unit::of(OpClass::Branch).index()] += inv_tp + stall_centi;
            self.slots += slot_cost;
            if mispredicted {
                let floor = self.current_centi() + self.spec.branch_mispredict_penalty as u64 * 100;
                self.centi = self.centi.max(floor);
                for u in &mut self.unit_busy {
                    *u = (*u).max(floor);
                }
                self.slots = self.slots.max(floor);
            }
        } else {
            self.centi += inv_tp.max(slot_cost) + stall_centi;
        }
        self.retired += expansion as u64;
        acc.deltas.instructions += expansion as u64;
    }

    /// Commit one superblock: tick the PMU once with the accumulated
    /// event deltas (per-op cycle deltas telescope into `now − start`).
    /// Under the [`Core::block_ready`] guard the combined tick cannot
    /// wrap a counter, so skipping the per-op ticks is observably exact;
    /// committing a *partial* block (a trap landed mid-block, after some
    /// ops applied) is exact for the same reason — counters are additive
    /// and the partial bound is below the full block's. The accumulator
    /// is left dirty; the next [`Core::block_begin_in`] resets it.
    pub fn retire_block(&mut self, acc: &mut BlockAcc) -> RetireInfo {
        let cycles = self.current_centi() / 100 - acc.start_centi / 100;
        let instructions;
        let overflow = if acc.complex {
            acc.deltas.cycles = cycles;
            acc.deltas.instructions += acc.instructions;
            instructions = acc.deltas.instructions;
            self.pmu.tick_batched(&acc.deltas, self.mode)
        } else {
            instructions = acc.instructions;
            self.pmu
                .tick_batched_simple(cycles, instructions, self.mode)
        };
        debug_assert_eq!(overflow, 0, "guard retire_block with block_ready");
        RetireInfo {
            cycles,
            instructions,
            overflow,
        }
    }

    /// Upper bound on the per-line DRAM channel occupancy in cycles.
    fn dram_occupancy_bound(caches: &crate::cache::CacheConfig) -> u64 {
        (crate::cache::LINE_BYTES as f64 / caches.dram_bytes_per_cycle) as u64 + 1
    }

    /// Advance the clock without retiring an instruction (idle cycles,
    /// e.g. while firmware "executes" conceptually).
    pub fn idle(&mut self, cycles: u64) -> u32 {
        let before = self.current_centi();
        if self.spec.out_of_order {
            let target = before + cycles * 100;
            self.centi = self.centi.max(target);
        } else {
            self.centi += cycles * 100;
        }
        let after = self.current_centi();
        let deltas = EventDeltas {
            cycles: after / 100 - before / 100,
            ..EventDeltas::default()
        };
        self.pmu.tick_batched(&deltas, self.mode)
    }
}

/// Conservative per-machine-op event bound for superblock retire:
/// worst-case whole cycles plus instruction *and* vector-instruction
/// events at maximum ISA expansion. FLOP, branch, and memory events are
/// bounded separately per unit by [`Core::block_ready`].
fn block_op_ub(spec: &PlatformSpec, isa: &IsaModel, slot_unit: u64) -> u64 {
    let max_exp = isa.max_expansion();
    let per_op_cycles = (spec.timing.max_inv_tp() + slot_unit * max_exp) / 100 + 1;
    per_op_cycles + 2 * max_exp
}

/// Conservative extra events per scalar (≤ 2-line) memory reference in a
/// superblock, excluding the dynamic DRAM queue backlog: per line the
/// full hit/miss latency chain plus an access/miss/L2-miss event and
/// `LINE_BYTES` of DRAM traffic.
fn block_mem_ub(spec: &PlatformSpec) -> u64 {
    let caches = &spec.caches;
    let line_cycles = caches.l1d.latency as u64
        + caches.l2.latency as u64
        + caches.dram_latency as u64
        + Core::dram_occupancy_bound(caches)
        + 1;
    2 * (line_cycles + 3 + crate::cache::LINE_BYTES) + spec.load_use_penalty as u64
}

/// Conservative extra events per branch in a superblock: taken-fetch
/// bubble plus the mispredict penalty (twice, covering both the in-order
/// stall and the out-of-order pipeline-restart floor) plus the branch
/// and branch-miss events.
fn block_branch_ub(spec: &PlatformSpec) -> u64 {
    spec.taken_branch_bubble as u64 + 2 * spec.branch_mispredict_penalty as u64 + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_op::MemRef;
    use crate::platform::PlatformSpec;

    fn x60() -> Core {
        Core::new(PlatformSpec::x60())
    }

    fn i5() -> Core {
        Core::new(PlatformSpec::i5_1135g7())
    }

    #[test]
    fn retiring_advances_cycles_and_instret() {
        let mut c = x60();
        for i in 0..100 {
            c.retire(&MachineOp::simple(OpClass::IntAlu, i));
        }
        assert_eq!(c.instructions(), 100);
        // Dual-issue: 100 ALU ops ≈ 50 cycles.
        assert!(c.cycles() >= 50 && c.cycles() <= 60, "{}", c.cycles());
        assert_eq!(c.pmu().read(crate::pmu::COUNTER_INSTRET), 100);
        assert_eq!(c.pmu().read(crate::pmu::COUNTER_CYCLE), c.cycles());
    }

    #[test]
    fn ooo_overlaps_int_and_fp_work() {
        let mut c = i5();
        // Interleave 1000 int + 1000 fp ops: with separate units the total
        // should be far less than the sum of both streams serialized.
        for i in 0..1000 {
            c.retire(&MachineOp::simple(OpClass::IntAlu, i));
            c.retire(&MachineOp::simple(OpClass::FpFma, i).with_flops(2));
        }
        // Int: 1000*0.25c = 250c; Fp: 1000*0.5c = 500c; slots: 2000*?/5.
        // x86 IntAlu expands 2.5x -> slots dominate: ~(2500+1000)*20 = 700c.
        let cyc = c.cycles();
        assert!(cyc < 900, "OoO should overlap units: {cyc}");
        assert!(cyc >= 500, "bounded below by the FP stream: {cyc}");
    }

    #[test]
    fn in_order_serializes() {
        let mut c = x60();
        for i in 0..1000 {
            c.retire(&MachineOp::simple(OpClass::IntAlu, i));
            c.retire(&MachineOp::simple(OpClass::FpFma, i).with_flops(2));
        }
        // In-order: 1000*(0.5) + 1000*(1.0) = 1500 cycles.
        let cyc = c.cycles();
        assert!((1480..=1550).contains(&cyc), "{cyc}");
    }

    #[test]
    fn branch_misses_cost_cycles() {
        let mut c = x60();
        let mut x: u64 = 12345;
        for i in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            let op = MachineOp::simple(OpClass::Branch, 0x40).with_taken(x & 1 == 0);
            c.retire(&op);
            let _ = i;
        }
        let cycles_random = c.cycles();

        let mut c2 = x60();
        for _ in 0..2000 {
            c2.retire(&MachineOp::simple(OpClass::Branch, 0x40).with_taken(true));
        }
        let cycles_predictable = c2.cycles();
        assert!(
            cycles_random > cycles_predictable * 3,
            "mispredicts must hurt: {cycles_random} vs {cycles_predictable}"
        );
        assert!(c.pmu().read(3) == 0, "hpm3 unprogrammed stays 0");
    }

    #[test]
    fn memory_misses_count_and_stall() {
        let mut c = x60();
        // Stream over 1 MiB: mostly misses.
        for i in 0..4096u64 {
            let op =
                MachineOp::simple(OpClass::Load, i).with_mem(MemRef::scalar(i * 256, 8, false));
            c.retire(&op);
        }
        let (acc, miss) = c.mem().l1d_stats();
        assert_eq!(acc, 4096);
        assert!(miss > 4000, "strided stream misses: {miss}");
        // Cycles dominated by memory stalls, far above 4096 * 1c.
        assert!(c.cycles() > 100_000, "{}", c.cycles());
    }

    #[test]
    fn mode_cycles_accumulate_by_mode() {
        let mut c = x60();
        let ev = crate::events::HwEvent::UModeCycles;
        c.pmu_mut().set_event(3, Some(ev));
        c.retire(&MachineOp::simple(OpClass::IntAlu, 0));
        c.retire(&MachineOp::simple(OpClass::IntAlu, 1));
        let u_cycles = c.pmu().read(3);
        c.set_mode(PrivMode::Machine);
        c.idle(100);
        assert_eq!(c.pmu().read(3), u_cycles, "frozen while in M-mode");
        assert_eq!(c.pmu().read(0), u_cycles + 100, "mcycle keeps counting");
    }

    #[test]
    fn overflow_interrupt_plumbs_through_retire() {
        let mut c = x60();
        c.pmu_mut()
            .set_event(3, Some(crate::events::HwEvent::UModeCycles));
        c.pmu_mut().set_irq_enable(3, true);
        c.pmu_mut().write(3, (-50i64) as u64);
        let mut fired = false;
        for i in 0..200 {
            let info = c.retire(&MachineOp::simple(OpClass::IntAlu, i));
            if info.overflow & (1 << 3) != 0 {
                fired = true;
                break;
            }
        }
        assert!(fired, "u_mode_cycle overflow must fire");
    }

    #[test]
    fn isa_expansion_differs_between_platforms() {
        let mut rv = x60();
        let mut x86 = i5();
        for i in 0..800 {
            rv.retire(&MachineOp::simple(OpClass::IntAlu, i));
            x86.retire(&MachineOp::simple(OpClass::IntAlu, i));
            rv.retire(&MachineOp::simple(OpClass::AddrCalc, i));
            x86.retire(&MachineOp::simple(OpClass::AddrCalc, i));
        }
        // RISC-V: 1600 instructions. x86: 800*2.5 + 0 = 2000.
        assert_eq!(rv.instructions(), 1600);
        assert_eq!(x86.instructions(), 2000);
    }

    /// Regression test: flop-less vector ops (integer VecAlu, Splat and
    /// integer Reduce via VecShuffle) must still count vec-instruction
    /// events — the scalar retire fast path once swallowed them.
    #[test]
    fn flopless_vector_ops_count_vec_instructions() {
        let mut c = x60();
        c.pmu_mut()
            .set_event(3, Some(crate::events::HwEvent::VecInstructions));
        for i in 0..10 {
            c.retire(&MachineOp::simple(OpClass::VecShuffle, i));
            c.retire(&MachineOp::simple(OpClass::VecAlu, i));
        }
        assert_eq!(c.pmu().read(3), 20, "vector ops without flops must count");
    }

    /// Superblock retire (`block_begin`/`block_apply*`/`retire_block`)
    /// must be arithmetic-identical to per-op retire: cycles,
    /// instructions, PMU counters, cache stats, and predictor state all
    /// agree on every platform model, for blocks mixing ALU, memory,
    /// FLOP, and branch ops applied through every lane of the API.
    #[test]
    fn block_retire_matches_per_op_retire() {
        for spec in [
            PlatformSpec::x60(),
            PlatformSpec::c910(),
            PlatformSpec::u74(),
            PlatformSpec::i5_1135g7(),
        ] {
            let mut blocked = Core::new(spec.clone());
            let mut serial = Core::new(spec.clone());
            for c in [&mut blocked, &mut serial] {
                c.pmu_mut()
                    .set_event(3, Some(crate::events::HwEvent::L1dMiss));
            }
            let mut x: u64 = 0xdead_beef;
            let mut acc = BlockAcc::default();
            for i in 0..3_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                let ops: Vec<MachineOp> = match x % 3 {
                    0 => vec![
                        MachineOp::simple(OpClass::IntAlu, i % 64),
                        MachineOp::simple(OpClass::AddrCalc, i % 64 + 1),
                        MachineOp::simple(OpClass::Load, i % 64 + 2).with_mem(MemRef::scalar(
                            0x4000 + (x % 2048) * 8,
                            8,
                            false,
                        )),
                        MachineOp::simple(OpClass::Move, i % 64 + 3),
                    ],
                    1 => vec![
                        MachineOp::simple(OpClass::FpFma, i % 64).with_flops(2),
                        MachineOp::simple(OpClass::IntMul, i % 64 + 1),
                        MachineOp::simple(OpClass::Branch, i % 64 + 2).with_taken(x & 2 == 0),
                    ],
                    _ => vec![
                        MachineOp::simple(OpClass::IntAlu, i % 64),
                        MachineOp::simple(OpClass::IntAlu, i % 64 + 1),
                        MachineOp::simple(OpClass::Move, i % 64 + 2),
                    ],
                };
                let mem_refs = ops.iter().filter(|o| o.mem.is_some()).count() as u32;
                let branches = ops
                    .iter()
                    .filter(|o| matches!(o.class, OpClass::Branch))
                    .count() as u32;
                let flops: u32 = ops.iter().map(|o| o.flops).sum();
                assert!(blocked.block_ready(ops.len() as u32, mem_refs, branches, flops));
                blocked.block_begin_in(&mut acc);
                for op in &ops {
                    // Exercise all three apply lanes.
                    if matches!(op.class, OpClass::Branch) {
                        blocked.block_apply_branch(op.pc, op.taken, &mut acc);
                    } else if op.mem.is_none() && op.flops == 0 && x.is_multiple_of(2) {
                        blocked.block_apply_class(op.class, &mut acc);
                    } else {
                        blocked.block_apply(op, &mut acc);
                    }
                }
                let info = blocked.retire_block(&mut acc);
                assert_eq!(info.overflow, 0);
                for op in &ops {
                    serial.retire(op);
                }
                assert_eq!(blocked.cycles(), serial.cycles(), "{} step {i}", spec.name);
                // PMU counters must agree after *every* block commit —
                // an instruction-event leak between the simple and
                // complex tick lanes once cancelled out across blocks
                // and survived the end-of-run comparison below.
                for idx in [0usize, 2, 3] {
                    assert_eq!(
                        blocked.pmu().read(idx),
                        serial.pmu().read(idx),
                        "{} counter {idx} at step {i}",
                        spec.name
                    );
                }
            }
            assert_eq!(
                blocked.instructions(),
                serial.instructions(),
                "{}",
                spec.name
            );
            for idx in 0..crate::pmu::NUM_COUNTERS {
                assert_eq!(
                    blocked.pmu().read(idx),
                    serial.pmu().read(idx),
                    "{} counter {idx}",
                    spec.name
                );
            }
            assert_eq!(blocked.mem().l1d_stats(), serial.mem().l1d_stats());
            assert_eq!(blocked.mem().l2_stats(), serial.mem().l2_stats());
        }
    }

    /// Near a programmed overflow, `block_ready` must refuse the block so
    /// the caller degrades to per-op retire (exact overflow
    /// attribution); with PMU batching disabled it always refuses.
    #[test]
    fn block_ready_refuses_near_overflow() {
        let mut c = x60();
        c.pmu_mut()
            .set_event(3, Some(crate::events::HwEvent::CpuCycles));
        c.pmu_mut().set_irq_enable(3, true);
        c.pmu_mut().write(3, (-8i64) as u64);
        assert!(!c.block_ready(6, 1, 1, 2));
        c.pmu_mut().write(3, (-10_000_000i64) as u64);
        assert!(c.block_ready(6, 1, 1, 2));
        c.set_pmu_batching(false);
        assert!(!c.block_ready(6, 1, 1, 2));
    }

    /// Regression test: a block containing only *simple* ops applied
    /// through the general `block_apply` lane (not the class lane) must
    /// still tick their instruction events — `apply_op` records them in
    /// the delta bundle, and `block_apply` has to move them to the
    /// scalar lane the simple commit path reads, or they are silently
    /// dropped (and the stale bundle later double-ticks in a complex
    /// block).
    #[test]
    fn block_apply_simple_ops_keep_instruction_events() {
        let mut blocked = x60();
        let mut serial = x60();
        let mut acc = BlockAcc::default();
        blocked.block_begin_in(&mut acc);
        for pc in 0..2u64 {
            blocked.block_apply(&MachineOp::simple(OpClass::IntAlu, pc), &mut acc);
            serial.retire(&MachineOp::simple(OpClass::IntAlu, pc));
        }
        blocked.retire_block(&mut acc);
        assert_eq!(blocked.pmu().read(2), serial.pmu().read(2), "instret");
        assert_eq!(blocked.pmu().read(0), serial.pmu().read(0), "cycles");
    }

    #[test]
    fn idle_advances_clock_only() {
        let mut c = x60();
        c.idle(500);
        assert_eq!(c.cycles(), 500);
        assert_eq!(c.instructions(), 0);
    }
}
