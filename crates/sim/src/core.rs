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
/// a counter, or arm it with [`Core::block_begin_exact_in`] and check
/// [`Core::block_crossed`] after every op (exact near-wrap mode).
#[derive(Debug, Clone, Default)]
pub struct BlockAcc {
    /// Whole committed cycles at block entry (or at the last exact-mode
    /// commit).
    start_cycles: u64,
    /// Instruction events from the scalar class lanes
    /// ([`Core::block_apply_class`]/[`Core::block_apply_classes`]) — the
    /// dominant case, kept out of the full [`EventDeltas`] bundle so an
    /// all-ALU block touches two words, not twelve.
    instructions: u64,
    /// Whether any applied op carried events beyond cycles/instructions
    /// (memory, branch, FP, vector) — selects the PMU tick lane, and
    /// marks `deltas` and `events` dirty (reset lazily by
    /// [`Core::block_begin_in`]).
    complex: bool,
    deltas: EventDeltas,
    /// Running sum of every event in `deltas` (cycles are added at
    /// commit), so the exact-mode crossing check never re-sums the
    /// bundle.
    events: u64,
    /// Exact near-wrap mode: the events the PMU batch could still
    /// absorb when the accumulator was armed (see
    /// [`Core::block_begin_exact_in`]).
    budget: u64,
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
    /// Commit time in centi-cycles, on both models: the in-order
    /// accumulator, and on the out-of-order model the maximum of
    /// `unit_busy` and `slots`, raised by [`Core::charge`] as they grow.
    centi: u64,
    /// Out-of-order per-unit occupancy accumulators (centi-cycles).
    unit_busy: [u64; Unit::COUNT],
    /// Out-of-order issue-slot accumulator (centi-cycles).
    slots: u64,
    retired: u64,
    /// Centi-cycles one issue slot costs (`100 / issue_width`, floored at
    /// 1) — precomputed off the retire path.
    slot_unit: u64,
    /// Per-unit conservative event bounds for superblock retire
    /// ([`Core::block_ready`]): events+cycles per machine op, …
    block_op_ub: u64,
    /// … extra per ≤ 2-line memory reference (static part; the DRAM
    /// queue backlog is added dynamically), …
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
        self.centi / 100
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

    /// Retire one machine op: advance time, count events, tick the PMU.
    #[inline]
    pub fn retire(&mut self, op: &MachineOp) -> RetireInfo {
        // The dominant op shape takes a slimmer path that skips the full
        // event bundle; identical arithmetic.
        if is_slim(op) {
            return self.retire_simple(op);
        }
        self.retire_full(op)
    }

    /// Fast path for non-memory, non-branch, non-FP ops.
    fn retire_simple(&mut self, op: &MachineOp) -> RetireInfo {
        let before = self.centi;
        let instructions = self.charge(op.class, 0, false);
        let cycles = self.centi / 100 - before / 100;
        let overflow = self
            .pmu
            .tick_batched_simple(cycles, instructions, self.mode);
        RetireInfo {
            cycles,
            instructions,
            overflow,
        }
    }

    fn retire_full(&mut self, op: &MachineOp) -> RetireInfo {
        let before = self.centi;
        let mut deltas = EventDeltas::default();
        self.apply_full(op, &mut deltas);
        deltas.cycles = self.centi / 100 - before / 100;
        let overflow = self.pmu.tick_batched(&deltas, self.mode);
        RetireInfo {
            cycles: deltas.cycles,
            instructions: deltas.instructions,
            overflow,
        }
    }

    /// Charge one op of `class` to the clock model and return its
    /// retired instruction count: the ISA expansion, the class's inverse
    /// throughput and its issue slots, plus `stall_centi` of extra
    /// occupancy. On the out-of-order model the commit time `centi` is
    /// raised to the grown unit and slot accumulators, so it stays their
    /// maximum and reading it costs nothing. A mispredict serializes the
    /// whole pipeline: on the out-of-order model it becomes a floor on
    /// commit time rather than occupancy on one unit (the in-order stall
    /// is already in `stall_centi`). The one copy of the retire timing
    /// rule — every retire lane (per op, slim, block class and block
    /// branch) calls it.
    #[inline(always)]
    fn charge(&mut self, class: OpClass, stall_centi: u64, mispredicted: bool) -> u64 {
        let expansion = self.isa.expand(class) as u64;
        let inv_tp = self.spec.timing.inv_tp(class);
        let slot_cost = self.slot_unit * expansion.max(1);
        if self.spec.out_of_order {
            let unit = &mut self.unit_busy[Unit::of(class).index()];
            *unit += inv_tp + stall_centi;
            self.slots += slot_cost;
            self.centi = self.centi.max(*unit).max(self.slots);
            if mispredicted {
                // Pipeline restart: every accumulator jumps to the
                // mispredict resolution point, which lies past the
                // commit time and so past all of them.
                let floor = self.centi + self.spec.branch_mispredict_penalty as u64 * 100;
                self.centi = floor;
                self.unit_busy = [floor; Unit::COUNT];
                self.slots = floor;
            }
        } else {
            self.centi += inv_tp.max(slot_cost) + stall_centi;
        }
        self.retired += expansion;
        expansion
    }

    /// Resolve one branch at `pc`: update the predictor and count the
    /// branch (and any miss) into `deltas`. Returns the stall to charge
    /// (the taken-fetch bubble, plus the mispredict penalty on in-order
    /// cores) and whether it mispredicted, for [`Core::charge`].
    #[inline(always)]
    fn resolve_branch(&mut self, pc: u64, taken: bool, deltas: &mut EventDeltas) -> (u64, bool) {
        deltas.branches += 1;
        let mut stall_centi = 0u64;
        if taken {
            stall_centi += self.spec.taken_branch_bubble as u64 * 100;
        }
        let mispredicted = !self.bp.predict_and_update(pc, taken);
        if mispredicted {
            deltas.branch_misses += 1;
            if !self.spec.out_of_order {
                stall_centi += self.spec.branch_mispredict_penalty as u64 * 100;
            }
        }
        (stall_centi, mispredicted)
    }

    /// The tick-free, cycle-free body of one retire of a non-slim op
    /// (see [`is_slim`]; a slim op's body is one [`Core::charge`]):
    /// advance the timing model, drive caches and branch prediction, and
    /// *accumulate* this op's non-cycle event deltas into `deltas` —
    /// without touching the PMU. Returns the sum of the events it added.
    /// Applying N ops in order and computing the cycle delta once is
    /// exactly N per-op retires: per-op cycle deltas telescope
    /// (`Σ (afterᵢ − beforeᵢ) = after_N − before_0`) and event counts are
    /// additive — the foundation of [`Core::retire_block`].
    #[inline]
    fn apply_full(&mut self, op: &MachineOp, deltas: &mut EventDeltas) -> u64 {
        let before = self.centi;
        let mut events = 0;
        if op.flops != 0 {
            // The PMU event applies the platform's overcount model
            // (speculation, masked lanes); see `fp_event_percent`.
            let fp_ops = op.flops as u64 * self.spec.fp_event_percent as u64 / 100;
            deltas.fp_ops += fp_ops;
            events += fp_ops;
        }

        let (mut stall_centi, mispredicted) = if matches!(op.class, OpClass::Branch) {
            let resolved = self.resolve_branch(op.pc, op.taken, deltas);
            events += 1 + resolved.1 as u64;
            resolved
        } else {
            (0, false)
        };

        // Memory handling.
        if let Some(mem) = &op.mem {
            let ev = self.mem.access(mem, before);
            deltas.l1d_access += ev.l1_accesses;
            deltas.l1d_miss += ev.l1_misses;
            deltas.l2_miss += ev.l2_misses;
            deltas.dram_bytes += ev.dram_bytes;
            events += ev.l1_accesses + ev.l1_misses + ev.l2_misses + ev.dram_bytes;
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

        let expansion = self.charge(op.class, stall_centi, mispredicted);
        deltas.instructions += expansion;
        events += expansion;
        if op.is_vector() {
            deltas.vec_instructions += expansion;
            events += expansion;
        }
        events
    }

    /// Whether a straight-line superblock with the given shape —
    /// `machine_ops` total machine ops, `mem_refs` ≤ 2-line references
    /// (scalar, or unit-stride vector of at most 64 bytes: no
    /// strided-lane penalty, and the vector-instruction event is inside
    /// the per-op bound), `branches` branch ops, `flops` architectural
    /// FLOPs — is guaranteed not to wrap any PMU counter, so the whole
    /// block may retire as one batched tick via [`Core::retire_block`].
    ///
    /// The probe compares a conservative event-total upper bound (three
    /// multiplies over per-unit bounds precomputed from the platform
    /// spec, plus the dynamic DRAM queue backlog when the block touches
    /// memory) against the PMU's remaining batch budget
    /// ([`Pmu::batch_budget`]). `false` means a counter is near wrapping
    /// (or PMU batching is disabled, which leaves no budget): the
    /// overflow interrupt must then be attributed to exactly the op that
    /// wraps — the same exactness rule the watermark enforces for
    /// single-op batching. The caller either runs the block in exact
    /// near-wrap mode ([`Core::block_begin_exact_in`], when every slot
    /// retires one machine op) or op by op through the ordinary retire
    /// path.
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
            // Each reference touches ≤ 2 lines; queue delay is
            // bounded by the current backlog plus the block's own lines
            // stacking up behind each other.
            let lines = 2 * mem_refs as u64;
            ub += mem_refs as u64 * self.block_mem_ub
                + lines * (self.mem.backlog_cycles(self.centi) + lines * self.block_occ_ub);
        }
        let mode = self.mode;
        ub <= self.pmu.batch_budget(mode)
    }

    /// Arm the deferred-retire accumulator for one superblock (resetting
    /// it in place — the full delta bundle is only cleared when the
    /// previous block dirtied it). Apply ops through
    /// [`Core::block_apply`] (or the specialized class/branch lanes) and
    /// commit with [`Core::retire_block`]; guard the block with
    /// [`Core::block_ready`] first.
    #[inline]
    pub fn block_begin_in(&self, acc: &mut BlockAcc) {
        acc.start_cycles = self.centi / 100;
        acc.instructions = 0;
        if acc.complex {
            acc.deltas = EventDeltas::default();
            acc.events = 0;
            acc.complex = false;
        }
    }

    /// [`Core::block_begin_in`] for exact near-wrap mode, which runs a
    /// block [`Core::block_ready`] refused on the deferred-tick path
    /// anyway: it also normalizes the PMU batch the way the next per-op
    /// tick would (observably transparent) and stores the batch's
    /// remaining event budget in `acc`. The caller checks
    /// [`Core::block_crossed`] after every op, and at the first op that
    /// crosses commits the prefix with [`Core::retire_block`], delivers
    /// any overflow at that op, and re-arms with this call. Per-op
    /// retire would accumulate exactly that prefix and tick the crossing
    /// op alone; no counter can wrap before it, so the one combined tick
    /// leaves the same counters and fires the same mask. Every op must
    /// be a check point: a slot retiring several machine ops cannot run
    /// in this mode.
    #[inline]
    pub fn block_begin_exact_in(&mut self, acc: &mut BlockAcc) {
        self.block_begin_in(acc);
        let mode = self.mode;
        acc.budget = self.pmu.batch_budget(mode);
    }

    /// Whether the ops applied since `acc` was armed by
    /// [`Core::block_begin_exact_in`] carry more events than its budget
    /// — exactly when the per-op path would have ticked the last of them
    /// individually. Events are the whole cycles since arming plus the
    /// accumulated instruction and complex-event totals, the sum
    /// [`Core::retire_block`] ticks.
    #[inline]
    pub fn block_crossed(&self, acc: &BlockAcc) -> bool {
        self.centi / 100 - acc.start_cycles + acc.instructions + acc.events > acc.budget
    }

    /// Apply one op's timing/cache/branch effects now, accumulating its
    /// PMU event deltas into `acc` instead of ticking — the per-op half
    /// of [`Core::retire_block`]. Arithmetic-identical to
    /// [`Core::retire`] with the tick deferred.
    #[inline]
    pub fn block_apply(&mut self, op: &MachineOp, acc: &mut BlockAcc) {
        if is_slim(op) {
            // A slim op's only event is its instruction count, which goes
            // to the scalar lane: the accumulator keeps the `!complex ⇒
            // deltas all-zero` invariant the simple tick path in
            // `retire_block` and the lazy reset rely on.
            self.block_apply_class(op.class, acc);
        } else {
            acc.complex = true;
            acc.events += self.apply_full(op, &mut acc.deltas);
        }
    }

    /// [`Core::block_apply`] for one memory-free, branch-free,
    /// FLOP-free, scalar class, skipping `MachineOp` construction and
    /// the full `EventDeltas` bundle.
    #[inline]
    pub fn block_apply_class(&mut self, class: OpClass, acc: &mut BlockAcc) {
        acc.instructions += self.charge(class, 0, false);
    }

    /// [`Core::block_apply_class`] over a class slice.
    #[inline]
    pub fn block_apply_classes(&mut self, classes: &[OpClass], acc: &mut BlockAcc) {
        for &class in classes {
            self.block_apply_class(class, acc);
        }
    }

    /// [`Core::block_apply`] for one branch at `pc` with outcome
    /// `taken`, skipping `MachineOp` construction.
    #[inline]
    pub fn block_apply_branch(&mut self, pc: u64, taken: bool, acc: &mut BlockAcc) {
        let (stall_centi, mispredicted) = self.resolve_branch(pc, taken, &mut acc.deltas);
        acc.complex = true;
        let expansion = self.charge(OpClass::Branch, stall_centi, mispredicted);
        acc.deltas.instructions += expansion;
        acc.events += 1 + mispredicted as u64 + expansion;
    }

    /// Commit one superblock: tick the PMU once with the accumulated
    /// event deltas (per-op cycle deltas telescope into `now − start`).
    /// Under the [`Core::block_ready`] guard the combined tick cannot
    /// wrap a counter, unless the caller checks per op
    /// ([`Core::block_crossed`]), and then only at the crossing op, where
    /// the per-op tick would wrap it too. So skipping the per-op ticks
    /// is observably exact; committing a *partial* block (a trap landed
    /// mid-block, after some ops applied) is exact for the same reason —
    /// counters are additive and the partial bound is below the full
    /// block's. The accumulator is left dirty; the next
    /// [`Core::block_begin_in`] resets it.
    pub fn retire_block(&mut self, acc: &mut BlockAcc) -> RetireInfo {
        let cycles = self.centi / 100 - acc.start_cycles;
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
        self.centi += cycles * 100;
        let deltas = EventDeltas {
            cycles,
            ..EventDeltas::default()
        };
        self.pmu.tick_batched(&deltas, self.mode)
    }
}

/// Whether `op` retires on the slim path: a scalar ALU/move/addr/call
/// class with no memory reference, no branch bookkeeping, no FLOPs and
/// no vec-instruction event — the dominant shape, whose only events are
/// its cycles and instructions.
#[inline(always)]
fn is_slim(op: &MachineOp) -> bool {
    op.mem.is_none() && op.flops == 0 && !matches!(op.class, OpClass::Branch) && !op.is_vector()
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

/// Conservative extra events per ≤ 2-line memory reference in a
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

    /// One seeded op group of single-machine-op slots: ALU, scalar and
    /// unit-stride vector memory (32 and 64 bytes at 16-byte offsets:
    /// some line-aligned, some straddling), FLOP and branch ops.
    fn mixed_group(i: u64, x: u64) -> Vec<MachineOp> {
        match x % 4 {
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
            2 => vec![
                MachineOp::simple(OpClass::VecLoad, i % 64).with_mem(MemRef {
                    addr: 0x8000 + (x % 1024) * 16,
                    bytes: 8,
                    lanes: 4,
                    stride: 8,
                    is_store: false,
                }),
                MachineOp::simple(OpClass::VecFma, i % 64 + 1).with_flops(8),
                MachineOp::simple(OpClass::VecStore, i % 64 + 2).with_mem(MemRef {
                    addr: 0x4000 + (x % 512) * 16,
                    bytes: 4,
                    lanes: 16,
                    stride: 4,
                    is_store: true,
                }),
            ],
            _ => vec![
                MachineOp::simple(OpClass::IntAlu, i % 64),
                MachineOp::simple(OpClass::IntAlu, i % 64 + 1),
                MachineOp::simple(OpClass::Move, i % 64 + 2),
            ],
        }
    }

    /// [`Core::block_ready`] over a group's shape.
    fn group_ready(core: &mut Core, ops: &[MachineOp]) -> bool {
        let mem_refs = ops.iter().filter(|o| o.mem.is_some()).count() as u32;
        let branches = ops
            .iter()
            .filter(|o| matches!(o.class, OpClass::Branch))
            .count() as u32;
        let flops: u32 = ops.iter().map(|o| o.flops).sum();
        core.block_ready(ops.len() as u32, mem_refs, branches, flops)
    }

    /// Apply one op into `acc`, exercising all three apply lanes (the
    /// class lane for slim ops when `x` is even).
    fn apply_lane(core: &mut Core, op: &MachineOp, x: u64, acc: &mut BlockAcc) {
        if matches!(op.class, OpClass::Branch) {
            core.block_apply_branch(op.pc, op.taken, acc);
        } else if op.mem.is_none() && op.flops == 0 && x.is_multiple_of(2) {
            core.block_apply_class(op.class, acc);
        } else {
            core.block_apply(op, acc);
        }
    }

    /// Superblock retire (`block_begin`/`block_apply*`/`retire_block`)
    /// must be arithmetic-identical to per-op retire: cycles,
    /// instructions, PMU counters, cache stats, and predictor state all
    /// agree on every platform model, for blocks mixing ALU, scalar and
    /// unit-stride vector memory, FLOP, and branch ops applied through
    /// every lane of the API.
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
                c.pmu_mut()
                    .set_event(4, Some(crate::events::HwEvent::VecInstructions));
            }
            let mut x: u64 = 0xdead_beef;
            let mut acc = BlockAcc::default();
            for i in 0..3_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                let ops = mixed_group(i, x);
                assert!(group_ready(&mut blocked, &ops));
                blocked.block_begin_in(&mut acc);
                for op in &ops {
                    apply_lane(&mut blocked, op, x, &mut acc);
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
                for idx in [0usize, 2, 3, 4] {
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

    /// Exact near-wrap mode fires where per-op retire fires. Cycles and
    /// instructions counters sample with overflow interrupts at periods
    /// of 300–2,000 events, so most groups start near a wrap. One core
    /// drives each group the way the VM does: guarded by `block_ready`
    /// when it holds, otherwise armed with `block_begin_exact_in`,
    /// committed at the first op `block_crossed` flags and re-armed. The
    /// other retires op by op. Both run the same handler on every fire:
    /// re-arm with `pmu_mut().write`, then `idle(250)` in supervisor
    /// mode (re-arming a counter those cycles wrap too, so both counters
    /// keep firing). Fires must come after the same op with the same
    /// masks, and cycles and counters must agree after every group, on
    /// every platform model.
    #[test]
    fn exact_block_commits_fire_where_per_op_retire_fires() {
        use crate::events::HwEvent;
        let handler = |c: &mut Core, mask: u32, periods: &[(usize, u64); 2]| -> u32 {
            c.set_mode(PrivMode::Supervisor);
            let rearm = |c: &mut Core, mask: u32| {
                for &(idx, period) in periods {
                    if mask >> idx & 1 == 1 {
                        c.pmu_mut().write(idx, period.wrapping_neg());
                    }
                }
            };
            rearm(c, mask);
            let nested = c.idle(250);
            rearm(c, nested);
            c.set_mode(PrivMode::User);
            nested
        };
        for (spec, periods) in [
            (PlatformSpec::x60(), [(3, 331u64), (4, 1_009)]),
            (PlatformSpec::c910(), [(3, 300), (4, 457)]),
            (PlatformSpec::u74(), [(3, 1_543), (4, 300)]),
            (PlatformSpec::i5_1135g7(), [(3, 331), (4, 613)]),
        ] {
            let mut blocked = Core::new(spec.clone());
            let mut serial = Core::new(spec.clone());
            for c in [&mut blocked, &mut serial] {
                c.pmu_mut().set_event(3, Some(HwEvent::CpuCycles));
                c.pmu_mut().set_event(4, Some(HwEvent::Instructions));
                for (idx, period) in periods {
                    c.pmu_mut().set_irq_enable(idx, true);
                    c.pmu_mut().write(idx, period.wrapping_neg());
                }
            }
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut acc = BlockAcc::default();
            let (mut fires_blocked, mut fires_serial) = (Vec::new(), Vec::new());
            let (mut exact_groups, mut mid_group_fires) = (0, 0);
            for i in 0..6_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                let ops = mixed_group(i, x);
                let last = ops.len() - 1;
                let exact = !group_ready(&mut blocked, &ops);
                if exact {
                    exact_groups += 1;
                    blocked.block_begin_exact_in(&mut acc);
                } else {
                    blocked.block_begin_in(&mut acc);
                }
                for (j, op) in ops.iter().enumerate() {
                    apply_lane(&mut blocked, op, x, &mut acc);
                    if exact && j < last && blocked.block_crossed(&acc) {
                        let info = blocked.retire_block(&mut acc);
                        if info.overflow != 0 {
                            mid_group_fires += 1;
                            let nested = handler(&mut blocked, info.overflow, &periods);
                            fires_blocked.push((i, j, info.overflow, nested));
                        }
                        blocked.block_begin_exact_in(&mut acc);
                    }
                }
                let info = blocked.retire_block(&mut acc);
                assert!(exact || info.overflow == 0, "{} group {i}", spec.name);
                if info.overflow != 0 {
                    let nested = handler(&mut blocked, info.overflow, &periods);
                    fires_blocked.push((i, last, info.overflow, nested));
                }
                for (j, op) in ops.iter().enumerate() {
                    let info = serial.retire(op);
                    if info.overflow != 0 {
                        let nested = handler(&mut serial, info.overflow, &periods);
                        fires_serial.push((i, j, info.overflow, nested));
                    }
                }
                assert_eq!(fires_blocked, fires_serial, "{} group {i}", spec.name);
                assert_eq!(blocked.cycles(), serial.cycles(), "{} group {i}", spec.name);
                for idx in [0usize, 2, 3, 4] {
                    assert_eq!(
                        blocked.pmu().read(idx),
                        serial.pmu().read(idx),
                        "{} counter {idx} after group {i}",
                        spec.name
                    );
                }
            }
            assert_eq!(
                blocked.pmu().overflow_status(),
                serial.pmu().overflow_status()
            );
            for idx in [3, 4] {
                let fired = fires_serial.iter().filter(|f| f.2 >> idx & 1 == 1).count();
                assert!(
                    fired >= 10,
                    "{} counter {idx} fired {fired} times",
                    spec.name
                );
            }
            assert!(exact_groups > 1_000, "{}: {exact_groups}", spec.name);
            assert!(mid_group_fires >= 10, "{}: {mid_group_fires}", spec.name);
        }
    }

    /// Near a programmed overflow, `block_ready` must refuse the block so
    /// the caller degrades to exact near-wrap mode or per-op retire
    /// (exact overflow attribution); with PMU batching disabled it
    /// always refuses.
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
    /// still tick their instruction events — `block_apply` has to count
    /// them in the scalar lane the simple commit path reads, or they are
    /// silently dropped (and a stale bundle later double-ticks in a
    /// complex block).
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
