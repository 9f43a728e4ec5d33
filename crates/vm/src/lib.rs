//! # mperf-vm — MIR execution engine over the simulated hardware
//!
//! Executes [`mperf_ir`] modules, lowering each MIR instruction to
//! machine operations (with per-ISA expansion) that retire on a
//! [`mperf_sim::Core`]. This ties the two measurement paths of the paper
//! together on a single execution:
//!
//! - **PMU path**: every retired op advances the core's counters;
//!   overflow interrupts are routed to an attached
//!   [`mperf_event::PerfKernel`] together with the interrupted guest PC
//!   and call chain, so sampling profilers see real stacks.
//! - **Compiler path**: `ProfCount` instructions and the
//!   `mperf.loop_begin` / `mperf.loop_end` / `mperf.is_instrumented`
//!   host calls drive the [`RooflineRuntime`], accumulating the
//!   bytes/int-ops/FLOP tallies the instrumentation pass planted.
//!
//! ## The decode → execute pipeline
//!
//! Execution runs on one of two engines (see [`interp::Engine`]):
//!
//! 1. **Decode** ([`decode`]): a one-time pass per module, in four
//!    steps per function —
//!    - *decode*: flatten the blocks into a dense `Vec<DecodedOp>` with
//!      pre-resolved jump targets (flat op indices), precomputed
//!      synthetic pcs, op classes, and FLOP counts, host callees
//!      resolved to dense ids, and scalar-integer ops type-specialized
//!      (`BinI`/`CmpI`);
//!    - *regalloc*: coalesce copies (see *Register allocation*);
//!    - *validate*: pin every index the template thunks dereference
//!      unchecked;
//!    - *template compile*: lower the stream into pre-bound templates
//!      and superblocks (see *Threaded templates & superblocks*).
//!
//!    The result ([`DecodedModule`]) borrows nothing and is `Arc`-shared
//!    across VMs sweeping the same workload — including VMs on other
//!    threads (see *The `Arc`/`Send` contract* below).
//! 2. **Execute** ([`Vm::call`]): the default **threaded** engine calls
//!    through each function's pre-bound template array and retires
//!    straight-line superblocks as one PMU batch; the **reference**
//!    engine (the original structure-walking interpreter) stays the
//!    semantic baseline and the equivalence oracle. Both produce
//!    bit-identical `ExecStats`, cycles, and PMU state; threaded frames
//!    slice a contiguous register stack, so calls do not allocate.
//!
//! ## Register allocation
//!
//! A decode-time copy-coalescing pass ([`regalloc`]) attacks the
//! dominant op the frontend emits: the `copy dst = src` behind every
//! `var = expr` assignment (~1/3 of the dynamic stream on
//! assignment-heavy code). Per function it:
//!
//! 1. computes backward **liveness** over the flat op stream (uses =
//!    operand registers, defs = destinations incl. call return slots;
//!    `Br`/`CondBr` follow their pre-resolved targets, `Ret` ends the
//!    walk) to a fixpoint;
//! 2. builds a register **interference** relation: each op's defs
//!    conflict with everything live-out of the op (minus the copy's
//!    own `dst`/`src` pair at the copy itself, where both hold the
//!    same value), same-op defs conflict pairwise, and parameters
//!    conflict pairwise and with everything live-in at entry;
//! 3. greedily **coalesces** each reg-to-reg copy whose source and
//!    destination classes don't interfere (union-find with per-class
//!    interference sets), then **compacts** register numbers so frames
//!    slice a smaller register-stack window.
//!
//! A copy is elidable exactly when its operands end up in one class:
//! the producer already wrote the shared slot, so the slot is
//! rewritten to [`decode::DecodedOp::ElidedCopy`] — a retire-only op.
//!
//! **The observable-invariance contract**: the elided copy still
//! retires the same `Move` machine op at the same pc, so cycle counts,
//! instruction counts, PMU counter files, and sampling IPs/callchains
//! are bit-identical to the uncoalesced and reference streams —
//! coalescing removes *our* dispatch cost (the `Value` clone and
//! register write), never modeled work. Merged classes always carry one
//! value type (unions are driven only by type-checked copies), so the
//! raw-`i64` register lanes stay sound, and reads of never-written
//! registers still see the zero-initialized slot (a def that could
//! clobber it would have interfered). The engine × regalloc equivalence
//! matrix is property-tested in `tests/properties.rs` on all four
//! platform models, including traps landing on elided-copy slots.
//! Static coalescing rates live in [`RegallocStats`] on the decode;
//! dynamic copy traffic (moved vs elided) in
//! [`interp::RegallocDynamics`] on the VM. `--no-regalloc` (CLI) /
//! [`Vm::set_regalloc`] / [`DecodeConfig`] disable the pass for
//! bisection.
//!
//! ## Threaded templates & superblocks
//!
//! The threaded engine (the default; [`threaded`]) is the baseline
//! template-JIT layer over the coalesced stream — the substrate a
//! future native JIT would drop into (same compile point, same
//! observable contract, fn pointers swapped for emitted code).
//!
//! **Template binding rules.** At decode time every op slot is lowered
//! to a pre-bound template: a `fn` pointer plus a packed operand struct
//! (`threaded::TArgs`). Operand immediates are materialized into
//! per-function constant pools, so every operand is one `u32` slot
//! (register index, or pool index with the high bit set) and the hot
//! loop does no `Operand` enum unpacking; the synthetic pc rides in the
//! template. Type-specialized scalar-integer ops get one monomorphic
//! thunk per operator (`t_bini::<B_ADD>`, …) and scalar memory ops one
//! per `MemTy` — op kinds are const generics, folded at compile time.
//! `ElidedCopy` binds a retire-only thunk. Payload-carrying cold ops
//! (calls, wide returns, vector memory, FP-lane arithmetic) keep
//! monomorphic thunks that read their own `DecodedOp` — still no
//! dispatch `match`.
//!
//! **Superblock formation.** The compile pass partitions each function
//! into straight-line superblocks: maximal runs of block-eligible
//! templates (no calls/returns, no interior jump targets, and no vector
//! memory refs except unit-stride ones of at most 64 bytes), each with
//! a precomputed shape (machine ops, memory references of ≤ 2 lines
//! each, branches, FLOPs). At run time a block whose fuel and
//! [`mperf_sim::Core::block_ready`] guards hold executes with eager
//! timing but a *deferred* PMU tick: every template applies its
//! cycle/cache/branch effects immediately (so `Core::cycles` stays
//! exact mid-block) while event deltas accumulate in a `BlockAcc`,
//! committed as one `Core::retire_block` tick — blocks of 6–20 ops tick
//! the PMU once instead of per op.
//!
//! **The observable-invariance contract**: return values, `ExecStats`,
//! cycles, instructions, PMU counter files, and sampling IPs/callchains
//! are bit-identical to the reference engine — property-tested across
//! the engine × regalloc matrix on all four platform models. Near a
//! counter wrap `block_ready` refuses the block. If every slot of the
//! block retires one machine op and the block fits the fuel, it still
//! runs deferred in *exact near-wrap mode*: the accumulator is armed
//! with the PMU's remaining event budget, the driver checks the
//! accumulated events after every op, and at the first op that crosses
//! the budget it commits the prefix, delivers any overflow at that op's
//! pc and re-arms — where per-op ticks would fire. Other refused blocks
//! run their templates one by one with per-op ticks (exact overflow
//! attribution, as everywhere else). A trap mid-block commits the
//! partial accumulator first (counters are additive, so the split is
//! unobservable) and propagates.
//!
//! **Adding a `DecodedOp`** means: decode it in [`decode`], give it a
//! template thunk (generic over `const DEFER: bool` for the single/block
//! retire lanes), bind it in `threaded::bind`, and classify it in
//! `threaded::unit_cost`; the equivalence properties gate the
//! observables. `miniperf --engine threaded|reference` selects the
//! engine for bisection; `bench_trajectory` measures both.
//!
//! ## The `Arc`/`Send` contract
//!
//! The roofline methodology is a *sweep*: every chart multiplies
//! phases × platforms × workloads, and each combination is an
//! independent simulation. The execution stack is therefore `Send` end
//! to end, enforced by compile-time assertions in [`interp`]:
//!
//! - a [`Vm`] — together with its `Core` (PMU, caches, predictor), an
//!   attached `PerfKernel`, registered [`HostHandler`]s (the type
//!   requires `+ Send`), guest memory, and the [`RooflineRuntime`] —
//!   moves onto a sweep worker thread;
//! - one [`DecodedModule`] per workload is built up front with
//!   [`decode::decode_module`] (no throwaway VM needed) and shared
//!   read-only via `Arc` by every job of that workload, so worker
//!   threads never decode.
//!
//! New workloads plug into the sweep engine by compiling a module
//! (e.g. `mperf_workloads::compile_for`), decoding it once, and handing
//! `(module, Arc<DecodedModule>, setup-closure)` to the scheduler in
//! `mperf-sweep` / `miniperf::roofline_runner` — the setup closure runs
//! on the worker to stage guest data, so it must be `Send + Sync`; all
//! simulation state stays thread-local to the job. The same contract is
//! what a future native JIT will run under.
//!
//! ## The exact-overflow watermark
//!
//! The hot retire path pairs with `mperf_sim`'s batched PMU: per-op
//! event deltas accumulate and the full 32-counter scan only runs when
//! the batch could reach the *watermark* — the minimum distance-to-wrap
//! over all armed counters. Since a counter advances by at most the
//! batch's total events, no overflow can occur below the watermark, and
//! the op that could cross it is ticked individually — so sampling
//! interrupts still fire on exactly the op that wraps. See
//! [`mperf_sim::Pmu::tick_batched`]. Superblocks read the same rule as
//! a budget, the events left below the watermark
//! ([`mperf_sim::Pmu::batch_budget`]): a guarded block's bound fits it
//! whole, and exact near-wrap mode commits at the first op that
//! exceeds it, the op per-op retire would tick individually.
//!
//! The VM also maintains the guest call stack used for flame-graph
//! callchains (built into a reusable scratch buffer, keeping sampling
//! allocation-free), charges instrumentation overhead as real guest
//! instructions, and exposes a bump allocator so hosts can stage
//! workload data in guest memory.

pub mod decode;
pub mod error;
pub mod host;
pub mod interp;
pub mod lower;
pub mod memory;
pub mod regalloc;
pub mod threaded;
pub mod value;

pub use decode::{decode_module, decode_module_cfg, DecodeConfig, DecodedModule, DecodedOp};
pub use error::{TrapInfo, VmError};
pub use host::{HostHandler, RegionStats, RooflineRuntime};
pub use interp::{Engine, ExecConfig, ExecStats, RegallocDynamics, Vm};
pub use memory::GuestMemory;
pub use regalloc::RegallocStats;
pub use value::{Lanes, Value};
