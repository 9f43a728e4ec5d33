//! The hardware performance-monitoring unit: counters, event selectors,
//! inhibit bits, and overflow detection.
//!
//! Counter layout follows the RISC-V privileged spec: index 0 is `mcycle`,
//! index 2 is `minstret`, and indices 3..=31 are the generic
//! `mhpmcounter`s whose event selection is implementation-defined
//! (`mhpmevent` codes are decoded by the platform model). Index 1 is
//! reserved (`mtime` lives elsewhere), as on real hardware.

use crate::core::PrivMode;
use crate::events::{EventDeltas, HwEvent};

/// Number of architectural counters (mcycle + reserved + minstret + 29 HPM).
pub const NUM_COUNTERS: usize = 32;

/// Index of `mcycle`.
pub const COUNTER_CYCLE: usize = 0;
/// Index of `minstret`.
pub const COUNTER_INSTRET: usize = 2;
/// First generic HPM counter index.
pub const FIRST_HPM: usize = 3;

/// The PMU register state of one hart.
///
/// # Batched ticking and the exact-overflow watermark
///
/// Scanning all 32 counters on every retired op dominates the simulator's
/// retire cost, so the PMU batches: per-op [`EventDeltas`] accumulate into
/// a `pending` bundle and are only *applied* (the full per-counter scan)
/// when something could observe the difference. The invariant that makes
/// this exact rather than approximate is the **watermark**: the minimum
/// distance-to-wrap across every counter that is implemented, uninhibited,
/// and observing an event. Because each counter advances by at most
/// `EventDeltas::total()` per op, `pending_total <= watermark` guarantees
/// no counter can wrap while deltas sit in `pending` — so overflow
/// interrupts still fire on exactly the op that wraps (the op that would
/// cross the watermark is ticked individually after a flush). Reads fold
/// `pending` in lazily; every mutator flushes first.
#[derive(Debug, Clone)]
pub struct Pmu {
    counters: [u64; NUM_COUNTERS],
    /// Event selected on each generic counter (None = unprogrammed).
    events: [Option<HwEvent>; NUM_COUNTERS],
    /// `mcountinhibit`: bit i set = counter i frozen.
    inhibit: u32,
    /// Per-counter overflow-interrupt enable (Sscofpmf OVF enable bit in
    /// `mhpmevent`, modeled separately).
    irq_enable: u32,
    /// Sticky overflow-status bits (Sscofpmf OF).
    overflow_status: u32,
    /// Number of implemented generic counters (3..3+num_hpm are usable).
    num_hpm: usize,
    /// Deltas accumulated since the last flush (all in `pending_mode`).
    pending: EventDeltas,
    /// Upper bound on any single counter's pending advance.
    pending_total: u64,
    /// Privilege mode the pending deltas were accumulated in (a mode
    /// switch forces a flush, so one batch never spans modes).
    pending_mode: PrivMode,
    /// Min distance-to-wrap over armed counters at the last flush.
    watermark: u64,
    /// False after counter/state mutation; forces recompute before use.
    watermark_valid: bool,
    /// When false, `tick_batched` degrades to the per-op scan (the
    /// pre-batching behaviour; kept for baseline measurements).
    batched: bool,
}

impl Pmu {
    /// A PMU with `num_hpm` implemented generic counters.
    pub fn new(num_hpm: usize) -> Pmu {
        assert!(FIRST_HPM + num_hpm <= NUM_COUNTERS);
        Pmu {
            counters: [0; NUM_COUNTERS],
            events: [None; NUM_COUNTERS],
            inhibit: 0,
            irq_enable: 0,
            overflow_status: 0,
            num_hpm,
            pending: EventDeltas::default(),
            pending_total: 0,
            pending_mode: PrivMode::User,
            watermark: 0,
            watermark_valid: false,
            batched: true,
        }
    }

    /// Enable/disable delta batching (on by default). Disabling restores
    /// the per-op counter scan — observable behaviour is identical either
    /// way; this exists so benchmarks can measure the seed configuration.
    pub fn set_batched(&mut self, on: bool) {
        if !on {
            self.flush();
            self.watermark_valid = false;
        }
        self.batched = on;
    }

    /// Number of implemented generic (HPM) counters.
    pub fn num_hpm(&self) -> usize {
        self.num_hpm
    }

    /// Whether `idx` addresses an implemented counter.
    pub fn is_implemented(&self, idx: usize) -> bool {
        idx == COUNTER_CYCLE
            || idx == COUNTER_INSTRET
            || (FIRST_HPM..FIRST_HPM + self.num_hpm).contains(&idx)
    }

    /// The event a counter observes (fixed for cycle/instret).
    pub fn event_of(&self, idx: usize) -> Option<HwEvent> {
        match idx {
            COUNTER_CYCLE => Some(HwEvent::CpuCycles),
            COUNTER_INSTRET => Some(HwEvent::Instructions),
            _ => self.events.get(idx).copied().flatten(),
        }
    }

    /// Program a generic counter's event selector.
    ///
    /// # Panics
    /// Panics if `idx` is not an implemented generic counter (callers —
    /// the SBI layer — validate first).
    pub fn set_event(&mut self, idx: usize, ev: Option<HwEvent>) {
        assert!(
            (FIRST_HPM..FIRST_HPM + self.num_hpm).contains(&idx),
            "counter {idx} is not a programmable HPM counter"
        );
        self.flush();
        self.events[idx] = ev;
        self.watermark_valid = false;
    }

    /// Read a counter. Pending batched deltas are folded in lazily, so
    /// reads always observe the exact architectural value.
    pub fn read(&self, idx: usize) -> u64 {
        let base = *self.counters.get(idx).unwrap_or(&0);
        if self.pending_total == 0 || !self.is_implemented(idx) || self.inhibit >> idx & 1 == 1 {
            return base;
        }
        match self.event_of(idx) {
            // Cannot wrap: the watermark invariant bounds the pending
            // contribution below every counter's distance to overflow.
            Some(ev) => base + self.pending.get(ev, self.pending_mode),
            None => base,
        }
    }

    /// Write a counter (M-mode or SBI only; used to arm sampling periods
    /// by writing `-period`).
    pub fn write(&mut self, idx: usize, value: u64) {
        self.flush();
        self.counters[idx] = value;
        self.watermark_valid = false;
    }

    /// The `mcountinhibit` register.
    pub fn inhibit(&self) -> u32 {
        self.inhibit
    }

    /// Set `mcountinhibit`.
    pub fn set_inhibit(&mut self, value: u32) {
        self.flush();
        self.inhibit = value;
        self.watermark_valid = false;
    }

    /// Enable/disable the overflow interrupt for a counter.
    pub fn set_irq_enable(&mut self, idx: usize, on: bool) {
        if on {
            self.irq_enable |= 1 << idx;
        } else {
            self.irq_enable &= !(1 << idx);
        }
    }

    /// Whether the overflow interrupt is enabled for a counter.
    pub fn irq_enabled(&self, idx: usize) -> bool {
        self.irq_enable >> idx & 1 == 1
    }

    /// Sticky overflow bits (cleared by [`Pmu::clear_overflow`]).
    pub fn overflow_status(&self) -> u32 {
        self.overflow_status
    }

    /// Clear a counter's sticky overflow bit.
    pub fn clear_overflow(&mut self, idx: usize) {
        self.overflow_status &= !(1 << idx);
    }

    /// Advance all enabled counters by the event deltas of one retire
    /// step. Returns a bitmask of counters that overflowed (wrapped) this
    /// step *and* have their interrupt enabled — the core turns those
    /// into overflow interrupts.
    ///
    /// This is the exact-now path: any batched deltas are flushed first,
    /// then `deltas` are applied immediately.
    pub fn tick(&mut self, deltas: &EventDeltas, mode: PrivMode) -> u32 {
        self.flush();
        let fired = self.tick_now(deltas, mode);
        self.watermark_valid = false;
        fired
    }

    /// Advance counters by one retire step, deferring the per-counter
    /// scan while no counter can possibly wrap (see the type-level docs
    /// for the watermark invariant). Semantically identical to calling
    /// [`Pmu::tick`] per op: counter reads and the op at which an
    /// overflow interrupt fires are bit-exact.
    #[inline]
    pub fn tick_batched(&mut self, deltas: &EventDeltas, mode: PrivMode) -> u32 {
        if !self.batched {
            return self.tick(deltas, mode);
        }
        if mode != self.pending_mode {
            self.flush();
            self.pending_mode = mode;
        }
        if !self.watermark_valid {
            self.flush();
            self.recompute_watermark();
        }
        let op_total = deltas.total();
        if self.pending_total.saturating_add(op_total) > self.watermark {
            // This op *might* wrap a counter: drain the batch (which by
            // the invariant cannot wrap), then tick the op individually
            // so the overflow is attributed to exactly this retire.
            self.flush();
            let fired = self.tick_now(deltas, mode);
            self.recompute_watermark();
            return fired;
        }
        self.pending.accumulate(deltas);
        self.pending_total += op_total;
        0
    }

    /// How many more events the pending batch can absorb before some
    /// counter could wrap: `watermark − pending_total`, or 0 when
    /// batching is disabled (every op then ticks on its own). A batch
    /// advancing every counter by at most this many events takes
    /// [`Pmu::tick_batched`]'s accumulate path (no overflow, so no
    /// per-op attribution is needed); the first op that would exceed it
    /// is ticked individually. This is what the
    /// core's superblock retire ([`crate::Core::block_ready`] and exact
    /// near-wrap mode, [`crate::Core::block_begin_exact_in`]) checks a
    /// block against.
    ///
    /// Performs the same batch normalization `tick_batched` would (mode
    /// flush, watermark recompute), which is observably transparent.
    #[inline]
    pub fn batch_budget(&mut self, mode: PrivMode) -> u64 {
        if !self.batched {
            return 0;
        }
        if mode != self.pending_mode {
            self.flush();
            self.pending_mode = mode;
        }
        if !self.watermark_valid {
            self.flush();
            self.recompute_watermark();
        }
        self.watermark.saturating_sub(self.pending_total)
    }

    /// Scalar fast lane of [`Pmu::tick_batched`] for ops that only
    /// produce cycle/instruction events (no memory, branch, or FP
    /// deltas) — skips building and scanning the full [`EventDeltas`].
    #[inline]
    pub fn tick_batched_simple(&mut self, cycles: u64, instructions: u64, mode: PrivMode) -> u32 {
        let op_total = cycles + instructions;
        if self.batched
            && self.watermark_valid
            && mode == self.pending_mode
            && self.pending_total.saturating_add(op_total) <= self.watermark
        {
            self.pending.cycles += cycles;
            self.pending.instructions += instructions;
            self.pending_total += op_total;
            return 0;
        }
        let deltas = EventDeltas {
            cycles,
            instructions,
            ..EventDeltas::default()
        };
        self.tick_batched(&deltas, mode)
    }

    /// Apply any pending batched deltas to the counters. Advancing the
    /// counters shrinks their distance-to-wrap, so the watermark is
    /// invalidated here — callers on the tick path recompute it.
    fn flush(&mut self) {
        if self.pending_total == 0 {
            return;
        }
        let pending = self.pending;
        let mode = self.pending_mode;
        self.pending = EventDeltas::default();
        self.pending_total = 0;
        self.watermark_valid = false;
        let fired = self.tick_now(&pending, mode);
        debug_assert_eq!(fired, 0, "watermark invariant: a batch never wraps");
    }

    /// Recompute the minimum distance-to-wrap across armed counters.
    fn recompute_watermark(&mut self) {
        debug_assert_eq!(self.pending_total, 0, "recompute only on empty batch");
        let mut min_dist = u64::MAX;
        for idx in 0..NUM_COUNTERS {
            if !self.is_implemented(idx) || self.inhibit >> idx & 1 == 1 {
                continue;
            }
            if self.event_of(idx).is_none() {
                continue;
            }
            min_dist = min_dist.min(u64::MAX - self.counters[idx]);
        }
        self.watermark = min_dist;
        self.watermark_valid = true;
    }

    /// The immediate per-counter scan (the pre-batching `tick` body).
    fn tick_now(&mut self, deltas: &EventDeltas, mode: PrivMode) -> u32 {
        let mut fired = 0u32;
        for idx in 0..NUM_COUNTERS {
            if !self.is_implemented(idx) {
                continue;
            }
            if self.inhibit >> idx & 1 == 1 {
                continue;
            }
            let Some(ev) = self.event_of(idx) else {
                continue;
            };
            let delta = deltas.get(ev, mode);
            if delta == 0 {
                continue;
            }
            let (next, wrapped) = self.counters[idx].overflowing_add(delta);
            self.counters[idx] = next;
            if wrapped {
                self.overflow_status |= 1 << idx;
                if self.irq_enabled(idx) {
                    fired |= 1 << idx;
                }
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deltas(cycles: u64, instr: u64) -> EventDeltas {
        EventDeltas {
            cycles,
            instructions: instr,
            ..EventDeltas::default()
        }
    }

    #[test]
    fn fixed_counters_count() {
        let mut p = Pmu::new(8);
        p.tick(&deltas(5, 2), PrivMode::User);
        assert_eq!(p.read(COUNTER_CYCLE), 5);
        assert_eq!(p.read(COUNTER_INSTRET), 2);
    }

    #[test]
    fn inhibit_freezes_counter() {
        let mut p = Pmu::new(8);
        p.set_inhibit(1 << COUNTER_CYCLE);
        p.tick(&deltas(5, 2), PrivMode::User);
        assert_eq!(p.read(COUNTER_CYCLE), 0);
        assert_eq!(p.read(COUNTER_INSTRET), 2);
    }

    #[test]
    fn hpm_counts_programmed_event() {
        let mut p = Pmu::new(8);
        p.set_event(3, Some(HwEvent::BranchMisses));
        let d = EventDeltas {
            cycles: 1,
            branch_misses: 3,
            ..EventDeltas::default()
        };
        p.tick(&d, PrivMode::User);
        assert_eq!(p.read(3), 3);
    }

    #[test]
    fn mode_cycle_counters_track_privilege() {
        let mut p = Pmu::new(8);
        p.set_event(3, Some(HwEvent::UModeCycles));
        p.set_event(4, Some(HwEvent::MModeCycles));
        p.tick(&deltas(10, 1), PrivMode::User);
        p.tick(&deltas(7, 1), PrivMode::Machine);
        assert_eq!(p.read(3), 10);
        assert_eq!(p.read(4), 7);
        assert_eq!(p.read(COUNTER_CYCLE), 17);
    }

    #[test]
    fn overflow_fires_only_when_enabled() {
        let mut p = Pmu::new(8);
        p.set_event(3, Some(HwEvent::Instructions));
        p.write(3, u64::MAX - 1); // overflow after 2 instructions
        let fired = p.tick(&deltas(1, 2), PrivMode::User);
        assert_eq!(fired, 0, "irq not enabled: silent wrap");
        assert_ne!(p.overflow_status() & (1 << 3), 0, "OF bit set anyway");

        p.clear_overflow(3);
        p.set_irq_enable(3, true);
        p.write(3, u64::MAX - 1);
        let fired = p.tick(&deltas(1, 2), PrivMode::User);
        assert_eq!(fired, 1 << 3);
    }

    #[test]
    fn sampling_period_arming() {
        // perf-style: write -period, overflow fires after `period` events.
        let mut p = Pmu::new(8);
        p.set_irq_enable(COUNTER_CYCLE, true);
        p.write(COUNTER_CYCLE, (-1000i64) as u64);
        let mut fired_at = None;
        for step in 0..2000 {
            if p.tick(&deltas(1, 0), PrivMode::User) != 0 {
                fired_at = Some(step);
                break;
            }
        }
        assert_eq!(fired_at, Some(999));
    }

    #[test]
    fn unimplemented_counters_ignore_ticks() {
        let p = Pmu::new(4);
        assert!(p.is_implemented(3 + 3));
        assert!(!p.is_implemented(3 + 4));
        assert!(!p.is_implemented(1), "index 1 is reserved");
    }

    #[test]
    #[should_panic(expected = "not a programmable HPM counter")]
    fn cannot_program_fixed_counters() {
        let mut p = Pmu::new(8);
        p.set_event(COUNTER_CYCLE, Some(HwEvent::L1dMiss));
    }

    /// Regression test: flushing on a privilege-mode switch shrinks the
    /// counters' distance-to-wrap, so the watermark must be recomputed —
    /// a stale watermark once let a later batch wrap inside `flush`,
    /// losing the overflow interrupt. Batched and unbatched PMUs must
    /// agree on counter values and on the exact tick where the overflow
    /// fires, even with frequent mode switches.
    #[test]
    fn batched_matches_unbatched_across_mode_switches() {
        let mut batched = Pmu::new(8);
        let mut exact = Pmu::new(8);
        for p in [&mut batched, &mut exact] {
            p.set_event(3, Some(HwEvent::CpuCycles));
            p.set_irq_enable(3, true);
            p.write(3, (-5_000i64) as u64);
        }
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut mode = PrivMode::User;
        for step in 0..20_000u64 {
            // Pseudo-random cycle deltas; switch mode every ~700 steps
            // (the perf kernel flips to Supervisor on every sample).
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let d = deltas(1 + x % 7, 1);
            if step % 700 == 699 {
                mode = match mode {
                    PrivMode::User => PrivMode::Supervisor,
                    _ => PrivMode::User,
                };
            }
            let fired_b = batched.tick_batched(&d, mode);
            let fired_e = exact.tick(&d, mode);
            assert_eq!(fired_b, fired_e, "overflow mask diverged at step {step}");
            if fired_b != 0 {
                // Re-arm, as a sampling kernel would.
                batched.write(3, (-5_000i64) as u64);
                exact.write(3, (-5_000i64) as u64);
            }
            assert_eq!(
                batched.read(3),
                exact.read(3),
                "counter diverged at step {step}"
            );
        }
        assert_eq!(batched.read(COUNTER_CYCLE), exact.read(COUNTER_CYCLE));
        assert_eq!(batched.read(COUNTER_INSTRET), exact.read(COUNTER_INSTRET));
    }

    /// The scalar fast lane must agree with the full batched path too.
    #[test]
    fn simple_fast_lane_matches_full_tick() {
        let mut a = Pmu::new(8);
        let mut b = Pmu::new(8);
        for p in [&mut a, &mut b] {
            p.set_event(3, Some(HwEvent::Instructions));
            p.set_irq_enable(3, true);
            p.write(3, (-300i64) as u64);
        }
        let mut fired_a = 0u32;
        let mut fired_b = 0u32;
        for _ in 0..1_000 {
            fired_a |= a.tick_batched_simple(2, 1, PrivMode::User);
            fired_b |= b.tick_batched(&deltas(2, 1), PrivMode::User);
        }
        assert_eq!(fired_a, fired_b);
        assert_eq!(a.read(3), b.read(3));
        assert_eq!(a.read(COUNTER_CYCLE), b.read(COUNTER_CYCLE));
    }
}
