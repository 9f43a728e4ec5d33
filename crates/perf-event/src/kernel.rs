//! The kernel object: `perf_event_open`, group scheduling, overflow
//! handling, and ring-buffer delivery.

use crate::attr::{EventKind, PerfEventAttr};
use crate::errno::Errno;
use crate::ring::RingBuffer;
use crate::sample::{Record, SampleRecord};
use mperf_sbi::{ConfigFlags, SbiError, SbiPmu, StopFlags};
use mperf_sim::{Core, HwEvent, PrivMode};

/// A perf event file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventFd(pub usize);

/// CPU context captured at overflow time (what the real interrupt handler
/// reads from the trap frame; supplied here by the execution engine).
#[derive(Debug, Clone, Default)]
pub struct OverflowCtx {
    pub ip: u64,
    pub tid: u32,
    /// Innermost frame first.
    pub callchain: Vec<u64>,
}

#[derive(Debug)]
struct PerfEvent {
    attr: PerfEventAttr,
    /// Stable id reported in group reads.
    id: u64,
    /// Hardware counter index claimed for this event.
    counter: usize,
    /// For group members: the fd index of their leader.
    leader: Option<usize>,
    /// For leaders: member fd indices in attach order.
    members: Vec<usize>,
    enabled: bool,
    ring: Option<RingBuffer>,
    /// Counter value at enable (counting reads return the delta).
    base: u64,
    /// Whether the overflow handler's supervisor-mode cycles advance
    /// this event's counter (`cycles`, `s_mode_cycle`).
    counts_handler: bool,
}

/// The modeled `perf_event` subsystem for one hart.
///
/// All hardware access goes through the SBI PMU extension, as on a real
/// RISC-V kernel (paper Fig. 1); there is no direct M-mode poking here.
#[derive(Debug)]
pub struct PerfKernel {
    sbi: SbiPmu,
    events: Vec<Option<PerfEvent>>,
    next_id: u64,
    /// Cycles charged (in Supervisor mode) per overflow handled — the
    /// sampling overhead a real interrupt handler costs.
    pub sample_overhead_cycles: u64,
    samples_taken: u64,
}

impl PerfKernel {
    /// Boot the kernel side: initializes the SBI PMU firmware state.
    pub fn new(core: &mut Core) -> PerfKernel {
        PerfKernel {
            sbi: SbiPmu::new(core),
            events: Vec::new(),
            next_id: 1,
            sample_overhead_cycles: 250,
            samples_taken: 0,
        }
    }

    /// Number of hardware counters visible to the kernel.
    pub fn num_counters(&self) -> usize {
        self.sbi.num_counters()
    }

    /// Total samples written to ring buffers so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// `perf_event_open`: create an event, optionally attaching it to the
    /// group led by `group`.
    ///
    /// # Errors
    /// - `ENOENT` — raw code does not decode on this platform;
    /// - `EOPNOTSUPP` — sampling requested but the hardware cannot raise
    ///   overflow interrupts for this event (the stock-perf X60 failure);
    /// - `ENOSPC` — no free counter;
    /// - `EINVAL` — bad group fd (nonexistent or itself a member), or a
    ///   sampler on an event that counts supervisor-mode cycles
    ///   (`cycles`, `s_mode_cycle`) whose period, together with the
    ///   other such samplers', lets the overflow handler's own cycles
    ///   wrap them at least once per handler run: each wrap inside the
    ///   handler re-raises the interrupt, so the handler would never
    ///   return. For a lone sampler that is a period of at most
    ///   [`PerfKernel::sample_overhead_cycles`].
    pub fn open(
        &mut self,
        core: &mut Core,
        attr: PerfEventAttr,
        group: Option<EventFd>,
    ) -> Result<EventFd, Errno> {
        let code = match attr.kind {
            EventKind::Hardware(h) => core.spec.event_code(h.to_hw_event()),
            EventKind::Raw(c) => c,
        };
        let Some(event) = core.spec.decode_event(code) else {
            return Err(Errno::ENOENT);
        };
        let counts_handler = matches!(event, HwEvent::CpuCycles | HwEvent::SModeCycles);
        if attr.is_sampling() && counts_handler {
            // Wraps per handler run, summed over every sampler the
            // handler's cycles advance.
            let load: f64 = self
                .events
                .iter()
                .flatten()
                .filter(|e| e.counts_handler && e.attr.is_sampling())
                .map(|e| e.attr.sample_period)
                .chain([attr.sample_period])
                .map(|period| self.sample_overhead_cycles as f64 / period as f64)
                .sum();
            if load >= 1.0 {
                return Err(Errno::EINVAL);
            }
        }
        let leader_idx = match group {
            None => None,
            Some(fd) => {
                let le = self.event_ref(fd)?;
                if le.leader.is_some() {
                    return Err(Errno::EINVAL); // groups don't nest
                }
                Some(fd.0)
            }
        };

        let flags = ConfigFlags {
            clear_value: true,
            auto_start: false,
            irq_enable: attr.is_sampling(),
        };
        let counter = self
            .sbi
            .counter_config_matching(core, u64::MAX, flags, code)
            .map_err(|e| match e {
                SbiError::NotSupported => Errno::EOPNOTSUPP,
                _ => Errno::ENOSPC,
            })?;

        let ring = attr
            .is_sampling()
            .then(|| RingBuffer::new(64 * 1024, attr.sample_type));
        let ev = PerfEvent {
            attr,
            id: self.next_id,
            counter,
            leader: leader_idx,
            members: Vec::new(),
            enabled: false,
            ring,
            base: 0,
            counts_handler,
        };
        self.next_id += 1;
        self.events.push(Some(ev));
        let fd = EventFd(self.events.len() - 1);
        if let Some(l) = leader_idx {
            self.events[l]
                .as_mut()
                .expect("leader validated above")
                .members
                .push(fd.0);
        }
        Ok(fd)
    }

    /// Enable an event. Enabling a leader enables its whole group
    /// atomically (perf group-scheduling semantics); enabling a member
    /// directly is an error.
    ///
    /// # Errors
    /// `EBADF` for stale fds, `EINVAL` for group members.
    pub fn enable(&mut self, core: &mut Core, fd: EventFd) -> Result<(), Errno> {
        if self.event_ref(fd)?.leader.is_some() {
            return Err(Errno::EINVAL);
        }
        for idx in self.group_indices(fd.0) {
            let (counter, sampling, period, already) = {
                let e = self.events[idx].as_ref().expect("group index valid");
                (
                    e.counter,
                    e.attr.is_sampling(),
                    e.attr.sample_period,
                    e.enabled,
                )
            };
            if already {
                continue;
            }
            let initial = sampling.then(|| (period as i64).wrapping_neg() as u64);
            self.sbi
                .counter_start(core, 1u64 << counter, initial)
                .map_err(|_| Errno::EINVAL)?;
            let base = self.sbi.counter_read(core, counter).unwrap_or(0);
            let e = self.events[idx].as_mut().expect("group index valid");
            e.enabled = true;
            e.base = base;
        }
        Ok(())
    }

    /// Disable an event (leaders disable the whole group).
    ///
    /// # Errors
    /// `EBADF` for stale fds, `EINVAL` for group members.
    pub fn disable(&mut self, core: &mut Core, fd: EventFd) -> Result<(), Errno> {
        if self.event_ref(fd)?.leader.is_some() {
            return Err(Errno::EINVAL);
        }
        for idx in self.group_indices(fd.0) {
            let (counter, enabled) = {
                let e = self.events[idx].as_ref().expect("group index valid");
                (e.counter, e.enabled)
            };
            if !enabled {
                continue;
            }
            self.sbi
                .counter_stop(core, 1u64 << counter, StopFlags::default())
                .map_err(|_| Errno::EINVAL)?;
            self.events[idx]
                .as_mut()
                .expect("group index valid")
                .enabled = false;
        }
        Ok(())
    }

    /// Close an event, releasing its counter. Leaders must be closed last
    /// (members first), as with real perf fds being reference-counted.
    ///
    /// # Errors
    /// `EBADF` for stale fds, `EINVAL` when closing a leader that still
    /// has members.
    pub fn close(&mut self, core: &mut Core, fd: EventFd) -> Result<(), Errno> {
        let e = self.event_ref(fd)?;
        if !e.members.is_empty() {
            return Err(Errno::EINVAL);
        }
        let counter = e.counter;
        let enabled = e.enabled;
        let leader = e.leader;
        if enabled {
            let _ = self
                .sbi
                .counter_stop(core, 1u64 << counter, StopFlags { reset: true });
        } else {
            // Claimed but stopped: still release the claim.
            let _ = self.sbi.counter_start(core, 1u64 << counter, None);
            let _ = self
                .sbi
                .counter_stop(core, 1u64 << counter, StopFlags { reset: true });
        }
        if let Some(l) = leader {
            if let Some(le) = self.events[l].as_mut() {
                le.members.retain(|&m| m != fd.0);
            }
        }
        self.events[fd.0] = None;
        Ok(())
    }

    /// Read counter value(s). With `read_format.group` on a leader this
    /// returns `(id, value)` for the whole group, leader first; otherwise
    /// a single pair.
    ///
    /// # Errors
    /// `EBADF` for stale fds.
    pub fn read(&self, core: &Core, fd: EventFd) -> Result<Vec<(u64, u64)>, Errno> {
        let e = self.event_ref(fd)?;
        if e.attr.read_format.group && e.leader.is_none() {
            Ok(self
                .group_indices(fd.0)
                .into_iter()
                .map(|idx| {
                    let m = self.events[idx].as_ref().expect("group index valid");
                    (m.id, self.counter_delta(core, m))
                })
                .collect())
        } else {
            Ok(vec![(e.id, self.counter_delta(core, e))])
        }
    }

    /// The stable id of an event (to correlate group reads in samples).
    ///
    /// # Errors
    /// `EBADF` for stale fds.
    pub fn id_of(&self, fd: EventFd) -> Result<u64, Errno> {
        Ok(self.event_ref(fd)?.id)
    }

    /// Drain the decoded records from a sampling event's ring buffer.
    ///
    /// # Errors
    /// `EBADF` for stale fds, `EINVAL` for counting events.
    pub fn drain_records(&mut self, fd: EventFd) -> Result<Vec<Record>, Errno> {
        let e = self
            .events
            .get_mut(fd.0)
            .and_then(|e| e.as_mut())
            .ok_or(Errno::EBADF)?;
        let ring = e.ring.as_mut().ok_or(Errno::EINVAL)?;
        Ok(ring.drain())
    }

    /// The hardware overflow interrupt handler. `overflow_mask` is the
    /// counter bitmask reported by [`Core::retire`]; `ctx` carries the
    /// interrupted context. Builds samples, writes ring buffers, re-arms
    /// periods, and charges handler overhead in Supervisor mode.
    ///
    /// A counter that wraps during the handler's own cycles latches its
    /// overflow, as an Sscofpmf overflow bit does, and the interrupt is
    /// raised again at the same context once the handler returns. The
    /// sampler rule in [`PerfKernel::open`] bounds how often that
    /// repeats.
    pub fn on_overflow(&mut self, core: &mut Core, overflow_mask: u32, ctx: &OverflowCtx) {
        let mut mask = overflow_mask;
        while mask != 0 {
            mask = self.handle_overflow(core, mask, ctx);
        }
    }

    /// One run of the overflow handler: samples and re-arms every
    /// sampler in `overflow_mask`, charges the handler's cycles, and
    /// returns the overflows those cycles latched.
    fn handle_overflow(&mut self, core: &mut Core, overflow_mask: u32, ctx: &OverflowCtx) -> u32 {
        let prev_mode = core.mode();
        core.set_mode(PrivMode::Supervisor);

        for idx in 0..self.events.len() {
            let Some(e) = self.events[idx].as_ref() else {
                continue;
            };
            if !e.enabled || !e.attr.is_sampling() {
                continue;
            }
            if overflow_mask & (1 << e.counter) == 0 {
                continue;
            }
            let st = e.attr.sample_type;
            let period = e.attr.sample_period;
            let counter = e.counter;
            let read_group = if st.read {
                self.group_indices(idx)
                    .into_iter()
                    .map(|m| {
                        let me = self.events[m].as_ref().expect("group index valid");
                        (me.id, self.counter_delta(core, me))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let sample = SampleRecord {
                ip: st.ip.then_some(ctx.ip),
                tid: st.tid.then_some(ctx.tid),
                time: st.time.then_some(core.cycles()),
                period: st.period.then_some(period),
                read_group,
                callchain: if st.callchain {
                    ctx.callchain.clone()
                } else {
                    Vec::new()
                },
            };
            let e = self.events[idx].as_mut().expect("checked above");
            e.ring
                .as_mut()
                .expect("sampling events have rings")
                .push_sample(&sample);
            self.samples_taken += 1;
            // Re-arm the sampling period.
            let rearm = (period as i64).wrapping_neg() as u64;
            let _ = self.sbi.counter_write(core, counter, rearm);
        }

        // Handler overhead: cycles burned in supervisor mode.
        let latched = core.idle(self.sample_overhead_cycles);
        core.set_mode(prev_mode);
        latched
    }

    /// Counter value since enable. Samples' group reads use it too:
    /// tools consume deltas between samples, so the offset is
    /// irrelevant, but subtracting `base` keeps counting and sampling
    /// reads consistent.
    fn counter_delta(&self, core: &Core, e: &PerfEvent) -> u64 {
        self.sbi
            .counter_read(core, e.counter)
            .unwrap_or(0)
            .wrapping_sub(e.base)
    }

    fn event_ref(&self, fd: EventFd) -> Result<&PerfEvent, Errno> {
        self.events
            .get(fd.0)
            .and_then(|e| e.as_ref())
            .ok_or(Errno::EBADF)
    }

    /// Leader index + members, in stable order.
    fn group_indices(&self, leader_idx: usize) -> Vec<usize> {
        let mut out = vec![leader_idx];
        if let Some(Some(le)) = self.events.get(leader_idx) {
            out.extend(le.members.iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{HwCounter, ReadFormat, SampleType};
    use mperf_sim::machine_op::{MachineOp, OpClass};
    use mperf_sim::PlatformSpec;

    fn boot(spec: PlatformSpec) -> (Core, PerfKernel) {
        let mut core = Core::new(spec);
        let kernel = PerfKernel::new(&mut core);
        (core, kernel)
    }

    /// Drive the core through `n` ALU ops, routing overflows to the
    /// kernel like the execution engine does.
    fn run_ops(core: &mut Core, kernel: &mut PerfKernel, n: u64) {
        for i in 0..n {
            let info = core.retire(&MachineOp::simple(OpClass::IntAlu, 0x400 + i % 64));
            if info.overflow != 0 {
                let ctx = OverflowCtx {
                    ip: 0x400 + i % 64,
                    tid: 1,
                    callchain: vec![0x400 + i % 64, 0x100],
                };
                kernel.on_overflow(core, info.overflow, &ctx);
            }
        }
    }

    #[test]
    fn counting_cycles_and_instructions() {
        let (mut core, mut kernel) = boot(PlatformSpec::c910());
        let fd_c = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::Cycles)),
                None,
            )
            .unwrap();
        let fd_i = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::Instructions)),
                None,
            )
            .unwrap();
        kernel.enable(&mut core, fd_c).unwrap();
        kernel.enable(&mut core, fd_i).unwrap();
        run_ops(&mut core, &mut kernel, 1000);
        let cycles = kernel.read(&core, fd_c).unwrap()[0].1;
        let instr = kernel.read(&core, fd_i).unwrap()[0].1;
        assert_eq!(instr, 1000);
        assert!(cycles > 0);
    }

    #[test]
    fn sampling_works_on_c910() {
        let (mut core, mut kernel) = boot(PlatformSpec::c910());
        let fd = kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(EventKind::Hardware(HwCounter::Cycles), 500),
                None,
            )
            .unwrap();
        kernel.enable(&mut core, fd).unwrap();
        run_ops(&mut core, &mut kernel, 30_000);
        let records = kernel.drain_records(fd).unwrap();
        let samples = records
            .iter()
            .filter(|r| matches!(r, Record::Sample(_)))
            .count();
        assert!(samples > 10, "got {samples} samples");
    }

    #[test]
    fn sampling_cycles_fails_with_eopnotsupp_on_x60() {
        let (mut core, mut kernel) = boot(PlatformSpec::x60());
        let err = kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(EventKind::Hardware(HwCounter::Cycles), 500),
                None,
            )
            .unwrap_err();
        assert_eq!(err, Errno::EOPNOTSUPP);
        let err = kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(EventKind::Hardware(HwCounter::Instructions), 500),
                None,
            )
            .unwrap_err();
        assert_eq!(err, Errno::EOPNOTSUPP);
    }

    #[test]
    fn sampling_anything_fails_on_u74() {
        let (mut core, mut kernel) = boot(PlatformSpec::u74());
        for hw in [HwCounter::Cycles, HwCounter::CacheMisses] {
            let err = kernel
                .open(
                    &mut core,
                    PerfEventAttr::sampling(EventKind::Hardware(hw), 500),
                    None,
                )
                .unwrap_err();
            assert_eq!(err, Errno::EOPNOTSUPP, "{hw:?}");
        }
    }

    /// The paper's §3.3 workaround, end to end: a sampling-capable
    /// `u_mode_cycle` leader with `mcycle`/`minstret` group members whose
    /// values ride along in each sample's group read.
    #[test]
    fn x60_mode_cycle_leader_group_workaround() {
        let (mut core, mut kernel) = boot(PlatformSpec::x60());
        let umc_code = core.spec.event_code(mperf_sim::HwEvent::UModeCycles);
        let leader_attr = PerfEventAttr {
            kind: EventKind::Raw(umc_code),
            sample_period: 1000,
            sample_type: SampleType::full(),
            read_format: ReadFormat {
                group: true,
                id: true,
            },
            disabled: true,
        };
        let leader = kernel.open(&mut core, leader_attr, None).unwrap();
        let cyc = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::Cycles)),
                Some(leader),
            )
            .unwrap();
        let ins = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::Instructions)),
                Some(leader),
            )
            .unwrap();
        kernel.enable(&mut core, leader).unwrap();
        run_ops(&mut core, &mut kernel, 50_000);
        kernel.disable(&mut core, leader).unwrap();

        let records = kernel.drain_records(leader).unwrap();
        let samples: Vec<&SampleRecord> = records
            .iter()
            .filter_map(|r| match r {
                Record::Sample(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(samples.len() >= 10, "{}", samples.len());
        let cyc_id = kernel.id_of(cyc).unwrap();
        let ins_id = kernel.id_of(ins).unwrap();
        // Every sample carries all three counters.
        for s in &samples {
            assert_eq!(s.read_group.len(), 3, "{s:?}");
            assert!(s.read_group.iter().any(|(id, _)| *id == cyc_id));
            assert!(s.read_group.iter().any(|(id, _)| *id == ins_id));
            assert!(s.ip.is_some());
            assert!(!s.callchain.is_empty());
        }
        // IPC from consecutive sample deltas is finite and plausible.
        let get = |s: &SampleRecord, id: u64| {
            s.read_group
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, v)| *v)
                .expect("id present")
        };
        let (first, last) = (samples[0], samples[samples.len() - 1]);
        let dcyc = get(last, cyc_id) - get(first, cyc_id);
        let dins = get(last, ins_id) - get(first, ins_id);
        assert!(dcyc > 0 && dins > 0);
        let ipc = dins as f64 / dcyc as f64;
        assert!(ipc > 0.1 && ipc < 4.0, "ipc={ipc}");
    }

    #[test]
    fn group_member_enable_is_einval() {
        let (mut core, mut kernel) = boot(PlatformSpec::c910());
        let leader = kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(EventKind::Hardware(HwCounter::Cycles), 1000),
                None,
            )
            .unwrap();
        let member = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::Instructions)),
                Some(leader),
            )
            .unwrap();
        assert_eq!(kernel.enable(&mut core, member), Err(Errno::EINVAL));
    }

    #[test]
    fn groups_do_not_nest() {
        let (mut core, mut kernel) = boot(PlatformSpec::c910());
        let leader = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::Cycles)),
                None,
            )
            .unwrap();
        let member = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::Instructions)),
                Some(leader),
            )
            .unwrap();
        let err = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::BranchMisses)),
                Some(member),
            )
            .unwrap_err();
        assert_eq!(err, Errno::EINVAL);
    }

    #[test]
    fn counter_exhaustion_returns_enospc() {
        let (mut core, mut kernel) = boot(PlatformSpec::u74()); // 2 HPM counters
        for _ in 0..2 {
            kernel
                .open(
                    &mut core,
                    PerfEventAttr::counting(EventKind::Hardware(HwCounter::CacheMisses)),
                    None,
                )
                .unwrap();
        }
        let err = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::CacheMisses)),
                None,
            )
            .unwrap_err();
        assert_eq!(err, Errno::ENOSPC);
    }

    #[test]
    fn unknown_raw_event_is_enoent() {
        let (mut core, mut kernel) = boot(PlatformSpec::x60());
        let err = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Raw(0xdddd_dddd)),
                None,
            )
            .unwrap_err();
        assert_eq!(err, Errno::ENOENT);
    }

    #[test]
    fn close_releases_counters_members_first() {
        let (mut core, mut kernel) = boot(PlatformSpec::u74());
        let a = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::CacheMisses)),
                None,
            )
            .unwrap();
        let b = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::BranchMisses)),
                Some(a),
            )
            .unwrap();
        assert_eq!(
            kernel.close(&mut core, a),
            Err(Errno::EINVAL),
            "members first"
        );
        kernel.close(&mut core, b).unwrap();
        kernel.close(&mut core, a).unwrap();
        // Both counters free again.
        kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::CacheMisses)),
                None,
            )
            .unwrap();
        kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Hardware(HwCounter::BranchMisses)),
                None,
            )
            .unwrap();
    }

    /// A period the overflow handler's supervisor-mode cycles would use
    /// up is refused on events that count those cycles; the X60's
    /// `u_mode_cycle` leader does not count them and keeps any period.
    #[test]
    fn period_within_handler_overhead_is_einval_on_supervisor_cycles() {
        let (mut core, mut kernel) = boot(PlatformSpec::c910());
        assert!(200 <= kernel.sample_overhead_cycles);
        let cycles =
            |period| PerfEventAttr::sampling(EventKind::Hardware(HwCounter::Cycles), period);
        let err = kernel.open(&mut core, cycles(200), None).unwrap_err();
        assert_eq!(err, Errno::EINVAL);
        let over = kernel.sample_overhead_cycles + 1;
        kernel.open(&mut core, cycles(over), None).unwrap();

        let (mut core, mut kernel) = boot(PlatformSpec::x60());
        let smc = core.spec.event_code(mperf_sim::HwEvent::SModeCycles);
        let err = kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(EventKind::Raw(smc), 200),
                None,
            )
            .unwrap_err();
        assert_eq!(err, Errno::EINVAL);
        let umc = core.spec.event_code(mperf_sim::HwEvent::UModeCycles);
        let leader = kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(EventKind::Raw(umc), 200),
                None,
            )
            .unwrap();
        kernel.enable(&mut core, leader).unwrap();
        run_ops(&mut core, &mut kernel, 5_000);
        assert!(
            kernel.samples_taken() > 5,
            "u_mode_cycle keeps sampling at period 200: {}",
            kernel.samples_taken()
        );
    }

    /// Opens and enables one sampler per `(event, period)`, runs `ops`
    /// ALU ops, and returns each sampler's sample count after checking
    /// that its ring lost nothing.
    fn sample_counts(
        core: &mut Core,
        kernel: &mut PerfKernel,
        samplers: &[(EventKind, u64)],
        ops: u64,
    ) -> Vec<u64> {
        let fds: Vec<EventFd> = samplers
            .iter()
            .map(|&(kind, period)| {
                let fd = kernel
                    .open(core, PerfEventAttr::sampling(kind, period), None)
                    .unwrap();
                kernel.enable(core, fd).unwrap();
                fd
            })
            .collect();
        run_ops(core, kernel, ops);
        fds.into_iter()
            .map(|fd| {
                let records = kernel.drain_records(fd).unwrap();
                assert!(records.iter().all(|r| matches!(r, Record::Sample(_))));
                records.len() as u64
            })
            .collect()
    }

    /// Asserts that a sampler whose event counted `total` took one
    /// sample per period to the end of the run. A re-arm drops the
    /// events counted past the wrap, fewer than `slack`, so a sample
    /// covers at least `period` and less than `period + slack` events.
    fn assert_sampled_to_the_end(what: &str, samples: u64, total: u64, period: u64, slack: u64) {
        assert!(total / period > 20, "{what}: {total} events");
        assert!(
            (total / (period + slack)..=total / period).contains(&samples),
            "{what}: {samples} samples over {total} events at period {period}"
        );
    }

    /// A cycles sampler counts the handler's own cycles, so it can wrap
    /// while the handler serves another sampler. That wrap is latched
    /// and delivered when the handler returns, so both samplers keep
    /// sampling to the end of the run.
    #[test]
    fn two_samplers_both_sample_to_the_end_of_the_run() {
        let (mut core, mut kernel) = boot(PlatformSpec::c910());
        let samplers = [
            (EventKind::Hardware(HwCounter::Cycles), 1_009),
            (EventKind::Hardware(HwCounter::Instructions), 997),
        ];
        let samples = sample_counts(&mut core, &mut kernel, &samplers, 200_000);
        let slack = kernel.sample_overhead_cycles;
        assert_sampled_to_the_end("cycles", samples[0], core.cycles(), 1_009, slack);
        assert_sampled_to_the_end("instructions", samples[1], core.instructions(), 997, 1);
    }

    /// Samplers whose counters the handler's cycles advance are refused
    /// once together they would wrap at least once per handler run: a
    /// C910 `cycles` and `s_mode_cycle` sampler at twice the handler's
    /// cycles can keep re-raising the interrupt, each wrapping in the
    /// other's handler run. Below that rate the latched wraps die out:
    /// on the X60, `s_mode_cycle` samplers advanced only by the handler
    /// runs a `u_mode_cycle` sampler starts sample to the end of the
    /// run.
    #[test]
    fn handler_cycle_samplers_are_refused_at_one_wrap_per_handler_run() {
        let (mut core, mut kernel) = boot(PlatformSpec::c910());
        let overhead = kernel.sample_overhead_cycles;
        let smc = EventKind::Raw(core.spec.event_code(mperf_sim::HwEvent::SModeCycles));
        let cycles = EventKind::Hardware(HwCounter::Cycles);
        kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(cycles, 2 * overhead),
                None,
            )
            .unwrap();
        let err = kernel
            .open(&mut core, PerfEventAttr::sampling(smc, 2 * overhead), None)
            .unwrap_err();
        assert_eq!(err, Errno::EINVAL, "two samplers at half a wrap per run");
        // Instructions do not advance in the handler: any period goes.
        let instructions = EventKind::Hardware(HwCounter::Instructions);
        kernel
            .open(&mut core, PerfEventAttr::sampling(instructions, 100), None)
            .unwrap();

        let (mut core, mut kernel) = boot(PlatformSpec::x60());
        let smc = EventKind::Raw(core.spec.event_code(mperf_sim::HwEvent::SModeCycles));
        let umc = EventKind::Raw(core.spec.event_code(mperf_sim::HwEvent::UModeCycles));
        let s_cycles = kernel
            .open(&mut core, PerfEventAttr::counting(smc), None)
            .unwrap();
        kernel.enable(&mut core, s_cycles).unwrap();
        let periods = [2 * overhead + 1, 3 * overhead];
        let samplers = [(umc, 1_000), (smc, periods[0]), (smc, periods[1])];
        let samples = sample_counts(&mut core, &mut kernel, &samplers, 200_000);
        let supervisor = kernel.read(&core, s_cycles).unwrap()[0].1;
        for (period, &samples) in periods.into_iter().zip(&samples[1..]) {
            assert_sampled_to_the_end("s_mode_cycle", samples, supervisor, period, overhead);
        }
    }

    #[test]
    fn sampling_overhead_accrues_supervisor_cycles() {
        let (mut core, mut kernel) = boot(PlatformSpec::x60());
        // Program an HPM counter to count S-mode cycles so we can observe
        // the handler overhead.
        let smc_code = core.spec.event_code(mperf_sim::HwEvent::SModeCycles);
        let s_fd = kernel
            .open(
                &mut core,
                PerfEventAttr::counting(EventKind::Raw(smc_code)),
                None,
            )
            .unwrap();
        kernel.enable(&mut core, s_fd).unwrap();
        let umc = core.spec.event_code(mperf_sim::HwEvent::UModeCycles);
        let leader = kernel
            .open(
                &mut core,
                PerfEventAttr::sampling(EventKind::Raw(umc), 2000),
                None,
            )
            .unwrap();
        kernel.enable(&mut core, leader).unwrap();
        run_ops(&mut core, &mut kernel, 50_000);
        let s_cycles = kernel.read(&core, s_fd).unwrap()[0].1;
        assert!(
            s_cycles >= kernel.samples_taken() * kernel.sample_overhead_cycles,
            "supervisor time from sampling handlers: {s_cycles}"
        );
    }
}
