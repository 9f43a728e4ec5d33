//! Platform models: the three RISC-V cores the paper surveys (Table 1)
//! plus the x86 comparison part, with identity registers, timing
//! parameters, vendor event encodings, and PMU quirks.

use crate::cache::{CacheConfig, LevelConfig};
use crate::events::HwEvent;
use crate::isa::IsaModel;
use crate::machine_op::OpClass;

/// The modeled parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// SpacemiT X60 (Banana Pi F3 / Milk-V Jupiter): in-order, RVV 1.0,
    /// overflow interrupts only on non-standard mode-cycle counters.
    SpacemitX60,
    /// T-Head C910 (Lichee Pi 4A): out-of-order, RVV 0.7.1, full
    /// Sscofpmf-style sampling, vendor kernel.
    TheadC910,
    /// SiFive U74 (VisionFive 2): in-order, no vector unit, no overflow
    /// interrupts, good upstream support.
    SifiveU74,
    /// Intel Core i5-1135G7: the paper's x86 comparison platform.
    IntelI5_1135G7,
}

impl Platform {
    /// All modeled platforms, in Table 1 order plus the x86 part.
    pub const ALL: [Platform; 4] = [
        Platform::SifiveU74,
        Platform::TheadC910,
        Platform::SpacemitX60,
        Platform::IntelI5_1135G7,
    ];

    /// The spec for this platform.
    pub fn spec(self) -> PlatformSpec {
        match self {
            Platform::SpacemitX60 => PlatformSpec::x60(),
            Platform::TheadC910 => PlatformSpec::c910(),
            Platform::SifiveU74 => PlatformSpec::u74(),
            Platform::IntelI5_1135G7 => PlatformSpec::i5_1135g7(),
        }
    }
}

/// Machine identity registers. `miniperf` detects hardware through these
/// rather than perf's event discovery (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuId {
    pub mvendorid: u64,
    pub marchid: u64,
    pub mimpid: u64,
}

/// Overflow-interrupt (Sscofpmf-style sampling) support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SscofpmfSupport {
    /// No counter can raise an overflow interrupt (SiFive U74).
    None,
    /// Every counter can (T-Head C910; x86 PMI).
    All,
    /// Only counters programmed with the non-standard mode-cycle events
    /// can (SpacemiT X60: `u/s/m_mode_cycle`; `mcycle`/`minstret` cannot).
    ModeCycleOnly,
}

/// Mainline-kernel integration level (Table 1's last row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpstreamSupport {
    Yes,
    Partial,
    No,
}

impl std::fmt::Display for UpstreamSupport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpstreamSupport::Yes => write!(f, "Yes"),
            UpstreamSupport::Partial => write!(f, "Partial"),
            UpstreamSupport::No => write!(f, "No"),
        }
    }
}

/// Vector unit description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorSpec {
    pub vlen_bits: u32,
    /// ISA label shown in Table 1 ("1.0", "0.7.1", "AVX2").
    pub version: &'static str,
}

/// Inverse throughputs per op class, in centi-cycles per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingTable {
    entries: [u32; OpClass::COUNT],
}

impl TimingTable {
    /// Inverse throughput (centi-cycles) for a class.
    pub fn inv_tp(&self, class: OpClass) -> u64 {
        self.entries[class.index()] as u64
    }

    /// The largest inverse throughput over all classes (centi-cycles) —
    /// used to bound the cycle cost of a superblock up front (see
    /// [`crate::Core::block_ready`]).
    pub fn max_inv_tp(&self) -> u64 {
        self.entries.iter().copied().max().unwrap_or(0) as u64
    }
}

/// Execution units for the out-of-order per-unit occupancy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    Int,
    Mem,
    FpVec,
    Branch,
}

impl Unit {
    /// Number of units tracked.
    pub const COUNT: usize = 4;

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            Unit::Int => 0,
            Unit::Mem => 1,
            Unit::FpVec => 2,
            Unit::Branch => 3,
        }
    }

    /// The unit an op class executes on.
    pub fn of(class: OpClass) -> Unit {
        match class {
            OpClass::IntAlu
            | OpClass::IntMul
            | OpClass::IntDiv
            | OpClass::AddrCalc
            | OpClass::Move => Unit::Int,
            OpClass::Load | OpClass::Store | OpClass::VecLoad | OpClass::VecStore => Unit::Mem,
            OpClass::FpAdd
            | OpClass::FpMul
            | OpClass::FpDiv
            | OpClass::FpFma
            | OpClass::FpCvt
            | OpClass::VecAlu
            | OpClass::VecFma
            | OpClass::VecShuffle => Unit::FpVec,
            OpClass::Branch | OpClass::CallRet => Unit::Branch,
        }
    }
}

/// Full description of a modeled platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    pub platform: Platform,
    pub name: &'static str,
    /// Board the paper associates with the core (context for reports).
    pub board: &'static str,
    pub cpu_id: CpuId,
    pub freq_hz: u64,
    pub out_of_order: bool,
    pub issue_width: u32,
    /// Fraction of memory stall cycles an OoO core hides (divisor).
    pub ooo_mem_overlap: u32,
    /// Extra cycles charged per scalar load on in-order cores
    /// (average load-use dependency exposure).
    pub load_use_penalty: u32,
    /// Fetch-redirect bubble on *taken* branches (in-order cores pay
    /// this even when predicted correctly; 0 on the OoO models).
    pub taken_branch_bubble: u32,
    pub branch_mispredict_penalty: u32,
    pub predictor_index_bits: u32,
    /// Implemented `mhpmcounter`s.
    pub num_hpm_counters: usize,
    pub caches: CacheConfig,
    pub vector: Option<VectorSpec>,
    pub sscofpmf: SscofpmfSupport,
    pub upstream_linux: UpstreamSupport,
    pub timing: TimingTable,
    /// Extra per-lane occupancy multiplier (centi-cycles) for non-unit
    /// stride vector memory ops (gather/scatter cost).
    pub strided_lane_penalty_centi: u32,
    /// PMU FP-op event overcount factor in percent (100 = exact). Models
    /// what hardware counters report vs architecturally retired FLOPs:
    /// out-of-order cores count speculatively executed and masked-lane
    /// operations, which is the methodology gap behind Intel Advisor
    /// reporting 47.72 GFLOP/s where the kernel self-reports 33 (paper
    /// §5.2, Fig. 4).
    pub fp_event_percent: u32,
    isa_kind: IsaKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsaKind {
    Rv64gcv,
    X86_64,
}

impl PlatformSpec {
    /// Fresh ISA-expansion state for this platform.
    pub fn isa_model(&self) -> IsaModel {
        match self.isa_kind {
            IsaKind::Rv64gcv => IsaModel::rv64gcv(),
            IsaKind::X86_64 => IsaModel::x86_64(),
        }
    }

    /// Whether a counter programmed with `ev` can raise an overflow
    /// interrupt on this platform. This is the quirk matrix behind the
    /// paper's Table 1 "Overflow interrupt support" row.
    pub fn irq_capable(&self, ev: HwEvent) -> bool {
        match self.sscofpmf {
            SscofpmfSupport::None => false,
            SscofpmfSupport::All => true,
            SscofpmfSupport::ModeCycleOnly => ev.is_mode_cycle(),
        }
    }

    /// Vendor event encoding: the `mhpmevent` code for an event source.
    /// Codes are implementation-defined (paper §3.1); each platform uses
    /// a distinct synthetic encoding to keep the SBI plumbing honest.
    pub fn event_code(&self, ev: HwEvent) -> u64 {
        let base: u64 = match self.platform {
            Platform::SpacemitX60 => 0x10,
            Platform::TheadC910 => 0x40,
            Platform::SifiveU74 => 0x200,
            Platform::IntelI5_1135G7 => 0x3c00,
        };
        match ev {
            // The X60's non-standard sampling-capable counters live in a
            // separate vendor range (mirrors the vendor kernel sources the
            // paper examined).
            HwEvent::UModeCycles => base + 0x4001,
            HwEvent::SModeCycles => base + 0x4002,
            HwEvent::MModeCycles => base + 0x4003,
            HwEvent::CpuCycles => base,
            HwEvent::Instructions => base + 1,
            HwEvent::L1dAccess => base + 2,
            HwEvent::L1dMiss => base + 3,
            HwEvent::L2Miss => base + 4,
            HwEvent::Branches => base + 5,
            HwEvent::BranchMisses => base + 6,
            HwEvent::FpOps => base + 7,
            HwEvent::VecInstructions => base + 8,
            HwEvent::DramBytes => base + 9,
        }
    }

    /// Decode a vendor event code back to the event source.
    pub fn decode_event(&self, code: u64) -> Option<HwEvent> {
        HwEvent::ALL
            .iter()
            .copied()
            .find(|&ev| self.event_code(ev) == code)
    }

    /// SpacemiT X60 model (Banana Pi F3): 1.6 GHz dual-issue in-order,
    /// RVV 1.0 @ VLEN 256, DRAM calibrated to ~3.16 B/cycle (the memset
    /// figure the paper uses for the bandwidth roof).
    pub fn x60() -> PlatformSpec {
        PlatformSpec {
            platform: Platform::SpacemitX60,
            name: "SpacemiT X60",
            board: "Banana Pi F3",
            cpu_id: CpuId {
                mvendorid: 0x710,
                marchid: 0x8000_0000_5800_0001,
                mimpid: 0x0000_0000_0100_0000,
            },
            freq_hz: 1_600_000_000,
            out_of_order: false,
            issue_width: 2,
            ooo_mem_overlap: 1,
            load_use_penalty: 2,
            taken_branch_bubble: 1,
            branch_mispredict_penalty: 12,
            predictor_index_bits: 12,
            num_hpm_counters: 8,
            caches: CacheConfig {
                l1d: LevelConfig {
                    size_bytes: 32 * 1024,
                    ways: 8,
                    latency: 3,
                },
                l2: LevelConfig {
                    size_bytes: 512 * 1024,
                    ways: 8,
                    latency: 12,
                },
                dram_latency: 90,
                dram_bytes_per_cycle: 3.16,
            },
            vector: Some(VectorSpec {
                vlen_bits: 256,
                version: "1.0",
            }),
            sscofpmf: SscofpmfSupport::ModeCycleOnly,
            upstream_linux: UpstreamSupport::No,
            timing: TimingTable {
                entries: timing_entries(&[
                    (OpClass::IntAlu, 50),
                    (OpClass::IntMul, 100),
                    (OpClass::IntDiv, 2000),
                    (OpClass::AddrCalc, 50),
                    (OpClass::FpAdd, 100),
                    (OpClass::FpMul, 100),
                    (OpClass::FpDiv, 1800),
                    (OpClass::FpFma, 100),
                    (OpClass::FpCvt, 100),
                    (OpClass::Load, 100),
                    (OpClass::Store, 100),
                    (OpClass::VecAlu, 100),
                    (OpClass::VecFma, 100),
                    (OpClass::VecLoad, 100),
                    (OpClass::VecStore, 100),
                    (OpClass::VecShuffle, 200),
                    (OpClass::Branch, 50),
                    (OpClass::CallRet, 200),
                    (OpClass::Move, 50),
                ]),
            },
            fp_event_percent: 100,
            strided_lane_penalty_centi: 100,
            isa_kind: IsaKind::Rv64gcv,
        }
    }

    /// T-Head C910 model (Lichee Pi 4A): 2.0 GHz 3-wide out-of-order,
    /// RVV 0.7.1 @ VLEN 128, full overflow-interrupt support.
    pub fn c910() -> PlatformSpec {
        PlatformSpec {
            platform: Platform::TheadC910,
            name: "T-Head C910",
            board: "Lichee Pi 4A",
            cpu_id: CpuId {
                mvendorid: 0x5b7,
                marchid: 0x0000_0000_0910_0000,
                mimpid: 0x0000_0000_0910_0000,
            },
            freq_hz: 2_000_000_000,
            out_of_order: true,
            issue_width: 3,
            ooo_mem_overlap: 3,
            load_use_penalty: 0,
            taken_branch_bubble: 0,
            branch_mispredict_penalty: 12,
            predictor_index_bits: 13,
            num_hpm_counters: 16,
            caches: CacheConfig {
                l1d: LevelConfig {
                    size_bytes: 64 * 1024,
                    ways: 4,
                    latency: 3,
                },
                l2: LevelConfig {
                    size_bytes: 1024 * 1024,
                    ways: 16,
                    latency: 14,
                },
                dram_latency: 100,
                dram_bytes_per_cycle: 6.0,
            },
            vector: Some(VectorSpec {
                vlen_bits: 128,
                version: "0.7.1",
            }),
            sscofpmf: SscofpmfSupport::All,
            upstream_linux: UpstreamSupport::Partial,
            timing: TimingTable {
                entries: timing_entries(&[
                    (OpClass::IntAlu, 34),
                    (OpClass::IntMul, 70),
                    (OpClass::IntDiv, 1500),
                    (OpClass::AddrCalc, 34),
                    (OpClass::FpAdd, 50),
                    (OpClass::FpMul, 50),
                    (OpClass::FpDiv, 1200),
                    (OpClass::FpFma, 50),
                    (OpClass::FpCvt, 50),
                    (OpClass::Load, 50),
                    (OpClass::Store, 100),
                    (OpClass::VecAlu, 100),
                    (OpClass::VecFma, 100),
                    (OpClass::VecLoad, 100),
                    (OpClass::VecStore, 100),
                    (OpClass::VecShuffle, 150),
                    (OpClass::Branch, 50),
                    (OpClass::CallRet, 150),
                    (OpClass::Move, 34),
                ]),
            },
            fp_event_percent: 118,
            strided_lane_penalty_centi: 80,
            isa_kind: IsaKind::Rv64gcv,
        }
    }

    /// SiFive U74 model (VisionFive 2): 1.5 GHz dual-issue in-order, no
    /// vector unit, no overflow interrupts, good upstream support.
    pub fn u74() -> PlatformSpec {
        PlatformSpec {
            platform: Platform::SifiveU74,
            name: "SiFive U74",
            board: "VisionFive 2",
            cpu_id: CpuId {
                mvendorid: 0x489,
                marchid: 0x8000_0000_0000_0007,
                mimpid: 0x0000_0000_0421_0427,
            },
            freq_hz: 1_500_000_000,
            out_of_order: false,
            issue_width: 2,
            ooo_mem_overlap: 1,
            load_use_penalty: 1,
            taken_branch_bubble: 1,
            branch_mispredict_penalty: 6,
            predictor_index_bits: 11,
            num_hpm_counters: 2,
            caches: CacheConfig {
                l1d: LevelConfig {
                    size_bytes: 32 * 1024,
                    ways: 8,
                    latency: 2,
                },
                l2: LevelConfig {
                    size_bytes: 2 * 1024 * 1024,
                    ways: 16,
                    latency: 21,
                },
                dram_latency: 110,
                dram_bytes_per_cycle: 2.6,
            },
            vector: None,
            sscofpmf: SscofpmfSupport::None,
            upstream_linux: UpstreamSupport::Yes,
            timing: TimingTable {
                entries: timing_entries(&[
                    (OpClass::IntAlu, 50),
                    (OpClass::IntMul, 150),
                    (OpClass::IntDiv, 3000),
                    (OpClass::AddrCalc, 50),
                    (OpClass::FpAdd, 150),
                    (OpClass::FpMul, 150),
                    (OpClass::FpDiv, 2500),
                    (OpClass::FpFma, 150),
                    (OpClass::FpCvt, 100),
                    (OpClass::Load, 100),
                    (OpClass::Store, 100),
                    (OpClass::VecAlu, 100_000),
                    (OpClass::VecFma, 100_000),
                    (OpClass::VecLoad, 100_000),
                    (OpClass::VecStore, 100_000),
                    (OpClass::VecShuffle, 100_000),
                    (OpClass::Branch, 50),
                    (OpClass::CallRet, 200),
                    (OpClass::Move, 50),
                ]),
            },
            fp_event_percent: 100,
            strided_lane_penalty_centi: 200,
            isa_kind: IsaKind::Rv64gcv,
        }
    }

    /// Intel Core i5-1135G7 model: 4.2 GHz (single-core turbo)
    /// out-of-order with AVX2 (256-bit) and hardware gathers. The issue
    /// width is the *effective sustained* width (4), not the nominal
    /// decode width; the model has no other frontend constraints.
    pub fn i5_1135g7() -> PlatformSpec {
        PlatformSpec {
            platform: Platform::IntelI5_1135G7,
            name: "Intel Core i5-1135G7",
            board: "x86 laptop",
            cpu_id: CpuId {
                mvendorid: 0x8086,
                marchid: 0x806c1,
                mimpid: 0x806c1,
            },
            freq_hz: 4_200_000_000,
            out_of_order: true,
            issue_width: 4,
            ooo_mem_overlap: 5,
            load_use_penalty: 0,
            taken_branch_bubble: 0,
            branch_mispredict_penalty: 15,
            predictor_index_bits: 15,
            num_hpm_counters: 8,
            caches: CacheConfig {
                l1d: LevelConfig {
                    size_bytes: 48 * 1024,
                    ways: 12,
                    latency: 5,
                },
                l2: LevelConfig {
                    size_bytes: 1280 * 1024,
                    ways: 20,
                    latency: 13,
                },
                dram_latency: 90,
                dram_bytes_per_cycle: 12.0,
            },
            vector: Some(VectorSpec {
                vlen_bits: 256,
                version: "AVX2",
            }),
            sscofpmf: SscofpmfSupport::All,
            upstream_linux: UpstreamSupport::Yes,
            timing: TimingTable {
                entries: timing_entries(&[
                    (OpClass::IntAlu, 25),
                    (OpClass::IntMul, 33),
                    (OpClass::IntDiv, 800),
                    (OpClass::AddrCalc, 25),
                    (OpClass::FpAdd, 50),
                    (OpClass::FpMul, 50),
                    (OpClass::FpDiv, 600),
                    (OpClass::FpFma, 50),
                    (OpClass::FpCvt, 50),
                    (OpClass::Load, 50),
                    (OpClass::Store, 100),
                    (OpClass::VecAlu, 50),
                    (OpClass::VecFma, 50),
                    (OpClass::VecLoad, 50),
                    (OpClass::VecStore, 100),
                    (OpClass::VecShuffle, 100),
                    (OpClass::Branch, 50),
                    (OpClass::CallRet, 100),
                    (OpClass::Move, 25),
                ]),
            },
            fp_event_percent: 140,
            strided_lane_penalty_centi: 25,
            isa_kind: IsaKind::X86_64,
        }
    }
}

fn timing_entries(pairs: &[(OpClass, u32)]) -> [u32; OpClass::COUNT] {
    let mut entries = [100u32; OpClass::COUNT];
    for &(c, v) in pairs {
        entries[c.index()] = v;
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_platforms_build() {
        for p in Platform::ALL {
            let spec = p.spec();
            assert_eq!(spec.platform, p);
            assert!(spec.freq_hz > 0);
            assert!(spec.issue_width > 0);
        }
    }

    #[test]
    fn quirk_matrix_matches_table1() {
        // U74: no overflow interrupts at all.
        let u74 = PlatformSpec::u74();
        assert!(!u74.irq_capable(HwEvent::CpuCycles));
        assert!(!u74.irq_capable(HwEvent::UModeCycles));
        // C910: everything.
        let c910 = PlatformSpec::c910();
        assert!(c910.irq_capable(HwEvent::CpuCycles));
        assert!(c910.irq_capable(HwEvent::L1dMiss));
        // X60: only the non-standard mode-cycle events.
        let x60 = PlatformSpec::x60();
        assert!(!x60.irq_capable(HwEvent::CpuCycles));
        assert!(!x60.irq_capable(HwEvent::Instructions));
        assert!(x60.irq_capable(HwEvent::UModeCycles));
        assert!(x60.irq_capable(HwEvent::SModeCycles));
        assert!(x60.irq_capable(HwEvent::MModeCycles));
    }

    #[test]
    fn vector_support_matches_table1() {
        assert!(PlatformSpec::u74().vector.is_none());
        assert_eq!(PlatformSpec::x60().vector.unwrap().version, "1.0");
        assert_eq!(PlatformSpec::c910().vector.unwrap().version, "0.7.1");
    }

    #[test]
    fn event_codes_roundtrip() {
        for p in Platform::ALL {
            let spec = p.spec();
            for ev in HwEvent::ALL {
                let code = spec.event_code(ev);
                assert_eq!(spec.decode_event(code), Some(ev), "{:?} {ev}", p);
            }
            assert_eq!(spec.decode_event(0xdead_beef), None);
        }
    }

    #[test]
    fn event_codes_differ_across_vendors() {
        let x60 = PlatformSpec::x60();
        let c910 = PlatformSpec::c910();
        assert_ne!(
            x60.event_code(HwEvent::L1dMiss),
            c910.event_code(HwEvent::L1dMiss),
            "vendor event spaces must differ (they are implementation-defined)"
        );
    }

    #[test]
    fn x60_bandwidth_matches_memset_figure() {
        let x60 = PlatformSpec::x60();
        let gbps = x60.caches.dram_bytes_per_cycle * x60.freq_hz as f64 / 1e9;
        assert!(
            (gbps - 5.056).abs() < 0.1,
            "3.16 B/c * 1.6 GHz ≈ 5.06 GB/s raw: {gbps}"
        );
    }

    #[test]
    fn x60_theoretical_vector_peak_is_25_6_gflops() {
        // 1 vfma/cycle × 8 SP lanes × 2 flops × 1.6 GHz = 25.6 GFLOP/s.
        let x60 = PlatformSpec::x60();
        let fma_per_cycle = 100.0 / x60.timing.inv_tp(OpClass::VecFma) as f64;
        let lanes = (x60.vector.unwrap().vlen_bits / 32) as f64;
        let gflops = fma_per_cycle * lanes * 2.0 * x60.freq_hz as f64 / 1e9;
        assert!((gflops - 25.6).abs() < 0.01, "{gflops}");
    }

    #[test]
    fn unit_mapping_covers_all_classes() {
        // Every class maps to a unit without panicking.
        for c in [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::AddrCalc,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::FpFma,
            OpClass::FpCvt,
            OpClass::Load,
            OpClass::Store,
            OpClass::VecAlu,
            OpClass::VecFma,
            OpClass::VecLoad,
            OpClass::VecStore,
            OpClass::VecShuffle,
            OpClass::Branch,
            OpClass::CallRet,
            OpClass::Move,
        ] {
            let _ = Unit::of(c);
        }
    }

    #[test]
    fn cpu_ids_are_distinct() {
        let mut ids: Vec<u64> = Platform::ALL
            .iter()
            .map(|p| p.spec().cpu_id.mvendorid)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }
}
