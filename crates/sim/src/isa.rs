//! ISA expansion models: how many target instructions one machine op
//! retires as.
//!
//! A MIR-level operation maps to a different number of retired
//! instructions per ISA — RISC-V needs explicit address arithmetic where
//! x86 folds it into addressing modes, while x86 two-operand destructive
//! encodings, register pressure, and CISC decomposition inflate its
//! dynamic count on branchy integer code. Real ratios come from real
//! compilers; these tables are *calibrated inputs* (see DESIGN.md §5) so
//! that the sqlite workload reproduces Table 2's ~1.8× x86/RISC-V
//! retired-instruction ratio. The claim the reproduction makes is about
//! IPC and hotspot shape, not about deriving codegen from first
//! principles.

use crate::machine_op::OpClass;

/// Per-class instruction expansion (fixed-point: units of 1/8 instruction,
/// accumulated deterministically so long runs hit the exact ratio).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaModel {
    /// Human-readable ISA name.
    pub name: &'static str,
    /// Expansion numerators in eighths (8 = exactly one instruction).
    eighths: [u16; OpClass::COUNT],
    /// Deterministic rounding accumulators per class.
    acc: [u16; OpClass::COUNT],
}

impl OpClass {
    /// Number of op classes (table size).
    pub const COUNT: usize = 19;

    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::IntDiv => 2,
            OpClass::AddrCalc => 3,
            OpClass::FpAdd => 4,
            OpClass::FpMul => 5,
            OpClass::FpDiv => 6,
            OpClass::FpFma => 7,
            OpClass::FpCvt => 8,
            OpClass::Load => 9,
            OpClass::Store => 10,
            OpClass::VecAlu => 11,
            OpClass::VecFma => 12,
            OpClass::VecLoad => 13,
            OpClass::VecStore => 14,
            OpClass::VecShuffle => 15,
            OpClass::Branch => 16,
            OpClass::CallRet => 17,
            OpClass::Move => 18,
        }
    }
}

impl IsaModel {
    /// RV64GCV-style expansion: essentially 1:1 (MIR is RISC-shaped), with
    /// call overhead for save/restore sequences.
    pub fn rv64gcv() -> IsaModel {
        let mut eighths = [8u16; OpClass::COUNT];
        eighths[OpClass::CallRet.index()] = 24; // call + save/restore ≈ 3
        IsaModel {
            name: "rv64gcv",
            eighths,
            acc: [0; OpClass::COUNT],
        }
    }

    /// x86-64 expansion, calibrated for the Table 2 instruction ratio:
    /// address math folds into addressing modes (0), but ALU-heavy
    /// interpreter code expands (two-operand destructive ops, flag
    /// management, spills).
    pub fn x86_64() -> IsaModel {
        let mut eighths = [8u16; OpClass::COUNT];
        eighths[OpClass::AddrCalc.index()] = 0; // folded into [base+idx*s]
        eighths[OpClass::IntAlu.index()] = 20; // 2.5 retired per MIR ALU op
        eighths[OpClass::Move.index()] = 16; // extra reg-reg traffic
        eighths[OpClass::Load.index()] = 12;
        eighths[OpClass::Store.index()] = 12;
        eighths[OpClass::Branch.index()] = 16; // cmp+jcc pairs
        eighths[OpClass::CallRet.index()] = 32;
        IsaModel {
            name: "x86_64",
            eighths,
            acc: [0; OpClass::COUNT],
        }
    }

    /// Expansion for one op of `class`: how many instructions retire now.
    /// Deterministic accumulator rounding: over N ops the total
    /// approaches `N * eighths/8` exactly.
    pub fn expand(&mut self, class: OpClass) -> u32 {
        let i = class.index();
        let total = self.acc[i] + self.eighths[i];
        let whole = total / 8;
        self.acc[i] = total % 8;
        whole as u32
    }

    /// The average expansion factor for a class (as a float, for reports).
    pub fn factor(&self, class: OpClass) -> f64 {
        self.eighths[class.index()] as f64 / 8.0
    }

    /// Upper bound on the instructions any single op can expand to
    /// (ceiling of the largest per-class factor) — used to bound a
    /// superblock's event total (see [`crate::Core::block_ready`]).
    pub fn max_expansion(&self) -> u64 {
        let max_eighths = self.eighths.iter().copied().max().unwrap_or(8) as u64;
        max_eighths.div_ceil(8)
    }

    /// Reset rounding accumulators (between measurement phases).
    pub fn reset(&mut self) {
        self.acc = [0; OpClass::COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riscv_is_mostly_one_to_one() {
        let mut isa = IsaModel::rv64gcv();
        assert_eq!(isa.expand(OpClass::IntAlu), 1);
        assert_eq!(isa.expand(OpClass::Load), 1);
        assert_eq!(isa.expand(OpClass::CallRet), 3);
    }

    #[test]
    fn x86_folds_address_math() {
        let mut isa = IsaModel::x86_64();
        for _ in 0..10 {
            assert_eq!(isa.expand(OpClass::AddrCalc), 0);
        }
    }

    #[test]
    fn fractional_expansion_accumulates_exactly() {
        let mut isa = IsaModel::x86_64();
        // IntAlu = 20/8 = 2.5: over 8 ops exactly 20 instructions.
        let total: u32 = (0..8).map(|_| isa.expand(OpClass::IntAlu)).sum();
        assert_eq!(total, 20);
        // Load = 12/8 = 1.5: over 4 ops exactly 6.
        isa.reset();
        let total: u32 = (0..4).map(|_| isa.expand(OpClass::Load)).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn factor_reports_average() {
        let isa = IsaModel::x86_64();
        assert!((isa.factor(OpClass::IntAlu) - 2.5).abs() < 1e-9);
        assert!((isa.factor(OpClass::AddrCalc)).abs() < 1e-9);
    }
}
