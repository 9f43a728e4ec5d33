//! Machine-level operations: what the VM's lowering produces and the core
//! consumes. One `MachineOp` retires as one or more ISA instructions
//! (see [`crate::isa::IsaModel`]).

/// A memory reference attached to a machine op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Guest byte address of the first lane.
    pub addr: u64,
    /// Bytes per lane.
    pub bytes: u32,
    /// Number of lanes (1 for scalar accesses).
    pub lanes: u32,
    /// Byte distance between lanes.
    pub stride: i64,
    pub is_store: bool,
}

impl MemRef {
    /// A scalar access.
    pub fn scalar(addr: u64, bytes: u32, is_store: bool) -> MemRef {
        MemRef {
            addr,
            bytes,
            lanes: 1,
            stride: bytes as i64,
            is_store,
        }
    }

    /// Whether this is a unit-stride access.
    pub fn is_unit_stride(&self) -> bool {
        self.stride == self.bytes as i64
    }

    /// Total bytes touched.
    pub fn total_bytes(&self) -> u64 {
        self.bytes as u64 * self.lanes as u64
    }

    /// The distinct cache-line addresses touched (line size 64).
    pub fn lines(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_line(|l| out.push(l));
        out
    }

    /// Visit each distinct cache-line address touched (line size 64), in
    /// first-touch order, without allocating — this sits on the per-op
    /// retire path for every strided memory access (scalar and
    /// unit-stride ones walk their contiguous line range directly).
    #[inline]
    pub fn for_each_line(&self, mut f: impl FnMut(u64)) {
        let first = self.addr / 64;
        let last = (self.addr + self.bytes as u64 - 1) / 64;
        if self.lanes <= 1 {
            // A single lane's line range is distinct by construction.
            for l in first..=last {
                f(l);
            }
            return;
        }
        // Multi-lane: dedup through a small inline window (lanes are
        // SIMD-width-bounded, so this covers real programs; a spill
        // vector keeps pathological shapes correct).
        let mut seen = [0u64; 32];
        let mut n = 0usize;
        let mut spill: Vec<u64> = Vec::new();
        for lane in 0..self.lanes {
            let a = self.addr.wrapping_add_signed(self.stride * lane as i64);
            let first = a / 64;
            let last = (a + self.bytes as u64 - 1) / 64;
            for l in first..=last {
                if seen[..n].contains(&l) || spill.contains(&l) {
                    continue;
                }
                if n < seen.len() {
                    seen[n] = l;
                    n += 1;
                } else {
                    spill.push(l);
                }
                f(l);
            }
        }
    }
}

/// Operation class, used by the timing model and the ISA expansion table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU op (add/sub/logic/shift/compare).
    IntAlu,
    IntMul,
    IntDiv,
    /// Address arithmetic (`ptradd`); folds into addressing modes on x86.
    AddrCalc,
    FpAdd,
    FpMul,
    FpDiv,
    /// Fused multiply-add (2 FLOPs).
    FpFma,
    /// Conversions and moves between register classes.
    FpCvt,
    Load,
    Store,
    /// Vector arithmetic (per-instruction; FLOPs counted via `fp_lanes`).
    VecAlu,
    VecFma,
    VecLoad,
    VecStore,
    /// Vector lane broadcast / horizontal reduce.
    VecShuffle,
    /// Conditional or unconditional control transfer.
    Branch,
    /// Call/return overhead op.
    CallRet,
    /// Register move / no-op class.
    Move,
}

/// A machine operation: class + optional memory reference + branch info.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineOp {
    pub class: OpClass,
    /// Synthetic program counter (function id in high bits); used for
    /// branch prediction indexing and PMU sample IPs.
    pub pc: u64,
    pub mem: Option<MemRef>,
    /// For `Branch`: whether it was taken (drives the predictor).
    pub taken: bool,
    /// FLOPs retired by this op (lanes × (2 for FMA, 1 otherwise)).
    pub flops: u32,
}

impl MachineOp {
    /// A non-memory, non-branch op.
    pub fn simple(class: OpClass, pc: u64) -> MachineOp {
        MachineOp {
            class,
            pc,
            mem: None,
            taken: false,
            flops: 0,
        }
    }

    /// Attach a memory reference.
    pub fn with_mem(mut self, mem: MemRef) -> MachineOp {
        self.mem = Some(mem);
        self
    }

    /// Attach a FLOP count.
    pub fn with_flops(mut self, flops: u32) -> MachineOp {
        self.flops = flops;
        self
    }

    /// Mark a branch outcome.
    pub fn with_taken(mut self, taken: bool) -> MachineOp {
        self.taken = taken;
        self
    }

    /// Whether the class is a vector operation.
    pub fn is_vector(&self) -> bool {
        matches!(
            self.class,
            OpClass::VecAlu
                | OpClass::VecFma
                | OpClass::VecLoad
                | OpClass::VecStore
                | OpClass::VecShuffle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_detection() {
        let m = MemRef::scalar(0x1000, 8, false);
        assert!(m.is_unit_stride());
        let s = MemRef {
            addr: 0,
            bytes: 4,
            lanes: 8,
            stride: 256,
            is_store: false,
        };
        assert!(!s.is_unit_stride());
        assert_eq!(s.total_bytes(), 32);
    }

    #[test]
    fn line_computation_contiguous() {
        let m = MemRef {
            addr: 60,
            bytes: 4,
            lanes: 8,
            stride: 4,
            is_store: false,
        };
        // 60..92 touches lines 0 and 1.
        assert_eq!(m.lines(), vec![0, 1]);
    }

    #[test]
    fn line_computation_strided() {
        let m = MemRef {
            addr: 0,
            bytes: 4,
            lanes: 4,
            stride: 128,
            is_store: false,
        };
        assert_eq!(m.lines(), vec![0, 2, 4, 6]);
    }

    #[test]
    fn builders() {
        let op = MachineOp::simple(OpClass::VecFma, 7)
            .with_flops(16)
            .with_taken(false);
        assert!(op.is_vector());
        assert_eq!(op.flops, 16);
        assert_eq!(op.pc, 7);
    }
}
