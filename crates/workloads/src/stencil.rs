//! 5-point Jacobi stencil: the third domain example (a typical HPC
//! kernel with intermediate arithmetic intensity).

use mperf_vm::{Value, Vm, VmError};

/// The MiniC source of the kernel.
pub const SOURCE: &str = r#"
fn jacobi_step(dst: *f64, src: *f64, n: i64) {
    for (var i: i64 = 1; i < n - 1; i = i + 1) {
        var row: i64 = i * n;
        for (var j: i64 = 1; j < n - 1; j = j + 1) {
            var idx: i64 = row + j;
            dst[idx] = 0.25 * (src[idx - 1] + src[idx + 1]
                             + src[idx - n] + src[idx + n]);
        }
    }
}

fn jacobi(a: *f64, b: *f64, n: i64, steps: i64) {
    for (var s: i64 = 0; s < steps; s = s + 1) {
        if (s % 2 == 0) {
            jacobi_step(b, a, n);
        } else {
            jacobi_step(a, b, n);
        }
    }
}
"#;

/// Entry function name.
pub const ENTRY: &str = "jacobi";

/// Parameters for the stencil sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilBench {
    /// Grid dimension (n×n, f64).
    pub n: usize,
    pub steps: usize,
}

impl Default for StencilBench {
    fn default() -> Self {
        StencilBench { n: 128, steps: 8 }
    }
}

impl StencilBench {
    /// Stage the two grids (hot boundary at the top edge); returns args.
    ///
    /// # Errors
    /// Propagates guest allocator failures.
    pub fn setup(&self, vm: &mut Vm) -> Result<Vec<Value>, VmError> {
        let n = self.n as u64;
        let a = vm.mem.alloc(n * n * 8, 64)?;
        let b = vm.mem.alloc(n * n * 8, 64)?;
        for j in 0..n {
            vm.mem.write_f64(a + j * 8, 100.0)?; // hot top row
            vm.mem.write_f64(b + j * 8, 100.0)?;
        }
        Ok(vec![
            Value::I64(a as i64),
            Value::I64(b as i64),
            Value::I64(self.n as i64),
            Value::I64(self.steps as i64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::compile_for;
    use mperf_sim::{Core, Platform};

    #[test]
    fn heat_diffuses_from_hot_edge() {
        let bench = StencilBench { n: 32, steps: 6 };
        let module = compile_for("j", SOURCE, Platform::TheadC910, false).unwrap();
        let mut vm = Vm::new(&module, Core::new(Platform::TheadC910.spec()));
        let args = bench.setup(&mut vm).unwrap();
        let a = args[0].as_i64() as u64;
        let b = args[1].as_i64() as u64;
        vm.call(ENTRY, &args).unwrap();
        // After an even number of steps the result lives in `a`... the
        // last write with steps=6 goes into `a` (s=5 odd writes a).
        let read_grid =
            |vm: &Vm, base: u64, i: u64, j: u64| vm.mem.read_f64(base + (i * 32 + j) * 8).unwrap();
        let near_hot = read_grid(&vm, a, 1, 16).max(read_grid(&vm, b, 1, 16));
        let far = read_grid(&vm, a, 30, 16).max(read_grid(&vm, b, 30, 16));
        assert!(near_hot > 1.0, "heat reached row 1: {near_hot}");
        assert!(near_hot > far, "gradient from the hot edge");
    }

    #[test]
    fn runs_on_all_platforms() {
        let bench = StencilBench { n: 24, steps: 2 };
        for p in Platform::ALL {
            let module = compile_for("j", SOURCE, p, false).unwrap();
            let mut vm = Vm::new(&module, Core::new(p.spec()));
            let args = bench.setup(&mut vm).unwrap();
            vm.call(ENTRY, &args).unwrap();
        }
    }
}
