//! # mperf-bench — evaluation harness
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 — platform capability matrix (derived by probing) |
//! | `table2` | Table 2 — sqlite3 hotspots: Total %, Instructions, IPC |
//! | `fig1`   | Fig. 1 — PMU software-layer architecture (live trace) |
//! | `fig2`   | Fig. 2 — two-phase instrumented workflow (live trace) |
//! | `fig3`   | Fig. 3 — four flame graphs (cycles/instructions × X60/i5) |
//! | `fig4`   | Fig. 4 — roofline for the tiled matmul kernel |
//!
//! Binaries accept `--scale <f>` to shrink/grow workload sizes (the
//! paper's absolute instruction counts are ~10^10, infeasible under an
//! interpreter; shares and IPC are scale-invariant — EXPERIMENTS.md).
//! Criterion benches (`cargo bench`) cover the host-side components.

use std::path::PathBuf;

pub mod interp_bench;

/// Common CLI options for the figure/table binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Workload scale factor (1.0 = default size).
    pub scale: f64,
    /// Output directory for SVG/CSV artifacts.
    pub out_dir: PathBuf,
    /// Worker threads for sweep-enabled binaries (`--jobs`; default:
    /// available parallelism). Results are identical at any value.
    pub jobs: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 1.0,
            out_dir: PathBuf::from("out"),
            jobs: mperf_sweep::default_jobs(),
        }
    }
}

impl BenchArgs {
    /// Parse `--scale <f>`, `--out <dir>`, and `--jobs <n>` from
    /// `std::env::args`.
    pub fn parse() -> BenchArgs {
        let mut args = BenchArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        args.scale = v;
                    }
                }
                "--out" => {
                    if let Some(v) = it.next() {
                        args.out_dir = PathBuf::from(v);
                    }
                }
                "--jobs" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(v)) if v >= 1 => args.jobs = v,
                    _ => {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    }
                },
                other => eprintln!("ignoring unknown argument {other:?}"),
            }
        }
        args
    }

    /// Scale an integer size.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(1)
    }

    /// Create the output directory and return a file path within it.
    ///
    /// # Panics
    /// Panics if the directory cannot be created (benches want loud
    /// failures).
    pub fn out_file(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        self.out_dir.join(name)
    }
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling() {
        let a = BenchArgs {
            scale: 0.5,
            out_dir: PathBuf::from("/tmp"),
            jobs: 2,
        };
        assert_eq!(a.scaled(100), 50);
        assert_eq!(a.scaled(1), 1);
    }
}
