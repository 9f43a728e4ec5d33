//! # mperf-workloads — guest programs for the evaluation
//!
//! The workloads behind the paper's evaluation section, written in MiniC
//! and staged into guest memory by host-side drivers:
//!
//! - [`sqlite_mini`] — the stand-in for the LLVM test-suite sqlite3
//!   benchmark (Table 2, Fig. 3): a bytecode interpreter
//!   (`sqlite3VdbeExec`), a LIKE pattern matcher (`patternCompare`), and
//!   a B-tree cell parser (`sqlite3BtreeParseCellPtr`) over synthetic
//!   pages, preserving the hot-function structure the paper reports.
//! - [`matmul`] — the tiled SGEMM kernel of §5.2 (Fig. 4), restructured
//!   only as far as MiniC requires (explicit `min()` bounds).
//! - [`stream`] — memset/copy/triad kernels (bandwidth roofs, examples).
//! - [`stencil`] — a 5-point Jacobi sweep (third domain example).
//!
//! [`builder::compile_for`] compiles any of them "for a platform":
//! standard optimizations plus loop vectorization with that platform's
//! compiler capabilities (the X60 model lacks strided vector codegen,
//! which is what leaves the matmul kernel scalar there; see
//! `mperf_roofline::microbench::vec_caps_for`).

pub mod builder;
pub mod matmul;
pub mod sqlite_mini;
pub mod stencil;
pub mod stream;

pub use builder::compile_for;
