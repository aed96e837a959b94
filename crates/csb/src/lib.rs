//! Bit-accurate functional model of CAPE's Compute-Storage Block (CSB).
//!
//! The CSB is the associative-computing engine of CAPE (Caminal et al.,
//! HPCA 2021). It is built from *subarrays* of push-rule 6T SRAM bitcells
//! with split wordlines, which behave as binary CAMs: in addition to the
//! conventional single-row [`read`](Subarray::row) and
//! [`write`](Subarray::write_row), a subarray can
//! [`search`](Subarray::search) a key against **all columns in parallel**
//! and bulk-update (see [`MicroOp::Update`]) every matching column.
//!
//! The hierarchy modeled here follows the paper exactly:
//!
//! * [`Subarray`] — 32 columns x 36 rows (32 data rows, one per RISC-V
//!   vector register, plus 4 metadata rows for carry/flags/scratch).
//! * [`Chain`] — 32 subarrays plus per-subarray *tag bits* and the
//!   inter-subarray tag-propagation bus. A 32-bit operand is *bit-sliced*:
//!   bit `i` of every element lives in subarray `i`; a column is a vector
//!   lane; the row index is the vector register name.
//! * [`Csb`] — thousands of chains (1,024 for CAPE32k, 4,096 for
//!   CAPE131k) plus the global reduction tree used by `vredsum`.
//!
//! This crate is purely *functional*: it executes [`MicroOp`]s and counts
//! them in [`MicroOpStats`]. Timing and energy are layered on top by
//! `cape-core` using the paper's Table I/II models.
//!
//! # Example
//!
//! ```
//! use cape_csb::{Csb, CsbGeometry};
//!
//! // A small CSB: 4 chains x 32 lanes = 128 vector lanes.
//! let mut csb = Csb::new(CsbGeometry::new(4));
//! csb.set_active_window(0, csb.max_vl());
//!
//! // Deposit a value into lane 5 of vector register v3 and read it back.
//! csb.write_element(3, 5, 0xDEAD_BEEF);
//! assert_eq!(csb.read_element(3, 5), 0xDEAD_BEEF);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmat;
mod bitstep;
mod block;
mod chain;
mod csb;
mod fault;
mod geometry;
mod microop;
mod pool;
mod program;
mod reduction;
mod stats;
mod subarray;

pub use bitmat::transpose32;
pub use block::BLOCK_LANES;
pub use chain::{scalar_sweep, Chain};
pub use csb::{Csb, CsbSnapshot};
pub use fault::{FaultConfig, FaultKind, FaultStats, RemapOutcome, ScrubReport, StruckRow};
pub use geometry::{CsbGeometry, ElementLocation, SUBARRAYS_PER_CHAIN, SUBARRAY_COLS};
pub use microop::{ColSel, MicroOp, Probe, TagDest, TagMode, WriteSpec};
pub use program::{MicroProgram, SyncKind, SyncPoint};
pub use reduction::ReductionTree;
pub use stats::{MicroOpKind, MicroOpStats};
pub use subarray::{
    Subarray, DATA_ROWS, ROW_CARRY, ROW_FLAG, ROW_SCRATCH0, ROW_SCRATCH1, TOTAL_ROWS,
};
