//! Nonlinear DC solver for ReRAM cross-point resistive networks.
//!
//! A cross-point (CP) array places a resistive memory cell — a memory element
//! in series with a nonlinear access device (selector) — at every crossing of
//! a word-line (WL) and a bit-line (BL). During a RESET, sneak currents
//! through half-selected cells combined with the per-junction wire resistance
//! produce an IR ("voltage") drop on the selected cell that the architecture
//! work in this workspace mitigates.
//!
//! This crate computes the DC operating point of such an array: it enforces
//! Kirchhoff's current law at every WL/BL junction, linearizing the nonlinear
//! selector I-V around the current iterate (Newton) and relaxing the resulting
//! linear system line by line (block Gauss–Seidel whose blocks are exact
//! tridiagonal line solves). This mirrors what the original paper obtained
//! from HSPICE, without any external tooling.
//!
//! # Example
//!
//! Solve the worst-case RESET of a 64×64 all-LRS array and inspect the
//! effective voltage on the selected cell:
//!
//! ```
//! use reram_circuit::{Crosspoint, CellDevice, PolySelector, LineEnd, SolveOptions};
//!
//! # fn main() -> Result<(), reram_circuit::SolveError> {
//! let n = 64;
//! let lrs = CellDevice::Selector(PolySelector::new(90e-6, 3.0, 1000.0));
//! let mut cp = Crosspoint::uniform(n, n, 11.5, lrs);
//! // Select WL 63 (grounded at the row decoder) and BL 63 (driven with 3 V);
//! // unselected lines are half-biased, their far ends float.
//! for i in 0..n {
//!     cp.set_wl_left(i, if i == n - 1 { LineEnd::ground() } else { LineEnd::driven(1.5) });
//! }
//! for j in 0..n {
//!     cp.set_bl_near(j, if j == n - 1 { LineEnd::driven(3.0) } else { LineEnd::driven(1.5) });
//! }
//! let sol = cp.solve(&SolveOptions::default())?;
//! let veff = sol.cell_voltage(n - 1, n - 1);
//! assert!(veff < 3.0 && veff > 2.0); // drop is visible but small at 64x64
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod crosspoint;
mod device;
mod error;
mod recover;
mod solve;
mod tridiag;
mod workspace;

pub use boundary::LineEnd;
pub use crosspoint::Crosspoint;
pub use device::{CellDevice, CellState, CompliantCell, PolySelector, SeriesCell};
pub use error::SolveError;
pub use recover::{Recovery, RecoveryRung, RECOVERY_LEAK_S};
pub use solve::{Solution, SolutionView, SolveOptions, SolveStats};
pub(crate) use tridiag::{solve_tridiagonal_batch_const, TRIDIAG_BATCH_MAX};
pub use workspace::SolverWorkspace;
