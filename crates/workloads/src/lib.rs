//! Synthetic benchmark workloads calibrated to the paper's Table IV.
//!
//! The paper drives its Sniper-based evaluation with SPEC-CPU2006 and
//! BioBench multi-programmed workloads. Neither the binaries, PinPlay, nor
//! the authors' traces are available, so this crate substitutes **seeded
//! stochastic generators** that reproduce the memory-level characteristics
//! the evaluation actually depends on (see `DESIGN.md` §1):
//!
//! * reads / writes per kilo-instruction (Table IV RPKI / WPKI),
//! * bank- and line-level locality (a Zipf-like hot set plus a streaming
//!   tail) with a per-line *heat* the SCH baseline can exploit,
//! * write data patterns — the fraction of cells changed per 64 B write
//!   (Fig. 14: ≈10 % on average under Flip-N-Write, ≈30 % for `zeu_m`) and
//!   the per-8-bit-array RESET-bit-count distribution (Fig. 9).
//!
//! Every generator is deterministic given its seed, so experiments are
//! exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod rng;
pub mod trace;

pub use profile::BenchProfile;
pub use rng::{Chance, Rng64, SplitMix64};
pub use trace::{Access, AccessKind, InlineAccess, LineWrite, TraceGenerator};
