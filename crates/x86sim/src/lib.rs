//! `x86sim` — a cycle-accounted simulator of the Intel x86 protection
//! architecture, built for the reproduction of *"Integrating segmentation
//! and paging protection for safe, efficient and transparent software
//! extensions"* (Palladium, SOSP '99).
//!
//! The simulator models the pieces of Figure 1 of the paper:
//!
//! * variable-length segments with base/limit and 4 privilege rings
//!   ([`desc`], [`machine`]),
//! * two-level page tables with Present / R/W / U.S. bits and a TLB
//!   ([`paging`]),
//! * call gates, interrupt gates and TSS stack switching ([`machine`],
//!   the `xfer` module),
//! * #GP/#PF exceptions with real error codes ([`fault`]), and
//! * a Pentium-derived cycle cost model at 200 MHz ([`cycles`]).
//!
//! Every simulated memory access runs the full pipeline: segment cache →
//! limit check → rights check → linear address → TLB/page walk → page
//! rights check. This is what makes the paper's safety claims *testable*:
//! the property tests in the workspace hand adversarial code to the
//! simulator and assert containment.
//!
//! The hosting kernel (`minikernel`) plays ring 0 natively: interrupt
//! vectors are host hooks that suspend the guest, and the kernel
//! manipulates machine state directly, charging modelled costs.

pub mod cycles;
pub mod desc;
mod exec;
pub mod fault;
pub mod image;
pub mod machine;
pub mod mem;
pub mod paging;
pub mod proof;
pub mod trace;
mod xfer;

#[cfg(test)]
mod tests;

pub use cycles::{cycles_to_us, us_to_cycles, Event, CLOCK_HZ};
pub use desc::{CallGate, CodeSeg, DataSeg, Descriptor, DescriptorTable, Selector};
pub use fault::{Fault, FaultCause, Vector};
pub use image::RestoreError;
pub use machine::{Cpu, Exit, Flags, IdtGate, Machine, PredecodeStats, SegCache, Snapshot, Tss};
pub use mem::{FrameAlloc, PhysMem, PAGE_SIZE};
pub use paging::{pte, Access, Mmu};
pub use proof::{ProofDs, ProofInstallError, ProofStats};
pub use trace::{Trace, TraceRecord};
