//! Proof tokens: verifier-licensed per-block check elision.
//!
//! The static verifier (crate `verifier`) emits, with every accepted
//! module, a proof map: per basic block, the facts it *proved* — most
//! usefully that every effective-DS access in the block falls inside one
//! static offset range. A loader that trusts the verifier can cash those
//! facts in here: [`crate::machine::Machine::install_proof_token`] turns
//! a proven block into a [`BlockToken`], and the fetch path then serves
//! the block's instructions from the token while a single *hoisted*
//! guard — evaluated once at block entry instead of once per access —
//! stands in for the per-instruction segment-limit and rights
//! validation inside the block.
//!
//! This is a **host** fast path with the same contract as the predecode
//! cache: simulated cycles, statistics and faults are byte-identical
//! with tokens on or off, because every check it skips is one whose
//! outcome the proof (plus the entry guard) predetermines, and the
//! skipped work never charged simulated cycles in the first place. The
//! differential soundness fuzzer in `chaos` exists to hold that claim to
//! account: any divergence between a token-serving world and its
//! unelided twin is an unsoundness finding against the verifier.
//!
//! Invalidation reuses the machinery that already polices the predecode
//! cache:
//!
//! - **Self-modifying code** — a token records the code generation of
//!   its frame's slab slot at install time; every serve revalidates it,
//!   and any store that overlaps bytes marked as code bumps the
//!   generation ([`crate::mem::PhysMem::mark_code`]).
//! - **Remapping** — tokens are keyed by *physical* block start, and
//!   every serve re-runs the (memoized) fetch translation and compares;
//!   changing the mapping makes the comparison miss and the fetch falls
//!   back to the normal path. Stale tokens are harmless, merely dead
//!   weight until the loader clears them.
//! - **Segment reloads** — the entry guard snapshots the machine's
//!   segment-write generation (a host counter bumped on every segment
//!   cache load); every serve compares it, so a far transfer or segment
//!   reload inside the block (possible only via an instruction the
//!   verifier admits, but guarded anyway) stops the token run on the
//!   next fetch. The counter subsumes comparing the CS/DS caches and
//!   the CPL byte-for-byte: none of them can change without a segment
//!   cache write.

use crate::mem::U32HashBuilder;
use asm86::isa::Insn;
use std::collections::HashMap;
use std::sync::Arc;

/// One decoded instruction with its length and base cycle cost: what
/// `fetch` leaves in the machine for `execute`, and, precomputed, each
/// instruction of a token block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TokenInsn {
    pub(crate) insn: Insn,
    pub(crate) len: u32,
    pub(crate) cost: u64,
}

/// The DS facts of a proven block, as the loader hands them to
/// [`crate::machine::Machine::install_proof_token`]. Offsets are DS
/// segment offsets (the verifier's addressing domain for the module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofDs {
    /// Highest DS byte offset any access in the block can touch
    /// (inclusive, access width included).
    pub hi: u32,
    /// The block performs DS loads.
    pub loads: bool,
    /// The block performs DS stores.
    pub stores: bool,
}

/// An installed block token: the block's instructions predecoded, plus
/// what the entry guard must establish for the elision to be licensed.
#[derive(Debug, Clone)]
pub(crate) struct BlockToken {
    /// Physical address of the block's first byte (the map key).
    pub(crate) start_phys: u32,
    /// Block length in bytes; the block plus a trailing
    /// [`crate::machine::MAX_INSN_LEN`] window fits inside its page, so
    /// serving never needs a second translation.
    pub(crate) len: u32,
    /// The block's instructions, tiling exactly `len` bytes.
    pub(crate) insns: Vec<TokenInsn>,
    /// DS facts, when the block carries a DS bounds proof.
    pub(crate) ds: Option<ProofDs>,
    /// Slab slot of the block's frame.
    pub(crate) slot: u32,
    /// Code generation of that slot at install time.
    pub(crate) gen: u64,
}

/// The token store: physical block start → token. `Arc` so world forks
/// share it copy-on-write like the predecode cache's slot array.
///
/// Hashed with the simulator's address hasher because the fetch path
/// probes it on every full-path fetch. Nothing iterates the map and
/// tokens are never serialized (a restored world reinstalls them), so
/// its order cannot reach cycles, statistics or images.
pub(crate) type TokenMap = Arc<HashMap<u32, Arc<BlockToken>, U32HashBuilder>>;

/// An active token run: the machine is executing inside a proven block
/// and the entry guard held. Cleared on any mismatch; a run that reaches
/// block end is *kept* (`idx == insns.len()`) so a loop back edge can
/// re-arm it without re-running the entry guard or the token lookup.
#[derive(Debug, Clone)]
pub(crate) struct ProofRun {
    pub(crate) token: Arc<BlockToken>,
    /// Next instruction index to serve; `count` marks a run that
    /// completed its block (eligible for re-arm, never a "break").
    pub(crate) idx: usize,
    /// Flat copy of `token.insns.len()` so the per-serve completion
    /// check never chases the `Arc`.
    pub(crate) count: usize,
    /// Flat copy of `token.slot` (for the full path's per-slot
    /// code-generation re-validation).
    pub(crate) slot: u32,
    /// Flat copy of `token.gen`.
    pub(crate) gen: u64,
    /// [`crate::mem::PhysMem::code_epoch`] at the last full-path
    /// validation of the slot's code generation. While it is unchanged
    /// no frame's code generation moved, so the hot path substitutes one
    /// inline compare for the slab read.
    pub(crate) code_epoch: u64,
    /// EIP the next fetch must be at.
    pub(crate) expect_eip: u32,
    /// Physical address the next fetch must translate to.
    pub(crate) expect_phys: u32,
    /// EIP of the block's first instruction (re-arm target).
    pub(crate) start_eip: u32,
    /// Physical address of the block's first byte.
    pub(crate) start_phys: u32,
    /// MMU invalidation epoch at the last verified translation; while it
    /// is unchanged (and paging stayed on) the fetch translation is the
    /// one the page memo would return, so the hot path may skip it.
    pub(crate) epoch: u64,
    /// Paging was enabled at the last verified translation.
    pub(crate) paged: bool,
    /// The machine's segment-write generation at activation. Unchanged
    /// means the CS/DS caches and the CPL are bit-identical to what the
    /// entry guard validated (every path that changes any of them writes
    /// a segment cache); one `u64` compare stands in for all three.
    pub(crate) seg_gen: u64,
    /// Whether the DS entry guard held: per-access DS checks inside the
    /// block are skipped.
    pub(crate) ds_elide: bool,
}

/// Host-side proof-token counters (never part of simulated state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Tokens currently installed.
    pub installed: u64,
    /// Entry guards that held (token runs started).
    pub activations: u64,
    /// Instructions served from tokens.
    pub served: u64,
    /// DS accesses whose per-access check was elided.
    pub ds_elided: u64,
    /// Token runs stopped early (guard mismatch, SMC, remap).
    pub broken: u64,
}

/// Why a token could not be installed. Installation failure is never an
/// error for the caller's correctness — a missing token only means the
/// block executes on the normal path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofInstallError {
    /// The block's linear range is unmapped.
    Unmapped,
    /// The block (plus the fetch lookahead window) does not fit inside
    /// one physical page.
    CrossesPage,
    /// The block's bytes do not decode to instructions tiling its length.
    BadBytes,
    /// Zero-length block.
    Empty,
}
