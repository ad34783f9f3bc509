//! Block tokens: the fetch path's one store of predecoded blocks, in
//! which a verifier proof only adds DS check elision.
//!
//! A `BlockToken` holds a block's instructions predecoded, keyed by the
//! physical address of its first byte. The fetch path serves a block's
//! instructions from the token while a single *hoisted* entry guard —
//! evaluated once at block entry instead of once per fetch — stands in
//! for the per-instruction CS window check, translation and decode.
//! One builder makes every token, on demand: a full-path fetch that
//! finds no token at its physical address builds one there. What it
//! builds depends on whether a verifier proof starts there:
//!
//! - **No proof: a straight-line block.** The builder decodes up to and
//!   including the first control transfer. Everything the entry guard
//!   checks is a property of the machine, not of the code, so this
//!   needs no verifier.
//! - **A proof: a proven block.** The static verifier (crate
//!   `verifier`) emits, with every accepted module, a proof map: per
//!   basic block, the DS facts it *proved*, most usefully that every
//!   effective-DS access in the block falls inside one static offset
//!   range. A loader that trusts the verifier records each proof with
//!   [`crate::machine::Machine::install_proof_token`], which stores a
//!   small `Proof` record and decodes nothing. The builder decodes
//!   the proven block and, when it carries DS facts, chains the
//!   address-adjacent DS-proven blocks after it into one *superblock*
//!   inside the page and CS room, checking that the instructions tile
//!   every proof. The merged guard uses the maximum of the chained
//!   bounds, which every chained access respects. A block without DS
//!   facts ends the chain, because the proof map does not distinguish
//!   "no DS access" from "access the verifier could not bound". A
//!   taken branch inside a superblock breaks the run at the next
//!   fetch, and the target gets a block of its own. While the DS part
//!   of the entry guard holds, the per-access DS segment check inside
//!   a proven block is skipped too. [`ProofStats`] counts only proven
//!   blocks; instructions served from straight-line blocks count as
//!   predecode hits.
//!
//! The store keeps at most `MAX_LAZY_BLOCKS` tokens; past that it
//! drops them all and rebuilds on demand.
//!
//! This is a **host** fast path: simulated cycles, statistics and faults
//! are byte-identical with tokens on or off, because every check it skips is one whose
//! outcome the entry guard (plus, for DS elision, the proof)
//! predetermines, and the skipped work never charged simulated cycles in
//! the first place. The differential soundness fuzzer in `chaos` holds
//! the proof half of that claim to account: its unelided twin still
//! serves blocks but elides no DS check, so any divergence is an
//! unsoundness finding against the verifier.
//!
//! Invalidation:
//!
//! - **Self-modifying code** — a token records the code generation of
//!   its frame's slab slot when it is built, and a proof records it
//!   when it is installed; any store that overlaps bytes marked as code
//!   bumps the generation ([`crate::mem::PhysMem::mark_code`]). Every
//!   activation revalidates the token's generation and rebuilds a stale
//!   one from the current bytes. A proof whose generation moved is
//!   ignored: its facts were about the old bytes.
//! - **Remapping** — tokens are keyed by *physical* block start, and
//!   every serve re-runs the (memoized) fetch translation and compares;
//!   changing the mapping makes the comparison miss and the fetch falls
//!   back to the normal path. Stale tokens are harmless, merely dead
//!   weight.
//! - **Segment reloads** — the entry guard snapshots the machine's
//!   segment-write generation (a host counter bumped on every segment
//!   cache load); every serve compares it, so a far transfer or segment
//!   reload inside the block stops the run on the next fetch. The
//!   counter subsumes comparing the CS/DS caches and the CPL
//!   byte-for-byte: none of them can change without a segment cache
//!   write.

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

/// An installed verifier proof, keyed by the physical address of the
/// block's first byte: what the block builder needs to turn it into a
/// proven block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Proof {
    /// Block length in bytes; the block plus a trailing
    /// [`crate::machine::MAX_INSN_LEN`] window fits inside its page.
    pub(crate) len: u32,
    /// DS facts, when the block carries a DS bounds proof.
    pub(crate) ds: Option<ProofDs>,
    /// Code generation of the block's slab slot at installation. A
    /// proof whose slot has moved on is about bytes that are gone.
    pub(crate) gen: u64,
}

/// Installed proofs by physical block start, shared copy-on-write across
/// forks like [`BlockMap`]. Never iterated or serialized.
pub(crate) type ProofIndex = Arc<HashMap<u32, Proof, U32HashBuilder>>;

/// A block token: the block's instructions predecoded, plus what the
/// entry guard must establish before they may be served.
#[derive(Debug, Clone)]
pub(crate) struct BlockToken {
    /// Physical address of the block's first byte (the map key).
    pub(crate) start_phys: u32,
    /// Block length in bytes; the block plus a trailing
    /// [`crate::machine::MAX_INSN_LEN`] window fits inside its page, so
    /// serving never needs a second translation. 0 for a negative
    /// entry: no block can start here.
    pub(crate) len: u32,
    /// The block's instructions, tiling exactly `len` bytes.
    pub(crate) insns: Vec<TokenInsn>,
    /// DS facts, when the block carries a DS bounds proof.
    pub(crate) ds: Option<ProofDs>,
    /// Slab slot of the block's frame.
    pub(crate) slot: u32,
    /// Code generation of that slot when the token was built.
    pub(crate) gen: u64,
    /// Built from installed proofs (counted in [`ProofStats`]) rather
    /// than as a straight-line block.
    pub(crate) verified: bool,
}

/// Most blocks (negative entries included) one machine keeps; reaching
/// it drops them all.
pub(crate) const MAX_LAZY_BLOCKS: usize = 4096;

/// Longest straight-line block, in instructions: longer straight-line
/// code is split into consecutive blocks. Proven blocks are bounded by
/// their proofs and the page instead.
pub(crate) const MAX_BLOCK_INSNS: usize = 32;

/// The block store: physical block start → token. `Arc` so world forks
/// share it copy-on-write like the frame slab.
///
/// Hashed with the simulator's address hasher because the fetch path
/// probes it on every full-path fetch. Only `retain` iterates the map
/// and tokens are never serialized (a restored world reinstalls its
/// proofs and rebuilds its blocks), so its order cannot reach cycles,
/// statistics or images.
pub(crate) type BlockMap = Arc<HashMap<u32, Arc<BlockToken>, U32HashBuilder>>;

/// An active token run: the machine is executing inside a block and the
/// entry guard held. Cleared on any mismatch; a run that reaches
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
    /// The machine's guard stamp at the last full-path validation: the
    /// sum of its segment-write generation, the MMU epoch and
    /// [`crate::mem::PhysMem::code_epoch`], or a sentinel no sum reaches
    /// when paging was off. All three counters only grow, so the sum is
    /// unchanged exactly while none of them moved: the CS/DS caches and
    /// the CPL are what the entry guard validated, the fetch translation
    /// is the one the fetch table would return (paging is still on, as
    /// turning it off bumps the epoch), and no frame's code generation
    /// moved. One compare stands in for all of that on the hot path.
    pub(crate) stamp: u64,
    /// EIP the next fetch must be at.
    pub(crate) expect_eip: u32,
    /// Physical address the next fetch must translate to.
    pub(crate) expect_phys: u32,
    /// EIP of the block's first instruction (re-arm target).
    pub(crate) start_eip: u32,
    /// Physical address of the block's first byte.
    pub(crate) start_phys: u32,
    /// The machine's segment-write generation at activation, for the
    /// full path's live-run check. Unchanged means the CS/DS caches and
    /// the CPL are bit-identical to what the entry guard validated
    /// (every path that changes any of them writes a segment cache).
    pub(crate) seg_gen: u64,
    /// Whether the DS entry guard held: per-access DS checks inside the
    /// block are skipped.
    pub(crate) ds_elide: bool,
    /// The run cashes in a verifier proof (the token is verified and
    /// proof elision is on): its serves count in [`ProofStats`], not as
    /// predecode hits.
    pub(crate) verified: bool,
}

/// Host-side counters of proven blocks (never part of simulated state).
/// Straight-line blocks are not counted here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Proofs currently installed.
    pub installed: u64,
    /// Entry guards that held (proven-block runs started).
    pub activations: u64,
    /// Instructions served from proven blocks.
    pub served: u64,
    /// DS accesses whose per-access check was elided.
    pub ds_elided: u64,
    /// Token runs stopped early (guard mismatch, SMC, remap).
    pub broken: u64,
}

/// Why a proof could not be installed. Installation failure is never an
/// error for the caller's correctness — a missing proof only means the
/// block is served without DS elision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofInstallError {
    /// The block's linear range is unmapped.
    Unmapped,
    /// The block (plus the fetch lookahead window) does not fit inside
    /// one physical page.
    CrossesPage,
    /// Zero-length block.
    Empty,
}
