//! Per-block proof facts and the CFG ordering behind them.
//!
//! A successful verification emits a [`ProofMap`]: for every basic
//! block, the DS facts the analysis *proved* (not merely failed to
//! refute). They are exactly what a dispatch layer can cash in:
//! `ds_bounds` says every effective-DS memory access in the block lies
//! inside one static inclusive byte range (access width included), so
//! one limit/rights guard at block entry covers the whole block, and
//! `ds_loads`/`ds_stores` say which rights that guard must find.
//!
//! The ordering is classic: predecessor lists and a reverse post-order
//! over the `asm86::Cfg` (which stores only successors). Retreating
//! edges (RPO target not after the source) drive the widening points of
//! the interval fixpoint — every cycle contains one, reducible or not,
//! so widening only there still terminates.

use std::collections::{BTreeMap, BTreeSet};

use asm86::disasm::Cfg;

/// Facts proven about one basic block of a verified module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockProof {
    /// Image-relative offset of the block's first instruction.
    pub start: u32,
    /// Byte length of the block.
    pub len: u32,
    /// When present, every effective-DS access in the block provably
    /// falls inside this inclusive byte range (access width included),
    /// and the range lies inside the policy's allowed data. Addresses
    /// are in the module's own addressing domain (segment offsets for
    /// kernel extensions).
    pub ds_bounds: Option<(u32, u32)>,
    /// The block performs DS loads (meaningful when `ds_bounds` is set).
    pub ds_loads: bool,
    /// The block performs DS stores (meaningful when `ds_bounds` is set).
    pub ds_stores: bool,
}

/// Block-indexed proof facts emitted with a successful verification,
/// carried inside [`crate::Attestation`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProofMap {
    /// Proofs keyed by block leader offset.
    pub blocks: BTreeMap<u32, BlockProof>,
}

impl ProofMap {
    /// The proof for the block whose leader is `start`, if any.
    pub fn get(&self, start: u32) -> Option<&BlockProof> {
        self.blocks.get(&start)
    }

    /// Number of blocks carrying proofs.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no proofs were recorded.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of blocks whose DS accesses are provably bounded.
    pub fn bounded_blocks(&self) -> u32 {
        self.blocks
            .values()
            .filter(|b| b.ds_bounds.is_some())
            .count() as u32
    }

    /// The proof of the block *containing* image offset `off`, if any.
    pub fn block_containing(&self, off: u32) -> Option<&BlockProof> {
        self.blocks
            .range(..=off)
            .next_back()
            .map(|(_, b)| b)
            .filter(|b| off < b.start + b.len)
    }
}

/// Predecessor lists, reverse post-order, and the retreating-edge
/// targets of a CFG: the scaffolding of the interval fixpoint.
pub(crate) struct Order {
    /// Blocks in reverse post-order from the entries.
    pub(crate) rpo: Vec<u32>,
    /// Predecessor block leaders, by block leader.
    pub(crate) preds: BTreeMap<u32, Vec<u32>>,
    /// Targets of retreating edges (every cycle has one): the widening
    /// points of the interval fixpoint.
    pub(crate) retreat_targets: BTreeSet<u32>,
}

pub(crate) fn order(cfg: &Cfg, entries: &[u32]) -> Order {
    // Iterative DFS post-order from the entries, in sorted entry order
    // (deterministic; entries are sorted by the caller).
    let mut post: Vec<u32> = Vec::with_capacity(cfg.blocks.len());
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for &e in entries {
        if !cfg.blocks.contains_key(&e) || seen.contains(&e) {
            continue;
        }
        // Stack of (block, next-successor-index).
        let mut stack: Vec<(u32, usize)> = vec![(e, 0)];
        seen.insert(e);
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = &cfg.blocks[&b].succs;
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if cfg.blocks.contains_key(&s) && seen.insert(s) {
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
    }
    post.reverse();
    let index: BTreeMap<u32, usize> = post.iter().enumerate().map(|(i, &b)| (b, i)).collect();

    let mut preds: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut retreat_targets: BTreeSet<u32> = BTreeSet::new();
    for (&b, block) in &cfg.blocks {
        for &s in &block.succs {
            if !cfg.blocks.contains_key(&s) {
                continue;
            }
            preds.entry(s).or_default().push(b);
            if let (Some(&bi), Some(&si)) = (index.get(&b), index.get(&s)) {
                if si <= bi {
                    retreat_targets.insert(s);
                }
            }
        }
    }
    Order {
        rpo: post,
        preds,
        retreat_targets,
    }
}
