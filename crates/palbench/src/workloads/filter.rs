//! `filter`: Figure 7's kernel packet filter. One op places the next
//! packet in a verified kernel extension segment's shared area and
//! invokes the compiled filter there; the host evaluator is the oracle.
//!
//! Guest execution inside a verified segment dominates: fetch/execute,
//! predecode and proof tokens. No loader, image, HTTP or user-level
//! trampoline runs per op.

use asm86::Assembler;
use minikernel::layout::KSERVICE_VECTOR;
use minikernel::Kernel;
use netfilter::compile::compile_to_asm;
use netfilter::{extended_conjunction, traffic, Filter};
use palladium::{ExtSegmentId, KernelExtensions, SegmentConfig};
use seedrng::SeedRng;
use verifier::{verify_image, VerifyPolicy};

use crate::trace::Tracer;
use crate::world::{resident, Counters, Outcome, World};

/// Rule lengths of the three installed filters.
const TERMS: [usize; 3] = [10, 40, 80];

/// Packets in the replayed traffic stream. Enough that the seed moves
/// the drop ratio and cycles per packet by well under 1%.
const PACKETS: usize = 16_384;

/// Share of packets built to satisfy every header term. High enough that
/// at least 70% of guest instructions are filter body, not invocation
/// path.
const MATCH_RATIO: f64 = 0.9;

/// Pages per extension segment.
const SEGMENT_PAGES: u32 = 16;

struct Installed {
    filter: Filter,
    seg: ExtSegmentId,
    area: u32,
}

/// The filter world: one kernel with three verified filter segments.
pub struct FilterWorld {
    k: Kernel,
    kx: KernelExtensions,
    filters: Vec<Installed>,
    packets: Vec<Vec<u8>>,
    rng: SeedRng,
    accepted: u64,
    seen: u64,
}

impl World for FilterWorld {
    const GUEST_SPANS: &'static [(&'static str, &'static str)] = &[("palladium", "invoke")];

    fn build(seed: u64, t: &mut Tracer) -> Result<FilterWorld, String> {
        let mut k = Kernel::boot();
        let mut kx =
            KernelExtensions::new(&mut k).map_err(|e| format!("kernel extensions: {e}"))?;
        let mut filters = Vec::new();
        for terms in TERMS {
            let filter = extended_conjunction(terms);
            let src = t.span("netfilter", "compile", || compile_to_asm(&filter));
            let obj = t
                .span("asm86", "assemble", || Assembler::assemble(&src))
                .map_err(|e| format!("filter assembles: {e}"))?;
            let config = SegmentConfig::builder().verify(true).build();
            let seg = kx
                .create_segment_with(&mut k, SEGMENT_PAGES, config)
                .map_err(|e| format!("segment: {e}"))?;
            kx.insmod(&mut k, seg, "pktfilter", &obj, &["filter"])
                .map_err(|e| format!("insmod: {e}"))?;
            if t.enabled() {
                // insmod verified the module internally; re-run the
                // verifier on the same linked image so its cost shows.
                let entry = kx
                    .segment(seg)
                    .functions
                    .get("filter")
                    .ok_or("filter not registered")?;
                let at = entry - obj.symbol("filter").unwrap_or(0);
                let image = obj
                    .link(at, &Default::default())
                    .map_err(|e| e.to_string())?;
                let entries = obj.entry_offsets(&["filter"]).map_err(|e| e.to_string())?;
                let policy = VerifyPolicy::new(1, at)
                    .allow_data(0, SEGMENT_PAGES * x86sim::mem::PAGE_SIZE)
                    .allow_vector(KSERVICE_VECTOR);
                t.span("verifier", "verify", || {
                    verify_image(&image, &entries, &policy)
                })
                .map_err(|e| format!("verifier probe: {e}"))?;
            }
            let (area, _) = kx
                .shared_area_linear(seg)
                .ok_or("filter exports no shared area")?;
            filters.push(Installed { filter, seg, area });
        }
        Ok(FilterWorld {
            k,
            kx,
            filters,
            packets: traffic(seed, PACKETS, MATCH_RATIO),
            rng: SeedRng::new(seed),
            accepted: 0,
            seen: 0,
        })
    }

    fn op(&mut self, i: u64, t: &mut Tracer) -> Result<Outcome, String> {
        let which = self.rng.gen_range(0, TERMS.len() as u32) as usize;
        let f = &self.filters[which];
        let pkt = &self.packets[i as usize % PACKETS];
        if !self.k.m.host_write(f.area, pkt) {
            return Err("shared area unmapped".into());
        }
        let (c0, n0) = (self.k.m.cycles(), self.k.m.insns());
        let (k, kx) = (&mut self.k, &mut self.kx);
        let v = t
            .span("palladium", "invoke", || {
                kx.invoke(k, f.seg, "filter", pkt.len() as u32)
            })
            .map_err(|e| format!("invoke: {e}"))?;
        let accept = v != 0;
        if accept != f.filter.eval(pkt) {
            return Err(format!(
                "packet {}: {}-term filter returned {v}, oracle says {}",
                i as usize % PACKETS,
                f.filter.len(),
                !accept
            ));
        }
        self.seen += 1;
        self.accepted += u64::from(accept);
        Ok(Outcome {
            cycles: self.k.m.cycles() - c0,
            insns: self.k.m.insns() - n0,
            units: 1,
            refused: u32::from(!accept),
            frames_delta: 0,
        })
    }

    fn counters(&self) -> Counters {
        let d = self.kx.dispatch;
        Counters {
            aborts: self.kx.aborts,
            quarantines: self.kx.quarantines,
            verified_dispatches: d.verified,
            dispatches: d.verified + d.entry_checks,
            ..Counters::of_kernel(&self.k)
        }
    }

    fn resident_frames(&self) -> u64 {
        resident(&self.k)
    }

    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "netfilter.accept_ratio",
            self.accepted as f64 / self.seen.max(1) as f64,
        )]
    }
}
