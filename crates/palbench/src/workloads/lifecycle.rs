//! `lifecycle`: load-time work on every isolation backend. One op picks a
//! backend and a module, then runs `dlopen` (verify on), `dlsym`, four
//! protected calls and `dlclose` on that backend's session. One op in 16
//! loads a hostile module instead, which each backend must reject at load
//! or contain at call time.
//!
//! The verifier, linking, trampoline generation and backend dispatch
//! dominate. `dlclose` does not reclaim user trampoline space (a bump
//! allocator) nor every frame a load takes, so each session is forked
//! again from its warmed template every [`RESET_EVERY`] ops, before the
//! trampoline region runs out; the frame leak is reported per op as
//! `kernel.frames_leaked_per_op`.

use asm86::{Assembler, Object};
use palladium::{BackendKind, DlopenOptions, Error, ExtCallError, Session};
use seedrng::SeedRng;
use verifier::{verify_image, VerifyPolicy};
use x86sim::mem::PAGE_SIZE;

use crate::trace::Tracer;
use crate::world::{frames_in_use, resident, Counters, Outcome, World};

/// Ops between session re-forks. Well under the ~142 load/resolve/close
/// cycles after which a session's trampoline region is exhausted.
const RESET_EVERY: u64 = 100;

/// Branch-free modules (the SFI rewriter admits no branches, so the same
/// objects load under every backend).
const MODULES: usize = 16;

/// One op in this many loads a hostile module.
const HOSTILE_ONE_IN: u32 = 16;

/// Protected calls per op.
const CALLS: usize = 4;

/// Stores the argument through itself: a wild write when called with an
/// application-private address (the backend matrix's wild-write source).
const WILD: &str = "f:\n    mov eax, [esp+4]\n    mov [eax], eax\n    ret\n";

/// A privileged instruction (the backend matrix's priv-insn source).
const PRIVILEGED: &str = "f:\n    hlt\n    ret\n";

/// Span names per backend, in [`BackendKind::ALL`] order: dlopen, dlsym,
/// call, dlclose.
const STEPS: [[&str; 4]; 3] = [
    [
        "seg-paging.dlopen",
        "seg-paging.dlsym",
        "seg-paging.call",
        "seg-paging.dlclose",
    ],
    [
        "prot-keys.dlopen",
        "prot-keys.dlsym",
        "prot-keys.call",
        "prot-keys.dlclose",
    ],
    ["sfi.dlopen", "sfi.dlsym", "sfi.call", "sfi.dlclose"],
];

/// One step of a generated module, mirrored by the host oracle.
#[derive(Debug, Clone, Copy)]
enum Step {
    Add(u32),
    Sub(u32),
    Xor(u32),
    Imul(u32),
    Shl(u32),
    Shr(u32),
    AddArg,
    XorArg,
}

/// Where probe images are linked. The verifier's work does not depend on
/// the load address, and linking at each op's address would count as the
/// benchmark's own time.
const PROBE_BASE: u32 = 0x4000_0000;

struct Module {
    obj: Object,
    /// The module linked at [`PROBE_BASE`] and padded to a page, the way
    /// the loader hands it to the verifier.
    probe: Vec<u8>,
    /// The host oracle's copy of the module (empty for hostile ones).
    steps: Vec<Step>,
}

impl Module {
    fn new(src: &str, steps: Vec<Step>, t: &mut Tracer) -> Result<Module, String> {
        let obj = t
            .span("asm86", "assemble", || Assembler::assemble(src))
            .map_err(|e| format!("module assembles: {e}"))?;
        let mut probe = obj
            .link(PROBE_BASE, &Default::default())
            .map_err(|e| format!("module links: {e}"))?;
        probe.resize(probe.len().next_multiple_of(PAGE_SIZE as usize), 0);
        Ok(Module { obj, probe, steps })
    }

    /// Module `idx`: `3 + idx` seeded steps over the argument.
    fn generate(rng: &mut SeedRng, idx: usize, t: &mut Tracer) -> Result<Module, String> {
        let mut src = String::from("f:\n    mov eax, [esp+4]\n    mov ecx, eax\n");
        let mut steps = Vec::new();
        for _ in 0..3 + idx {
            let imm = rng.next_u32() >> 1;
            let (step, line) = match rng.gen_range(0, 8) {
                0 => (Step::Add(imm), format!("add eax, {imm}")),
                1 => (Step::Sub(imm), format!("sub eax, {imm}")),
                2 => (Step::Xor(imm), format!("xor eax, {imm}")),
                3 => (Step::Imul(imm | 1), format!("imul eax, {}", imm | 1)),
                4 => (Step::Shl(imm % 7 + 1), format!("shl eax, {}", imm % 7 + 1)),
                5 => (Step::Shr(imm % 7 + 1), format!("shr eax, {}", imm % 7 + 1)),
                6 => (Step::AddArg, "add eax, ecx".into()),
                _ => (Step::XorArg, "xor eax, ecx".into()),
            };
            steps.push(step);
            src.push_str(&format!("    {line}\n"));
        }
        src.push_str("    ret\n");
        Module::new(&src, steps, t)
    }

    fn eval(&self, arg: u32) -> u32 {
        self.steps.iter().fold(arg, |v, s| match *s {
            Step::Add(k) => v.wrapping_add(k),
            Step::Sub(k) => v.wrapping_sub(k),
            Step::Xor(k) => v ^ k,
            Step::Imul(k) => v.wrapping_mul(k),
            Step::Shl(k) => v << k,
            Step::Shr(k) => v >> k,
            Step::AddArg => v.wrapping_add(arg),
            Step::XorArg => v ^ arg,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hostile {
    Wild,
    Privileged,
}

/// How a backend must treat a hostile module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// The verifier rejects the load.
    Rejected,
    /// The load succeeds and every call aborts on a protection check.
    Contained,
    /// The load succeeds and the wild store is masked into the sandbox.
    Masked,
}

fn expected(kind: BackendKind, hostile: Hostile) -> Expect {
    match (kind, hostile) {
        // SFI ignores the verifier: its rewrite is the admission check,
        // and it redirects stores rather than faulting them.
        (BackendKind::Sfi, Hostile::Wild) => Expect::Masked,
        (BackendKind::Sfi, Hostile::Privileged) => Expect::Contained,
        // The verifier cannot bound a store through the argument, so it
        // admits it and the page-level check stops it at call time.
        (_, Hostile::Wild) => Expect::Contained,
        (_, Hostile::Privileged) => Expect::Rejected,
    }
}

struct Backend {
    kind: BackendKind,
    steps: [&'static str; 4],
    /// The policy the loader verifies with, at [`PROBE_BASE`].
    probe_policy: VerifyPolicy,
    template: Session,
    live: Session,
}

/// The lifecycle world: one warmed template session per backend and a
/// live fork of each.
pub struct LifecycleWorld {
    backends: Vec<Backend>,
    modules: Vec<Module>,
    wild: Module,
    privileged: Module,
    rng: SeedRng,
    /// Counters of the live sessions replaced so far, minus those of the
    /// forks that replaced them.
    carry: Counters,
    verified_loads: u64,
    rejected_loads: u64,
}

fn session_counters(s: &Session) -> Counters {
    let app = s.app();
    Counters {
        aborts: app.aborted_calls,
        verified_dispatches: app.verified_calls,
        dispatches: app.calls + app.aborted_calls,
        ..Counters::of_kernel(s.kernel())
    }
}

/// Verify on. SFI loads ignore verification, so one option set serves
/// every backend.
fn load_options() -> DlopenOptions {
    DlopenOptions::new().verify(&["f"])
}

impl World for LifecycleWorld {
    const GUEST_SPANS: &'static [(&'static str, &'static str)] = &[
        ("palladium", STEPS[0][2]),
        ("palladium", STEPS[1][2]),
        ("palladium", STEPS[2][2]),
    ];

    fn build(seed: u64, t: &mut Tracer) -> Result<LifecycleWorld, String> {
        let mut rng = SeedRng::new(seed);
        let modules = (0..MODULES)
            .map(|idx| Module::generate(&mut rng, idx, t))
            .collect::<Result<Vec<_>, _>>()?;
        let wild = Module::new(WILD, Vec::new(), t)?;
        let privileged = Module::new(PRIVILEGED, Vec::new(), t)?;
        let mut backends = Vec::new();
        for (kind, steps) in BackendKind::ALL.into_iter().zip(STEPS) {
            let mut template =
                Session::with_backend(kind).map_err(|e| format!("{kind} session: {e}"))?;
            // Warm the loader, resolver and call path once.
            let h = template
                .dlopen(&modules[0].obj, &load_options())
                .map_err(|e| format!("{kind} warm-up dlopen: {e}"))?;
            let f = template
                .dlsym(h, "f")
                .map_err(|e| format!("{kind} warm-up dlsym: {e}"))?;
            template
                .call(f, 1)
                .map_err(|e| format!("{kind} warm-up call: {e}"))?;
            template
                .dlclose(h)
                .map_err(|e| format!("{kind} warm-up dlclose: {e}"))?;
            let live = template.fork();
            backends.push(Backend {
                kind,
                steps,
                probe_policy: VerifyPolicy::new(3, PROBE_BASE).allow_gate(template.app().gate_sel),
                template,
                live,
            });
        }
        Ok(LifecycleWorld {
            backends,
            modules,
            wild,
            privileged,
            rng,
            carry: Counters::default(),
            verified_loads: 0,
            rejected_loads: 0,
        })
    }

    fn op(&mut self, i: u64, t: &mut Tracer) -> Result<Outcome, String> {
        if i > 0 && i.is_multiple_of(RESET_EVERY) {
            for b in &mut self.backends {
                let fresh = t.span("palladium", "session_fork", || b.template.fork());
                self.carry = self
                    .carry
                    .plus(session_counters(&b.live))
                    .minus(session_counters(&fresh));
                b.live = fresh;
            }
        }
        let b = &mut self.backends[self.rng.gen_range(0, 3) as usize];
        let hostile = (self.rng.gen_range(0, HOSTILE_ONE_IN) == 0).then(|| {
            if self.rng.gen_range(0, 2) == 0 {
                Hostile::Wild
            } else {
                Hostile::Privileged
            }
        });
        let module = match hostile {
            Some(Hostile::Wild) => &self.wild,
            Some(Hostile::Privileged) => &self.privileged,
            None => &self.modules[self.rng.gen_range(0, MODULES as u32) as usize],
        };
        let args: [u32; CALLS] = std::array::from_fn(|_| self.rng.next_u32());
        let kind = b.kind;
        let expect = hostile.map(|h| expected(kind, h));
        let [open, sym, call, close] = b.steps;
        let policy = &b.probe_policy;
        let s = &mut b.live;
        let (c0, n0, f0) = (
            s.kernel().m.cycles(),
            s.kernel().m.insns(),
            frames_in_use(s.kernel()),
        );
        let hardware = kind != BackendKind::Sfi;

        let loaded = t.span("palladium", open, || s.dlopen(&module.obj, &load_options()));
        if hardware {
            self.verified_loads += 1;
            if t.enabled() {
                // dlopen verified internally; verify the same module again
                // so the verifier's share of the load shows.
                let _ = t.span("verifier", "verify", || {
                    verify_image(&module.probe, &[0], policy)
                });
            }
        }
        let refused = match (loaded, expect) {
            (Err(Error::Verify(_)), Some(Expect::Rejected)) => {
                self.rejected_loads += 1;
                true
            }
            (Err(e), _) => return Err(format!("op {i}: {} dlopen: {e}", kind)),
            (Ok(_), Some(Expect::Rejected)) => {
                return Err(format!("op {i}: {} admitted a hostile module", kind))
            }
            (Ok(h), expect) => {
                let f = t
                    .span("palladium", sym, || s.dlsym(h, "f"))
                    .map_err(|e| format!("op {i}: {} dlsym: {e}", kind))?;
                // A wild write aims at application-private state (a random
                // address may be the extension's own stack): the victim
                // and the value it must keep.
                let victim = (hostile == Some(Hostile::Wild)).then(|| {
                    let at = s.app().save_slot_addr();
                    (at, s.kernel().m.host_read_u32(at))
                });
                for arg in args {
                    let arg = victim.map_or(arg, |(at, _)| at);
                    let got = t.span("palladium", call, || s.call(f, arg));
                    let ok = match (expect, &got, victim) {
                        (None, Ok(v), _) => *v == module.eval(arg),
                        (Some(Expect::Masked), Ok(v), Some((at, kept))) => {
                            *v == arg && s.kernel().m.host_read_u32(at) == kept
                        }
                        (
                            Some(Expect::Contained),
                            Err(Error::Call(ExtCallError::Fault { cause, .. })),
                            _,
                        ) => cause.is_some(),
                        _ => false,
                    };
                    if !ok {
                        return Err(format!(
                            "op {i}: {} call({arg:#x}) gave {got:?}, expected {expect:?}",
                            kind
                        ));
                    }
                }
                t.span("palladium", close, || s.dlclose(h))
                    .map_err(|e| format!("op {i}: {} dlclose: {e}", kind))?;
                expect == Some(Expect::Contained)
            }
        };
        Ok(Outcome {
            cycles: s.kernel().m.cycles() - c0,
            insns: s.kernel().m.insns() - n0,
            units: 1,
            refused: u32::from(refused),
            frames_delta: frames_in_use(s.kernel()) - f0,
        })
    }

    fn counters(&self) -> Counters {
        self.backends
            .iter()
            .fold(self.carry, |c, b| c.plus(session_counters(&b.live)))
    }

    fn resident_frames(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| resident(b.live.kernel()))
            .sum()
    }

    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "verifier.reject_ratio",
            self.rejected_loads as f64 / self.verified_loads.max(1) as f64,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_modules_meet_each_backends_expectation() {
        let mut t = Tracer::new(false);
        for kind in BackendKind::ALL {
            for (hostile, src) in [(Hostile::Wild, WILD), (Hostile::Privileged, PRIVILEGED)] {
                let mut s = Session::with_backend(kind).unwrap();
                let m = Module::new(src, Vec::new(), &mut t).unwrap();
                let got = match s.dlopen(&m.obj, &load_options()) {
                    Err(Error::Verify(_)) => Expect::Rejected,
                    Err(e) => panic!("{kind} {hostile:?}: {e}"),
                    Ok(h) => {
                        let f = s.dlsym(h, "f").unwrap();
                        let victim = s.app().save_slot_addr();
                        match s.call(f, victim) {
                            Ok(_) => Expect::Masked,
                            Err(_) => Expect::Contained,
                        }
                    }
                };
                assert_eq!(got, expected(kind, hostile), "{kind} {hostile:?}");
            }
        }
    }

    #[test]
    fn the_verifier_probe_agrees_with_the_loader() {
        let mut t = Tracer::new(false);
        let mut rng = SeedRng::new(1);
        let m = Module::generate(&mut rng, 5, &mut t).unwrap();
        let privileged = Module::new(PRIVILEGED, Vec::new(), &mut t).unwrap();
        let mut s = Session::new().unwrap();
        let policy = VerifyPolicy::new(3, PROBE_BASE).allow_gate(s.app().gate_sel);
        assert!(verify_image(&m.probe, &[0], &policy).is_ok());
        assert!(verify_image(&privileged.probe, &[0], &policy).is_err());
        let h = s.dlopen(&m.obj, &load_options()).unwrap();
        assert!(matches!(
            s.dlopen(&privileged.obj, &load_options()),
            Err(Error::Verify(_))
        ));
        let f = s.dlsym(h, "f").unwrap();
        assert_eq!(s.call(f, 12345).unwrap(), m.eval(12345));
    }
}
