//! Audit: run the load-time static verifier over the repository's
//! shipped extension images and a pinned chaos corpus.
//!
//! ```sh
//! cargo run -p examples --bin verify_extensions
//! ```
//!
//! Exits nonzero if any expectation fails:
//!
//! * every benign shipped extension (the quickstart Fibonacci, the CGI
//!   cube, compiled packet filters, the kernel doubler) is **accepted**
//!   through the real verifying loaders (`dlopen` with `verify`,
//!   `insmod` with [`SegmentConfig::verify`]);
//! * every hostile demo extension (the quickstart scribbler, the
//!   segment-limit escape, the syscall probe, privileged instructions)
//!   is **rejected** with a typed error;
//! * over the pinned chaos corpus, reloc-overflow mutants are always
//!   rejected, and any hostile object the verifier admits contains no
//!   reachable privileged instruction (spot-checked against the CFG).

use asm86::isa::Insn;
use asm86::Assembler;
use chaos::verify::{kernel_policy, verify_object, VerifyOutcome};
use minikernel::Kernel;
use netfilter::{extended_conjunction, paper_conjunction};
use palladium::user_ext::{DlopenOptions, ExtensibleApp};
use palladium::{Error, KernelExtensions, KextError, SegmentConfig, VerifyError};
use seedrng::SeedRng;

struct Audit {
    checks: u32,
    failures: u32,
}

impl Audit {
    fn expect(&mut self, what: &str, ok: bool, detail: &str) {
        self.checks += 1;
        if ok {
            println!("  ok   {what}: {detail}");
        } else {
            self.failures += 1;
            println!("  FAIL {what}: {detail}");
        }
    }
}

fn user_extensions(a: &mut Audit) {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).expect("boot extensible app");

    let benign: [(&str, &str, &str); 3] = [
        (
            "quickstart fib",
            "fib",
            "fib:\nmov ecx, [esp+4]\nmov eax, 0\nmov edx, 1\nfib_loop:\ncmp ecx, 0\n\
             je fib_done\nmov ebx, eax\nadd ebx, edx\nmov eax, edx\nmov edx, ebx\n\
             dec ecx\njmp fib_loop\nfib_done:\nret\n",
        ),
        (
            "cgi cube",
            "cube",
            "cube:\nmov eax, [esp+4]\nimul eax, [esp+4]\nimul eax, [esp+4]\nret\n",
        ),
        (
            "table reader",
            "get",
            "get:\nmov eax, [table]\nret\ntable:\n.dd 0x1234\n",
        ),
    ];
    for (what, entry, src) in benign {
        let obj = Assembler::assemble(src).expect("assembles");
        match app.dlopen(&mut k, &obj, &DlopenOptions::new().verify(&[entry])) {
            Ok(h) => {
                let att = app.attestation(h).unwrap().unwrap();
                a.expect(
                    what,
                    att.entries == 1 && att.insns > 0,
                    &format!("verified ({} insns, {} blocks)", att.insns, att.blocks),
                );
            }
            Err(e) => a.expect(what, false, &format!("rejected: {e}")),
        }
    }

    let hostile: [(&str, &str, String); 3] = [
        (
            "quickstart scribbler",
            "evil",
            format!(
                "evil:\nmov eax, 0x41414141\nmov [{}], eax\nret\n",
                minikernel::USER_TEXT
            ),
        ),
        (
            "kernel prober",
            "probe",
            "probe:\nmov eax, [0xC0000000]\nret\n".to_string(),
        ),
        ("halter", "stop", "stop:\nhlt\nret\n".to_string()),
    ];
    for (what, entry, src) in hostile {
        let obj = Assembler::assemble(&src).expect("assembles");
        match app.dlopen(&mut k, &obj, &DlopenOptions::new().verify(&[entry])) {
            Err(Error::Verify(e)) => a.expect(what, true, &format!("rejected: {e}")),
            Ok(_) => a.expect(what, false, "hostile extension was admitted"),
            Err(e) => a.expect(what, false, &format!("wrong error class: {e}")),
        }
    }
}

fn kernel_extensions(a: &mut Audit) {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).expect("kext init");
    let config = SegmentConfig {
        verify: true,
        ..kx.default_config()
    };

    let benign = [
        (
            "kernel doubler",
            "ext_double",
            Assembler::assemble("ext_double:\nmov eax, [esp+4]\nadd eax, eax\nret\n").unwrap(),
        ),
        (
            "packet filter (paper, 4 terms)",
            "filter",
            netfilter::compile::compile(&paper_conjunction(4)),
        ),
        (
            "packet filter (extended, 80 terms)",
            "filter",
            netfilter::compile::compile(&extended_conjunction(80)),
        ),
    ];
    for (what, entry, obj) in benign {
        let seg = kx
            .create_segment_with(&mut k, 16, config.clone())
            .expect("segment");
        match kx.insmod(&mut k, seg, "m", &obj, &[entry]) {
            Ok(()) => a.expect(what, true, "verified and loaded"),
            Err(e) => a.expect(what, false, &format!("rejected: {e}")),
        }
    }

    let hostile = [
        (
            "segment-limit escape",
            Assembler::assemble("esc:\nmov eax, [0x100000]\nret\n").unwrap(),
            "esc",
        ),
        (
            "user syscall probe (int 0x80)",
            Assembler::assemble("probe:\nint 0x80\nret\n").unwrap(),
            "probe",
        ),
        (
            "segment-register forger",
            Assembler::assemble("forge:\nmov eax, 8\nmov ds, eax\nret\n").unwrap(),
            "forge",
        ),
    ];
    for (what, obj, entry) in hostile {
        let seg = kx
            .create_segment_with(&mut k, 16, config.clone())
            .expect("segment");
        match kx.insmod(&mut k, seg, "m", &obj, &[entry]) {
            Err(KextError::Verify(e)) => a.expect(what, true, &format!("rejected: {e}")),
            Ok(()) => a.expect(what, false, "hostile module was admitted"),
            Err(e) => a.expect(what, false, &format!("wrong error class: {e}")),
        }
    }
}

/// Reachable instructions of an admitted image must be free of
/// privileged operations — re-derived from the CFG, independently of the
/// verifier's own bookkeeping.
fn no_reachable_privileged(obj: &asm86::Object, at: u32) -> bool {
    let image = match obj.link(at, &Default::default()) {
        Ok(i) => i,
        Err(_) => return false,
    };
    let entries = match obj.entry_offsets(&["entry"]) {
        Ok(e) => e,
        Err(_) => return false,
    };
    let cfg = match asm86::Cfg::build(&image, &entries) {
        Ok(c) => c,
        Err(_) => return false,
    };
    cfg.lines.values().all(|l| {
        !matches!(
            l.insn,
            Insn::Hlt
                | Insn::Iret
                | Insn::Lret
                | Insn::LretN(_)
                | Insn::MovToSeg(..)
                | Insn::PopSeg(_)
        ) && !matches!(l.insn, Insn::Int(v) if v != minikernel::layout::KSERVICE_VECTOR)
    })
}

fn chaos_corpus(a: &mut Audit) {
    const AT: u32 = 0x3000;
    const SEG_SIZE: u32 = 0x1_0000;
    // The CI-pinned campaign seeds plus the throughput-bench seed.
    let seeds: [u64; 4] = [1, 0xBE7C_4A05, 2_698_080_257, 1_592_610_999];
    let policy = kernel_policy(AT, SEG_SIZE);

    let mut rejected = 0u32;
    let mut accepted = 0u32;
    let mut bad_overflow = 0u32;
    let mut unsound = 0u32;
    for seed in seeds {
        let mut r = SeedRng::new(seed);
        for _ in 0..60 {
            let (kind, obj) = chaos::corrupt::corrupted_object(&mut r);
            let out = verify_object(&obj, AT, &policy);
            match &out {
                VerifyOutcome::Accepted(_) => {
                    accepted += 1;
                    if kind == chaos::Corruption::RelocOverflow {
                        bad_overflow += 1;
                    }
                    if !no_reachable_privileged(&obj, AT) {
                        unsound += 1;
                    }
                }
                VerifyOutcome::Rejected(e) => {
                    rejected += 1;
                    // Typed rejection: the error must carry an offset or
                    // structured payload, not just exist.
                    let _: &VerifyError = e;
                }
                VerifyOutcome::RejectedAtLink(_) => rejected += 1,
            }
        }
        for _ in 0..60 {
            let obj = chaos::gen::kernel_ext_object(&mut r);
            match verify_object(&obj, AT, &policy) {
                VerifyOutcome::Accepted(_) => {
                    accepted += 1;
                    if !no_reachable_privileged(&obj, AT) {
                        unsound += 1;
                    }
                }
                _ => rejected += 1,
            }
        }
    }
    a.expect(
        "chaos corpus classified",
        rejected + accepted == 480,
        &format!("{rejected} rejected, {accepted} accepted"),
    );
    a.expect(
        "reloc-overflow mutants",
        bad_overflow == 0,
        &format!("{bad_overflow} admitted (must be 0)"),
    );
    a.expect(
        "admitted images",
        unsound == 0,
        &format!("{unsound} with reachable privileged insns (must be 0)"),
    );
    a.expect(
        "verifier bites",
        rejected > accepted,
        &format!("{rejected} rejected vs {accepted} accepted"),
    );
}

fn main() {
    let mut a = Audit {
        checks: 0,
        failures: 0,
    };
    println!("user-level extensions (dlopen with DlopenOptions::verify):");
    user_extensions(&mut a);
    println!("kernel extensions (insmod with SegmentConfig::verify):");
    kernel_extensions(&mut a);
    println!("pinned chaos corpus:");
    chaos_corpus(&mut a);

    println!("\n{} checks, {} failures", a.checks, a.failures);
    if a.failures > 0 {
        std::process::exit(1);
    }
}
