//! `bench` — harnesses that regenerate every table and figure of the
//! paper's evaluation (§5).
//!
//! Each `measure_*` function returns structured results; the `table1`,
//! `table2`, `table3`, `figure7` and `micro` binaries print them in the
//! paper's format, and the Criterion-style benches exercise the same
//! paths.

use std::collections::BTreeMap;

use asm86::encode::encode_program;
use asm86::isa::{Insn, Mem, Reg, Src};
use asm86::Assembler;
use baselines::ipc;
use baselines::rpc::RpcCosts;
use minikernel::Kernel;
use netfilter::{extended_conjunction, paper_conjunction, reference_packet, FilterBench};
use palladium::trampoline::{self, PrepareParams, SaveSlots};
use palladium::user_ext::{DlopenOptions, ExtensibleApp};
use palladium::{KernelExtensions, SegmentConfig};
use webserver::{run_ab, AbConfig, ExecModel, WebServer};
use x86sim::cycles::{self, cycles_to_us, documented_cost, documented_event, Event};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Component name.
    pub name: &'static str,
    /// Measured protected-call cycles (Inter).
    pub inter: u64,
    /// Measured unprotected-call cycles (Intra).
    pub intra: u64,
    /// Architecture-manual cycles (Hardware).
    pub hardware: f64,
}

/// Table 1: the protected-call cost breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The four component rows.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Column totals (inter, intra, hardware).
    pub fn totals(&self) -> (u64, u64, f64) {
        self.rows.iter().fold((0, 0, 0.0), |acc, r| {
            (acc.0 + r.inter, acc.1 + r.intra, acc.2 + r.hardware)
        })
    }
}

const PHASE_NAMES: [&str; 4] = [
    "Setting up stack",
    "Calling function",
    "Returning to caller",
    "Restoring state",
];

/// Byte length of the encoded `Prepare` body (everything before the
/// `lret`).
fn prepare_body_len() -> u32 {
    let params = PrepareParams {
        slots: SaveSlots {
            sp_slot: 0,
            bp_slot: 0,
        },
        arg_slot: 0,
        ext_esp_slot: 0,
        stack_sel: 0,
        code_sel: 0,
        transfer: 0,
    };
    let code = trampoline::prepare(params);
    encode_program(&code[..code.len() - 1]).len() as u32
}

/// Measures the protected-call phases by stepping the simulated CPU
/// through one warm Figure 6 round trip and attributing each
/// instruction's cycles to its phase by EIP.
fn measure_inter_phases() -> [u64; 4] {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).expect("app");
    let null = Assembler::assemble("null_fn:\nret\n").unwrap();
    let h = app
        .dlopen(&mut k, &null, &DlopenOptions::new())
        .expect("dlopen");
    let prep = app.seg_dlsym(&mut k, h, "null_fn").expect("dlsym");
    // Warm the TLB and caches.
    app.call_extension(&mut k, prep, 0).expect("warm call");

    let (prep_addr, transfer) = app.trampoline_addrs(h, "null_fn").unwrap();
    let gate = app.app_callgate_addr();
    let ext_fn = app.dlsym(h, "null_fn").unwrap();
    let lret_addr = prep_addr + prepare_body_len();

    // A dedicated call site with a *direct* call, exactly like the
    // compiler-generated call the paper times (the generic invoke stub
    // calls through a register, one cycle dearer).
    let site = Assembler::assemble(
        "site:
         push eax
         call prepare
         stop:
         jmp stop
",
    )
    .unwrap();
    let mut externs = BTreeMap::new();
    externs.insert("prepare".to_string(), prep);
    let syms = app
        .install_app_code_linked(&mut k, &site, &externs)
        .expect("install call site");
    let stub = syms["site"];
    let stub_after_call = syms["stop"];
    // Transfer layout: call rel32 (5) then lcall.
    let transfer_lcall = transfer + 5;

    k.switch_to(app.tid);
    k.m.cpu.set_reg(Reg::Eax, 0);
    k.m.cpu.eip = stub;

    let mut phases = [0u64; 4];
    for _ in 0..200 {
        let eip = k.m.cpu.eip;
        if eip == stub_after_call {
            return phases;
        }
        let phase =
            if (stub..stub_after_call).contains(&eip) || (prep_addr..lret_addr).contains(&eip) {
                0 // caller's push + call, then the Prepare body
            } else if eip == lret_addr || eip == transfer {
                1 // the lret into the extension segment + Transfer's local call
            } else if eip == ext_fn || eip == transfer_lcall {
                2 // the extension function's ret / the lcall through the gate
            } else if (gate..gate + 64).contains(&eip) {
                3 // AppCallGate
            } else {
                panic!("unexpected EIP {eip:#x} during protected call");
            };
        let before = k.m.cycles();
        assert!(k.m.step().is_none(), "protected call must not exit");
        phases[phase] += k.m.cycles() - before;
    }
    panic!("protected call did not complete");
}

/// Measures the unprotected-call phases on a flat machine.
fn measure_intra_phases() -> [u64; 4] {
    use x86sim::desc::{Descriptor, Selector};
    use x86sim::machine::{Exit, Machine};

    let src = "\
caller:
    push eax        ; argument
    call f
    pop ecx         ; caller cleanup
    hlt
f:
    push ebp        ; prologue
    pop ebp         ; epilogue
    ret
";
    let obj = Assembler::assemble(src).unwrap();
    let image = obj.link(0x1000, &BTreeMap::new()).unwrap();
    let mut m = Machine::new();
    let c = m.gdt.push(Descriptor::flat_code(0));
    let d = m.gdt.push(Descriptor::flat_data(0));
    m.mem.write_bytes(0x1000, &image);
    m.force_seg_from_table(asm86::isa::SegReg::Cs, Selector::new(c, false, 0));
    m.force_seg_from_table(asm86::isa::SegReg::Ss, Selector::new(d, false, 0));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    // Phase attribution by instruction role.
    let f = 0x1000 + obj.symbol("f").unwrap();
    let push_arg = 0x1000;
    let call_site = push_arg + 3;
    let pop_ecx = call_site + 5;
    let hlt = pop_ecx + 2;
    let push_ebp = f;
    let pop_ebp = push_ebp + 3;
    let ret = pop_ebp + 2;

    let mut phases = [0u64; 4];
    loop {
        let eip = m.cpu.eip;
        if eip == hlt {
            return phases;
        }
        let phase = match eip {
            e if e == push_arg || e == push_ebp => 0,
            e if e == call_site => 1,
            e if e == ret => 2,
            e if e == pop_ebp || e == pop_ecx => 3,
            other => panic!("unexpected EIP {other:#x}"),
        };
        let before = m.cycles();
        match m.step() {
            None => {}
            Some(Exit::Hlt) => return phases,
            Some(other) => panic!("unexpected exit {other:?}"),
        }
        phases[phase] += m.cycles() - before;
    }
}

/// The analytic "Hardware" column: architecture-manual costs of the same
/// sequences (fractional values reflect U/V pairing).
fn hardware_phases() -> [f64; 4] {
    let params = PrepareParams {
        slots: SaveSlots {
            sp_slot: 0,
            bp_slot: 0,
        },
        arg_slot: 0,
        ext_esp_slot: 0,
        stack_sel: 0,
        code_sel: 0,
        transfer: 0,
    };
    let prep = trampoline::prepare(params);
    let setup: f64 = prep[..prep.len() - 1].iter().map(documented_cost).sum();
    let calling = documented_event(Event::FarRetOuter) + documented_cost(&Insn::Call(0));
    let returning = documented_cost(&Insn::Ret) + documented_event(Event::GateCallInner);
    let restoring =
        2.0 * documented_cost(&Insn::Load(Reg::Esp, Mem::abs(0))) + documented_cost(&Insn::Ret);
    [setup, calling, returning, restoring]
}

/// Regenerates Table 1.
pub fn measure_table1() -> Table1 {
    let inter = measure_inter_phases();
    let intra = measure_intra_phases();
    let hw = hardware_phases();
    Table1 {
        rows: (0..4)
            .map(|i| Table1Row {
                name: PHASE_NAMES[i],
                inter: inter[i],
                intra: intra[i],
                hardware: hw[i],
            })
            .collect(),
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// String size in bytes.
    pub size: u32,
    /// Unprotected in-process call, microseconds.
    pub unprotected_us: f64,
    /// Palladium protected call, microseconds.
    pub palladium_us: f64,
    /// Linux socket RPC, microseconds.
    pub rpc_us: f64,
}

const REVERSE_SRC: &str = "\
; void reverse(char *s) — reverse a NUL-terminated string in place
reverse:
    mov ecx, [esp+4]
    mov edx, ecx
rev_scan:
    mov eax, byte [edx]
    cmp eax, 0
    je rev_found
    inc edx
    jmp rev_scan
rev_found:
    dec edx
rev_loop:
    cmp ecx, edx
    jae rev_done
    mov eax, byte [ecx]
    mov esi, byte [edx]
    mov byte [ecx], esi
    mov byte [edx], eax
    inc ecx
    dec edx
    jmp rev_loop
rev_done:
    mov eax, 0
    ret
";

/// Regenerates Table 2: the string-reverse service under the three
/// mechanisms. The protected and unprotected versions run the *same*
/// routine on the simulated CPU; the RPC column adds the modelled socket
/// round trip to the same computation.
pub fn measure_table2() -> Vec<Table2Row> {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).expect("app");
    let reverse = Assembler::assemble(REVERSE_SRC).unwrap();

    // Protected: the routine as an extension.
    let h = app
        .dlopen(&mut k, &reverse, &DlopenOptions::new())
        .expect("dlopen");
    let prep = app.seg_dlsym(&mut k, h, "reverse").expect("dlsym");

    // Unprotected: the same routine installed as plain application code,
    // called through the same stub.
    let app_syms = app.install_app_code(&mut k, &reverse).expect("install");
    let app_reverse = app_syms["reverse"];

    // Harness overhead: calling a null app function measures the stub +
    // yield cost around the Table 1 "Intra" 10-cycle call.
    let null = Assembler::assemble("nul:\nret\n").unwrap();
    let null_syms = app.install_app_code(&mut k, &null).expect("install null");
    let null_fn = null_syms["nul"];
    app.call_app_function(&mut k, null_fn, 0).unwrap();
    let c0 = k.m.cycles();
    app.call_app_function(&mut k, null_fn, 0).unwrap();
    let harness_overhead = (k.m.cycles() - c0).saturating_sub(10);

    let shared = app.alloc_shared(&mut k, 1).expect("shared");
    let rpc = RpcCosts::default();

    let mut rows = Vec::new();
    for size in [32u32, 64, 128, 256] {
        let s: Vec<u8> = (0..size).map(|i| b'A' + (i % 26) as u8).collect();
        let mut with_nul = s.clone();
        with_nul.push(0);

        let measure = |k: &mut Kernel, app: &mut ExtensibleApp, target: u32| -> u64 {
            // Warm, then measure twice (the paper averages 100 runs; the
            // simulator is deterministic, asserted below).
            assert!(k.m.host_write(shared, &with_nul));
            app.call_extension(k, target, shared).unwrap();
            assert!(k.m.host_write(shared, &with_nul));
            let a = k.m.cycles();
            app.call_extension(k, target, shared).unwrap();
            let b = k.m.cycles();
            assert!(k.m.host_write(shared, &with_nul));
            app.call_extension(k, target, shared).unwrap();
            let c = k.m.cycles();
            assert_eq!(b - a, c - b, "warm runs are deterministic");
            (b - a).saturating_sub(harness_overhead)
        };

        let pd = measure(&mut k, &mut app, prep);
        let un = measure(&mut k, &mut app, app_reverse);
        // Sanity: an odd number of reversals leaves the string reversed.
        let got = k.m.host_read(shared, size as usize);
        let want: Vec<u8> = s.iter().rev().copied().collect();
        assert_eq!(got, want, "string got reversed");

        let rpc_cycles = rpc.round_trip_cycles(size as usize) + un;
        rows.push(Table2Row {
            size,
            unprotected_us: cycles_to_us(un),
            palladium_us: cycles_to_us(pd),
            rpc_us: cycles_to_us(rpc_cycles),
        });
    }
    rows
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Response size in bytes.
    pub size: u32,
    /// Throughput per model, in [`ExecModel::ALL`] order.
    pub rps: [f64; 5],
}

/// Regenerates Table 3. Also returns the measured protected-call cycles
/// the server observed at start-up.
pub fn measure_table3() -> (Vec<Table3Row>, u64) {
    let server = WebServer::new().expect("server");
    let cfg = AbConfig::default();
    let rows = [28u32, 1024, 10 * 1024, 100 * 1024]
        .into_iter()
        .map(|size| {
            let mut rps = [0.0f64; 5];
            for (i, model) in ExecModel::ALL.into_iter().enumerate() {
                rps[i] = run_ab(&server, model, size, cfg).rps;
            }
            Table3Row { size, rps }
        })
        .collect();
    (rows, server.protected_call_cycles)
}

/// One point of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure7Point {
    /// Number of conjunction terms.
    pub terms: usize,
    /// BPF interpreter cycles.
    pub bpf_cycles: u64,
    /// Palladium compiled-extension cycles (including invocation).
    pub palladium_cycles: u64,
}

/// Regenerates Figure 7: filter cost vs term count, all terms true.
pub fn measure_figure7() -> Vec<Figure7Point> {
    let pkt = reference_packet(64);
    (0..=4)
        .map(|terms| {
            let f = paper_conjunction(terms);
            let mut b = FilterBench::new().expect("bench");
            b.install_compiled(&f).expect("install");
            // Warm both paths.
            b.run_compiled(&pkt).unwrap();
            b.run_bpf(&f, &pkt).unwrap();
            let pd = b.run_compiled(&pkt).unwrap();
            let bpf = b.run_bpf(&f, &pkt).unwrap();
            assert!(pd.accept && bpf.accept);
            Figure7Point {
                terms,
                bpf_cycles: bpf.cycles,
                palladium_cycles: pd.cycles,
            }
        })
        .collect()
}

/// Extends Figure 7 past the paper's x-axis with payload-byte terms.
pub fn measure_figure7_extended(term_counts: &[usize]) -> Vec<Figure7Point> {
    let pkt = reference_packet(128);
    term_counts
        .iter()
        .map(|&terms| {
            let f = extended_conjunction(terms);
            let mut b = FilterBench::new().expect("bench");
            b.install_compiled(&f).expect("install");
            b.run_compiled(&pkt).unwrap();
            b.run_bpf(&f, &pkt).unwrap();
            let pd = b.run_compiled(&pkt).unwrap();
            let bpf = b.run_bpf(&f, &pkt).unwrap();
            assert!(pd.accept && bpf.accept);
            Figure7Point {
                terms,
                bpf_cycles: bpf.cycles,
                palladium_cycles: pd.cycles,
            }
        })
        .collect()
}

/// The §5.1/§5.2 micro-measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Micro {
    /// Measured segment-register load, cycles (paper: 12).
    pub seg_load_cycles: u64,
    /// Documented segment-register load (paper: 2-3).
    pub seg_load_documented: f64,
    /// PPL marking cost for (pages, cycles) pairs (paper: startup +
    /// 45/page).
    pub ppl_marking: Vec<(u32, u64)>,
    /// `dlopen` in microseconds (paper: 400).
    pub dlopen_us: f64,
    /// `seg_dlopen` in microseconds (paper: 420).
    pub seg_dlopen_us: f64,
    /// SIGSEGV detection-to-delivery, cycles (paper: 3,325).
    pub sigsegv_cycles: u64,
    /// Kernel-extension #GP processing, cycles (paper: 1,020).
    pub kext_abort_cycles: u64,
    /// The IPC comparison rows.
    pub ipc: Vec<ipc::IpcMechanism>,
}

/// Runs a `mov ds, reg` on the machine and returns its cycle cost.
fn measure_seg_load() -> u64 {
    use x86sim::desc::{Descriptor, Selector};
    use x86sim::machine::Machine;

    let mut m = Machine::new();
    let c = m.gdt.push(Descriptor::flat_code(0));
    let d = m.gdt.push(Descriptor::flat_data(0));
    let sel = Selector::new(d, false, 0);
    let prog = encode_program(&[
        Insn::Mov(Reg::Eax, Src::Imm(sel.0 as i32)),
        Insn::MovToSeg(asm86::isa::SegReg::Ds, Reg::Eax),
        Insn::Hlt,
    ]);
    m.mem.write_bytes(0x1000, &prog);
    m.force_seg_from_table(asm86::isa::SegReg::Cs, Selector::new(c, false, 0));
    m.force_seg_from_table(asm86::isa::SegReg::Ss, sel);
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;
    assert!(m.step().is_none());
    let before = m.cycles();
    assert!(m.step().is_none());
    m.cycles() - before
}

/// Measures dlopen-style costs by charging through the loader paths.
fn measure_dlopen() -> (f64, f64) {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).expect("app");
    let lib = palladium::stdlib::libc_object();
    let before = k.m.cycles();
    app.load_shared_lib(&mut k, &lib).expect("dlopen");
    let dlopen = k.m.cycles() - before;

    let ext = Assembler::assemble("f:\nret\n").unwrap();
    let before = k.m.cycles();
    app.dlopen(&mut k, &ext, &DlopenOptions::new())
        .expect("seg_dlopen");
    let seg_dlopen = k.m.cycles() - before;
    (cycles_to_us(dlopen), cycles_to_us(seg_dlopen))
}

/// Measures the SIGSEGV detection-to-delivery latency by making an
/// extension touch application memory.
fn measure_sigsegv() -> u64 {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).expect("app");
    let evil = Assembler::assemble(&format!(
        "f:\nmov eax, 1\nmov [{}], eax\nret\n",
        minikernel::USER_TEXT
    ))
    .unwrap();
    let h = app
        .dlopen(&mut k, &evil, &DlopenOptions::new())
        .expect("dlopen");
    let prep = app.seg_dlsym(&mut k, h, "f").expect("dlsym");
    let before_faults = k.stats.faults;
    let r = app.call_extension(&mut k, prep, 0);
    assert!(r.is_err());
    assert_eq!(k.stats.faults, before_faults + 1);
    // Detection-to-delivery = hardware vectoring + handler + frame setup.
    cycles::measured_event(Event::ExceptionDelivery)
        + k.costs.pagefault_handler
        + k.costs.signal_deliver
}

/// Regenerates the §5.1/§5.2 micro-measurements.
pub fn measure_micro() -> Micro {
    let k = Kernel::boot();
    let ppl_marking = [1u32, 10, 32, 64]
        .into_iter()
        .map(|p| (p, k.costs.ppl_mark(p)))
        .collect();
    let (dlopen_us, seg_dlopen_us) = measure_dlopen();
    Micro {
        seg_load_cycles: measure_seg_load(),
        seg_load_documented: documented_event(Event::SegLoad),
        ppl_marking,
        dlopen_us,
        seg_dlopen_us,
        sigsegv_cycles: measure_sigsegv(),
        kext_abort_cycles: cycles::measured_event(Event::ExceptionDelivery) + k.costs.kext_abort,
        ipc: vec![ipc::palladium(), ipc::l4(), ipc::lrpc()],
    }
}

// ----- host simulation throughput (BENCH_sim_throughput.json) -------------

/// One workload of the host-throughput benchmark: guest instructions per
/// host second with the predecode fast path on (`fast`) and off (`base`,
/// the byte-wise pre-change fetch kept as the in-tree baseline).
///
/// Simulated results are identical in both modes — only the host clock
/// differs — so `speedup` is a pure host-performance number.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Workload tag: `figure7`, `chaos`, `webserver`, `kext_dispatch`,
    /// or the proof-hoisting pair `figure7_hoist` / `kext_hoist` (where
    /// `fast` is proof-hoisted and `base` is verified-unhoisted
    /// dispatch).
    pub workload: &'static str,
    /// Guest instructions retired in the timed fast-path run.
    pub fast_insns: u64,
    /// Host seconds for the fast-path run (the best batch).
    pub fast_secs: f64,
    /// Median host seconds over the fast-path batches.
    pub fast_median_secs: f64,
    /// Guest instructions retired in the timed baseline run.
    pub base_insns: u64,
    /// Host seconds for the baseline run (the best batch).
    pub base_secs: f64,
    /// Median host seconds over the baseline batches.
    pub base_median_secs: f64,
}

impl ThroughputPoint {
    /// Fast-path host throughput, guest instructions per second.
    pub fn fast_ips(&self) -> f64 {
        self.fast_insns as f64 / self.fast_secs.max(1e-9)
    }

    /// Baseline host throughput, guest instructions per second.
    pub fn base_ips(&self) -> f64 {
        self.base_insns as f64 / self.base_secs.max(1e-9)
    }

    /// Host speedup of the fast path over the baseline.
    pub fn speedup(&self) -> f64 {
        self.fast_ips() / self.base_ips().max(1e-9)
    }
}

/// Figure 7 packet-filter workload: repeated protected invocations of a
/// compiled filter far past the figure's x-axis (an 80-term conjunction
/// over a 128-byte packet — ~265 guest instructions of invocation path
/// plus filter body per call, the same machinery the `figure7` binary
/// measures in cycles).
fn throughput_figure7(iters: u32, predecode: bool) -> (u64, f64) {
    let mut b = FilterBench::new().expect("filter bench");
    b.k.m.set_predecode(predecode);
    b.install_compiled(&extended_conjunction(80))
        .expect("install");
    let pkt = reference_packet(128);
    b.run_compiled(&pkt).expect("warm");
    let insns0 = b.k.m.insns();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        b.run_compiled(&pkt).expect("run");
    }
    (b.k.m.insns() - insns0, t.elapsed().as_secs_f64())
}

/// Chaos-campaign workload: a seeded adversarial campaign (probes off so
/// only episode kernels — which honour the predecode flag — are timed).
fn throughput_chaos(steps: u32, predecode: bool) -> (u64, f64) {
    let cfg = chaos::campaign::CampaignConfig {
        seed: 0xBE7C_4A05,
        steps,
        probe_interval: 0,
        predecode,
        ..chaos::campaign::CampaignConfig::default()
    };
    let t = std::time::Instant::now();
    let report = chaos::campaign::run(&cfg);
    (report.guest_insns, t.elapsed().as_secs_f64())
}

/// Table 3 web-server workload: live protected-CGI requests actually
/// stepped through the simulator.
fn throughput_webserver(iters: u32, predecode: bool) -> (u64, f64) {
    let mut s = WebServer::new().expect("server");
    s.k.m.set_predecode(predecode);
    let cube = Assembler::assemble(
        "cube:\n\
         mov eax, [esp+4]\n\
         imul eax, [esp+4]\n\
         imul eax, [esp+4]\n\
         ret\n",
    )
    .unwrap();
    s.add_dynamic("/cube", &cube, "cube").expect("add_dynamic");
    let req = webserver::http::get_request("/cube?n=7");
    s.handle(&req, ExecModel::LibCgiProtected).expect("warm");
    let insns0 = s.k.m.insns();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        s.handle(&req, ExecModel::LibCgiProtected).expect("handle");
    }
    (s.k.m.insns() - insns0, t.elapsed().as_secs_f64())
}

/// Kernel-extension dispatch workload: repeated `invoke` of a benign
/// 60-odd-instruction extension in an unverified segment. Like the
/// figure7/chaos/webserver rows it compares predecode on (`fast`) with
/// predecode off (`base`); no attestation is involved in either mode.
fn throughput_kext_dispatch(iters: u32, predecode: bool) -> (u64, f64) {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).expect("kext init");
    let seg = kx.create_segment(&mut k, 16).expect("segment");
    let mut src = String::from("work:\nmov eax, [esp+4]\n");
    for _ in 0..64 {
        src.push_str("add eax, 1\n");
    }
    src.push_str("ret\n");
    let obj = Assembler::assemble(&src).expect("assemble");
    kx.insmod(&mut k, seg, "work", &obj, &["work"])
        .expect("insmod");
    k.m.set_predecode(predecode);
    kx.invoke(&mut k, seg, "work", 1).expect("warm");
    let insns0 = k.m.insns();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        kx.invoke(&mut k, seg, "work", 1).expect("invoke");
    }
    (k.m.insns() - insns0, t.elapsed().as_secs_f64())
}

/// Proof-hoisted figure7: the same compiled 80-term filter in a
/// *verified* segment, so every straight-line block carries `ds_bounds`
/// proofs over the shared packet area. The `fast` mode runs with proof
/// elision on (per-access segment-limit/PPL checks hoisted to one guard
/// at block entry); the `base` mode is verified-unhoisted
/// ([`x86sim::Machine::set_proof_elision`] off) with the same predecode
/// setting, so the delta isolates the hoist itself. Simulated cycles,
/// results and faults are byte-identical either way.
fn throughput_figure7_hoist(iters: u32, elide: bool) -> (u64, f64) {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).expect("kext init");
    let config = SegmentConfig {
        verify: true,
        ..kx.default_config()
    };
    let seg = kx.create_segment_with(&mut k, 16, config).expect("segment");
    let obj = netfilter::compile::compile(&extended_conjunction(80));
    kx.insmod(&mut k, seg, "pktfilter", &obj, &["filter"])
        .expect("insmod");
    k.m.set_proof_elision(elide);
    let (area, _) = kx.shared_area_linear(seg).expect("shared area");
    let pkt = reference_packet(128);
    assert!(k.m.host_write(area, &pkt));
    kx.invoke(&mut k, seg, "filter", pkt.len() as u32)
        .expect("warm");
    let insns0 = k.m.insns();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        kx.invoke(&mut k, seg, "filter", pkt.len() as u32)
            .expect("invoke");
    }
    (k.m.insns() - insns0, t.elapsed().as_secs_f64())
}

/// Proof-hoisted kext dispatch: a verified counted loop summing a
/// 256-dword module-local table — one DS access per iteration, the shape
/// whose per-access checks the loop-aware block proofs license hoisting.
/// As for [`throughput_figure7_hoist`], `fast` is proof-hoisted and
/// `base` is verified-unhoisted; only host time may differ.
fn throughput_kext_hoist(iters: u32, elide: bool) -> (u64, f64) {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).expect("kext init");
    let config = SegmentConfig {
        verify: true,
        ..kx.default_config()
    };
    let seg = kx.create_segment_with(&mut k, 16, config).expect("segment");
    let mut src = String::from(
        "work:\n\
         mov eax, 0\n\
         mov esi, 0\n\
         lp:\n\
         mov ebx, table\n\
         add ebx, eax\n\
         add esi, [ebx]\n\
         add eax, 4\n\
         cmp eax, 1024\n\
         jb lp\n\
         mov eax, esi\n\
         ret\n\
         table:\n",
    );
    // One slack dword: the stride-blind interval domain proves a range
    // reaching 3 bytes past offset 1020.
    for i in 0..=256u32 {
        src.push_str(&format!(".dd {i}\n"));
    }
    let obj = Assembler::assemble(&src).expect("assemble");
    kx.insmod(&mut k, seg, "work", &obj, &["work"])
        .expect("insmod");
    k.m.set_proof_elision(elide);
    kx.invoke(&mut k, seg, "work", 0).expect("warm");
    let insns0 = k.m.insns();
    let t = std::time::Instant::now();
    for _ in 0..iters {
        kx.invoke(&mut k, seg, "work", 0).expect("invoke");
    }
    (k.m.insns() - insns0, t.elapsed().as_secs_f64())
}

/// Measures host steps/sec on the figure7, chaos, webserver,
/// kext-dispatch and proof-hoisting workloads with explicit per-workload
/// iteration counts (exposed for cheap tests; use
/// [`measure_sim_throughput`] for the real benchmark).
pub fn measure_sim_throughput_with(
    figure7_iters: u32,
    chaos_steps: u32,
    webserver_iters: u32,
    kext_iters: u32,
) -> Vec<ThroughputPoint> {
    type Runner = fn(u32, bool) -> (u64, f64);
    let specs: [(&'static str, Runner, u32); 6] = [
        ("figure7", throughput_figure7, figure7_iters),
        ("chaos", throughput_chaos, chaos_steps),
        ("webserver", throughput_webserver, webserver_iters),
        ("kext_dispatch", throughput_kext_dispatch, kext_iters),
        ("figure7_hoist", throughput_figure7_hoist, figure7_iters),
        ("kext_hoist", throughput_kext_hoist, kext_iters),
    ];
    specs
        .into_iter()
        .map(|(workload, run, iters)| {
            // Interleave fast and baseline batches and keep each mode's
            // best time: host noise (scheduling, frequency drift) then
            // hits both modes alike instead of biasing whichever mode
            // happened to run during a slow spell. The guest instruction
            // count is identical in every batch — the simulation is
            // deterministic — so only the host clock varies. Several
            // short batches beat one long one for this: the minimum
            // converges on the unloaded-host time. The median is kept
            // next to it so a row shows how far the batches spread.
            const ROUNDS: usize = 14;
            let (mut fast, mut base) = (Vec::new(), Vec::new());
            let (mut fast_insns, mut base_insns) = (0, 0);
            for _ in 0..ROUNDS {
                let (insns, secs) = run(iters, true);
                fast_insns = insns;
                fast.push(secs);
                let (insns, secs) = run(iters, false);
                base_insns = insns;
                base.push(secs);
            }
            fast.sort_by(f64::total_cmp);
            base.sort_by(f64::total_cmp);
            let median = |v: &[f64]| (v[ROUNDS / 2 - 1] + v[ROUNDS / 2]) / 2.0;
            ThroughputPoint {
                workload,
                fast_insns,
                fast_secs: fast[0],
                fast_median_secs: median(&fast),
                base_insns,
                base_secs: base[0],
                base_median_secs: median(&base),
            }
        })
        .collect()
}

/// Measures the host-throughput benchmark; `scale` multiplies the
/// iteration counts (1 = the CI `--quick` run).
///
/// A webserver request runs only ~22 guest instructions, so that row
/// takes 2,000 requests per unit of scale: each batch then lasts tens of
/// milliseconds rather than a few, long enough to resolve a change.
pub fn measure_sim_throughput(scale: u32) -> Vec<ThroughputPoint> {
    let s = scale.max(1);
    measure_sim_throughput_with(1_000 * s, 400 * s, 2_000 * s, 2_000 * s)
}

// ----- fleet rollout (the "fleet" section of the same JSON) ----------------

/// One fleet-rollout scenario of the availability benchmark: the
/// canaried roll of `crates/fleet` driven end to end, reporting how the
/// request stream fared while the fleet changed versions underneath it.
///
/// The simulated outcome (every counter except `host_secs`) is
/// byte-deterministic per seed and worker count; only the host clock
/// varies between runs.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Scenario tag: `rollback` (faulty push, canary trips, automatic
    /// rollback) or `promote` (healthy push, waves to convergence).
    pub scenario: &'static str,
    /// Fleet size.
    pub replicas: u32,
    /// Rounds driven.
    pub rounds: u32,
    /// Requests answered 200 across the fleet.
    pub served: u64,
    /// Requests answered 503 across the fleet.
    pub degraded: u64,
    /// Requests dropped fail-closed across the fleet.
    pub dropped: u64,
    /// How the roll ended (`promoted` / `rolled-back` / `incomplete`).
    pub outcome: &'static str,
    /// Round the automatic rollback fired, if it did.
    pub rollback_round: Option<u32>,
    /// Simulated cycles from the canary upgrade to the completed
    /// rollback (the paper-world "time to detect and revert").
    pub rollback_latency_cycles: Option<u64>,
    /// First round the fleet converged on its final version.
    pub converged_round: Option<u32>,
    /// Fleet-wide availability in basis points (served / total).
    pub availability_bp: u32,
    /// Guest instructions retired across every replica.
    pub guest_insns: u64,
    /// Host wall-clock seconds for the whole scenario.
    pub host_secs: f64,
}

fn fleet_point(scenario: &'static str, cfg: &fleet::RolloutConfig, faulty: bool) -> FleetPoint {
    let old = fleet::version_images("filter", 1);
    let new = if faulty {
        fleet::faulty_images("filter")
    } else {
        fleet::version_images("filter", 2)
    };
    let t = std::time::Instant::now();
    let r = fleet::rollout::run(cfg, &old, &new);
    let host_secs = t.elapsed().as_secs_f64();
    assert!(r.violations.is_empty(), "{scenario}: {:?}", r.violations);
    assert!(
        r.leak_failures.is_empty(),
        "{scenario}: {:?}",
        r.leak_failures
    );
    let total = r.served + r.degraded + r.dropped;
    FleetPoint {
        scenario,
        replicas: r.replicas,
        rounds: r.rounds,
        served: r.served,
        degraded: r.degraded,
        dropped: r.dropped,
        outcome: r.outcome.tag(),
        rollback_round: r.rollback_round,
        rollback_latency_cycles: r.rollback_latency_cycles,
        converged_round: r.converged_round,
        availability_bp: (r.served * 10_000).checked_div(total).unwrap_or(0) as u32,
        guest_insns: r.guest_insns,
        host_secs,
    }
}

/// Measures the two canonical fleet scenarios — a faulty push that the
/// canary catches (automatic rollback) and a healthy push that promotes
/// to convergence; `scale` multiplies the per-round request count (1 =
/// the CI `--quick` run).
pub fn measure_fleet(scale: u32) -> Vec<FleetPoint> {
    let cfg = fleet::RolloutConfig {
        requests_per_round: 40 * scale.max(1),
        ..fleet::RolloutConfig::default()
    };
    vec![
        fleet_point("rollback", &cfg, true),
        fleet_point("promote", &cfg, false),
    ]
}

// ----- worker-count invariance of the sharded workloads --------------------

/// One worker-count sample of a sharded workload.
///
/// The shard decomposition is fixed per workload, so `guest_insns` is
/// identical across worker counts (asserted by the determinism suite).
/// No host time is recorded: on a host with fewer CPUs than workers it
/// measures time-slicing, not scaling.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Workload tag: `figure7`, `chaos` or `webserver`.
    pub workload: &'static str,
    /// Worker threads in the [`parex::Pool`].
    pub workers: usize,
    /// Independent shards fanned across those workers.
    pub shards: u32,
    /// Guest instructions retired across all shards (worker-count
    /// invariant).
    pub guest_insns: u64,
    /// Simulated cycles spent booting and warming the shard worlds,
    /// summed across shards; the sharded work starts from forks of one
    /// warmed template. Zero for the chaos workload, whose episode boot
    /// is part of the campaign itself (and already fork-amortised via
    /// `CampaignConfig::fork_boot`).
    pub boot_cycles: u64,
}

/// Figure 7 filter workload sharded: each shard owns a private
/// [`FilterBench`] (kernel + machine) and runs `iters` protected
/// invocations of the 80-term compiled filter.
fn scaling_figure7(shards: u32, iters: u32, pool: parex::Pool) -> (u64, u64) {
    // Boot one warmed template and fork a world per shard
    // (copy-on-write).
    let mut template = FilterBench::new().expect("filter bench");
    template
        .install_compiled(&extended_conjunction(80))
        .expect("install");
    let pkt = reference_packet(128);
    template.run_compiled(&pkt).expect("warm");
    let boot_cycles = template.k.m.cycles() * u64::from(shards);
    let worlds: Vec<FilterBench> = (0..shards).map(|_| template.clone()).collect();
    let insns = pool.run_ordered(worlds, |_, mut b| {
        let insns0 = b.k.m.insns();
        for _ in 0..iters {
            b.run_compiled(&pkt).expect("run");
        }
        b.k.m.insns() - insns0
    });
    (insns.iter().sum(), boot_cycles)
}

/// Chaos workload sharded: the campaign's own episode fan-out
/// ([`CampaignConfig::jobs`](chaos::campaign::CampaignConfig::jobs)).
fn scaling_chaos(steps: u32, jobs: usize) -> (u64, u64) {
    let cfg = chaos::campaign::CampaignConfig {
        seed: 0xBE7C_4A05,
        steps,
        probe_interval: 0,
        jobs,
        ..chaos::campaign::CampaignConfig::default()
    };
    let report = chaos::campaign::run(&cfg);
    // Episode boot is part of the campaign (fork-amortised internally),
    // so no boot cost is split out here.
    (report.guest_insns, 0)
}

/// Web-server workload sharded: [`webserver::run_live_sharded`] request
/// groups, each on a replica server.
/// Returns `(guest_insns, shard_cycles, boot_cycles)`; the shard cycles
/// are the simulated cycles spent serving, for tests.
fn scaling_webserver(shards: u32, requests: u32, pool: parex::Pool) -> (u64, u64, u64) {
    // Boot and warm one template; `make` hands each group a
    // copy-on-write fork of it.
    let template = {
        let mut s = WebServer::new().expect("webserver");
        let cube = Assembler::assemble(
            "cube:\n\
             mov eax, [esp+4]\n\
             imul eax, [esp+4]\n\
             imul eax, [esp+4]\n\
             ret\n",
        )
        .unwrap();
        s.add_dynamic("/cube", &cube, "cube").expect("add_dynamic");
        s
    };
    let groups = shards.clamp(1, requests.max(1));
    let boot_cycles = template.k.m.cycles() * u64::from(groups);
    let make = || Ok(template.clone());
    let (_, stats) = webserver::run_live_sharded(
        make,
        ExecModel::LibCgiProtected,
        "/cube?n=7",
        requests,
        0xAB12,
        shards,
        pool,
    )
    .expect("sharded live run");
    let insns = stats.iter().map(|s| s.insns).sum();
    let cycles = stats.iter().map(|s| s.cycles).sum();
    (insns, cycles, boot_cycles)
}

/// Runs the sharded workloads at each worker count in `workers`, with
/// explicit shard/iteration counts; the determinism suites check that
/// the guest work does not depend on the worker count.
pub fn measure_scaling_with(
    shards: u32,
    figure7_iters: u32,
    chaos_steps: u32,
    webserver_reqs: u32,
    workers: &[usize],
) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for &w in workers {
        let pool = parex::Pool::new(w);
        let (insns, boot) = scaling_figure7(shards, figure7_iters, pool);
        points.push(ScalingPoint {
            workload: "figure7",
            workers: w,
            shards,
            guest_insns: insns,
            boot_cycles: boot,
        });
        let (insns, boot) = scaling_chaos(chaos_steps, w);
        points.push(ScalingPoint {
            workload: "chaos",
            workers: w,
            shards: chaos_steps.div_ceil(chaos::campaign::CampaignConfig::default().episode_len),
            guest_insns: insns,
            boot_cycles: boot,
        });
        let (insns, _, boot) = scaling_webserver(shards, webserver_reqs, pool);
        points.push(ScalingPoint {
            workload: "webserver",
            workers: w,
            shards,
            guest_insns: insns,
            boot_cycles: boot,
        });
    }
    points
}

// ----- world startup: cold boot vs fork (the "startup" JSON section) -------

/// Host-side cost of producing one more shard world: a full cold boot
/// (+ load + warm) versus a copy-on-write fork of a warmed template
/// ([`x86sim::Machine::fork`]).
#[derive(Debug, Clone)]
pub struct StartupPoint {
    /// World tag: `session` or `webserver`.
    pub world: &'static str,
    /// Host seconds to cold-boot and warm the world (min over reps).
    pub cold_secs: f64,
    /// Host seconds to fork the warmed template (min over reps).
    pub fork_secs: f64,
}

impl StartupPoint {
    /// How many times cheaper a fork is than a cold boot.
    pub fn speedup(&self) -> f64 {
        self.cold_secs / self.fork_secs.max(1e-12)
    }
}

/// Minimum wall-clock over `reps` calls of `f` (min, not mean: the
/// measurement noise on a hot path is strictly additive).
fn min_secs<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&out);
    }
    best
}

/// Measures cold-boot vs fork startup for the two canonical shard
/// worlds: a warmed [`palladium::Session`] (boot + verified dlopen +
/// warm call) and a [`WebServer`] with a dynamic endpoint installed.
pub fn measure_startup() -> Vec<StartupPoint> {
    let build_session = || {
        let mut s = palladium::Session::new().expect("boot");
        let ext = Assembler::assemble("double:\nmov eax, [esp+4]\nadd eax, eax\nret\n").unwrap();
        let h = s
            .dlopen(&ext, &DlopenOptions::new().verify(&["double"]))
            .expect("dlopen");
        let f = s.dlsym(h, "double").expect("dlsym");
        s.call(f, 3).expect("warm");
        s
    };
    let session_tmpl = build_session();

    let build_server = || {
        let mut s = WebServer::new().expect("webserver");
        let cube =
            Assembler::assemble("cube:\nmov eax, [esp+4]\nimul eax, [esp+4]\nret\n").unwrap();
        s.add_dynamic("/cube", &cube, "cube").expect("add_dynamic");
        s
    };
    let server_tmpl = build_server();

    vec![
        StartupPoint {
            world: "session",
            cold_secs: min_secs(5, build_session),
            fork_secs: min_secs(200, || session_tmpl.fork()),
        },
        StartupPoint {
            world: "webserver",
            cold_secs: min_secs(5, build_server),
            fork_secs: min_secs(200, || server_tmpl.clone()),
        },
    ]
}

// ----- durable checkpoints (the "durability" JSON section) -----------------

/// Save/restore cost of one durable world image
/// ([`x86sim::Machine::save_image`] and the layers that append their
/// sections to it): how many bytes the image is and how long a save /
/// restore takes on the host.
///
/// Image bytes and CRC are deterministic per world; only the two
/// latency columns vary between runs.
#[derive(Debug, Clone)]
pub struct DurabilityPoint {
    /// World tag: `machine`, `kernel`, `session` or `replica`.
    pub world: &'static str,
    /// Size of the serialized image in bytes.
    pub image_bytes: usize,
    /// The image's trailing whole-image CRC32: a fingerprint of every
    /// image byte.
    pub image_crc: u32,
    /// Host seconds to serialize the world (min over reps).
    pub save_secs: f64,
    /// Host seconds to rebuild the world from the image (min over reps).
    pub restore_secs: f64,
}

/// One crash-recovery drill of [`fleet::drill`]: a replica is killed
/// mid-stream and brought back from its checkpoint lineage while the
/// rest of the fleet keeps serving.
///
/// Everything except `host_secs` is byte-deterministic per seed.
#[derive(Debug, Clone)]
pub struct DrillPoint {
    /// Scenario tag: `restore` (latest checkpoint intact) or
    /// `walkback` (newest generations corrupted, lineage walked).
    pub scenario: &'static str,
    /// How recovery ended (`restored` / `restored-after-walkback` /
    /// `cold-booted`).
    pub outcome: &'static str,
    /// Checkpoint generations rejected before one restored.
    pub generations_walked: u32,
    /// Requests answered 503 while the victim was down.
    pub recovery_degraded: u64,
    /// Rounds after the crash until the victim served a clean round.
    pub rounds_to_converge: Option<u32>,
    /// Fleet-wide availability in basis points (served / total).
    pub availability_bp: u32,
    /// Largest checkpoint image written during the run, in bytes.
    pub largest_image_bytes: usize,
    /// Host wall-clock seconds for the whole drill.
    pub host_secs: f64,
}

/// Measures image size and save/restore latency for the four durable
/// worlds, innermost first: the bare machine, the kernel over it, a
/// warmed [`palladium::Session`] (verified dlopen + warm call) and a
/// warmed [`fleet::Replica`] (one served round).
pub fn measure_durability() -> Vec<DurabilityPoint> {
    let mut session = palladium::Session::new().expect("boot");
    let ext = Assembler::assemble("double:\nmov eax, [esp+4]\nadd eax, eax\nret\n").unwrap();
    let h = session
        .dlopen(&ext, &DlopenOptions::new().verify(&["double"]))
        .expect("dlopen");
    let f = session.dlsym(h, "double").expect("dlsym");
    session.call(f, 3).expect("warm");

    let mut replica = fleet::Replica::new(
        1,
        0,
        fleet::version_images("filter", 1),
        palladium::supervisor::RestartPolicy::default(),
        20_000,
        true,
    )
    .expect("replica");
    replica.serve_round(8);

    let mut pts = Vec::new();
    let machine_img = session.kernel().m.save_image();
    pts.push(DurabilityPoint {
        world: "machine",
        image_bytes: machine_img.len(),
        image_crc: image_trailer(&machine_img),
        save_secs: min_secs(20, || session.kernel().m.save_image()),
        restore_secs: min_secs(20, || {
            x86sim::Machine::restore_image(&machine_img).expect("machine restore")
        }),
    });
    let kernel_img = session.kernel().save_image();
    pts.push(DurabilityPoint {
        world: "kernel",
        image_bytes: kernel_img.len(),
        image_crc: image_trailer(&kernel_img),
        save_secs: min_secs(20, || session.kernel().save_image()),
        restore_secs: min_secs(20, || {
            Kernel::restore_image(&kernel_img).expect("kernel restore")
        }),
    });
    let session_img = session.checkpoint();
    pts.push(DurabilityPoint {
        world: "session",
        image_bytes: session_img.len(),
        image_crc: image_trailer(&session_img),
        save_secs: min_secs(20, || session.checkpoint()),
        restore_secs: min_secs(20, || {
            palladium::Session::restore(&session_img).expect("session restore")
        }),
    });
    let replica_img = replica.checkpoint();
    pts.push(DurabilityPoint {
        world: "replica",
        image_bytes: replica_img.len(),
        image_crc: image_trailer(&replica_img),
        save_secs: min_secs(20, || replica.checkpoint()),
        restore_secs: min_secs(20, || {
            fleet::Replica::restore(&replica_img).expect("replica restore")
        }),
    });
    pts
}

/// The trailing whole-image CRC32 of a saved image.
fn image_trailer(image: &[u8]) -> u32 {
    let (_, trailer) = image.split_at(image.len() - 4);
    u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"))
}

fn drill_point(scenario: &'static str, cfg: &fleet::DrillConfig) -> DrillPoint {
    let images = fleet::version_images("filter", 1);
    let t = std::time::Instant::now();
    let r = fleet::drill::run(cfg, &images);
    let host_secs = t.elapsed().as_secs_f64();
    assert!(r.violations.is_empty(), "{scenario}: {:?}", r.violations);
    assert!(
        r.leak_failures.is_empty(),
        "{scenario}: {:?}",
        r.leak_failures
    );
    assert_eq!(
        r.healthy_replica_drops, 0,
        "{scenario}: healthy replicas dropped requests"
    );
    let total = r.served + r.degraded + r.dropped;
    DrillPoint {
        scenario,
        outcome: r.outcome.tag(),
        generations_walked: r.generations_walked,
        recovery_degraded: r.recovery_degraded,
        rounds_to_converge: r.rounds_to_converge,
        availability_bp: (r.served * 10_000).checked_div(total).unwrap_or(0) as u32,
        largest_image_bytes: r.largest_image_bytes,
        host_secs,
    }
}

/// Runs the two canonical crash-recovery drills — latest checkpoint
/// intact (plain restore) and newest generations corrupted (lineage
/// walk-back); `scale` multiplies the per-round request count (1 = the
/// CI `--quick` run).
pub fn measure_drills(scale: u32) -> Vec<DrillPoint> {
    let cfg = fleet::DrillConfig {
        requests_per_round: 40 * scale.max(1),
        ..fleet::DrillConfig::default()
    };
    let walkback = fleet::DrillConfig {
        corrupt_latest: 2,
        ..cfg.clone()
    };
    vec![
        drill_point("restore", &cfg),
        drill_point("walkback", &walkback),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_paper_exactly() {
        let t = measure_table1();
        let expected = [(26u64, 2u64), (34, 3), (75, 3), (7, 2)];
        for (row, (inter, intra)) in t.rows.iter().zip(expected) {
            assert_eq!(row.inter, inter, "{} (inter)", row.name);
            assert_eq!(row.intra, intra, "{} (intra)", row.name);
        }
        let (inter, intra, hw) = t.totals();
        assert_eq!(inter, 142, "paper's 142-cycle protected call");
        assert_eq!(intra, 10, "paper's 10-cycle unprotected call");
        // The paper prints 89 as the hardware total although its rows sum
        // to 76; our analytic rows sum close to the row sum.
        assert!((70.0..90.0).contains(&hw), "hardware total {hw}");
    }

    #[test]
    fn table2_shape_matches_the_paper() {
        let rows = measure_table2();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // Palladium within roughly the 142-cycle delta (0.71us) of
            // unprotected.
            let delta = r.palladium_us - r.unprotected_us;
            assert!(
                (0.3..1.2).contains(&delta),
                "{}-byte delta {delta:.2}us",
                r.size
            );
            assert!(r.rpc_us > 10.0 * r.palladium_us);
        }
        // Within 30% of the paper's absolute values.
        let paper = [(32u32, 2.20), (64, 4.06), (128, 7.78), (256, 15.22)];
        for (r, (size, us)) in rows.iter().zip(paper) {
            assert_eq!(r.size, size);
            let err = (r.unprotected_us - us).abs() / us;
            assert!(err < 0.30, "{size}B: got {:.2} vs {us}", r.unprotected_us);
        }
        assert!(rows[0].rpc_us / rows[0].unprotected_us > 100.0);
    }

    #[test]
    fn figure7_crossover_and_factor() {
        let pts = measure_figure7();
        assert!(pts[0].bpf_cycles < pts[0].palladium_cycles);
        assert!(pts[4].bpf_cycles >= 2 * pts[4].palladium_cycles);
        for w in pts.windows(2) {
            assert!(w[1].bpf_cycles > w[0].bpf_cycles);
        }
    }

    #[test]
    fn throughput_bench_runs_all_workloads() {
        let pts = measure_sim_throughput_with(50, 30, 10, 50);
        assert_eq!(pts.len(), 6);
        let tags: Vec<_> = pts.iter().map(|p| p.workload).collect();
        assert_eq!(
            tags,
            [
                "figure7",
                "chaos",
                "webserver",
                "kext_dispatch",
                "figure7_hoist",
                "kext_hoist"
            ]
        );
        for p in &pts {
            // The simulated work is mode-independent; only host time may
            // differ. (Speedup itself is wall-clock and not asserted.)
            assert!(p.fast_insns > 0, "{}: no guest work", p.workload);
            assert_eq!(p.fast_insns, p.base_insns, "{}", p.workload);
            assert!(p.fast_ips() > 0.0 && p.base_ips() > 0.0);
        }
    }

    #[test]
    fn scaling_workloads_do_identical_guest_work_at_any_worker_count() {
        let pts = measure_scaling_with(4, 20, 30, 16, &[1, 4]);
        assert_eq!(pts.len(), 6);
        for w in ["figure7", "chaos", "webserver"] {
            let rows: Vec<&ScalingPoint> = pts.iter().filter(|p| p.workload == w).collect();
            assert_eq!(rows.len(), 2, "{w}");
            assert_eq!(
                rows[0].guest_insns, rows[1].guest_insns,
                "{w}: sharded work must be invariant"
            );
            assert!(rows[0].guest_insns > 0, "{w}: no guest work");
            // Boot cost is reported deterministically (chaos boots
            // inside its campaign).
            assert_eq!(rows[0].boot_cycles, rows[1].boot_cycles, "{w}");
            if w != "chaos" {
                assert!(rows[0].boot_cycles > 0, "{w}: boot cost unreported");
            }
        }
        // The webserver rows count guest instructions, not simulated
        // cycles: every instruction costs at least one cycle, and the
        // serving path adds syscall and trampoline charges on top.
        let (insns, cycles, _) = scaling_webserver(4, 16, parex::Pool::new(1));
        let row = pts.iter().find(|p| p.workload == "webserver").unwrap();
        assert_eq!(row.guest_insns, insns);
        assert!(
            insns < cycles,
            "webserver: {insns} insns vs {cycles} cycles"
        );
    }

    #[test]
    fn fork_startup_is_at_least_100x_cheaper_than_cold_boot() {
        for p in measure_startup() {
            assert!(p.cold_secs > 0.0 && p.fork_secs > 0.0, "{}", p.world);
            assert!(
                p.speedup() >= 100.0,
                "{}: fork only {:.0}x cheaper ({:.6}s cold vs {:.9}s fork)",
                p.world,
                p.speedup(),
                p.cold_secs,
                p.fork_secs
            );
        }
    }

    #[test]
    fn fleet_bench_covers_both_scenarios() {
        let pts = measure_fleet(1);
        assert_eq!(pts.len(), 2);
        let rb = &pts[0];
        assert_eq!(rb.scenario, "rollback");
        assert_eq!(rb.outcome, "rolled-back");
        assert!(rb.rollback_round.is_some());
        assert!(rb.rollback_latency_cycles.unwrap() > 0);
        assert_eq!(rb.dropped, 0, "graceful degradation never drops");
        let pm = &pts[1];
        assert_eq!(pm.scenario, "promote");
        assert_eq!(pm.outcome, "promoted");
        assert!(pm.converged_round.is_some());
        assert_eq!(pm.degraded + pm.dropped, 0, "healthy roll serves 100%");
        for p in &pts {
            assert!(p.guest_insns > 0);
            assert!(p.availability_bp <= 10_000);
        }
    }

    #[test]
    fn durability_bench_covers_every_world_layer() {
        let pts = measure_durability();
        let worlds: Vec<&str> = pts.iter().map(|p| p.world).collect();
        assert_eq!(worlds, ["machine", "kernel", "session", "replica"]);
        // Each layer's image holds the previous layer's sections plus
        // its own, so sizes are strictly increasing.
        for w in pts.windows(2) {
            assert!(
                w[1].image_bytes > w[0].image_bytes,
                "{} ({}) should outsize {} ({})",
                w[1].world,
                w[1].image_bytes,
                w[0].world,
                w[0].image_bytes
            );
        }
        // Images are deterministic: size and trailer CRC pin every byte.
        let fingerprints: Vec<(usize, u32)> =
            pts.iter().map(|p| (p.image_bytes, p.image_crc)).collect();
        assert_eq!(
            fingerprints,
            [
                (681_344, 0x3251_2C79),
                (682_917, 0xC99B_3AA3),
                (683_138, 0x2744_0DFE),
                (732_807, 0x23B5_52E9),
            ]
        );
        for p in &pts {
            assert!(p.save_secs > 0.0 && p.restore_secs > 0.0);
        }
    }

    #[test]
    fn drill_bench_covers_restore_and_walkback() {
        let pts = measure_drills(1);
        assert_eq!(pts.len(), 2);
        let restore = &pts[0];
        assert_eq!(restore.scenario, "restore");
        assert_eq!(restore.outcome, "restored");
        assert_eq!(restore.generations_walked, 0);
        let walk = &pts[1];
        assert_eq!(walk.scenario, "walkback");
        assert_eq!(walk.outcome, "restored-after-walkback");
        assert!(walk.generations_walked > 0);
        for p in &pts {
            assert!(
                p.rounds_to_converge.is_some(),
                "{}: never converged",
                p.scenario
            );
            assert!(p.recovery_degraded > 0, "crash must cost some 503s");
            assert!(p.availability_bp < 10_000 && p.availability_bp > 9_000);
            assert!(p.largest_image_bytes > 0);
        }
    }

    #[test]
    fn micro_matches_paper_constants() {
        let m = measure_micro();
        assert_eq!(m.seg_load_cycles, 12);
        assert_eq!(m.sigsegv_cycles, 3_325);
        assert_eq!(m.kext_abort_cycles, 1_020);
        assert!((m.dlopen_us - 400.0).abs() < 40.0, "{}", m.dlopen_us);
        assert!(m.seg_dlopen_us > m.dlopen_us);
        let ten_pages = m.ppl_marking.iter().find(|(p, _)| *p == 10).unwrap().1;
        assert!((3_450..=5_450).contains(&ten_pages));
    }
}

// ---------------------------------------------------------------------------
// Isolation-backend matrix

/// One adversarial scenario's outcome under one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainmentOutcome {
    /// Scenario name.
    pub scenario: &'static str,
    /// What stopped the adversary: a fault-dispatcher tag
    /// (`"page-protection"`, `"page-key"`, ...), `"budget"`,
    /// `"load-rejected"` (refused before it ever ran) or `"masked"`
    /// (SFI redirected the write into the sandbox).
    pub outcome: String,
    /// Whether the violation was contained (every row should be `true`).
    pub contained: bool,
}

/// One backend's row of the comparative isolation matrix: warm
/// protected-call cost, dispatch cost on a branch-free filter workload,
/// and containment outcomes over a small adversarial corpus.
///
/// Everything is counted in guest cycles on the deterministic simulator,
/// so rows are bit-reproducible across hosts and runs — unlike the
/// wall-clock throughput sections.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendMatrixRow {
    /// [`palladium::BackendKind::name`] of the backend.
    pub backend: &'static str,
    /// Warm null-extension protected call, guest cycles (same protocol
    /// as the Table 2 harness: back-to-back deterministic calls).
    pub warm_call_cycles: u64,
    /// Warm 4-load checksum-filter dispatch, guest cycles.
    pub dispatch_cycles: u64,
    /// Outcome per adversarial scenario.
    pub containment: Vec<ContainmentOutcome>,
}

impl BackendMatrixRow {
    /// Warm filter dispatches per million guest cycles.
    pub fn dispatch_per_mcycle(&self) -> f64 {
        1e6 / self.dispatch_cycles as f64
    }

    /// `(contained, total)` over the adversarial corpus.
    pub fn coverage(&self) -> (usize, usize) {
        let contained = self.containment.iter().filter(|c| c.contained).count();
        (contained, self.containment.len())
    }
}

/// The branch-free dispatch workload: the SFI rewriter admits no
/// relative branches, so a straight-line checksum keeps the *same*
/// object loadable under all three backends.
const SUM4_SRC: &str = "\
sum4:
    mov ecx, [esp+4]
    mov eax, [ecx]
    add eax, [ecx+4]
    add eax, [ecx+8]
    add eax, [ecx+12]
    ret
";

/// Stores the argument through itself as a pointer — a wild write when
/// called with an application-private address.
const WILD_SRC: &str = "\
wild:
    mov eax, [esp+4]
    mov [eax], eax
    ret
";

/// Regenerates the isolation-backend matrix: every
/// [`palladium::BackendKind`] raced over the same workloads and the same
/// adversarial corpus, each loaded with [`DlopenOptions::backend`].
pub fn measure_backend_matrix() -> Vec<BackendMatrixRow> {
    use palladium::{BackendKind, FaultAttribution};

    BackendKind::ALL
        .iter()
        .map(|&kind| {
            let opts = DlopenOptions::new().backend(kind);

            let mut k = Kernel::boot();
            let mut app = ExtensibleApp::new(&mut k).expect("app");

            // Warm protected-call cost.
            let nul = Assembler::assemble("nul:\n    ret\n").unwrap();
            let h = app.dlopen(&mut k, &nul, &opts).expect("load nul");
            let f = app.seg_dlsym(&mut k, h, "nul").expect("resolve nul");
            app.call_extension(&mut k, f, 0).unwrap();
            let c0 = k.m.cycles();
            app.call_extension(&mut k, f, 0).unwrap();
            let c1 = k.m.cycles();
            app.call_extension(&mut k, f, 0).unwrap();
            let c2 = k.m.cycles();
            assert_eq!(c1 - c0, c2 - c1, "{kind}: warm calls are deterministic");
            let warm_call_cycles = c2 - c1;

            // Dispatch cost on the checksum filter.
            let sum = Assembler::assemble(SUM4_SRC).unwrap();
            let h = app.dlopen(&mut k, &sum, &opts).expect("load sum4");
            let f = app.seg_dlsym(&mut k, h, "sum4").expect("resolve sum4");
            let shared = app.alloc_shared(&mut k, 1).expect("shared");
            for (i, v) in [11u32, 22, 33, 44].iter().enumerate() {
                assert!(k.m.host_write(shared + 4 * i as u32, &v.to_le_bytes()));
            }
            assert_eq!(
                app.call_extension(&mut k, f, shared).unwrap(),
                110,
                "{kind}"
            );
            let c0 = k.m.cycles();
            app.call_extension(&mut k, f, shared).unwrap();
            let c1 = k.m.cycles();
            app.call_extension(&mut k, f, shared).unwrap();
            let c2 = k.m.cycles();
            assert_eq!(c1 - c0, c2 - c1, "{kind}: warm dispatch is deterministic");
            let dispatch_cycles = c2 - c1;

            // Containment corpus, each adversary in a fresh world.
            let corpus: [(&'static str, &str, &str); 3] = [
                ("wild-write", "wild", WILD_SRC),
                ("priv-insn", "bad", "bad:\n    hlt\n    ret\n"),
                ("runaway", "spin", "spin:\n    jmp spin\n"),
            ];
            let containment = corpus
                .iter()
                .map(|&(scenario, entry_name, src)| {
                    let mut k = Kernel::boot();
                    k.extension_cycle_limit = 50_000;
                    let mut app = ExtensibleApp::new(&mut k).expect("app");
                    let obj = Assembler::assemble(src).unwrap();
                    let h = match app.dlopen(&mut k, &obj, &opts) {
                        Ok(h) => h,
                        Err(_) => {
                            return ContainmentOutcome {
                                scenario,
                                outcome: "load-rejected".into(),
                                contained: true,
                            }
                        }
                    };
                    let entry = app
                        .seg_dlsym(&mut k, h, entry_name)
                        .expect("resolve adversary");
                    let victim = app.save_slot_addr();
                    let (outcome, contained) = match app.call_extension(&mut k, entry, victim) {
                        Ok(_) => {
                            // The call survived: legal only if the wild
                            // store was masked away from the victim.
                            let masked = k.m.host_read_u32(victim) != victim;
                            let tag = if masked { "masked" } else { "escaped" };
                            (tag.to_string(), masked)
                        }
                        Err(e) => match e.attribution() {
                            FaultAttribution::Contained { check } => (check.to_string(), true),
                            FaultAttribution::Budget => ("budget".into(), true),
                            FaultAttribution::Unattributed => ("unattributed".into(), false),
                        },
                    };
                    ContainmentOutcome {
                        scenario,
                        outcome,
                        contained,
                    }
                })
                .collect();

            BackendMatrixRow {
                backend: kind.name(),
                warm_call_cycles,
                dispatch_cycles,
                containment,
            }
        })
        .collect()
}
