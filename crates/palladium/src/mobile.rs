//! A mobile-code system on top of the user-level mechanism (§6).
//!
//! The paper's first item of on-going work: "a mobile code system based
//! on Palladium. Combined with restricted OS services, Palladium could
//! provide the security guarantee for mobile applets that are written in
//! a compiled language such as C."
//!
//! The pitch is that *no verification of the applet binary is needed* —
//! unlike Java bytecode or proof-carrying code, the hardware contains
//! whatever the applet does. An [`AppletHost`] therefore accepts raw
//! compiled images from an untrusted source, confines each applet to the
//! extension protection domain, exposes only an explicit allow-list of
//! host services through call gates, enforces per-applet memory and CPU
//! quotas, and revokes an applet after repeated misbehaviour.

use std::collections::BTreeMap;

use asm86::{decode_program, Object};
use minikernel::Kernel;

use crate::error::Error;
use crate::user_ext::{DlopenOptions, ExtCallError, ExtensibleApp, ExtensionHandle};

/// Per-applet resource limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppletQuota {
    /// Pages for the applet image + stack + heap.
    pub memory_pages: u32,
    /// Cycle budget per invocation.
    pub cycles_per_call: u64,
    /// Misbehaviours (faults/overruns) tolerated before revocation.
    pub max_strikes: u32,
}

impl Default for AppletQuota {
    fn default() -> AppletQuota {
        AppletQuota {
            memory_pages: 16,
            cycles_per_call: 500_000,
            max_strikes: 3,
        }
    }
}

/// Why an applet was rejected at admission.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The image exceeds the memory quota.
    TooLarge { pages: u32, quota: u32 },
    /// The image bytes do not decode as a program (truncated/garbage
    /// download). This is *integrity* checking, not safety — safety comes
    /// from the hardware.
    Corrupt(String),
    /// The applet has unresolved imports outside the service allow-list.
    UnknownImport(String),
    /// Missing the required `applet_main` entry point.
    NoEntryPoint,
    /// Loading failed.
    Load(String),
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmissionError::TooLarge { pages, quota } => {
                write!(f, "applet needs {pages} pages, quota is {quota}")
            }
            AdmissionError::Corrupt(e) => write!(f, "corrupt image: {e}"),
            AdmissionError::UnknownImport(s) => write!(f, "unknown import `{s}`"),
            AdmissionError::NoEntryPoint => write!(f, "no `applet_main` entry point"),
            AdmissionError::Load(e) => write!(f, "load failed: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A running applet.
#[derive(Debug)]
struct Applet {
    name: String,
    handle: ExtensionHandle,
    entry: u32,
    strikes: u32,
    revoked: bool,
    calls: u64,
}

/// Identifies an admitted applet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppletId(usize);

/// Result of one applet invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppletOutcome {
    /// Completed with a result.
    Done(u32),
    /// Aborted by the hardware; strike recorded.
    Faulted {
        /// Strikes so far.
        strikes: u32,
        /// True if this abort revoked the applet.
        revoked: bool,
    },
    /// Exceeded its cycle quota; strike recorded.
    OverBudget {
        /// Strikes so far.
        strikes: u32,
        /// True if this abort revoked the applet.
        revoked: bool,
    },
    /// The applet was revoked earlier.
    Revoked,
}

/// Hosts untrusted compiled applets inside an extensible application.
#[derive(Debug)]
pub struct AppletHost {
    app: ExtensibleApp,
    quota: AppletQuota,
    applets: Vec<Applet>,
    /// Service allow-list: import name → resolved gate-call shim or
    /// library routine address.
    services: BTreeMap<String, u32>,
}

impl AppletHost {
    /// Creates a host with the shared mini-libc pre-loaded (its
    /// non-buffering routines are the only imports admitted by default).
    pub fn new(k: &mut Kernel, quota: AppletQuota) -> Result<AppletHost, Error> {
        let mut app = ExtensibleApp::new(k)?;
        let libc_base = app.load_libc(k)?;
        let _ = libc_base;
        let services = crate::stdlib::libc_object()
            .symbols
            .keys()
            .map(|name| (name.clone(), 0u32))
            .collect();
        Ok(AppletHost {
            app,
            quota,
            applets: Vec::new(),
            services,
        })
    }

    /// Adds a host service to the allow-list: an SPL 2 implementation,
    /// exported through a call gate, callable by applets.
    pub fn allow_service(
        &mut self,
        k: &mut Kernel,
        name: &str,
        impl_obj: &Object,
        impl_symbol: &str,
    ) -> Result<u16, Error> {
        let syms = self.app.install_app_code(k, impl_obj)?;
        let addr = *syms
            .get(impl_symbol)
            .ok_or_else(|| Error::NoSymbol(impl_symbol.to_string()))?;
        let gate = self.app.register_service(k, addr)?;
        self.services.insert(name.to_string(), gate as u32);
        Ok(gate)
    }

    /// Admits an applet "downloaded" as raw image bytes plus its symbol
    /// table (the wire format of this little system).
    ///
    /// Admission checks are integrity and policy only; safety needs no
    /// verification because the hardware contains the applet (the
    /// system's whole point).
    pub fn admit(
        &mut self,
        k: &mut Kernel,
        name: &str,
        obj: &Object,
    ) -> Result<AppletId, AdmissionError> {
        let pages = (obj.len() as u32).div_ceil(4096).max(1) + 8; // + stack/heap
        if pages > self.quota.memory_pages {
            return Err(AdmissionError::TooLarge {
                pages,
                quota: self.quota.memory_pages,
            });
        }
        // Integrity: the image must decode as instructions up to the
        // first data symbol (heuristic: decode the whole image when it
        // has no data section marker; tolerate trailing data).
        let code_end = obj
            .symbol("applet_data")
            .map(|o| o as usize)
            .unwrap_or(obj.bytes.len());
        decode_program(&obj.bytes[..code_end])
            .map_err(|e| AdmissionError::Corrupt(e.to_string()))?;

        if obj.symbol("applet_main").is_none() {
            return Err(AdmissionError::NoEntryPoint);
        }
        for import in obj.undefined_symbols() {
            if !self.services.contains_key(import) {
                return Err(AdmissionError::UnknownImport(import.to_string()));
            }
        }

        let handle = self
            .app
            .dlopen(k, obj, &DlopenOptions::new().stack_pages(4).heap_pages(4))
            .map_err(|e| AdmissionError::Load(e.to_string()))?;
        let entry = self
            .app
            .seg_dlsym(k, handle, "applet_main")
            .map_err(|e| AdmissionError::Load(e.to_string()))?;

        self.applets.push(Applet {
            name: name.to_string(),
            handle,
            entry,
            strikes: 0,
            revoked: false,
            calls: 0,
        });
        Ok(AppletId(self.applets.len() - 1))
    }

    /// Invokes an applet under its quota. Misbehaviour earns strikes;
    /// enough strikes revoke it (its pages are pulled, as `seg_dlclose`).
    pub fn invoke(&mut self, k: &mut Kernel, id: AppletId, arg: u32) -> AppletOutcome {
        if self.applets[id.0].revoked {
            return AppletOutcome::Revoked;
        }
        let entry = self.applets[id.0].entry;
        let saved_limit = k.extension_cycle_limit;
        k.extension_cycle_limit = self.quota.cycles_per_call;
        let result = self.app.call_extension(k, entry, arg);
        k.extension_cycle_limit = saved_limit;
        let a = &mut self.applets[id.0];
        match result {
            Ok(v) => {
                a.calls += 1;
                AppletOutcome::Done(v)
            }
            Err(ExtCallError::Fault { .. }) | Err(ExtCallError::Killed(_)) => {
                a.strikes += 1;
                let revoked = a.strikes >= self.quota.max_strikes;
                if revoked {
                    a.revoked = true;
                    let h = a.handle;
                    let _ = self.app.seg_dlclose(k, h);
                }
                AppletOutcome::Faulted {
                    strikes: self.applets[id.0].strikes,
                    revoked,
                }
            }
            Err(ExtCallError::TimeLimit) => {
                a.strikes += 1;
                let revoked = a.strikes >= self.quota.max_strikes;
                if revoked {
                    a.revoked = true;
                    let h = a.handle;
                    let _ = self.app.seg_dlclose(k, h);
                }
                AppletOutcome::OverBudget {
                    strikes: self.applets[id.0].strikes,
                    revoked,
                }
            }
        }
    }

    /// Applet status: (name, calls completed, strikes, revoked).
    pub fn status(&self, id: AppletId) -> (&str, u64, u32, bool) {
        let a = &self.applets[id.0];
        (&a.name, a.calls, a.strikes, a.revoked)
    }

    /// Allocates a shared data area readable and writable by both the
    /// host application and its applets.
    pub fn alloc_shared(&mut self, k: &mut Kernel, pages: u32) -> Result<u32, Error> {
        self.app.alloc_shared(k, pages)
    }

    /// Number of admitted applets.
    pub fn len(&self) -> usize {
        self.applets.len()
    }

    /// True if no applets were admitted.
    pub fn is_empty(&self) -> bool {
        self.applets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm86::Assembler;

    fn host(k: &mut Kernel) -> AppletHost {
        AppletHost::new(k, AppletQuota::default()).unwrap()
    }

    fn applet(src: &str) -> Object {
        Assembler::assemble(src).unwrap()
    }

    #[test]
    fn well_behaved_applet_runs() {
        let mut k = Kernel::boot();
        let mut h = host(&mut k);
        let id = h
            .admit(
                &mut k,
                "adder",
                &applet("applet_main:\nmov eax, [esp+4]\nadd eax, 100\nret\n"),
            )
            .unwrap();
        assert_eq!(h.invoke(&mut k, id, 11), AppletOutcome::Done(111));
        assert_eq!(h.status(id), ("adder", 1, 0, false));
    }

    #[test]
    fn applet_can_use_allowed_libc() {
        let mut k = Kernel::boot();
        let mut h = host(&mut k);
        // strlen is on the default allow-list (shared libc at PPL 1).
        let id = h
            .admit(
                &mut k,
                "measurer",
                &applet(
                    "applet_main:\n\
                     push dword [esp+4]\n\
                     call strlen\n\
                     add esp, 4\n\
                     ret\n",
                ),
            )
            .unwrap();
        // Hand it a string in a shared area.
        let shared = h.app.alloc_shared(&mut k, 1).unwrap();
        k.m.host_write(shared, b"mobile\0");
        assert_eq!(h.invoke(&mut k, id, shared), AppletOutcome::Done(6));
    }

    #[test]
    fn unknown_imports_rejected_at_admission() {
        let mut k = Kernel::boot();
        let mut h = host(&mut k);
        let e = h
            .admit(
                &mut k,
                "sneaky",
                &applet("applet_main:\ncall secret_kernel_api\nret\n"),
            )
            .unwrap_err();
        assert_eq!(e, AdmissionError::UnknownImport("secret_kernel_api".into()));
    }

    #[test]
    fn corrupt_downloads_rejected() {
        let mut k = Kernel::boot();
        let mut h = host(&mut k);
        let mut obj = applet("applet_main:\nret\n");
        obj.bytes[0] = 0xFF; // opcode garbage
        assert!(matches!(
            h.admit(&mut k, "noise", &obj),
            Err(AdmissionError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_and_entryless_applets_rejected() {
        let mut k = Kernel::boot();
        let mut h = AppletHost::new(
            &mut k,
            AppletQuota {
                memory_pages: 9,
                ..AppletQuota::default()
            },
        )
        .unwrap();
        let mut big = String::from("applet_main:\n");
        for _ in 0..1200 {
            big.push_str("nop\n");
        }
        big.push_str("ret\n.space 8192\n");
        assert!(matches!(
            h.admit(&mut k, "big", &applet(&big)),
            Err(AdmissionError::TooLarge { .. })
        ));
        assert_eq!(
            h.admit(&mut k, "lost", &applet("not_main:\nret\n")),
            Err(AdmissionError::NoEntryPoint)
        );
    }

    #[test]
    fn hostile_applet_earns_strikes_and_revocation() {
        let mut k = Kernel::boot();
        let mut h = host(&mut k);
        let id = h
            .admit(
                &mut k,
                "hostile",
                &applet(&format!(
                    "applet_main:\nmov eax, 1\nmov [{}], eax\nret\n",
                    minikernel::USER_TEXT
                )),
            )
            .unwrap();
        for strike in 1..=2 {
            match h.invoke(&mut k, id, 0) {
                AppletOutcome::Faulted { strikes, revoked } => {
                    assert_eq!(strikes, strike);
                    assert!(!revoked);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match h.invoke(&mut k, id, 0) {
            AppletOutcome::Faulted {
                strikes: 3,
                revoked: true,
            } => {}
            other => panic!("expected revocation, got {other:?}"),
        }
        assert_eq!(h.invoke(&mut k, id, 0), AppletOutcome::Revoked);
        let (_, calls, strikes, revoked) = h.status(id);
        assert_eq!((calls, strikes, revoked), (0, 3, true));
    }

    #[test]
    fn spinning_applet_hits_its_cycle_quota() {
        let mut k = Kernel::boot();
        let mut h = AppletHost::new(
            &mut k,
            AppletQuota {
                cycles_per_call: 20_000,
                ..AppletQuota::default()
            },
        )
        .unwrap();
        let id = h
            .admit(
                &mut k,
                "spinner",
                &applet("applet_main:\nspin:\njmp spin\n"),
            )
            .unwrap();
        assert!(matches!(
            h.invoke(&mut k, id, 0),
            AppletOutcome::OverBudget { strikes: 1, .. }
        ));
    }

    #[test]
    fn custom_host_service_via_gate() {
        let mut k = Kernel::boot();
        let mut h = host(&mut k);
        // Expose a "host_time"-style service at SPL 2 returning a value
        // the applet could never fabricate (reads app-private memory).
        let gate = h
            .allow_service(
                &mut k,
                "host_magic",
                &applet("svc:\nmov eax, 0xBEEF\nret\n"),
                "svc",
            )
            .unwrap();

        // The applet lcalls the gate directly (selector patched in, as a
        // real system would pass it via the applet's launch parameters).
        let id = h
            .admit(
                &mut k,
                "caller",
                &applet("applet_main:\nhere:\nlcall 0, 0\nret\n"),
            )
            .unwrap();
        // Patch the selector at `here` + 1.
        let a = &h.applets[id.0];
        let here = h.app.dlsym(a.handle, "here").unwrap();
        assert!(k.m.host_write(here + 1, &gate.to_le_bytes()));
        assert_eq!(h.invoke(&mut k, id, 0), AppletOutcome::Done(0xBEEF));
    }

    #[test]
    fn many_applets_coexist() {
        let mut k = Kernel::boot();
        let mut h = host(&mut k);
        let mut ids = Vec::new();
        for i in 0..6u32 {
            let id = h
                .admit(
                    &mut k,
                    &format!("applet{i}"),
                    &applet(&format!(
                        "applet_main:\nmov eax, [esp+4]\nadd eax, {i}\nret\n"
                    )),
                )
                .unwrap();
            ids.push(id);
        }
        assert_eq!(h.len(), 6);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                h.invoke(&mut k, *id, 10),
                AppletOutcome::Done(10 + i as u32)
            );
        }
    }
}
