//! [`Session`] — the one-stop front door to the user-level mechanism.
//!
//! The primitive API is deliberately explicit: callers boot a
//! [`Kernel`], create an [`ExtensibleApp`] inside it, and thread
//! `&mut Kernel` through every call. That is the right interface for
//! drivers that also manage kernel extensions, supervisors and shared
//! areas on the same kernel — and pure ceremony for the common case of
//! "load an extension, call it, survive its bugs".
//!
//! `Session` owns the kernel and the promoted application together and
//! re-exposes the load/resolve/call/close lifecycle with every error
//! funnelled into the unified [`Error`] enum:
//!
//! ```
//! use palladium::{DlopenOptions, Session};
//!
//! let mut s = Session::new().expect("boot");
//! let ext = asm86::Assembler::assemble("double:\nmov eax, [esp+4]\nadd eax, eax\nret\n")
//!     .unwrap();
//! let h = s.dlopen(&ext, &DlopenOptions::new().verify(&["double"])).unwrap();
//! let double = s.dlsym(h, "double").unwrap();
//! assert_eq!(s.call(double, 21).unwrap(), 42);
//! assert!(s.attestation(h).unwrap().is_some());
//! ```
//!
//! Escape hatches ([`Session::kernel_mut`], [`Session::app_mut`],
//! [`Session::into_parts`]) hand back the primitives whenever a caller
//! outgrows the façade; a sharded driver does exactly that to own one
//! `Session` per worker shard.

use asm86::Object;
use minikernel::Kernel;
use verifier::Attestation;
use x86sim::image::{base, kind, Enc, ImageBuilder, ImageView, RestoreError};

use crate::backend::BackendKind;
use crate::error::Error;
use crate::user_ext::{DlopenOptions, ExtensibleApp, ExtensionHandle};

/// A booted kernel plus its promoted extensible application.
///
/// See the [module docs](self) for the lifecycle and an example.
#[derive(Debug, Clone)]
pub struct Session {
    k: Kernel,
    app: ExtensibleApp,
    backend: BackendKind,
}

impl Session {
    /// Boots a fresh kernel and promotes an extensible application in it
    /// (`init_PL`: the app moves to SPL 2, its writable pages to PPL 0).
    /// Extensions load under the default [`BackendKind::SegPaging`]
    /// isolation backend.
    pub fn new() -> Result<Session, Error> {
        Session::with_kernel(Kernel::boot())
    }

    /// As [`new`](Self::new) but with every load routed through `kind`
    /// unless a [`DlopenOptions::backend`] overrides it per extension.
    pub fn with_backend(kind: BackendKind) -> Result<Session, Error> {
        let mut s = Session::with_kernel(Kernel::boot())?;
        s.backend = kind;
        Ok(s)
    }

    /// As [`new`](Self::new) but over a caller-configured kernel (memory
    /// size, cycle limits, predecode mode already applied).
    pub fn with_kernel(mut k: Kernel) -> Result<Session, Error> {
        let app = ExtensibleApp::new(&mut k)?;
        Ok(Session {
            k,
            app,
            backend: BackendKind::SegPaging,
        })
    }

    /// The session's default isolation backend (applied to loads whose
    /// options carry no explicit backend).
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Forks the session: a new, fully independent world — kernel,
    /// machine, loaded extensions, attestations — produced in
    /// microseconds by copy-on-write frame sharing
    /// ([`x86sim::Machine::fork`]).
    ///
    /// The idiom: boot once, `dlopen`/`load_libc`/warm the expensive
    /// state, then fork one session per shard or episode. Forks are
    /// cycle/stat/fault byte-identical to the parent at the fork point
    /// and their writes never bleed into the parent or each other.
    pub fn fork(&self) -> Session {
        self.clone()
    }

    /// Loads an extension (the paper's `seg_dlopen`), with verification,
    /// attestation and backend governed by `opts`. The extension is
    /// guarded by the backend `opts` names, falling back to the session
    /// default ([`backend`](Self::backend)).
    pub fn dlopen(&mut self, obj: &Object, opts: &DlopenOptions) -> Result<ExtensionHandle, Error> {
        let kind = opts.backend_kind().unwrap_or(self.backend);
        self.app.dlopen_as(&mut self.k, obj, opts, kind)
    }

    /// Resolves a *function* symbol to the entry point protected calls
    /// must use — a generated `Prepare` routine for the hardware
    /// backends, the rewritten function itself under SFI (`seg_dlsym`).
    pub fn dlsym(&mut self, h: ExtensionHandle, name: &str) -> Result<u32, Error> {
        self.app.seg_dlsym(&mut self.k, h, name)
    }

    /// Resolves a *data* symbol to its raw address (plain `dlsym`; §4.4.2:
    /// data pointers pass unswizzled).
    pub fn data_symbol(&self, h: ExtensionHandle, name: &str) -> Result<u32, Error> {
        self.app.dlsym(h, name)
    }

    /// Makes a protected call through the Figure 6 sequence. `prepare`
    /// is a pointer returned by [`dlsym`](Self::dlsym); faults and
    /// CPU-limit overruns abort the call ([`Error::Call`]) and the
    /// application survives; [`ExtCallError::attribution`] says which
    /// check contained it.
    ///
    /// [`ExtCallError::attribution`]: crate::ExtCallError::attribution
    pub fn call(&mut self, prepare: u32, arg: u32) -> Result<u32, Error> {
        Ok(self.app.call_extension(&mut self.k, prepare, arg)?)
    }

    /// Closes an extension: its protections are revoked and any later
    /// call into it faults (`seg_dlclose`).
    pub fn dlclose(&mut self, h: ExtensionHandle) -> Result<(), Error> {
        self.app.seg_dlclose(&mut self.k, h)
    }

    /// Audits for protection state leaked past an unload, under every
    /// backend at once (see [`ExtensibleApp::leak_audit`]); one finding
    /// per leak, empty when clean.
    pub fn leak_audit(&self) -> Vec<String> {
        self.app.leak_audit(&self.k)
    }

    /// The `Verified` attestation of an extension admitted through a
    /// [`DlopenOptions::verify`] load, if any.
    pub fn attestation(&self, h: ExtensionHandle) -> Result<Option<Attestation>, Error> {
        self.app.attestation(h)
    }

    /// Loads the miniature shared libc (PPL 1), making its symbols
    /// importable by later [`dlopen`](Self::dlopen)s.
    pub fn load_libc(&mut self) -> Result<u32, Error> {
        self.app.load_libc(&mut self.k)
    }

    /// Per-invocation CPU-time budget for protected calls (§4.5.2).
    pub fn set_cycle_limit(&mut self, cycles: u64) {
        self.k.extension_cycle_limit = cycles;
    }

    /// The underlying kernel (cycle counters, stats, memory).
    pub fn kernel(&self) -> &Kernel {
        &self.k
    }

    /// Mutable access to the underlying kernel.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.k
    }

    /// The underlying extensible application (call counters, selectors).
    pub fn app(&self) -> &ExtensibleApp {
        &self.app
    }

    /// Mutable access to the underlying application.
    pub fn app_mut(&mut self) -> &mut ExtensibleApp {
        &mut self.app
    }

    /// Splits the session back into its primitives for callers that need
    /// to drive the kernel and application separately.
    pub fn into_parts(self) -> (Kernel, ExtensibleApp) {
        (self.k, self.app)
    }

    /// Serializes the whole session — the kernel's and machine's
    /// sections plus the application's extension tables — into one
    /// standalone, integrity-checked byte image.
    ///
    /// Derived state (block tokens, translation memos) is deliberately
    /// excluded; a [`restore`](Self::restore)d session is cycle-, stat-
    /// and fault-identical going forward regardless.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut b = ImageBuilder::new(kind::SESSION);
        self.k.save_sections(&mut b);
        let mut sec = Enc::new();
        self.app.save_into(&mut sec);
        b.section(base::APP + 1, sec);
        let mut sec = Enc::new();
        sec.u8(self.backend.code());
        b.section(base::SESSION + 1, sec);
        b.finish()
    }

    /// Rebuilds a session from [`checkpoint`](Self::checkpoint) bytes.
    ///
    /// Every structural and integrity violation — bad magic, version or
    /// kind mismatch, truncation, a failed section or image CRC —
    /// surfaces as a typed [`RestoreError`]; a tampered image is never
    /// silently restored.
    pub fn restore(bytes: &[u8]) -> Result<Session, RestoreError> {
        let view = ImageView::parse(bytes, kind::SESSION)?;
        let mut k = Kernel::restore_sections(&view)?;
        let mut d = view.require(base::APP + 1, "session.app")?;
        let app = ExtensibleApp::restore_from(&mut d)?;
        d.finish()?;
        let mut d = view.require(base::SESSION + 1, "session.backend")?;
        let code = d.u8()?;
        let backend = BackendKind::from_code(code).ok_or_else(|| d.fail("unknown backend code"))?;
        d.finish()?;
        // Proof tokens are derived state (not in the image): rebuild
        // them from the restored attestations so the restored session
        // keeps the proof-elided dispatch fast path.
        app.reinstall_proof_tokens(&mut k);
        Ok(Session { k, app, backend })
    }

    /// As [`restore`](Self::restore), but additionally demands that the
    /// checkpoint was taken under the `expected` isolation backend.
    ///
    /// A ProtKeys checkpoint restored by a driver that assumes the
    /// SegPaging backend would silently run with the wrong containment
    /// model; this surfaces it as a typed
    /// [`Error::BackendMismatch`] instead.
    pub fn restore_as(bytes: &[u8], expected: BackendKind) -> Result<Session, Error> {
        let s = Session::restore(bytes)?;
        if s.backend != expected {
            return Err(Error::BackendMismatch {
                found: s.backend,
                expected,
            });
        }
        Ok(s)
    }
}
