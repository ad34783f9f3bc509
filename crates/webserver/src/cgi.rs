//! The extensible web server and its five CGI execution models (Table 3).
//!
//! * **CGI** — fork + exec a per-request process, pipe the response back.
//! * **FastCGI** — keep the CGI process alive; per-request IPC round trip.
//! * **LibCGI (unprotected)** — the script is a shared library invoked as
//!   a plain function call inside the server's address space \[28].
//! * **LibCGI (protected)** — the same, but the script is a Palladium
//!   user-level extension invoked through the Figure 6 protected call;
//!   the invocation really executes on the simulated CPU.
//! * **Static** — no CGI at all; the upper bound.
//!
//! Each model's per-request CPU cycles combine the calibrated server core
//! costs ([`crate::netcost`]) with the model-specific mechanism cost; the
//! protected-call component is *measured* from the simulator at server
//! start-up, not assumed.

use std::collections::BTreeMap;
use std::sync::Arc;

use asm86::Assembler;
use minikernel::Kernel;
use palladium::user_ext::{DlopenOptions, ExtensibleApp, ExtensionHandle};

use crate::http::{self, Request};
use crate::netcost::{cpu_rps, Link, ServerCosts};

/// The intra-address-space (unprotected) call cost, Table 1's Intra
/// column.
pub const UNPROTECTED_CALL_CYCLES: u64 = 10;

/// CGI execution models, in Table 3 column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecModel {
    /// fork/exec per request.
    Cgi,
    /// Persistent CGI process, IPC per request.
    FastCgi,
    /// Palladium-protected in-process script.
    LibCgiProtected,
    /// Unprotected in-process script.
    LibCgiUnprotected,
    /// Plain file serving (the bound).
    StaticFile,
}

impl ExecModel {
    /// All models, in Table 3 column order.
    pub const ALL: [ExecModel; 5] = [
        ExecModel::Cgi,
        ExecModel::FastCgi,
        ExecModel::LibCgiProtected,
        ExecModel::LibCgiUnprotected,
        ExecModel::StaticFile,
    ];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            ExecModel::Cgi => "CGI",
            ExecModel::FastCgi => "FastCGI",
            ExecModel::LibCgiProtected => "LibCGI (Protected)",
            ExecModel::LibCgiUnprotected => "LibCGI (Unprotected)",
            ExecModel::StaticFile => "Web Server",
        }
    }
}

/// Server errors.
#[derive(Debug)]
pub enum ServerError {
    /// Palladium setup failed.
    Palladium(palladium::Error),
    /// The protected script call failed.
    ScriptFault(String),
    /// Request parsing failed.
    Http(http::HttpError),
    /// No such document.
    NotFound(String),
}

impl core::fmt::Display for ServerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServerError::Palladium(e) => write!(f, "palladium: {e}"),
            ServerError::ScriptFault(e) => write!(f, "script fault: {e}"),
            ServerError::Http(e) => write!(f, "http: {e}"),
            ServerError::NotFound(p) => write!(f, "not found: {p}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<palladium::Error> for ServerError {
    fn from(e: palladium::Error) -> ServerError {
        ServerError::Palladium(e)
    }
}

/// The LibCGI script source: reads the shared area pointer argument,
/// stamps the status word and a marker, and returns the status. This is
/// the guest code every protected invocation actually runs.
const CGI_SCRIPT: &str = "\
cgi_main:
    mov ecx, [esp+4]        ; shared data area
    mov eax, 200
    mov [ecx], eax          ; status code
    mov eax, 0x49474322     ; marker '\"CGI'
    mov [ecx+4], eax
    mov eax, 200
    ret
";

/// What a dynamic endpoint serves while its script is degraded
/// (faulted and waiting out the restart window) instead of a 500.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgiFallback {
    /// Serve `503 Service Unavailable`.
    ServiceUnavailable,
    /// Serve a canned static body with a `200` (graceful degradation to
    /// precomputed content).
    Static(Vec<u8>),
}

/// A registered dynamic endpoint: the live symbols plus everything
/// needed to reinstall the script after a fault.
#[derive(Debug, Clone)]
struct DynamicEndpoint {
    /// Protected `Prepare` address.
    prep: u32,
    /// Unprotected in-process address.
    unprot: u32,
    /// Extension handle of the protected load (for `seg_dlclose`).
    handle: ExtensionHandle,
    /// The original script image, kept for reinstall. Behind an `Arc`
    /// because it is immutable after registration, so forked servers
    /// share it instead of copying the object per clone.
    script: std::sync::Arc<asm86::Object>,
    /// Entry symbol name.
    entry: String,
    /// Opt-in degradation behavior; `None` keeps the plain 500 path.
    fallback: Option<CgiFallback>,
    /// While `Some(t)`, protected requests before cycle `t` get the
    /// fallback response; the first request at or after `t` triggers a
    /// script reinstall.
    degraded_until: Option<u64>,
}

/// The extensible web server.
///
/// `Clone` is a world fork: the kernel's physical frames share
/// copy-on-write ([`x86sim::Machine::fork`]), so replica servers boot
/// from one warmed template in microseconds instead of re-running
/// `WebServer::new` per shard.
#[derive(Debug, Clone)]
pub struct WebServer {
    /// The hosting kernel (public: benches read its cycle counter).
    pub k: Kernel,
    app: ExtensibleApp,
    prep_cgi: u32,
    shared: u32,
    /// Server cost model.
    pub costs: ServerCosts,
    /// The client link.
    pub link: Link,
    /// Warm protected-call cycles, measured at start-up.
    pub protected_call_cycles: u64,
    files: BTreeMap<String, Vec<u8>>,
    /// Dynamic endpoints by path. Behind an `Arc` so a fork shares the
    /// table copy-on-write, like the rest of the world, until it
    /// registers or degrades an endpoint.
    dynamic: Arc<BTreeMap<String, DynamicEndpoint>>,
    /// How long (simulated cycles) a faulted endpoint with a fallback
    /// stays degraded before the server reinstalls its script.
    pub degraded_window: u64,
    /// Fallback responses served in place of a faulted script.
    pub degraded_responses: u64,
    /// Successful script reinstalls after a degradation window.
    pub cgi_restarts: u64,
    /// Requests served.
    pub served: u64,
    /// Common-log-format access log (the paper's Apache logs requests
    /// too; logging cost is part of the calibrated base).
    pub access_log: Vec<String>,
}

impl WebServer {
    /// Boots the kernel, promotes the server, loads the LibCGI script as
    /// a protected extension and measures the warm protected-call cost.
    pub fn new() -> Result<WebServer, ServerError> {
        let mut k = Kernel::boot();
        let mut app = ExtensibleApp::new(&mut k)?;
        let script = Assembler::assemble(CGI_SCRIPT).expect("cgi script");
        let h = app.dlopen(&mut k, &script, &DlopenOptions::new())?;
        let prep_cgi = app.seg_dlsym(&mut k, h, "cgi_main")?;
        let shared = app.alloc_shared(&mut k, 2)?;

        // Measure the warm protected call exactly as §5.1 does: run it
        // twice, take the second.
        app.call_extension(&mut k, prep_cgi, shared)
            .map_err(|e| ServerError::ScriptFault(e.to_string()))?;
        let c0 = k.m.cycles();
        app.call_extension(&mut k, prep_cgi, shared)
            .map_err(|e| ServerError::ScriptFault(e.to_string()))?;
        let protected_call_cycles = k.m.cycles() - c0;

        Ok(WebServer {
            k,
            app,
            prep_cgi,
            shared,
            costs: ServerCosts::default(),
            link: Link::default(),
            protected_call_cycles,
            files: BTreeMap::new(),
            dynamic: Arc::default(),
            degraded_window: 10_000,
            degraded_responses: 0,
            cgi_restarts: 0,
            served: 0,
            access_log: Vec::new(),
        })
    }

    /// Publishes a memory-resident document (the paper's files are
    /// memory-resident too).
    pub fn add_file(&mut self, path: &str, content: Vec<u8>) {
        self.files.insert(path.to_string(), content);
    }

    /// Creates the four benchmark documents of Table 3 under
    /// `/file<size>`.
    pub fn add_benchmark_files(&mut self) {
        for size in [28usize, 1024, 10 * 1024, 100 * 1024] {
            let body: Vec<u8> = (0..size).map(|i| b'a' + (i % 26) as u8).collect();
            self.add_file(&format!("/file{size}"), body);
        }
    }

    /// Analytic per-request CPU cycles for a model and response size.
    pub fn cycles_per_request(&self, model: ExecModel, size: u32) -> u64 {
        let c = &self.costs;
        let base = c.static_cycles(size);
        match model {
            ExecModel::StaticFile => base,
            ExecModel::LibCgiUnprotected => base + c.libcgi_glue + UNPROTECTED_CALL_CYCLES,
            ExecModel::LibCgiProtected => {
                base + c.libcgi_glue + self.protected_call_cycles + c.libcgi_prot_extra
            }
            ExecModel::FastCgi => base + c.fastcgi_ipc + c.fastcgi_per_byte * size as u64,
            ExecModel::Cgi => base + c.cgi_process + c.cgi_per_byte * size as u64,
        }
    }

    /// Throughput in requests/second: the CPU rate capped by the link.
    pub fn throughput_rps(&self, model: ExecModel, size: u32) -> f64 {
        let cpu = cpu_rps(self.cycles_per_request(model, size));
        cpu.min(self.link.capacity_rps(size))
    }

    /// Registers a dynamic endpoint: a CGI script (cdecl, one u32 in, one
    /// u32 out) served at `path`. The script is loaded twice — as a
    /// Palladium extension (for the protected model) and as plain
    /// application code (for every unprotected model) — so a
    /// `GET path?n=<u32>` request computes `f(n)` through whichever
    /// mechanism the execution model dictates.
    pub fn add_dynamic(
        &mut self,
        path: &str,
        script: &asm86::Object,
        entry: &str,
    ) -> Result<(), ServerError> {
        self.register_dynamic(path, script, entry, None)
    }

    /// Like [`WebServer::add_dynamic`], but when the protected script
    /// faults the endpoint degrades to `fallback` for
    /// [`WebServer::degraded_window`] cycles and the server then
    /// reinstalls the script from its stored image, instead of
    /// answering 500 forever.
    pub fn add_dynamic_with_fallback(
        &mut self,
        path: &str,
        script: &asm86::Object,
        entry: &str,
        fallback: CgiFallback,
    ) -> Result<(), ServerError> {
        self.register_dynamic(path, script, entry, Some(fallback))
    }

    fn register_dynamic(
        &mut self,
        path: &str,
        script: &asm86::Object,
        entry: &str,
        fallback: Option<CgiFallback>,
    ) -> Result<(), ServerError> {
        let h = self
            .app
            .dlopen(&mut self.k, script, &DlopenOptions::new())?;
        let prep = self.app.seg_dlsym(&mut self.k, h, entry)?;
        let unprot = self.app.install_app_code(&mut self.k, script)?[entry];
        Arc::make_mut(&mut self.dynamic).insert(
            path.to_string(),
            DynamicEndpoint {
                prep,
                unprot,
                handle: h,
                script: Arc::new(script.clone()),
                entry: entry.to_string(),
                fallback,
                degraded_until: None,
            },
        );
        Ok(())
    }

    /// Whether the endpoint at `path` is currently serving its fallback.
    pub fn dynamic_degraded(&self, path: &str) -> bool {
        self.dynamic
            .get(path)
            .is_some_and(|e| e.degraded_until.is_some())
    }

    /// Serves the endpoint's fallback response and logs it.
    fn fallback_response(&mut self, req: &Request, fb: CgiFallback, model: ExecModel) -> Vec<u8> {
        self.degraded_responses += 1;
        match fb {
            CgiFallback::ServiceUnavailable => {
                self.log(req, 503, 0, model);
                http::error_response(503, "Service Unavailable")
            }
            CgiFallback::Static(body) => {
                self.served += 1;
                self.log(req, 200, body.len(), model);
                http::ok_response("text/html", &body)
            }
        }
    }

    /// If the endpoint is degraded, either serves the fallback (window
    /// still open) or reinstalls the script from its stored image
    /// (window elapsed). Returns `Some(response)` when the request was
    /// answered by the fallback.
    fn poll_endpoint(&mut self, path: &str, req: &Request, model: ExecModel) -> Option<Vec<u8>> {
        let e = self.dynamic.get(path)?;
        let until = e.degraded_until?;
        let fb = e.fallback.clone()?;
        if self.k.m.cycles() < until {
            return Some(self.fallback_response(req, fb, model));
        }
        // Window elapsed: reinstall the script (fault → restart →
        // service resumes). A failed reinstall re-arms the window.
        let (handle, script, entry) = {
            let e = &self.dynamic[path];
            (e.handle, e.script.clone(), e.entry.clone())
        };
        let _ = self.app.seg_dlclose(&mut self.k, handle);
        let reinstalled = self
            .app
            .dlopen(&mut self.k, &script, &DlopenOptions::new())
            .and_then(|h| Ok((h, self.app.seg_dlsym(&mut self.k, h, &entry)?)));
        match reinstalled {
            Ok((h, prep)) => {
                self.cgi_restarts += 1;
                let e = Arc::make_mut(&mut self.dynamic).get_mut(path).unwrap();
                e.handle = h;
                e.prep = prep;
                e.degraded_until = None;
                None
            }
            Err(_) => {
                let again = self.k.m.cycles() + self.degraded_window;
                Arc::make_mut(&mut self.dynamic)
                    .get_mut(path)
                    .unwrap()
                    .degraded_until = Some(again);
                Some(self.fallback_response(req, fb, model))
            }
        }
    }

    fn handle_dynamic(
        &mut self,
        req: &Request,
        n: u32,
        model: ExecModel,
    ) -> Result<Vec<u8>, ServerError> {
        let path = req.path.split('?').next().unwrap_or("").to_string();
        // Degradation only shields the protected model: the unprotected
        // models run in the server's own address space and have no
        // faulting boundary to recover behind.
        if model == ExecModel::LibCgiProtected {
            if let Some(resp) = self.poll_endpoint(&path, req, model) {
                return Ok(resp);
            }
        }
        let (prep, unprot) = {
            let e = &self.dynamic[&path];
            (e.prep, e.unprot)
        };
        // Charge the model's fixed mechanism cost around a small dynamic
        // response (~64 bytes).
        let model_cycles = self.cycles_per_request(model, 64);
        let result = match model {
            ExecModel::LibCgiProtected => {
                self.k
                    .m
                    .charge(model_cycles.saturating_sub(self.protected_call_cycles));
                self.app
                    .call_extension(&mut self.k, prep, n)
                    .map_err(|e| ServerError::ScriptFault(e.to_string()))
            }
            _ => {
                self.k.m.charge(model_cycles);
                self.app
                    .call_app_function(&mut self.k, unprot, n)
                    .map_err(|e| ServerError::ScriptFault(e.to_string()))
            }
        };
        match result {
            Ok(v) => {
                self.served += 1;
                self.log(req, 200, 0, model);
                let body = format!(
                    "n={n} result={v}
"
                )
                .into_bytes();
                Ok(http::ok_response("text/plain", &body))
            }
            Err(_) => {
                if model == ExecModel::LibCgiProtected {
                    let fb = self.dynamic[&path].fallback.clone();
                    if let Some(fb) = fb {
                        let until = self.k.m.cycles() + self.degraded_window;
                        Arc::make_mut(&mut self.dynamic)
                            .get_mut(&path)
                            .unwrap()
                            .degraded_until = Some(until);
                        return Ok(self.fallback_response(req, fb, model));
                    }
                }
                self.log(req, 500, 0, model);
                Ok(http::error_response(500, "Script Error"))
            }
        }
    }

    /// Guesses a Content-Type from the path suffix.
    fn content_type(path: &str) -> &'static str {
        match path.rsplit('.').next() {
            Some("html") | Some("htm") => "text/html",
            Some("txt") => "text/plain",
            Some("css") => "text/css",
            Some("js") => "application/javascript",
            Some("png") => "image/png",
            Some("jpg") | Some("jpeg") => "image/jpeg",
            _ => "text/html",
        }
    }

    fn log(&mut self, req: &Request, status: u16, bytes: usize, model: ExecModel) {
        self.access_log.push(format!(
            "- - [{}] \"{} {} HTTP/1.0\" {} {} ({})",
            self.k.m.cycles(),
            req.method,
            req.path,
            status,
            bytes,
            model.name()
        ));
    }

    /// Serves one request end to end, charging the model's cycle cost.
    /// For the protected model the script invocation really executes on
    /// the simulated CPU; for the others the mechanism cost is charged
    /// from the model.
    pub fn handle(&mut self, raw: &str, model: ExecModel) -> Result<Vec<u8>, ServerError> {
        let req: Request = http::parse_request(raw).map_err(ServerError::Http)?;
        // Dynamic endpoint? `GET /path?n=<u32>`.
        let (bare, query) = match req.path.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (req.path.clone(), None),
        };
        if self.dynamic.contains_key(&bare) {
            let n = query
                .as_deref()
                .and_then(|q| q.strip_prefix("n="))
                .and_then(|v| v.parse::<u32>().ok())
                .unwrap_or(0);
            return self.handle_dynamic(&req, n, model);
        }
        let Some(body) = self.files.get(&req.path).cloned() else {
            self.log(&req, 404, 0, model);
            return Ok(http::error_response(404, "Not Found"));
        };
        let size = body.len() as u32;

        let model_cycles = self.cycles_per_request(model, size);
        match model {
            ExecModel::LibCgiProtected => {
                // Charge everything except the protected call, then make
                // the real protected call.
                self.k
                    .m
                    .charge(model_cycles.saturating_sub(self.protected_call_cycles));
                let status = self
                    .app
                    .call_extension(&mut self.k, self.prep_cgi, self.shared)
                    .map_err(|e| ServerError::ScriptFault(e.to_string()))?;
                if status != 200 {
                    return Ok(http::error_response(500, "Script Error"));
                }
                // The script stamped the shared area; verify the marker.
                let marker = self.k.m.host_read_u32(self.shared + 4);
                debug_assert_eq!(marker, 0x4947_4322);
            }
            _ => self.k.m.charge(model_cycles),
        }
        self.served += 1;
        self.log(&req, 200, body.len(), model);
        let ctype = Self::content_type(&req.path);
        Ok(http::ok_response(ctype, &body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::get_request;

    #[test]
    fn server_boots_and_measures_the_protected_call() {
        let s = WebServer::new().unwrap();
        assert!(
            (142..500).contains(&s.protected_call_cycles),
            "got {}",
            s.protected_call_cycles
        );
    }

    #[test]
    fn serves_static_and_protected_requests() {
        let mut s = WebServer::new().unwrap();
        s.add_file("/x", b"hello world".to_vec());
        let r = s.handle(&get_request("/x"), ExecModel::StaticFile).unwrap();
        let text = String::from_utf8(r).unwrap();
        assert!(text.contains("200 OK"));
        assert!(text.ends_with("hello world"));

        let r = s
            .handle(&get_request("/x"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().ends_with("hello world"));
        assert_eq!(s.served, 2);
    }

    #[test]
    fn missing_files_404() {
        let mut s = WebServer::new().unwrap();
        let r = s
            .handle(&get_request("/nope"), ExecModel::StaticFile)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn model_ordering_matches_table3_at_every_size() {
        let s = WebServer::new().unwrap();
        for size in [28u32, 1024, 10 * 1024, 100 * 1024] {
            let cgi = s.throughput_rps(ExecModel::Cgi, size);
            let fast = s.throughput_rps(ExecModel::FastCgi, size);
            let prot = s.throughput_rps(ExecModel::LibCgiProtected, size);
            let unprot = s.throughput_rps(ExecModel::LibCgiUnprotected, size);
            let stat = s.throughput_rps(ExecModel::StaticFile, size);
            assert!(cgi < fast, "{size}: CGI slowest");
            assert!(fast < prot, "{size}: FastCGI below LibCGI");
            assert!(prot <= unprot, "{size}: protection costs something");
            assert!(unprot <= stat, "{size}: static is the bound");
        }
    }

    #[test]
    fn protected_libcgi_within_4_percent_of_unprotected() {
        // §5.2: "In all cases, protected LibCGI performs within 4% of
        // unprotected LibCGI."
        let s = WebServer::new().unwrap();
        for size in [28u32, 1024, 10 * 1024, 100 * 1024] {
            let prot = s.throughput_rps(ExecModel::LibCgiProtected, size);
            let unprot = s.throughput_rps(ExecModel::LibCgiUnprotected, size);
            let gap = (unprot - prot) / unprot;
            assert!(gap < 0.04, "{size}: gap {gap:.3}");
        }
    }

    #[test]
    fn protected_libcgi_at_least_twice_fastcgi_below_10kb() {
        // §5.2: "protected LibCGI is at least twice as fast as FastCGI for
        // data size smaller than 10 KBytes."
        let s = WebServer::new().unwrap();
        for size in [28u32, 1024] {
            let prot = s.throughput_rps(ExecModel::LibCgiProtected, size);
            let fast = s.throughput_rps(ExecModel::FastCgi, size);
            assert!(prot >= 2.0 * fast, "{size}: {prot:.0} vs {fast:.0}");
        }
    }

    #[test]
    fn throughput_numbers_near_paper() {
        // Spot-check headline cells of Table 3 within 15%.
        let s = WebServer::new().unwrap();
        let cells = [
            (ExecModel::Cgi, 28u32, 98.0),
            (ExecModel::FastCgi, 28, 193.0),
            (ExecModel::LibCgiProtected, 28, 437.0),
            (ExecModel::LibCgiUnprotected, 28, 448.0),
            (ExecModel::StaticFile, 28, 460.0),
            (ExecModel::Cgi, 100 * 1024, 33.0),
            (ExecModel::StaticFile, 100 * 1024, 57.0),
        ];
        for (model, size, paper) in cells {
            let got = s.throughput_rps(model, size);
            let err = (got - paper).abs() / paper;
            assert!(
                err < 0.15,
                "{} {size}B: got {got:.0} vs paper {paper} ({err:.2})",
                model.name()
            );
        }
    }
}

#[cfg(test)]
mod logging_tests {
    use super::*;
    use crate::http::get_request;

    #[test]
    fn requests_are_access_logged() {
        let mut s = WebServer::new().unwrap();
        s.add_file("/a.html", b"x".to_vec());
        s.handle(&get_request("/a.html"), ExecModel::StaticFile)
            .unwrap();
        s.handle(&get_request("/missing"), ExecModel::StaticFile)
            .unwrap();
        assert_eq!(s.access_log.len(), 2);
        assert!(s.access_log[0].contains("\"GET /a.html HTTP/1.0\" 200 1"));
        assert!(s.access_log[1].contains("404"));
    }

    #[test]
    fn content_types_by_suffix() {
        let mut s = WebServer::new().unwrap();
        s.add_file("/x.css", b"a{}".to_vec());
        s.add_file("/x.bin", b"?".to_vec());
        let r = s
            .handle(&get_request("/x.css"), ExecModel::StaticFile)
            .unwrap();
        assert!(String::from_utf8_lossy(&r).contains("Content-Type: text/css"));
        let r = s
            .handle(&get_request("/x.bin"), ExecModel::StaticFile)
            .unwrap();
        assert!(String::from_utf8_lossy(&r).contains("Content-Type: text/html"));
    }
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;
    use crate::http::get_request;
    use asm86::Assembler;

    fn square_script() -> asm86::Object {
        Assembler::assemble(
            "square:\n\
             mov eax, [esp+4]\n\
             imul eax, [esp+4]\n\
             ret\n",
        )
        .unwrap()
    }

    #[test]
    fn dynamic_endpoint_computes_per_request() {
        let mut s = WebServer::new().unwrap();
        s.add_dynamic("/calc", &square_script(), "square").unwrap();
        for (model, n, want) in [
            (ExecModel::LibCgiProtected, 9u32, 81u32),
            (ExecModel::LibCgiUnprotected, 12, 144),
            (ExecModel::Cgi, 3, 9),
        ] {
            let r = s
                .handle(&get_request(&format!("/calc?n={n}")), model)
                .unwrap();
            let text = String::from_utf8(r).unwrap();
            assert!(
                text.contains(&format!("result={want}")),
                "{model:?}: {text}"
            );
        }
        // Missing or malformed query defaults to n=0.
        let r = s
            .handle(&get_request("/calc"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().contains("result=0"));
    }

    fn crash_script() -> asm86::Object {
        Assembler::assemble(&format!(
            "boom:\nmov eax, 1\nmov [{}], eax\nret\n",
            minikernel::USER_TEXT
        ))
        .unwrap()
    }

    #[test]
    fn fallback_endpoint_degrades_to_503_then_restarts() {
        let mut s = WebServer::new().unwrap();
        s.add_dynamic_with_fallback(
            "/svc",
            &crash_script(),
            "boom",
            CgiFallback::ServiceUnavailable,
        )
        .unwrap();
        s.degraded_window = 5_000;

        // First request faults the script: the endpoint degrades and the
        // client sees 503, not 500.
        let r = s
            .handle(&get_request("/svc?n=1"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 503"));
        assert!(s.dynamic_degraded("/svc"));

        // Inside the window every protected request gets the fallback
        // without touching the script.
        let aborted_before = s.app.aborted_calls;
        let r = s
            .handle(&get_request("/svc?n=1"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 503"));
        assert_eq!(
            s.app.aborted_calls, aborted_before,
            "no invoke while degraded"
        );
        assert!(s.degraded_responses >= 2);

        // After the window the server reinstalls the script and tries
        // again (it faults again here — the script is deterministically
        // hostile — which re-arms the window).
        s.k.m.charge(5_001);
        let r = s
            .handle(&get_request("/svc?n=1"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 503"));
        assert_eq!(s.cgi_restarts, 1);
        assert!(s.dynamic_degraded("/svc"));
    }

    #[test]
    fn static_fallback_serves_canned_body_during_degradation() {
        let mut s = WebServer::new().unwrap();
        s.add_dynamic_with_fallback(
            "/svc",
            &crash_script(),
            "boom",
            CgiFallback::Static(b"cached copy".to_vec()),
        )
        .unwrap();
        let r = s
            .handle(&get_request("/svc?n=1"), ExecModel::LibCgiProtected)
            .unwrap();
        let text = String::from_utf8(r).unwrap();
        assert!(text.contains("200 OK"), "{text}");
        assert!(text.ends_with("cached copy"));
        // Unprotected models are not shielded: no degradation routing.
        assert!(s.dynamic_degraded("/svc"));
    }

    #[test]
    fn restart_resumes_service_for_a_transiently_registered_script() {
        // Degrade the endpoint, then verify the post-window reinstall
        // really produces a working script again by swapping the stored
        // image for a healthy one (modelling a fixed redeploy).
        let mut s = WebServer::new().unwrap();
        s.add_dynamic_with_fallback(
            "/svc",
            &crash_script(),
            "boom",
            CgiFallback::ServiceUnavailable,
        )
        .unwrap();
        s.degraded_window = 1_000;
        let r = s
            .handle(&get_request("/svc?n=6"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 503"));

        // Fixed script ships under the same path and entry name.
        let fixed = Assembler::assemble(
            "boom:\n\
             mov eax, [esp+4]\n\
             imul eax, [esp+4]\n\
             ret\n",
        )
        .unwrap();
        Arc::make_mut(&mut s.dynamic)
            .get_mut("/svc")
            .unwrap()
            .script = Arc::new(fixed);

        s.k.m.charge(1_001);
        let r = s
            .handle(&get_request("/svc?n=6"), ExecModel::LibCgiProtected)
            .unwrap();
        let text = String::from_utf8(r).unwrap();
        assert!(text.contains("result=36"), "{text}");
        assert_eq!(s.cgi_restarts, 1);
        assert!(!s.dynamic_degraded("/svc"));
    }

    #[test]
    fn plain_add_dynamic_keeps_the_500_contract() {
        let mut s = WebServer::new().unwrap();
        s.add_dynamic("/boom", &crash_script(), "boom").unwrap();
        for _ in 0..2 {
            let r = s
                .handle(&get_request("/boom?n=1"), ExecModel::LibCgiProtected)
                .unwrap();
            assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 500"));
        }
        assert!(!s.dynamic_degraded("/boom"));
        assert_eq!(s.degraded_responses, 0);
    }

    #[test]
    fn hostile_dynamic_script_yields_500_and_server_survives() {
        let mut s = WebServer::new().unwrap();
        let evil = Assembler::assemble(&format!(
            "boom:\nmov eax, 1\nmov [{}], eax\nret\n",
            minikernel::USER_TEXT
        ))
        .unwrap();
        s.add_dynamic("/boom", &evil, "boom").unwrap();
        s.add_dynamic("/ok", &square_script(), "square").unwrap();

        let r = s
            .handle(&get_request("/boom?n=1"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 500"));

        // The server keeps serving, both static and dynamic.
        let r = s
            .handle(&get_request("/ok?n=4"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().contains("result=16"));
    }
}

#[cfg(test)]
mod protection_contrast {
    use super::*;
    use crate::http::get_request;
    use asm86::Assembler;

    #[test]
    fn unprotected_libcgi_lets_a_buggy_script_corrupt_the_server() {
        // The paper's whole motivation, demonstrated: the SAME buggy
        // script that the protected model contains (500 + server lives)
        // silently corrupts server memory when run unprotected in the
        // address space.
        let mut s = WebServer::new().unwrap();
        let evil = Assembler::assemble(&format!(
            "boom:\nmov eax, 0x41414141\nmov [{}], eax\nmov eax, 0\nret\n",
            minikernel::USER_TEXT
        ))
        .unwrap();
        s.add_dynamic("/boom", &evil, "boom").unwrap();

        let before = s.k.m.host_read(minikernel::USER_TEXT, 4);

        // Protected: contained, memory intact.
        let r = s
            .handle(&get_request("/boom?n=1"), ExecModel::LibCgiProtected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().starts_with("HTTP/1.0 500"));
        assert_eq!(s.k.m.host_read(minikernel::USER_TEXT, 4), before);

        // Unprotected: the script runs at the server's own privilege and
        // the write lands — silent corruption, a 200 response, and a
        // time bomb.
        let r = s
            .handle(&get_request("/boom?n=1"), ExecModel::LibCgiUnprotected)
            .unwrap();
        assert!(String::from_utf8(r).unwrap().contains("200 OK"));
        assert_eq!(
            s.k.m.host_read(minikernel::USER_TEXT, 4),
            vec![0x41, 0x41, 0x41, 0x41],
            "server memory corrupted by the unprotected script"
        );
    }
}
