//! `cgi`: Table 3's protected CGI server. One op is one request handled
//! under the protected LibCGI model; every request crosses the user-level
//! boundary (SPL 2 → 3 → 2) but runs only a few guest instructions, so
//! host-side request handling and the protected-call path dominate —
//! the opposite of `filter`.

use std::rc::Rc;

use asm86::Assembler;
use seedrng::SeedRng;
use webserver::http::{self, HttpError};
use webserver::workload::jittered_get;
use webserver::{ExecModel, ServerError, WebServer};

use crate::trace::Tracer;
use crate::world::{resident, Counters, Outcome, World};

/// Requests between access-log drains (log rotation); keeps the log, and
/// the benchmark's memory, bounded however long the run.
const DRAIN_EVERY: u64 = 10_000;

const CUBE: &str = "\
cube:
    mov eax, [esp+4]
    mov ecx, eax
    imul eax, ecx
    imul eax, ecx
    ret
";

/// Request lines the parser must reject with `BadRequestLine`.
const MALFORMED: [&str; 3] = [
    "\r\n\r\n",
    "GET\r\n\r\n",
    "GET /file28\r\nHost: bench\r\n\r\n",
];

/// Requests in the replayed stream. They are generated, with the
/// responses they must get, at set-up, so an op is the request and its
/// check.
const REQUESTS: usize = 16_384;

/// What the oracle expects for one request.
enum Expect {
    /// A 200 with exactly this body.
    Body(Rc<[u8]>),
    /// A 404.
    Missing,
    /// A typed `BadRequestLine` error.
    Malformed,
}

struct Request {
    raw: String,
    expect: Expect,
}

/// The mix: 60% `/cube?n=<seeded>`, 25% `/file28`, 5% `/file1024`, 5%
/// `/missing`, 5% malformed request lines.
fn request(rng: &mut SeedRng, small: &Rc<[u8]>, large: &Rc<[u8]>) -> Request {
    let (path, expect) = match rng.gen_range(0, 100) {
        0..60 => {
            let n = rng.next_u32() % 100_000;
            let body = format!("n={n} result={}\n", n.wrapping_mul(n).wrapping_mul(n));
            (
                format!("/cube?n={n}"),
                Expect::Body(body.into_bytes().into()),
            )
        }
        60..85 => ("/file28".into(), Expect::Body(small.clone())),
        85..90 => ("/file1024".into(), Expect::Body(large.clone())),
        90..95 => ("/missing".into(), Expect::Missing),
        _ => {
            let line = MALFORMED[rng.gen_range(0, MALFORMED.len() as u32) as usize];
            return Request {
                raw: line.into(),
                expect: Expect::Malformed,
            };
        }
    };
    Request {
        raw: jittered_get(rng, &path),
        expect,
    }
}

/// The cgi world: one server with a protected dynamic endpoint and two
/// static documents.
pub struct CgiWorld {
    server: WebServer,
    requests: Vec<Request>,
    /// Statuses of the logged requests since the last drain, in order.
    statuses: Vec<u16>,
    aborts: u64,
    dispatches: u64,
}

fn body_of(resp: &[u8]) -> Option<&[u8]> {
    let at = resp.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(&resp[at + 4..])
}

fn status_of(resp: &[u8]) -> Option<u16> {
    std::str::from_utf8(resp.get(9..12)?).ok()?.parse().ok()
}

impl World for CgiWorld {
    const GUEST_SPANS: &'static [(&'static str, &'static str)] = &[("webserver", "handle")];

    fn build(seed: u64, t: &mut Tracer) -> Result<CgiWorld, String> {
        let mut server = WebServer::new().map_err(|e| format!("server: {e}"))?;
        let cube = t
            .span("asm86", "assemble", || Assembler::assemble(CUBE))
            .map_err(|e| format!("cube assembles: {e}"))?;
        server
            .add_dynamic("/cube", &cube, "cube")
            .map_err(|e| format!("cube endpoint: {e}"))?;
        let mut rng = SeedRng::new(seed);
        let mut doc = |len: usize| -> Rc<[u8]> {
            let mut d = vec![0u8; len];
            rng.fill_bytes(&mut d);
            d.iter_mut().for_each(|b| *b = b'a' + *b % 26);
            d.into()
        };
        let (small, large) = (doc(28), doc(1024));
        server.add_file("/file28", small.to_vec());
        server.add_file("/file1024", large.to_vec());
        let requests = (0..REQUESTS)
            .map(|_| request(&mut rng, &small, &large))
            .collect();
        // Warm the protected path once; the log line is not the run's.
        server
            .handle(&http::get_request("/file28"), ExecModel::LibCgiProtected)
            .map_err(|e| format!("warm-up request: {e}"))?;
        server.access_log.clear();
        Ok(CgiWorld {
            server,
            requests,
            statuses: Vec::new(),
            aborts: 0,
            dispatches: 0,
        })
    }

    fn op(&mut self, i: u64, t: &mut Tracer) -> Result<Outcome, String> {
        let req = &self.requests[i as usize % REQUESTS];
        if t.enabled() {
            // handle() parses internally; parse the same bytes again so
            // the parser's share of the request shows.
            let _ = t.span("webserver", "parse", || http::parse_request(&req.raw));
        }
        let (c0, n0) = (self.server.k.m.cycles(), self.server.k.m.insns());
        let server = &mut self.server;
        let result = t.span("webserver", "handle", || {
            server.handle(&req.raw, ExecModel::LibCgiProtected)
        });
        let cycles = self.server.k.m.cycles() - c0;
        let insns = self.server.k.m.insns() - n0;

        let status = match (&req.expect, result) {
            (Expect::Malformed, Err(ServerError::Http(HttpError::BadRequestLine))) => None,
            (_, Err(e)) => return Err(format!("request {i}: unexpected error: {e}")),
            (Expect::Malformed, Ok(_)) => {
                return Err(format!("request {i}: malformed line served"))
            }
            (expect, Ok(resp)) => {
                let status = status_of(&resp);
                // The server answers 500 when the protected call aborts.
                self.aborts += u64::from(status == Some(500));
                let ok = match expect {
                    Expect::Body(body) => status == Some(200) && body_of(&resp) == Some(body),
                    Expect::Missing => status == Some(404),
                    Expect::Malformed => unreachable!("handled above"),
                };
                if !ok {
                    return Err(format!(
                        "request {i}: wrong response {:?}",
                        String::from_utf8_lossy(&resp[..resp.len().min(80)])
                    ));
                }
                status
            }
        };
        // Every served request made exactly one protected call (the
        // dynamic script or the LibCGI stub); 404s and parse errors made
        // none.
        self.dispatches += u64::from(status == Some(200));
        if let Some(s) = status {
            self.statuses.push(s);
        }
        if (i + 1).is_multiple_of(DRAIN_EVERY) {
            let (server, statuses) = (&mut self.server, &mut self.statuses);
            t.span("webserver", "log_drain", || drain_log(server, statuses))?;
        }
        Ok(Outcome {
            cycles,
            insns,
            units: 1,
            refused: u32::from(status != Some(200)),
            frames_delta: 0,
        })
    }

    fn counters(&self) -> Counters {
        Counters {
            aborts: self.aborts,
            dispatches: self.dispatches,
            ..Counters::of_kernel(&self.server.k)
        }
    }

    fn resident_frames(&self) -> u64 {
        resident(&self.server.k)
    }
}

/// Rotates the access log and checks each line's status against the
/// responses the benchmark saw, in order.
fn drain_log(server: &mut WebServer, statuses: &mut Vec<u16>) -> Result<(), String> {
    let log = std::mem::take(&mut server.access_log);
    if log.len() != statuses.len() {
        return Err(format!(
            "access log has {} lines for {} requests",
            log.len(),
            statuses.len()
        ));
    }
    for (line, want) in log.iter().zip(statuses.iter()) {
        let logged = line
            .split("\" ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|s| s.parse::<u16>().ok());
        if logged != Some(*want) {
            return Err(format!(
                "access log line {line:?} does not record status {want}"
            ));
        }
    }
    statuses.clear();
    Ok(())
}
