//! `monomap-client`: a tiny std-only HTTP client for `monomapd`.
//!
//! One [`TcpStream`] per call with `Connection: close` — simple,
//! stateless, and exactly what the end-to-end tests and the
//! cache-effectiveness bench need. Not a connection-pooling
//! production client.

use std::fmt;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Deserialize;

use monomap_core::api::{MapReport, MapRequest};

use crate::cache::CacheKey;
use crate::cached::CacheDisposition;
use crate::http::StatsSnapshot;
use crate::store::hex_decode;
use crate::wire::{MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES};

/// A client error: transport, HTTP-level, or malformed payload.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server answered with a non-2xx status; the body is the
    /// server's JSON error document.
    Http {
        /// The HTTP status code.
        status: u16,
        /// The response body (usually `{"error": "..."}`).
        body: String,
    },
    /// The server shed the request (`429 Too Many Requests`): its
    /// solve queue was full. Retry after the hinted delay.
    Overloaded {
        /// The server's `Retry-After` hint in seconds (1 when the
        /// header was missing or unparseable).
        retry_after: Duration,
        /// The response body (usually includes `retry_after_seconds`).
        body: String,
    },
    /// The response could not be parsed.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Http { status, body } => write!(f, "HTTP {status}: {body}"),
            ClientError::Overloaded { retry_after, body } => write!(
                f,
                "server overloaded (retry after {}s): {body}",
                retry_after.as_secs()
            ),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A `/map` answer: the report plus how the server's cache
/// participated (from the `X-Monomap-Cache` header).
#[derive(Clone, Debug)]
pub struct MapResponse {
    /// The mapping report.
    pub report: MapReport,
    /// Cache participation, when the server sent the header.
    pub cache: Option<CacheDisposition>,
}

/// A blocking HTTP client bound to one `monomapd` address.
#[derive(Clone, Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Option<Duration>,
    connect_timeout: Option<Duration>,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `"127.0.0.1:8931"`).
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        Ok(Client {
            addr,
            timeout: Some(Duration::from_secs(600)),
            connect_timeout: None,
        })
    }

    /// Sets the per-call socket read timeout (`None` waits forever).
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Bounds connection establishment (`None`, the default, uses the
    /// OS default). Peer-fill clients set this low: a sibling daemon
    /// that is slow to even accept must degrade into a local miss, not
    /// stall the solve path.
    pub fn with_connect_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `POST /map`: maps one request.
    pub fn map(&self, request: &MapRequest) -> Result<MapResponse, ClientError> {
        let body = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("serializing request: {e}")))?;
        let (headers, body) = self.call("POST", "/map", Some(&body))?;
        let report: MapReport = serde_json::from_str(&body)
            .map_err(|e| ClientError::Protocol(format!("parsing report: {e}")))?;
        let cache = header_value(&headers, "x-monomap-cache")
            .and_then(|v| CacheDisposition::from_name(v.as_str()));
        Ok(MapResponse { report, cache })
    }

    /// `POST /map`, honoring load shedding: on
    /// [`ClientError::Overloaded`] the call sleeps for the server's
    /// `Retry-After` hint (capped at `max_delay`) and retries, up to
    /// `max_attempts` total attempts. Any other outcome — success or a
    /// different error — is returned immediately.
    pub fn map_with_retry(
        &self,
        request: &MapRequest,
        max_attempts: usize,
        max_delay: Duration,
    ) -> Result<MapResponse, ClientError> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.map(request) {
                Err(ClientError::Overloaded { retry_after, body }) => {
                    if attempt >= max_attempts.max(1) {
                        return Err(ClientError::Overloaded { retry_after, body });
                    }
                    std::thread::sleep(retry_after.min(max_delay));
                }
                other => return other,
            }
        }
    }

    /// `POST /map_batch`: maps many requests, reports in input order.
    pub fn map_batch(&self, requests: &[MapRequest]) -> Result<Vec<MapResponse>, ClientError> {
        let body = serde_json::to_string(&requests)
            .map_err(|e| ClientError::Protocol(format!("serializing requests: {e}")))?;
        let (_, body) = self.call("POST", "/map_batch", Some(&body))?;
        let envelope: BatchEnvelope = serde_json::from_str(&body)
            .map_err(|e| ClientError::Protocol(format!("parsing batch envelope: {e}")))?;
        if envelope.reports.len() != envelope.cache.len() {
            return Err(ClientError::Protocol(
                "batch envelope reports/cache length mismatch".into(),
            ));
        }
        Ok(envelope
            .reports
            .into_iter()
            .zip(envelope.cache)
            .map(|(report, cache)| MapResponse {
                report,
                cache: CacheDisposition::from_name(&cache),
            })
            .collect())
    }

    /// `POST /compile`: compiles raw `.mk` source (exactly one kernel)
    /// on the server. Success carries the kernel name, canonical
    /// digest, node count, per-class node demand and the compiled DFG.
    /// A compile failure surfaces as [`ClientError::Http`] with status
    /// 400 whose body is the structured `{"error","line","col"}`
    /// diagnostic.
    pub fn compile(&self, source: &str) -> Result<CompileResponse, ClientError> {
        let (_, body) = self.call("POST", "/compile", Some(source))?;
        serde_json::from_str(&body)
            .map_err(|e| ClientError::Protocol(format!("parsing compile response: {e}")))
    }

    /// `GET /healthz`: the liveness document as raw JSON text.
    pub fn healthz(&self) -> Result<String, ClientError> {
        let (_, body) = self.call("GET", "/healthz", None)?;
        Ok(body)
    }

    /// `GET /stats`: the cache, persistence and server counters.
    pub fn stats(&self) -> Result<StatsSnapshot, ClientError> {
        let (_, body) = self.call("GET", "/stats", None)?;
        serde_json::from_str(&body)
            .map_err(|e| ClientError::Protocol(format!("parsing stats: {e}")))
    }

    /// `GET /cache/<digest>`: fetches one cache entry — the canonical
    /// `MDFG1` bytes plus the canonical-order report — from a sibling
    /// daemon. `Ok(None)` means the sibling doesn't have it (HTTP
    /// 404): an ordinary miss, not an error. Callers **must** compare
    /// the returned bytes against their own canonical bytes before
    /// trusting the report (see `PeerStore`).
    pub fn fetch_cache(&self, key: &CacheKey) -> Result<Option<(Vec<u8>, MapReport)>, ClientError> {
        let path = format!(
            "/cache/{}?engine={}&fp={:016x}{:016x}",
            key.digest.to_hex(),
            key.engine.name(),
            key.cgra,
            key.config
        );
        let (_, body) = match self.call("GET", &path, None) {
            Ok(ok) => ok,
            Err(ClientError::Http { status: 404, .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let entry: CacheEntryWire = serde_json::from_str(&body)
            .map_err(|e| ClientError::Protocol(format!("parsing cache entry: {e}")))?;
        let bytes = hex_decode(&entry.bytes)
            .ok_or_else(|| ClientError::Protocol("cache entry bytes are not hex".into()))?;
        Ok(Some((bytes, entry.report)))
    }

    /// One HTTP exchange. Returns the response headers (lowercased
    /// names) and body; non-2xx statuses become [`ClientError::Http`].
    fn call(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(Vec<(String, String)>, String), ClientError> {
        let stream = match self.connect_timeout {
            Some(limit) => TcpStream::connect_timeout(&self.addr, limit)?,
            None => TcpStream::connect(self.addr)?,
        };
        stream.set_read_timeout(self.timeout)?;
        let mut writer = stream.try_clone()?;
        let body_bytes = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body_bytes}",
            self.addr,
            body_bytes.len(),
        );
        writer.write_all(request.as_bytes())?;
        writer.flush()?;

        // The peer may be anything: every line, the header count and the
        // body are held to the caps the server applies to requests.
        let mut reader = BufReader::new(stream);
        let status_line = read_capped_line(&mut reader)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                ClientError::Protocol(format!("malformed status line: {status_line:?}"))
            })?;
        let mut headers = Vec::new();
        let mut content_length: Option<usize> = None;
        loop {
            let line = read_capped_line(&mut reader)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(ClientError::Protocol("too many response headers".into()));
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().ok();
                }
                headers.push((name, value));
            }
        }
        // Read what arrives, up to the declared length (or one past the
        // cap when none was declared) — never allocate on the peer's word.
        let over_cap = || {
            ClientError::Protocol(format!(
                "response body is over the {MAX_BODY_BYTES}-byte cap"
            ))
        };
        let limit = match content_length {
            Some(n) if n > MAX_BODY_BYTES => return Err(over_cap()),
            Some(n) => n,
            None => MAX_BODY_BYTES + 1,
        };
        let mut body = Vec::new();
        reader.take(limit as u64).read_to_end(&mut body)?;
        if content_length.is_none() && body.len() > MAX_BODY_BYTES {
            return Err(over_cap());
        }
        if body.len() < content_length.unwrap_or(0) {
            return Err(io::Error::from(ErrorKind::UnexpectedEof).into());
        }
        let body = String::from_utf8(body)
            .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))?;
        if status == 429 {
            let retry_after = header_value(&headers, "retry-after")
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_secs)
                .unwrap_or(Duration::from_secs(1));
            return Err(ClientError::Overloaded { retry_after, body });
        }
        if !(200..300).contains(&status) {
            return Err(ClientError::Http { status, body });
        }
        Ok((headers, body))
    }
}

/// The `POST /compile` response body.
#[derive(Clone, Debug, Deserialize)]
pub struct CompileResponse {
    /// The kernel's name.
    pub name: String,
    /// Canonical digest of the compiled DFG, lowercase hex — the
    /// content address `/map` caching keys on.
    pub digest: String,
    /// Node count of the compiled DFG.
    pub nodes: u64,
    /// Per-class node demand (`alu`/`mul`/`mem`), as inferred by the
    /// frontend.
    pub classes: ClassDemand,
    /// The compiled DFG, ready to embed in a [`MapRequest`].
    pub dfg: cgra_dfg::Dfg,
}

/// Per-class node counts in a [`CompileResponse`].
#[derive(Clone, Copy, Debug, Deserialize)]
pub struct ClassDemand {
    /// Nodes needing only the ALU datapath.
    pub alu: u64,
    /// Multiply/divide nodes.
    pub mul: u64,
    /// Load/store nodes.
    pub mem: u64,
}

/// The `POST /map_batch` response body: one report and one cache
/// disposition per request, in input order.
#[derive(Debug, Deserialize)]
struct BatchEnvelope {
    reports: Vec<MapReport>,
    cache: Vec<String>,
}

/// The `GET /cache/<digest>` response body.
#[derive(Debug, Deserialize)]
struct CacheEntryWire {
    /// Canonical `MDFG1` bytes, lowercase hex.
    bytes: String,
    /// The stored report, mapping in canonical node order.
    report: MapReport,
}

/// Reads one `\n`-terminated line of a response head, refusing one
/// longer than the wire's line cap (EOF mid-head is refused too).
fn read_capped_line(reader: &mut impl BufRead) -> Result<String, ClientError> {
    let mut line = String::new();
    reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(&mut line)?;
    if line.ends_with('\n') {
        Ok(line)
    } else if line.len() > MAX_LINE_BYTES {
        Err(ClientError::Protocol("response line too long".into()))
    } else {
        Err(ClientError::Protocol("EOF inside response head".into()))
    }
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a String> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}
