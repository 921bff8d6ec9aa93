//! A minimal keep-alive HTTP/1.1 client for the load generator.
//!
//! The bundled `monomap_service::Client` sends `Connection: close` and
//! reconnects per call, which would time `accept` instead of the
//! request. This one keeps a single `TcpStream` open (`TCP_NODELAY`),
//! writes each request in one `write_all`, and frames responses by
//! `Content-Length` only — the one framing `monomapd` emits.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response. Header names are matched case-insensitively.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    head: String,
    pub body: String,
}

impl Response {
    /// The value of the first header called `name`, trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.split("\r\n").skip(1).find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }
}

/// Tries to parse one response from the front of `buf`.
///
/// `Ok(None)` means more bytes are needed; `Ok(Some((response, n)))`
/// consumed `n` bytes. A response without a usable `Content-Length`, a
/// malformed status line or a non-UTF-8 payload is an error: the
/// connection cannot be re-synchronised after it.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let status_line = head.split("\r\n").next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line `{status_line}`"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut response = Response {
        status,
        head: head.to_string(),
        body: String::new(),
    };
    let length: usize = response
        .header("Content-Length")
        .ok_or("response without Content-Length")?
        .parse()
        .map_err(|_| "unparseable Content-Length")?;
    let body_start = head_end + 4;
    let end = body_start
        .checked_add(length)
        .ok_or("Content-Length overflows")?;
    let Some(body) = buf.get(body_start..end) else {
        return Ok(None);
    };
    response.body = String::from_utf8(body.to_vec()).map_err(|_| "non-UTF-8 response body")?;
    Ok(Some((response, end)))
}

/// One keep-alive connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    host: String,
    out: Vec<u8>,
    inbuf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // Twice the request deadline: a response later than this is a
        // failure of the daemon, not a slow solve.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            host: addr.to_string(),
            out: Vec::with_capacity(16 << 10),
            inbuf: Vec::with_capacity(16 << 10),
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.host,
            body.len()
        )?;
        self.out.extend_from_slice(body.as_bytes());
        self.stream.write_all(&self.out)?;
        let mut chunk = [0u8; 16 << 10];
        loop {
            match parse_response(&self.inbuf) {
                Ok(Some((response, used))) => {
                    self.inbuf.drain(..used);
                    return Ok(response);
                }
                Ok(None) => {}
                Err(msg) => return Err(io::Error::new(io::ErrorKind::InvalidData, msg)),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-response",
                ));
            }
            self.inbuf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nx-monomap-cache: hit\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}HTTP/1.1 2";

    #[test]
    fn a_response_split_at_every_byte_parses_only_when_whole() {
        let whole = OK.len() - "HTTP/1.1 2".len();
        for cut in 0..whole {
            assert!(
                parse_response(&OK[..cut]).unwrap().is_none(),
                "complete at {cut} of {whole} bytes"
            );
        }
        // The first bytes of the next response stay in the buffer.
        let (response, used) = parse_response(OK).unwrap().unwrap();
        assert_eq!(used, whole);
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"ok\":true}");
        assert_eq!(response.header("X-Monomap-Cache"), Some("hit"));
        assert_eq!(response.header("Retry-After"), None);
    }

    #[test]
    fn a_429_carries_its_retry_after() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nContent-Length: 2\r\n\r\n{}";
        let (response, used) = parse_response(raw).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert_eq!(response.status, 429);
        assert_eq!(response.header("retry-after"), Some("3"));
        assert_eq!(response.header("X-Monomap-Cache"), None);
    }

    #[test]
    fn a_response_without_a_length_is_an_error_not_a_hang() {
        let raw = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}";
        assert!(parse_response(raw).unwrap_err().contains("Content-Length"));
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n{}";
        assert!(parse_response(raw).is_err());
        assert!(parse_response(b"SMTP ready\r\n\r\n").is_err());
    }
}
