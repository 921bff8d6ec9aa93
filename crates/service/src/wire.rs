//! HTTP/1.x on bytes: request parsing, response encoding and the size
//! caps both directions share. Nothing here touches a socket, the
//! reactor or the mapping service — a [`RequestParser`] is fed a
//! connection's read buffer and says what it holds; a [`Reply`] turns
//! a status, a JSON body and extra headers into the bytes to write.

/// Longest accepted request-line or header line, in bytes (the `\r` of
/// a CRLF counts, the `\n` does not). Applied *while* reading, so a
/// peer streaming newline-free bytes cannot grow memory unboundedly.
pub(crate) const MAX_LINE_BYTES: usize = 16 * 1024;

/// Most header lines accepted per message.
pub(crate) const MAX_HEADERS: usize = 128;

/// Largest possible head (start line + headers + blank line): every
/// line at the line cap, plus slack.
pub(crate) const MAX_HEAD_BYTES: usize = MAX_LINE_BYTES * (MAX_HEADERS + 2);

/// Largest body accepted by default: the server's request-body cap
/// unless configured otherwise, and the client's response-body cap.
pub(crate) const MAX_BODY_BYTES: usize = 16 << 20;

/// The HTTP version a request arrived with; echoed in the status line
/// so HTTP/1.0 peers are not answered with a version they may not
/// understand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HttpVersion {
    V10,
    V11,
}

impl HttpVersion {
    fn as_str(self) -> &'static str {
        match self {
            HttpVersion::V10 => "HTTP/1.0",
            HttpVersion::V11 => "HTTP/1.1",
        }
    }
}

/// A complete request pulled out of a connection's read buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ParsedRequest {
    pub method: String,
    pub path: String,
    pub version: HttpVersion,
    pub keep_alive: bool,
    pub body: Vec<u8>,
}

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Parse {
    /// The buffer does not hold a complete request yet.
    NeedMore,
    Request(ParsedRequest),
    /// Malformed input; the connection gets one 400 and is closed.
    Bad(&'static str),
    /// Declared body larger than the configured cap.
    TooLarge {
        version: HttpVersion,
    },
}

/// The parsed request head (everything before the body).
struct Head {
    method: String,
    path: String,
    version: HttpVersion,
    keep_alive: bool,
    content_length: usize,
}

/// Per-connection parse state. What a buffer holds is decided by its
/// bytes alone — the caps are applied byte by byte, so however the
/// bytes were chunked on arrival the verdict is the same — and every
/// byte of a head is looked at once: the search for the blank line
/// resumes where the last call stopped, and a head whose body is still
/// arriving is not parsed again.
#[derive(Default)]
pub(crate) struct RequestParser {
    /// Buffer bytes already searched for the end of the head.
    scanned: usize,
    /// Offset of the first byte of the line being accumulated.
    line_start: usize,
    /// Complete lines seen so far (the request line included).
    lines: usize,
    /// The parsed head and its length, while its body is incomplete.
    head: Option<(Head, usize)>,
    /// Head bytes examined over this parser's lifetime (searched for a
    /// line end, or parsed as part of a complete head) — the work a
    /// slow sender can cause on the reactor thread.
    pub examined: usize,
}

impl RequestParser {
    /// Attempts to pull one complete request off the front of `rbuf`,
    /// consuming its bytes on success (and the head on `TooLarge`, so
    /// the connection can drain the unread body). Any verdict other
    /// than `NeedMore` resets the parser for the next request.
    pub fn parse(&mut self, rbuf: &mut Vec<u8>, max_body: usize) -> Parse {
        let (head, head_end) = match self.head.take() {
            Some(parsed) => parsed,
            None => {
                let head_end = match self.find_head_end(rbuf) {
                    Ok(Some(end)) => end,
                    Ok(None) => return Parse::NeedMore,
                    Err(msg) => return self.finish(Parse::Bad(msg)),
                };
                self.examined += head_end;
                match parse_head(&rbuf[..head_end]) {
                    Ok(head) => (head, head_end),
                    Err(msg) => return self.finish(Parse::Bad(msg)),
                }
            }
        };
        if head.content_length > max_body {
            // Consume the head: the (unread) body is drained, not parsed.
            rbuf.drain(..head_end);
            return self.finish(Parse::TooLarge {
                version: head.version,
            });
        }
        let total = head_end + head.content_length;
        if rbuf.len() < total {
            self.head = Some((head, head_end));
            return Parse::NeedMore;
        }
        let body = rbuf[head_end..total].to_vec();
        rbuf.drain(..total);
        self.finish(Parse::Request(ParsedRequest {
            method: head.method,
            path: head.path,
            version: head.version,
            keep_alive: head.keep_alive,
            body,
        }))
    }

    fn finish(&mut self, verdict: Parse) -> Parse {
        *self = RequestParser {
            examined: self.examined,
            ..RequestParser::default()
        };
        verdict
    }

    /// Resumes the search for the blank line that ends the head: byte
    /// offset one past it, `None` while it has not arrived. The line
    /// and header-count caps are enforced here, on the bytes as they
    /// accumulate.
    fn find_head_end(&mut self, buf: &[u8]) -> Result<Option<usize>, &'static str> {
        for at in self.scanned..buf.len() {
            self.examined += 1;
            if buf[at] != b'\n' {
                if at - self.line_start >= MAX_LINE_BYTES {
                    return Err(if self.lines == 0 {
                        "request line too long"
                    } else {
                        "header line too long"
                    });
                }
                continue;
            }
            let line = &buf[self.line_start..at];
            if self.lines > 0 && (line.is_empty() || line == b"\r") {
                return Ok(Some(at + 1));
            }
            if self.lines >= MAX_HEADERS {
                return Err("too many headers");
            }
            self.lines += 1;
            self.line_start = at + 1;
        }
        self.scanned = buf.len();
        Ok(None)
    }
}

/// Parses a complete request head; its lines are already known to be
/// inside the line and count caps.
fn parse_head(head: &[u8]) -> Result<Head, &'static str> {
    let mut lines = head
        .split(|&b| b == b'\n')
        .map(|line| String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line)));
    let line = lines.next().unwrap_or_default();
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err("malformed request line");
    };
    let version = match version {
        "HTTP/1.0" => HttpVersion::V10,
        v if v.starts_with("HTTP/1.") => HttpVersion::V11,
        _ => return Err("unsupported HTTP version"),
    };
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version == HttpVersion::V11;
    let mut content_length: Option<usize> = None;
    for header in lines.take_while(|l| !l.is_empty()) {
        let Some((name, value)) = header.split_once(':') else {
            return Err("malformed header");
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                // Identical repeats are tolerated (RFC 9110 §8.6);
                // *conflicting* declarations are a request-smuggling
                // vector on keep-alive connections and are rejected.
                Ok(n) => match content_length {
                    Some(prev) if prev != n => return Err("conflicting Content-Length headers"),
                    _ => content_length = Some(n),
                },
                Err(_) => return Err("malformed Content-Length"),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err("chunked transfer encoding is not supported");
        }
    }
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        version,
        keep_alive,
        content_length: content_length.unwrap_or(0),
    })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Error",
    }
}

/// Encodes a JSON response. The status line echoes the request's HTTP
/// version and the `Connection` header is always explicit, so
/// HTTP/1.0 peers (whose default is close) get an unambiguous answer.
pub(crate) fn encode_response(
    status: u16,
    body: &str,
    extra: &[(&'static str, String)],
    keep_alive: bool,
    version: HttpVersion,
) -> Vec<u8> {
    let mut head = format!(
        "{} {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        version.as_str(),
        status,
        status_text(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Where and how one request is answered: the connection it came in
/// on, whether that connection stays open afterwards, and the version
/// to answer in. Minted when the request is parsed and carried, as is,
/// through every pool the request crosses.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Reply {
    pub token: u64,
    pub keep_alive: bool,
    pub version: HttpVersion,
}

/// A fully encoded response on its way to connection `token`.
pub(crate) struct Response {
    pub token: u64,
    pub bytes: Vec<u8>,
    pub keep_alive: bool,
}

impl Reply {
    /// The same reply, closing the connection once it is written.
    pub fn closing(self) -> Reply {
        Reply {
            keep_alive: false,
            ..self
        }
    }

    /// A JSON response with `extra` headers after the standard three.
    pub fn json(self, status: u16, body: &str, extra: &[(&'static str, String)]) -> Response {
        Response {
            token: self.token,
            bytes: encode_response(status, body, extra, self.keep_alive, self.version),
            keep_alive: self.keep_alive,
        }
    }

    /// The `{"error": message}` document under `status`.
    pub fn error(self, status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        serde::ser::write_str(&mut body, message);
        body.push('}');
        self.json(status, &body, &[])
    }

    /// A shed solve: `429` telling the client when to come back.
    pub fn shed(self, retry_after_seconds: u64) -> Response {
        let body = format!(
            "{{\"error\":\"solve queue is full\",\"retry_after_seconds\":{retry_after_seconds}}}"
        );
        let retry = [("Retry-After", retry_after_seconds.to_string())];
        self.json(429, &body, &retry)
    }
}

/// One-shot parse with no state carried over (a fresh connection's
/// first look at its buffer).
#[cfg(test)]
pub(crate) fn try_parse(rbuf: &mut Vec<u8>, max_body: usize) -> Parse {
    RequestParser::default().parse(rbuf, max_body)
}

/// The byte-mutation battery (the six mutation kinds of
/// `tests/frontend_fuzz.rs` over a corpus of valid requests) and the
/// linear-work pin. The parser's example-based tests live in
/// `http::tests`, under the ids they have always had.
///
/// Iteration counts are capped in debug builds; CI runs the full count
/// (`cargo test --release -q -p monomap-service wire`).
#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    const ITERATIONS: u64 = 1_500;
    #[cfg(not(debug_assertions))]
    const ITERATIONS: u64 = 40_000;

    /// Small, so mutated `Content-Length` digits land on both sides.
    const MAX_BODY: usize = 300;

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n.max(1)) as usize
        }
    }

    /// Three requests back to back on one connection.
    const PIPELINED: &[u8] = b"GET /stats HTTP/1.1\r\n\r\nPOST /map HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\n";

    /// Valid requests of every shape the daemon is sent, plus two that
    /// sit just inside the line and header-count caps so that one
    /// duplicated slice crosses them.
    fn corpus() -> Vec<Vec<u8>> {
        let mut seeds: Vec<Vec<u8>> = [
            &b"POST /map HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"dfg\":{}}\n"[..],
            b"POST /map_batch HTTP/1.1\r\nContent-Type: application/json\r\ncontent-length: 2\r\nConnection: close\r\n\r\n[]",
            b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            b"GET /stats HTTP/1.1\nConnection: close\n\n",
            b"POST /compile HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
            b"GET /cache/00ff?engine=decoupled&fp=0123 HTTP/1.1\r\nAccept: */*\r\n\r\n",
            PIPELINED,
        ]
        .iter()
        .map(|seed| seed.to_vec())
        .collect();
        let mut at_the_cap = b"POST /map HTTP/1.1\r\nContent-Length: 299\r\n\r\n".to_vec();
        at_the_cap.extend(vec![b'x'; 299]);
        seeds.push(at_the_cap);
        let mut long_line = b"GET /stats HTTP/1.1\r\nX-Long: ".to_vec();
        long_line.extend(vec![b'a'; MAX_LINE_BYTES - 200]);
        long_line.extend_from_slice(b"\r\n\r\n");
        seeds.push(long_line);
        let mut many_headers = b"GET /stats HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS - 3 {
            many_headers.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        many_headers.extend_from_slice(b"\r\n");
        seeds.push(many_headers);
        seeds
    }

    /// Applies one random mutation, returning the mutant bytes.
    fn mutate(rng: &mut XorShift, corpus: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = corpus[rng.below(corpus.len() as u64)].clone();
        match rng.below(6) {
            // Truncate at an arbitrary byte.
            0 => {
                let at = rng.below(bytes.len() as u64 + 1);
                bytes.truncate(at);
            }
            // Flip one bit.
            1 => {
                if !bytes.is_empty() {
                    let at = rng.below(bytes.len() as u64);
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            // Overwrite one byte with anything.
            2 => {
                if !bytes.is_empty() {
                    let at = rng.below(bytes.len() as u64);
                    bytes[at] = rng.next() as u8;
                }
            }
            // Splice a random slice of another seed into a random
            // position.
            3 => {
                let donor = &corpus[rng.below(corpus.len() as u64)];
                let from = rng.below(donor.len() as u64);
                let to = from + rng.below((donor.len() - from) as u64 + 1);
                let at = rng.below(bytes.len() as u64 + 1);
                bytes.splice(at..at, donor[from..to].iter().copied());
            }
            // Delete a random slice.
            4 => {
                if !bytes.is_empty() {
                    let from = rng.below(bytes.len() as u64);
                    let to = from + rng.below((bytes.len() - from) as u64 + 1);
                    bytes.drain(from..to);
                }
            }
            // Duplicate a random slice in place (run-on lines, header
            // floods, repeated Content-Length).
            _ => {
                let from = rng.below(bytes.len() as u64);
                let to = from + rng.below((bytes.len() - from) as u64 + 1);
                let slice: Vec<u8> = bytes[from..to].to_vec();
                let at = rng.below(bytes.len() as u64 + 1);
                bytes.splice(at..at, slice);
            }
        }
        bytes
    }

    /// What a connection makes of `stream` when it arrives in `chunks`
    /// (sizes cycled): every verdict other than `NeedMore`, in order,
    /// up to and including the first refusal, and how many bytes were
    /// consumed. Checks the per-verdict invariants on the way.
    fn feed(stream: &[u8], chunks: &[usize]) -> (Vec<Parse>, usize) {
        let mut parser = RequestParser::default();
        let mut rbuf: Vec<u8> = Vec::new();
        let mut verdicts = Vec::new();
        let (mut fed, mut consumed) = (0, 0);
        let mut sizes = chunks.iter().cycle();
        while fed < stream.len() {
            let take = (*sizes.next().expect("chunk sizes")).min(stream.len() - fed);
            rbuf.extend_from_slice(&stream[fed..fed + take]);
            fed += take;
            loop {
                let before = rbuf.len();
                let verdict = parser.parse(&mut rbuf, MAX_BODY);
                let used = before - rbuf.len();
                match &verdict {
                    Parse::NeedMore => {
                        assert_eq!(used, 0, "NeedMore consumes nothing");
                        assert!(
                            rbuf.len() <= MAX_HEAD_BYTES + MAX_BODY,
                            "NeedMore on {} buffered bytes",
                            rbuf.len()
                        );
                        let line = rbuf.iter().position(|&b| b == b'\n').unwrap_or(rbuf.len());
                        assert!(
                            line <= MAX_LINE_BYTES,
                            "NeedMore on a {line}-byte first line"
                        );
                        break;
                    }
                    Parse::Request(request) => {
                        let head = &stream[consumed..consumed + used - request.body.len()];
                        assert_eq!(request.body.len(), declared_length(head), "{head:?}");
                        assert!(request.body.len() <= MAX_BODY);
                        assert_eq!(
                            request.body,
                            &stream[consumed + head.len()..consumed + used],
                            "the body is the bytes after the head"
                        );
                    }
                    Parse::Bad(_) => assert_eq!(used, 0, "a refused head is left in place"),
                    Parse::TooLarge { .. } => {
                        assert!(declared_length(&stream[consumed..consumed + used]) > MAX_BODY)
                    }
                }
                consumed += used;
                let refused = !matches!(verdict, Parse::Request(_));
                verdicts.push(verdict);
                if refused {
                    return (verdicts, consumed);
                }
            }
        }
        (verdicts, consumed)
    }

    /// The body length a head declares, read off its bytes without the
    /// parser: the value of its (first) `Content-Length` line, else 0.
    fn declared_length(head: &[u8]) -> usize {
        String::from_utf8_lossy(head)
            .lines()
            .skip(1)
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().expect("an accepted length parses"))
            })
            .unwrap_or(0)
    }

    #[test]
    fn mutated_requests_parse_the_same_however_they_are_chunked() {
        let corpus = corpus();
        for seed in &corpus {
            let (verdicts, consumed) = feed(seed, &[usize::MAX]);
            assert!(!verdicts.is_empty(), "a seed holds at least one request");
            assert!(verdicts.iter().all(|v| matches!(v, Parse::Request(_))));
            assert_eq!(consumed, seed.len(), "and nothing else");
        }
        let mut rng = XorShift(0x5eed_5eed_5eed_5eed);
        let (mut requests, mut refusals) = (0u64, 0u64);
        for _ in 0..ITERATIONS {
            let mut bytes = mutate(&mut rng, &corpus);
            // Stack a second mutation on half the mutants.
            if rng.below(2) == 0 {
                bytes = mutate(&mut rng, &[bytes]);
            }
            let whole = feed(&bytes, &[usize::MAX]);
            let max_chunk = [1, 7, 64, 4096][rng.below(4)];
            let chunks: Vec<usize> = (0..16).map(|_| 1 + rng.below(max_chunk)).collect();
            assert_eq!(
                feed(&bytes, &chunks),
                whole,
                "chunked as {chunks:?}: {bytes:?}"
            );
            for verdict in &whole.0 {
                match verdict {
                    Parse::Request(_) => requests += 1,
                    _ => refusals += 1,
                }
            }
        }
        // The mutation engine must be producing both outcomes.
        assert!(
            requests > 0 && refusals > 0,
            "{requests} requests, {refusals} refusals"
        );
    }

    #[test]
    fn every_prefix_of_a_valid_stream_is_handled() {
        // Exhaustive truncation (not sampled) of a pipelined stream,
        // each prefix arriving whole and a byte at a time.
        let stream = PIPELINED;
        for end in 0..=stream.len() {
            let whole = feed(&stream[..end], &[usize::MAX]);
            assert_eq!(feed(&stream[..end], &[1]), whole, "prefix of {end} bytes");
        }
    }

    #[test]
    fn a_trickled_request_is_examined_once_not_once_per_read() {
        // The reactor thread's work on a slow sender: a byte at a time,
        // each head byte is searched once and parsed once — 2n, where
        // re-searching from byte 0 and re-parsing the head on every
        // readable event would be ~n²/2 — and body bytes are not
        // examined at all.
        let mut head = b"POST /map HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            head.extend_from_slice(format!("X-Header-{i}: {}\r\n", "v".repeat(500)).as_bytes());
        }
        head.extend_from_slice(b"Content-Length: 4096\r\n\r\n");
        let body = vec![b'x'; 4096];
        let mut parser = RequestParser::default();
        let mut rbuf = Vec::new();
        for &byte in head.iter().chain(&body[..body.len() - 1]) {
            rbuf.push(byte);
            assert_eq!(parser.parse(&mut rbuf, 1 << 20), Parse::NeedMore);
        }
        rbuf.push(b'x');
        match parser.parse(&mut rbuf, 1 << 20) {
            Parse::Request(request) => assert_eq!(request.body, body),
            other => panic!("expected the request, got {other:?}"),
        }
        assert_eq!(parser.examined, 2 * head.len());
    }
}
