//! The reactor side of `monomapd`: one thread that owns every socket —
//! non-blocking accept, per-connection read/write state machines,
//! keep-alive, idle timeouts and client-disconnect detection — parses
//! requests off the read buffers ([`crate::wire`]) and routes them
//! ([`crate::routes`]): answered on the spot, or handed to the cheap
//! pool and written out when the pool's [`Response`] comes back.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cgra_base::CancelFlag;

use crate::http::ServerConfig;
use crate::reactor::{waker_pair, Event, Poller, WakeReader, Waker};
use crate::routes::{route, CheapJob, Route, Shared};
use crate::wire::{
    HttpVersion, Parse, ParsedRequest, Reply, RequestParser, Response, MAX_HEAD_BYTES,
};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long `epoll_wait` sleeps when nothing happens; bounds how stale
/// the idle-timeout sweep can get.
const POLL_TIMEOUT: Duration = Duration::from_millis(500);

/// After answering a request-level error on a connection that may
/// still be uploading, the write side is half-closed and up to this
/// many body bytes are drained so the peer can read the status line
/// instead of tripping on a connection reset.
const DRAIN_BUDGET: usize = 256 * 1024;

/// ... for at most this long.
const DRAIN_WINDOW: Duration = Duration::from_secs(2);

/// Pipelined responses stop being produced (parsing pauses) while more
/// than this many bytes are waiting to be written, so a client that
/// sends requests without reading answers cannot balloon the write
/// buffer.
const WBUF_SOFT_CAP: usize = 4 << 20;

enum ConnState {
    /// Accumulating request bytes (and, between requests, idling).
    Reading,
    /// A request-level error was answered and the write side
    /// half-closed; inbound bytes are discarded until EOF, the budget
    /// or the deadline — whichever comes first — then the socket
    /// closes.
    Draining { deadline: Instant, budget: usize },
}

struct Conn {
    token: u64,
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Where the parse of `rbuf`'s front request stands.
    parser: RequestParser,
    wbuf: Vec<u8>,
    wpos: usize,
    state: ConnState,
    /// The cancel flag of the in-flight request, if any. `Some` is
    /// also the per-connection in-flight cap: no further pipelined
    /// request is parsed until the response comes back.
    inflight: Option<CancelFlag>,
    close_after_write: bool,
    drain_after_write: bool,
    peer_eof: bool,
    last_activity: Instant,
    interest_read: bool,
    interest_write: bool,
}

impl Conn {
    fn new(token: u64, stream: TcpStream) -> Conn {
        Conn {
            token,
            stream,
            rbuf: Vec::new(),
            parser: RequestParser::default(),
            wbuf: Vec::new(),
            wpos: 0,
            state: ConnState::Reading,
            inflight: None,
            close_after_write: false,
            drain_after_write: false,
            peer_eof: false,
            last_activity: Instant::now(),
            interest_read: true,
            interest_write: false,
        }
    }

    /// Appends an encoded response to the write buffer.
    fn queue(&mut self, response: Response) {
        self.wbuf.extend_from_slice(&response.bytes);
        if !response.keep_alive {
            self.close_after_write = true;
        }
    }
}

pub(crate) struct EventLoop {
    poller: Poller,
    wake_rx: WakeReader,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shutting_down: bool,
    shutdown: Arc<AtomicBool>,
    cheap_tx: mpsc::Sender<CheapJob>,
    done_rx: mpsc::Receiver<Response>,
    shared: Arc<Shared>,
    config: ServerConfig,
}

impl EventLoop {
    /// Sets the reactor up over `listener`: the poller, the listener
    /// and the wake channel the pools poke when a [`Response`] is ready
    /// (its sending half is returned for them).
    pub fn new(
        listener: TcpListener,
        shutdown: Arc<AtomicBool>,
        config: ServerConfig,
        shared: Arc<Shared>,
        cheap_tx: mpsc::Sender<CheapJob>,
        done_rx: mpsc::Receiver<Response>,
    ) -> io::Result<(EventLoop, Waker)> {
        let poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        poller.register(wake_rx.fd(), TOKEN_WAKER, true, false)?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        let event_loop = EventLoop {
            poller,
            wake_rx,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            shutting_down: false,
            shutdown,
            cheap_tx,
            done_rx,
            shared,
            config,
        };
        Ok((event_loop, waker))
    }

    pub fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) && !self.shutting_down {
                self.begin_shutdown();
            }
            if self.shutting_down && self.conns.is_empty() {
                return Ok(());
            }
            self.poller.wait(&mut events, POLL_TIMEOUT)?;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.wake_rx.drain(),
                    token => self.handle_event(token, ev.readable, ev.writable),
                }
            }
            while let Ok(response) = self.done_rx.try_recv() {
                self.deliver(response);
            }
            self.sweep_timeouts();
        }
    }

    /// Stops accepting and closes every connection with nothing in
    /// flight; the loop then drains until the rest have been answered.
    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.inflight.is_none() && c.wpos >= c.wbuf.len())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_token(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_ok()
                    {
                        self.conns.insert(token, Conn::new(token, stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient accept error; retry on next event
            }
        }
    }

    /// A writable socket needs no work of its own: `advance` flushes.
    fn handle_event(&mut self, token: u64, readable: bool, _writable: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if (!readable || self.read_ready(&mut conn)) && self.advance(&mut conn) {
            self.conns.insert(token, conn);
        } else {
            self.cleanup(conn);
        }
    }

    /// Pulls everything currently readable off the socket. Returns
    /// `false` when the connection should close now (`cleanup` then
    /// cancels whatever it has in flight).
    fn read_ready(&mut self, conn: &mut Conn) -> bool {
        if conn.peer_eof {
            return true;
        }
        let counters = &self.shared.counters;
        let rbuf_cap = self.config.max_body_bytes + MAX_HEAD_BYTES + 64 * 1024;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.peer_eof = true;
                    if conn.inflight.is_some() {
                        // The peer abandoned an in-flight request:
                        // drop the connection, which releases the
                        // engine. Buffered pipelined bytes don't mask
                        // the EOF — read() returned it after consuming
                        // them.
                        counters.client_disconnects.fetch_add(1, Ordering::Relaxed);
                        return false;
                    }
                    return match conn.state {
                        // A response is still being flushed; the peer
                        // half-closed but may read it.
                        ConnState::Reading => conn.wpos < conn.wbuf.len(),
                        ConnState::Draining { .. } => false,
                    };
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    match &mut conn.state {
                        ConnState::Draining { budget, .. } => {
                            if *budget < n {
                                return false;
                            }
                            *budget -= n;
                        }
                        ConnState::Reading => {
                            conn.rbuf.extend_from_slice(&buf[..n]);
                            if conn.rbuf.len() > rbuf_cap {
                                // Unbounded pipelining while a request
                                // is in flight: abusive, cut it off.
                                counters.errors.fetch_add(1, Ordering::Relaxed);
                                return false;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if conn.inflight.is_some() {
                        counters.client_disconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    return false;
                }
            }
        }
    }

    /// Parses and dispatches whatever complete requests the read
    /// buffer holds, then flushes pending output and updates epoll
    /// interests. Returns `false` when the connection should close.
    fn advance(&mut self, conn: &mut Conn) -> bool {
        while matches!(conn.state, ConnState::Reading)
            && conn.inflight.is_none()
            && !conn.close_after_write
            && conn.wbuf.len() - conn.wpos < WBUF_SOFT_CAP
        {
            let max_body = self.config.max_body_bytes;
            match conn.parser.parse(&mut conn.rbuf, max_body) {
                Parse::NeedMore => break,
                Parse::Request(req) => self.dispatch(conn, req),
                // A malformed head has no version to echo.
                Parse::Bad(message) => self.refuse(conn, 400, message, HttpVersion::V11),
                Parse::TooLarge { version } => {
                    self.refuse(conn, 413, "request body too large", version)
                }
            }
        }
        if !self.flush(conn) {
            return false;
        }
        if conn.peer_eof
            && conn.inflight.is_none()
            && conn.wpos >= conn.wbuf.len()
            && matches!(conn.state, ConnState::Reading)
        {
            return false;
        }
        self.update_interest(conn);
        true
    }

    /// Answers a request the parser would not take, once: the write
    /// side then closes and what the peer is still uploading is drained.
    fn refuse(&self, conn: &mut Conn, status: u16, message: &str, version: HttpVersion) {
        let counters = &self.shared.counters;
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let reply = Reply {
            token: conn.token,
            keep_alive: false,
            version,
        };
        self.fail(conn, reply, status, message);
        conn.drain_after_write = true;
    }

    /// Answers an error on the spot, counting it.
    fn fail(&self, conn: &mut Conn, reply: Reply, status: u16, message: &str) {
        self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        conn.queue(reply.error(status, message));
    }

    fn dispatch(&mut self, conn: &mut Conn, req: ParsedRequest) {
        let counters = &self.shared.counters;
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let reply = Reply {
            token: conn.token,
            keep_alive: req.keep_alive,
            version: req.version,
        };
        match route(&req.method, &req.path) {
            Ok(Route::Cheap(endpoint)) => {
                self.shared.count(endpoint);
                // Every cheap job — solve or cache read — holds the
                // connection's single in-flight slot so responses stay
                // in request order on keep-alive connections.
                let cancel = CancelFlag::new();
                conn.inflight = Some(cancel.clone());
                let job = CheapJob {
                    reply,
                    endpoint,
                    request: req,
                    cancel,
                };
                if self.cheap_tx.send(job).is_err() {
                    // Only possible mid-shutdown: the pool is gone.
                    conn.inflight = None;
                    self.fail(conn, reply.closing(), 500, "server is shutting down");
                }
            }
            Ok(Route::Inline(handler)) => match handler(&self.shared) {
                Ok(body) => conn.queue(reply.json(200, &body, &[])),
                Err(message) => self.fail(conn, reply, 500, &message),
            },
            Err((status, message)) => self.fail(conn, reply, status, &message),
        }
    }

    /// Hands a pool-produced response to its connection (if it still
    /// exists) and resumes parsing pipelined requests behind it.
    fn deliver(&mut self, mut response: Response) {
        let token = response.token;
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // client disconnected while the job ran
        };
        conn.inflight = None;
        response.keep_alive &= !self.shutting_down;
        conn.queue(response);
        if self.advance(&mut conn) {
            self.conns.insert(token, conn);
        } else {
            self.cleanup(conn);
        }
    }

    /// Writes as much pending output as the socket accepts. Returns
    /// `false` when the connection should close.
    fn flush(&mut self, conn: &mut Conn) -> bool {
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !conn.wbuf.is_empty() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        if conn.close_after_write {
            if conn.drain_after_write {
                // Flush, half-close, then drain the peer's in-flight
                // upload so it can read the error status instead of
                // hitting a reset.
                let _ = conn.stream.shutdown(Shutdown::Write);
                conn.close_after_write = false;
                conn.drain_after_write = false;
                conn.rbuf.clear();
                conn.state = ConnState::Draining {
                    deadline: Instant::now() + DRAIN_WINDOW,
                    budget: DRAIN_BUDGET,
                };
            } else {
                return false;
            }
        }
        true
    }

    fn update_interest(&self, conn: &mut Conn) {
        let want_read = !conn.peer_eof;
        let want_write = conn.wpos < conn.wbuf.len();
        if want_read != conn.interest_read || want_write != conn.interest_write {
            conn.interest_read = want_read;
            conn.interest_write = want_write;
            let _ = self
                .poller
                .rearm(conn.stream.as_raw_fd(), conn.token, want_read, want_write);
        }
    }

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let timeout = self.config.read_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| match c.state {
                ConnState::Reading => {
                    c.inflight.is_none() && now.duration_since(c.last_activity) > timeout
                }
                ConnState::Draining { deadline, .. } => now >= deadline,
            })
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.close_token(token);
        }
    }

    fn close_token(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.cleanup(conn);
        }
    }

    fn cleanup(&mut self, conn: Conn) {
        if let Some(cancel) = conn.inflight {
            cancel.cancel();
        }
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        // Dropping the stream closes the socket.
    }
}
