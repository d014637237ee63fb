//! The non-blocking TCP front-end (Linux only): one epoll-driven I/O
//! thread feeding a [`WorkerPool`] that answers batches through
//! [`crate::ServeEngine::serve_batch`].
//!
//! ## Architecture
//!
//! ```text
//!             epoll (level-triggered)
//!   accept ──► per-connection read buffer ──► HTTP parse ──► admission
//!                                                              │
//!                              429 Overloaded ◄── queue full ──┤ queue ok
//!                                                              ▼
//!                                     inbox ──chunks──► WorkerPool
//!                                                              │
//!                  response slots ◄── mpsc completions ◄── serve_batch
//!                        │                    ▲
//!                        ▼                    └── eventfd wake
//!              in-order write-back (keep-alive / pipelining safe)
//! ```
//!
//! Responses are queued per connection in **request order**: each parsed
//! request claims a slot; a completion fills its slot; the writer only
//! flushes the front of the queue once it is ready, so HTTP/1.1
//! pipelining never reorders replies. Admission control is a bound on
//! engine work in flight — when the pending queue is full the request is
//! answered immediately with a typed [`WireError::overloaded`] (HTTP
//! 429) and the connection stays healthy; connections are never silently
//! dropped under load.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ocular_bytes::net::{Epoll, Event, EventFd, Interest};
use ocular_parallel::WorkerPool;

use crate::engine::Request;
use crate::net::http::{self, ParseOutcome};
use crate::net::stats::ServerStats;
use crate::protocol::{ErrorCode, WireError, WireReply, WireRequest};
use crate::swap::{ReloadError, SwapEngine};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum engine requests in flight (queued + being served) before
    /// admission control starts answering `overloaded`.
    pub queue_cap: usize,
    /// Maximum requests coalesced into one [`crate::ServeEngine::serve_batch`]
    /// call.
    pub batch_max: usize,
    /// Serve worker threads (the I/O thread is separate).
    pub workers: usize,
    /// Maximum simultaneously open connections; extras are answered with
    /// a `503` and closed.
    pub max_connections: usize,
    /// Install `SIGINT`/`SIGTERM` handlers and honor them as a shutdown
    /// request (the CLI sets this; tests drive [`ServerHandle`] instead).
    pub handle_signals: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_cap: 1024,
            batch_max: 256,
            workers: 1,
            max_connections: 1024,
            handle_signals: false,
        }
    }
}

/// A clonable remote control for a running server.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    wake: Arc<EventFd>,
}

impl ServerHandle {
    /// Asks the event loop to drain in-flight work and exit.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.notify();
    }
}

/// One queued response position on a connection. Requests claim slots in
/// arrival order; the writer flushes only ready slots from the front.
struct OutSlot {
    bytes: Option<Vec<u8>>,
    keep_alive: bool,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    gen: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    out: VecDeque<OutSlot>,
    /// Sequence number of the slot at `out[0]`.
    base_seq: u64,
    next_seq: u64,
    /// Peer sent EOF / half-closed: stop reading, flush the tail, close.
    peer_eof: bool,
    /// Framing is broken (or the server is draining): parse no further
    /// requests from this connection.
    stop_reading: bool,
    /// Close once the write buffer drains (set when a
    /// `Connection: close` response reaches the wire).
    close_after_flush: bool,
    interest: Interest,
}

impl Conn {
    fn has_flushable(&self) -> bool {
        self.write_pos < self.write_buf.len() || self.out.front().is_some_and(|s| s.bytes.is_some())
    }

    fn push_ready(&mut self, status: u16, body: &[u8], keep_alive: bool) {
        self.next_seq += 1;
        self.out.push_back(OutSlot {
            bytes: Some(http::format_response(status, body, keep_alive)),
            keep_alive,
        });
    }

    fn claim_slot(&mut self, keep_alive: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.out.push_back(OutSlot {
            bytes: None,
            keep_alive,
        });
        seq
    }
}

/// A recommendation request parsed off a connection, waiting for a
/// worker.
struct PendingJob {
    conn_idx: usize,
    gen: u64,
    seq: u64,
    request: Request,
    keep_alive: bool,
    t0: Instant,
}

/// A worker's answer, routed back to the I/O thread.
struct Completion {
    conn_idx: usize,
    gen: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// The TCP serving front-end. [`Server::bind`] then [`Server::run`] on a
/// dedicated thread (or [`Server::spawn`] to get a [`RunningServer`]).
///
/// The server holds a [`SwapEngine`], not a bare engine: every worker
/// batch pins the engine current at dispatch time, so a hot swap
/// (`POST /admin/reload` or `SIGHUP`, when the handle has a reload
/// source) lands without dropping or mixing in-flight requests.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    engine: Arc<SwapEngine>,
    cfg: ServerConfig,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    wake: Arc<EventFd>,
}

impl Server {
    /// Binds the listening socket (non-blocking) without starting the
    /// event loop.
    pub fn bind<A: ToSocketAddrs>(
        engine: Arc<SwapEngine>,
        addr: A,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::new(cfg.workers));
        Ok(Server {
            listener,
            addr,
            engine,
            cfg,
            stats,
            stop: Arc::new(AtomicBool::new(false)),
            wake: Arc::new(EventFd::new()?),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters and histograms.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            wake: Arc::clone(&self.wake),
        }
    }

    /// Runs the server on a fresh thread and returns a handle bundle.
    pub fn spawn(self) -> RunningServer {
        let addr = self.addr;
        let handle = self.handle();
        let stats = self.stats();
        let thread = std::thread::Builder::new()
            .name("ocular-io".into())
            .spawn(move || self.run())
            .expect("failed to spawn server I/O thread");
        RunningServer {
            addr,
            handle,
            stats,
            thread: Some(thread),
        }
    }

    /// The blocking event loop. Returns after [`ServerHandle::shutdown`]
    /// (or `SIGINT`/`SIGTERM` with
    /// [`ServerConfig::handle_signals`]) once in-flight requests have
    /// drained.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            addr: _,
            engine,
            cfg,
            stats,
            stop,
            wake,
        } = self;
        let signal_stop = cfg.handle_signals.then(ocular_bytes::net::shutdown_flag);
        let signal_reload = cfg.handle_signals.then(ocular_bytes::net::reload_flag);

        let epoll = Epoll::new()?;
        const TOKEN_LISTENER: u64 = 0;
        const TOKEN_WAKE: u64 = 1;
        const TOKEN_CONN_BASE: u64 = 2;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        epoll.add(wake.raw_fd(), TOKEN_WAKE, Interest::READ)?;

        let pool = WorkerPool::new(cfg.workers);
        let (comp_tx, comp_rx): (Sender<Completion>, Receiver<Completion>) = channel();

        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut gen_counter: u64 = 0;
        let mut in_flight: usize = 0;
        let mut batch_counter: u64 = 0;
        let mut events: Vec<Event> = Vec::new();
        let mut inbox: Vec<PendingJob> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();

        loop {
            // SIGHUP = hot reload, detached from the request path: the
            // event loop only spawns the reload thread and keeps serving.
            if let Some(flag) = signal_reload {
                if ocular_bytes::net::take_reload_request(flag) {
                    stats.reloads.fetch_add(1, Ordering::Relaxed);
                    let swap = Arc::clone(&engine);
                    let _ = std::thread::Builder::new()
                        .name("ocular-reload".into())
                        .spawn(move || {
                            if let Err(e) = swap.reload() {
                                eprintln!("reload (SIGHUP) failed: {e}");
                            }
                        });
                }
            }
            let stop_requested = stop.load(Ordering::Relaxed)
                || signal_stop.is_some_and(|f| f.load(Ordering::Relaxed));
            if stop_requested && !draining {
                draining = true;
                drain_deadline = Instant::now() + Duration::from_secs(5);
                let _ = epoll.delete(listener.as_raw_fd());
                for conn in conns.iter_mut().flatten() {
                    conn.stop_reading = true;
                }
            }
            if draining {
                let live: usize = conns
                    .iter()
                    .flatten()
                    .filter(|c| c.has_flushable() || !c.out.is_empty())
                    .count();
                if (in_flight == 0 && live == 0) || Instant::now() >= drain_deadline {
                    break;
                }
            }

            events.clear();
            let timeout = if draining { 20 } else { 1000 };
            epoll.wait(&mut events, timeout)?;

            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_all(
                        &listener,
                        &epoll,
                        &mut conns,
                        &mut free,
                        &mut gen_counter,
                        &cfg,
                        stats.as_ref(),
                        TOKEN_CONN_BASE,
                    ),
                    TOKEN_WAKE => {
                        wake.drain();
                    }
                    token => {
                        let idx = (token - TOKEN_CONN_BASE) as usize;
                        if conns.get(idx).and_then(Option::as_ref).is_none() {
                            continue;
                        }
                        if ev.closed && !ev.readable {
                            // EPOLLERR / EPOLLHUP: the socket is dead.
                            close_conn(&epoll, &mut conns, &mut free, stats.as_ref(), idx);
                            continue;
                        }
                        if ev.readable {
                            if let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) {
                                read_and_route(
                                    idx,
                                    conn,
                                    stats.as_ref(),
                                    &mut inbox,
                                    &mut in_flight,
                                    cfg.queue_cap,
                                    &engine,
                                    &comp_tx,
                                    &wake,
                                );
                            }
                        }
                    }
                }
            }

            // Hand parsed requests to the workers in coalesced batches.
            while !inbox.is_empty() {
                let take = inbox.len().min(cfg.batch_max);
                let batch: Vec<PendingJob> = inbox.drain(..take).collect();
                let hist_idx = (batch_counter as usize) % stats.histograms.len();
                batch_counter += 1;
                // Pin the engine current at dispatch: the whole batch is
                // answered by one model generation, and a concurrent swap
                // cannot unmap it until this Arc (the last borrower) drops.
                let engine = engine.engine();
                let stats = Arc::clone(&stats);
                let tx = comp_tx.clone();
                let wake = Arc::clone(&wake);
                pool.execute(move || {
                    let reqs: Vec<Request> = batch.iter().map(|j| j.request.clone()).collect();
                    let results = engine.serve_batch(&reqs);
                    for (job, result) in batch.into_iter().zip(results) {
                        let reply = engine.wire_reply(&job.request, &result);
                        let mut body = reply.encode().into_bytes();
                        body.push(b'\n');
                        let bytes =
                            http::format_response(reply.http_status(), &body, job.keep_alive);
                        stats.histograms[hist_idx].record(job.t0.elapsed());
                        stats.served.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(Completion {
                            conn_idx: job.conn_idx,
                            gen: job.gen,
                            seq: job.seq,
                            bytes,
                        });
                    }
                    wake.notify();
                });
            }

            // Route completions back into their response slots.
            while let Ok(c) = comp_rx.try_recv() {
                in_flight -= 1;
                let Some(conn) = conns.get_mut(c.conn_idx).and_then(Option::as_mut) else {
                    continue; // connection died while the request was in flight
                };
                if conn.gen != c.gen {
                    continue; // slot index was reused by a newer connection
                }
                let slot = (c.seq - conn.base_seq) as usize;
                conn.out[slot].bytes = Some(c.bytes);
            }

            // Flush every connection with ready output; close the
            // finished ones.
            for idx in 0..conns.len() {
                let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                if !flush_conn(conn, &epoll) {
                    close_conn(&epoll, &mut conns, &mut free, stats.as_ref(), idx);
                }
            }
        }

        // Drain deadline passed or everything flushed: tear down.
        for idx in 0..conns.len() {
            if conns[idx].is_some() {
                close_conn(&epoll, &mut conns, &mut free, &stats, idx);
            }
        }
        drop(pool); // joins workers (any stragglers finish first)
        Ok(())
    }
}

/// A server running on its own thread, as produced by [`Server::spawn`].
pub struct RunningServer {
    addr: SocketAddr,
    handle: ServerHandle,
    stats: Arc<ServerStats>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters and histograms.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// A clonable remote control.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Requests shutdown and joins the I/O thread.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.handle.shutdown();
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("server I/O thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.handle.shutdown();
            let _ = t.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_all(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    gen_counter: &mut u64,
    cfg: &ServerConfig,
    stats: &ServerStats,
    token_base: u64,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let open = conns.iter().flatten().count();
        if open >= cfg.max_connections {
            // Best-effort 503 before dropping; never hang the loop on it.
            let mut s = stream;
            let body = WireError {
                code: crate::protocol::ErrorCode::Overloaded,
                message: format!("connection limit reached ({})", cfg.max_connections),
            }
            .to_json()
            .to_string();
            let _ = s.write_all(&http::format_response(503, body.as_bytes(), false));
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let idx = free.pop().unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        let token = token_base + idx as u64;
        *gen_counter += 1;
        if epoll
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            free.push(idx);
            continue;
        }
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        conns[idx] = Some(Conn {
            stream,
            token,
            gen: *gen_counter,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            out: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            peer_eof: false,
            stop_reading: false,
            close_after_flush: false,
            interest: Interest::READ,
        });
    }
}

/// Reads everything available, parses complete HTTP requests and routes
/// them: engine requests into `inbox` (or an immediate `overloaded` /
/// decode-error response), `/stats` and `/healthz` answered inline,
/// `/admin/reload` dispatched to a dedicated reload thread.
#[allow(clippy::too_many_arguments)]
fn read_and_route(
    conn_idx: usize,
    conn: &mut Conn,
    stats: &ServerStats,
    inbox: &mut Vec<PendingJob>,
    in_flight: &mut usize,
    queue_cap: usize,
    swap: &Arc<SwapEngine>,
    comp_tx: &Sender<Completion>,
    wake: &Arc<EventFd>,
) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.peer_eof = true;
                break;
            }
        }
    }

    while !conn.stop_reading {
        match http::parse_request(&conn.read_buf) {
            Ok(ParseOutcome::Incomplete) => break,
            Ok(ParseOutcome::Complete(req, consumed)) => {
                conn.read_buf.drain(..consumed);
                stats.requests.fetch_add(1, Ordering::Relaxed);
                route(
                    conn_idx, conn, req, stats, inbox, in_flight, queue_cap, swap, comp_tx, wake,
                );
            }
            Err(e) => {
                // Framing is broken — answer once and close; there is no
                // reliable way to find the next request boundary.
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let body = WireError::bad_request(e.message).to_json().to_string();
                conn.push_ready(e.status, body.as_bytes(), false);
                conn.stop_reading = true;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn route(
    conn_idx: usize,
    conn: &mut Conn,
    req: http::HttpRequest,
    stats: &ServerStats,
    inbox: &mut Vec<PendingJob>,
    in_flight: &mut usize,
    queue_cap: usize,
    swap: &Arc<SwapEngine>,
    comp_tx: &Sender<Completion>,
    wake: &Arc<EventFd>,
) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/recommend") | ("POST", "/") => {
            if *in_flight >= queue_cap {
                stats.shed.fetch_add(1, Ordering::Relaxed);
                let err = WireError::overloaded(*in_flight, queue_cap);
                let status = err.code.http_status();
                let mut body = WireReply::Err(err).encode();
                body.push('\n');
                conn.push_ready(status, body.as_bytes(), req.keep_alive);
                return;
            }
            let text = String::from_utf8_lossy(&req.body);
            match WireRequest::decode(&text) {
                Ok(wire) => {
                    let seq = conn.claim_slot(req.keep_alive);
                    *in_flight += 1;
                    inbox.push(PendingJob {
                        conn_idx,
                        gen: conn.gen,
                        seq,
                        request: wire.request,
                        keep_alive: req.keep_alive,
                        t0: Instant::now(),
                    });
                }
                Err(err) => {
                    stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    let status = err.code.http_status();
                    let mut body = WireReply::Err(err).encode();
                    body.push('\n');
                    conn.push_ready(status, body.as_bytes(), req.keep_alive);
                }
            }
        }
        ("POST", "/admin/reload") => {
            // Claim a response slot now, run the reload on a dedicated
            // thread, and let it complete the slot like any worker batch:
            // the event loop never blocks on model loading, the client
            // gets the actual outcome, and a shutdown drain waits for it.
            stats.reloads.fetch_add(1, Ordering::Relaxed);
            let seq = conn.claim_slot(req.keep_alive);
            *in_flight += 1;
            let keep_alive = req.keep_alive;
            let conn_gen = conn.gen;
            let swap = Arc::clone(swap);
            let tx = comp_tx.clone();
            let thread_wake = Arc::clone(wake);
            let spawned = std::thread::Builder::new()
                .name("ocular-reload".into())
                .spawn(move || {
                    let (status, mut body) = match swap.reload() {
                        Ok(generation) => (
                            200,
                            format!("{{\"ok\":true,\"model_generation\":{generation}}}"),
                        ),
                        Err(e) => {
                            let err = reload_wire_error(e);
                            (err.code.http_status(), WireReply::Err(err).encode())
                        }
                    };
                    body.push('\n');
                    let _ = tx.send(Completion {
                        conn_idx,
                        gen: conn_gen,
                        seq,
                        bytes: http::format_response(status, body.as_bytes(), keep_alive),
                    });
                    thread_wake.notify();
                });
            if spawned.is_err() {
                let err = WireError {
                    code: ErrorCode::Internal,
                    message: "failed to spawn reload thread".into(),
                };
                let mut body = WireReply::Err(err).encode();
                body.push('\n');
                let _ = comp_tx.send(Completion {
                    conn_idx,
                    gen: conn_gen,
                    seq,
                    bytes: http::format_response(500, body.as_bytes(), keep_alive),
                });
                wake.notify();
            }
        }
        ("GET", "/stats") => {
            let current = swap.engine();
            let mut body = stats
                .to_json_with_model(&current, swap.swap_count(), swap.reloading())
                .to_string();
            body.push('\n');
            conn.push_ready(200, body.as_bytes(), req.keep_alive);
        }
        ("GET", "/healthz") => {
            conn.push_ready(200, b"{\"ok\":true}\n", req.keep_alive);
        }
        (_, path) => {
            let body = WireError::bad_request(format!("no such endpoint: {} {path}", req.method))
                .to_json()
                .to_string();
            conn.push_ready(404, body.as_bytes(), req.keep_alive);
        }
    }
}

/// Maps a reload failure to its wire error: `Busy` → the `reloading`
/// code (503), `NoSource` → `unsupported` (501), load/build failures →
/// the standard [`OcularError`] taxonomy mapping.
fn reload_wire_error(e: ReloadError) -> WireError {
    match e {
        ReloadError::Busy => WireError::reloading(),
        ReloadError::NoSource => WireError {
            code: ErrorCode::Unsupported,
            message: "server was started without a reload source".into(),
        },
        ReloadError::Failed(err) => WireError::from(&err),
    }
}

/// Writes as much queued output as the socket accepts, promoting ready
/// slots from the front of the response queue. Returns `false` when the
/// connection should be closed.
fn flush_conn(conn: &mut Conn, epoll: &Epoll) -> bool {
    loop {
        if conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        } else {
            conn.write_buf.clear();
            conn.write_pos = 0;
            if conn.close_after_flush {
                return false;
            }
            match conn.out.front() {
                Some(slot) if slot.bytes.is_some() => {
                    let slot = conn.out.pop_front().expect("front exists");
                    conn.base_seq += 1;
                    conn.write_buf = slot.bytes.expect("checked ready");
                    if !slot.keep_alive {
                        conn.close_after_flush = true;
                    }
                }
                _ => break,
            }
        }
    }

    let drained = conn.write_pos >= conn.write_buf.len();
    if drained && conn.close_after_flush {
        return false;
    }
    if drained && (conn.peer_eof || conn.stop_reading) && conn.out.is_empty() {
        // Nothing left to say and nothing more to hear.
        return false;
    }
    let desired = Interest {
        readable: !(conn.peer_eof || conn.stop_reading),
        writable: !drained,
    };
    if desired != conn.interest
        && epoll
            .modify(conn.stream.as_raw_fd(), conn.token, desired)
            .is_ok()
    {
        conn.interest = desired;
    }
    true
}

fn close_conn(
    epoll: &Epoll,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    stats: &ServerStats,
    idx: usize,
) {
    if let Some(conn) = conns[idx].take() {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        stats.closed.fetch_add(1, Ordering::Relaxed);
        free.push(idx);
    }
}
