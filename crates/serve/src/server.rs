//! TCP transport: [`Server`] binds a listener and serves the broker
//! over the [`crate::wire`] framing; [`Client`] is the matching caller.
//!
//! Threading model: a **readiness loop**, hand-rolled like the
//! `WorkerPool` (no registry deps). One event-loop thread polls the
//! nonblocking listener plus every connection's nonblocking socket:
//! bytes are accumulated per connection until a full frame parses,
//! complete requests are dispatched to a small pool of handler threads
//! (so a cold solve never stalls the loop), and responses are queued
//! into per-connection write buffers flushed as the peer drains them.
//! Ten thousand idle connections therefore cost buffers, not threads.
//! Each connection has at most one request in flight — responses stay
//! in request order; pipelining depth is the client's choice. The
//! *solves* all funnel through the broker's shared worker pool and
//! cache, so a hundred connections still coalesce onto one solve per
//! `(setup, Q, p_max)` key. [`Server::shutdown`] stops the loop and
//! closes its connections; clients see the close as a transient error
//! and reconnect-retry.
//!
//! ## Failure semantics
//!
//! * **Timeouts.** The [`ServerConfig`] read timeout bounds how long a
//!   connection may sit idle (or a peer may stall mid-frame) before the
//!   loop drops it; the write timeout bounds how long a queued response
//!   may go without the peer accepting a byte. Neither can park a
//!   thread — the loop just stops tracking the laggard. Client-side
//!   socket timeouts ([`ClientConfig`]) surface as transient, retried
//!   errors.
//! * **Typed errors.** Request failures answer a typed error frame
//!   ([`crate::ServeError`]: code + retryable flag + message) on a
//!   still-healthy connection; only *framing* damage tears the
//!   connection down.
//! * **Retry.** [`Client`] transparently retries transient transport
//!   errors (connection reset/refused, timeouts, truncated or
//!   CRC-corrupt frames) and typed retryable errors, with capped
//!   exponential backoff and seeded full jitter ([`RetryPolicy`]),
//!   reconnecting when the stream may be out of sync. Deadlines ride
//!   the wire as relative budgets ([`Client::query_batch_within`]).
//! * **Accept-loop survival.** Transient `accept()` failures (EMFILE,
//!   ECONNABORTED) back off — doubling up to a cap — and keep
//!   accepting; only [`Server::shutdown`] stops the listener.

use crate::broker::{Broker, GuaranteeAnswer, GuaranteeQuery, SweepQuery};
use crate::errors::ServeError;
use crate::faults::{self, FaultPoint};
use crate::obs::ObsHub;
use crate::wire;
use cyclesteal_obs::SpanRecord;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server connection-handling options.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// How long a connection may sit idle (or a peer may stall
    /// mid-frame) before the server closes it. `None` = wait forever —
    /// only for trusted peers.
    pub read_timeout: Option<Duration>,
    /// How long a queued response may sit without the peer accepting a
    /// single byte before the server closes the connection.
    pub write_timeout: Option<Duration>,
    /// Request-handler threads draining the event loop's dispatch
    /// queue. Handlers mostly *wait* (on coalesced flights, fairness
    /// lanes and the solve pool), so this bounds concurrent request
    /// contexts, not CPU use. `0` = the machine's worker-thread
    /// default, minimum 2.
    pub handlers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            handlers: 0,
        }
    }
}

/// A running TCP front-end over a shared [`Broker`].
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    driver: Option<JoinHandle<()>>,
}

/// One complete request frame, tagged with the connection it came from
/// and the hub-clock reading at which the event loop parsed it — the
/// start of the request's `server.recv` span (parse → handler pickup).
struct Job {
    conn_id: u64,
    payload: Vec<u8>,
    recv_ns: u64,
}

/// A handler's verdict on one request, routed back to the event loop.
enum Reply {
    /// Write these raw frame bytes (already length-prefixed and
    /// checksummed — or deliberately corrupted by the fault harness).
    Respond(Vec<u8>),
    /// Injected mid-exchange drop: close without responding — the
    /// client sees a truncated session.
    Close,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `broker`, with the default
    /// [`ServerConfig`] timeouts.
    pub fn start(addr: impl ToSocketAddrs, broker: Arc<Broker>) -> io::Result<Server> {
        Server::start_with(addr, broker, ServerConfig::default())
    }

    /// [`Server::start`] with explicit connection-handling options.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        broker: Arc<Broker>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();

        // Dispatch plumbing: the loop sends complete request frames to
        // the handler pool and drains replies back. Dropping `job_tx`
        // (when the loop exits) disconnects the handlers' `recv`, which
        // is how the pool winds down — no separate stop signal.
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (reply_tx, reply_rx) = mpsc::channel::<(u64, Reply)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handlers = if config.handlers == 0 {
            cyclesteal_par::default_threads().max(2)
        } else {
            config.handlers
        };
        for _ in 0..handlers {
            let jobs = job_rx.clone();
            let replies = reply_tx.clone();
            let broker = broker.clone();
            std::thread::spawn(move || handler_loop(&jobs, &replies, &broker));
        }
        drop(reply_tx);

        let hub = broker.obs().clone();
        let driver = std::thread::spawn(move || {
            event_loop(&listener, &stop_flag, &job_tx, &reply_rx, config, &hub)
        });
        Ok(Server {
            local_addr,
            stop,
            driver: Some(driver),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the event loop and joins it, closing the listener and
    /// every tracked connection. Clients observe the close as a
    /// transient transport error and reconnect-retry against the next
    /// server instance. Handler threads drain their queue and exit on
    /// their own once the loop's dispatch channel disconnects.
    pub fn shutdown(mut self) {
        self.stop_driver();
    }

    fn stop_driver(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_driver();
    }
}

/// Per-connection readiness-loop state: the nonblocking socket, the
/// inbound byte accumulator, the outbound write queue, and the
/// activity stamps the timeouts are enforced against.
struct TrackedConn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into a frame.
    rbuf: Vec<u8>,
    /// Response bytes queued but not yet accepted by the peer.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written so far.
    wpos: usize,
    /// A request is with the handler pool; parsing pauses until its
    /// reply lands so responses stay in request order.
    inflight: bool,
    /// Marked for removal (peer EOF, I/O error, framing damage,
    /// timeout, or an injected drop).
    gone: bool,
    last_read: Instant,
    last_write: Instant,
}

/// Don't buffer more inbound bytes than one maximal frame: a peer that
/// pipelines past an in-flight request is backpressured by TCP instead
/// of growing the accumulator unboundedly.
const MAX_CONN_BUFFER: usize = wire::MAX_FRAME_BYTES as usize + 8;

/// The readiness loop: accept, drain handler replies, then give every
/// connection a read / parse / write / timeout pass. Runs until the
/// stop flag; each pass that moves no bytes sleeps 1 ms, so an idle
/// server polls cheaply and a busy one spins at line rate.
fn event_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    jobs: &mpsc::Sender<Job>,
    replies: &mpsc::Receiver<(u64, Reply)>,
    config: ServerConfig,
    obs: &ObsHub,
) {
    // accept() can fail transiently under load (ECONNABORTED on a reset
    // handshake, EMFILE on fd exhaustion). Dropping the listener over
    // one of those would silently refuse every future connection, so
    // *no* error stops accepting — failures just muzzle the accept arm
    // with doubling (capped) backoff while connections keep serving.
    const ERROR_BACKOFF_CAP: Duration = Duration::from_secs(1);
    let mut error_backoff = Duration::from_millis(10);
    let mut accept_muzzled_until: Option<Instant> = None;
    let mut conns: HashMap<u64, TrackedConn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut scratch = [0u8; 16 * 1024];

    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let mut progressed = false;

        if !accept_muzzled_until.is_some_and(|until| now < until) {
            accept_muzzled_until = None;
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        error_backoff = Duration::from_millis(10);
                        progressed = true;
                        stream.set_nodelay(true).ok();
                        if stream.set_nonblocking(true).is_ok() {
                            conns.insert(
                                next_id,
                                TrackedConn {
                                    stream,
                                    rbuf: Vec::new(),
                                    wbuf: Vec::new(),
                                    wpos: 0,
                                    inflight: false,
                                    gone: false,
                                    last_read: now,
                                    last_write: now,
                                },
                            );
                            next_id += 1;
                        }
                    }
                    // WouldBlock just means "no connection pending".
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        accept_muzzled_until = Some(now + error_backoff);
                        error_backoff = (error_backoff * 2).min(ERROR_BACKOFF_CAP);
                        break;
                    }
                }
            }
        }

        while let Ok((id, reply)) = replies.try_recv() {
            progressed = true;
            if let Some(conn) = conns.get_mut(&id) {
                conn.inflight = false;
                // A served response counts as activity: a long solve
                // must not burn the idle budget of the very connection
                // it is answering.
                conn.last_read = now;
                match reply {
                    Reply::Respond(bytes) => {
                        if conn.wbuf.is_empty() {
                            conn.last_write = now;
                        }
                        conn.wbuf.extend_from_slice(&bytes);
                    }
                    Reply::Close => conn.gone = true,
                }
            }
        }

        for (&id, conn) in conns.iter_mut() {
            if conn.gone {
                continue;
            }
            // Read until the socket runs dry (or the buffer cap).
            while conn.rbuf.len() < MAX_CONN_BUFFER {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.gone = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&scratch[..n]);
                        conn.last_read = now;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.gone = true;
                        break;
                    }
                }
            }
            // Parse at most one request into flight. A malformed
            // *payload* answers a typed error frame and keeps the
            // connection; *framing* damage (impossible length, CRC
            // mismatch) tears it down — the stream is unrecoverable.
            if !conn.gone && !conn.inflight {
                match wire::parse_frame(&conn.rbuf) {
                    Ok(Some((payload, consumed))) => {
                        conn.rbuf.drain(..consumed);
                        conn.inflight = true;
                        progressed = true;
                        if jobs
                            .send(Job {
                                conn_id: id,
                                payload,
                                recv_ns: obs.now_ns(),
                            })
                            .is_err()
                        {
                            conn.gone = true;
                        }
                    }
                    Ok(None) => {}
                    Err(_) => conn.gone = true,
                }
            }
            // Flush as much of the write queue as the peer accepts.
            while !conn.gone && conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.gone = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_write = now;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.gone = true;
                        break;
                    }
                }
            }
            if conn.wpos == conn.wbuf.len() && conn.wpos > 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            if conn.gone {
                continue;
            }
            // Timeouts: an idle (or mid-frame-stalled) peer against the
            // read timeout; an unread response against the write one.
            if conn.wbuf.is_empty() && !conn.inflight {
                if let Some(limit) = config.read_timeout {
                    if now.duration_since(conn.last_read) > limit {
                        conn.gone = true;
                    }
                }
            } else if !conn.wbuf.is_empty() {
                if let Some(limit) = config.write_timeout {
                    if now.duration_since(conn.last_write) > limit {
                        conn.gone = true;
                    }
                }
            }
        }
        conns.retain(|_, conn| !conn.gone);

        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One handler thread: take a complete request off the dispatch queue,
/// run it against the broker, route the reply back to the event loop.
/// The fault-injection points (read delay, drop-before-response,
/// corrupt-frame) live here, inert unless a [`crate::FaultPlan`] is
/// armed. Exits when the dispatch channel disconnects (server stopped).
fn handler_loop(
    jobs: &Mutex<mpsc::Receiver<Job>>,
    replies: &mpsc::Sender<(u64, Reply)>,
    broker: &Broker,
) {
    loop {
        // The mutex serializes *dequeueing* only: the guard is released
        // as soon as recv returns, so handlers process in parallel.
        let job = match jobs.lock().unwrap_or_else(|e| e.into_inner()).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        if let Some(delay) = faults::read_delay() {
            std::thread::sleep(delay);
        }
        let response = handle_request(&job.payload, broker, job.recv_ns);
        let reply = if faults::should(FaultPoint::DropConnection) {
            Reply::Close
        } else if faults::should(FaultPoint::CorruptFrame) {
            // Injected wire damage: flip one byte of the encoded frame.
            // The frame CRC guarantees the client detects it.
            let mut bytes = wire::frame_bytes(&response);
            let pos = faults::corrupt_position(bytes.len());
            bytes[pos] ^= 0x01;
            Reply::Respond(bytes)
        } else {
            Reply::Respond(wire::frame_bytes(&response))
        };
        if replies.send((job.conn_id, reply)).is_err() {
            return;
        }
    }
}

fn handle_request(payload: &[u8], broker: &Broker, recv_ns: u64) -> Vec<u8> {
    let obs = broker.obs();
    match payload.split_first() {
        Some((&wire::OP_QUERY_BATCH, body)) => {
            match wire::decode_query_batch_traced(&mut { body }) {
                Ok((queries, deadline_us, wire_trace)) => {
                    // A request arriving untraced (legacy frame or trace
                    // id 0) still gets a server-assigned id, so every
                    // TCP request is followable through the pipeline.
                    let trace_id = if wire_trace != 0 {
                        wire_trace
                    } else {
                        obs.assign_trace_id()
                    };
                    obs.span(trace_id, "server.recv", recv_ns);
                    // The wire deadline is a relative budget; convert to
                    // an absolute Instant at the moment of decode.
                    // checked_add so an absurd (hostile) budget degrades
                    // to "none" instead of panicking on Instant overflow.
                    let deadline = match deadline_us {
                        wire::NO_DEADLINE_US => None,
                        us => Instant::now().checked_add(Duration::from_micros(us)),
                    };
                    let t_dispatch = obs.start_ns(trace_id);
                    let outcome = broker.query_batch_traced("tcp", &queries, deadline, trace_id);
                    obs.span(trace_id, "server.dispatch", t_dispatch);
                    match outcome {
                        Ok(answers) => wire::encode_answers(&answers),
                        Err(e) => wire::encode_error(&e),
                    }
                }
                Err(e) => wire::encode_error(&ServeError::malformed(format!(
                    "malformed query batch: {e}"
                ))),
            }
        }
        Some((&wire::OP_SWEEP, body)) => match wire::decode_sweep_traced(&mut { body }) {
            Ok((sweep, deadline_us, wire_trace)) => {
                let trace_id = if wire_trace != 0 {
                    wire_trace
                } else {
                    obs.assign_trace_id()
                };
                obs.span(trace_id, "server.recv", recv_ns);
                let deadline = match deadline_us {
                    wire::NO_DEADLINE_US => None,
                    us => Instant::now().checked_add(Duration::from_micros(us)),
                };
                let t_dispatch = obs.start_ns(trace_id);
                let outcome = broker.query_sweep_traced("tcp", &sweep, deadline, trace_id);
                obs.span(trace_id, "server.dispatch", t_dispatch);
                match outcome {
                    // A window too jagged to fit one frame is the
                    // request's problem (narrow it), not a transport
                    // fault — reject before encoding, so frame_bytes
                    // never sees an over-cap payload.
                    Ok(runs) if runs.len() > wire::MAX_SWEEP_RUNS => {
                        wire::encode_error(&ServeError::invalid_query(
                            0,
                            format!(
                                "sweep produced {} runs, over the {}-run frame cap — narrow the window",
                                runs.len(),
                                wire::MAX_SWEEP_RUNS
                            ),
                        ))
                    }
                    Ok(runs) => wire::encode_runs(&runs),
                    Err(e) => wire::encode_error(&e),
                }
            }
            Err(e) => wire::encode_error(&ServeError::malformed(format!("malformed sweep: {e}"))),
        },
        Some((&wire::OP_METRICS, [])) => {
            let (text, spans) = broker.metrics_snapshot();
            wire::encode_metrics(&text, &spans)
        }
        Some((&wire::OP_METRICS, _)) => {
            wire::encode_error(&ServeError::malformed("metrics request carries no body"))
        }
        Some((op, _)) => wire::encode_error(&ServeError::malformed(format!("unknown opcode {op}"))),
        None => wire::encode_error(&ServeError::malformed("empty request")),
    }
}

/// Client retry policy: capped exponential backoff with seeded **full
/// jitter** — attempt `k` sleeps uniformly in
/// `(0, min(base·2ᵏ, max)]`, with the uniform draw coming from a
/// deterministic splitmix64 stream over `seed`. Seeded jitter keeps
/// retry storms decorrelated across clients (give each a different
/// seed) while staying reproducible in tests.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = never retry).
    pub max_retries: u32,
    /// Backoff cap doubles from here.
    pub base_delay: Duration,
    /// Backoff cap never exceeds this.
    pub max_delay: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x1CEB_00DA,
        }
    }
}

impl RetryPolicy {
    /// The deterministic jittered sleep before retry number `attempt`
    /// (0-based), where `n` indexes the jitter stream (monotone across
    /// the client's lifetime so repeated retry rounds keep fresh
    /// jitter).
    fn backoff(&self, attempt: u32, n: u64) -> Duration {
        let cap = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let cap_ns = cap.as_nanos().max(1) as u64;
        Duration::from_nanos(faults::splitmix64(self.seed ^ n) % cap_ns + 1)
    }
}

/// Client construction options.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// How long one response read may block. `None` = wait forever.
    pub read_timeout: Option<Duration>,
    /// How long one request write may block.
    pub write_timeout: Option<Duration>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::default(),
        }
    }
}

/// A blocking client for the [`Server`]'s wire protocol. One request at
/// a time per client; open several clients (they're cheap) for
/// concurrent load. Transient failures are retried per the configured
/// [`RetryPolicy`], reconnecting when the transport may be out of sync.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Conn>,
    /// Monotone jitter-stream index (see [`RetryPolicy::backoff`]).
    jitter_n: u64,
    /// Monotone trace-id stream index: each logical request draws one
    /// id, so every retry of that request shares its trace.
    next_trace: u64,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Transport-level failures worth a reconnect-and-retry: the connection
/// died, stalled, or delivered provably damaged bytes — none of which
/// says anything about the *request* being wrong.
fn transient(err: &io::Error) -> bool {
    if wire::is_corrupt_frame(err) {
        return true;
    }
    matches!(
        err.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

impl Client {
    /// Connects to a running server with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// [`Client::connect`] with explicit timeout/retry options. The
    /// first connection is dialed eagerly (so an unreachable address
    /// errors here); later reconnects happen lazily inside the retry
    /// loop.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let mut client = Client {
            addr,
            config,
            conn: None,
            jitter_n: 0,
            next_trace: 0,
        };
        client.conn = Some(client.dial()?);
        Ok(client)
    }

    fn dial(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.write_timeout)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Runs `op` against a live connection, retrying per the policy.
    /// Typed retryable server errors retry on the *same* connection
    /// (the frame was intact — the stream is still in sync); transport
    /// errors drop the connection and redial, because after a
    /// truncated or corrupt frame the stream position is unreliable.
    fn with_retry<T>(&mut self, mut op: impl FnMut(&mut Conn) -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let result = {
                match self.ensure_conn() {
                    Ok(conn) => op(conn),
                    Err(e) => Err(e),
                }
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let typed_retryable = ServeError::from_io(&err).map(|se| se.retryable);
            if typed_retryable.is_none() {
                self.conn = None;
            }
            let retryable = typed_retryable.unwrap_or_else(|| transient(&err));
            if !retryable || attempt >= self.config.retry.max_retries {
                return Err(err);
            }
            let n = self.jitter_n;
            self.jitter_n += 1;
            std::thread::sleep(self.config.retry.backoff(attempt, n));
            attempt += 1;
        }
    }

    fn ensure_conn(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        // Unreachable after the fill above, but kept a typed error: the
        // client's contract (like the broker's) is to never panic.
        self.conn
            .as_mut()
            .ok_or_else(|| io::Error::other("connection slot empty after dial"))
    }

    /// Sends one batch of queries and returns the answers in input
    /// order, retrying transient failures. Values cross the wire as
    /// IEEE bit patterns, so what the broker computed is exactly what
    /// this returns.
    pub fn query_batch(&mut self, queries: &[GuaranteeQuery]) -> io::Result<Vec<GuaranteeAnswer>> {
        self.query_batch_within(queries, None)
    }

    /// [`Client::query_batch`] with a per-batch deadline budget. The
    /// budget travels the wire as relative microseconds and is re-armed
    /// fresh on every retry attempt; the server rejects (typed,
    /// retryable `DeadlineExceeded`) any attempt it cannot answer in
    /// time rather than blocking past it.
    pub fn query_batch_within(
        &mut self,
        queries: &[GuaranteeQuery],
        deadline: Option<Duration>,
    ) -> io::Result<Vec<GuaranteeAnswer>> {
        let trace_id = self.draw_trace_id();
        self.query_batch_traced(queries, deadline, trace_id)
    }

    /// [`Client::query_batch_within`] under an explicit trace id. The
    /// id rides the wire (op-1's optional trailing field) and stamps
    /// every pipeline span the request crosses server-side; the same id
    /// is reused across retry attempts, so one logical request is one
    /// trace. `0` sends a legacy untraced frame (the server still
    /// assigns its own id).
    pub fn query_batch_traced(
        &mut self,
        queries: &[GuaranteeQuery],
        deadline: Option<Duration>,
        trace_id: u64,
    ) -> io::Result<Vec<GuaranteeAnswer>> {
        let deadline_us = deadline
            .map(|d| (d.as_micros().min(u64::MAX as u128) as u64).max(1))
            .unwrap_or(wire::NO_DEADLINE_US);
        let request = wire::encode_query_batch_traced(queries, deadline_us, trace_id);
        let want = queries.len();
        self.with_retry(|conn| {
            let response = round_trip(conn, &request)?;
            let answers = wire::decode_answers(&response)?;
            if answers.len() != want {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "answer count does not match query count",
                ));
            }
            Ok(answers)
        })
    }

    /// Sends one streaming sweep (op 3) and returns the exact tick
    /// staircase of the window, expanded client-side from the run
    /// descriptors the server streamed
    /// ([`cyclesteal_dp::expand_value_runs`]) — bit-identical to asking
    /// [`Client::query_batch`] for every tick of the window, at
    /// `O(runs)` wire bytes instead of `O(count)`.
    pub fn query_sweep(&mut self, sweep: &SweepQuery) -> io::Result<Vec<i64>> {
        self.query_sweep_within(sweep, None)
    }

    /// [`Client::query_sweep`] with a per-request deadline budget
    /// (same wire semantics as [`Client::query_batch_within`]).
    pub fn query_sweep_within(
        &mut self,
        sweep: &SweepQuery,
        deadline: Option<Duration>,
    ) -> io::Result<Vec<i64>> {
        let trace_id = self.draw_trace_id();
        self.query_sweep_traced(sweep, deadline, trace_id)
    }

    /// [`Client::query_sweep_within`] under an explicit trace id (same
    /// semantics as [`Client::query_batch_traced`], over op 3).
    pub fn query_sweep_traced(
        &mut self,
        sweep: &SweepQuery,
        deadline: Option<Duration>,
        trace_id: u64,
    ) -> io::Result<Vec<i64>> {
        let deadline_us = deadline
            .map(|d| (d.as_micros().min(u64::MAX as u128) as u64).max(1))
            .unwrap_or(wire::NO_DEADLINE_US);
        let request = wire::encode_sweep_traced(sweep, deadline_us, trace_id);
        self.with_retry(|conn| {
            let response = round_trip(conn, &request)?;
            let runs = wire::decode_runs(&response)?;
            // Expansion is only believed when the descriptors cover
            // exactly the requested window: a CRC-valid but miscounted
            // response is a server fault, surfaced as InvalidData
            // rather than expanded into a wrong-length answer.
            let covered: u64 = runs.iter().map(|r| r.len.max(0) as u64).sum();
            if covered != u64::from(sweep.count) || runs.iter().any(|r| r.len < 1) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "run descriptors do not cover the requested window",
                ));
            }
            Ok(cyclesteal_dp::expand_value_runs(&runs))
        })
    }

    /// Pulls the server's observability snapshot (op 4): the metrics
    /// registry's text exposition plus the recent trace-span journal.
    /// Parse the text with [`cyclesteal_obs::parse_exposition`].
    pub fn fetch_metrics(&mut self) -> io::Result<(String, Vec<SpanRecord>)> {
        self.with_retry(|conn| {
            let response = round_trip(conn, &[wire::OP_METRICS])?;
            wire::decode_metrics(&response)
        })
    }

    /// A fresh nonzero trace id for one logical request — a well-mixed
    /// splitmix64 draw over the retry seed, so concurrent clients with
    /// distinct seeds emit disjoint id streams.
    fn draw_trace_id(&mut self) -> u64 {
        let n = self.next_trace;
        self.next_trace += 1;
        faults::splitmix64(self.config.retry.seed ^ n.rotate_left(17) ^ 0x7EAC_E1D5).max(1)
    }
}

fn round_trip(conn: &mut Conn, request: &[u8]) -> io::Result<Vec<u8>> {
    wire::write_frame(&mut conn.writer, request)?;
    wire::read_frame(&mut conn.reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::errors::ErrorCode;
    use cyclesteal_core::time::secs;

    fn query(p: u32, lifespan: f64) -> GuaranteeQuery {
        GuaranteeQuery {
            setup: secs(1.0),
            ticks_per_setup: 8,
            interrupts: p,
            lifespan: secs(lifespan),
        }
    }

    #[test]
    fn tcp_round_trip_matches_in_process_broker() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let queries: Vec<GuaranteeQuery> = (1..=3).map(|p| query(p, 40.0 * p as f64)).collect();
        let over_wire = client.query_batch(&queries).unwrap();
        let direct = broker.query_batch(&queries).unwrap();
        for (a, b) in over_wire.iter().zip(&direct) {
            assert_eq!(a.value.get().to_bits(), b.value.get().to_bits());
            assert_eq!(a.value_ticks, b.value_ticks);
        }

        let stats = broker.stats();
        assert!(stats.endpoints.iter().any(|e| e.endpoint == "tcp"));
        server.shutdown();
    }

    #[test]
    fn sweeps_stream_the_exact_staircase_over_the_wire() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let sweep = SweepQuery {
            setup: secs(1.0),
            ticks_per_setup: 8,
            interrupts: 2,
            first_tick: 37,
            count: 500,
        };
        let over_wire = client.query_sweep(&sweep).unwrap();
        assert_eq!(over_wire.len(), 500);
        // Bit-identical to the per-tick op-1 answers for the same ticks.
        let grid = cyclesteal_dp::Grid::new(sweep.setup, sweep.ticks_per_setup);
        let queries: Vec<GuaranteeQuery> = (0..sweep.count)
            .map(|j| GuaranteeQuery {
                setup: sweep.setup,
                ticks_per_setup: sweep.ticks_per_setup,
                interrupts: sweep.interrupts,
                lifespan: grid.to_time(sweep.first_tick + i64::from(j)),
            })
            .collect();
        let dense = client.query_batch(&queries).unwrap();
        for (j, (run_value, answer)) in over_wire.iter().zip(&dense).enumerate() {
            assert_eq!(*run_value, answer.value_ticks, "tick {j}");
        }

        // An invalid window (count 0) is the typed InvalidQuery, not a
        // hang or a panic.
        let err = client
            .query_sweep(&SweepQuery { count: 0, ..sweep })
            .unwrap_err();
        assert_eq!(
            ServeError::from_io(&err).expect("typed").code,
            ErrorCode::InvalidQuery
        );
        server.shutdown();
    }

    #[test]
    fn malformed_requests_error_without_killing_the_connection() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        // Unknown opcodes → typed error frame, connection stays up. Op 2
        // (the retired stats op) is one of them, and non-retryable: a
        // retry can never make it succeed.
        for op in [99u8, 2] {
            wire::write_frame(&mut writer, &[op]).unwrap();
            let resp = wire::read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(resp[0], wire::STATUS_ERR, "op {op}");
            let err = wire::decode_error(&resp[1..]);
            assert_eq!(err.code, ErrorCode::Malformed, "op {op}");
            assert!(!err.retryable, "op {op}");
        }

        // An invalid query (negative setup) → typed error frame too.
        let bad = wire::encode_query_batch_traced(
            &[GuaranteeQuery {
                setup: secs(-1.0),
                ticks_per_setup: 8,
                interrupts: 1,
                lifespan: secs(10.0),
            }],
            wire::NO_DEADLINE_US,
            0,
        );
        wire::write_frame(&mut writer, &bad).unwrap();
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(resp[0], wire::STATUS_ERR);
        let err = wire::decode_error(&resp[1..]);
        assert_eq!(err.code, ErrorCode::InvalidQuery);
        assert!(!err.retryable);

        // And the connection still answers a good batch afterwards.
        wire::write_frame(
            &mut writer,
            &wire::encode_query_batch_traced(&[query(1, 20.0)], wire::NO_DEADLINE_US, 0),
        )
        .unwrap();
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(wire::decode_answers(&resp).unwrap().len(), 1);
        server.shutdown();
    }

    #[test]
    fn a_connection_killed_mid_frame_leaves_the_server_serving() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker).unwrap();

        // Claim a 64-byte frame, send 3 bytes, and vanish: the handler
        // sees EOF mid-frame (an error, not a hang) and dies alone.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&64u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
        drop(stream);

        // The server is unaffected: a fresh client gets real answers.
        let mut client = Client::connect(server.local_addr()).unwrap();
        let answers = client.query_batch(&[query(1, 20.0)]).unwrap();
        assert_eq!(answers.len(), 1);
        server.shutdown();
    }

    #[test]
    fn an_expired_wire_deadline_returns_the_typed_retryable_error() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        // max_retries 0: surface the first typed error instead of
        // burning retries on a deadline that can never be met.
        let mut client = Client::connect_with(
            server.local_addr(),
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        // A 1 µs budget is spent before the broker even sees the batch.
        let err = client
            .query_batch_within(&[query(1, 20.0)], Some(Duration::from_micros(1)))
            .unwrap_err();
        let typed = ServeError::from_io(&err).expect("typed error over the wire");
        assert_eq!(typed.code, ErrorCode::DeadlineExceeded);
        assert!(typed.retryable);
        assert!(broker.stats().resilience.deadline_rejects >= 1);
        server.shutdown();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            seed: 7,
        };
        for attempt in 0..8 {
            let cap = Duration::from_millis(10)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(80));
            let d = policy.backoff(attempt, attempt as u64);
            assert!(d > Duration::ZERO && d <= cap, "attempt {attempt}: {d:?}");
            // Same (seed, stream index) → same delay.
            assert_eq!(d, policy.backoff(attempt, attempt as u64));
        }
        // Distinct stream indices decorrelate the jitter.
        let a: Vec<_> = (0..16).map(|n| policy.backoff(3, n)).collect();
        assert!(a.windows(2).any(|w| w[0] != w[1]), "jitter varies: {a:?}");
    }

    #[test]
    fn transient_classification_separates_retryable_from_fatal() {
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            assert!(transient(&io::Error::new(kind, "x")), "{kind:?}");
        }
        assert!(!transient(&io::Error::new(io::ErrorKind::InvalidData, "x")));
        assert!(
            transient(&io::Error::new(
                io::ErrorKind::InvalidData,
                wire::CorruptFrame
            )),
            "CRC damage is transport, not protocol"
        );
    }
}
