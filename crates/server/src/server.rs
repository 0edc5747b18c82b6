//! The readiness-driven TCP server and its admission batcher.
//!
//! # Architecture
//!
//! ```text
//!  event-loop thread (one, owns every socket)
//!    epoll/poll wait ──► accept (nonblocking, over-limit ⇒ Busy frame)
//!         │              read ──► FrameDecoder ──► dispatch:
//!         │                         info/errors answered inline,
//!         │                         rNNR/top-k admitted as Jobs,
//!         │                         shard frames and mutations to
//!         │                         detached worker threads
//!         │              write ──► WriteBuf flush (backpressure via
//!         │                         write-interest re-registration)
//!         │              timer wheel ──► idle (slow-loris) eviction
//!         ▼
//!    admission queue (Mutex<VecDeque> + Condvar)
//!         │
//!    batcher thread: wait for work, linger one admission window
//!    (adaptive by default: proportional to the observed arrival
//!    rate), drain EVERYTHING queued, expire overdue deadlines,
//!    group by (kind, radius | k) and run ONE query_batch /
//!    query_topk_batch call per group
//!         │  completions (token, seq, encoded frame)
//!         ▼
//!    wake pipe ──► event loop fills response slots, flushes in
//!    request order
//! ```
//!
//! One thread multiplexes every connection through a [`Reactor`]
//! (hand-rolled `epoll`, `poll(2)` fallback — see [`crate::reactor`]),
//! so thousands of idle or bursty sockets cost one registration each
//! instead of one parked thread each. The batcher is unchanged in
//! spirit from the thread-per-connection design it replaced: it turns
//! many small concurrent requests into the big batches the in-process
//! batch path is built for, one
//! [`query_batch`](hlsh_core::ShardedIndex::query_batch) call per
//! tick-group, fanned over scoped threads.
//!
//! What the event loop adds is **governance**: a connection limit
//! answered with a typed [`ErrorCode::Busy`] frame, idle timeouts
//! driven by a timer wheel (a half-written frame from a stalled client
//! no longer pins a thread — it pins one decoder buffer until the
//! wheel reaps it), and per-request deadlines that expire queued work
//! without killing the connection that sent it.
//!
//! Batching never changes an answer: queries are independent, outputs
//! are split back in submission order, responses leave each connection
//! in request order (see [`crate::conn::SlotQueue`]), and the wire
//! encoding is deterministic — `tests/server_loopback.rs` pins socket
//! responses byte-identical to in-process batch calls.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::{Conn, FrameEvent};
use crate::protocol::{self, decode_request, ErrorCode, Request, Response};
use crate::reactor::{default_reactor, Event, Interest, Reactor};
use crate::service::{check_dim, check_radius};
use crate::timer::TimerWheel;

// The trait and error type predate the reactor and used to live here;
// they are service-layer concepts and moved to `service`, but the old
// paths keep working.
pub use crate::service::{QueryService, ServiceError};

/// How long the admission batcher lingers after the first pending
/// request before draining the queue, letting concurrent requests join
/// the same tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionWindow {
    /// Linger proportionally to the observed arrival rate (an EWMA of
    /// inter-arrival times, clamped to `max`): bursty traffic gets a
    /// window wide enough to coalesce, sparse traffic drains
    /// immediately instead of taxing every request the worst-case
    /// linger. This is the default.
    Adaptive {
        /// Hard cap on the linger; also the sparseness cutoff — when
        /// requests arrive further apart than this, the window is
        /// zero because there is nothing to coalesce with.
        max: Duration,
    },
    /// Always linger exactly this long (zero drains immediately) —
    /// the pre-adaptive behavior, kept for benchmarks that need a
    /// fixed coalescing horizon.
    Fixed(Duration),
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Largest accepted frame (`len` field) in bytes; larger requests
    /// are answered with [`ErrorCode::TooLarge`] and the connection is
    /// closed (the payload is never read). An answer over it becomes a
    /// `TooLarge` frame instead, and the connection stays open.
    pub max_frame_bytes: usize,
    /// The admission-batcher linger policy (see [`AdmissionWindow`]).
    pub admission: AdmissionWindow,
    /// Thread budget handed to the underlying batch calls
    /// (`None` = all available cores).
    pub batch_threads: Option<usize>,
    /// Connections beyond this are answered with one
    /// [`ErrorCode::Busy`] frame and closed at accept time.
    pub max_connections: usize,
    /// Evict a connection after this long without progress (bytes
    /// read, bytes written, or a response completing). `None` never
    /// evicts. Eviction precision is roughly an eighth of the value
    /// (the timer wheel's granularity).
    pub idle_timeout: Option<Duration>,
    /// Expire admitted requests still queued after this long with an
    /// [`ErrorCode::Deadline`] frame; the connection survives. `None`
    /// never expires. Checked when the batcher drains, so expiry
    /// resolution is one admission window.
    pub request_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            admission: AdmissionWindow::Adaptive { max: Duration::from_millis(1) },
            batch_threads: None,
            max_connections: 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            request_deadline: None,
        }
    }
}

/// Counters exposed by [`ServerHandle::stats`]; all cumulative since
/// startup except `open_connections` (a gauge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Currently accepted, not-yet-closed connections.
    pub open_connections: u64,
    /// Connections refused with a [`ErrorCode::Busy`] frame because
    /// the limit was reached.
    pub rejected_busy: u64,
    /// Connections evicted by the idle timeout.
    pub evicted_idle: u64,
    /// Requests expired with an [`ErrorCode::Deadline`] frame before
    /// execution.
    pub expired_deadlines: u64,
    /// Batch executions (one per drained kind-group).
    pub ticks: u64,
    /// Requests admitted to the batcher.
    pub admitted: u64,
}

/// One admitted request waiting for the next batcher tick.
struct Job {
    queries: Vec<Vec<f32>>,
    kind: JobKind,
    /// The connection token and response slot the answer fills.
    conn: u64,
    seq: u64,
    deadline: Option<Instant>,
}

#[derive(Clone, Copy, PartialEq)]
enum JobKind {
    /// Radius keyed by bit pattern so NaN can't split/merge groups
    /// unpredictably (decode guarantees a finite f64 either way).
    Rnnr {
        radius_bits: u64,
    },
    TopK {
        k: u32,
    },
}

/// A finished response on its way back to the event loop.
struct Completion {
    conn: u64,
    seq: u64,
    frame: Vec<u8>,
}

/// Inter-arrival EWMA the adaptive admission window is derived from.
#[derive(Default)]
struct Arrivals {
    last: Option<Instant>,
    ewma_us: f64,
}

/// State shared by the event loop, the batcher and shard workers.
struct Shared {
    service: Arc<dyn QueryService>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Responses finished off-loop, awaiting slot fill.
    completions: Mutex<Vec<Completion>>,
    /// Write end of the wake pipe; one byte tells the event loop to
    /// drain `completions` (or notice `shutdown`).
    waker: std::io::PipeWriter,
    /// Collapses redundant wake bytes so a slow loop iteration cannot
    /// fill the pipe: set by the first poster, cleared by the loop
    /// after it reads the pipe and before it drains.
    wake_pending: AtomicBool,
    arrivals: Mutex<Arrivals>,
    ticks: AtomicU64,
    admitted: AtomicU64,
    open_conns: AtomicU64,
    rejected_busy: AtomicU64,
    evicted_idle: AtomicU64,
    expired_deadlines: AtomicU64,
}

impl Shared {
    /// Posts finished responses and wakes the event loop once. This is
    /// the one place worker frames are filled, so the one place an
    /// answer over the frame limit becomes a `TooLarge` error frame
    /// (the connection lives on).
    fn complete(&self, mut batch: Vec<Completion>) {
        if batch.is_empty() {
            return;
        }
        for c in &mut batch {
            if let Err(e) = fits((c.frame.len() - 4) as u64, self.config.max_frame_bytes) {
                c.frame = Response::from(e).encode();
            }
        }
        self.completions.lock().unwrap().extend(batch);
        self.wake();
    }

    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.waker).write(&[1]);
        }
    }

    /// Records an admission for the arrival-rate EWMA.
    fn note_arrival(&self, now: Instant) {
        let mut a = self.arrivals.lock().unwrap();
        if let Some(last) = a.last {
            // Cap the sample: a quiet hour must read as "sparse", not
            // poison the average into the stratosphere.
            let dt = now.duration_since(last).min(Duration::from_secs(1));
            let dt_us = dt.as_secs_f64() * 1e6;
            a.ewma_us = if a.ewma_us == 0.0 { dt_us } else { 0.8 * a.ewma_us + 0.2 * dt_us };
        }
        a.last = Some(now);
    }

    /// The linger the batcher should apply right now.
    fn current_window(&self) -> Duration {
        match self.config.admission {
            AdmissionWindow::Fixed(d) => d,
            AdmissionWindow::Adaptive { max } => {
                let ewma_us = self.arrivals.lock().unwrap().ewma_us;
                let max_us = max.as_secs_f64() * 1e6;
                if ewma_us <= 0.0 || ewma_us >= max_us {
                    // No rate signal yet, or arrivals are further apart
                    // than the cap: lingering cannot coalesce anything.
                    return Duration::ZERO;
                }
                // Proportional: wide enough to catch a handful of
                // arrivals at the observed rate, clamped to the cap.
                Duration::from_micros((4.0 * ewma_us).min(max_us) as u64)
            }
        }
    }
}

/// A running server; dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Governance and batching counters since startup.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            open_connections: self.shared.open_conns.load(Ordering::Relaxed),
            rejected_busy: self.shared.rejected_busy.load(Ordering::Relaxed),
            evicted_idle: self.shared.evicted_idle.load(Ordering::Relaxed),
            expired_deadlines: self.shared.expired_deadlines.load(Ordering::Relaxed),
            ticks: self.shared.ticks.load(Ordering::Relaxed),
            admitted: self.shared.admitted.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, closes every connection and joins the event
    /// loop and batcher. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // One unconditional wake byte (bypassing the dedup flag) so
        // the event loop observes the flag even mid-drain.
        let _ = (&self.shared.waker).write(&[1]);
        self.shared.queue_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and spawns the event-loop + batcher threads.
///
/// Use port 0 for an ephemeral port and read it back from
/// [`ServerHandle::local_addr`].
pub fn spawn<A: ToSocketAddrs>(
    service: Arc<dyn QueryService>,
    addr: A,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    // SO_REUSEADDR so a restarted node can rebind its advertised port
    // while the previous process's accepted sockets sit in TIME_WAIT —
    // without it, a shard crash would take the port hostage for ~60s
    // and "restart the shard" would not be a recovery story.
    let listener = crate::sockopt::bind_reuseaddr(addr)?;
    let addr = listener.local_addr()?;
    let (wake_rx, wake_tx) = io::pipe()?;
    let reactor = default_reactor()?;
    let shared = Arc::new(Shared {
        service,
        config,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        completions: Mutex::new(Vec::new()),
        waker: wake_tx,
        wake_pending: AtomicBool::new(false),
        arrivals: Mutex::new(Arrivals::default()),
        ticks: AtomicU64::new(0),
        admitted: AtomicU64::new(0),
        open_conns: AtomicU64::new(0),
        rejected_busy: AtomicU64::new(0),
        evicted_idle: AtomicU64::new(0),
        expired_deadlines: AtomicU64::new(0),
    });

    let ev = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || EventLoop::new(listener, wake_rx, reactor, shared).run())
    };
    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || batch_loop(shared))
    };
    Ok(ServerHandle { addr, shared, threads: vec![ev, batcher] })
}

/// Reactor token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Reactor token of the wake pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection; tokens are never
/// reused, so a late completion can never reach a successor connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Timer-wheel slot count; with granularity at an eighth of the idle
/// timeout, one revolution spans eight timeouts.
const WHEEL_SLOTS: usize = 64;

fn wheel_granularity(idle: Duration) -> Duration {
    (idle / 8).clamp(Duration::from_millis(1), Duration::from_secs(1))
}

/// The single I/O thread: owns the listener, the reactor and every
/// live connection.
struct EventLoop {
    listener: TcpListener,
    wake_rx: std::io::PipeReader,
    reactor: Box<dyn Reactor>,
    shared: Arc<Shared>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    wheel: Option<TimerWheel>,
    /// Pre-encoded Busy frame written to over-limit accepts.
    busy_frame: Vec<u8>,
}

struct ConnState {
    conn: Conn,
    /// The interest set currently registered with the reactor, so
    /// maintenance only issues a syscall when it actually changes.
    registered: Interest,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        wake_rx: std::io::PipeReader,
        reactor: Box<dyn Reactor>,
        shared: Arc<Shared>,
    ) -> Self {
        let message = "server is at its connection limit".into();
        let busy_frame = Response::Error { code: ErrorCode::Busy, message }.encode();
        let wheel = shared
            .config
            .idle_timeout
            .map(|t| TimerWheel::new(wheel_granularity(t), WHEEL_SLOTS, Instant::now()));
        Self {
            listener,
            wake_rx,
            reactor,
            shared,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            wheel,
            busy_frame,
        }
    }

    fn run(mut self) {
        if self.listener.set_nonblocking(true).is_err() {
            return;
        }
        if self
            .reactor
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
            .is_err()
        {
            return;
        }
        if self.reactor.register(self.wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READABLE).is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        let mut touched: HashSet<u64> = HashSet::new();
        let mut expired: Vec<(u64, u64)> = Vec::new();
        loop {
            let timeout = self
                .wheel
                .as_ref()
                .and_then(|w| w.next_wake(Instant::now()))
                .map(|at| at.saturating_duration_since(Instant::now()));
            if self.reactor.wait(&mut events, timeout).is_err() {
                // A failing reactor (fd exhaustion at registration
                // time aside, this is EBADF-grade) cannot serve;
                // behave as a shutdown.
                return;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // Dropping the loop drops every connection (clients
                // see EOF) and the reactor.
                return;
            }
            touched.clear();
            for &e in &events {
                match e.token {
                    TOKEN_LISTENER => self.accept_ready(&mut touched),
                    TOKEN_WAKE => {
                        // Read first, then clear: a completion posted
                        // in between finds the flag still set and
                        // writes no byte, but `drain_completions`
                        // below picks it up. Clearing first would let
                        // this read swallow that poster's byte and
                        // leave the flag set over an empty pipe, so
                        // no later post would wake the loop.
                        let mut sink = [0u8; 1024];
                        let _ = (&self.wake_rx).read(&mut sink);
                        self.shared.wake_pending.store(false, Ordering::SeqCst);
                    }
                    token => self.conn_event(token, e, &mut touched),
                }
            }
            self.drain_completions(&mut touched);
            for token in touched.drain() {
                self.maintain(token);
            }
            if let Some(wheel) = &mut self.wheel {
                expired.clear();
                wheel.advance(Instant::now(), &mut expired);
                for &(token, gen_fired) in &expired {
                    self.idle_expired(token, gen_fired);
                }
            }
        }
    }

    /// Accepts until the listener would block; over-limit connections
    /// get one best-effort Busy frame and an immediate close.
    fn accept_ready(&mut self, touched: &mut HashSet<u64>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.shared.config.max_connections {
                        // The frame is ~50 bytes into an empty send
                        // buffer: one nonblocking write delivers it or
                        // nothing will.
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&self.busy_frame);
                        self.shared.rejected_busy.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let Ok(conn) = Conn::new(stream, self.shared.config.max_frame_bytes) else {
                        continue;
                    };
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .reactor
                        .register(conn.stream().as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, ConnState { conn, registered: Interest::READABLE });
                    self.shared.open_conns.fetch_add(1, Ordering::Relaxed);
                    self.schedule_idle(token);
                    touched.insert(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends): skip this one, keep accepting.
                Err(_) => break,
            }
        }
    }

    /// Handles readiness on one connection: pull bytes, decode frames,
    /// dispatch each.
    fn conn_event(&mut self, token: u64, event: Event, touched: &mut HashSet<u64>) {
        let Some(state) = self.conns.get_mut(&token) else { return };
        if event.readable || event.error {
            if state.conn.read_ready().is_err() {
                self.drop_conn(token);
                return;
            }
            loop {
                let decoded = match self.conns.get_mut(&token) {
                    Some(s) => s.conn.decoder.next_frame(),
                    None => return,
                };
                match decoded {
                    Ok(Some(FrameEvent::Frame { kind, body })) => {
                        self.dispatch(token, kind, body);
                    }
                    Ok(Some(FrameEvent::Invalid(e))) => {
                        self.answer_inline(token, ServiceError::from(e));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Fatal framing error: answer, then close once
                        // the answer (and everything before it) is
                        // flushed. The poisoned decoder discards any
                        // trailing bytes.
                        self.answer_inline(token, ServiceError::from(e));
                        if let Some(s) = self.conns.get_mut(&token) {
                            s.conn.read_closed = true;
                        }
                        break;
                    }
                }
            }
        }
        touched.insert(token);
    }

    /// Routes one decoded frame. Metadata and validation errors are
    /// answered inline from [`QueryService::info`], which never blocks
    /// (a living index answers it without its lock); query traffic is
    /// admitted to the batcher; shard-extension traffic and index
    /// mutations run [`off_loop`](Self::off_loop) so a coordinator's
    /// multi-second fan-out (or a write-locked flush/merge) never stalls
    /// the loop.
    fn dispatch(&mut self, token: u64, kind: u8, body: Vec<u8>) {
        if protocol::kind::is_shard_request(kind) {
            return self.off_loop(token, move |service, threads| {
                let request = protocol::decode_shard_request(kind, &body)?;
                Ok(service.shard_batch(&request, threads)?.encode())
            });
        }
        let info = self.shared.service.info();
        // Request-level decode errors consumed the whole body, so the
        // connection stays usable.
        let admitted = match decode_request(kind, &body) {
            Err(e) => Err(e.into()),
            Ok(Request::Info) => return self.answer_inline(token, Response::Info(info)),
            Ok(Request::Rnnr { radius, queries }) => check_radius(radius)
                .map(|()| (JobKind::Rnnr { radius_bits: radius.to_bits() }, queries)),
            // A top-k answer's size is known before any work: a count
            // per query and 12 bytes per neighbour, at most min(k, n).
            Ok(Request::TopK { k, queries }) if info.topk_levels > 0 => {
                let per_query = 4 + 12 * u64::from(k).min(info.points);
                let len = 8 + 4 + (queries.count() as u64).saturating_mul(per_query);
                fits(len, self.shared.config.max_frame_bytes)
                    .map(|()| (JobKind::TopK { k }, queries))
            }
            Ok(Request::TopK { .. }) => Err(ServiceError::no_ladder()),
            // Mutations bypass the admission batcher: they take the
            // index's write lock, so holding them on the loop thread
            // would stall connection I/O for the whole flush/merge.
            Ok(Request::Insert { ids, points }) => {
                return self.off_loop(token, move |service, _| {
                    Ok(Response::Inserted(service.insert_batch(&ids, &points)?).encode())
                });
            }
            Ok(Request::Delete { ids }) => {
                return self.off_loop(token, move |service, _| {
                    Ok(Response::Deleted(service.delete_batch(&ids)?).encode())
                });
            }
        };
        let checked = admitted.and_then(|(job_kind, queries)| {
            check_dim(info.dim, queries.dim, queries.count()).map(|()| (job_kind, queries))
        });
        match checked {
            Err(e) => self.answer_inline(token, e),
            // Nothing to batch; answer the degenerate request inline.
            Ok((JobKind::Rnnr { .. }, queries)) if queries.count() == 0 => {
                self.answer_inline(token, Response::Rnnr(Vec::new()))
            }
            Ok((JobKind::TopK { .. }, queries)) if queries.count() == 0 => {
                self.answer_inline(token, Response::TopK(Vec::new()))
            }
            Ok((job_kind, queries)) => self.admit(token, job_kind, queries.rows()),
        }
    }

    /// Reserves a response slot and fills it from `job`, run on a
    /// detached worker thread; the slot keeps pipelined responses in
    /// request order. A failed job answers with its error frame. If the
    /// OS refuses the thread, the slot gets an [`ErrorCode::Internal`]
    /// frame and the connection — and the loop — live on.
    fn off_loop<J>(&mut self, token: u64, job: J)
    where
        J: FnOnce(&dyn QueryService, Option<usize>) -> Result<Vec<u8>, ServiceError>
            + Send
            + 'static,
    {
        let Some(state) = self.conns.get_mut(&token) else { return };
        let seq = state.conn.slots.alloc();
        let shared = Arc::clone(&self.shared);
        let worker = std::thread::Builder::new().spawn(move || {
            let result = job(&*shared.service, shared.config.batch_threads);
            let frame = result.unwrap_or_else(|e| Response::from(e).encode());
            shared.complete(vec![Completion { conn: token, seq, frame }]);
        });
        if let Err(e) = worker {
            let e = ServiceError::internal(format!("no worker thread for this request: {e}"));
            state.conn.slots.fill(seq, Response::from(e).encode());
        }
    }

    /// Admits one validated request to the batcher queue.
    fn admit(&mut self, token: u64, kind: JobKind, queries: Vec<Vec<f32>>) {
        let Some(state) = self.conns.get_mut(&token) else { return };
        let seq = state.conn.slots.alloc();
        let now = Instant::now();
        self.shared.note_arrival(now);
        let deadline = self.shared.config.request_deadline.map(|d| now + d);
        self.shared.queue.lock().unwrap().push_back(Job {
            queries,
            kind,
            conn: token,
            seq,
            deadline,
        });
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        self.shared.queue_cv.notify_one();
    }

    /// Reserves a slot and fills it immediately with `resp`.
    fn answer_inline(&mut self, token: u64, resp: impl Into<Response>) {
        let Some(state) = self.conns.get_mut(&token) else { return };
        let seq = state.conn.slots.alloc();
        state.conn.slots.fill(seq, resp.into().encode());
    }

    /// Moves finished off-loop responses into their response slots.
    fn drain_completions(&mut self, touched: &mut HashSet<u64>) {
        let batch = std::mem::take(&mut *self.shared.completions.lock().unwrap());
        for c in batch {
            // A completion may outlive its connection (evicted or
            // errored mid-batch); tokens are never reused, so it just
            // falls on the floor.
            if let Some(state) = self.conns.get_mut(&c.conn) {
                state.conn.slots.fill(c.seq, c.frame);
                touched.insert(c.conn);
            }
        }
    }

    /// Post-activity upkeep for one connection: release responses,
    /// flush, fix reactor interest, refresh the idle timer, close when
    /// finished.
    fn maintain(&mut self, token: u64) {
        let Some(state) = self.conns.get_mut(&token) else { return };
        if state.conn.pump_and_flush().is_err() {
            self.drop_conn(token);
            return;
        }
        if state.conn.finished() {
            self.drop_conn(token);
            return;
        }
        let desired = state.conn.desired_interest();
        if desired != state.registered {
            if self.reactor.reregister(state.conn.stream().as_raw_fd(), token, desired).is_err() {
                self.drop_conn(token);
                return;
            }
            if let Some(s) = self.conns.get_mut(&token) {
                s.registered = desired;
            }
        }
        // maintain() only runs after activity on this connection, so
        // refreshing the idle clock here is exactly "progress resets
        // the timer".
        self.schedule_idle(token);
    }

    /// Bumps the connection's timer generation and schedules a fresh
    /// idle deadline (the stale entry cancels lazily).
    fn schedule_idle(&mut self, token: u64) {
        let Some(idle) = self.shared.config.idle_timeout else { return };
        let Some(wheel) = &mut self.wheel else { return };
        let Some(state) = self.conns.get_mut(&token) else { return };
        state.conn.timer_gen += 1;
        wheel.schedule(token, state.conn.timer_gen, Instant::now() + idle);
    }

    /// An idle timer fired: evict if the connection is genuinely
    /// stalled, reschedule if work is still executing on its behalf.
    fn idle_expired(&mut self, token: u64, gen_fired: u64) {
        let Some(state) = self.conns.get(&token) else { return };
        if state.conn.timer_gen != gen_fired {
            return; // stale entry, lazily cancelled
        }
        if state.conn.evictable_when_idle() {
            self.shared.evicted_idle.fetch_add(1, Ordering::Relaxed);
            self.drop_conn(token);
        } else {
            // The batcher or a shard worker is still computing this
            // connection's answer: that is not idleness. Give it a
            // fresh window.
            self.schedule_idle(token);
        }
    }

    /// Deregisters and closes one connection.
    fn drop_conn(&mut self, token: u64) {
        if let Some(state) = self.conns.remove(&token) {
            let _ = self.reactor.deregister(state.conn.stream().as_raw_fd());
            self.shared.open_conns.fetch_sub(1, Ordering::Relaxed);
            // Dropping the state drops the stream, sending FIN (or RST
            // if the peer keeps writing).
        }
    }
}

/// The admission batcher: one iteration = wait for work, linger one
/// admission window, drain the whole queue, expire overdue deadlines,
/// execute one batch call per `(kind, radius | k)` group, post the
/// completions and wake the loop.
fn batch_loop(shared: Arc<Shared>) {
    loop {
        let mut q = shared.queue.lock().unwrap();
        while q.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
            let (guard, _) = shared.queue_cv.wait_timeout(q, Duration::from_millis(50)).unwrap();
            q = guard;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Unanswered jobs die with their connections: the event
            // loop is tearing every socket down right now.
            q.clear();
            return;
        }
        drop(q);
        // Admission window: let concurrent requests join this tick.
        let window = shared.current_window();
        if !window.is_zero() {
            std::thread::sleep(window);
        }
        let jobs: Vec<Job> = shared.queue.lock().unwrap().drain(..).collect();
        let mut completions = Vec::with_capacity(jobs.len());

        // Deadline pass: anything already overdue gets a typed error
        // instead of a seat in the batch (its connection lives on).
        let now = Instant::now();
        let (live, dead): (Vec<Job>, Vec<Job>) =
            jobs.into_iter().partition(|j| j.deadline.is_none_or(|d| now < d));
        if !dead.is_empty() {
            shared.expired_deadlines.fetch_add(dead.len() as u64, Ordering::Relaxed);
            let message = "request deadline expired before execution".into();
            let frame = Response::Error { code: ErrorCode::Deadline, message }.encode();
            answer_all(dead, &frame, &mut completions);
        }
        run_tick(live, &shared, &mut completions);
        shared.complete(completions);
    }
}

/// Groups drained jobs by kind key (preserving admission order within
/// a group), runs one batch call per group and splits results back.
fn run_tick(mut jobs: Vec<Job>, shared: &Shared, completions: &mut Vec<Completion>) {
    while !jobs.is_empty() {
        let key = jobs[0].kind;
        let (group, rest): (Vec<Job>, Vec<Job>) = jobs.into_iter().partition(|j| j.kind == key);
        jobs = rest;
        shared.ticks.fetch_add(1, Ordering::Relaxed);

        // Move the queries out of the owned jobs — no per-tick copy of
        // the (potentially many-MiB) query data on the hot path.
        let mut group = group;
        let mut counts = Vec::with_capacity(group.len());
        let mut combined: Vec<Vec<f32>> = Vec::new();
        for j in &mut group {
            counts.push(j.queries.len());
            combined.append(&mut j.queries);
        }
        let threads = shared.config.batch_threads;
        match key {
            JobKind::Rnnr { radius_bits } => {
                let all =
                    shared.service.rnnr_batch(&combined, f64::from_bits(radius_bits), threads);
                scatter(group, counts, all, Response::Rnnr, completions);
            }
            JobKind::TopK { k } => {
                let all = shared.service.topk_batch(&combined, k as usize, threads);
                scatter(group, counts, all, Response::TopK, completions);
            }
        }
    }
}

/// Refuses an answer whose `len` (the bytes after the length prefix)
/// the peer's frame limit would reject.
fn fits(len: u64, max_frame_bytes: usize) -> Result<(), ServiceError> {
    if len <= max_frame_bytes as u64 {
        return Ok(());
    }
    let message =
        format!("an answer of {len} bytes exceeds the {max_frame_bytes}-byte frame limit");
    Err(ServiceError { code: ErrorCode::TooLarge, message })
}

/// Answers every job with the same frame.
fn answer_all(jobs: Vec<Job>, frame: &[u8], completions: &mut Vec<Completion>) {
    let answers =
        jobs.into_iter().map(|j| Completion { conn: j.conn, seq: j.seq, frame: frame.into() });
    completions.extend(answers);
}

/// Splits one combined batch result back into per-job completions. A
/// failed batch answers every job with its typed error frame (e.g. a
/// coordinator whose shard backend went down mid-batch).
fn scatter<T>(
    group: Vec<Job>,
    counts: Vec<usize>,
    all: Result<Vec<T>, ServiceError>,
    wrap: impl Fn(Vec<T>) -> Response,
    completions: &mut Vec<Completion>,
) {
    let mut all = match all {
        Ok(all) => all,
        Err(e) => return answer_all(group, &Response::from(e).encode(), completions),
    };
    debug_assert_eq!(all.len(), counts.iter().sum::<usize>());
    for (job, count) in group.into_iter().zip(counts).rev() {
        let part = all.split_off(all.len().saturating_sub(count));
        completions.push(Completion { conn: job.conn, seq: job.seq, frame: wrap(part).encode() });
    }
}
