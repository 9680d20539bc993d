//! Multi-threaded TCP detection server.
//!
//! Architecture (std-only — no async runtime, no epoll crate):
//!
//! ```text
//!  accept thread ──▶ shed? ──Error{overloaded} (best-effort, nonblocking)
//!        │ round-robin, rings the worker's inbox bell
//!        ▼
//!  worker 0..N-1  (N = ServeConfig::workers, default hmd_ml::par
//!        │         conventions: TWOSMART_THREADS / available cores)
//!        ▼
//!  each worker owns a set of non-blocking connections and services the
//!  ones that are *due* per the readiness pacer (crate::ready): active
//!  connections every pass, idle ones at exponentially decaying probe
//!  intervals. Between passes the worker parks on a condvar until the
//!  next deadline or a new connection arrives.
//! ```
//!
//! Connections are long-lived, so a *fixed* pool must multiplex: each
//! worker pumps the connections it owns instead of parking on one socket.
//!
//! The in-flight budget is explicit — when
//! [`ServeConfig::max_connections`] is reached, new connections get one
//! best-effort `Error{overloaded}` frame and are closed (load shedding),
//! never queued unboundedly. Per-connection backpressure is two-sided
//! ([`ServeConfig::limits`]): [`ServiceLimits::max_outbuf`] stops *reads*
//! while a peer is slow to drain replies, and
//! [`ServiceLimits::max_inbuf`] bounds the undecoded inbound buffer.
//!
//! Protocol negotiation: connections start in v1 JSON; a client that
//! sends `Hello{version: 2}` is switched to the packed binary format
//! ([`crate::wire2`]) after the (still-JSON) acknowledgement. Submits on
//! v2 connections decode straight into per-connection scratch without
//! constructing a [`Frame`].
//!
//! Graceful shutdown: [`ServerHandle::shutdown`] stops the accept loop,
//! rings every inbox bell, lets every worker finish the frames already
//! buffered on its connections (draining open sessions), flushes replies,
//! then closes.

use crate::metrics::Metrics;
use crate::protocol::{encode, ErrorCode, Frame};
use crate::ready::{ConnSched, Pacer};
use crate::service::{pump, Conn, Service, ServiceLimits};
use crate::session::{SessionConfig, SessionEngine};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use twosmart::detector::TwoSmartDetector;
use twosmart::online::OnlineError;

/// Probe interval for an active connection.
const IDLE_BASE: Duration = Duration::from_micros(200);
/// Probe ceiling for a long-idle connection: its worst-case added first-
/// byte latency, and the bound on per-idle-connection CPU (one
/// nonblocking read per this interval).
const IDLE_CAP: Duration = Duration::from_millis(100);
/// Longest a worker parks without rechecking the stop flag.
const PARK_MAX: Duration = Duration::from_millis(100);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port (the bound
    /// address is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker pool size. `0` means "follow the `hmd_ml::par` conventions"
    /// (`TWOSMART_THREADS`, else available parallelism).
    pub workers: usize,
    /// In-flight connection budget; accepts beyond it are shed with
    /// `Error{overloaded}`.
    pub max_connections: usize,
    /// Per-connection backpressure budgets and the idle-session sweep
    /// cadence.
    pub limits: ServiceLimits,
    /// Per-host session behaviour.
    pub session: SessionConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_connections: 1024,
            limits: ServiceLimits::default(),
            session: SessionConfig::default(),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the listen address.
    Bind(String),
    /// The detector cannot serve (not 4-HPC deployable, zero window/votes).
    Online(OnlineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "cannot bind: {e}"),
            ServeError::Online(e) => write!(f, "detector not servable: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<OnlineError> for ServeError {
    fn from(e: OnlineError) -> ServeError {
        ServeError::Online(e)
    }
}

/// One live connection owned by a worker: the transport-generic
/// [`Conn`] (protocol state, buffers) plus this server's readiness
/// schedule — pacing is a TCP concern, so it stays out of the service
/// core.
struct WorkerConn {
    conn: Conn<TcpStream>,
    /// Readiness schedule (when this connection is next probed).
    sched: ConnSched,
}

/// Connection handoff from the accept thread to one worker: a queue plus
/// the bell the worker parks on.
struct Inbox {
    queue: Mutex<Vec<TcpStream>>,
    bell: Condvar,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            queue: Mutex::new(Vec::new()),
            bell: Condvar::new(),
        }
    }

    /// Locks the queue, recovering from poisoning: the handoff Vec is
    /// valid after any panic (push/drain keep it consistent), and
    /// dropping connections instead would strand clients.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rings the bell while briefly holding the queue lock, so a worker
    /// between its stop-check and its park cannot miss the wakeup.
    fn ring(&self) {
        let _guard = self.lock();
        self.bell.notify_all();
    }
}

struct Shared {
    service: Service,
    stop: AtomicBool,
    conns: AtomicUsize,
    inboxes: Vec<Arc<Inbox>>,
    config: ServeConfig,
}

/// Handle to a running server; dropping it does *not* stop the service —
/// call [`shutdown`](Self::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live service metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.service.metrics)
    }

    /// Live host-session count.
    pub fn sessions(&self) -> usize {
        self.shared.service.engine.sessions()
    }

    /// Signals shutdown, drains buffered frames on open connections,
    /// flushes replies, and joins all threads.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Nudge the accept loop in case it is between polls, and wake
        // every parked worker.
        let _ = TcpStream::connect(self.addr);
        for inbox in &self.shared.inboxes {
            inbox.ring();
        }
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (it only stops via a concurrent
    /// `shutdown`, so this is for binaries that serve until killed).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts serving `detector` per `config`. Returns once the listener is
/// bound and all threads are running.
///
/// # Errors
///
/// [`ServeError::Bind`] if the address cannot be bound,
/// [`ServeError::Online`] if the detector is not deployable.
pub fn serve(detector: TwoSmartDetector, config: ServeConfig) -> Result<ServerHandle, ServeError> {
    let metrics = Arc::new(Metrics::new());
    let engine = SessionEngine::new(detector, &config.session, Arc::clone(&metrics))?;
    let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind(e.to_string()))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServeError::Bind(e.to_string()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Bind(e.to_string()))?;

    let workers = if config.workers == 0 {
        hmd_ml::par::thread_count()
    } else {
        config.workers
    };
    let inboxes: Vec<Arc<Inbox>> = (0..workers).map(|_| Arc::new(Inbox::new())).collect();
    let shared = Arc::new(Shared {
        service: Service::new(engine, metrics, config.limits.clone()),
        stop: AtomicBool::new(false),
        conns: AtomicUsize::new(0),
        inboxes,
        config,
    });

    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let worker_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            let inbox = Arc::clone(&worker_shared.inboxes[i]);
            worker_loop(&worker_shared, &inbox);
        }));
    }
    {
        let accept_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &accept_shared);
        }));
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next = 0usize;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let metrics = &shared.service.metrics;
                metrics.bump(&metrics.connections);
                if shared.conns.load(Ordering::SeqCst) >= shared.config.max_connections {
                    shed(stream, shared);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    // The peer is gone (or the fd is broken); count the
                    // drop instead of vanishing it.
                    metrics.bump(&metrics.accept_errors);
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let inbox = &shared.inboxes[next % shared.inboxes.len()];
                inbox.lock().push(stream);
                inbox.bell.notify_one();
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Refuses a connection over budget: one explicit `Error{overloaded}`
/// frame, then close — the client learns why instead of hanging in an
/// unbounded queue.
///
/// The write is best-effort and *nonblocking*: this runs on the sole
/// accept thread, and a shed peer that never reads must not stall every
/// subsequent accept — during an overload burst, exactly when shedding
/// matters most. A fresh connection's socket buffer always has room for
/// the ~100-byte frame, so the reply is only lost if the peer is already
/// gone.
fn shed(stream: TcpStream, shared: &Shared) {
    let metrics = &shared.service.metrics;
    metrics.bump(&metrics.shed);
    let mut stream = stream;
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.write(&encode(&Frame::Error {
        code: ErrorCode::Overloaded,
        detail: format!(
            "connection budget {} exhausted",
            shared.config.max_connections
        ),
    }));
}

fn worker_loop(shared: &Shared, inbox: &Inbox) {
    let pacer = Pacer::new(IDLE_BASE, IDLE_CAP);
    let mut conns: Vec<WorkerConn> = Vec::new();
    let mut read_chunk = [0u8; 16 * 1024];
    let mut stop_passes = 0u32;
    loop {
        let mut stopping = shared.stop.load(Ordering::SeqCst);
        {
            let mut incoming = inbox.lock();
            if !stopping && incoming.is_empty() {
                // Park until a connection is due, a new one arrives, or
                // the stop-recheck interval elapses. The bell is rung
                // under this lock, so the wakeup cannot slip between the
                // stop-check above and the wait below.
                let now = Instant::now();
                let none_due = !conns.iter().any(|c| pacer.is_due(&c.sched, now));
                if none_due {
                    let timeout = pacer
                        .next_deadline(conns.iter().map(|c| &c.sched))
                        .map(|due| due.saturating_duration_since(now))
                        .unwrap_or(PARK_MAX)
                        .min(PARK_MAX);
                    incoming = match inbox.bell.wait_timeout(incoming, timeout) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                    stopping = shared.stop.load(Ordering::SeqCst);
                }
            }
            let now = Instant::now();
            conns.extend(incoming.drain(..).map(|stream| WorkerConn {
                conn: Conn::new(stream),
                sched: pacer.register(now),
            }));
        }
        let now = Instant::now();
        let mut progress = false;
        for wc in &mut conns {
            if !stopping && !pacer.is_due(&wc.sched, now) {
                continue;
            }
            let moved = pump(&mut wc.conn, &shared.service, &mut read_chunk, stopping);
            progress |= moved;
            if moved {
                pacer.mark_progress(&mut wc.sched, now);
            } else {
                pacer.mark_idle(&mut wc.sched, now);
            }
        }
        let before = conns.len();
        conns.retain(|c| !c.conn.is_dead());
        if conns.len() != before {
            shared
                .conns
                .fetch_sub(before - conns.len(), Ordering::SeqCst);
        }
        if stopping {
            // Drain complete: every surviving connection has flushed its
            // backlog and seen its buffered frames handled. A peer that
            // stops reading cannot hold the drain hostage: give up after
            // a bounded number of passes.
            stop_passes += 1;
            let drained = conns.iter().all(|c| c.conn.backlog() == 0);
            if drained || stop_passes > 5_000 {
                shared.conns.fetch_sub(conns.len(), Ordering::SeqCst);
                return;
            }
        }
        if !progress && stopping {
            // The drain loop sleeps briefly instead of parking: it runs
            // every connection every pass until the backlogs flush.
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}
