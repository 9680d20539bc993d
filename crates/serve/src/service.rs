//! Transport-independent protocol service core.
//!
//! Everything the server does *per connection* — buffer bytes, decode
//! frames (both wire versions), negotiate v2, feed submits to the
//! [`SessionEngine`], queue replies, enforce two-sided backpressure —
//! lives here, generic over any `Read + Write` stream. The TCP server
//! ([`crate::server`]) drives it over real sockets; the virtual-time
//! simulation (`hmd-sim`) drives the *same* code over in-memory pipes, so
//! a bug found at a simulated million hosts is a bug in the production
//! decode path, not in a parallel reimplementation.
//!
//! The split is: this module owns *what happens to a connection when it is
//! serviced*; the caller owns *when* (readiness pacing, worker threads,
//! virtual ticks) and *over what* (sockets, pipes).

use crate::metrics::Metrics;
use crate::protocol::{
    encode_frame_into, ErrorCode, Frame, FrameBuffer, WireError, WireFormat, PROTOCOL_VERSION,
    PROTOCOL_VERSION_V2,
};
use crate::session::{SessionEngine, SubmitBatch, SubmitError};
use crate::wire2;
use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

/// Per-connection budgets and sweep cadence — the knobs [`pump`] consults,
/// split out of the TCP `ServeConfig` so transports that have no listen
/// address or worker pool can still configure the service core.
#[derive(Debug, Clone)]
pub struct ServiceLimits {
    /// Cap on bytes queued for one connection before the service stops
    /// reading from it until the backlog flushes (write-side
    /// backpressure).
    pub max_outbuf: usize,
    /// Cap on undecoded inbound bytes buffered for one connection before
    /// the service stops reading until the decoder catches up (read-side
    /// backpressure). Distinct from `max_outbuf`: a pipelining client can
    /// legitimately burst frames while replies drain slowly, and the two
    /// directions deserve independent budgets.
    pub max_inbuf: usize,
    /// Run the idle-session sweep every this many engine ticks. `0`
    /// disables periodic sweeps (the simulation sweeps on its own
    /// virtual-time schedule instead).
    pub evict_every: u64,
}

impl Default for ServiceLimits {
    fn default() -> ServiceLimits {
        ServiceLimits {
            max_outbuf: 1 << 20,
            max_inbuf: 256 << 10,
            evict_every: 1 << 16,
        }
    }
}

/// The shared protocol service: one session engine plus the metrics and
/// limits every connection pump consults. One instance serves all
/// connections of a server (or a simulation).
pub struct Service {
    /// Per-host detection sessions.
    pub engine: SessionEngine,
    /// Shared observability counters.
    pub metrics: Arc<Metrics>,
    /// Backpressure budgets and sweep cadence.
    pub limits: ServiceLimits,
}

impl Service {
    /// Bundles an engine with its metrics and limits.
    pub fn new(engine: SessionEngine, metrics: Arc<Metrics>, limits: ServiceLimits) -> Service {
        Service {
            engine,
            metrics,
            limits,
        }
    }
}

/// One live connection: undecoded inbound bytes, queued outbound bytes,
/// reusable scratch, and lifecycle flags. Generic over the byte transport
/// so the same state machine runs on a `TcpStream` or an in-memory pipe.
pub struct Conn<T> {
    stream: T,
    inbuf: FrameBuffer,
    outbuf: Vec<u8>,
    /// Reused JSON serialization scratch for v1 replies; v2 replies pack
    /// straight into `outbuf`.
    json_scratch: String,
    /// Reused counter scratch for the v2 Submit fast path.
    counters: Vec<f64>,
    /// Submissions queued during one decode pass, drained through the
    /// engine's batched cascade at the next non-Submit step (or at the end
    /// of the pass). Buffers are reused across passes.
    batch: SubmitBatch,
    /// Reused buffer for eviction sweeps triggered by this connection's
    /// bursts, so the sweep allocates nothing on the hot path.
    evict_scratch: Vec<u64>,
    written: usize,
    /// Close after the outbuf flushes (oversized frame / fatal error).
    close_after_flush: bool,
    dead: bool,
}

impl<T> Conn<T> {
    /// Wraps a transport in fresh connection state (v1 JSON until the
    /// peer negotiates otherwise).
    pub fn new(stream: T) -> Conn<T> {
        Conn {
            stream,
            inbuf: FrameBuffer::new(),
            outbuf: Vec::new(),
            json_scratch: String::new(),
            counters: Vec::new(),
            batch: SubmitBatch::new(),
            evict_scratch: Vec::new(),
            written: 0,
            close_after_flush: false,
            dead: false,
        }
    }

    // hmd-analyze: hot-path
    fn queue(&mut self, frame: &Frame, metrics: &Metrics) {
        encode_frame_into(
            self.inbuf.format(),
            frame,
            &mut self.json_scratch,
            &mut self.outbuf,
        );
        metrics.bump(&metrics.frames_out);
    }

    /// Bytes queued for the peer but not yet written.
    pub fn backlog(&self) -> usize {
        self.outbuf.len() - self.written
    }

    /// Whether the connection has been closed (peer gone, fatal error
    /// flushed). Dead connections are dropped by the caller.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The wire format this connection currently speaks.
    pub fn format(&self) -> WireFormat {
        self.inbuf.format()
    }
}

/// One decoded step off a connection's input buffer. For v2 Submits the
/// counters land in `Conn::counters` (no `Frame` is built); everything
/// else arrives as a full frame.
enum Step {
    /// Need more bytes.
    Idle,
    /// A complete non-fast-path frame.
    Frame(Frame),
    /// A v2 Submit decoded into the connection's counter scratch.
    Submit { host_id: u64, seq: u64 },
    /// Recoverable decode failure (stream stays framed).
    Malformed(String),
    /// Framing-fatal failure (connection must close after one error).
    Fatal(String),
}

/// Pulls the next decode step. Split-borrows `inbuf` and `counters` so
/// the v2 fast path can decode a payload slice straight into scratch.
// hmd-analyze: hot-path
// hmd-analyze: allow(transitive-hot-path-alloc, "v1 frames and non-Submit v2 payloads are owned buffers by protocol design; the v2 Submit fast path decodes into counter scratch without allocating")
fn next_step<T>(conn: &mut Conn<T>) -> Step {
    let format = conn.inbuf.format();
    let Conn {
        inbuf, counters, ..
    } = conn;
    match format {
        WireFormat::V1Json => match inbuf.next_frame() {
            Ok(Some(frame)) => Step::Frame(frame),
            Ok(None) => Step::Idle,
            Err(WireError::Malformed(detail)) => Step::Malformed(detail),
            // hmd-analyze: allow(hot-path-alloc, "framing-fatal rejection path; the connection closes after this")
            Err(err) => Step::Fatal(err.to_string()),
        },
        WireFormat::V2Binary => match inbuf.next_payload() {
            Ok(Some(payload)) => {
                if wire2::is_submit(payload) {
                    if let Some((host_id, seq)) = wire2::decode_submit_into(payload, counters) {
                        return Step::Submit { host_id, seq };
                    }
                }
                // Non-Submit tags and malformed Submits take the generic
                // (allocating) decoder for the canonical error text.
                match wire2::decode_payload(payload) {
                    Ok(frame) => Step::Frame(frame),
                    Err(WireError::Malformed(detail)) => Step::Malformed(detail),
                    // hmd-analyze: allow(hot-path-alloc, "framing-fatal rejection path; the connection closes after this")
                    Err(err) => Step::Fatal(err.to_string()),
                }
            }
            Ok(None) => Step::Idle,
            Err(WireError::Malformed(detail)) => Step::Malformed(detail),
            // hmd-analyze: allow(hot-path-alloc, "framing-fatal rejection path; the connection closes after this")
            Err(err) => Step::Fatal(err.to_string()),
        },
    }
}

/// One service pass over a connection: read what the transport has, decode
/// and handle complete frames, flush queued replies. Returns whether any
/// byte moved (the caller's progress signal).
///
/// Transport contract: `read`/`write` may return `WouldBlock` (nothing to
/// move right now), `Interrupted` (retry), `Ok(0)` on read for
/// peer-closed; any other error kills the connection.
pub fn pump<T: Read + Write>(
    conn: &mut Conn<T>,
    service: &Service,
    chunk: &mut [u8],
    stopping: bool,
) -> bool {
    let mut progress = false;

    // Read — unless the connection is closing or either backpressure cap
    // is in force.
    if !conn.close_after_flush
        && conn.backlog() < service.limits.max_outbuf
        && conn.inbuf.pending() < service.limits.max_inbuf
    {
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.dead = true;
                    return true;
                }
                Ok(n) => {
                    progress = true;
                    conn.inbuf.extend(&chunk[..n]);
                    if conn.inbuf.pending() >= service.limits.max_inbuf {
                        break; // decode before buffering more
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }
    }

    // Decode and handle — fully skipped once the connection is closing:
    // the fatal error frame was queued exactly once, and re-decoding the
    // unconsumed buffer would re-queue it every pass, growing `outbuf`
    // without bound against a slow-reading peer.
    //
    // Submits accumulate in `conn.batch` and drain through the engine's
    // batched cascade at the first non-Submit step (replies must stay in
    // arrival order, so a Drain or error cannot overtake queued verdicts)
    // and at the end of the pass. A pipelining v2 client therefore gets
    // one SoA cascade per burst instead of one scalar cascade per frame.
    while !conn.close_after_flush {
        match next_step(conn) {
            Step::Idle => break,
            Step::Frame(frame) => {
                progress = true;
                service.metrics.bump(&service.metrics.frames_in);
                if let Frame::Submit {
                    host_id,
                    seq,
                    counters,
                } = frame
                {
                    if stopping {
                        queue_shutting_down(conn, service, host_id, seq);
                    } else {
                        conn.batch.push(host_id, seq, &counters);
                    }
                } else {
                    flush_batch(conn, service);
                    handle_frame(conn, service, frame, stopping);
                }
            }
            Step::Submit { host_id, seq } => {
                progress = true;
                service.metrics.bump(&service.metrics.frames_in);
                if stopping {
                    queue_shutting_down(conn, service, host_id, seq);
                } else {
                    conn.batch.push(host_id, seq, &conn.counters);
                }
            }
            Step::Malformed(detail) => {
                progress = true;
                flush_batch(conn, service);
                service.metrics.bump(&service.metrics.malformed);
                conn.queue(
                    &Frame::Error {
                        code: ErrorCode::Malformed,
                        detail,
                    },
                    &service.metrics,
                );
            }
            Step::Fatal(detail) => {
                // Oversized (or any framing-fatal) error: apologize once,
                // flush, close. The stream can no longer be
                // re-synchronized.
                progress = true;
                flush_batch(conn, service);
                service.metrics.bump(&service.metrics.malformed);
                conn.queue(
                    &Frame::Error {
                        code: ErrorCode::Oversized,
                        detail,
                    },
                    &service.metrics,
                );
                conn.close_after_flush = true;
            }
        }
    }
    flush_batch(conn, service);

    // Flush.
    while conn.backlog() > 0 {
        match conn.stream.write(&conn.outbuf[conn.written..]) {
            Ok(0) => {
                conn.dead = true;
                return true;
            }
            Ok(n) => {
                progress = true;
                conn.written += n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }
    if conn.backlog() == 0 {
        conn.outbuf.clear();
        conn.written = 0;
        if conn.close_after_flush {
            conn.dead = true;
        }
    }
    progress
}

/// Rejects one `Submit` during shutdown with a per-item error frame.
fn queue_shutting_down<T>(conn: &mut Conn<T>, service: &Service, host_id: u64, seq: u64) {
    conn.queue(
        &Frame::Error {
            code: ErrorCode::ShuttingDown,
            detail: format!("host {host_id} seq {seq}: service is draining"),
        },
        &service.metrics,
    );
}

/// Drains the connection's queued submissions through the engine's batched
/// cascade and queues one reply per item, in submission order — the
/// per-burst hot path.
// hmd-analyze: hot-path
fn flush_batch<T>(conn: &mut Conn<T>, service: &Service) {
    if conn.batch.is_empty() {
        return;
    }
    let metrics = &service.metrics;
    // Take the batch out so replies can queue while its results borrow it;
    // an empty `SubmitBatch` holds no heap, so the swap allocates nothing.
    let mut batch = std::mem::take(&mut conn.batch);
    let ticks_before = service.engine.ticks();
    service.engine.submit_batch(&mut batch);
    for ((host_id, seq), result) in batch.results() {
        match result {
            Ok(verdict) => {
                metrics.bump(&metrics.submits);
                metrics.record_verdict(verdict);
                conn.queue(
                    &Frame::Verdict {
                        host_id,
                        seq,
                        verdict: *verdict,
                    },
                    metrics,
                );
            }
            Err(e) => {
                let code = match e {
                    SubmitError::BadLength { .. } => ErrorCode::BadLength,
                    SubmitError::OutOfOrder { .. } => ErrorCode::OutOfOrder,
                    SubmitError::BadValue { .. } => ErrorCode::BadValue,
                };
                conn.queue(
                    &Frame::Error {
                        code,
                        // hmd-analyze: allow(hot-path-alloc, "rejection detail, not the steady-state path")
                        detail: format!("host {host_id} seq {seq}: {e}"),
                    },
                    metrics,
                );
            }
        }
    }
    // Eviction cadence: a batch sweeps once when it carries the engine
    // clock across a multiple of `evict_every`.
    let every = service.limits.evict_every;
    if every > 0 && service.engine.ticks() / every > ticks_before / every {
        let now = service.engine.ticks();
        service
            .engine
            .evict_idle_at_into(now, &mut conn.evict_scratch);
    }
    batch.clear();
    conn.batch = batch;
}

fn handle_frame<T>(conn: &mut Conn<T>, service: &Service, frame: Frame, stopping: bool) {
    let metrics = &service.metrics;
    match frame {
        Frame::Hello { version } => match version {
            PROTOCOL_VERSION => {
                conn.queue(
                    &Frame::Hello {
                        version: PROTOCOL_VERSION,
                    },
                    metrics,
                );
            }
            PROTOCOL_VERSION_V2 => {
                // Acknowledge in the *current* format (JSON on first
                // negotiation, so a v1-decoding client can read it), then
                // switch both directions to binary.
                conn.queue(
                    &Frame::Hello {
                        version: PROTOCOL_VERSION_V2,
                    },
                    metrics,
                );
                conn.inbuf.set_format(WireFormat::V2Binary);
            }
            _ => {
                conn.queue(
                    &Frame::Error {
                        code: ErrorCode::UnsupportedVersion,
                        detail: format!(
                            "server speaks v{PROTOCOL_VERSION} and v{PROTOCOL_VERSION_V2}, \
                             client sent v{version}"
                        ),
                    },
                    metrics,
                );
            }
        },
        Frame::Submit {
            host_id,
            seq,
            counters,
        } => {
            // [`pump`] intercepts Submit frames before they reach here; a
            // direct caller still gets the same semantics via a
            // single-item batch.
            if stopping {
                queue_shutting_down(conn, service, host_id, seq);
            } else {
                conn.batch.push(host_id, seq, &counters);
                flush_batch(conn, service);
            }
        }
        Frame::Drain { .. } => {
            conn.queue(
                &Frame::Drain {
                    stats: Some(metrics.snapshot()),
                },
                metrics,
            );
        }
        Frame::Verdict { .. } | Frame::Error { .. } => {
            conn.queue(
                &Frame::Error {
                    code: ErrorCode::Unexpected,
                    detail: "server does not accept Verdict/Error frames".into(),
                },
                metrics,
            );
        }
    }
}
