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
    self, encode_frame_into, ErrorCode, Frame, FrameBuffer, WireError, WireFormat,
    PROTOCOL_VERSION, PROTOCOL_VERSION_V2,
};
use crate::session::{SessionEngine, SubmitBatch, SubmitError};
use crate::wire2;
use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

/// Per-connection budgets and sweep cadence — the knobs [`pump`] consults.
/// The TCP server takes them in `ServeConfig::limits`; transports that
/// have no listen address or worker pool (the simulation, in-memory
/// pipes) pass them to [`Service::new`] directly.
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

/// Upper bound on one framed reply to a `Submit`, in either wire format:
/// the longest v1 `Verdict` (`u64::MAX` ids, a subnormal confidence's
/// 326-character `Display`) is under 470 bytes and a per-item `Error` far
/// less. [`pump`] counts each batched `Submit` at this size against
/// `max_outbuf` before its reply exists.
const MAX_SUBMIT_REPLY: usize = 512;

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
    /// Reused JSON serialization scratch for v1 `Hello` and `Drain`
    /// replies; every other reply is written straight into `outbuf`.
    json_scratch: String,
    /// Reused counter scratch for both formats' Submit fast paths.
    counters: Vec<f64>,
    /// Submissions queued during one decode pass, drained through the
    /// engine at the next non-Submit step (or at the end of the pass).
    /// Buffers are reused across passes.
    batch: SubmitBatch,
    /// Reused buffer for eviction sweeps triggered by this connection's
    /// bursts, so the sweep allocates nothing on the hot path.
    evict_scratch: Vec<u64>,
    written: usize,
    /// Close after the outbuf flushes (oversized frame / fatal error).
    close_after_flush: bool,
    /// The peer shut down its write half (`read` returned `Ok(0)`): read
    /// no more, answer the whole frames already buffered, then close.
    peer_closed: bool,
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
            peer_closed: false,
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

    /// Whether the connection has been closed: a fatal error flushed, the
    /// peer hung up and every whole frame it sent was answered and
    /// flushed, or the transport failed. Dead connections are dropped by
    /// the caller.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The wire format this connection currently speaks.
    pub fn format(&self) -> WireFormat {
        self.inbuf.format()
    }
}

/// One decoded step off a connection's input buffer. For Submits in
/// either wire format the counters land in `Conn::counters` (no `Frame`
/// is built); everything else arrives as a full frame.
enum Step {
    /// Need more bytes.
    Idle,
    /// A complete non-fast-path frame.
    Frame(Frame),
    /// A Submit decoded into the connection's counter scratch.
    Submit { host_id: u64, seq: u64 },
    /// Recoverable decode failure (stream stays framed).
    Malformed(String),
    /// Framing-fatal failure (connection must close after one error).
    Fatal(String),
}

/// Pulls the next decode step. Split-borrows `inbuf` and `counters` so
/// the Submit fast paths can decode a payload slice straight into scratch.
// hmd-analyze: hot-path
// hmd-analyze: allow(transitive-hot-path-alloc, "non-Submit frames and non-canonical v1 Submits are owned buffers by protocol design; both formats' Submit fast paths decode into counter scratch without allocating")
fn next_step<T>(conn: &mut Conn<T>) -> Step {
    let Conn {
        inbuf, counters, ..
    } = conn;
    let format = inbuf.format();
    let payload = match inbuf.next_payload() {
        Ok(Some(payload)) => payload,
        Ok(None) => return Step::Idle,
        Err(WireError::Malformed(detail)) => return Step::Malformed(detail),
        // hmd-analyze: allow(hot-path-alloc, "framing-fatal rejection path; the connection closes after this")
        Err(err) => return Step::Fatal(err.to_string()),
    };
    let submit = match format {
        WireFormat::V1Json => protocol::decode_submit_into(payload, counters),
        WireFormat::V2Binary => wire2::decode_submit_into(payload, counters),
    };
    if let Some((host_id, seq)) = submit {
        return Step::Submit { host_id, seq };
    }
    // Other frames, malformed Submits and (v1) Submits not in canonical
    // form take the generic (allocating) decoder, which also words the
    // errors.
    let frame = match format {
        WireFormat::V1Json => protocol::decode_payload(payload),
        WireFormat::V2Binary => wire2::decode_payload(payload),
    };
    match frame {
        Ok(frame) => Step::Frame(frame),
        Err(WireError::Malformed(detail)) => Step::Malformed(detail),
        // hmd-analyze: allow(hot-path-alloc, "framing-fatal rejection path; the connection closes after this")
        Err(err) => Step::Fatal(err.to_string()),
    }
}

/// One service pass over a connection: read what the transport has, decode
/// and handle complete frames, flush queued replies. Returns whether any
/// byte moved (the caller's progress signal).
///
/// Transport contract: `read`/`write` may return `WouldBlock` (nothing to
/// move right now), `Interrupted` (retry), `Ok(0)` on read for
/// peer-closed; any other error kills the connection. A peer that closes
/// only its write half (TCP half-close) still gets a reply to every whole
/// frame it sent: the connection reads no more, answers what is
/// buffered, and dies once those replies are flushed. A truncated frame
/// left in the buffer is dropped silently. The hang-up itself moves no
/// byte, so a half-closed peer that never reads its replies reports no
/// progress and backs off like any idle connection.
pub fn pump<T: Read + Write>(
    conn: &mut Conn<T>,
    service: &Service,
    chunk: &mut [u8],
    stopping: bool,
) -> bool {
    let mut progress = false;

    // Read — unless the connection is closing or either backpressure cap
    // is in force. The inbound cap stretches to the next frame's length
    // when that is larger, so a frame above `max_inbuf` still arrives
    // instead of stalling the connection.
    let inbuf_full =
        |conn: &Conn<T>| conn.inbuf.pending() >= service.limits.max_inbuf.max(conn.inbuf.needed());
    if !conn.close_after_flush
        && !conn.peer_closed
        && conn.backlog() < service.limits.max_outbuf
        && !inbuf_full(conn)
    {
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    conn.inbuf.extend(&chunk[..n]);
                    if inbuf_full(conn) {
                        break; // decode before buffering more
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return progress;
                }
            }
        }
    }

    // Decode and handle — fully skipped once the connection is closing:
    // the fatal error frame was queued exactly once, and re-decoding the
    // unconsumed buffer would re-queue it every pass, growing `outbuf`
    // without bound against a slow-reading peer.
    //
    // Submits accumulate in `conn.batch` and drain through the engine at
    // the first non-Submit step (replies must stay in arrival order, so a
    // Drain or error cannot overtake queued verdicts) and at the end of
    // the pass. Where the drain falls cannot change any result: each
    // submit is scored on its own, in order.
    //
    // Decoding also stops once queued replies reach `max_outbuf`, the rest
    // waiting in `inbuf` until the peer reads. Each batched Submit counts
    // as a reply of `MAX_SUBMIT_REPLY` bytes, and the batch drains before
    // those could cross the cap, so the queue ends at most one reply past
    // it.
    let mut drained = false;
    while !conn.close_after_flush && conn.backlog() < service.limits.max_outbuf {
        match next_step(conn) {
            Step::Idle => {
                drained = true;
                break;
            }
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
        if conn.backlog() + conn.batch.len() * MAX_SUBMIT_REPLY >= service.limits.max_outbuf {
            flush_batch(conn, service);
        }
    }
    flush_batch(conn, service);

    // Flush.
    while conn.backlog() > 0 {
        match conn.stream.write(&conn.outbuf[conn.written..]) {
            Ok(0) => {
                conn.dead = true;
                return progress;
            }
            Ok(n) => {
                progress = true;
                conn.written += n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return progress;
            }
        }
    }
    if conn.backlog() == 0 {
        conn.outbuf.clear();
        conn.written = 0;
        // After a hang-up, close once no whole frame is left to answer.
        if conn.close_after_flush || (conn.peer_closed && drained) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::protocol::MAX_FRAME_BYTES;
    use crate::session::SessionConfig;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
    use hmd_hpc_sim::workload::AppClass;
    use hmd_ml::classifier::ClassifierKind;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use twosmart::detector::{TwoSmartDetector, Verdict};

    fn detector() -> TwoSmartDetector {
        static DETECTOR: OnceLock<TwoSmartDetector> = OnceLock::new();
        DETECTOR
            .get_or_init(|| {
                let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
                AppClass::MALWARE
                    .iter()
                    .fold(
                        TwoSmartDetector::builder().seed(4).hpc_budget(4),
                        |b, &c| b.classifier_for(c, ClassifierKind::OneR),
                    )
                    .train(&corpus)
                    .expect("detector trains")
            })
            .clone()
    }

    fn service(limits: ServiceLimits) -> Service {
        let metrics = Arc::new(Metrics::new());
        let engine =
            SessionEngine::new(detector(), &SessionConfig::default(), Arc::clone(&metrics))
                .expect("deployable");
        Service::new(engine, metrics, limits)
    }

    /// The peer's end of an in-memory connection: what it has sent so far
    /// (`inbound`), whether it has hung up, and what the service wrote
    /// back. The service may write `window` more bytes before a write
    /// blocks: the peer reads slowly, or not at all.
    #[derive(Default)]
    struct Pipe {
        inbound: Vec<u8>,
        read_at: usize,
        hung_up: bool,
        outbound: Vec<u8>,
        window: usize,
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let avail = &self.inbound[self.read_at..];
            if avail.is_empty() {
                return if self.hung_up {
                    Ok(0)
                } else {
                    Err(ErrorKind::WouldBlock.into())
                };
            }
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            self.read_at += n;
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.window == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.window);
            self.window -= n;
            self.outbound.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// xorshift64: the case's choices, drawn from one random word.
    fn next(r: &mut u64) -> u64 {
        *r ^= *r << 13;
        *r ^= *r >> 7;
        *r ^= *r << 17;
        *r
    }

    fn framed(format: WireFormat, frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(format, frame, &mut String::new(), &mut out);
        out
    }

    /// A peer's byte stream: arbitrary bytes, tiny junk frames, and
    /// well-formed Submits and Verdicts, some of them truncated,
    /// byte-flipped or padded with whitespace, after a `Hello{2}` upgrade
    /// when `v2`.
    fn peer_stream(r: &mut u64, v2: bool) -> Vec<u8> {
        let format = if v2 {
            WireFormat::V2Binary
        } else {
            WireFormat::V1Json
        };
        let mut stream = Vec::new();
        if v2 {
            stream = framed(WireFormat::V1Json, &Frame::Hello { version: 2 });
        }
        for _ in 0..next(r) % 24 {
            let host_id = next(r) % 4;
            let frame = if next(r).is_multiple_of(3) {
                Frame::Verdict {
                    host_id,
                    seq: next(r) % 8,
                    verdict: Some(Verdict::Malware {
                        class: AppClass::Virus,
                        confidence: 0.75,
                    }),
                }
            } else {
                Frame::Submit {
                    host_id,
                    seq: next(r) % 8,
                    counters: (0..next(r) % 6).map(|i| 1e5 / (i + 1) as f64).collect(),
                }
            };
            let mut bytes = framed(format, &frame);
            let at = 4 + next(r) as usize % (bytes.len() - 4);
            match next(r) % 8 {
                // Cut mid-frame: the prefix promises bytes that come from
                // the next piece, or never.
                0 => bytes.truncate(at),
                1 => bytes[at] ^= 1 << (next(r) % 8),
                // Whitespace inside the payload, prefix kept honest.
                2 => {
                    bytes.insert(at, b' ');
                    let len = (bytes.len() - 4) as u32;
                    bytes[..4].copy_from_slice(&len.to_be_bytes());
                }
                3 => {
                    let len = next(r) as usize % 40;
                    bytes = (0..len).map(|_| next(r) as u8).collect();
                }
                // A run of empty and one-byte frames: one error reply each.
                4 => {
                    bytes.clear();
                    for _ in 0..next(r) % 16 {
                        bytes.extend_from_slice(&[0, 0, 0, (next(r) % 2) as u8, 0xEE]);
                        bytes.truncate(bytes.len() - 1 + usize::from(bytes[bytes.len() - 2] == 1));
                    }
                }
                _ => {}
            }
            stream.extend_from_slice(&bytes);
        }
        stream
    }

    /// Bytes the frame starting at `head` needs buffered, as far as the
    /// first `read` bytes of the stream show it.
    fn needed(stream: &[u8], head: usize, read: usize) -> usize {
        match stream.get(head..head + 4) {
            Some(prefix) if head + 4 <= read => {
                let len = u32::from_be_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
                if len > MAX_FRAME_BYTES {
                    4
                } else {
                    4 + len
                }
            }
            _ => 4,
        }
    }

    /// Replies the service owes for `stream`: one per whole frame, up to
    /// and including the first whose length prefix is over the limit.
    fn whole_frames(stream: &[u8]) -> usize {
        let (mut at, mut n) = (0, 0);
        while let Some(prefix) = stream.get(at..at + 4) {
            let len = u32::from_be_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
            if len > MAX_FRAME_BYTES {
                return n + 1;
            }
            if at + 4 + len > stream.len() {
                break;
            }
            (at, n) = (at + 4 + len, n + 1);
        }
        n
    }

    /// The whole replies in `bytes`, as `(frame, framed length)`.
    fn replies(bytes: &[u8], v2: bool) -> Vec<(Frame, usize)> {
        let mut fb = FrameBuffer::new();
        fb.extend(bytes);
        let mut out = Vec::new();
        loop {
            let frame = fb
                .next_frame()
                .expect("the service only writes well-formed frames");
            let Some(frame) = frame else { break };
            let len = framed(fb.format(), &frame).len();
            if v2 && frame == (Frame::Hello { version: 2 }) {
                fb.set_format(WireFormat::V2Binary);
            }
            out.push((frame, len));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile and broken byte streams through `pump`, with small
        /// budgets and a peer that reads replies slowly: no panic, the
        /// inbound buffer stays within one read chunk of `max_inbuf` (or
        /// of the frame it is waiting for, when that frame is larger),
        /// queued replies stay within one reply of `max_outbuf`, and the
        /// connection ends in one whole reply per whole frame — verdicts,
        /// errors, at most one `Oversized` last — and a close, although
        /// the peer hangs up before it has read them.
        #[test]
        fn pump_keeps_its_budgets_on_any_stream(
            word in any::<u64>(),
            v2 in any::<bool>(),
            max_inbuf in 1usize..600,
            max_outbuf in 1usize..600,
            chunk_len in 1usize..48,
        ) {
            let mut r = word | 1;
            let stream = peer_stream(&mut r, v2);
            let service = service(ServiceLimits { max_inbuf, max_outbuf, evict_every: 4 });
            let mut conn = Conn::new(Pipe::default());
            let mut chunk = vec![0u8; chunk_len];
            let mut max_reply = 0;
            for _ in 0..20_000 {
                // The peer sends a little more, or all the rest, then
                // hangs up; it reads replies at a varying pace, sometimes
                // not at all.
                let sent = conn.stream.inbound.len();
                if sent < stream.len() {
                    let n = match next(&mut r) % 4 {
                        0 => stream.len() - sent,
                        _ => (1 + next(&mut r) as usize % 32).min(stream.len() - sent),
                    };
                    conn.stream.inbound.extend_from_slice(&stream[sent..sent + n]);
                } else {
                    conn.stream.hung_up = true;
                }
                conn.stream.window = match next(&mut r) % 3 {
                    0 => 0,
                    _ => next(&mut r) as usize % 200,
                };
                let (read0, pending0, written0) =
                    (conn.stream.read_at, conn.inbuf.pending(), conn.stream.outbound.len());

                pump(&mut conn, &service, &mut chunk, false);

                let read = conn.stream.read_at;
                let peak_in = pending0 + (read - read0);
                let need = needed(&stream, read0 - pending0, read);
                prop_assert!(
                    peak_in < max_inbuf.max(need) + chunk_len,
                    "{} inbound bytes buffered, cap {} (frame needs {}), chunk {}",
                    peak_in, max_inbuf, need, chunk_len
                );
                let mut queued = conn.stream.outbound.clone();
                queued.extend_from_slice(&conn.outbuf[conn.written..]);
                let whole: usize = replies(&queued, v2).iter().map(|&(_, len)| len).sum();
                prop_assert_eq!(whole, queued.len(), "every queued reply is whole");
                for (_, len) in replies(&queued, v2) {
                    max_reply = max_reply.max(len);
                }
                let peak_out = conn.backlog() + (conn.stream.outbound.len() - written0);
                prop_assert!(
                    peak_out < max_outbuf + max_reply.max(MAX_SUBMIT_REPLY),
                    "{} bytes queued, cap {}, largest reply {}",
                    peak_out, max_outbuf, max_reply
                );
                if conn.is_dead() {
                    break;
                }
            }
            prop_assert!(conn.is_dead(), "the connection never ended");
            let replies = replies(&conn.stream.outbound, v2);
            let whole: usize = replies.iter().map(|&(_, len)| len).sum();
            prop_assert_eq!(
                whole,
                conn.stream.outbound.len(),
                "the peer received a cut-off reply"
            );
            prop_assert_eq!(replies.len(), whole_frames(&stream), "one reply per whole frame");
            let oversized = replies
                .iter()
                .position(|(f, _)| matches!(f, Frame::Error { code: ErrorCode::Oversized, .. }));
            if let Some(at) = oversized {
                prop_assert_eq!(at, replies.len() - 1, "nothing follows the Oversized reply");
            }
            for (frame, _) in &replies {
                prop_assert!(
                    matches!(frame, Frame::Hello { .. } | Frame::Verdict { .. } | Frame::Error { .. }),
                    "unexpected reply {:?}", frame
                );
            }
        }
    }

    #[test]
    fn a_half_closed_peer_gets_every_reply_then_a_close() {
        let service = service(ServiceLimits::default());
        let mut conn = Conn::new(Pipe {
            inbound: framed(WireFormat::V1Json, &Frame::Hello { version: 2 }),
            window: usize::MAX,
            ..Pipe::default()
        });
        let mut chunk = vec![0u8; 4096];
        pump(&mut conn, &service, &mut chunk, false);
        assert_eq!(conn.format(), WireFormat::V2Binary);

        // Three Submits and the hang-up arrive in one pass.
        for seq in 0..3 {
            let submit = Frame::Submit {
                host_id: 7,
                seq,
                counters: vec![1e5, 2e4, 3e3, 4e2],
            };
            conn.stream
                .inbound
                .extend_from_slice(&framed(WireFormat::V2Binary, &submit));
        }
        conn.stream.hung_up = true;
        assert!(pump(&mut conn, &service, &mut chunk, false));

        let replies = replies(&conn.stream.outbound, true);
        assert_eq!(replies[0].0, Frame::Hello { version: 2 });
        let seqs: Vec<u64> = replies[1..]
            .iter()
            .map(|(frame, _)| match frame {
                Frame::Verdict {
                    host_id: 7, seq, ..
                } => *seq,
                other => panic!("expected a Verdict, got {other:?}"),
            })
            .collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert!(conn.is_dead(), "the connection outlived its last reply");
    }

    #[test]
    fn a_half_closed_peer_that_never_reads_makes_no_progress() {
        let service = service(ServiceLimits::default());
        let submit = Frame::Submit {
            host_id: 7,
            seq: 0,
            counters: vec![1e5, 2e4, 3e3, 4e2],
        };
        let mut conn = Conn::new(Pipe {
            inbound: framed(WireFormat::V1Json, &submit),
            hung_up: true,
            ..Pipe::default()
        });
        let mut chunk = vec![0u8; 4096];
        assert!(
            pump(&mut conn, &service, &mut chunk, false),
            "the frame was read"
        );
        for _ in 0..3 {
            assert!(!pump(&mut conn, &service, &mut chunk, false));
            assert!(!conn.is_dead() && conn.backlog() > 0, "the reply waits");
        }
        conn.stream.window = usize::MAX;
        assert!(
            pump(&mut conn, &service, &mut chunk, false),
            "the reply moved"
        );
        assert!(conn.is_dead());
        assert!(matches!(
            replies(&conn.stream.outbound, false)[..],
            [(Frame::Verdict { seq: 0, .. }, _)]
        ));
    }

    #[test]
    fn submit_replies_fit_their_budget() {
        // The longest Verdict: u64::MAX ids and the longest confidence
        // `Display` (the smallest subnormal); the longest per-item Error.
        let verdict = Frame::Verdict {
            host_id: u64::MAX,
            seq: u64::MAX,
            verdict: Some(Verdict::Malware {
                class: AppClass::Backdoor,
                confidence: 5e-324,
            }),
        };
        let errors = [
            SubmitError::BadLength {
                expected: usize::MAX,
                got: usize::MAX,
            },
            SubmitError::OutOfOrder {
                last: u64::MAX,
                got: u64::MAX,
            },
            SubmitError::BadValue { index: usize::MAX },
        ];
        for format in [WireFormat::V1Json, WireFormat::V2Binary] {
            assert!(framed(format, &verdict).len() <= MAX_SUBMIT_REPLY);
            for e in &errors {
                let error = Frame::Error {
                    code: ErrorCode::BadLength,
                    detail: format!("host {} seq {}: {e}", u64::MAX, u64::MAX),
                };
                assert!(framed(format, &error).len() <= MAX_SUBMIT_REPLY, "{e}");
            }
        }
    }
}
