//! Versioned, length-prefixed wire protocol.
//!
//! Every frame on the wire is a 4-byte big-endian payload length followed
//! by that many bytes of JSON encoding one [`Frame`] (via the vendored
//! serde_json). The length prefix makes framing self-describing; JSON makes
//! payloads debuggable with `nc` and stable across compiler versions.
//!
//! ```text
//! +----------------+-------------------------------+
//! | len: u32 (BE)  | payload: `len` bytes of JSON  |
//! +----------------+-------------------------------+
//! ```
//!
//! # Robustness contract
//!
//! A detection service ingests telemetry from potentially compromised
//! hosts, so the decoder must survive hostile bytes:
//!
//! - a syntactically invalid or shape-mismatched payload is a *recoverable*
//!   [`WireError::Malformed`] — the bad bytes are consumed, the connection
//!   stays usable, and the server answers with an `Error` frame;
//! - a length prefix beyond [`MAX_FRAME_BYTES`] is *fatal*
//!   ([`WireError::Oversized`]): framing can no longer be trusted (it is
//!   usually another protocol, e.g. an HTTP request line), so the server
//!   sends one `Error` frame and closes.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};
use twosmart::detector::Verdict;

/// Version of the original JSON payload format, carried by `Hello`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Version of the packed binary payload format (see [`crate::wire2`]).
/// Negotiated by sending `Hello{version: 2}` as a v1 JSON frame; the
/// server acknowledges in JSON and both sides switch.
pub const PROTOCOL_VERSION_V2: u32 = 2;

/// How frame payloads on a connection are encoded. The outer framing (the
/// 4-byte big-endian length prefix and the [`MAX_FRAME_BYTES`] cap) is
/// identical in both formats; only the payload bytes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// v1: JSON payloads — debuggable with `nc`, the compatibility
    /// default.
    #[default]
    V1Json,
    /// v2: packed little-endian binary payloads ([`crate::wire2`]) — the
    /// fleet-scale hot path.
    V2Binary,
}

impl WireFormat {
    /// The `Hello` version number requesting this format.
    pub fn version(self) -> u32 {
        match self {
            WireFormat::V1Json => PROTOCOL_VERSION,
            WireFormat::V2Binary => PROTOCOL_VERSION_V2,
        }
    }

    /// The format a `Hello` version number selects, if supported.
    pub fn from_version(version: u32) -> Option<WireFormat> {
        match version {
            PROTOCOL_VERSION => Some(WireFormat::V1Json),
            PROTOCOL_VERSION_V2 => Some(WireFormat::V2Binary),
            _ => None,
        }
    }
}

/// Hard ceiling on a frame payload. A `Submit` is ~120 bytes; 64 KiB
/// leaves room for metrics snapshots while rejecting garbage prefixes
/// (e.g. ASCII `"GET "` decodes as a ~1.2 GB length) immediately.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Number of counters a run-time `Submit` carries: the paper's 4-HPC
/// deployment budget.
pub const RUNTIME_COUNTERS: usize = 4;

/// Machine-readable error category carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The service is at its connection/in-flight budget; retry later.
    Overloaded,
    /// The payload was not a decodable frame; the offending bytes were
    /// discarded and the connection remains usable.
    Malformed,
    /// The frame length prefix exceeded [`MAX_FRAME_BYTES`]; the server
    /// closes the connection after this frame.
    Oversized,
    /// A `Submit` did not carry [`RUNTIME_COUNTERS`] counters.
    BadLength,
    /// A `Submit` seq was not strictly greater than the host's last seq.
    OutOfOrder,
    /// The client `Hello` requested an unsupported protocol version.
    UnsupportedVersion,
    /// A frame type the server does not accept (e.g. a client sending
    /// `Verdict`).
    Unexpected,
    /// The service is draining for shutdown and no longer accepts work.
    ShuttingDown,
    /// A `Submit` carried a NaN or infinite counter.
    BadValue,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadLength => "bad_length",
            ErrorCode::OutOfOrder => "out_of_order",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Unexpected => "unexpected",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::BadValue => "bad_value",
        };
        f.write_str(name)
    }
}

/// One protocol message, client→server or server→client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Handshake. The client sends its version; the server echoes its own.
    Hello {
        /// [`PROTOCOL_VERSION`] of the sender.
        version: u32,
    },
    /// One 10 ms counter reading from one monitored host.
    Submit {
        /// Fleet-unique identifier of the monitored host.
        host_id: u64,
        /// Strictly increasing per-host sequence number.
        seq: u64,
        /// Counter values in the detector's `runtime_events` order; must
        /// have [`RUNTIME_COUNTERS`] entries.
        counters: Vec<f64>,
    },
    /// The smoothed detection decision for one `Submit`.
    Verdict {
        /// Echoed from the `Submit`.
        host_id: u64,
        /// Echoed from the `Submit`.
        seq: u64,
        /// `None` while the host's window is still warming up.
        verdict: Option<Verdict>,
    },
    /// Metrics request (client sends `stats: None`) and response (server
    /// replies with a rendered snapshot).
    Drain {
        /// Point-in-time service metrics; `None` in the request direction.
        stats: Option<MetricsSnapshot>,
    },
    /// Anything the peer rejected, with a machine-readable code.
    Error {
        /// Error category.
        code: ErrorCode,
        /// Human-readable context (host/seq, expected arity, …).
        detail: String,
    },
}

/// Decoder-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the stream (EOF at a frame boundary is a clean
    /// close; mid-frame it is reported as `Io`).
    Closed,
    /// Underlying socket error.
    Io(String),
    /// Length prefix exceeded [`MAX_FRAME_BYTES`]; framing is lost and the
    /// connection must be closed.
    Oversized(usize),
    /// Payload was not a valid frame; the bytes were consumed and the
    /// stream remains framed.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_BYTES} B cap")
            }
            WireError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e.to_string())
    }
}

/// Encodes one frame as length prefix + JSON payload.
pub fn encode(frame: &Frame) -> Vec<u8> {
    // hmd-analyze: allow(panic-in-serve, "serializing Frame is infallible: no maps, non-finite floats encode as null")
    let payload = serde_json::to_string(frame).expect("frame JSON never fails");
    let bytes = payload.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME_BYTES, "outbound frame too large");
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// [`encode`] through caller-owned buffers — the per-connection hot path.
/// `json` is reused serialization scratch (cleared each call); the wire
/// bytes are *appended* to `out`, so a worker can encode straight into a
/// connection's output buffer. Bytes produced are identical to
/// [`encode`]'s.
///
/// The server's reply frames (`Verdict`, `Error`) take a direct-to-buffer
/// writer that renders JSON with `core::fmt` instead of building the
/// vendored serializer's `Value` tree; the tests below hold those writers
/// to byte equality with [`encode`], float formatting and string escaping
/// included. Other frame kinds (handshake, metrics — never hot) still go
/// through the generic serializer.
// hmd-analyze: hot-path
pub fn encode_into(frame: &Frame, json: &mut String, out: &mut Vec<u8>) {
    match frame {
        Frame::Verdict {
            host_id,
            seq,
            verdict,
        } => {
            json.clear();
            write_verdict_payload(json, *host_id, *seq, verdict.as_ref());
        }
        Frame::Error { code, detail } => {
            json.clear();
            write_error_payload(json, *code, detail);
        }
        _ => {
            // hmd-analyze: allow(panic-in-serve, "serializing Frame is infallible: no maps, non-finite floats encode as null")
            serde_json::to_string_into(frame, json).expect("frame JSON never fails");
        }
    }
    let bytes = json.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME_BYTES, "outbound frame too large");
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// `{"Verdict":{"host_id":…,"seq":…,"verdict":…}}`, byte-identical to the
/// generic serializer's external enum tagging.
// hmd-analyze: hot-path
fn write_verdict_payload(json: &mut String, host_id: u64, seq: u64, verdict: Option<&Verdict>) {
    use std::fmt::Write as _;
    let _ = write!(
        json,
        "{{\"Verdict\":{{\"host_id\":{host_id},\"seq\":{seq},\"verdict\":"
    );
    match verdict {
        None => json.push_str("null"),
        Some(Verdict::Benign) => json.push_str("\"Benign\""),
        Some(Verdict::Malware { class, confidence }) => {
            let _ = write!(
                json,
                "{{\"Malware\":{{\"class\":\"{class:?}\",\"confidence\":"
            );
            write_json_f64(json, *confidence);
            json.push_str("}}");
        }
    }
    json.push_str("}}");
}

/// `{"Error":{"code":"…","detail":"…"}}`, byte-identical to the generic
/// serializer.
// hmd-analyze: hot-path
fn write_error_payload(json: &mut String, code: ErrorCode, detail: &str) {
    json.push_str("{\"Error\":{\"code\":\"");
    // The serde name of the variant (its identifier), not the lowercase
    // Display form.
    json.push_str(match code {
        ErrorCode::Overloaded => "Overloaded",
        ErrorCode::Malformed => "Malformed",
        ErrorCode::Oversized => "Oversized",
        ErrorCode::BadLength => "BadLength",
        ErrorCode::OutOfOrder => "OutOfOrder",
        ErrorCode::UnsupportedVersion => "UnsupportedVersion",
        ErrorCode::Unexpected => "Unexpected",
        ErrorCode::ShuttingDown => "ShuttingDown",
        ErrorCode::BadValue => "BadValue",
    });
    json.push_str("\",\"detail\":");
    write_json_str(json, detail);
    json.push_str("}}");
}

/// Float formatting matching the vendored serializer exactly: integral
/// finite values keep a `.0` (so they re-parse as floats), other finite
/// values print shortest-`Display`, non-finite encodes as `null`.
// hmd-analyze: hot-path
fn write_json_f64(json: &mut String, f: f64) {
    use std::fmt::Write as _;
    if f.is_finite() {
        if f.fract() == 0.0 && f.abs() < 1e15 {
            let _ = write!(json, "{f:.1}");
        } else {
            let _ = write!(json, "{f}");
        }
    } else {
        json.push_str("null");
    }
}

/// String escaping matching the vendored serializer exactly.
// hmd-analyze: hot-path
fn write_json_str(json: &mut String, s: &str) {
    use std::fmt::Write as _;
    json.push('"');
    for c in s.chars() {
        match c {
            '"' => json.push_str("\\\""),
            '\\' => json.push_str("\\\\"),
            '\n' => json.push_str("\\n"),
            '\r' => json.push_str("\\r"),
            '\t' => json.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(json, "\\u{:04x}", c as u32);
            }
            c => json.push(c),
        }
    }
    json.push('"');
}

/// Format-dispatching [`encode_into`]: encodes `frame` per `format`,
/// appending the framed bytes to `out`. `json` is v1 serialization
/// scratch (untouched in v2). This is the single queueing entry point the
/// server and client share, so a connection's negotiated format is
/// applied in exactly one place.
// hmd-analyze: hot-path
pub fn encode_frame_into(format: WireFormat, frame: &Frame, json: &mut String, out: &mut Vec<u8>) {
    match format {
        WireFormat::V1Json => encode_into(frame, json, out),
        WireFormat::V2Binary => crate::wire2::encode_into(frame, out),
    }
}

/// Writes one frame to a blocking stream.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))
}

/// Reads one frame from a blocking stream.
///
/// # Errors
///
/// [`WireError::Closed`] on EOF at a frame boundary, [`WireError::Io`] on
/// socket errors or mid-frame EOF, [`WireError::Oversized`] /
/// [`WireError::Malformed`] per the module robustness contract.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(WireError::Closed),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_payload(&payload)
}

/// Decodes one v1 (JSON) payload into a [`Frame`]. The v2 counterpart is
/// [`crate::wire2::decode_payload`].
///
/// # Errors
///
/// [`WireError::Malformed`] on non-UTF-8 or structurally invalid JSON.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Incremental frame decoder for non-blocking sockets.
///
/// Workers append whatever bytes `read` produced and pull out as many
/// complete frames as have accumulated; partial frames simply wait for the
/// next read. The decoder carries the connection's negotiated
/// [`WireFormat`]; the outer framing is format-agnostic, so switching
/// formats mid-stream (after the `Hello` upgrade) is safe even with
/// pipelined bytes already buffered.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix length; compacted lazily to amortize the memmove.
    pos: usize,
    format: WireFormat,
}

impl FrameBuffer {
    /// An empty v1 decoder.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// An empty decoder in the given format.
    pub fn with_format(format: WireFormat) -> FrameBuffer {
        FrameBuffer {
            format,
            ..FrameBuffer::default()
        }
    }

    /// The payload format this decoder expects.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Switches the payload format (the `Hello{version: 2}` upgrade).
    pub fn set_format(&mut self, format: WireFormat) {
        self.format = format;
    }

    /// Appends raw bytes from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] consumes the offending payload (the stream
    /// stays framed; keep decoding). [`WireError::Oversized`] leaves the
    /// buffer unusable — the connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let format = self.format;
        match self.next_payload()? {
            None => Ok(None),
            Some(payload) => match format {
                WireFormat::V1Json => decode_payload(payload).map(Some),
                WireFormat::V2Binary => crate::wire2::decode_payload(payload).map(Some),
            },
        }
    }

    /// Extracts the next complete frame's raw payload bytes, consuming
    /// them. The server's v2 fast path peeks the tag here and decodes
    /// `Submit` without constructing a [`Frame`].
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the length prefix exceeds the cap
    /// (framing is lost; drop the connection).
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversized(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }

    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_render_stably() {
        assert_eq!(ErrorCode::Overloaded.to_string(), "overloaded");
        assert_eq!(ErrorCode::OutOfOrder.to_string(), "out_of_order");
    }

    #[test]
    fn encode_is_length_prefixed_json() {
        let bytes = encode(&Frame::Hello { version: 1 });
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert_eq!(len, bytes.len() - 4);
        assert!(std::str::from_utf8(&bytes[4..]).unwrap().contains("Hello"));
    }

    #[test]
    fn frame_buffer_handles_byte_dribble() {
        let bytes = encode(&Frame::Submit {
            host_id: 7,
            seq: 0,
            counters: vec![1.0, 2.0, 3.0, 4.0],
        });
        let mut fb = FrameBuffer::new();
        for b in &bytes[..bytes.len() - 1] {
            fb.extend(std::slice::from_ref(b));
            assert_eq!(fb.next_frame(), Ok(None), "incomplete frame must wait");
        }
        fb.extend(&bytes[bytes.len() - 1..]);
        match fb.next_frame() {
            Ok(Some(Frame::Submit { host_id, seq, .. })) => {
                assert_eq!((host_id, seq), (7, 0));
            }
            other => panic!("expected Submit, got {other:?}"),
        }
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn malformed_payload_is_recoverable() {
        let mut fb = FrameBuffer::new();
        let junk = b"{\"definitely\":\"not a frame\"}";
        let mut framed = (junk.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(junk);
        fb.extend(&framed);
        fb.extend(&encode(&Frame::Hello { version: 1 }));
        assert!(matches!(fb.next_frame(), Err(WireError::Malformed(_))));
        // The stream stays framed: the next frame decodes normally.
        assert_eq!(fb.next_frame(), Ok(Some(Frame::Hello { version: 1 })));
    }

    #[test]
    fn oversized_prefix_is_fatal() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"GET / HTTP/1.1\r\n");
        assert!(matches!(fb.next_frame(), Err(WireError::Oversized(_))));
    }

    /// Asserts the direct writer in [`encode_into`] and the generic
    /// serializer in [`encode`] produce identical wire bytes.
    fn assert_encode_into_matches_oracle(frame: &Frame) {
        let oracle = encode(frame);
        let mut json = String::from("stale scratch from a previous frame");
        let mut out = vec![0xAA, 0xBB]; // pre-existing queued bytes
        encode_into(frame, &mut json, &mut out);
        assert_eq!(&out[..2], &[0xAA, 0xBB], "encode_into must append");
        assert_eq!(
            &out[2..],
            &oracle[..],
            "direct writer diverged for {frame:?}: {:?} vs {:?}",
            std::str::from_utf8(&out[6..]),
            std::str::from_utf8(&oracle[4..]),
        );
    }

    #[test]
    fn direct_verdict_writer_is_byte_identical_to_the_generic_serializer() {
        use hmd_hpc_sim::workload::AppClass;
        let confidences = [
            0.875,          // fractional
            1.0,            // integral → ".0" suffix
            0.0,            // zero → "0.0"
            -0.0,           // negative zero
            1.0 / 3.0,      // long shortest-repr fraction
            0.1 + 0.2,      // classic rounding artifact
            1e-300,         // tiny exponent form
            2.5e14,         // integral but below the 1e15 Display cutoff
            1e15,           // integral at the cutoff → Display form
            f64::NAN,       // non-finite → null
            f64::INFINITY,  // non-finite → null
            -f64::INFINITY, // non-finite → null
        ];
        for host_id in [0u64, 7, u64::MAX] {
            for seq in [0u64, 3, u64::MAX] {
                assert_encode_into_matches_oracle(&Frame::Verdict {
                    host_id,
                    seq,
                    verdict: None,
                });
                assert_encode_into_matches_oracle(&Frame::Verdict {
                    host_id,
                    seq,
                    verdict: Some(Verdict::Benign),
                });
            }
        }
        for &confidence in &confidences {
            for &class in &AppClass::MALWARE {
                assert_encode_into_matches_oracle(&Frame::Verdict {
                    host_id: 42,
                    seq: 9,
                    verdict: Some(Verdict::Malware { class, confidence }),
                });
            }
        }
    }

    #[test]
    fn direct_error_writer_is_byte_identical_to_the_generic_serializer() {
        let codes = [
            ErrorCode::Overloaded,
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::BadLength,
            ErrorCode::OutOfOrder,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Unexpected,
            ErrorCode::ShuttingDown,
            ErrorCode::BadValue,
        ];
        let details = [
            "",
            "expected 4 counters, got 2",
            "quote \" backslash \\ slash /",
            "newline \n carriage \r tab \t",
            "control \u{1} \u{1f} boundary \u{20}",
            "unicode: ßåé 中文 🦀",
        ];
        for &code in &codes {
            for detail in &details {
                assert_encode_into_matches_oracle(&Frame::Error {
                    code,
                    detail: detail.to_string(),
                });
            }
        }
    }

    #[test]
    fn non_reply_frames_still_round_trip_through_encode_into() {
        // The generic-serializer fallback arm must stay wired up.
        for frame in [
            Frame::Hello { version: 2 },
            Frame::Submit {
                host_id: 3,
                seq: 1,
                counters: vec![1.5, 2.0, f64::NAN, -0.25],
            },
            Frame::Drain { stats: None },
        ] {
            assert_encode_into_matches_oracle(&frame);
        }
    }
}
