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
//! # Direct codec for the per-reading frames
//!
//! The JSON is serde_json's, byte for byte, but the frames every reading
//! produces skip its `Value` tree. [`encode_into`] writes `Submit`,
//! `Verdict` and `Error` payloads straight into the output buffer.
//! [`decode_submit_into`] (the server's v1 Submit path, the twin of
//! [`crate::wire2::decode_submit_into`]) and [`decode_payload`] read
//! `Submit` and `Verdict` payloads in the exact form the writer emits —
//! no whitespace, keys in field order — with serde_json's number rule.
//! serde_json still runs for `Hello` and `Drain` in both directions, for
//! decoding `Error`, and for any payload not in that form; it is the
//! reference the direct codec's tests compare against.
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

use crate::json_num::{write_json_f64, write_u64};
use crate::metrics::MetricsSnapshot;
use hmd_hpc_sim::workload::AppClass;
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
/// The wire bytes are *appended* to `out`, so a worker can encode straight
/// into a connection's output buffer; `json` is serialization scratch for
/// the frames the generic serializer still writes. Bytes produced are
/// identical to [`encode`]'s.
///
/// The per-reading frames (an agent's `Submit`, the server's `Verdict`)
/// and `Error` replies are written straight into `out`, the length prefix
/// reserved and backpatched, instead of through the vendored serializer's
/// `Value` tree; the tests below hold those writers to byte equality with
/// [`encode`], float formatting and string escaping included. `Hello` and
/// `Drain` (handshake and metrics, never hot) still go through the
/// generic serializer.
// hmd-analyze: hot-path
pub fn encode_into(frame: &Frame, json: &mut String, out: &mut Vec<u8>) {
    let prefix_at = out.len();
    out.extend_from_slice(&[0; 4]);
    match frame {
        Frame::Submit {
            host_id,
            seq,
            counters,
        } => write_submit_payload(out, *host_id, *seq, counters),
        Frame::Verdict {
            host_id,
            seq,
            verdict,
        } => write_verdict_payload(out, *host_id, *seq, verdict.as_ref()),
        Frame::Error { code, detail } => write_error_payload(out, *code, detail),
        Frame::Hello { .. } | Frame::Drain { .. } => {
            // hmd-analyze: allow(panic-in-serve, "serializing Frame is infallible: no maps, non-finite floats encode as null")
            serde_json::to_string_into(frame, json).expect("frame JSON never fails");
            out.extend_from_slice(json.as_bytes());
        }
    }
    let len = out.len() - prefix_at - 4;
    debug_assert!(len <= MAX_FRAME_BYTES, "outbound frame too large");
    out[prefix_at..prefix_at + 4].copy_from_slice(&(len as u32).to_be_bytes());
}

/// `{"Submit":{"host_id":…,"seq":…,"counters":[…]}}`, byte-identical to
/// the generic serializer.
// hmd-analyze: hot-path
fn write_submit_payload(out: &mut Vec<u8>, host_id: u64, seq: u64, counters: &[f64]) {
    out.extend_from_slice(b"{\"Submit\":{\"host_id\":");
    write_u64(out, host_id);
    out.extend_from_slice(b",\"seq\":");
    write_u64(out, seq);
    out.extend_from_slice(b",\"counters\":[");
    for (i, &c) in counters.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_json_f64(out, c);
    }
    out.extend_from_slice(b"]}}");
}

/// `{"Verdict":{"host_id":…,"seq":…,"verdict":…}}`, byte-identical to the
/// generic serializer's external enum tagging.
// hmd-analyze: hot-path
fn write_verdict_payload(out: &mut Vec<u8>, host_id: u64, seq: u64, verdict: Option<&Verdict>) {
    out.extend_from_slice(b"{\"Verdict\":{\"host_id\":");
    write_u64(out, host_id);
    out.extend_from_slice(b",\"seq\":");
    write_u64(out, seq);
    out.extend_from_slice(b",\"verdict\":");
    match verdict {
        None => out.extend_from_slice(b"null"),
        Some(Verdict::Benign) => out.extend_from_slice(b"\"Benign\""),
        Some(Verdict::Malware { class, confidence }) => {
            out.extend_from_slice(b"{\"Malware\":{\"class\":\"");
            out.extend_from_slice(class_name(*class).as_bytes());
            out.extend_from_slice(b"\",\"confidence\":");
            write_json_f64(out, *confidence);
            out.extend_from_slice(b"}}");
        }
    }
    out.extend_from_slice(b"}}");
}

/// The serde name of an [`AppClass`] (its identifier), as the generic
/// serializer writes it and the direct Verdict decoder matches it.
// hmd-analyze: hot-path
fn class_name(class: AppClass) -> &'static str {
    match class {
        AppClass::Benign => "Benign",
        AppClass::Backdoor => "Backdoor",
        AppClass::Rootkit => "Rootkit",
        AppClass::Virus => "Virus",
        AppClass::Trojan => "Trojan",
    }
}

/// `{"Error":{"code":"…","detail":"…"}}`, byte-identical to the generic
/// serializer.
// hmd-analyze: hot-path
fn write_error_payload(out: &mut Vec<u8>, code: ErrorCode, detail: &str) {
    out.extend_from_slice(b"{\"Error\":{\"code\":\"");
    // The serde name of the variant (its identifier), not the lowercase
    // Display form.
    out.extend_from_slice(match code {
        ErrorCode::Overloaded => b"Overloaded".as_slice(),
        ErrorCode::Malformed => b"Malformed",
        ErrorCode::Oversized => b"Oversized",
        ErrorCode::BadLength => b"BadLength",
        ErrorCode::OutOfOrder => b"OutOfOrder",
        ErrorCode::UnsupportedVersion => b"UnsupportedVersion",
        ErrorCode::Unexpected => b"Unexpected",
        ErrorCode::ShuttingDown => b"ShuttingDown",
        ErrorCode::BadValue => b"BadValue",
    });
    out.extend_from_slice(b"\",\"detail\":");
    write_json_str(out, detail);
    out.extend_from_slice(b"}}");
}

/// String escaping matching the vendored serializer exactly. Byte-wise is
/// char-wise here: every byte of a multi-byte UTF-8 character is above
/// the ASCII range, so only single-byte characters are escaped.
// hmd-analyze: hot-path
fn write_json_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
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
/// A `Submit` or `Verdict` in the exact form [`encode_into`] writes is
/// read directly, with no `Value` tree; any other payload, and any
/// `Hello`, `Drain` or `Error`, goes through the generic serializer, which
/// is the reference the direct readers match.
///
/// # Errors
///
/// [`WireError::Malformed`] on non-UTF-8 or structurally invalid JSON.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut counters = Vec::new();
    if let Some((host_id, seq)) = decode_submit_into(payload, &mut counters) {
        return Ok(Frame::Submit {
            host_id,
            seq,
            counters,
        });
    }
    if let Some(frame) = decode_verdict(payload) {
        return Ok(frame);
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::Malformed(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Decodes a v1 `Submit` payload straight into a caller-owned counter
/// scratch buffer, returning `(host_id, seq)` — the v1 twin of
/// [`crate::wire2::decode_submit_into`]: no `Frame`, no `Value` tree, no
/// per-frame heap allocation once the scratch has grown to the fleet's
/// arity.
///
/// It reads only the canonical form [`encode_into`] writes,
/// `{"Submit":{"host_id":…,"seq":…,"counters":[…]}}` with no whitespace,
/// and reads each number as the generic serializer does. Returns `None`
/// for any other payload (whitespace, another key order, extra keys,
/// escapes, a non-integer id, a malformed or truncated frame); callers
/// then fall back to [`decode_payload`], whose generic path decides.
// hmd-analyze: hot-path
pub fn decode_submit_into(payload: &[u8], counters: &mut Vec<f64>) -> Option<(u64, u64)> {
    let mut s = Scan::new(payload);
    s.lit(b"{\"Submit\":{\"host_id\":")?;
    let host_id = s.id()?;
    s.lit(b",\"seq\":")?;
    let seq = s.id()?;
    s.lit(b",\"counters\":[")?;
    counters.clear();
    if s.lit(b"]").is_none() {
        loop {
            counters.push(s.number_or_null()?);
            if s.lit(b"]").is_some() {
                break;
            }
            s.lit(b",")?;
        }
    }
    s.lit(b"}}")?;
    s.end()?;
    Some((host_id, seq))
}

/// Decodes a v1 `Verdict` payload in the canonical form
/// [`encode_into`] writes, as [`decode_submit_into`] does a `Submit`;
/// `None` for any other payload.
// hmd-analyze: hot-path
fn decode_verdict(payload: &[u8]) -> Option<Frame> {
    let mut s = Scan::new(payload);
    s.lit(b"{\"Verdict\":{\"host_id\":")?;
    let host_id = s.id()?;
    s.lit(b",\"seq\":")?;
    let seq = s.id()?;
    s.lit(b",\"verdict\":")?;
    let verdict = if s.lit(b"null").is_some() {
        None
    } else if s.lit(b"\"Benign\"").is_some() {
        Some(Verdict::Benign)
    } else {
        s.lit(b"{\"Malware\":{\"class\":\"")?;
        let name = s.until(b'"')?;
        let class = AppClass::ALL
            .into_iter()
            .find(|&c| class_name(c).as_bytes() == name)?;
        s.lit(b",\"confidence\":")?;
        let confidence = s.number_or_null()?;
        s.lit(b"}}")?;
        Some(Verdict::Malware { class, confidence })
    };
    s.lit(b"}}")?;
    s.end()?;
    Some(Frame::Verdict {
        host_id,
        seq,
        verdict,
    })
}

/// Cursor over a v1 payload for the direct readers. Every step either
/// matches exactly what the canonical writer emits or returns `None`, so
/// a payload it accepts is all ASCII and parses to the same tree in the
/// generic serializer.
struct Scan<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Scan<'a> {
    fn new(bytes: &'a [u8]) -> Scan<'a> {
        Scan { bytes, at: 0 }
    }

    /// Consumes `lit` if the payload continues with it.
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        let rest = self.bytes.get(self.at..)?;
        if rest.starts_with(lit) {
            self.at += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// Consumes bytes up to the next `stop`, and `stop` itself; the bytes
    /// before it.
    fn until(&mut self, stop: u8) -> Option<&'a [u8]> {
        let rest = self.bytes.get(self.at..)?;
        let len = rest.iter().position(|&b| b == stop)?;
        self.at += len + 1;
        Some(&rest[..len])
    }

    /// The whole payload was consumed.
    fn end(&self) -> Option<()> {
        (self.at == self.bytes.len()).then_some(())
    }

    /// A number token as the generic parser delimits it: a `-` or digit,
    /// then every following byte of `0-9 . e E + -`. Returns the token
    /// and whether the parser reads it as a float (any byte after the
    /// first is one of `. e E + -`) rather than trying integers first.
    fn number(&mut self) -> Option<(&'a str, bool)> {
        let rest = self.bytes.get(self.at..)?;
        let first = *rest.first()?;
        if first != b'-' && !first.is_ascii_digit() {
            return None;
        }
        let mut len = 1;
        let mut float = false;
        for &b in &rest[1..] {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            len += 1;
        }
        self.at += len;
        // ASCII by construction, so this never fails.
        std::str::from_utf8(&rest[..len])
            .ok()
            .map(|text| (text, float))
    }

    /// A `u64` id. Only an integer token the `u64` parser takes, which
    /// the generic path reads to the same value; anything else (a
    /// fraction, an exponent, a sign, a value past `u64::MAX`) is left to
    /// the generic path.
    fn id(&mut self) -> Option<u64> {
        match self.number()? {
            (text, false) => text.parse().ok(),
            (_, true) => None,
        }
    }

    /// An `f64` by the generic serializer's number rule: `null` reads as
    /// NaN; an integer token tries `i64`, then `u64`, then `f64` (so `-0`
    /// reads as +0.0 while `-0.0` keeps its sign); any other token parses
    /// as `f64` (so `1e400` reads as infinity).
    fn number_or_null(&mut self) -> Option<f64> {
        if self.lit(b"null").is_some() {
            return Some(f64::NAN);
        }
        let (text, float) = self.number()?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Some(i as f64);
            }
            if let Ok(u) = text.parse::<u64>() {
                return Some(u as f64);
            }
        }
        text.parse().ok()
    }
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
    /// them. The server's Submit fast paths decode from here without
    /// constructing a [`Frame`].
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the length prefix exceeds the cap
    /// (framing is lost; drop the connection).
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(len) = self.head_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversized(len));
        }
        if self.pending() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }

    /// Bytes the next frame needs buffered before it decodes: its length
    /// prefix plus payload once the prefix has arrived, the 4 prefix bytes
    /// until then (and for an oversized prefix, which decodes at once as
    /// an error).
    pub(crate) fn needed(&self) -> usize {
        match self.head_len() {
            Some(len) if len <= MAX_FRAME_BYTES => 4 + len,
            _ => 4,
        }
    }

    /// The next frame's length prefix, once its 4 bytes have arrived.
    fn head_len(&self) -> Option<usize> {
        let prefix = self.buf.get(self.pos..self.pos + 4)?;
        Some(u32::from_be_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize)
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
        for &confidence in &FLOAT_CASES {
            for &class in &AppClass::ALL {
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

    /// Float cut-offs of `write_json_f64`: the `.0` suffix, the 1e15
    /// switch to shortest `Display`, signed zeros, subnormals, and the
    /// non-finite values that encode as `null`.
    const FLOAT_CASES: [f64; 22] = [
        0.875,
        1.0,
        0.0,
        -0.0,
        -3.0,
        1.0 / 3.0,
        0.1 + 0.2,
        1e-300,
        2.5e14,
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1e21,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        -5e-324,
        123_456.789_012_345_67,
        1.25e6,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    #[test]
    fn direct_submit_writer_is_byte_identical_to_the_generic_serializer() {
        for host_id in [0u64, 7, u64::MAX] {
            for seq in [0u64, 3, u64::MAX] {
                for n in 0..=8 {
                    // Each arity walks the float cases from its own start.
                    let counters: Vec<f64> = (0..n)
                        .map(|i| FLOAT_CASES[(i + n + (host_id % 5) as usize) % FLOAT_CASES.len()])
                        .collect();
                    assert_encode_into_matches_oracle(&Frame::Submit {
                        host_id,
                        seq,
                        counters,
                    });
                }
            }
        }
        for &c in &FLOAT_CASES {
            assert_encode_into_matches_oracle(&Frame::Submit {
                host_id: 1,
                seq: 2,
                counters: vec![c; 4],
            });
        }
    }

    #[test]
    fn handshake_and_metrics_frames_still_round_trip_through_encode_into() {
        // The generic-serializer fallback arm must stay wired up.
        for frame in [Frame::Hello { version: 2 }, Frame::Drain { stats: None }] {
            assert_encode_into_matches_oracle(&frame);
        }
    }
}
