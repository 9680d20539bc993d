//! Protocol v2: fixed-layout binary frame payloads.
//!
//! The v1 wire format carries every frame as JSON, which costs ~1–2 µs per
//! frame in the vendored serializer's `Value` tree — more than 5× the
//! session engine's entire submit path. v2 keeps the outer framing (a
//! 4-byte big-endian length prefix, shared with v1 so `FrameBuffer` and
//! the oversized-prefix defence are format-agnostic) but replaces the JSON
//! payload with packed little-endian structs that encode straight into the
//! per-connection output buffer and decode with no UTF-8 or JSON pass.
//!
//! A connection starts in v1 and upgrades by sending `Hello{version: 2}`
//! (as JSON); the server acknowledges with a JSON `Hello{version: 2}` and
//! both sides switch, so v1-only clients keep working unchanged.
//!
//! # Payload layouts
//!
//! All multi-byte integers are little-endian; floats are IEEE-754 bit
//! patterns (`f64::to_le_bytes`), so counters and confidences round-trip
//! bit-exactly. The first byte is the frame tag:
//!
//! ```text
//! 0x01 Hello:   [tag u8][version u32]                              5 B
//! 0x02 Submit:  [tag u8][host_id u64][seq u64][n u16][f64 × n]     19+8n B
//! 0x03 Verdict: [tag u8][host_id u64][seq u64][kind u8]            18 B
//!                 kind 0 = warm-up (None)
//!                 kind 1 = Benign
//!                 kind 2 = Malware: + [class u8][confidence f64]   27 B
//! 0x04 Drain:   [tag u8][has u8]; has 1 = + [u64 × 24] snapshot    2|194 B
//! 0x05 Error:   [tag u8][code u8][len u32][detail UTF-8 × len]     7+len B
//! ```
//!
//! `class` indexes [`AppClass::ALL`]; `code` is the [`ErrorCode`]
//! declaration order; the Drain snapshot is [`MetricsSnapshot`]'s fields
//! in declaration order (histogram last). The only variable-length fields
//! are the Submit counter vector (`n` is normally
//! [`crate::protocol::RUNTIME_COUNTERS`]; other arities still encode so
//! the server can answer `Error{bad_length}`) and the Error detail string.
//!
//! # Robustness contract
//!
//! Same as v1: a payload that does not parse (unknown tag, truncated
//! struct, out-of-range class/code, trailing bytes, non-UTF-8 detail) is a
//! *recoverable* [`WireError::Malformed`] — the outer length prefix
//! already consumed the bytes, so the stream stays framed. Only the outer
//! prefix can be fatal ([`WireError::Oversized`], detected before any
//! payload reaches this module).

use crate::metrics::{MetricsSnapshot, StageCounts, VerdictHistogram};
use crate::protocol::{ErrorCode, Frame, WireError, MAX_FRAME_BYTES};
use hmd_hpc_sim::workload::AppClass;
use twosmart::detector::Verdict;

/// Frame tags (first payload byte).
const TAG_HELLO: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_VERDICT: u8 = 0x03;
const TAG_DRAIN: u8 = 0x04;
const TAG_ERROR: u8 = 0x05;

/// Verdict kinds (tag 0x03).
const KIND_WARMUP: u8 = 0;
const KIND_BENIGN: u8 = 1;
const KIND_MALWARE: u8 = 2;

/// `ErrorCode` ⇄ `u8`, declaration order. Kept exhaustive here so adding a
/// code without a wire mapping is a compile error.
fn code_to_u8(code: ErrorCode) -> u8 {
    match code {
        ErrorCode::Overloaded => 0,
        ErrorCode::Malformed => 1,
        ErrorCode::Oversized => 2,
        ErrorCode::BadLength => 3,
        ErrorCode::OutOfOrder => 4,
        ErrorCode::UnsupportedVersion => 5,
        ErrorCode::Unexpected => 6,
        ErrorCode::ShuttingDown => 7,
        ErrorCode::BadValue => 8,
    }
}

fn code_from_u8(byte: u8) -> Option<ErrorCode> {
    Some(match byte {
        0 => ErrorCode::Overloaded,
        1 => ErrorCode::Malformed,
        2 => ErrorCode::Oversized,
        3 => ErrorCode::BadLength,
        4 => ErrorCode::OutOfOrder,
        5 => ErrorCode::UnsupportedVersion,
        6 => ErrorCode::Unexpected,
        7 => ErrorCode::ShuttingDown,
        8 => ErrorCode::BadValue,
        _ => return None,
    })
}

/// Appends one v2 frame — 4-byte big-endian length prefix plus packed
/// payload — to `out`. The prefix is reserved up front and backpatched,
/// so encoding is a single append pass with no intermediate buffer and no
/// allocation beyond `out`'s own growth. Byte-for-byte deterministic.
// hmd-analyze: hot-path
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let prefix_at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    let payload_at = out.len();
    match frame {
        Frame::Hello { version } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::Submit {
            host_id,
            seq,
            counters,
        } => {
            out.push(TAG_SUBMIT);
            out.extend_from_slice(&host_id.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            debug_assert!(counters.len() <= u16::MAX as usize, "counter arity");
            out.extend_from_slice(&(counters.len() as u16).to_le_bytes());
            for c in counters {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        Frame::Verdict {
            host_id,
            seq,
            verdict,
        } => {
            out.push(TAG_VERDICT);
            out.extend_from_slice(&host_id.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            match verdict {
                None => out.push(KIND_WARMUP),
                Some(Verdict::Benign) => out.push(KIND_BENIGN),
                Some(Verdict::Malware { class, confidence }) => {
                    out.push(KIND_MALWARE);
                    out.push(class_to_u8(*class));
                    out.extend_from_slice(&confidence.to_le_bytes());
                }
            }
        }
        Frame::Drain { stats } => {
            out.push(TAG_DRAIN);
            match stats {
                None => out.push(0),
                Some(s) => {
                    out.push(1);
                    for v in snapshot_words(s) {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        Frame::Error { code, detail } => {
            out.push(TAG_ERROR);
            out.push(code_to_u8(*code));
            let bytes = detail.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
    let len = out.len() - payload_at;
    debug_assert!(len <= MAX_FRAME_BYTES, "outbound v2 frame too large");
    out[prefix_at..payload_at].copy_from_slice(&(len as u32).to_be_bytes());
}

fn class_to_u8(class: AppClass) -> u8 {
    // AppClass::ALL is the canonical stage-1 label order; index 0..=4.
    AppClass::ALL
        .iter()
        .position(|c| *c == class)
        .unwrap_or(AppClass::ALL.len()) as u8
}

/// The Drain snapshot as its 24 wire words, declaration order (stage-2
/// cascade counters last, appended in protocol revision 2.1 — older
/// decoders reading 16 words see a trailing-bytes malformed frame, which
/// is the intended loud failure for a version skew).
fn snapshot_words(s: &MetricsSnapshot) -> [u64; 24] {
    [
        s.frames_in,
        s.frames_out,
        s.malformed,
        s.shed,
        s.evictions,
        s.submits,
        s.connections,
        s.accept_errors,
        s.sessions,
        s.session_bytes,
        s.verdicts.warmup,
        s.verdicts.benign,
        s.verdicts.backdoor,
        s.verdicts.rootkit,
        s.verdicts.virus,
        s.verdicts.trojan,
        s.stage2_invoked.backdoor,
        s.stage2_invoked.rootkit,
        s.stage2_invoked.virus,
        s.stage2_invoked.trojan,
        s.stage2_skipped.backdoor,
        s.stage2_skipped.rootkit,
        s.stage2_skipped.virus,
        s.stage2_skipped.trojan,
    ]
}

/// Cursor over a payload slice; every read is bounds-checked so hostile
/// lengths can never panic a worker.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, at: 0 }
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let slice = self.bytes.get(self.at..self.at + N)?;
        self.at += N;
        let mut arr = [0u8; N];
        arr.copy_from_slice(slice);
        Some(arr)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take::<2>().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take::<8>().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.take::<8>().map(f64::from_le_bytes)
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    /// A well-formed payload is consumed exactly; trailing garbage means
    /// the peer speaks a different dialect and must be told so.
    fn finish(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Decodes a v2 `Submit` payload straight into a caller-owned counter
/// scratch buffer, returning `(host_id, seq)` — no `Frame`, no per-frame
/// heap allocation once the scratch has grown to the fleet's arity.
///
/// Returns `None` when the payload is not a well-formed Submit (another
/// tag included); callers fall back to [`decode_payload`], which decodes
/// the other frames and words the error.
// hmd-analyze: hot-path
pub fn decode_submit_into(payload: &[u8], counters: &mut Vec<f64>) -> Option<(u64, u64)> {
    let mut cur = Cursor::new(payload);
    if cur.u8()? != TAG_SUBMIT {
        return None;
    }
    let host_id = cur.u64()?;
    let seq = cur.u64()?;
    let n = cur.u16()? as usize;
    counters.clear();
    counters.reserve(n.min(MAX_FRAME_BYTES / 8));
    for _ in 0..n {
        counters.push(cur.f64()?);
    }
    if !cur.finish() {
        return None;
    }
    Some((host_id, seq))
}

/// Decodes one v2 payload into a [`Frame`]. This is the generic
/// (allocating) decoder used by clients, tests and the server's non-Submit
/// tags; the server's per-reading hot path is [`decode_submit_into`].
///
/// # Errors
///
/// [`WireError::Malformed`] on any structural problem; the payload bytes
/// were already consumed by the outer framing, so the stream stays usable.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut cur = Cursor::new(payload);
    let tag = cur
        .u8()
        .ok_or_else(|| WireError::Malformed("empty v2 payload".into()))?;
    let frame = match tag {
        TAG_HELLO => Frame::Hello {
            version: cur
                .u32()
                .ok_or_else(|| WireError::Malformed("truncated v2 Hello".into()))?,
        },
        TAG_SUBMIT => {
            let err = || WireError::Malformed("truncated v2 Submit".into());
            let host_id = cur.u64().ok_or_else(err)?;
            let seq = cur.u64().ok_or_else(err)?;
            let n = cur.u16().ok_or_else(err)? as usize;
            let mut counters = Vec::with_capacity(n.min(MAX_FRAME_BYTES / 8));
            for _ in 0..n {
                counters.push(cur.f64().ok_or_else(err)?);
            }
            Frame::Submit {
                host_id,
                seq,
                counters,
            }
        }
        TAG_VERDICT => {
            let err = || WireError::Malformed("truncated v2 Verdict".into());
            let host_id = cur.u64().ok_or_else(err)?;
            let seq = cur.u64().ok_or_else(err)?;
            let verdict = match cur.u8().ok_or_else(err)? {
                KIND_WARMUP => None,
                KIND_BENIGN => Some(Verdict::Benign),
                KIND_MALWARE => {
                    let idx = cur.u8().ok_or_else(err)? as usize;
                    let class = *AppClass::ALL.get(idx).ok_or_else(|| {
                        WireError::Malformed(format!("v2 Verdict class index {idx} out of range"))
                    })?;
                    let confidence = cur.f64().ok_or_else(err)?;
                    Some(Verdict::Malware { class, confidence })
                }
                kind => {
                    return Err(WireError::Malformed(format!(
                        "v2 Verdict kind {kind} unknown"
                    )));
                }
            };
            Frame::Verdict {
                host_id,
                seq,
                verdict,
            }
        }
        TAG_DRAIN => {
            let err = || WireError::Malformed("truncated v2 Drain".into());
            match cur.u8().ok_or_else(err)? {
                0 => Frame::Drain { stats: None },
                1 => {
                    let mut words = [0u64; 24];
                    for w in &mut words {
                        *w = cur.u64().ok_or_else(err)?;
                    }
                    Frame::Drain {
                        stats: Some(snapshot_from_words(words)),
                    }
                }
                has => {
                    return Err(WireError::Malformed(format!(
                        "v2 Drain presence byte {has} unknown"
                    )));
                }
            }
        }
        TAG_ERROR => {
            let err = || WireError::Malformed("truncated v2 Error".into());
            let code = cur.u8().ok_or_else(err)?;
            let code = code_from_u8(code)
                .ok_or_else(|| WireError::Malformed(format!("v2 Error code {code} unknown")))?;
            let len = cur.u32().ok_or_else(err)? as usize;
            let bytes = cur.bytes(len).ok_or_else(err)?;
            let detail = std::str::from_utf8(bytes)
                .map_err(|e| WireError::Malformed(format!("v2 Error detail not UTF-8: {e}")))?
                .to_string();
            Frame::Error { code, detail }
        }
        tag => {
            return Err(WireError::Malformed(format!(
                "v2 frame tag {tag:#04x} unknown"
            )))
        }
    };
    if !cur.finish() {
        return Err(WireError::Malformed("v2 payload has trailing bytes".into()));
    }
    Ok(frame)
}

fn snapshot_from_words(w: [u64; 24]) -> MetricsSnapshot {
    MetricsSnapshot {
        frames_in: w[0],
        frames_out: w[1],
        malformed: w[2],
        shed: w[3],
        evictions: w[4],
        submits: w[5],
        connections: w[6],
        accept_errors: w[7],
        sessions: w[8],
        session_bytes: w[9],
        verdicts: VerdictHistogram {
            warmup: w[10],
            benign: w[11],
            backdoor: w[12],
            rootkit: w[13],
            virus: w[14],
            trojan: w[15],
        },
        stage2_invoked: StageCounts {
            backdoor: w[16],
            rootkit: w[17],
            virus: w[18],
            trojan: w[19],
        },
        stage2_skipped: StageCounts {
            backdoor: w[20],
            rootkit: w[21],
            virus: w[22],
            trojan: w[23],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut wire = Vec::new();
        encode_into(frame, &mut wire);
        let len = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
        assert_eq!(len, wire.len() - 4, "prefix counts the payload exactly");
        decode_payload(&wire[4..]).expect("round-trips")
    }

    #[test]
    fn submit_layout_is_fixed_and_small() {
        let frame = Frame::Submit {
            host_id: 7,
            seq: 9,
            counters: vec![1.0, 2.0, 3.0, 4.0],
        };
        let mut wire = Vec::new();
        encode_into(&frame, &mut wire);
        assert_eq!(
            wire.len(),
            4 + 19 + 8 * 4,
            "4-counter Submit is 55 B framed"
        );
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn verdict_kinds_round_trip_bit_exactly() {
        for verdict in [
            None,
            Some(Verdict::Benign),
            Some(Verdict::Malware {
                class: AppClass::Rootkit,
                confidence: 1.0 / 3.0,
            }),
        ] {
            let frame = Frame::Verdict {
                host_id: u64::MAX,
                seq: 0,
                verdict,
            };
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn submit_fast_path_matches_generic_decoder() {
        let counters = vec![1.25e6, -0.0, f64::MIN_POSITIVE, 0.1 + 0.2];
        let frame = Frame::Submit {
            host_id: 42,
            seq: 1_000_000,
            counters: counters.clone(),
        };
        let mut wire = Vec::new();
        encode_into(&frame, &mut wire);
        let payload = &wire[4..];
        let mut scratch = vec![f64::NAN; 2];
        let ids = decode_submit_into(payload, &mut scratch);
        assert_eq!(ids, Some((42, 1_000_000)));
        let bits: Vec<u64> = scratch.iter().map(|c| c.to_bits()).collect();
        let want: Vec<u64> = counters.iter().map(|c| c.to_bits()).collect();
        assert_eq!(bits, want, "counters survive bit-exactly");
    }

    #[test]
    fn hostile_payloads_are_malformed_not_panics() {
        let cases: &[&[u8]] = &[
            b"",                                                            // empty
            &[0x77],                                                        // unknown tag
            &[TAG_SUBMIT, 1, 2],                                            // truncated Submit
            &[TAG_VERDICT, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9], // bad kind
            &[TAG_DRAIN, 9],                                                // bad presence byte
            &[TAG_ERROR, 200, 0, 0, 0, 0],                                  // unknown code
            &[TAG_ERROR, 0, 255, 255, 255, 255], // detail length beyond payload
            &[TAG_HELLO, 1, 0, 0, 0, 0xff],      // trailing byte
        ];
        for payload in cases {
            assert!(
                matches!(decode_payload(payload), Err(WireError::Malformed(_))),
                "payload {payload:?} must be malformed"
            );
            let mut scratch = Vec::new();
            // The fast path must reject the same bytes.
            assert_eq!(decode_submit_into(payload, &mut scratch), None);
        }
    }

    #[test]
    fn claimed_giant_counter_count_does_not_allocate_giant_scratch() {
        // n = u16::MAX with a 3-byte body: reserve is clamped and the
        // decode fails cleanly on the first missing counter.
        let mut payload = vec![TAG_SUBMIT];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        payload.extend_from_slice(&[1, 2, 3]);
        let mut scratch = Vec::new();
        assert_eq!(decode_submit_into(&payload, &mut scratch), None);
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::Malformed(_))
        ));
    }
}
