//! Property tests of the wire codecs: for *arbitrary* frames, both
//! protocol versions must round-trip losslessly, agree with each other,
//! and the v2 Submit fast path must match the generic decoder bit for
//! bit. Arbitrary byte soup must never panic either decoder.

use hmd_hpc_sim::workload::AppClass;
use hmd_serve::metrics::{MetricsSnapshot, StageCounts, VerdictHistogram};
use hmd_serve::protocol::{
    decode_payload as decode_v1, encode_frame_into, ErrorCode, Frame, FrameBuffer, WireFormat,
};
use hmd_serve::wire2;
use proptest::prelude::*;
use twosmart::detector::Verdict;

fn arb_verdict() -> impl Strategy<Value = Option<Verdict>> {
    prop_oneof![
        Just(None),
        Just(Some(Verdict::Benign)),
        (0usize..AppClass::ALL.len(), 0.0f64..=1.0).prop_map(|(idx, confidence)| {
            Some(Verdict::Malware {
                class: AppClass::ALL[idx],
                confidence,
            })
        }),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::Malformed),
        Just(ErrorCode::Oversized),
        Just(ErrorCode::BadLength),
        Just(ErrorCode::OutOfOrder),
        Just(ErrorCode::UnsupportedVersion),
        Just(ErrorCode::Unexpected),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::BadValue),
    ]
}

/// Arbitrary UTF-8 detail text: printable ASCII with a sprinkle of
/// multi-byte characters, exercising JSON escaping and the v2 byte-length
/// field.
fn arb_detail() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..68, any::<bool>()), 0..40).prop_map(|picks| {
        const EXTRAS: [char; 4] = ['é', '→', '🦀', '\n'];
        picks
            .into_iter()
            .map(|(i, wide)| {
                if wide {
                    EXTRAS[i % EXTRAS.len()]
                } else {
                    char::from(b' ' + (i as u8))
                }
            })
            .collect()
    })
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    proptest::collection::vec(any::<u64>(), 24).prop_map(|w| MetricsSnapshot {
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
    })
}

/// Arbitrary frames with finite floats (JSON cannot carry NaN/Inf, and the
/// service never emits them — the cross-version comparison needs a domain
/// both codecs can represent).
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any::<u32>().prop_map(|version| Frame::Hello { version }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(-1e12f64..1e12, 0..12),
        )
            .prop_map(|(host_id, seq, counters)| Frame::Submit {
                host_id,
                seq,
                counters,
            }),
        (any::<u64>(), any::<u64>(), arb_verdict()).prop_map(|(host_id, seq, verdict)| {
            Frame::Verdict {
                host_id,
                seq,
                verdict,
            }
        }),
        prop_oneof![
            Just(Frame::Drain { stats: None }),
            arb_snapshot().prop_map(|s| Frame::Drain { stats: Some(s) }),
        ],
        (arb_error_code(), arb_detail()).prop_map(|(code, detail)| Frame::Error { code, detail }),
    ]
}

/// Frames compare by value, but the determinism story is about *bits*:
/// compare counters and confidences through `to_bits` so -0.0 vs 0.0 or
/// NaN payload differences cannot hide behind `PartialEq`.
fn assert_bit_identical(a: &Frame, b: &Frame) {
    assert_eq!(a, b);
    if let (Frame::Submit { counters: ca, .. }, Frame::Submit { counters: cb, .. }) = (a, b) {
        let ba: Vec<u64> = ca.iter().map(|c| c.to_bits()).collect();
        let bb: Vec<u64> = cb.iter().map(|c| c.to_bits()).collect();
        assert_eq!(ba, bb);
    }
}

fn encode(format: WireFormat, frame: &Frame) -> Vec<u8> {
    let mut scratch = String::new();
    let mut out = Vec::new();
    encode_frame_into(format, frame, &mut scratch, &mut out);
    out
}

proptest! {
    #[test]
    fn v2_round_trips_any_frame(frame in arb_frame()) {
        let wire = encode(WireFormat::V2Binary, &frame);
        let decoded = wire2::decode_payload(&wire[4..]).expect("well-formed");
        assert_bit_identical(&decoded, &frame);
    }

    #[test]
    fn v1_round_trips_any_frame(frame in arb_frame()) {
        let wire = encode(WireFormat::V1Json, &frame);
        let decoded = decode_v1(&wire[4..]).expect("well-formed");
        assert_bit_identical(&decoded, &frame);
    }

    #[test]
    fn both_versions_agree_on_any_frame(frame in arb_frame()) {
        let v1 = encode(WireFormat::V1Json, &frame);
        let v2 = encode(WireFormat::V2Binary, &frame);
        let d1 = decode_v1(&v1[4..]).expect("v1 decodes");
        let d2 = wire2::decode_payload(&v2[4..]).expect("v2 decodes");
        assert_bit_identical(&d1, &d2);
    }

    #[test]
    fn v2_submit_fast_path_matches_generic_decoder(
        host_id in any::<u64>(),
        seq in any::<u64>(),
        counters in proptest::collection::vec(-1e12f64..1e12, 0..12),
    ) {
        let frame = Frame::Submit { host_id, seq, counters };
        let wire = encode(WireFormat::V2Binary, &frame);
        let payload = &wire[4..];
        let mut scratch = vec![f64::NAN; 3]; // dirty scratch must not leak
        let ids = wire2::decode_submit_into(payload, &mut scratch);
        prop_assert_eq!(ids, Some((host_id, seq)));
        match wire2::decode_payload(payload).expect("well-formed") {
            Frame::Submit { counters: want, .. } => {
                let got: Vec<u64> = scratch.iter().map(|c| c.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|c| c.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
            other => prop_assert!(false, "generic decoder returned {:?}", other),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_v1(&payload);
        let _ = wire2::decode_payload(&payload);
        let mut scratch = Vec::new();
        let _ = wire2::decode_submit_into(&payload, &mut scratch);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_buffer(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        v2 in any::<bool>(),
    ) {
        let format = if v2 { WireFormat::V2Binary } else { WireFormat::V1Json };
        let mut fb = FrameBuffer::with_format(format);
        fb.extend(&bytes);
        // Drive to quiescence: either the stream drains or errors out.
        for _ in 0..64 {
            match fb.next_frame() {
                Ok(Some(_)) | Err(_) => {}
                Ok(None) => break,
            }
        }
    }
}
