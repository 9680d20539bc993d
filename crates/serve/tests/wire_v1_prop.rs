//! Property tests of the v1 direct codec against the generic serializer.
//!
//! `encode_into` writes `Submit` and `Verdict` frames without the vendored
//! serializer, and `decode_payload` / `decode_submit_into` read canonical
//! ones without it; the serializer stays the reference. Every frame the
//! writer emits must be the serializer's bytes, and every payload — the
//! writer's own, or one mutated into non-canonical or broken JSON — must
//! decode exactly as `serde_json::from_str` decodes it: the same frame bit
//! for bit (counters and confidences compared through `to_bits`), or the
//! same error text. `decode_submit_into` may instead defer (`None`).

use hmd_hpc_sim::workload::AppClass;
use hmd_serve::protocol::{
    decode_payload, decode_submit_into, encode_frame_into, Frame, WireError, WireFormat,
};
use proptest::prelude::*;
use twosmart::detector::Verdict;

/// The generic path `decode_payload` fell back to before the direct
/// readers: UTF-8 check, then the vendored serializer.
fn generic(payload: &[u8]) -> Result<Frame, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Frame equality through float bits, so NaN, -0.0 and +0.0 cannot hide
/// behind `PartialEq`.
fn bits(frame: &Frame) -> (Frame, Vec<u64>) {
    let mut floats = Vec::new();
    let mut frame = frame.clone();
    match &mut frame {
        Frame::Submit { counters, .. } => {
            floats.extend(counters.iter().map(|c| c.to_bits()));
            counters.clear();
        }
        Frame::Verdict {
            verdict: Some(Verdict::Malware { confidence, .. }),
            ..
        } => {
            floats.push(confidence.to_bits());
            *confidence = 0.0;
        }
        _ => {}
    }
    (frame, floats)
}

/// Asserts the direct readers agree with the generic path on `payload`.
fn assert_decodes_like_generic(payload: &[u8]) {
    let want = generic(payload);
    let got = decode_payload(payload).map_err(|e| match e {
        WireError::Malformed(text) => text,
        other => panic!("a payload decode can only be malformed, got {other:?}"),
    });
    let shown = String::from_utf8_lossy(payload);
    match (&got, &want) {
        (Ok(a), Ok(b)) => assert_eq!(bits(a), bits(b), "{shown}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{shown}"),
        _ => panic!("{shown}: direct {got:?}, generic {want:?}"),
    }
    let mut scratch = vec![f64::NAN; 3];
    if let Some((host_id, seq)) = decode_submit_into(payload, &mut scratch) {
        let direct = Frame::Submit {
            host_id,
            seq,
            counters: scratch,
        };
        match &want {
            Ok(frame) => assert_eq!(bits(&direct), bits(frame), "{shown}"),
            Err(e) => panic!("{shown}: fast path read {direct:?}, generic failed: {e}"),
        }
    }
}

fn v1_payload(frame: &Frame) -> Vec<u8> {
    let mut json = String::new();
    let mut wire = Vec::new();
    encode_frame_into(WireFormat::V1Json, frame, &mut json, &mut wire);
    let len = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
    assert_eq!(len, wire.len() - 4, "the prefix counts the payload");
    wire.split_off(4)
}

/// Any `f64`, weighted towards the values the writer and reader treat
/// specially.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0usize..14).prop_map(|i| [
            0.0,
            -0.0,
            1.0,
            -3.0,
            1e15,
            999_999_999_999_999.0,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
            1e21,
        ][i]),
        -1e12f64..1e12,
        0.0f64..1.0,
    ]
}

fn arb_id() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just(0), Just(u64::MAX), 0u64..1000]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            arb_id(),
            arb_id(),
            proptest::collection::vec(arb_float(), 0..9)
        )
            .prop_map(|(host_id, seq, counters)| Frame::Submit {
                host_id,
                seq,
                counters,
            }),
        (arb_id(), arb_id(), 0usize..7, arb_float()).prop_map(
            |(host_id, seq, kind, confidence)| {
                let verdict = match kind {
                    0 => None,
                    1 => Some(Verdict::Benign),
                    k => Some(Verdict::Malware {
                        class: AppClass::ALL[k - 2],
                        confidence,
                    }),
                };
                Frame::Verdict {
                    host_id,
                    seq,
                    verdict,
                }
            }
        ),
    ]
}

/// Number tokens the generic parser reads in its own way: signed zeros,
/// overflow to infinity, leading zeros, integers past `i64::MAX` and
/// `u64::MAX`, exponents, and tokens it rejects.
const NUMBER_TOKENS: &[&str] = &[
    "0",
    "7",
    "-0",
    "-0.0",
    "0.5",
    "-1",
    "1e400",
    "-1e400",
    "1e-400",
    "007",
    "00",
    "007.5",
    "1.",
    "1e5",
    "1E5",
    "1e+5",
    "1.5e-5",
    "123456.78901234567",
    "1000000000000000",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "4.9e-324",
    "null",
    "nul",
    "true",
    "\"1\"",
    "[]",
    "-",
    "--1",
    "1-2",
    "1.2.3",
    "",
];

const CLASS_TOKENS: &[&str] = &[
    "\"Backdoor\"",
    "\"Rootkit\"",
    "\"Virus\"",
    "\"Trojan\"",
    "\"Benign\"",
    "\"Worm\"",
    "\"backdoor\"",
    "\"Back\\u0064oor\"",
    "\"Trojan\\\"\"",
    "null",
];

/// Draws from `options` with the case's random word.
fn pick<'a>(options: &[&'a str], r: &mut u64) -> &'a str {
    *r ^= *r << 13;
    *r ^= *r >> 7;
    *r ^= *r << 17;
    options[(*r % options.len() as u64) as usize]
}

/// A number token: an odd one, or the canonical form of a random `f64`.
fn num(r: &mut u64) -> String {
    if r.is_multiple_of(3) {
        pick(NUMBER_TOKENS, r).to_string()
    } else {
        let f = f64::from_bits(*r);
        *r = r.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
        serde_json::to_string(&f).unwrap()
    }
}

/// An id token: mostly a canonical small id, else any number.
fn id_token(r: &mut u64) -> String {
    if !r.is_multiple_of(5) {
        let id = *r % 100_000;
        *r = r.rotate_left(29) ^ 0x2545_f491_4f6c_dd1d;
        id.to_string()
    } else {
        num(r)
    }
}

/// A Submit or Verdict payload built field by field: canonical fields,
/// odd number tokens, reordered, duplicate or extra keys, odd verdicts.
fn templated_payload(r: &mut u64) -> String {
    let submit = r.is_multiple_of(2);
    let mut fields = vec![
        format!("\"host_id\":{}", id_token(r)),
        format!("\"seq\":{}", id_token(r)),
    ];
    if submit {
        let n = (*r % 6) as usize;
        let counters: Vec<String> = (0..n).map(|_| num(r)).collect();
        fields.push(format!("\"counters\":[{}]", counters.join(",")));
    } else {
        let verdict = match *r % 6 {
            0 => "null".to_string(),
            1 => "\"Benign\"".to_string(),
            2 => "\"Malware\"".to_string(),
            3 => format!(
                "{{\"Malware\":{{\"confidence\":{},\"class\":{}}}}}",
                num(r),
                pick(CLASS_TOKENS, r)
            ),
            _ => format!(
                "{{\"Malware\":{{\"class\":{},\"confidence\":{}}}}}",
                pick(CLASS_TOKENS, r),
                num(r)
            ),
        };
        fields.push(format!("\"verdict\":{verdict}"));
    }
    match *r % 12 {
        0 => fields.swap(0, 1),
        1 => {
            let dup = fields[(*r % 3) as usize].clone();
            fields.insert((*r % 4) as usize, dup);
        }
        2 => fields.insert((*r % 4) as usize, "\"extra\":1".to_string()),
        3 => {
            fields.pop();
        }
        _ => {}
    }
    let tag = if submit { "Submit" } else { "Verdict" };
    format!("{{\"{tag}\":{{{}}}}}", fields.join(","))
}

/// Damages a payload the way a broken or hostile peer might.
fn mutate(mut payload: Vec<u8>, r: &mut u64) -> Vec<u8> {
    let at = if payload.is_empty() {
        0
    } else {
        (*r >> 8) as usize % (payload.len() + 1)
    };
    match *r % 8 {
        0 => payload.truncate(at),
        1 => {
            let ws = [b' ', b'\n', b'\t', b'\r'][(*r >> 4) as usize % 4];
            payload.insert(at, ws);
        }
        2 => {
            if let Some(b) = payload.get_mut(at) {
                *b ^= 1 << ((*r >> 40) % 8);
            }
        }
        3 => {
            let bytes: &[u8] = if *r & 0x100 == 0 {
                "é".as_bytes()
            } else {
                &[0xff]
            };
            payload.splice(at..at, bytes.iter().copied());
        }
        4 => payload.insert(0, b' '),
        5 => payload.push(b' '),
        6 => payload.push((*r >> 16) as u8),
        _ => {}
    }
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writer_emits_the_serializers_bytes(frame in arb_frame()) {
        let payload = v1_payload(&frame);
        let oracle = serde_json::to_string(&frame).unwrap();
        prop_assert_eq!(String::from_utf8(payload).unwrap(), oracle);
    }

    #[test]
    fn canonical_frames_decode_like_the_serializer(frame in arb_frame()) {
        let payload = v1_payload(&frame);
        assert_decodes_like_generic(&payload);
        // The fast paths read the writer's own output.
        if let Frame::Submit { host_id, seq, .. } = frame {
            let mut scratch = Vec::new();
            prop_assert_eq!(decode_submit_into(&payload, &mut scratch), Some((host_id, seq)));
        }
        prop_assert!(decode_payload(&payload).is_ok());
    }

    #[test]
    fn mutated_canonical_frames_decode_like_the_serializer(frame in arb_frame(), word in any::<u64>()) {
        let mut r = word | 1;
        assert_decodes_like_generic(&mutate(v1_payload(&frame), &mut r));
    }

    #[test]
    fn odd_tokens_and_keys_decode_like_the_serializer(word in any::<u64>()) {
        let mut r = word | 1;
        for _ in 0..8 {
            let payload = templated_payload(&mut r).into_bytes();
            let payload = if r % 4 == 0 { mutate(payload, &mut r) } else { payload };
            assert_decodes_like_generic(&payload);
        }
    }

    #[test]
    fn arbitrary_bytes_decode_like_the_serializer(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        assert_decodes_like_generic(&bytes);
    }
}

#[test]
fn named_edge_payloads_decode_like_the_serializer() {
    let cases = [
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[-0,-0.0,0,null]}}"#,
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[1e400,-1e400,1e-400]}}"#,
        r#"{"Submit":{"host_id":007,"seq":00,"counters":[007.5]}}"#,
        r#"{"Submit":{"host_id":18446744073709551615,"seq":9223372036854775808,"counters":[]}}"#,
        r#"{"Submit":{"host_id":18446744073709551616,"seq":2,"counters":[]}}"#,
        r#"{"Submit":{"host_id":-0,"seq":1e3,"counters":[1]}}"#,
        r#"{"Submit":{"host_id":1.0,"seq":2,"counters":[9223372036854775808,18446744073709551616]}}"#,
        r#"{"Submit":{"seq":2,"host_id":1,"counters":[1.5]}}"#,
        r#"{"Submit":{"host_id":1,"seq":2,"seq":3,"counters":[1.5]}}"#,
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[1.5],"extra":true}}"#,
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[1.5,]}}"#,
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[1.5]}} "#,
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[1.5]}}x"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":null}}}"#,
        r#" {"Submit":{"host_id":1,"seq":2,"counters":[1.5]}}"#,
        r#"{"Submit": {"host_id":1,"seq":2,"counters":[1.5]}}"#,
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[1.5]}"#,
        r#"{"Submit":{"host_id":1,"seq":2,"counters":[nul]}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":null}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":"Benign"}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":"Malware"}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":{"Malware":{"class":"Benign","confidence":null}}}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":{"Malware":{"class":"Rootkit","confidence":-0}}}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":{"Malware":{"class":"Backdoor","confidence":0.5}}}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":{"Malware":{"confidence":0.5,"class":"Virus"}}}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":{"Malware":{"class":"Worm","confidence":0.5}}}}"#,
        r#"{"Verdict":{"host_id":1,"seq":2,"verdict":nullx}}"#,
        r#"{"Hello":{"version":1}}"#,
        r#"{"Drain":{"stats":null}}"#,
        r#"{"Error":{"code":"Malformed","detail":"x"}}"#,
        "",
        "{",
    ];
    for case in cases {
        assert_decodes_like_generic(case.as_bytes());
    }
    assert_decodes_like_generic(&[0xEE, 0xEE, 0xEE]);
    assert_decodes_like_generic(
        b"{\"Submit\":{\"host_id\":1,\"seq\":2,\"counters\":[1.5\xc3\xa9]}}",
    );
}
