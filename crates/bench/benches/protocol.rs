//! Criterion benchmarks of the serving hot path: wire-protocol encode /
//! decode and the session engine's submit, the per-frame costs that bound
//! fleet-scale throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use hmd_serve::metrics::Metrics;
use hmd_serve::protocol::{encode, encode_frame_into, encode_into, Frame, FrameBuffer, WireFormat};
use hmd_serve::session::{SessionConfig, SessionEngine, SubmitBatch};
use hmd_serve::wire2;
use std::hint::black_box;
use std::sync::Arc;
use twosmart::detector::{TwoSmartDetector, Verdict};

fn submit_frame() -> Frame {
    Frame::Submit {
        host_id: 0xdead_beef,
        seq: 123_456,
        counters: vec![1.25e6, 3.1e5, 4.7e4, 9.9e3],
    }
}

fn verdict_frame() -> Frame {
    Frame::Verdict {
        host_id: 0xdead_beef,
        seq: 123_456,
        verdict: Some(Verdict::Malware {
            class: AppClass::Trojan,
            confidence: 0.875,
        }),
    }
}

/// The generic serializer's Submit encode (`Value` tree, fresh buffer):
/// the oracle the direct writer in `encode_into` is held to.
fn bench_encode(c: &mut Criterion) {
    let frame = submit_frame();
    c.bench_function("protocol/encode_submit", |b| {
        b.iter(|| encode(black_box(&frame)))
    });
}

/// The buffer-reusing variant an agent sends a Submit with: the same bytes
/// as `encode`, written by the direct writer into a persistent outbuf.
fn bench_encode_into(c: &mut Criterion) {
    let frame = submit_frame();
    let mut json = String::new();
    let mut out = Vec::new();
    c.bench_function("protocol/encode_submit_into", |b| {
        b.iter(|| {
            out.clear();
            encode_into(black_box(&frame), &mut json, &mut out);
            out.len()
        })
    });
}

/// Verdict encode through the direct-to-buffer writer — the server's
/// per-reply path. The generic serializer builds a `Value` tree per call;
/// this row pins the gain from writing the JSON bytes in place.
fn bench_encode_verdict_into(c: &mut Criterion) {
    let frame = verdict_frame();
    let mut json = String::new();
    let mut out = Vec::new();
    c.bench_function("protocol/encode_verdict_into", |b| {
        b.iter(|| {
            out.clear();
            encode_into(black_box(&frame), &mut json, &mut out);
            out.len()
        })
    });
}

/// Submit decode through `FrameBuffer::next_frame` (a fresh buffer each
/// time): the direct reader in `decode_payload`, building the `Frame`.
fn bench_decode(c: &mut Criterion) {
    let bytes = encode(&submit_frame());
    c.bench_function("protocol/decode_submit", |b| {
        b.iter(|| {
            let mut fb = FrameBuffer::new();
            fb.extend(black_box(&bytes));
            fb.next_frame().expect("valid frame")
        })
    });
}

/// Verdict decode as an agent, `DetectorClient` or loadgen reads its
/// reply: the v1 frame through a reused `FrameBuffer::next_frame`.
fn bench_decode_verdict(c: &mut Criterion) {
    let bytes = encode(&verdict_frame());
    let mut fb = FrameBuffer::new();
    c.bench_function("protocol/decode_verdict", |b| {
        b.iter(|| {
            fb.extend(black_box(&bytes));
            fb.next_frame().expect("valid frame")
        })
    });
}

/// v2 binary encode of the same Submit, into a reused buffer — the shape
/// of the server's reply path and the client's batched sends.
fn bench_encode_v2(c: &mut Criterion) {
    let frame = submit_frame();
    let mut out = Vec::new();
    c.bench_function("protocol/encode_submit_v2", |b| {
        b.iter(|| {
            out.clear();
            wire2::encode_into(black_box(&frame), &mut out);
            out.len()
        })
    });
}

/// v2 Submit decode through the server's scratch-reusing fast path.
fn bench_decode_v2(c: &mut Criterion) {
    let mut wire = Vec::new();
    wire2::encode_into(&submit_frame(), &mut wire);
    let payload = &wire[4..];
    let mut scratch: Vec<f64> = Vec::new();
    c.bench_function("protocol/decode_submit_v2", |b| {
        b.iter(|| wire2::decode_submit_into(black_box(payload), &mut scratch))
    });
}

/// One full serving exchange on the wire layer — encode a Submit, decode
/// it, encode the Verdict, decode that — per protocol version. The v2/v1
/// ratio here is the acceptance gate for the binary protocol.
fn bench_roundtrip_pair(c: &mut Criterion) {
    for format in [WireFormat::V1Json, WireFormat::V2Binary] {
        let name = match format {
            WireFormat::V1Json => "protocol/roundtrip_pair_v1",
            WireFormat::V2Binary => "protocol/roundtrip_pair_v2",
        };
        let submit = submit_frame();
        let verdict = verdict_frame();
        let mut json = String::new();
        let mut wire = Vec::new();
        let mut inbuf = FrameBuffer::with_format(format);
        c.bench_function(name, |b| {
            b.iter(|| {
                wire.clear();
                encode_frame_into(format, black_box(&submit), &mut json, &mut wire);
                inbuf.extend(&wire);
                let decoded_submit = inbuf.next_frame().expect("valid").expect("complete");
                wire.clear();
                encode_frame_into(format, black_box(&verdict), &mut json, &mut wire);
                inbuf.extend(&wire);
                let decoded_verdict = inbuf.next_frame().expect("valid").expect("complete");
                (decoded_submit, decoded_verdict)
            })
        });
    }
}

fn bench_session_submit(c: &mut Criterion) {
    let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
    let detector = AppClass::MALWARE
        .iter()
        .fold(
            TwoSmartDetector::builder().seed(0).hpc_budget(4),
            |b, &class| b.classifier_for(class, ClassifierKind::J48),
        )
        .train(&corpus)
        .expect("detector trains");
    let engine = SessionEngine::new(
        detector,
        &SessionConfig::default(),
        Arc::new(Metrics::new()),
    )
    .expect("engine builds");
    let counters = [1.25e6, 3.1e5, 4.7e4, 9.9e3];
    let mut seq = 0u64;
    // One-item drains through one reused batch, so no iteration allocates.
    let mut batch = SubmitBatch::new();
    c.bench_function("session/submit_single_host", |b| {
        b.iter(|| {
            seq += 1;
            batch.clear();
            batch.push(black_box(1), seq, black_box(&counters));
            engine.submit_batch(&mut batch);
            batch.results().all(|(_, r)| r.is_ok())
        })
    });
}

criterion_group!(
    benches,
    bench_encode,
    bench_encode_into,
    bench_encode_verdict_into,
    bench_decode,
    bench_decode_verdict,
    bench_encode_v2,
    bench_decode_v2,
    bench_roundtrip_pair,
    bench_session_submit
);
criterion_main!(benches);
