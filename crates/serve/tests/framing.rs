//! Incremental framing and partial-I/O robustness.
//!
//! Two layers are pinned here:
//!
//! * **the frame assembler**: wire bytes split at *arbitrary* chunk
//!   boundaries (including mid-prefix, byte-at-a-time) reassemble to
//!   exactly the frames a whole-buffer reader would see; corrupt length
//!   prefixes yield a typed [`FramingError`] — sticky, never a panic,
//!   never a stuck state that silently swallows bytes;
//! * **the blocking client**: with deliberately tiny socket buffers,
//!   every request write and response read crosses the partial-I/O
//!   paths (short writes, short reads, `WouldBlock` ticks), and the
//!   answers stay bitwise identical to a local forward.

use std::time::Duration;

use proptest::prelude::*;

use deepmorph_models::{build_model, ModelFamily, ModelHandle, ModelScale, ModelSpec};
use deepmorph_serve::prelude::*;
use deepmorph_serve::protocol::{self, Request, MAX_FRAME_BYTES};
use deepmorph_serve::{FrameAssembler, FramingError};
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::Tensor;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// Feeds `wire` to a fresh assembler in one call and returns the frames.
fn assemble_whole(wire: &[u8]) -> Result<Vec<Vec<u8>>, FramingError> {
    let mut asm = FrameAssembler::for_protocol();
    let mut frames = Vec::new();
    asm.feed(wire, &mut frames)?;
    Ok(frames)
}

/// Feeds `wire` split at the given cut points (indices into `wire`,
/// deduplicated and sorted) and returns the frames.
fn assemble_split(wire: &[u8], cuts: &[usize]) -> Result<Vec<Vec<u8>>, FramingError> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(wire.len())).collect();
    bounds.push(0);
    bounds.push(wire.len());
    bounds.sort_unstable();
    bounds.dedup();
    let mut asm = FrameAssembler::for_protocol();
    let mut frames = Vec::new();
    for pair in bounds.windows(2) {
        asm.feed(&wire[pair[0]..pair[1]], &mut frames)?;
    }
    Ok(frames)
}

/// A small pool of structurally distinct requests to frame.
fn request_pool() -> Vec<Request> {
    let rows = Tensor::from_vec(
        (0..2 * 256).map(|i| (i as f32 * 0.37).sin()).collect(),
        &[2, 1, 16, 16],
    )
    .unwrap();
    vec![
        Request::Ping,
        Request::ListModels,
        Request::Telemetry,
        Request::Diagnose { model: "m".into() },
        Request::ListVersions { model: "m".into() },
        Request::Predict(protocol::PredictRequest {
            model: "lenet".into(),
            rows,
            want_logits: true,
            true_labels: vec![3, 7],
            deadline_ms: 250,
        }),
    ]
}

// ---------------------------------------------------------------------
// Property: arbitrary splits are invisible
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sequence of encoded requests, concatenated and split at
    /// arbitrary byte boundaries, reassembles to exactly the frames a
    /// single-shot feed produces — and each decodes to the original
    /// request id.
    #[test]
    fn arbitrary_splits_reassemble_identically(
        picks in proptest::collection::vec(0usize..6, 1..4),
        ids in proptest::collection::vec(1u64..u64::MAX, 3),
        cuts in proptest::collection::vec(0usize..200_000, 0..24),
    ) {
        let pool = request_pool();
        let mut wire = Vec::new();
        let mut want_ids = Vec::new();
        for (slot, &pick) in picks.iter().enumerate() {
            let id = ids[slot % ids.len()];
            wire.extend_from_slice(&protocol::encode_request(id, &pool[pick]));
            want_ids.push(id);
        }

        let whole = assemble_whole(&wire).unwrap();
        let split = assemble_split(&wire, &cuts).unwrap();
        prop_assert_eq!(&whole, &split, "chunk boundaries changed the frames");
        prop_assert_eq!(split.len(), picks.len());
        for (frame, want_id) in split.iter().zip(&want_ids) {
            let (id, _request) = protocol::decode_request(frame).unwrap();
            prop_assert_eq!(id, *want_id);
        }
    }

    /// Byte-at-a-time delivery (the worst case a socket can produce) is
    /// equivalent to one big read.
    #[test]
    fn byte_at_a_time_equals_single_feed(pick in 0usize..6, id in 1u64..u64::MAX) {
        let wire = protocol::encode_request(id, &request_pool()[pick]);
        let whole = assemble_whole(&wire).unwrap();

        let mut asm = FrameAssembler::for_protocol();
        let mut frames = Vec::new();
        for byte in &wire {
            asm.feed(std::slice::from_ref(byte), &mut frames).unwrap();
        }
        prop_assert!(!asm.mid_frame());
        prop_assert_eq!(frames, whole);
    }

    /// Garbage never panics or wedges: either the bytes happen to parse
    /// as frames (whose *decode* may then fail — that is the codec
    /// layer's problem) or the assembler reports a typed framing error,
    /// and once failed it stays failed.
    #[test]
    fn garbage_never_panics_and_errors_stick(
        junk in proptest::collection::vec(0u8..=255, 0..4096),
        cuts in proptest::collection::vec(0usize..4096, 0..16),
    ) {
        let whole = assemble_whole(&junk);
        let split = assemble_split(&junk, &cuts);
        match (whole, split) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.reason, b.reason),
            (a, b) => prop_assert!(false, "split changed outcome: {a:?} vs {b:?}"),
        }
    }

    /// A length prefix claiming more than `MAX_FRAME_BYTES` is rejected
    /// with a typed error immediately — no allocation of the claimed
    /// size, no waiting for bytes that will never come — and the error
    /// is sticky across further feeds.
    #[test]
    fn oversized_claims_fail_fast_and_stick(
        extra in (MAX_FRAME_BYTES as u32 + 1)..u32::MAX,
        tail in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut asm = FrameAssembler::for_protocol();
        let mut frames = Vec::new();
        let err = asm
            .feed(&extra.to_le_bytes(), &mut frames)
            .expect_err("oversized claim must be rejected");
        prop_assert!(err.reason.contains("frame"), "untyped reason: {}", err.reason);
        let again = asm.feed(&tail, &mut frames).expect_err("error must stick");
        prop_assert_eq!(again.reason, err.reason);
        prop_assert!(frames.is_empty());
    }
}

// ---------------------------------------------------------------------
// Client partial-I/O regression: tiny socket buffers
// ---------------------------------------------------------------------

fn lenet(seed: u64) -> ModelHandle {
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
    build_model(&spec, &mut stream_rng(seed, "framing-test")).unwrap()
}

/// With 2 KiB socket buffers, a 256 KiB request cannot be written in
/// one syscall and a multi-KiB response cannot be read in one: every
/// call crosses the client's partial-write loop and deadline-based
/// short-read loop. The answers must still be bitwise identical to a
/// local forward.
#[test]
fn client_survives_tiny_socket_buffers_bitwise() {
    let mut registry = ModelRegistry::new();
    registry.register("lenet", &mut lenet(41), None).unwrap();
    let server = Server::start(registry, ServerConfig::default()).unwrap();

    let mut local = lenet(41);
    let config = ClientConfig {
        response_timeout: Duration::from_secs(60),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(server.local_addr(), config).unwrap();
    deepmorph_net::set_socket_buffers(client.socket(), 2048, 2048).unwrap();

    let n = 64;
    for round in 0..3u64 {
        let data: Vec<f32> = (0..n * 256)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(round);
                ((h >> 40) as f32 / (1u64 << 24) as f32).fract()
            })
            .collect();
        let rows = Tensor::from_vec(data, &[n, 1, 16, 16]).unwrap();
        let response = client.predict_full("lenet", &rows, true, &[]).unwrap();
        let logits = response.logits.expect("want_logits was set");
        assert_eq!(logits.shape(), &[n, 10]);
        let expect = local.graph.forward_inference(&rows).unwrap();
        for (i, (a, b)) in expect.data().iter().zip(logits.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "logit {i} diverged under tiny socket buffers (round {round})"
            );
        }
        assert_eq!(response.predictions.len(), n);
    }
    server.shutdown();
}
