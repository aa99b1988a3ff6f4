//! Chaos tests: the serving stack under a deterministic fault storm.
//!
//! The contract under test is the one the whole PR exists for: with
//! transport faults (dropped/truncated/stalled/reset response frames)
//! and compute faults (worker panics, slow batches) injected at fixed
//! seeded rates, clients configured with retry **lose nothing and see
//! nothing wrong** — every request eventually gets a response that is
//! bitwise identical to the fault-free reference. Plus the supporting
//! machinery: rollback over the wire restores bitwise-previous serving,
//! deadlines shed late work with typed errors, the connection cap
//! rejects with a typed frame, and a panicked worker keeps serving.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use deepmorph_faults::{Fault, FaultPlan};
use deepmorph_models::{build_model, ModelFamily, ModelHandle, ModelScale, ModelSpec};
use deepmorph_serve::prelude::*;
use deepmorph_serve::protocol;
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::Tensor;

/// The fault plan is process-global: tests that install one serialize,
/// and so do fault-free tests, so another test's plan cannot hit them.
static FAULT_GUARD: Mutex<()> = Mutex::new(());

fn lenet(seed: u64) -> ModelHandle {
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
    build_model(&spec, &mut stream_rng(seed, "chaos-test")).unwrap()
}

fn registry_with(name: &str, seed: u64) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.register(name, &mut lenet(seed), None).unwrap();
    registry
}

/// Deterministic distinct input rows.
fn rows(n: usize, salt: u64) -> Tensor {
    let data = (0..n * 256)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt);
            ((h >> 40) as f32 / (1u64 << 24) as f32).fract()
        })
        .collect();
    Tensor::from_vec(data, &[n, 1, 16, 16]).unwrap()
}

fn row(all: &Tensor, i: usize) -> Tensor {
    Tensor::from_vec(all.data()[i * 256..(i + 1) * 256].to_vec(), &[1, 1, 16, 16]).unwrap()
}

#[test]
fn predict_storm_under_faults_loses_nothing_and_corrupts_nothing() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let model_seed = 50u64;
    let server = Server::start(registry_with("m", model_seed), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Fault-free reference: the bitwise answer every retry must converge
    // to, computed locally from the same model seed before the storm
    // starts (ModelHandle is not Send, tensors are).
    let mut reference = lenet(model_seed);
    let clients = 4usize;
    let per_client = 12usize;
    let expected: Vec<Vec<Tensor>> = (0..clients)
        .map(|c| {
            let inputs = rows(per_client, 1000 + c as u64);
            (0..per_client)
                .map(|i| {
                    reference
                        .graph
                        .forward_inference(&row(&inputs, i))
                        .expect("reference forward")
                })
                .collect()
        })
        .collect();

    deepmorph_faults::install(
        FaultPlan::new(0xC4A05)
            .with(Fault::NetDropFrame, 0.12)
            .with(Fault::NetPartialFrame, 0.08)
            .with(Fault::NetStallFrame, 0.05)
            .with(Fault::NetResetFrame, 0.05)
            .with(Fault::ComputePanic, 0.06)
            .with(Fault::ComputeSlowBatch, 0.05)
            .with_stall(Duration::from_millis(30))
            .with_slow(Duration::from_millis(10)),
    );

    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = expected
            .iter()
            .enumerate()
            .map(|(c, expected)| {
                scope.spawn(move || {
                    let mut client = Client::connect_with(
                        addr,
                        ClientConfig {
                            // Short enough that a dropped response frame
                            // costs one timeout, not the test budget.
                            response_timeout: Duration::from_millis(750),
                            retry: RetryPolicy {
                                max_attempts: 25,
                                base_backoff: Duration::from_millis(2),
                                max_backoff: Duration::from_millis(40),
                                jitter_seed: c as u64,
                            },
                        },
                    )
                    .expect("connect");
                    let inputs = rows(per_client, 1000 + c as u64);
                    let mut mismatches = Vec::new();
                    for (i, expect) in expected.iter().enumerate() {
                        let input = row(&inputs, i);
                        let response = client
                            .predict_full("m", &input, true, &[])
                            .unwrap_or_else(|e| panic!("client {c} lost request {i}: {e}"));
                        let got = response.logits.expect("asked for logits");
                        let bitwise_equal = expect.shape() == got.shape()
                            && expect
                                .data()
                                .iter()
                                .zip(got.data())
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if !bitwise_equal {
                            mismatches.push(i);
                        }
                    }
                    mismatches
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    // Capture the injection report before clear() resets it.
    let report = deepmorph_faults::report();
    deepmorph_faults::clear();

    // Zero lost: a panicking client thread above IS a lost response.
    let mut corrupted = 0usize;
    for result in outcome {
        let mismatches = result.expect("a client thread lost a request");
        corrupted += mismatches.len();
    }
    assert_eq!(corrupted, 0, "responses diverged from the reference");

    // The storm actually stormed: injected faults visible in the report
    // and in the server counters.
    let injected: u64 = report.iter().map(|c| c.injected).sum();
    assert!(injected > 0, "the fault plan never fired: {report:?}");

    let stats = server.stats();
    assert_eq!(
        stats.requests,
        stats.requests.max((clients * per_client) as u64),
        "retries can only add requests beyond the logical count"
    );

    // With the storm over, a fresh connection is served normally.
    let mut probe = Client::connect(addr).expect("post-storm connect");
    let response = probe
        .predict("m", &row(&rows(1, 7), 0))
        .expect("post-storm predict");
    assert_eq!(response.predictions.len(), 1);
    server.shutdown();
}

#[test]
fn worker_panic_is_contained_and_the_worker_keeps_serving() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let server = Server::start(registry_with("m", 51), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let input = rows(1, 7);

    // Every batch panics: the client sees a typed internal error, never
    // a hung socket or a dead server.
    deepmorph_faults::install(FaultPlan::new(3).with(Fault::ComputePanic, 1.0));
    match client.predict("m", &input) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("panicked"), "message: {message}");
        }
        other => panic!("expected a typed panic-containment error, got {other:?}"),
    }
    deepmorph_faults::clear();

    // The storm over, the same connection and the same worker serve.
    let response = client.predict("m", &input).expect("worker survived");
    assert_eq!(response.predictions.len(), 1);
    let stats = client.telemetry().unwrap().stats;
    assert!(stats.worker_panics >= 1, "panic was counted: {stats:?}");
    server.shutdown();
}

#[test]
fn rollback_over_the_wire_restores_bitwise_previous_serving() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let registry = registry_with("m", 52);
    let id = registry.find("m").unwrap();
    registry.publish(id, &mut lenet(53), None).unwrap();
    let server = Server::start(registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let input = rows(2, 9);

    // Serving v2 now.
    let versions = client.versions("m").unwrap();
    assert_eq!(versions.len(), 2);
    assert!(versions[1].active && versions[1].version == 2);
    let v1_fingerprint = versions[0].fingerprint.clone();

    let rolled = client.rollback("m").unwrap();
    assert_eq!(rolled.version, 1);
    assert_eq!(rolled.fingerprint, v1_fingerprint);

    // Responses now equal the v1 model, bitwise.
    let mut v1 = lenet(52);
    let expect = v1.graph.forward_inference(&input).unwrap();
    let got = client
        .predict_full("m", &input, true, &[])
        .unwrap()
        .logits
        .unwrap();
    for (a, b) in expect.data().iter().zip(got.data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "rollback must restore bitwise");
    }

    // No previous version left: typed refusal, not a crash.
    assert!(matches!(
        client.rollback("m"),
        Err(ServeError::Remote {
            code: ErrorCode::BadInput,
            ..
        })
    ));
    let stats = client.telemetry().unwrap().stats;
    assert_eq!(stats.rollbacks, 1);
    server.shutdown();
}

#[test]
fn expired_deadline_is_shed_with_a_typed_error() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let server = Server::start(registry_with("m", 54), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let input = rows(1, 3);

    // Stall the single worker long past the deadline budget: the job is
    // queued, its budget expires, and the shed happens *before* compute.
    deepmorph_faults::install(
        FaultPlan::new(5)
            .with(Fault::ComputeSlowBatch, 1.0)
            .with_slow(Duration::from_millis(300)),
    );
    let result = client.predict_within("m", &input, Duration::from_millis(60));
    deepmorph_faults::clear();
    match result {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Expired),
        // The client may instead time out locally waiting; both are
        // correct deadline behavior, but the typed path is the common
        // one (the stall delays the response past the budget).
        Err(ServeError::Io { .. }) => {}
        other => panic!("expected expiry, got {other:?}"),
    }

    // An achievable budget succeeds.
    let ok = client
        .predict_within("m", &input, Duration::from_secs(30))
        .expect("clean predict within budget");
    assert_eq!(ok.predictions.len(), 1);
    server.shutdown();
}

#[test]
fn connections_beyond_the_cap_get_a_typed_overloaded_frame() {
    let _guard = FAULT_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let server = Server::start(
        registry_with("m", 55),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Fill the only slot with a live connection.
    let mut first = Client::connect(addr).unwrap();
    assert_eq!(first.ping().unwrap(), 1);

    // The next connection is admitted at the TCP level but answered with
    // one typed overloaded frame and closed.
    let mut rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut prefix = [0u8; 4];
    rejected.read_exact(&mut prefix).unwrap();
    let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
    rejected.read_exact(&mut frame).unwrap();
    let (id, response) = protocol::decode_response(&frame).unwrap();
    assert_eq!(id, 0);
    match response {
        protocol::Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Overloaded);
            assert!(e.message.contains("connection limit"), "{}", e.message);
        }
        other => panic!("expected an overloaded frame, got {other:?}"),
    }
    assert_eq!(rejected.read(&mut prefix).unwrap_or(0), 0, "then closed");
    drop(rejected);

    // The admitted connection is unaffected, and once it closes the slot
    // frees for new clients.
    assert_eq!(first.ping().unwrap(), 1);
    let stats = first.telemetry().unwrap().stats;
    assert!(stats.conn_rejections >= 1);
    drop(first);
    for _ in 0..50 {
        // The server reaps finished connection threads at accept time;
        // retry until the slot frees.
        if let Ok(mut c) = Client::connect(addr) {
            if c.ping().is_ok() {
                server.shutdown();
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("connection slot never freed after the first client left");
}
