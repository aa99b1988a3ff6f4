//! End-to-end tests of the serving layer.
//!
//! The load-bearing guarantees pinned here:
//!
//! * **batching is invisible**: responses produced by a coalesced batch
//!   are bitwise identical to solo (max-batch = 1) responses, at both
//!   the scheduler and the TCP level;
//! * **replies stay whole whoever writes them**: workers, admin threads
//!   and the event loop write to one socket without interleaving frames,
//!   a reader too slow to keep up gets every frame exactly once, and a
//!   lone reply costs no extra event-loop wakeup;
//! * **the server never dies on client bytes**: garbage, truncated,
//!   oversized and retired-kind frames produce typed error frames (or a
//!   clean connection drop) and later clients still get service;
//! * **the diagnose endpoint works live**: labeled misclassified
//!   traffic accumulates and yields a well-formed `DefectReport`.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use deepmorph::prelude::DefectReport;
use deepmorph_data::{DataGenerator, DatasetKind, SynthDigits};
use deepmorph_models::{build_model, save_model, ModelFamily, ModelHandle, ModelScale, ModelSpec};
use deepmorph_serve::prelude::*;
use deepmorph_serve::protocol;
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::io::{seal_container, ByteWriter};
use deepmorph_tensor::Tensor;

fn lenet(seed: u64) -> ModelHandle {
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
    build_model(&spec, &mut stream_rng(seed, "serve-test")).unwrap()
}

fn registry_with(name: &str, seed: u64) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.register(name, &mut lenet(seed), None).unwrap();
    registry
}

/// Deterministic input rows (each distinct).
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

/// Rows in the request that holds a one-worker scheduler busy while the
/// rows under test queue up behind it. At least any test's `max_batch`,
/// so it always dispatches alone.
const BLOCKER_ROWS: usize = 512;

/// Reads one length-prefixed response frame off a raw socket.
fn read_response(raw: &mut TcpStream) -> (u64, protocol::Response) {
    let mut prefix = [0u8; 4];
    raw.read_exact(&mut prefix).unwrap();
    let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
    raw.read_exact(&mut frame).unwrap();
    protocol::decode_response(&frame).expect("every frame decodes whole")
}

fn predict_request(id: u64, rows: Tensor) -> Vec<u8> {
    protocol::encode_request(
        id,
        &protocol::Request::Predict(protocol::PredictRequest {
            model: "m".into(),
            rows,
            want_logits: true,
            true_labels: Vec::new(),
            deadline_ms: 0,
        }),
    )
}

fn assert_bitwise(expected: &Tensor, got: &Tensor, what: &str) {
    assert_eq!(expected.shape(), got.shape(), "{what}: shape");
    for (a, b) in expected.data().iter().zip(got.data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: logits diverged");
    }
}

// ---------------------------------------------------------------------
// Scheduler level: coalescing is deterministic and bitwise invisible
// ---------------------------------------------------------------------

#[test]
fn scheduler_batched_outputs_equal_solo_outputs_bitwise() {
    let registry = Arc::new(registry_with("m", 5));
    let m = registry.find("m").unwrap();
    let stats = Arc::new(ServeStats::default());
    let n = 8;
    let inputs = rows(n, 99);

    // Solo reference: max_batch = 1 forces one forward per request.
    let solo = Scheduler::new(
        Arc::clone(&registry),
        BatchConfig {
            max_batch: 1,
            workers: 1,
        },
        Arc::new(ServeStats::default()),
    );
    let solo_logits: Vec<Tensor> = (0..n)
        .map(|i| {
            let rx = solo.submit_rows(m, row(&inputs, i), true).unwrap();
            rx.recv().unwrap().unwrap().logits.unwrap()
        })
        .collect();
    solo.shutdown();

    // Batched: one worker, held busy by a large blocker request queued
    // first. The n single rows pile up behind it while its forward runs;
    // the worker then pops the first row and drains the rest into one
    // batch, coalescing through queue buildup alone.
    let batched = Scheduler::new(
        Arc::clone(&registry),
        BatchConfig {
            max_batch: n,
            workers: 1,
        },
        Arc::clone(&stats),
    );
    let blocker = batched
        .submit_rows(m, rows(BLOCKER_ROWS, 7), false)
        .unwrap();
    let receivers: Vec<_> = (0..n)
        .map(|i| batched.submit_rows(m, row(&inputs, i), true).unwrap())
        .collect();
    blocker.recv().unwrap().unwrap();
    let batched_logits: Vec<Tensor> = receivers
        .into_iter()
        .map(|rx| rx.recv().unwrap().unwrap().logits.unwrap())
        .collect();
    batched.shutdown();

    let snapshot = stats.snapshot();
    assert_eq!(snapshot.rows, (n + BLOCKER_ROWS) as u64);
    assert!(
        snapshot.coalesced_batches >= 1,
        "expected at least one coalesced batch, got {snapshot:?}"
    );
    assert!(
        snapshot.batches < (n + 1) as u64,
        "batching dispatched one forward per request: {snapshot:?}"
    );

    for (i, (a, b)) in solo_logits.iter().zip(&batched_logits).enumerate() {
        assert_eq!(a.shape(), b.shape());
        for (va, vb) in a.data().iter().zip(b.data()) {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "row {i}: batched logits diverged from solo"
            );
        }
    }
}

#[test]
fn scheduler_rejects_bad_input_and_fills_up() {
    let registry = Arc::new(registry_with("m", 6));
    let m = registry.find("m").unwrap();
    let scheduler = Scheduler::new(
        Arc::clone(&registry),
        BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        },
        Arc::new(ServeStats::default()),
    );
    // Wrong shape.
    assert!(matches!(
        scheduler.submit_rows(m, Tensor::zeros(&[1, 3, 16, 16]), false),
        Err(ServeError::BadInput { .. })
    ));
    // Wrong rank.
    assert!(matches!(
        scheduler.submit_rows(m, Tensor::zeros(&[256]), false),
        Err(ServeError::BadInput { .. })
    ));
    // Empty batch.
    assert!(matches!(
        scheduler.submit_rows(m, Tensor::zeros(&[0, 1, 16, 16]), false),
        Err(ServeError::BadInput { .. })
    ));
    scheduler.shutdown();
    assert!(matches!(
        scheduler.submit_rows(m, Tensor::zeros(&[1, 1, 16, 16]), false),
        Err(ServeError::ShuttingDown)
    ));
}

// ---------------------------------------------------------------------
// TCP level
// ---------------------------------------------------------------------

#[test]
fn tcp_round_trip_predict_listing_stats() {
    let server = Server::start(registry_with("lenet", 7), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert_eq!(client.ping().unwrap(), 1);
    let models = client.models().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].name, "lenet");
    assert_eq!(models[0].input_shape, [1, 16, 16]);
    assert_eq!(models[0].fingerprint.len(), 32);
    assert!(models[0].param_count > 100);

    let inputs = rows(4, 3);
    let response = client.predict_full("lenet", &inputs, true, &[]).unwrap();
    assert_eq!(response.predictions.len(), 4);
    let logits = response.logits.unwrap();
    assert_eq!(logits.shape(), &[4, 10]);
    // Served predictions equal a local eval forward, bitwise.
    let mut local = lenet(7);
    let expect = local.graph.forward_inference(&inputs).unwrap();
    for (a, b) in expect.data().iter().zip(logits.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Typed remote errors.
    assert!(matches!(
        client.predict("nope", &inputs),
        Err(ServeError::Remote {
            code: ErrorCode::UnknownModel,
            ..
        })
    ));
    assert!(matches!(
        client.predict("lenet", &Tensor::zeros(&[1, 3, 16, 16])),
        Err(ServeError::Remote {
            code: ErrorCode::BadInput,
            ..
        })
    ));
    assert!(matches!(
        client.predict_full("lenet", &row(&inputs, 0), false, &[1, 2]),
        Err(ServeError::Remote {
            code: ErrorCode::BadInput,
            ..
        })
    ));

    let stats = client.telemetry().unwrap().stats;
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.rows, 4);
    assert!(stats.errors >= 3);
    server.shutdown();
}

#[test]
fn tcp_batched_responses_equal_solo_responses_bitwise() {
    let n = 6;
    let inputs = rows(n, 17);

    // Solo server: batching disabled.
    let solo_server = Server::start(
        registry_with("m", 11),
        ServerConfig {
            batch: BatchConfig {
                max_batch: 1,
                workers: 1,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut solo_client = Client::connect(solo_server.local_addr()).unwrap();
    let solo: Vec<Tensor> = (0..n)
        .map(|i| {
            solo_client
                .predict_full("m", &row(&inputs, i), true, &[])
                .unwrap()
                .logits
                .unwrap()
        })
        .collect();
    solo_server.shutdown();

    // Batched server under concurrent clients, one worker. A blocker
    // request is queued first; only then are the clients, connected and
    // parked on a barrier, released to send their rows, which queue up
    // behind the blocker's forward and coalesce when it ends.
    let batched_server = Server::start(
        registry_with("m", 11),
        ServerConfig {
            batch: BatchConfig {
                max_batch: n,
                workers: 1,
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = batched_server.local_addr();
    let release = Barrier::new(n + 1);
    let results: Vec<Tensor> = std::thread::scope(|scope| {
        let mut blocker_client = Client::connect(addr).unwrap();
        let blocker =
            scope.spawn(move || blocker_client.predict("m", &rows(BLOCKER_ROWS, 5)).unwrap());
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let input = row(&inputs, i);
                let mut client = Client::connect(addr).unwrap();
                let release = &release;
                scope.spawn(move || {
                    release.wait();
                    client
                        .predict_full("m", &input, true, &[])
                        .unwrap()
                        .logits
                        .unwrap()
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while batched_server.stats().requests == 0 {
            assert!(
                Instant::now() < deadline,
                "the blocker never reached the queue"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        release.wait();
        blocker.join().unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let snapshot = batched_server.stats();
    batched_server.shutdown();
    assert_eq!(snapshot.rows, (n + BLOCKER_ROWS) as u64);
    assert!(
        snapshot.coalesced_batches >= 1,
        "expected at least one coalesced batch, got {snapshot:?}"
    );

    for (i, (a, b)) in solo.iter().zip(&results).enumerate() {
        for (va, vb) in a.data().iter().zip(b.data()) {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "row {i}: TCP batched response diverged from solo"
            );
        }
    }
}

/// A reader too slow for its replies: the client pipelines predicts
/// whose logits outweigh the requests many times over and reads nothing
/// until the server has had to buffer. Writes then come up short, the
/// remainder waits in the outbound buffer, and the event loop flushes it
/// as the client drains. Every frame must arrive whole and exactly once,
/// and the connection must survive.
#[test]
fn slow_reader_gets_every_frame_whole_and_keeps_its_connection() {
    // A wide output layer: 16 rows x 2048 classes = 128 KiB of logits
    // per reply, 16 MiB over the pipeline, far beyond what loopback
    // socket buffers hold for a reader that is not reading.
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 2048);
    let wide = || build_model(&spec, &mut stream_rng(31, "serve-test-wide")).unwrap();
    let mut registry = ModelRegistry::new();
    registry.register("m", &mut wide(), None).unwrap();
    let server = Server::start(registry, ServerConfig::default()).unwrap();
    let (requests, rows_each) = (128u64, 16);
    let reply_frame = protocol::encode_response(
        0,
        &protocol::Response::Predict(PredictResponse {
            predictions: vec![0; rows_each],
            logits: Some(Tensor::zeros(&[rows_each, 2048])),
        }),
    );

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = raw.try_clone().unwrap();
    // The writer runs on its own thread: once the server pauses reading
    // under backpressure, it blocks until the reader below drains.
    let sender = std::thread::spawn(move || {
        for id in 1..=requests {
            writer
                .write_all(&predict_request(id, rows(rows_each, id)))
                .unwrap();
        }
    });
    // Read nothing until a backlog formed: the high-water mark passes
    // one reply frame only once a frame queued behind buffered bytes.
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().outbound_hwm_bytes <= reply_frame.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "no reply was ever buffered: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut model = wide();
    let mut seen = BTreeSet::new();
    for _ in 0..requests {
        let (id, response) = read_response(&mut raw);
        let protocol::Response::Predict(p) = response else {
            panic!("request {id}: expected a predict reply, got {response:?}");
        };
        assert!(seen.insert(id), "request {id} answered twice");
        let expected = model.graph.forward_inference(&rows(rows_each, id)).unwrap();
        assert_bitwise(&expected, &p.logits.unwrap(), &format!("request {id}"));
    }
    sender.join().unwrap();
    assert_eq!(seen.len() as u64, requests, "every request answered");

    // Still the same, open connection.
    raw.write_all(&protocol::encode_request(
        u64::MAX,
        &protocol::Request::Ping,
    ))
    .unwrap();
    let (id, response) = read_response(&mut raw);
    assert_eq!(id, u64::MAX);
    assert!(matches!(response, protocol::Response::Pong { .. }));
    let stats = server.stats();
    assert_eq!(stats.conns_closed, 0, "the slow reader was disconnected");
    server.shutdown();
}

/// One connection, three kinds of writer at once: the event loop
/// answering pings, two scheduler workers answering predicts, and an
/// admin thread answering a diagnose. Every frame must decode, so no
/// writer ever split another's frame.
#[test]
fn mixed_writers_on_one_connection_never_interleave_frames() {
    let server = Server::start(
        registry_with("m", 19),
        ServerConfig {
            batch: BatchConfig {
                workers: 2,
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let pairs = 120u64;
    let diagnose_id = 2 * pairs + 1;
    let mut wire = Vec::new();
    for i in 0..pairs {
        wire.extend(protocol::encode_request(
            2 * i + 1,
            &protocol::Request::Ping,
        ));
        wire.extend(predict_request(2 * i + 2, rows(2, i)));
        if i == pairs / 2 {
            wire.extend(protocol::encode_request(
                diagnose_id,
                &protocol::Request::Diagnose { model: "m".into() },
            ));
        }
    }
    raw.write_all(&wire).unwrap();

    let mut model = lenet(19);
    let mut seen = BTreeSet::new();
    for _ in 0..diagnose_id {
        let (id, response) = read_response(&mut raw);
        assert!(seen.insert(id), "request {id} answered twice");
        match response {
            protocol::Response::Pong { .. } => assert_eq!(id % 2, 1, "pong for {id}"),
            protocol::Response::Predict(p) => {
                assert_eq!(id % 2, 0, "predict reply for {id}");
                let expected = model.graph.forward_inference(&rows(2, id / 2 - 1)).unwrap();
                assert_bitwise(&expected, &p.logits.unwrap(), &format!("request {id}"));
            }
            // The model has no provenance sidecar: the admin thread
            // answers with a typed refusal.
            protocol::Response::Error(e) => {
                assert_eq!(id, diagnose_id, "unexpected error for {id}: {e:?}");
                assert_eq!(e.code, ErrorCode::Diagnosis);
            }
            other => panic!("request {id}: unexpected reply {other:?}"),
        }
    }
    assert_eq!(seen.len() as u64, diagnose_id);
    server.shutdown();
}

/// Admin calls from concurrent clients are all answered, whether they
/// start an admin thread or reuse one an earlier call left idle.
#[test]
fn concurrent_admin_calls_are_all_answered() {
    let server = Server::start(registry_with("m", 41), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    // No provenance sidecar: a typed refusal.
                    assert!(matches!(
                        client.diagnose("m"),
                        Err(ServeError::Remote {
                            code: ErrorCode::Diagnosis,
                            ..
                        })
                    ));
                }
            });
        }
    });
    assert_eq!(server.stats().errors, 20);
    server.shutdown();
}

/// The reply path costs no event-loop wakeup: a predict wakes the loop
/// once, to read the request, and the worker writes the reply itself.
/// Counted, not timed, so it holds on any host.
#[test]
fn sequential_predicts_cost_about_one_loop_wakeup_each() {
    let server = Server::start(registry_with("m", 29), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let inputs = rows(1, 4);
    client.predict("m", &inputs).unwrap(); // replica warm-up
    let requests = 200u64;
    let before = server.stats();
    for _ in 0..requests {
        client.predict("m", &inputs).unwrap();
    }
    let after = server.stats();
    server.shutdown();
    let per_request = (after.loop_wakeups - before.loop_wakeups) as f64 / requests as f64;
    assert!(
        per_request <= 1.1,
        "{per_request:.2} loop wakeups per sequential predict (want <= 1.1)"
    );
}

#[test]
fn malformed_frames_never_kill_the_server() {
    let server = Server::start(registry_with("m", 13), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // 1. Pure garbage bytes with a plausible length prefix: the frame
    //    reads but fails container validation → typed error frame.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let junk = [0xDEu8; 64];
        raw.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&junk).unwrap();
        let mut prefix = [0u8; 4];
        raw.read_exact(&mut prefix).unwrap();
        let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
        raw.read_exact(&mut frame).unwrap();
        let (id, response) = protocol::decode_response(&frame).unwrap();
        assert_eq!(id, 0);
        match response {
            protocol::Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // 2. Oversized length claim → error frame, connection closed.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut prefix = [0u8; 4];
        raw.read_exact(&mut prefix).unwrap();
        let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
        raw.read_exact(&mut frame).unwrap();
        let (_, response) = protocol::decode_response(&frame).unwrap();
        assert!(matches!(response, protocol::Response::Error(_)));
        // The server hangs up after a framing violation.
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(raw.read(&mut prefix).unwrap_or(0), 0);
    }

    // 3. Truncated frame then disconnect: server must just drop it.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        drop(raw);
    }

    // 4. A bad frame then a good one on the SAME connection: framing was
    //    honored, so the server keeps serving the connection.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let junk = [7u8; 32];
        raw.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&junk).unwrap();
        let mut prefix = [0u8; 4];
        raw.read_exact(&mut prefix).unwrap();
        let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
        raw.read_exact(&mut frame).unwrap();
        assert!(matches!(
            protocol::decode_response(&frame).unwrap().1,
            protocol::Response::Error(_)
        ));
        raw.write_all(&protocol::encode_request(9, &protocol::Request::Ping))
            .unwrap();
        raw.read_exact(&mut prefix).unwrap();
        let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
        raw.read_exact(&mut frame).unwrap();
        let (id, response) = protocol::decode_response(&frame).unwrap();
        assert_eq!(id, 9);
        assert!(matches!(response, protocol::Response::Pong { .. }));
    }

    // 5. A well-formed frame of the retired kind 0x04 (the old stats
    //    request) is an unknown kind: a typed protocol error, and the
    //    same connection still answers a ping.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut body = ByteWriter::new();
        body.put_u8(0x04);
        body.put_u64(11);
        let container = seal_container(protocol::FRAME_MAGIC, body.as_slice());
        raw.write_all(&(container.len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(&container).unwrap();
        let (id, response) = read_response(&mut raw);
        assert_eq!(id, 0);
        match response {
            protocol::Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Protocol);
                assert!(e.message.contains("unknown request kind 0x04"), "{e:?}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        raw.write_all(&protocol::encode_request(12, &protocol::Request::Ping))
            .unwrap();
        let (id, response) = read_response(&mut raw);
        assert_eq!(id, 12);
        assert!(matches!(response, protocol::Response::Pong { .. }));
    }

    // After all the abuse, a fresh well-behaved client still gets
    // service.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap(), 1);
    let out = client.predict("m", &rows(2, 1)).unwrap();
    assert_eq!(out.predictions.len(), 2);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Registry from disk + live diagnosis
// ---------------------------------------------------------------------

#[test]
fn registry_dir_round_trip_and_live_diagnosis() {
    let dir = std::env::temp_dir().join(format!("deepmorph-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // An *untrained* model misclassifies plenty — exactly what the
    // diagnosis path needs to exercise.
    let seed = 21u64;
    let mut model = lenet(seed);
    save_model(dir.join("digits.dmmd"), &mut model).unwrap();
    let ctx = DiagnosisContext::new(DatasetKind::Digits, seed, 12);
    std::fs::write(dir.join("digits.meta.json"), ctx.to_json()).unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    assert_eq!(registry.len(), 1);
    let id = registry.find("digits").unwrap();
    assert_eq!(registry.current(id).diagnosis, Some(ctx));
    assert_eq!(registry.current(id).version, 1);

    let server = Server::start(
        registry,
        ServerConfig {
            deepmorph: deepmorph::pipeline::DeepMorphConfig {
                probe: deepmorph::instrument::ProbeTrainingConfig {
                    epochs: 4,
                    ..Default::default()
                },
                max_faulty_cases: 32,
                ..Default::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Diagnosis before any traffic: typed refusal, not a crash.
    assert!(matches!(
        client.diagnose("digits"),
        Err(ServeError::Remote {
            code: ErrorCode::Diagnosis,
            ..
        })
    ));

    // Send labeled traffic drawn from the model's own dataset family.
    let mut rng = stream_rng(77, "serve-test-traffic");
    let traffic = SynthDigits::new().generate(6, &mut rng);
    let response = client
        .predict_full("digits", traffic.images(), false, traffic.labels())
        .unwrap();
    assert_eq!(response.predictions.len(), traffic.len());

    let diagnosis = client.diagnose("digits").unwrap();
    assert!(diagnosis.cases > 0, "untrained model should misclassify");
    let report = DefectReport::from_json(&diagnosis.report_json).unwrap();
    assert_eq!(report.num_cases as u64, diagnosis.cases);
    let ratio_sum: f32 = report.ratios.as_array().iter().sum();
    assert!((ratio_sum - 1.0).abs() < 1e-4, "ratios sum to {ratio_sum}");
    assert!(report.subject.contains("digits@"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
