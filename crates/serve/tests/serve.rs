//! End-to-end tests of the serving layer.
//!
//! The load-bearing guarantees pinned here:
//!
//! * **batching is invisible**: responses produced by a coalesced batch
//!   are bitwise identical to solo responses, for rows pipelined on one
//!   connection and for concurrent clients;
//! * **admission is typed**: malformed rows never reach the scheduler's
//!   queue, and a full queue answers with a busy error, then serves again;
//! * **replies stay whole whoever writes them**: the scheduler worker,
//!   admin threads and the event loop write to one socket without
//!   interleaving frames, a reader too slow to keep up gets every frame
//!   exactly once, and a lone reply costs no extra event-loop wakeup;
//! * **the server never dies on client bytes**: garbage, truncated,
//!   oversized and retired-kind frames produce typed error frames (or a
//!   clean connection drop) and later clients still get service;
//! * **the diagnose endpoint works live**: labeled misclassified
//!   traffic accumulates and yields a well-formed `DefectReport`.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
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

/// Waits until the scheduler has queued at least one request.
fn wait_for_first_request(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().requests == 0 {
        assert!(
            Instant::now() < deadline,
            "the blocker never reached the queue"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

// ---------------------------------------------------------------------
// Scheduler level, driven through its one way in: requests pipelined on
// a single connection
// ---------------------------------------------------------------------

#[test]
fn scheduler_batched_outputs_equal_solo_outputs_bitwise() {
    let n = 8;
    let inputs = rows(n, 99);
    let server = Server::start(
        registry_with("m", 5),
        ServerConfig {
            max_batch: n,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // One worker, held busy by a large blocker request queued first. The
    // n single rows, sent in one write once it is queued, pile up behind
    // its forward; the worker then pops the first row and drains the
    // rest into one batch, coalescing through queue buildup alone.
    raw.write_all(&predict_request(0, rows(BLOCKER_ROWS, 7)))
        .unwrap();
    wait_for_first_request(&server);
    let wire: Vec<u8> = (0..n)
        .flat_map(|i| predict_request(i as u64 + 1, row(&inputs, i)))
        .collect();
    raw.write_all(&wire).unwrap();

    let mut model = lenet(5);
    let mut seen = BTreeSet::new();
    for _ in 0..=n {
        let (id, response) = read_response(&mut raw);
        let protocol::Response::Predict(p) = response else {
            panic!("request {id}: expected a predict reply, got {response:?}");
        };
        assert!(seen.insert(id), "request {id} answered twice");
        if id == 0 {
            continue;
        }
        // Solo reference: one forward of the one row.
        let input = row(&inputs, id as usize - 1);
        let solo = model.graph.forward_inference(&input).unwrap();
        assert_bitwise(&solo, &p.logits.unwrap(), &format!("request {id}"));
    }
    let snapshot = server.stats();
    server.shutdown();
    assert_eq!(snapshot.rows, (n + BLOCKER_ROWS) as u64);
    assert!(
        snapshot.coalesced_batches >= 1,
        "expected at least one coalesced batch, got {snapshot:?}"
    );
    assert!(
        snapshot.batches < (n + 1) as u64,
        "batching dispatched one forward per request: {snapshot:?}"
    );
}

/// Malformed rows are refused before they reach the queue. A queue
/// filled to capacity answers the overflow with a typed busy error,
/// then drains and serves again.
#[test]
fn scheduler_rejects_bad_input_and_fills_up() {
    let server = Server::start(
        registry_with("m", 6),
        ServerConfig {
            max_batch: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Wrong channel count, rank 1, and zero rows.
    for bad in [&[1, 3, 16, 16][..], &[256], &[0, 1, 16, 16]] {
        assert!(
            matches!(
                client.predict("m", &Tensor::zeros(bad)),
                Err(ServeError::Remote {
                    code: ErrorCode::BadInput,
                    ..
                })
            ),
            "input shape {bad:?}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.requests, 0, "a refused input reached the queue");
    assert_eq!(stats.errors, 3);

    // Fill up: with batching off, one worker drains one row per forward,
    // far slower than the event loop admits pipelined rows. A blocker
    // holds the worker first; four times the queue's capacity (1024
    // requests) follows it. The writer runs on its own thread so that
    // replies the test has not read yet never stall the requests.
    let sent = 4096u64;
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = raw.try_clone().unwrap();
    let wire: Vec<u8> = std::iter::once(predict_request(0, rows(BLOCKER_ROWS, 9)))
        .chain((1..=sent).map(|id| predict_request(id, rows(1, id))))
        .flatten()
        .collect();
    let sender = std::thread::spawn(move || writer.write_all(&wire).unwrap());
    let (mut seen, mut busy) = (BTreeSet::new(), 0u64);
    for _ in 0..=sent {
        let (id, response) = read_response(&mut raw);
        assert!(seen.insert(id), "request {id} answered twice");
        match response {
            protocol::Response::Predict(_) => {}
            protocol::Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Busy, "request {id}: {e:?}");
                busy += 1;
            }
            other => panic!("request {id}: unexpected reply {other:?}"),
        }
    }
    sender.join().unwrap();
    assert!(busy > 0, "the queue never filled: {:?}", server.stats());
    let stats = server.stats();
    assert_eq!(stats.busy_rejections, busy);
    assert_eq!(stats.requests, sent + 1 - busy);

    // Drained: the next request is served.
    assert_eq!(
        client.predict("m", &rows(2, 1)).unwrap().predictions.len(),
        2
    );
    server.shutdown();
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
            max_batch: 1,
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
            max_batch: n,
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
        wait_for_first_request(&batched_server);
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
/// and the connection must survive. While the backlog stands, a second
/// connection on the same event loop must still be served.
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
    let mut live = Client::connect_with(
        server.local_addr(),
        ClientConfig {
            response_timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    for salt in 1000..1008 {
        let input = rows(1, salt);
        let reply = live.predict_full("m", &input, true, &[]).unwrap();
        let expected = model.graph.forward_inference(&input).unwrap();
        assert_bitwise(
            &expected,
            &reply.logits.unwrap(),
            &format!("live row {salt}"),
        );
    }

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
/// answering pings, the scheduler worker answering predicts, and an
/// admin thread answering a diagnose. Every frame must decode, so no
/// writer ever split another's frame.
#[test]
fn mixed_writers_on_one_connection_never_interleave_frames() {
    let server = Server::start(registry_with("m", 19), ServerConfig::default()).unwrap();
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
