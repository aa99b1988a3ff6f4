//! Integration tests for the telemetry surface of the serving layer.
//!
//! Pinned here:
//!
//! * **telemetry is invisible**: logits served with the process-global
//!   registry armed are bitwise identical to logits served disarmed —
//!   observation must never perturb the answer;
//! * **per-version live stats are real**: labeled traffic with wrong
//!   labels shows up as a nonzero misclassification rate in the
//!   `Telemetry` frame fetched over the wire, keyed by the serving
//!   version's content fingerprint; the same frame's counters and
//!   exposition cover the load, and a cleared registry reports itself
//!   disarmed with the same per-version counts;
//! * **each server owns its counts**: two servers in one process serving
//!   the same model bytes each report only their own traffic, whether or
//!   not telemetry is armed.
//!
//! Telemetry arming is process-global, so the tests in this binary that
//! arm it serialize their armed windows behind one mutex (separate test
//! binaries are separate processes and need no coordination).

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use deepmorph_models::{build_model, ModelFamily, ModelHandle, ModelScale, ModelSpec};
use deepmorph_serve::prelude::*;
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::Tensor;

/// Guards the process-global telemetry registry across `#[test]`s.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn lenet(seed: u64) -> ModelHandle {
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
    build_model(&spec, &mut stream_rng(seed, "telemetry-test")).unwrap()
}

fn registry_with(name: &str, seed: u64) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.register(name, &mut lenet(seed), None).unwrap();
    registry
}

fn input_row(i: usize) -> Tensor {
    let data = (0..256)
        .map(|j| {
            let h = ((i * 256 + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32).fract()
        })
        .collect();
    Tensor::from_vec(data, &[1, 1, 16, 16]).unwrap()
}

/// Serves `n` rows against a fresh server and returns the logits.
fn serve_logits(n: usize) -> Vec<Tensor> {
    let server = Server::start(registry_with("m", 11), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let logits = (0..n)
        .map(|i| {
            client
                .predict_full("m", &input_row(i), true, &[])
                .unwrap()
                .logits
                .unwrap()
        })
        .collect();
    server.shutdown();
    logits
}

/// The acceptance-criteria digest test: the same rows served with
/// telemetry fully armed and with it off must produce bitwise-identical
/// logits. Observation is measurement-only — stage spans, histograms,
/// per-version counters, and the trace ring never touch the data path.
#[test]
fn armed_responses_are_bitwise_identical_to_disarmed() {
    let _guard = TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    deepmorph_telemetry::clear();
    let off = serve_logits(12);

    deepmorph_telemetry::install(TelemetryConfig::default());
    let on = serve_logits(12);
    let snapshot = deepmorph_telemetry::armed().expect("armed").snapshot();
    deepmorph_telemetry::clear();

    // The armed pass must actually have observed the traffic, or the
    // digest below would vacuously compare two unobserved runs.
    assert!(
        snapshot.request_us.count() >= 12,
        "armed pass recorded {} requests, expected >= 12",
        snapshot.request_us.count()
    );

    assert_eq!(off.len(), on.len());
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_eq!(a.shape(), b.shape());
        for (k, (va, vb)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "row {i} logit {k}: arming telemetry changed the response bits"
            );
        }
    }
}

/// Labeled traffic with deliberately wrong labels must surface as a
/// per-version misclassification rate in the wire `Telemetry` frame,
/// next to the server counters, the request histogram and a parseable
/// Prometheus exposition; once cleared, the frame reports disarmed.
#[test]
fn telemetry_frame_reports_live_misclassification_rate() {
    let _guard = TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let server = Server::start(registry_with("m", 23), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    deepmorph_telemetry::install(TelemetryConfig::default());
    // Learn the model's prediction for a row, then feed it back once
    // with the right label and three times with a wrong one: the rate
    // must land at exactly 3/4 for the serving version.
    let predicted = client.predict("m", &input_row(7)).unwrap().predictions[0];
    let wrong = (predicted + 1) % 10;
    client
        .predict_full("m", &input_row(7), false, &[predicted])
        .unwrap();
    for _ in 0..3 {
        client
            .predict_full("m", &input_row(7), false, &[wrong])
            .unwrap();
    }

    // A worker records a reply's latency after writing the reply, so the
    // last predict's sample can trail its response by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let report = loop {
        let report = client.telemetry().unwrap();
        if report.snapshot.request_us.count() >= 5 || Instant::now() > deadline {
            break report;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    // Disarmed, the frame still answers and reports itself disarmed.
    deepmorph_telemetry::clear();
    let disarmed = client.telemetry().unwrap();
    server.shutdown();

    assert!(report.armed);
    assert!(
        report.stats.requests >= 5,
        "server stats counted {} requests, expected >= 5",
        report.stats.requests
    );
    assert!(
        report.snapshot.request_us.count() >= 5,
        "request histogram recorded {} responses, expected >= 5",
        report.snapshot.request_us.count()
    );
    let version = report
        .versions
        .iter()
        .find(|v| v.labeled > 0)
        .expect("a version saw labeled traffic");
    assert!(
        !version.fingerprint.is_empty(),
        "stats keyed by fingerprint"
    );
    assert_eq!(version.labeled, 4);
    assert_eq!(version.misclassified, 3);
    assert!((version.misclassification_rate() - 0.75).abs() < 1e-9);
    assert!(version.requests >= 5, "all answered requests counted");

    // Every exposition sample is `name value` with a finite value.
    let mut samples = 0;
    for line in report.to_prometheus().lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("exposition line without a value: {line:?}"));
        assert!(!name.is_empty(), "empty metric name: {line:?}");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable exposition value: {line:?}"));
        assert!(value.is_finite(), "non-finite exposition value: {line:?}");
        samples += 1;
    }
    assert!(samples > 20, "only {samples} exposition samples");

    assert!(!disarmed.armed, "a cleared registry must report disarmed");
    assert_eq!(
        disarmed.snapshot.request_us.count(),
        0,
        "a disarmed report carries an empty snapshot"
    );
    assert_eq!(
        disarmed.versions, report.versions,
        "per-version counts report whether or not telemetry is armed"
    );
}

/// Per-version counts live on each server's own registry entries: two
/// servers over the same model bytes, in one process, each report
/// exactly the traffic they answered. The test never arms telemetry and
/// takes no lock, so it also runs while other tests arm it.
#[test]
fn each_server_counts_its_own_version_traffic() {
    let a = Server::start(registry_with("m", 41), ServerConfig::default()).unwrap();
    let b = Server::start(registry_with("m", 41), ServerConfig::default()).unwrap();
    let mut client_a = Client::connect(a.local_addr()).unwrap();
    let mut client_b = Client::connect(b.local_addr()).unwrap();
    for i in 0..3 {
        client_a.predict("m", &input_row(i)).unwrap();
    }
    for i in 0..5 {
        client_b.predict("m", &input_row(i)).unwrap();
    }
    let versions_a = client_a.telemetry().unwrap().versions;
    let versions_b = client_b.telemetry().unwrap().versions;
    a.shutdown();
    b.shutdown();

    assert_eq!(versions_a.len(), 1, "server A lists {versions_a:?}");
    assert_eq!(versions_b.len(), 1, "server B lists {versions_b:?}");
    assert_eq!(versions_a[0].fingerprint, versions_b[0].fingerprint);
    assert_eq!(versions_a[0].requests, 3);
    assert_eq!(versions_b[0].requests, 5);
    for v in [&versions_a[0], &versions_b[0]] {
        assert_eq!(v.labeled, 0);
        assert_eq!(v.misclassification_rate(), 0.0, "no labeled rows: rate 0");
    }
}

/// A request's trace stages are disjoint spans inside its total: queue
/// wait ends where a worker picks the request up, which is where its
/// batch's coalesce span begins, and the reply's socket write is the
/// flush span. (Frame assembly precedes admission, where the total
/// starts, so it is left out of the sum.)
#[test]
fn trace_stages_fit_inside_the_request_total() {
    let _guard = TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let server = Server::start(registry_with("m", 37), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    deepmorph_telemetry::install(TelemetryConfig { slow_traces: 64 });
    // Two concurrent clients, so some batches carry more than one rider.
    std::thread::scope(|scope| {
        for c in 0..2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..24 {
                    client.predict("m", &input_row(100 * c + i)).unwrap();
                }
            });
        }
    });
    // A worker records a reply's spans after writing it, so a client can
    // finish first; shutdown joins the workers.
    server.shutdown();
    let snapshot = deepmorph_telemetry::armed().expect("armed").snapshot();
    deepmorph_telemetry::clear();

    assert!(
        !snapshot.slowest.is_empty(),
        "the trace ring saw the traffic"
    );
    for trace in &snapshot.slowest {
        let spans: u64 = [
            Stage::QueueWait,
            Stage::Coalesce,
            Stage::Compute,
            Stage::Flush,
        ]
        .iter()
        .map(|s| trace.stages[s.index()])
        .sum();
        assert!(
            spans <= trace.total_us,
            "stage spans add up to {spans} us, more than the {} us total: {trace:?}",
            trace.total_us
        );
    }
    assert!(
        snapshot.stages[Stage::Flush.index()].count() >= 48,
        "every reply written straight to its socket records a flush span"
    );
}
