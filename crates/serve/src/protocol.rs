//! The length-prefixed binary wire protocol.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! frame_len  u32        little-endian byte length of what follows
//! container  [u8; len]  a `deepmorph_tensor::io` sealed container:
//!   magic     b"DMSV"
//!   version   u16       codec version
//!   len       u64       body length
//!   body      [u8; len] message (below)
//!   checksum  u64       FNV-64 over magic..body
//! ```
//!
//! The `u32` prefix tells the socket reader how many bytes to pull; the
//! container's own magic/version/length/checksum then validate them, so a
//! truncated, corrupted, or desynchronized stream always surfaces as a
//! typed [`CodecError`] — the server answers with an error frame and never
//! dies.
//!
//! A body is `kind: u8`, `id: u64` (echoed verbatim in the response),
//! then kind-specific fields built from the same [`ByteWriter`] /
//! [`ByteReader`] primitives every other format in this workspace uses.
//! Request kinds occupy `0x00..=0x7E`; a response reuses the request's
//! kind with the high bit set, and `0x7F` is the error frame.

use deepmorph_telemetry::{
    HistogramSnapshot, KernelTiming, TelemetrySnapshot, Trace, NUM_BUCKETS, STAGE_COUNT,
};
use deepmorph_tensor::io::{
    open_container, read_tensor, seal_container, write_tensor, ByteReader, ByteWriter, CodecError,
    CodecResult,
};
use deepmorph_tensor::Tensor;

use crate::error::ErrorCode;

/// Magic tag of a serve frame container.
pub const FRAME_MAGIC: [u8; 4] = *b"DMSV";

/// Upper bound on a frame's container length. A peer claiming more is
/// answered with a protocol error before anything is allocated.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

const KIND_PING: u8 = 0;
const KIND_LIST_MODELS: u8 = 1;
const KIND_PREDICT: u8 = 2;
const KIND_DIAGNOSE: u8 = 3;
// Kind 4 (a retired stats frame) is never reused.
const KIND_REPAIR: u8 = 5;
const KIND_LIST_VERSIONS: u8 = 6;
const KIND_ROLLBACK: u8 = 7;
const KIND_TELEMETRY: u8 = 8;
const RESPONSE_BIT: u8 = 0x80;
const KIND_ERROR: u8 = 0x7F;

/// Version tag of the telemetry response payload. The payload is
/// length-prefixed and append-only: a decoder reads the fields it knows
/// and skips the rest, so old clients tolerate counters and sections
/// appended by newer servers. It is the only wire view of the serving
/// counters and of each version's live-traffic counters.
pub const TELEMETRY_PAYLOAD_VERSION: u16 = 1;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Registry listing; answered with [`Response::Models`].
    ListModels,
    /// Batched inference; answered with [`Response::Predict`].
    Predict(PredictRequest),
    /// Live defect diagnosis over accumulated misclassified traffic;
    /// answered with [`Response::Diagnose`].
    Diagnose {
        /// Registered model name.
        model: String,
    },
    /// Close the loop: diagnose the accumulated traffic, derive and
    /// execute the repair, and — if the retrained model holds up on the
    /// held-out set — hot-swap it in as a new version. Answered with
    /// [`Response::Repair`].
    Repair {
        /// Registered model name.
        model: String,
    },
    /// Version-chain listing for one model; answered with
    /// [`Response::Versions`].
    ListVersions {
        /// Registered model name.
        model: String,
    },
    /// Ungated revert to the previous version in the chain (the escape
    /// hatch when a gated repair turns out bad in production). Answered
    /// with [`Response::Rollback`].
    Rollback {
        /// Registered model name.
        model: String,
    },
    /// Full observability dump — the serving counters and each held
    /// version's live-traffic counters, plus, while telemetry is armed,
    /// latency histograms, per-stage spans and slowest traces; answered
    /// with [`Response::Telemetry`].
    Telemetry,
}

/// Payload of [`Request::Predict`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Registered model name.
    pub model: String,
    /// Input rows, `[n, c, h, w]` matching the model's input shape.
    pub rows: Tensor,
    /// Return the raw logits alongside the argmax predictions.
    pub want_logits: bool,
    /// Ground-truth labels (one per row) for live defect accumulation;
    /// empty for unlabeled traffic.
    pub true_labels: Vec<usize>,
    /// Deadline budget in milliseconds, measured from the moment the
    /// server reads the frame; `0` means no deadline. A request still
    /// queued when its budget runs out is shed before compute with a
    /// typed [`ErrorCode::Expired`] frame.
    pub deadline_ms: u64,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Number of registered models.
        models: u64,
    },
    /// Answer to [`Request::ListModels`].
    Models(Vec<ModelInfo>),
    /// Answer to [`Request::Predict`].
    Predict(PredictResponse),
    /// Answer to [`Request::Diagnose`].
    Diagnose(DiagnoseResponse),
    /// Answer to [`Request::Repair`].
    Repair(RepairResponse),
    /// Answer to [`Request::ListVersions`].
    Versions(Vec<VersionInfo>),
    /// Answer to [`Request::Rollback`].
    Rollback(RollbackResponse),
    /// Answer to [`Request::Telemetry`].
    Telemetry(TelemetryReport),
    /// Typed failure; may answer any request.
    Error(ErrorFrame),
}

/// Payload of [`Response::Telemetry`]: the serving counters, each held
/// version's live-traffic counters, and everything the armed
/// [`deepmorph_telemetry`] registry aggregated. When telemetry is not
/// armed, `armed` is `false` and `snapshot` is empty — both counter
/// sets still report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// The lifetime serving counters, reported whether or not telemetry
    /// is armed. The payload opens with them, count-prefixed so appended
    /// counters don't break old clients.
    pub stats: StatsSnapshot,
    /// Whether a telemetry registry was armed when the snapshot was
    /// taken.
    pub armed: bool,
    /// Histograms, stage spans, slow traces, and kernel timings.
    pub snapshot: TelemetrySnapshot,
    /// Live traffic of every version the server's registry holds in
    /// memory (each model's serving version and its retained superseded
    /// ones), reported whether or not telemetry is armed.
    pub versions: Vec<VersionTraffic>,
}

/// Live-traffic counters of one model version, counted by the server
/// that serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionTraffic {
    /// Content fingerprint of the version.
    pub fingerprint: String,
    /// Predict requests answered.
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Requests shed as expired.
    pub expired: u64,
    /// Labeled rows predicted.
    pub labeled: u64,
    /// Labeled rows predicted wrong.
    pub misclassified: u64,
}

impl VersionTraffic {
    /// Live misclassification rate over labeled traffic (0 when no
    /// labeled rows were seen) — the drift signal an autonomous repair
    /// controller watches per version.
    pub fn misclassification_rate(&self) -> f64 {
        if self.labeled == 0 {
            0.0
        } else {
            self.misclassified as f64 / self.labeled as f64
        }
    }
}

impl TelemetryReport {
    /// Renders the report as Prometheus text exposition: the lifetime
    /// counters as `deepmorph_<name>` gauges/counters, the per-version
    /// `deepmorph_version_*` series, then the snapshot's histogram
    /// series.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = &self.stats;
        for (name, value) in [
            ("requests_total", s.requests),
            ("rows_total", s.rows),
            ("batches_total", s.batches),
            ("coalesced_batches_total", s.coalesced_batches),
            ("errors_total", s.errors),
            ("busy_rejections_total", s.busy_rejections),
            ("diagnoses_total", s.diagnoses),
            ("probe_trainings_total", s.probe_trainings),
            ("repairs_total", s.repairs),
            ("swaps_total", s.swaps),
            ("expired_total", s.expired),
            ("worker_panics_total", s.worker_panics),
            ("rollbacks_total", s.rollbacks),
            ("conn_rejections_total", s.conn_rejections),
            ("active_connections", s.active_connections),
            ("conns_accepted_total", s.conns_accepted),
            ("conns_closed_total", s.conns_closed),
            ("outbound_hwm_bytes", s.outbound_hwm_bytes),
            ("loop_wakeups_total", s.loop_wakeups),
            ("accept_backoffs_total", s.accept_backoffs),
        ] {
            let _ = writeln!(out, "deepmorph_{name} {value}");
        }
        let _ = writeln!(out, "deepmorph_telemetry_armed {}", u64::from(self.armed));
        for v in &self.versions {
            let fp = &v.fingerprint;
            for (name, value) in [
                ("requests_total", v.requests),
                ("errors_total", v.errors),
                ("expired_total", v.expired),
                ("labeled_total", v.labeled),
                ("misclassified_total", v.misclassified),
            ] {
                let _ = writeln!(
                    out,
                    "deepmorph_version_{name}{{fingerprint=\"{fp}\"}} {value}"
                );
            }
            let _ = writeln!(
                out,
                "deepmorph_version_misclassification_rate{{fingerprint=\"{fp}\"}} {}",
                v.misclassification_rate()
            );
        }
        out.push_str(&self.snapshot.to_prometheus());
        out
    }
}

/// One registry entry as reported by [`Response::Models`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registered name (the file stem for directory-loaded registries).
    pub name: String,
    /// Version currently serving under this name (starts at 1; bumped by
    /// every hot-swapped repair).
    pub version: u32,
    /// 128-bit content fingerprint of the model container, as hex.
    pub fingerprint: String,
    /// Expected input shape `[c, h, w]`.
    pub input_shape: [usize; 3],
    /// Number of output classes.
    pub num_classes: usize,
    /// Trainable parameter count.
    pub param_count: u64,
}

/// Payload of [`Response::Predict`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Argmax class per input row.
    pub predictions: Vec<usize>,
    /// Raw logits `[n, classes]` when the request set `want_logits`.
    pub logits: Option<Tensor>,
}

/// Payload of [`Response::Diagnose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnoseResponse {
    /// The `DefectReport` as JSON (parse with
    /// `deepmorph::report::DefectReport::from_json`).
    pub report_json: String,
    /// Number of accumulated misclassified cases the report covers.
    pub cases: u64,
}

/// Serving counters, carried on the wire by [`TelemetryReport::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Predict requests accepted into the queue.
    pub requests: u64,
    /// Input rows run through a model.
    pub rows: u64,
    /// `Graph::forward` calls (dispatched batches).
    pub batches: u64,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: u64,
    /// Error frames sent.
    pub errors: u64,
    /// Requests rejected because the queue was full.
    pub busy_rejections: u64,
    /// Diagnose calls answered (repair calls include one).
    pub diagnoses: u64,
    /// Diagnosis sessions prepared — each is one probe-training pass. A
    /// second diagnose of an unchanged model must not move this counter:
    /// sessions are memoized per model content fingerprint.
    pub probe_trainings: u64,
    /// Repair calls answered.
    pub repairs: u64,
    /// Hot-swaps performed (repairs whose gate passed).
    pub swaps: u64,
    /// Requests shed because their deadline expired before compute.
    pub expired: u64,
    /// Worker panics contained by the scheduler (each one drops a batch
    /// but leaves the worker serving).
    pub worker_panics: u64,
    /// Rollback calls that reverted a version.
    pub rollbacks: u64,
    /// Connections rejected because the connection cap was reached.
    pub conn_rejections: u64,
    /// Connections currently registered with the event loops (a gauge,
    /// not a monotonic counter).
    pub active_connections: u64,
    /// Connections admitted past the cap check since start.
    pub conns_accepted: u64,
    /// Admitted connections that have since closed.
    pub conns_closed: u64,
    /// Largest per-connection outbound buffer observed, in bytes — how
    /// close a slow reader has come to the backpressure limit.
    pub outbound_hwm_bytes: u64,
    /// Event-loop `epoll_wait` returns. Mostly a liveness signal: a
    /// serving loop under traffic must keep waking.
    pub loop_wakeups: u64,
    /// Accept backoffs taken after `EMFILE`/`ENFILE` (fd exhaustion).
    pub accept_backoffs: u64,
}

/// One version of a model's chain as reported by
/// [`Response::Versions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// Version number (starts at 1).
    pub version: u32,
    /// Content fingerprint of that version's container.
    pub fingerprint: String,
    /// `true` for the version currently serving.
    pub active: bool,
}

/// Payload of [`Response::Repair`]: what the diagnose → repair →
/// hot-swap loop did.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairResponse {
    /// Human-readable repair plan that was executed.
    pub plan: String,
    /// Accumulated misclassified cases the diagnosis covered.
    pub cases: u64,
    /// Held-out accuracy of the version that was serving when the repair
    /// started.
    pub accuracy_before: f32,
    /// Held-out accuracy of the repaired, retrained model.
    pub accuracy_after: f32,
    /// Whether the repaired model was swapped in (`false` when the gate
    /// rejected it because it was no better than the serving version).
    pub swapped: bool,
    /// Version serving after this call (unchanged when not swapped).
    pub version: u32,
    /// Fingerprint of the version serving after this call.
    pub fingerprint: String,
    /// Wall time of the atomic swap itself — publish + traffic-buffer
    /// reset, not the retraining — in microseconds (0 when not swapped).
    pub swap_micros: u64,
}

/// Payload of [`Response::Rollback`]: the revert that was performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackResponse {
    /// Version serving after the rollback (the previous version in the
    /// chain, keeping its original number).
    pub version: u32,
    /// Fingerprint of the version serving after the rollback.
    pub fingerprint: String,
    /// Wall time of the atomic revert — pointer swap + traffic-buffer
    /// reset — in microseconds.
    pub swap_micros: u64,
}

/// Payload of [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Error category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

fn finish(kind: u8, id: u64, body: ByteWriter) -> Vec<u8> {
    let mut full = ByteWriter::new();
    full.put_u8(kind);
    full.put_u64(id);
    full.put_bytes(body.as_slice());
    let container = seal_container(FRAME_MAGIC, full.as_slice());
    let mut wire = Vec::with_capacity(4 + container.len());
    wire.extend_from_slice(&(container.len() as u32).to_le_bytes());
    wire.extend_from_slice(&container);
    wire
}

/// Encodes a request as wire bytes (length prefix included).
pub fn encode_request(id: u64, request: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let kind = match request {
        Request::Ping => KIND_PING,
        Request::ListModels => KIND_LIST_MODELS,
        Request::Predict(p) => {
            w.put_str(&p.model);
            w.put_u8(u8::from(p.want_logits));
            w.put_u64(p.deadline_ms);
            write_tensor(&mut w, &p.rows);
            w.put_usizes(&p.true_labels);
            KIND_PREDICT
        }
        Request::Diagnose { model } => {
            w.put_str(model);
            KIND_DIAGNOSE
        }
        Request::Repair { model } => {
            w.put_str(model);
            KIND_REPAIR
        }
        Request::ListVersions { model } => {
            w.put_str(model);
            KIND_LIST_VERSIONS
        }
        Request::Rollback { model } => {
            w.put_str(model);
            KIND_ROLLBACK
        }
        Request::Telemetry => KIND_TELEMETRY,
    };
    finish(kind, id, w)
}

/// Serving-counter values in their canonical wire order: the telemetry
/// payload's counter list, prefixed there with a count so the list can
/// grow. The one spelling of that order; the payload encodes through
/// here and decodes through [`stats_from_values`], and
/// `wire_layout.golden` pins it.
fn stats_values(s: &StatsSnapshot) -> [u64; 20] {
    [
        s.requests,
        s.rows,
        s.batches,
        s.coalesced_batches,
        s.errors,
        s.busy_rejections,
        s.diagnoses,
        s.probe_trainings,
        s.repairs,
        s.swaps,
        s.expired,
        s.worker_panics,
        s.rollbacks,
        s.conn_rejections,
        s.active_connections,
        s.conns_accepted,
        s.conns_closed,
        s.outbound_hwm_bytes,
        s.loop_wakeups,
        s.accept_backoffs,
    ]
}

fn stats_from_values(values: &[u64; 20]) -> StatsSnapshot {
    StatsSnapshot {
        requests: values[0],
        rows: values[1],
        batches: values[2],
        coalesced_batches: values[3],
        errors: values[4],
        busy_rejections: values[5],
        diagnoses: values[6],
        probe_trainings: values[7],
        repairs: values[8],
        swaps: values[9],
        expired: values[10],
        worker_panics: values[11],
        rollbacks: values[12],
        conn_rejections: values[13],
        active_connections: values[14],
        conns_accepted: values[15],
        conns_closed: values[16],
        outbound_hwm_bytes: values[17],
        loop_wakeups: values[18],
        accept_backoffs: values[19],
    }
}

/// Sparse histogram encoding: total bucket count, then `(index, count)`
/// pairs for the nonzero buckets only — a mostly-empty 1024-bucket
/// histogram costs a few dozen bytes, not 8 KiB.
fn write_histogram(w: &mut ByteWriter, hist: &HistogramSnapshot) {
    w.put_u64(hist.buckets.len() as u64);
    let nonzero = hist.buckets.iter().filter(|&&n| n > 0).count();
    w.put_u64(nonzero as u64);
    for (index, &count) in hist.buckets.iter().enumerate() {
        if count > 0 {
            w.put_u64(index as u64);
            w.put_u64(count);
        }
    }
}

fn read_histogram(r: &mut ByteReader<'_>) -> CodecResult<HistogramSnapshot> {
    // The sender's bucket count is informational: a peer with a larger
    // layout folds out-of-range indices into our top (saturation) bucket.
    let _sender_buckets = r.get_u64("histogram buckets")?;
    let nonzero = r.get_len("histogram nonzero")?;
    let mut snapshot = HistogramSnapshot::default();
    // Bounding the total bounds every bucket, and every later
    // `count`/`quantile` over the decoded snapshot.
    let mut total = 0u64;
    for _ in 0..nonzero {
        let index = r.get_len("histogram index")?.min(NUM_BUCKETS - 1);
        let count = r.get_u64("histogram count")?;
        total = total
            .checked_add(count)
            .ok_or_else(|| CodecError::Invalid {
                context: "histogram counts overflow u64".into(),
            })?;
        snapshot.buckets[index] += count;
    }
    Ok(snapshot)
}

fn write_telemetry_payload(w: &mut ByteWriter, t: &TelemetryReport) {
    let counters = stats_values(&t.stats);
    w.put_u64(counters.len() as u64);
    for v in counters {
        w.put_u64(v);
    }
    w.put_u8(u8::from(t.armed));
    write_histogram(w, &t.snapshot.request_us);
    w.put_u64(t.snapshot.stages.len() as u64);
    for stage in &t.snapshot.stages {
        write_histogram(w, stage);
    }
    w.put_u64(t.versions.len() as u64);
    for v in &t.versions {
        w.put_str(&v.fingerprint);
        for value in [v.requests, v.errors, v.expired, v.labeled, v.misclassified] {
            w.put_u64(value);
        }
    }
    w.put_u64(t.snapshot.slowest.len() as u64);
    for trace in &t.snapshot.slowest {
        w.put_u64(trace.id);
        w.put_u64(trace.total_us);
        for &micros in &trace.stages {
            w.put_u64(micros);
        }
    }
    w.put_u64(t.snapshot.kernels.len() as u64);
    for kernel in &t.snapshot.kernels {
        w.put_u64(kernel.m);
        w.put_u64(kernel.k);
        w.put_u64(kernel.n);
        write_histogram(w, &kernel.nanos);
    }
}

fn read_telemetry_payload(r: &mut ByteReader<'_>) -> CodecResult<TelemetryReport> {
    // Counters: count-prefixed so a newer server can append fields
    // without breaking this decoder — unknown trailing counters are
    // consumed and dropped.
    let counter_count = r.get_len("telemetry counter count")?;
    let mut counters = [0u64; 20];
    for slot in 0..counter_count {
        let value = r.get_u64("telemetry counter")?;
        if slot < counters.len() {
            counters[slot] = value;
        }
    }
    let armed = r.get_u8("telemetry armed")? != 0;
    let request_us = read_histogram(r)?;
    // Consumers index stages by `Stage`: keep our fixed set, read and
    // drop the rest (an empty histogram is 16 bytes on the wire but a
    // dense 8 KiB decoded), and pad a short (older) sender.
    let stage_count = r.get_len("telemetry stage count")?;
    let mut stages = Vec::with_capacity(STAGE_COUNT);
    for slot in 0..stage_count {
        let hist = read_histogram(r)?;
        if slot < STAGE_COUNT {
            stages.push(hist);
        }
    }
    stages.resize_with(STAGE_COUNT, HistogramSnapshot::default);
    let version_count = r.get_len("telemetry version count")?;
    let mut versions = Vec::with_capacity(version_count.min(64));
    for _ in 0..version_count {
        let fingerprint = r.get_str("telemetry version fingerprint")?;
        let mut values = [0u64; 5];
        for value in &mut values {
            *value = r.get_u64("telemetry version counter")?;
        }
        versions.push(VersionTraffic {
            fingerprint,
            requests: values[0],
            errors: values[1],
            expired: values[2],
            labeled: values[3],
            misclassified: values[4],
        });
    }
    let trace_count = r.get_len("telemetry trace count")?;
    let mut slowest = Vec::with_capacity(trace_count.min(64));
    for _ in 0..trace_count {
        let mut trace = Trace {
            id: r.get_u64("telemetry trace id")?,
            total_us: r.get_u64("telemetry trace total")?,
            stages: [0; STAGE_COUNT],
        };
        // Traces carry one span per stage the *sender* knew about;
        // spans past our fixed set are consumed and dropped.
        for slot in 0..stage_count {
            let micros = r.get_u64("telemetry trace stage")?;
            if slot < STAGE_COUNT {
                trace.stages[slot] = micros;
            }
        }
        slowest.push(trace);
    }
    let kernel_count = r.get_len("telemetry kernel count")?;
    let mut kernels = Vec::with_capacity(kernel_count.min(64));
    for _ in 0..kernel_count {
        kernels.push(KernelTiming {
            m: r.get_u64("telemetry kernel m")?,
            k: r.get_u64("telemetry kernel k")?,
            n: r.get_u64("telemetry kernel n")?,
            nanos: read_histogram(r)?,
        });
    }
    Ok(TelemetryReport {
        stats: stats_from_values(&counters),
        armed,
        snapshot: TelemetrySnapshot {
            request_us,
            stages,
            slowest,
            kernels,
        },
        versions,
    })
}

/// Encodes a response as wire bytes (length prefix included).
pub fn encode_response(id: u64, response: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let kind = match response {
        Response::Pong { models } => {
            w.put_u64(*models);
            RESPONSE_BIT | KIND_PING
        }
        Response::Models(models) => {
            w.put_u64(models.len() as u64);
            for m in models {
                w.put_str(&m.name);
                w.put_u64(u64::from(m.version));
                w.put_str(&m.fingerprint);
                for &d in &m.input_shape {
                    w.put_u64(d as u64);
                }
                w.put_u64(m.num_classes as u64);
                w.put_u64(m.param_count);
            }
            RESPONSE_BIT | KIND_LIST_MODELS
        }
        Response::Predict(p) => {
            w.put_usizes(&p.predictions);
            w.put_u8(u8::from(p.logits.is_some()));
            if let Some(logits) = &p.logits {
                write_tensor(&mut w, logits);
            }
            RESPONSE_BIT | KIND_PREDICT
        }
        Response::Diagnose(d) => {
            w.put_str(&d.report_json);
            w.put_u64(d.cases);
            RESPONSE_BIT | KIND_DIAGNOSE
        }
        Response::Repair(r) => {
            w.put_str(&r.plan);
            w.put_u64(r.cases);
            w.put_f32(r.accuracy_before);
            w.put_f32(r.accuracy_after);
            w.put_u8(u8::from(r.swapped));
            w.put_u64(u64::from(r.version));
            w.put_str(&r.fingerprint);
            w.put_u64(r.swap_micros);
            RESPONSE_BIT | KIND_REPAIR
        }
        Response::Versions(versions) => {
            w.put_u64(versions.len() as u64);
            for v in versions {
                w.put_u64(u64::from(v.version));
                w.put_str(&v.fingerprint);
                w.put_u8(u8::from(v.active));
            }
            RESPONSE_BIT | KIND_LIST_VERSIONS
        }
        Response::Rollback(r) => {
            w.put_u64(u64::from(r.version));
            w.put_str(&r.fingerprint);
            w.put_u64(r.swap_micros);
            RESPONSE_BIT | KIND_ROLLBACK
        }
        Response::Telemetry(t) => {
            // Versioned and length-prefixed: the outer decoder consumes
            // the payload as one opaque blob, so fields appended inside
            // it never trip the trailing-bytes check of old clients.
            let mut payload = ByteWriter::new();
            write_telemetry_payload(&mut payload, t);
            w.put_u16(TELEMETRY_PAYLOAD_VERSION);
            w.put_u64(payload.as_slice().len() as u64);
            w.put_bytes(payload.as_slice());
            RESPONSE_BIT | KIND_TELEMETRY
        }
        Response::Error(e) => {
            w.put_u8(e.code.tag());
            w.put_str(&e.message);
            KIND_ERROR
        }
    };
    finish(kind, id, w)
}

fn open_body(frame: &[u8]) -> CodecResult<(u8, u64, ByteReader<'_>)> {
    let payload = open_container(FRAME_MAGIC, frame)?;
    let mut r = ByteReader::new(payload);
    let kind = r.get_u8("frame kind")?;
    let id = r.get_u64("frame id")?;
    Ok((kind, id, r))
}

fn expect_exhausted(r: &ByteReader<'_>, what: &str) -> CodecResult<()> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(CodecError::Invalid {
            context: format!("{} trailing bytes after {what}", r.remaining()),
        })
    }
}

/// Decodes a request frame (container bytes, without the `u32` prefix).
///
/// # Errors
///
/// Returns the typed [`CodecError`] for truncation, corruption, version
/// skew, or an unknown request kind.
pub fn decode_request(frame: &[u8]) -> CodecResult<(u64, Request)> {
    let (kind, id, mut r) = open_body(frame)?;
    let request = match kind {
        KIND_PING => Request::Ping,
        KIND_LIST_MODELS => Request::ListModels,
        KIND_PREDICT => {
            let model = r.get_str("predict model")?;
            let want_logits = r.get_u8("predict flags")? != 0;
            let deadline_ms = r.get_u64("predict deadline")?;
            let rows = read_tensor(&mut r)?;
            let true_labels = r.get_usizes("predict labels")?;
            Request::Predict(PredictRequest {
                model,
                rows,
                want_logits,
                true_labels,
                deadline_ms,
            })
        }
        KIND_DIAGNOSE => Request::Diagnose {
            model: r.get_str("diagnose model")?,
        },
        KIND_REPAIR => Request::Repair {
            model: r.get_str("repair model")?,
        },
        KIND_LIST_VERSIONS => Request::ListVersions {
            model: r.get_str("list-versions model")?,
        },
        KIND_ROLLBACK => Request::Rollback {
            model: r.get_str("rollback model")?,
        },
        KIND_TELEMETRY => Request::Telemetry,
        other => {
            return Err(CodecError::Invalid {
                context: format!("unknown request kind {other:#04x}"),
            })
        }
    };
    expect_exhausted(&r, "request")?;
    Ok((id, request))
}

/// Decodes a response frame (container bytes, without the `u32` prefix).
///
/// # Errors
///
/// Same conditions as [`decode_request`].
pub fn decode_response(frame: &[u8]) -> CodecResult<(u64, Response)> {
    let (kind, id, mut r) = open_body(frame)?;
    let response = match kind {
        k if k == RESPONSE_BIT | KIND_PING => Response::Pong {
            models: r.get_u64("pong models")?,
        },
        k if k == RESPONSE_BIT | KIND_LIST_MODELS => {
            let n = r.get_len("model count")?;
            let mut models = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                models.push(ModelInfo {
                    name: r.get_str("model name")?,
                    version: u32::try_from(r.get_u64("model version")?).map_err(|_| {
                        CodecError::Invalid {
                            context: "model version exceeds u32".into(),
                        }
                    })?,
                    fingerprint: r.get_str("model fingerprint")?,
                    input_shape: [
                        r.get_len("model shape")?,
                        r.get_len("model shape")?,
                        r.get_len("model shape")?,
                    ],
                    num_classes: r.get_len("model classes")?,
                    param_count: r.get_u64("model params")?,
                });
            }
            Response::Models(models)
        }
        k if k == RESPONSE_BIT | KIND_PREDICT => {
            let predictions = r.get_usizes("predictions")?;
            let logits = if r.get_u8("logits flag")? != 0 {
                Some(read_tensor(&mut r)?)
            } else {
                None
            };
            Response::Predict(PredictResponse {
                predictions,
                logits,
            })
        }
        k if k == RESPONSE_BIT | KIND_DIAGNOSE => Response::Diagnose(DiagnoseResponse {
            report_json: r.get_str("report json")?,
            cases: r.get_u64("report cases")?,
        }),
        k if k == RESPONSE_BIT | KIND_REPAIR => {
            let plan = r.get_str("repair plan")?;
            let cases = r.get_u64("repair cases")?;
            let accuracy_before = r.get_f32("repair accuracy")?;
            let accuracy_after = r.get_f32("repair accuracy")?;
            let swapped = r.get_u8("repair swapped")? != 0;
            let version =
                u32::try_from(r.get_u64("repair version")?).map_err(|_| CodecError::Invalid {
                    context: "repair version exceeds u32".into(),
                })?;
            Response::Repair(RepairResponse {
                plan,
                cases,
                accuracy_before,
                accuracy_after,
                swapped,
                version,
                fingerprint: r.get_str("repair fingerprint")?,
                swap_micros: r.get_u64("repair swap micros")?,
            })
        }
        k if k == RESPONSE_BIT | KIND_LIST_VERSIONS => {
            let n = r.get_len("version count")?;
            let mut versions = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                versions.push(VersionInfo {
                    version: u32::try_from(r.get_u64("version number")?).map_err(|_| {
                        CodecError::Invalid {
                            context: "version number exceeds u32".into(),
                        }
                    })?,
                    fingerprint: r.get_str("version fingerprint")?,
                    active: r.get_u8("version active")? != 0,
                });
            }
            Response::Versions(versions)
        }
        k if k == RESPONSE_BIT | KIND_ROLLBACK => {
            let version =
                u32::try_from(r.get_u64("rollback version")?).map_err(|_| CodecError::Invalid {
                    context: "rollback version exceeds u32".into(),
                })?;
            Response::Rollback(RollbackResponse {
                version,
                fingerprint: r.get_str("rollback fingerprint")?,
                swap_micros: r.get_u64("rollback swap micros")?,
            })
        }
        k if k == RESPONSE_BIT | KIND_TELEMETRY => {
            let version = r.get_u16("telemetry payload version")?;
            if version == 0 {
                return Err(CodecError::Invalid {
                    context: "telemetry payload version 0".into(),
                });
            }
            let len = r.get_len("telemetry payload length")?;
            let bytes = r.get_bytes(len, "telemetry payload")?;
            let mut inner = ByteReader::new(bytes);
            // Trailing bytes inside the payload are deliberately
            // tolerated: that's where future fields land.
            Response::Telemetry(read_telemetry_payload(&mut inner)?)
        }
        KIND_ERROR => Response::Error(ErrorFrame {
            code: ErrorCode::from_tag(r.get_u8("error code")?),
            message: r.get_str("error message")?,
        }),
        other => {
            return Err(CodecError::Invalid {
                context: format!("unknown response kind {other:#04x}"),
            })
        }
    };
    expect_exhausted(&r, "response")?;
    Ok((id, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_prefix(wire: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert_eq!(wire.len(), 4 + len);
        &wire[4..]
    }

    #[test]
    fn requests_round_trip() {
        let rows =
            Tensor::from_vec((0..8).map(|v| v as f32 * 0.5).collect(), &[2, 1, 2, 2]).unwrap();
        let cases = [
            Request::Ping,
            Request::ListModels,
            Request::Predict(PredictRequest {
                model: "lenet".into(),
                rows,
                want_logits: true,
                true_labels: vec![3, 7],
                deadline_ms: 250,
            }),
            Request::Diagnose {
                model: "lenet".into(),
            },
            Request::Repair {
                model: "lenet".into(),
            },
            Request::ListVersions {
                model: "lenet".into(),
            },
            Request::Rollback {
                model: "lenet".into(),
            },
            Request::Telemetry,
        ];
        for (i, request) in cases.iter().enumerate() {
            let wire = encode_request(i as u64 + 10, request);
            let (id, back) = decode_request(strip_prefix(&wire)).unwrap();
            assert_eq!(id, i as u64 + 10);
            assert_eq!(&back, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let logits = Tensor::from_vec(vec![0.25, -1.5, f32::NEG_INFINITY, 3.0], &[2, 2]).unwrap();
        let cases = [
            Response::Pong { models: 2 },
            Response::Models(vec![ModelInfo {
                name: "lenet".into(),
                version: 3,
                fingerprint: "ab".repeat(16),
                input_shape: [1, 16, 16],
                num_classes: 10,
                param_count: 12345,
            }]),
            Response::Predict(PredictResponse {
                predictions: vec![1, 0],
                logits: Some(logits),
            }),
            Response::Predict(PredictResponse {
                predictions: vec![9],
                logits: None,
            }),
            Response::Diagnose(DiagnoseResponse {
                report_json: "{\"ratios\":{}}".into(),
                cases: 4,
            }),
            Response::Repair(RepairResponse {
                plan: "collect more training data for classes [0, 1]".into(),
                cases: 17,
                accuracy_before: 0.62,
                accuracy_after: 0.84,
                swapped: true,
                version: 2,
                fingerprint: "cd".repeat(16),
                swap_micros: 412,
            }),
            Response::Versions(vec![
                VersionInfo {
                    version: 1,
                    fingerprint: "ab".repeat(16),
                    active: false,
                },
                VersionInfo {
                    version: 2,
                    fingerprint: "cd".repeat(16),
                    active: true,
                },
            ]),
            Response::Rollback(RollbackResponse {
                version: 1,
                fingerprint: "ab".repeat(16),
                swap_micros: 88,
            }),
            Response::Error(ErrorFrame {
                code: ErrorCode::Busy,
                message: "queue full".into(),
            }),
            Response::Error(ErrorFrame {
                code: ErrorCode::Expired,
                message: "deadline expired before compute".into(),
            }),
        ];
        for (i, response) in cases.iter().enumerate() {
            let wire = encode_response(i as u64, response);
            let (id, back) = decode_response(strip_prefix(&wire)).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&back, response);
        }
    }

    #[test]
    fn corrupt_frames_are_typed() {
        let wire = encode_request(1, &Request::Ping);
        let frame = strip_prefix(&wire);

        // Truncations at every boundary.
        for cut in [0, 3, frame.len() / 2, frame.len() - 1] {
            assert!(decode_request(&frame[..cut]).is_err(), "cut {cut}");
        }

        // Bit flip → checksum mismatch.
        let mut bad = frame.to_vec();
        let mid = bad.len() - 9; // inside the body, before the checksum
        bad[mid] ^= 0x20;
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));

        // Unknown kind decodes the container but rejects the body.
        let mut w = ByteWriter::new();
        w.put_u8(0x6E);
        w.put_u64(0);
        let container = seal_container(FRAME_MAGIC, w.as_slice());
        assert!(matches!(
            decode_request(&container).unwrap_err(),
            CodecError::Invalid { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(KIND_PING);
        w.put_u64(4);
        w.put_u8(99); // stray byte
        let container = seal_container(FRAME_MAGIC, w.as_slice());
        assert!(matches!(
            decode_request(&container).unwrap_err(),
            CodecError::Invalid { .. }
        ));
    }

    fn populated_report() -> TelemetryReport {
        let telemetry =
            deepmorph_telemetry::Telemetry::new(deepmorph_telemetry::TelemetryConfig::default());
        telemetry.record_request(120);
        telemetry.record_request(90_000);
        telemetry.record_stage(deepmorph_telemetry::Stage::QueueWait, 40);
        telemetry.record_stage(deepmorph_telemetry::Stage::Compute, 85_000);
        telemetry.offer_trace(Trace {
            id: 7,
            total_us: 90_000,
            stages: [1, 2, 40, 3, 85_000, 9],
        });
        TelemetryReport {
            stats: StatsSnapshot {
                requests: 13,
                errors: 1,
                expired: 2,
                ..StatsSnapshot::default()
            },
            armed: true,
            snapshot: telemetry.snapshot(),
            versions: vec![VersionTraffic {
                fingerprint: "ef".repeat(16),
                requests: 11,
                errors: 1,
                expired: 2,
                labeled: 8,
                misclassified: 3,
            }],
        }
    }

    #[test]
    fn telemetry_round_trips() {
        for (i, report) in [TelemetryReport::default(), populated_report()]
            .into_iter()
            .enumerate()
        {
            let wire = encode_response(40 + i as u64, &Response::Telemetry(report.clone()));
            let (id, back) = decode_response(strip_prefix(&wire)).unwrap();
            assert_eq!(id, 40 + i as u64);
            assert_eq!(back, Response::Telemetry(report));
        }
    }

    #[test]
    fn telemetry_reports_misclassification_rate_per_version() {
        let report = populated_report();
        let wire = encode_response(1, &Response::Telemetry(report));
        let (_, back) = decode_response(strip_prefix(&wire)).unwrap();
        let Response::Telemetry(t) = back else {
            panic!("not a telemetry response");
        };
        assert_eq!(t.versions.len(), 1);
        assert_eq!(t.versions[0].fingerprint, "ef".repeat(16));
        assert_eq!(t.versions[0].misclassification_rate(), 0.375);
        assert!(t.to_prometheus().contains(
            "deepmorph_version_misclassification_rate{fingerprint=\"efefefefefefefefefefefefefefefef\"} 0.375"
        ));
    }

    /// Seals a hand-built telemetry payload into a response frame (one a
    /// peer may legally send) and decodes it.
    fn decode_telemetry_payload(version: u16, payload: &ByteWriter) -> TelemetryReport {
        let mut body = ByteWriter::new();
        body.put_u8(RESPONSE_BIT | KIND_TELEMETRY);
        body.put_u64(77);
        body.put_u16(version);
        body.put_u64(payload.as_slice().len() as u64);
        body.put_bytes(payload.as_slice());
        let container = seal_container(FRAME_MAGIC, body.as_slice());
        assert!(container.len() <= MAX_FRAME_BYTES);
        let (id, back) = decode_response(&container).expect("telemetry payload decodes");
        assert_eq!(id, 77);
        let Response::Telemetry(t) = back else {
            panic!("not a telemetry response");
        };
        t
    }

    /// A *future* server appends counters and whole sections to the
    /// telemetry payload; this decoder must keep working, reading the
    /// fields it knows and skipping the rest.
    #[test]
    fn telemetry_payload_is_forward_compatible() {
        let mut payload = ByteWriter::new();
        // 22 counters — two more than this decoder knows about.
        payload.put_u64(22);
        for value in 1..=22u64 {
            payload.put_u64(value * 100);
        }
        payload.put_u8(1); // armed
        write_histogram(&mut payload, &HistogramSnapshot::default());
        // 8 stages — two more than this decoder's Stage enum.
        payload.put_u64(8);
        for _ in 0..8 {
            write_histogram(&mut payload, &HistogramSnapshot::default());
        }
        payload.put_u64(0); // versions
                            // One trace with 8 stage spans (matching the sender's stages).
        payload.put_u64(1);
        payload.put_u64(42); // id
        payload.put_u64(999); // total_us
        for span in 0..8u64 {
            payload.put_u64(span);
        }
        payload.put_u64(0); // kernels
                            // A section this decoder has never heard of.
        payload.put_str("future section");
        payload.put_u64(0xDEAD_BEEF);

        let t = decode_telemetry_payload(2, &payload); // a future payload version
        assert!(t.armed);
        assert_eq!(t.stats.requests, 100);
        assert_eq!(t.stats.accept_backoffs, 2000); // 20th counter
        assert_eq!(t.snapshot.stages.len(), STAGE_COUNT);
        assert_eq!(t.snapshot.slowest.len(), 1);
        assert_eq!(t.snapshot.slowest[0].id, 42);
        assert_eq!(t.snapshot.slowest[0].stages, [0, 1, 2, 3, 4, 5]);
    }

    /// A peer's stage count costs it 16 bytes per empty histogram but
    /// would cost the decoder a dense 8 KiB each: only the stages this
    /// decoder knows are kept, whatever the peer claims.
    #[test]
    fn telemetry_stage_list_is_bounded() {
        const CLAIMED: u64 = 100_000;
        let mut payload = ByteWriter::new();
        payload.put_u64(0); // counters
        payload.put_u8(1); // armed
        write_histogram(&mut payload, &HistogramSnapshot::default());
        payload.put_u64(CLAIMED);
        for _ in 0..CLAIMED {
            payload.put_u64(NUM_BUCKETS as u64);
            payload.put_u64(0); // no nonzero buckets
        }
        payload.put_u64(0); // versions
        payload.put_u64(0); // traces
        payload.put_u64(0); // kernels

        let t = decode_telemetry_payload(TELEMETRY_PAYLOAD_VERSION, &payload);
        assert_eq!(t.snapshot.stages.len(), STAGE_COUNT);
        assert!(t.snapshot.stages.iter().all(|h| h.count() == 0));
    }

    /// The flip side of forward compat: the telemetry payload opens
    /// with the counter count, then the 20 counters in slot order (slot
    /// i at payload byte 8 + 8·i), so existing clients never skew.
    /// `wire_layout.golden` pins each slot's field in `stats_values`;
    /// building the report through `stats_from_values` pins that
    /// function to the same order.
    #[test]
    fn telemetry_counter_prefix_is_pinned() {
        let report = TelemetryReport {
            stats: stats_from_values(&std::array::from_fn(|slot| slot as u64 + 1)),
            ..TelemetryReport::default()
        };
        let wire = encode_response(5, &Response::Telemetry(report.clone()));
        let frame = strip_prefix(&wire);
        let body = open_container(FRAME_MAGIC, frame).unwrap();
        assert_eq!(body[0], RESPONSE_BIT | KIND_TELEMETRY);
        // kind + id + payload version u16 + payload length u64.
        let payload = &body[1 + 8 + 2 + 8..];
        for (word, chunk) in payload[..8 * 21].chunks_exact(8).enumerate() {
            let want = if word == 0 { 20 } else { word as u64 };
            assert_eq!(
                u64::from_le_bytes(chunk.try_into().unwrap()),
                want,
                "word {word} moved"
            );
        }
        assert_eq!(
            decode_response(frame).unwrap().1,
            Response::Telemetry(report)
        );
    }

    /// Histogram counts come from the peer: whether they pile into one
    /// bucket or spread over two, a total past `u64::MAX` is a typed
    /// error, not a debug-build panic or a release-build wrap.
    #[test]
    fn overflowing_histogram_counts_are_typed() {
        let decode = |entries: [(u64, u64); 2]| {
            let mut w = ByteWriter::new();
            w.put_u64(NUM_BUCKETS as u64);
            w.put_u64(entries.len() as u64);
            for (index, count) in entries {
                w.put_u64(index);
                w.put_u64(count);
            }
            read_histogram(&mut ByteReader::new(w.as_slice()))
        };
        for entries in [[(5, u64::MAX), (5, u64::MAX)], [(5, u64::MAX), (6, 1)]] {
            let err = decode(entries).unwrap_err();
            assert!(
                matches!(&err, CodecError::Invalid { context } if context.contains("overflow")),
                "{entries:?}: {err:?}"
            );
        }
        // A total of exactly `u64::MAX` still decodes.
        let at_max = decode([(5, u64::MAX - 1), (6, 1)]).unwrap();
        assert_eq!(at_max.count(), u64::MAX);
    }
}
