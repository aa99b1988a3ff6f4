//! The dynamic micro-batching scheduler.
//!
//! Concurrent predict requests land in one bounded queue. One worker
//! thread — owning a model *replica* per registered model — pops the
//! head request and *coalesces*: consecutive queued requests for the same
//! model are folded in until the batch reaches `max_batch` rows or the
//! queue runs dry, and the batch dispatches at once. Batch size is
//! therefore **load-adaptive**: while one forward runs, new requests
//! pile up in the queue, and the next dispatch drains them all — heavy
//! traffic yields big batches, and a lone request never waits for
//! company that is not coming. The coalesced rows run as **one**
//! eval-mode `Graph::forward` (which fans out over the
//! `deepmorph-parallel` pool internally, so the one worker and the pool
//! together cover the cores), and the per-row outputs are scattered back
//! to each caller; a connection's reply is written to its socket by the
//! worker itself (see [`crate::conn`]).
//!
//! Because every layer computes eval-mode rows independently (see
//! `Graph::forward_inference`), a coalesced response is **bitwise
//! identical** to the response the same request would get alone — the
//! scheduler changes latency and throughput, never answers.
//!
//! Batching pays twice under load: one dispatch serving 32 requests
//! takes one queue handoff where per-request dispatch would take 32
//! (the handoff is the traced `queue_wait` stage span, p50 about 30 µs
//! for a lone request on a 2-core host), and a batched GEMM is far more
//! cache-efficient than 32 single-row GEMMs. `serve_bench`'s
//! batched-vs-solo comparison quantifies both.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use deepmorph_faults::ComputeAction;
use deepmorph_models::ModelHandle;
use deepmorph_telemetry::{Stage, Trace};
use deepmorph_tensor::{workspace, Tensor};

use crate::conn::ConnHandle;
use crate::error::{ServeError, ServeResult};
use crate::protocol::{encode_response, ErrorFrame, PredictResponse, Response};
use crate::registry::{ModelEntry, ModelId, ModelRegistry};
use crate::sync::{wait_recover, LockRecover};

/// Queue capacity in requests; submissions beyond it are rejected with a
/// typed busy error instead of growing without bound.
const QUEUE_CAPACITY: usize = 1024;

/// Shared serving counters (all monotonic).
#[derive(Debug, Default)]
pub(crate) struct ServeStats {
    /// Predict requests accepted into the queue.
    pub requests: AtomicU64,
    /// Input rows run through a model.
    pub rows: AtomicU64,
    /// Dispatched batches (forward calls).
    pub batches: AtomicU64,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: AtomicU64,
    /// Error frames sent to clients.
    pub errors: AtomicU64,
    /// Requests rejected because the queue was full.
    pub busy_rejections: AtomicU64,
    /// Diagnose calls answered (repairs include one).
    pub diagnoses: AtomicU64,
    /// Diagnosis sessions prepared (probe-training passes). Memoization
    /// per model fingerprint keeps this at one per served version no
    /// matter how many diagnoses run.
    pub probe_trainings: AtomicU64,
    /// Repair calls answered.
    pub repairs: AtomicU64,
    /// Hot-swaps performed.
    pub swaps: AtomicU64,
    /// Requests shed because their deadline expired before compute.
    pub expired: AtomicU64,
    /// Worker panics contained by the scheduler.
    pub worker_panics: AtomicU64,
    /// Rollback calls that reverted a version.
    pub rollbacks: AtomicU64,
    /// Connections rejected at the configured connection cap.
    pub conn_rejections: AtomicU64,
    /// Connections currently registered with the event loop (a gauge:
    /// incremented at admission, decremented at close).
    pub conns_active: AtomicU64,
    /// Connections admitted past the cap check.
    pub conns_accepted: AtomicU64,
    /// Admitted connections since closed.
    pub conns_closed: AtomicU64,
    /// High-water mark of any connection's outbound buffer, in bytes
    /// (maintained with `fetch_max`).
    pub outbound_hwm_bytes: AtomicU64,
    /// Event-loop `epoll_wait` returns.
    pub loop_wakeups: AtomicU64,
    /// Accept backoffs taken after fd exhaustion (`EMFILE`/`ENFILE`).
    pub accept_backoffs: AtomicU64,
}

impl ServeStats {
    /// A consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> crate::protocol::StatsSnapshot {
        crate::protocol::StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            diagnoses: self.diagnoses.load(Ordering::Relaxed),
            probe_trainings: self.probe_trainings.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            conn_rejections: self.conn_rejections.load(Ordering::Relaxed),
            active_connections: self.conns_active.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            outbound_hwm_bytes: self.outbound_hwm_bytes.load(Ordering::Relaxed),
            loop_wakeups: self.loop_wakeups.load(Ordering::Relaxed),
            accept_backoffs: self.accept_backoffs.load(Ordering::Relaxed),
        }
    }
}

/// Per-request telemetry context, carried by a [`Job`] only while a
/// [`deepmorph_telemetry`] registry is armed (`None` costs nothing: no
/// clock reads, no recording). The event loop stamps `submitted` and
/// `assembly_us` at admission; the worker fills the scheduler-side spans
/// before delivery builds the request trace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobTelemetry {
    /// When the job was admitted into the queue.
    pub submitted: Instant,
    /// Frame-assembly span measured by the event loop, µs.
    pub assembly_us: u64,
    /// Queue wait (submit → worker pickup), µs.
    pub queue_us: u64,
    /// Batch coalesce span (pickup → batch start), µs.
    pub coalesce_us: u64,
    /// Forward span of the batch this job rode in, µs.
    pub compute_us: u64,
}

impl JobTelemetry {
    /// A context stamped *now*, or `None` when telemetry is not armed.
    pub fn start(assembly_us: u64) -> Option<JobTelemetry> {
        deepmorph_telemetry::is_active().then(|| JobTelemetry {
            submitted: Instant::now(),
            assembly_us,
            queue_us: 0,
            coalesce_us: 0,
            compute_us: 0,
        })
    }
}

/// One queued predict request.
pub(crate) struct Job {
    /// Registry handle of the target model.
    pub model: ModelId,
    /// Input rows `[n, c, h, w]`.
    pub rows: Tensor,
    /// Return logits alongside predictions.
    pub want_logits: bool,
    /// Ground-truth labels (empty = unlabeled traffic).
    pub true_labels: Vec<usize>,
    /// Misclassification sink for labeled traffic.
    pub cases: Option<Arc<Mutex<crate::cases::LiveCases>>>,
    /// Absolute deadline; a job still queued past it is shed before
    /// compute with a typed expired error. `None` = no deadline.
    pub deadline: Option<Instant>,
    /// The deadline budget the request carried (for the typed error).
    pub deadline_ms: u64,
    /// Stage-span context (`None` unless telemetry is armed).
    pub telemetry: Option<JobTelemetry>,
    /// The requesting connection: the worker encodes the response frame
    /// and writes it to the socket itself, falling back to the
    /// connection's outbound buffer and the event loop when the socket
    /// is backed up.
    pub conn: ConnHandle,
    /// Request id to echo.
    pub id: u64,
}

impl Job {
    fn row_count(&self) -> usize {
        self.rows.shape()[0]
    }
}

/// Validates a predict submission against the registry entry.
pub(crate) fn validate_job(
    registry: &ModelRegistry,
    model: ModelId,
    rows: &Tensor,
    true_labels: &[usize],
) -> ServeResult<()> {
    let bad = |reason: String| Err(ServeError::BadInput { reason });
    // Validation reads the *current* version's spec; input shape and
    // class count are invariant across published versions (enforced by
    // `ModelRegistry::publish`), so a swap between validation and
    // dispatch cannot invalidate an accepted job.
    let spec = registry.current(model).spec;
    if rows.ndim() != 4 {
        return bad(format!(
            "input must be [n, c, h, w]; got rank {}",
            rows.ndim()
        ));
    }
    let shape = rows.shape();
    if shape[0] == 0 {
        return bad("empty batch".into());
    }
    if [shape[1], shape[2], shape[3]] != spec.input_shape {
        return bad(format!(
            "input rows are {:?}, model expects {:?}",
            &shape[1..],
            spec.input_shape
        ));
    }
    if !true_labels.is_empty() {
        if true_labels.len() != shape[0] {
            return bad(format!(
                "{} labels for {} rows",
                true_labels.len(),
                shape[0]
            ));
        }
        if let Some(&l) = true_labels.iter().find(|&&l| l >= spec.num_classes) {
            return bad(format!(
                "label {l} out of range for {} classes",
                spec.num_classes
            ));
        }
    }
    Ok(())
}

struct Shared {
    registry: Arc<ModelRegistry>,
    max_batch: usize,
    stats: Arc<ServeStats>,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// The micro-batching scheduler: a bounded queue plus its one worker
/// thread. The event loop is its one producer.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the worker thread over `registry`, coalescing up to
    /// `max_batch` rows per forward (`1` disables batching).
    ///
    /// # Errors
    ///
    /// Returns the OS error if the worker thread cannot be spawned.
    pub(crate) fn new(
        registry: Arc<ModelRegistry>,
        max_batch: usize,
        stats: Arc<ServeStats>,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            registry,
            max_batch: max_batch.max(1),
            stats,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("deepmorph-serve-worker".into())
                // Panic containment, outer ring: `run_jobs` catches
                // panics around compute, but if one ever escapes the
                // loop itself (delivery, queue handling), the worker
                // respawns its loop with fresh replicas instead of
                // leaving the queue without a consumer.
                .spawn(move || loop {
                    if catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))).is_ok() {
                        return; // clean shutdown
                    }
                    shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                })?
        };
        Ok(Scheduler {
            shared,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Enqueues a job (validated by the caller via [`validate_job`]).
    pub(crate) fn submit(&self, job: Job) -> ServeResult<()> {
        let mut queue = self.shared.queue.lock_recover();
        // Checked under the queue lock — the lock the worker drains
        // under — so a job can never be enqueued after the worker exited.
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if queue.len() >= QUEUE_CAPACITY {
            self.shared
                .stats
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Busy {
                queue_depth: queue.len(),
            });
        }
        queue.push_back(job);
        drop(queue);
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Stops accepting work, drains the queue, and joins the worker.
    /// Idempotent.
    pub(crate) fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        if let Some(handle) = self.worker.lock_recover().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker's private instance of one model, pinned to the registry
/// epoch it was instantiated at.
struct Replica {
    epoch: u64,
    /// The version the replica was built from; its live traffic is
    /// charged to this entry's counters.
    entry: Arc<ModelEntry>,
    model: ModelHandle,
}

fn worker_loop(shared: &Shared) {
    let mut replicas: HashMap<ModelId, Replica> = HashMap::new();
    loop {
        let mut queue = shared.queue.lock_recover();
        let first = loop {
            if let Some(job) = queue.pop_front() {
                break job;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            queue = wait_recover(&shared.cv, queue);
        };
        // Pickup: every rider of this batch is already queued now (the
        // drain below runs under the same lock hold), so this one stamp
        // ends each rider's queue wait and starts the batch's coalesce
        // span. Clock reads only while armed.
        let picked_up = deepmorph_telemetry::is_active().then(Instant::now);

        // No straggler wait: the batch is whatever queued up behind the
        // first request, typically during the previous forward. Waiting
        // for more would only delay a lone request.
        let mut total = first.row_count();
        let mut jobs = vec![first];
        drain(&mut queue, &mut jobs, &mut total, shared.max_batch);
        drop(queue);
        run_jobs(shared, &mut replicas, jobs, picked_up);
    }
}

/// Folds consecutive same-model queued requests into the batch while
/// they fit under `max_batch` rows.
fn drain(queue: &mut VecDeque<Job>, jobs: &mut Vec<Job>, total: &mut usize, max_batch: usize) {
    while *total < max_batch {
        match queue.front() {
            Some(f) if f.model == jobs[0].model && *total + f.row_count() <= max_batch => {
                let job = queue.pop_front().expect("front checked");
                *total += job.row_count();
                jobs.push(job);
            }
            _ => break,
        }
    }
}

/// Runs one coalesced batch and scatters the per-row outputs.
fn run_jobs(
    shared: &Shared,
    replicas: &mut HashMap<ModelId, Replica>,
    jobs: Vec<Job>,
    picked_up: Option<Instant>,
) {
    let stats = &shared.stats;
    // One telemetry handle for the whole batch: `None` while disarmed,
    // which skips every clock read and span below.
    let telemetry = deepmorph_telemetry::armed();
    let model_id = jobs[0].model;

    // Overload control: shed jobs whose deadline already passed *before*
    // spending compute on them. Under overload the queue backs up, so the
    // oldest (most likely already abandoned) requests are exactly the
    // ones that expire — shedding them first frees the forward for
    // requests whose clients are still waiting.
    let mut jobs = {
        let now = Instant::now();
        let (live, dead): (Vec<Job>, Vec<Job>) = jobs
            .into_iter()
            .partition(|job| job.deadline.is_none_or(|d| d > now));
        if !dead.is_empty() {
            // Shed jobs never reach a replica; charge them to the version
            // currently serving.
            let expired = &shared.registry.current(model_id).counters.expired;
            expired.fetch_add(dead.len() as u64, Ordering::Relaxed);
        }
        for job in dead {
            stats.expired.fetch_add(1, Ordering::Relaxed);
            let budget_ms = job.deadline_ms;
            deliver(stats, job, Err(ServeError::Expired { budget_ms }));
        }
        if live.is_empty() {
            return;
        }
        live
    };
    let total_rows: usize = jobs.iter().map(Job::row_count).sum();

    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.rows.fetch_add(total_rows as u64, Ordering::Relaxed);
    if jobs.len() > 1 {
        stats.coalesced_batches.fetch_add(1, Ordering::Relaxed);
    }

    // Queue wait ends at pickup and the coalesce span runs from pickup
    // to here, where the batch starts, so the two add up to each rider's
    // submit → batch start. The coalesce span is batch-scoped and
    // stamped onto every rider.
    if let Some(t) = &telemetry {
        let batch_start = Instant::now();
        let picked_up = picked_up.unwrap_or(batch_start);
        let coalesce_us = batch_start.duration_since(picked_up).as_micros() as u64;
        t.record_stage(Stage::Coalesce, coalesce_us);
        for job in &mut jobs {
            if let Some(jt) = job.telemetry.as_mut() {
                jt.queue_us = picked_up
                    .saturating_duration_since(jt.submitted)
                    .as_micros() as u64;
                jt.coalesce_us = coalesce_us;
                t.record_stage(Stage::QueueWait, jt.queue_us);
            }
        }
    }
    let jobs = jobs;

    // Panic containment, inner ring: everything that touches model code
    // (replica instantiation, the forward) runs under `catch_unwind`. A
    // panicking model must not take the worker — or, via lock poisoning,
    // the whole service — down with it. The fault layer's injected
    // compute faults land here too, exercising exactly this path.
    let compute_started = telemetry.as_ref().map(|_| Instant::now());
    let outcome = catch_unwind(AssertUnwindSafe(|| -> ServeResult<_> {
        match deepmorph_faults::compute_action() {
            ComputeAction::Run => {}
            ComputeAction::Panic => panic!("injected fault: worker panic"),
            ComputeAction::Slow(pause) => std::thread::sleep(pause),
        }

        // Batch-boundary version check: one atomic load per batch. A
        // replica built at a superseded epoch is replaced *before* the
        // forward, so every request in this batch is answered by exactly
        // one version — batches already running when a swap lands simply
        // finish on the old replica (the swapped-out entry stays alive
        // behind its Arc).
        let hint = shared.registry.epoch(model_id);
        let stale = replicas.get(&model_id).is_none_or(|r| r.epoch != hint);
        if stale {
            // `current_with_epoch` reads the (epoch, entry) pair under
            // one lock, so the cached epoch always matches the
            // instantiated version even if another swap raced the hint
            // read above.
            let (epoch, current) = shared.registry.current_with_epoch(model_id);
            let model = current.instantiate_for_serving()?;
            replicas.insert(
                model_id,
                Replica {
                    epoch,
                    entry: current,
                    model,
                },
            );
        }
        let replica = replicas.get_mut(&model_id).expect("replica just ensured");
        let replica_epoch = replica.epoch;
        let replica = &mut replica.model;

        // One forward for the whole batch. The single-request case
        // borrows the job's tensor directly; a coalesced batch gathers
        // rows into one contiguous input (row order = queue order).
        let forward = |g: &mut deepmorph_nn::graph::Graph, x: &Tensor| g.forward_inference(x);
        let logits = if jobs.len() == 1 {
            forward(&mut replica.graph, &jobs[0].rows)?
        } else {
            let row_len: usize = jobs[0].rows.shape()[1..].iter().product();
            let mut gathered = Vec::with_capacity(total_rows * row_len);
            for job in &jobs {
                gathered.extend_from_slice(job.rows.data());
            }
            let shape = jobs[0].rows.shape();
            let batch = Tensor::from_vec(gathered, &[total_rows, shape[1], shape[2], shape[3]])?;
            forward(&mut replica.graph, &batch)?
        };
        // [n, classes] is what every model in the zoo outputs; anything
        // else is a registry/model bug surfaced as a typed error.
        logits.expect_rank(2, "serve logits")?;
        let predictions = logits.argmax_rows()?;
        Ok((replica_epoch, logits, predictions))
    }));

    let compute_us = compute_started.map_or(0, |at| at.elapsed().as_micros() as u64);
    if let Some(t) = &telemetry {
        t.record_stage(Stage::Compute, compute_us);
    }
    // Failed batches are charged to the version currently serving (on
    // the panic/instantiation paths no replica survives).
    let charge_errors = |jobs: &mut Vec<Job>| {
        for job in jobs.iter_mut() {
            if let Some(jt) = job.telemetry.as_mut() {
                jt.compute_us = compute_us;
            }
        }
        let counters = &shared.registry.current(model_id).counters;
        let failed = jobs.len() as u64;
        counters.requests.fetch_add(failed, Ordering::Relaxed);
        counters.errors.fetch_add(failed, Ordering::Relaxed);
    };

    let (replica_epoch, logits, predictions) = match outcome {
        Ok(Ok(tuple)) => tuple,
        Ok(Err(e)) => {
            let mut jobs = jobs;
            charge_errors(&mut jobs);
            for job in jobs {
                deliver(stats, job, Err(e.clone()));
            }
            return;
        }
        Err(_panic) => {
            // The replica is in an unknown state after an unwound
            // forward; drop it so the next batch rebuilds from the
            // registry's (consistent, Arc-held) entry.
            replicas.remove(&model_id);
            stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            let err = ServeError::Model {
                reason: "serving worker panicked mid-batch; the batch was dropped and the \
                         worker recovered"
                    .into(),
            };
            let mut jobs = jobs;
            charge_errors(&mut jobs);
            for job in jobs {
                deliver(stats, job, Err(err.clone()));
            }
            return;
        }
    };

    // Live traffic is charged to the version whose replica answered.
    let counters = &replicas
        .get(&model_id)
        .expect("replica ensured by the batch above")
        .entry
        .counters;
    counters
        .requests
        .fetch_add(jobs.len() as u64, Ordering::Relaxed);

    let classes = logits.shape()[1];
    let mut offset = 0;
    for mut job in jobs {
        let n = job.row_count();
        if let Some(jt) = job.telemetry.as_mut() {
            jt.compute_us = compute_us;
        }
        let job_preds = predictions[offset..offset + n].to_vec();
        let job_logits = job.want_logits.then(|| {
            Tensor::from_vec(
                logits.data()[offset * classes..(offset + n) * classes].to_vec(),
                &[n, classes],
            )
            .expect("slice of verified logits")
        });
        offset += n;

        // Live accuracy per version: `LiveCases::record` below only sees
        // the misses (and may drop stale ones), so the labeled-traffic
        // denominator is counted here, where every row passes.
        if !job.true_labels.is_empty() {
            let wrong = job
                .true_labels
                .iter()
                .zip(&job_preds)
                .filter(|(truth, pred)| truth != pred)
                .count() as u64;
            counters.labeled.fetch_add(n as u64, Ordering::Relaxed);
            counters.misclassified.fetch_add(wrong, Ordering::Relaxed);
        }

        // Accumulate labeled misses for the diagnose endpoint before the
        // job (and its input rows) is consumed by delivery.
        if let (false, Some(cases)) = (job.true_labels.is_empty(), job.cases.as_ref()) {
            let row_len: usize = job.rows.shape()[1..].iter().product();
            let mut sink = cases.lock_recover();
            for (i, (&truth, &pred)) in job.true_labels.iter().zip(&job_preds).enumerate() {
                if truth != pred {
                    // Row length was validated at submit time, so the only
                    // thing `record` can still do besides accept is drop
                    // the case as stale after a concurrent hot-swap.
                    let _ = sink.record(
                        replica_epoch,
                        &job.rows.data()[i * row_len..(i + 1) * row_len],
                        truth,
                        pred,
                    );
                }
            }
        }

        deliver(
            stats,
            job,
            Ok(PredictResponse {
                predictions: job_preds,
                logits: job_logits,
            }),
        );
    }
    workspace::recycle_tensor(logits);
}

/// Encodes a result as a response frame and writes it to the job's
/// connection. When telemetry is armed this is also where the request's
/// end-to-end latency lands in the histogram and its per-stage trace is
/// offered to the slowest-N ring.
fn deliver(stats: &ServeStats, mut job: Job, result: ServeResult<PredictResponse>) {
    let span = job
        .telemetry
        .take()
        .and_then(|jt| deepmorph_telemetry::armed().map(|t| (t, jt)));
    let send_started = span.as_ref().map(|_| Instant::now());
    let response = match result {
        Ok(predict) => Response::Predict(predict),
        Err(e) => {
            stats.errors.fetch_add(1, Ordering::Relaxed);
            Response::Error(ErrorFrame {
                code: e.code(),
                message: e.to_string(),
            })
        }
    };
    // Written straight to the socket unless bytes are queued ahead of
    // it; if the connection already closed the bytes are discarded (the
    // client hung up mid-flight).
    job.conn.send(stats, &encode_response(job.id, &response));
    if let (Some((t, jt)), Some(sent)) = (span, send_started) {
        // One end stamp for both the total and the flush span, so the
        // spans never sum past the total.
        let ended = Instant::now();
        let total_us = ended.duration_since(jt.submitted).as_micros() as u64;
        t.record_request(total_us);
        t.offer_trace(Trace {
            id: job.id,
            total_us,
            // The trace's flush slot is the send span: encode plus the
            // socket write (or, when the socket is backed up, the buffer
            // push and loop wake). The write itself also lands in the
            // `Flush` histogram.
            stages: [
                0, // accept is connection-scoped, not per-request
                jt.assembly_us,
                jt.queue_us,
                jt.coalesce_us,
                jt.compute_us,
                ended.duration_since(sent).as_micros() as u64,
            ],
        });
    }
}
