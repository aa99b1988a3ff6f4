//! **deepmorph-telemetry** — allocation-free serving observability.
//!
//! The serving stack keeps its lifetime counters, including each model
//! version's live traffic, always on and owned by the server. This crate
//! holds only what is worth paying for while armed: fixed-bucket
//! log₂-scale latency histograms, per-request stage spans, a bounded ring
//! of the slowest request traces, and (env-gated) per-kernel GEMM
//! timings.
//!
//! The design contract mirrors `deepmorph-faults` exactly:
//!
//! * **Unarmed is free.** Nothing records unless a process-global
//!   [`Telemetry`] registry has been [`install`]ed; every hook costs one
//!   relaxed atomic load when it hasn't ([`armed`]). Production builds
//!   that never install telemetry are bitwise-identical to builds without
//!   this crate in the loop.
//! * **Armed is allocation-free on the hot path.** Recording a histogram
//!   sample is exactly one relaxed `fetch_add` on a preallocated bucket;
//!   the slow-trace ring replaces entries in place. Only *discovering* a
//!   new GEMM shape allocates (once per shape, off the per-row path).
//! * **Telemetry observes, never steers.** Nothing in this crate touches
//!   request or tensor data, so responses stay bitwise-identical with
//!   telemetry armed or off — pinned by a digest test in the serve crate.
//!
//! # Histogram shape
//!
//! [`LogHistogram`] is an HdrHistogram-style log₂ layout: values below
//! [`SUB_BUCKETS`] get exact unit buckets, and every power-of-two octave
//! above that splits into [`SUB_BUCKETS`] linear sub-buckets, bounding the
//! relative quantization error at `1/SUB_BUCKETS` (~3%). The bucket array
//! is fixed at [`NUM_BUCKETS`] slots; values past the top bucket saturate
//! into it. p50/p95/p99/max are all derived from the buckets after the
//! fact — recording never sorts, allocates, or takes a lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Linear sub-buckets per log₂ octave (values below this are exact).
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// Total bucket count of a [`LogHistogram`]. Values of `2^36` and above
/// (≈ 19 hours when recording microseconds) saturate into the top bucket.
pub const NUM_BUCKETS: usize = 1024;

/// Most GEMM shapes a [`Telemetry`] registry tracks, and most entries a
/// decoded kernel list keeps: at one dense [`HistogramSnapshot`] each,
/// a kernel list never holds more than 8 MiB of buckets.
pub const MAX_KERNEL_SHAPES: usize = 1024;

/// Bucket index of `value` (saturating at the top bucket).
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros(); // >= SUB_BITS
    let sub = (value >> (octave - SUB_BITS)) - SUB_BUCKETS;
    let index = ((octave - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize;
    index.min(NUM_BUCKETS - 1)
}

/// Inclusive `[low, high]` value range of bucket `index`. The saturated
/// top bucket reports `u64::MAX` as its high bound.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS as usize {
        return (index as u64, index as u64);
    }
    let octave = (index as u32 >> SUB_BITS) - 1 + SUB_BITS;
    let sub = index as u64 & (SUB_BUCKETS - 1);
    let width = 1u64 << (octave - SUB_BITS);
    let low = (SUB_BUCKETS + sub) << (octave - SUB_BITS);
    if index == NUM_BUCKETS - 1 {
        (low, u64::MAX)
    } else {
        (low, low + width - 1)
    }
}

/// A fixed-bucket log₂-scale histogram safe for concurrent recording.
///
/// Recording is one relaxed `fetch_add` on a preallocated bucket: no
/// locks, no allocation, no ordering constraints. Everything else —
/// count, max, quantiles — is derived from a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram (allocates its bucket array once, up front).
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one sample: a single relaxed atomic add.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets (relaxed loads; counts
    /// recorded concurrently with the snapshot may or may not appear).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// An immutable copy of a [`LogHistogram`]'s buckets, with the derived
/// statistics (count, quantiles, max) computed on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The quantile estimate: the upper bound of the bucket holding the
    /// rank-`ceil(q·count)` sample — within one bucket (≤ ~3% relative)
    /// of the sorted-sample truth. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(index).1;
            }
        }
        bucket_bounds(NUM_BUCKETS - 1).1
    }

    /// Upper bound of the highest nonempty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |index| bucket_bounds(index).1)
    }
}

/// The per-request pipeline stages the serving stack instruments, in
/// request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Accepting + registering one connection (connection-scoped).
    Accept,
    /// First byte of a frame to its complete assembly.
    Assembly,
    /// Job submission to the scheduler until a worker picks it up.
    QueueWait,
    /// Batch coalescing: worker pickup until the batch starts (the queue
    /// drain and deadline shedding).
    Coalesce,
    /// The batched forward (replica refresh included).
    Compute,
    /// Outbound delivery. The stage histogram records every socket
    /// write pass: a reply written straight through by the thread that
    /// produced it, or a buffered backlog flushed by the event loop. A
    /// request trace's slot is its send span: encode plus that write,
    /// or the buffer push and loop wake when the socket is backed up.
    Flush,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 6;

impl Stage {
    /// Every stage, in request order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Accept,
        Stage::Assembly,
        Stage::QueueWait,
        Stage::Coalesce,
        Stage::Compute,
        Stage::Flush,
    ];

    /// Index into per-stage arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label (used in the Prometheus exposition).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Assembly => "assembly",
            Stage::QueueWait => "queue_wait",
            Stage::Coalesce => "coalesce",
            Stage::Compute => "compute",
            Stage::Flush => "flush",
        }
    }
}

/// One request's per-stage timing, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Trace {
    /// The request id the client sent (echoed in the response frame).
    pub id: u64,
    /// End-to-end server-side latency in microseconds.
    pub total_us: u64,
    /// Per-stage microseconds, indexed by [`Stage::index`]. Stages a
    /// request never crossed stay 0.
    pub stages: [u64; STAGE_COUNT],
}

/// Bounded keep-the-slowest ring of request traces.
///
/// `offer` replaces the fastest retained trace in place once the ring is
/// full, so steady-state offering never allocates.
#[derive(Debug)]
struct SlowTraces {
    cap: usize,
    slots: Mutex<Vec<Trace>>,
}

impl SlowTraces {
    fn new(cap: usize) -> SlowTraces {
        SlowTraces {
            cap: cap.max(1),
            slots: Mutex::new(Vec::with_capacity(cap.max(1))),
        }
    }

    fn offer(&self, trace: Trace) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() < self.cap {
            slots.push(trace);
            return;
        }
        let (slot, fastest) = slots
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, t)| t.total_us)
            .map(|(i, t)| (i, t.total_us))
            .expect("cap >= 1");
        if trace.total_us > fastest {
            slots[slot] = trace;
        }
    }

    fn snapshot(&self) -> Vec<Trace> {
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        slots.sort_by_key(|trace| std::cmp::Reverse(trace.total_us));
        slots
    }
}

/// Per-kernel timing of one GEMM shape (env-gated; see [`kernel_timer`]).
#[derive(Debug)]
struct KernelStats {
    m: u64,
    k: u64,
    n: u64,
    nanos: LogHistogram,
}

/// Point-in-time timing of one GEMM shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTiming {
    /// Output rows.
    pub m: u64,
    /// Contraction dimension.
    pub k: u64,
    /// Output columns.
    pub n: u64,
    /// Wall-time histogram in nanoseconds.
    pub nanos: HistogramSnapshot,
}

/// Construction knobs of a [`Telemetry`] registry.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Slowest request traces retained ([`TelemetrySnapshot::slowest`]).
    pub slow_traces: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { slow_traces: 16 }
    }
}

/// The armed metrics registry: request/stage latency histograms, the
/// slow-trace ring, and (env-gated) per-kernel GEMM timings. Install one
/// process-globally with [`install`].
#[derive(Debug)]
pub struct Telemetry {
    request_us: LogHistogram,
    stages: [LogHistogram; STAGE_COUNT],
    slow: SlowTraces,
    kernels: RwLock<Vec<Arc<KernelStats>>>,
}

impl Telemetry {
    /// A fresh registry (does not arm it; see [`install`]).
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            request_us: LogHistogram::new(),
            stages: std::array::from_fn(|_| LogHistogram::new()),
            slow: SlowTraces::new(config.slow_traces),
            kernels: RwLock::new(Vec::new()),
        }
    }

    /// Records one end-to-end server-side request latency (µs).
    #[inline]
    pub fn record_request(&self, micros: u64) {
        self.request_us.record(micros);
    }

    /// Records one span of `stage` (µs).
    #[inline]
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        self.stages[stage.index()].record(micros);
    }

    /// Offers a completed request trace to the slowest-N ring.
    pub fn offer_trace(&self, trace: Trace) {
        self.slow.offer(trace);
    }

    /// The stats of GEMM shape `(m, k, n)`, or `None` for a shape first
    /// seen after [`MAX_KERNEL_SHAPES`] others.
    fn kernel(&self, m: u64, k: u64, n: u64) -> Option<Arc<KernelStats>> {
        {
            let kernels = self.kernels.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(s) = kernels.iter().find(|s| s.m == m && s.k == k && s.n == n) {
                return Some(Arc::clone(s));
            }
        }
        let mut kernels = self.kernels.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = kernels.iter().find(|s| s.m == m && s.k == k && s.n == n) {
            return Some(Arc::clone(s));
        }
        if kernels.len() >= MAX_KERNEL_SHAPES {
            return None;
        }
        let s = Arc::new(KernelStats {
            m,
            k,
            n,
            nanos: LogHistogram::new(),
        });
        kernels.push(Arc::clone(&s));
        Some(s)
    }

    /// A point-in-time copy of everything this registry has aggregated.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            request_us: self.request_us.snapshot(),
            stages: self.stages.iter().map(LogHistogram::snapshot).collect(),
            slowest: self.slow.snapshot(),
            kernels: self
                .kernels
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|s| KernelTiming {
                    m: s.m,
                    k: s.k,
                    n: s.n,
                    nanos: s.nanos.snapshot(),
                })
                .collect(),
        }
    }
}

/// Everything a [`Telemetry`] registry aggregated, frozen at one instant.
/// This is what travels in the serve protocol's `Telemetry` frame and
/// what [`TelemetrySnapshot::to_prometheus`] renders.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// End-to-end server-side request latency, microseconds.
    pub request_us: HistogramSnapshot,
    /// Per-stage latency histograms, microseconds, indexed by
    /// [`Stage::index`] ([`STAGE_COUNT`] entries).
    pub stages: Vec<HistogramSnapshot>,
    /// The slowest retained request traces, slowest first.
    pub slowest: Vec<Trace>,
    /// Env-gated per-GEMM-shape timings (empty unless
    /// `DEEPMORPH_KERNEL_TIMING` was set while armed), at most
    /// [`MAX_KERNEL_SHAPES`] of them, in first-seen order.
    pub kernels: Vec<KernelTiming>,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            request_us: HistogramSnapshot::default(),
            stages: (0..STAGE_COUNT)
                .map(|_| HistogramSnapshot::default())
                .collect(),
            slowest: Vec::new(),
            kernels: Vec::new(),
        }
    }
}

impl TelemetrySnapshot {
    /// Renders the snapshot as Prometheus text exposition (one
    /// `name{labels} value` sample per line, `#`-prefixed comments).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let quantiles = [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];

        out.push_str("# TYPE deepmorph_request_latency_us summary\n");
        for (label, q) in quantiles {
            let _ = writeln!(
                out,
                "deepmorph_request_latency_us{{quantile=\"{label}\"}} {}",
                self.request_us.quantile(q)
            );
        }
        let _ = writeln!(
            out,
            "deepmorph_request_latency_us_count {}",
            self.request_us.count()
        );
        let _ = writeln!(
            out,
            "deepmorph_request_latency_us_max {}",
            self.request_us.max()
        );

        out.push_str("# TYPE deepmorph_stage_latency_us summary\n");
        for stage in Stage::ALL {
            let hist = &self.stages[stage.index()];
            for (label, q) in quantiles {
                let _ = writeln!(
                    out,
                    "deepmorph_stage_latency_us{{stage=\"{}\",quantile=\"{label}\"}} {}",
                    stage.name(),
                    hist.quantile(q)
                );
            }
            let _ = writeln!(
                out,
                "deepmorph_stage_latency_us_count{{stage=\"{}\"}} {}",
                stage.name(),
                hist.count()
            );
        }

        for kernel in &self.kernels {
            let _ = writeln!(
                out,
                "deepmorph_kernel_gemm_ns{{m=\"{}\",k=\"{}\",n=\"{}\",quantile=\"0.5\"}} {}",
                kernel.m,
                kernel.k,
                kernel.n,
                kernel.nanos.quantile(0.5)
            );
            let _ = writeln!(
                out,
                "deepmorph_kernel_gemm_ns_count{{m=\"{}\",k=\"{}\",n=\"{}\"}} {}",
                kernel.m,
                kernel.k,
                kernel.n,
                kernel.nanos.count()
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// Process-global arming (the deepmorph-faults pattern)
// ---------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ARMED: RwLock<Option<Arc<Telemetry>>> = RwLock::new(None);

/// Arms a fresh registry process-globally and returns a handle to it.
/// Replaces any previously installed registry.
pub fn install(config: TelemetryConfig) -> Arc<Telemetry> {
    let telemetry = Arc::new(Telemetry::new(config));
    *ARMED.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&telemetry));
    // ORDERING: Release orders the flag after the registry publish above.
    // The flag is only a hint: readers that see it re-check under
    // `ARMED.read()`, whose lock acquisition provides the real
    // synchronization, so their Relaxed fast-path load stays sound.
    ACTIVE.store(true, Ordering::Release);
    telemetry
}

/// Disarms telemetry: every hook goes back to a single relaxed load.
pub fn clear() {
    // ORDERING: Release; see install(). A racing hook that still sees
    // the stale `true` just takes the slow path and finds `None`.
    ACTIVE.store(false, Ordering::Release);
    *ARMED.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// `true` while a registry is installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The armed registry, or `None`. The unarmed fast path is one relaxed
/// atomic load — cheap enough for per-read-syscall checks.
#[inline]
pub fn armed() -> Option<Arc<Telemetry>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    ARMED.read().unwrap_or_else(PoisonError::into_inner).clone()
}

// ---------------------------------------------------------------------
// Env-gated kernel timing
// ---------------------------------------------------------------------

fn kernel_timing_env() -> bool {
    static GATE: OnceLock<bool> = OnceLock::new();
    *GATE.get_or_init(|| {
        std::env::var("DEEPMORPH_KERNEL_TIMING")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// A running per-kernel timer; records into the armed registry on drop.
#[derive(Debug)]
pub struct KernelTimer {
    telemetry: Arc<Telemetry>,
    m: u64,
    k: u64,
    n: u64,
    start: Instant,
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        if let Some(stats) = self.telemetry.kernel(self.m, self.k, self.n) {
            stats.nanos.record(nanos);
        }
    }
}

/// Starts timing one GEMM of shape `(m, k, n)` — the `Backend` seam
/// hook. Returns `None` (one relaxed load) unless telemetry is armed
/// *and* `DEEPMORPH_KERNEL_TIMING=1` is set, so default builds pay
/// nothing and timed builds opt in per process.
#[inline]
pub fn kernel_timer(m: usize, k: usize, n: usize) -> Option<KernelTimer> {
    if !ACTIVE.load(Ordering::Relaxed) || !kernel_timing_env() {
        return None;
    }
    armed().map(|telemetry| KernelTimer {
        telemetry,
        m: m as u64,
        k: k as u64,
        n: n as u64,
        start: Instant::now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_buckets_are_exact_and_bounds_cover_every_value() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        // Bucket boundaries: the first value of each octave starts a new
        // sub-bucket run, and low/high brackets the value everywhere.
        for v in [
            31u64,
            32,
            33,
            63,
            64,
            65,
            127,
            128,
            1_000,
            4_095,
            4_096,
            1 << 20,
            (1 << 35) + 12345,
        ] {
            let index = bucket_index(v);
            let (low, high) = bucket_bounds(index);
            assert!(low <= v && v <= high, "value {v} outside bucket {index}");
            if index + 1 < NUM_BUCKETS {
                let (next_low, _) = bucket_bounds(index + 1);
                assert_eq!(next_low, high + 1, "gap after bucket {index}");
            }
        }
    }

    #[test]
    fn top_bucket_saturates() {
        let hist = LogHistogram::new();
        for v in [1u64 << 36, 1 << 40, u64::MAX] {
            assert_eq!(bucket_index(v), NUM_BUCKETS - 1);
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.buckets[NUM_BUCKETS - 1], 3);
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.max(), u64::MAX);
        assert_eq!(snap.quantile(0.5), u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        let hist = LogHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic spread across many octaves.
                        let v = ((t * PER_THREAD + i) as u64).wrapping_mul(2654435761) % (1 << 22);
                        hist.record(v);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        assert_eq!(snap.count(), (THREADS * PER_THREAD) as u64);
        // Exactness, not just totals: replay the same values serially.
        let serial = LogHistogram::new();
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let v = ((t * PER_THREAD + i) as u64).wrapping_mul(2654435761) % (1 << 22);
                serial.record(v);
            }
        }
        assert_eq!(snap, serial.snapshot());
    }

    #[test]
    fn slow_ring_keeps_the_slowest() {
        let slow = SlowTraces::new(3);
        for (id, total_us) in [(1u64, 10u64), (2, 50), (3, 5), (4, 40), (5, 60), (6, 1)] {
            slow.offer(Trace {
                id,
                total_us,
                stages: [0; STAGE_COUNT],
            });
        }
        let kept = slow.snapshot();
        assert_eq!(
            kept.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![5, 2, 4],
            "slowest three, slowest first"
        );
    }

    #[test]
    fn kernel_shapes_stop_at_the_cap() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        for m in 0..MAX_KERNEL_SHAPES as u64 {
            assert!(telemetry.kernel(m, 1, 1).is_some());
        }
        assert!(
            telemetry.kernel(u64::MAX, 1, 1).is_none(),
            "a new shape past the cap"
        );
        telemetry.kernel(7, 1, 1).unwrap().nanos.record(250);
        let kernels = telemetry.snapshot().kernels;
        assert_eq!(kernels.len(), MAX_KERNEL_SHAPES);
        assert_eq!(kernels[7].nanos.count(), 1, "a known shape keeps recording");
    }

    #[test]
    fn exposition_renders_parseable_lines() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        telemetry.record_request(1234);
        telemetry.record_stage(Stage::Compute, 900);
        let text = telemetry.snapshot().to_prometheus();
        let mut samples = 0;
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable sample: {line}");
            samples += 1;
        }
        assert!(samples > 20, "only {samples} samples rendered");
    }

    #[test]
    fn arming_is_process_global_and_clear_disarms() {
        clear();
        assert!(armed().is_none());
        assert!(!is_active());
        let t = install(TelemetryConfig::default());
        assert!(is_active());
        let seen = armed().expect("armed after install");
        assert!(Arc::ptr_eq(&t, &seen));
        clear();
        assert!(armed().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The histogram quantile is within one bucket of the exact
        /// sorted-sample quantile.
        #[test]
        fn quantiles_match_sorted_truth_within_one_bucket(
            values in proptest::collection::vec(0u64..(1 << 30), 1..400),
            q in 0.01f64..1.0,
        ) {
            let hist = LogHistogram::new();
            for &v in &values {
                hist.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let estimate = hist.snapshot().quantile(q);
            let diff = bucket_index(estimate).abs_diff(bucket_index(truth));
            prop_assert!(
                diff <= 1,
                "estimate {estimate} (bucket {}) vs truth {truth} (bucket {})",
                bucket_index(estimate),
                bucket_index(truth)
            );
        }
    }
}
