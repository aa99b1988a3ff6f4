//! The connection-storm harness behind `storm_smoke` and the storm
//! phase of `serve_bench`.
//!
//! The claim under test is the event-loop rewrite's headline: one
//! `deepmorph-serve` process holds **tens of thousands of mostly idle
//! sockets on a constant thread count**, while an active predict load
//! through the same process keeps its low-connection-count latency.
//! The harness:
//!
//! 1. starts a paper-scale AlexNet server and measures an active
//!    pipelined predict load alone (**baseline**), verifying every
//!    response's logits bitwise against a local forward;
//! 2. opens `idle_connections` sockets that send nothing, paced in
//!    batches against the server's own accept counter so the listen
//!    backlog never overflows, and asserts the server process's thread
//!    count did not grow by even one;
//! 3. re-runs the identical active load with the idle sockets attached
//!    (**storm**), again verifying bitwise;
//! 4. spot-checks that long-idle sockets still get service (a `Ping`
//!    round trip), and that the event-loop counters read from
//!    `Server::stats()` saw the storm (gauge ≥ idle count, loop wakeups
//!    nonzero).
//!
//! Any lost response, corrupt logit, thread growth, or dead idle socket
//! panics the harness: the acceptance bar is zero-loss, not a score.
//! The p50 ratio (storm / baseline) is *reported* here and asserted by
//! the caller (`serve_bench` full mode enforces ≤ 1.15 with a retry;
//! the CI smoke run only requires the machinery to hold together).
//!
//! # The idle herd is a child process
//!
//! Server and load generator share one process here, so every idle
//! connection would cost the *bench* process two fds — and this
//! container's `RLIMIT_NOFILE` hard cap (20 000, not raisable without
//! `CAP_SYS_RESOURCE`) cannot hold both ends of 10k+ connections. The
//! harness therefore re-execs itself as an **idle-herd child** that
//! owns the client ends, leaving the server process with only the
//! accepted sockets. Binaries embedding this harness must call
//! [`maybe_idle_herd`] first thing in `main` and return if it handled
//! the invocation. The herd is driven over its stdio in lockstep: it
//! connects one batch, reports, and waits for the parent (which
//! watches the server's live connection gauge) before the next — so
//! the accept queue can never overflow, regardless of host speed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use deepmorph_json::Json;
use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};
use deepmorph_serve::prelude::*;
use deepmorph_serve::protocol::{self, PredictRequest, Request, Response};
use deepmorph_telemetry::LogHistogram;
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::Tensor;

/// Model name served by the storm harness.
pub const MODEL: &str = "alexnet-storm";
const ROW_ELEMS: usize = 256; // [1, 16, 16]

/// Requests pipelined per active connection.
const WINDOW: usize = 4;

/// Idle sockets opened per pacing batch. Kept well under the listen
/// backlog (4096) so a batch can never overflow it even if the accept
/// loop lags a full batch behind.
const IDLE_BATCH: usize = 256;

/// Storm shape.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Sockets opened and then left silent for the storm phase.
    pub idle_connections: usize,
    /// In-flight predict requests held by the active load
    /// (over `active_concurrency / 4` pipelined connections).
    pub active_concurrency: usize,
    /// Predict requests per measured phase (baseline and storm each).
    pub total_requests: usize,
    /// Distinct input rows cycled by the load; every response is
    /// verified bitwise against a local forward of its row.
    pub distinct_rows: usize,
    /// Idle sockets ping-checked after the storm phase.
    pub spot_checks: usize,
}

impl StormConfig {
    /// CI shape: hundreds of idle sockets, seconds of wall time.
    pub fn smoke() -> StormConfig {
        StormConfig {
            idle_connections: 512,
            active_concurrency: 8,
            total_requests: 240,
            distinct_rows: 16,
            spot_checks: 8,
        }
    }

    /// Full shape: the 10k-socket headline measurement.
    pub fn full() -> StormConfig {
        StormConfig {
            idle_connections: 10_240,
            active_concurrency: 8,
            total_requests: 1_280,
            distinct_rows: 16,
            spot_checks: 16,
        }
    }
}

/// One measured active-load pass.
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    pub throughput_rows_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// Responses whose logits were compared bitwise (all of them).
    pub rows_verified: usize,
}

/// What one storm run measured. Construction implies the zero-loss
/// bar already held: any lost/corrupt response, thread growth, or dead
/// idle socket panics inside [`run`].
#[derive(Debug, Clone)]
pub struct StormResult {
    pub idle_connections: usize,
    pub baseline: PhaseResult,
    pub storm: PhaseResult,
    /// Process thread count before/after attaching the idle sockets
    /// (measured with no load-generator threads alive).
    pub threads_before_idle: usize,
    pub threads_with_idle: usize,
    /// Idle sockets that answered a `Ping` after the storm.
    pub spot_checks_ok: usize,
    /// Server-reported counters at storm peak.
    pub active_connections: u64,
    pub conns_accepted: u64,
    pub loop_wakeups: u64,
    pub outbound_hwm_bytes: u64,
    /// `storm.p50_us / baseline.p50_us` — the caller's acceptance knob.
    pub p50_ratio: f64,
}

impl StormResult {
    /// JSON block for `BENCH_serve.json`.
    pub fn to_json(&self, config: &StormConfig) -> Json {
        Json::obj([
            ("idle_connections", Json::usize(self.idle_connections)),
            ("active_concurrency", Json::usize(config.active_concurrency)),
            ("requests_per_phase", Json::usize(config.total_requests)),
            (
                "baseline",
                Json::obj([
                    (
                        "throughput_rows_per_s",
                        Json::num(self.baseline.throughput_rows_per_s),
                    ),
                    ("p50_us", Json::num(self.baseline.p50_us)),
                    ("p95_us", Json::num(self.baseline.p95_us)),
                    ("p99_us", Json::num(self.baseline.p99_us)),
                ]),
            ),
            (
                "storm",
                Json::obj([
                    (
                        "throughput_rows_per_s",
                        Json::num(self.storm.throughput_rows_per_s),
                    ),
                    ("p50_us", Json::num(self.storm.p50_us)),
                    ("p95_us", Json::num(self.storm.p95_us)),
                    ("p99_us", Json::num(self.storm.p99_us)),
                ]),
            ),
            ("p50_ratio", Json::num(self.p50_ratio)),
            ("threads_before_idle", Json::usize(self.threads_before_idle)),
            ("threads_with_idle", Json::usize(self.threads_with_idle)),
            (
                "rows_verified_bitwise",
                Json::usize(self.baseline.rows_verified + self.storm.rows_verified),
            ),
            ("idle_spot_checks_ok", Json::usize(self.spot_checks_ok)),
            (
                "server_active_connections",
                Json::usize(self.active_connections as usize),
            ),
            (
                "server_conns_accepted",
                Json::usize(self.conns_accepted as usize),
            ),
            (
                "server_loop_wakeups",
                Json::usize(self.loop_wakeups as usize),
            ),
            (
                "server_outbound_hwm_bytes",
                Json::usize(self.outbound_hwm_bytes as usize),
            ),
        ])
    }
}

fn input_row(i: usize) -> Tensor {
    let data = (0..ROW_ELEMS)
        .map(|j| {
            let h = (i.wrapping_mul(ROW_ELEMS).wrapping_add(j) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32).fract()
        })
        .collect();
    Tensor::from_vec(data, &[1, 1, 16, 16]).unwrap()
}

/// Kernel-reported thread count of this process (`Threads:` in
/// `/proc/self/status`) — counts what exists, not what we spawned.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// One pipelined load connection: `window` want-logits predicts in
/// flight, every response verified bitwise against the local forward of
/// its row. Panics on anything less than a perfect pass.
fn drive_verified(
    addr: SocketAddr,
    window: usize,
    requests: usize,
    start_row: usize,
    expected: &[Vec<u32>],
    latencies: &LogHistogram,
) {
    let wires: Vec<Vec<u8>> = (0..requests)
        .map(|i| {
            protocol::encode_request(
                i as u64 + 1,
                &Request::Predict(PredictRequest {
                    model: MODEL.to_string(),
                    rows: input_row((start_row + i) % expected.len()),
                    want_logits: true,
                    true_labels: Vec::new(),
                    deadline_ms: 0,
                }),
            )
        })
        .collect();
    let mut stream = TcpStream::connect(addr).expect("active connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut sent = 0usize;
    let mut done = 0usize;
    while done < requests {
        while sent < requests && in_flight.len() < window {
            in_flight.insert(sent as u64 + 1, Instant::now());
            stream.write_all(&wires[sent]).expect("send");
            sent += 1;
        }
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).expect("read prefix");
        let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
        stream.read_exact(&mut frame).expect("read frame");
        let (id, response) = protocol::decode_response(&frame).expect("decode");
        let started = in_flight.remove(&id).expect("known id");
        latencies.record(started.elapsed().as_micros() as u64);
        let row = (start_row + (id as usize - 1)) % expected.len();
        match response {
            Response::Predict(p) => {
                assert_eq!(p.predictions.len(), 1, "single-row predict");
                let logits = p.logits.expect("want_logits was set");
                let want = &expected[row];
                assert_eq!(logits.data().len(), want.len());
                for (k, (got, want)) in logits.data().iter().zip(want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        *want,
                        "storm load: logit {k} of row {row} corrupted under load"
                    );
                }
            }
            other => panic!("unexpected response under storm load: {other:?}"),
        }
        done += 1;
    }
}

/// Runs one verified active-load phase at `concurrency`.
fn run_phase(
    addr: SocketAddr,
    concurrency: usize,
    total_requests: usize,
    expected: &[Vec<u32>],
) -> PhaseResult {
    let window = WINDOW.min(concurrency);
    let connections = concurrency / window;
    let requests_each = total_requests / connections;
    // Shared log₂ histogram (`deepmorph-telemetry`): one relaxed atomic
    // add per response, quantiles straight from the bucket counts.
    let latencies = LogHistogram::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let latencies = &latencies;
                scope.spawn(move || {
                    drive_verified(
                        addr,
                        window,
                        requests_each,
                        c * requests_each,
                        expected,
                        latencies,
                    )
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("active load thread");
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let rows = connections * requests_each;
    let snapshot = latencies.snapshot();
    PhaseResult {
        throughput_rows_per_s: rows as f64 / wall,
        p50_us: snapshot.quantile(0.50) as f64,
        p95_us: snapshot.quantile(0.95) as f64,
        p99_us: snapshot.quantile(0.99) as f64,
        rows_verified: rows,
    }
}

/// The argv[1] sentinel that re-enters a storm binary as the idle herd.
const HERD_ARG: &str = "__idle_herd";

/// To be called first thing in `main` of every binary that embeds this
/// harness: if this process was re-exec'd as the idle-herd child,
/// runs the herd to completion and returns `true` (the caller must
/// then return without doing anything else).
pub fn maybe_idle_herd() -> bool {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some(HERD_ARG) {
        return false;
    }
    let addr: SocketAddr = args[2].parse().expect("herd addr");
    let count: usize = args[3].parse().expect("herd count");
    idle_herd_main(addr, count);
    true
}

/// The idle-herd child: connects `count` silent sockets in parent-paced
/// batches, then answers ping-check commands until told to quit.
///
/// Protocol (lines on stdio): child emits `batch <total>` after each
/// connect batch and blocks for `go`; emits `herd <count>` when the
/// full herd is attached; then serves `ping <n>` → `pong <ok>` and
/// exits on `done` or EOF, dropping every socket.
fn idle_herd_main(addr: SocketAddr, count: usize) {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut idle: Vec<TcpStream> = Vec::with_capacity(count);
    while idle.len() < count {
        let batch = IDLE_BATCH.min(count - idle.len());
        for _ in 0..batch {
            idle.push(TcpStream::connect(addr).expect("idle connect"));
        }
        println!("batch {}", idle.len());
        match lines.next() {
            Some(Ok(line)) if line == "go" => {}
            other => panic!("idle herd expected `go`, got {other:?}"),
        }
    }
    println!("herd {}", idle.len());
    for line in lines {
        let line = line.expect("herd stdin");
        if line == "done" {
            break;
        }
        if let Some(n) = line.strip_prefix("ping ") {
            let n: usize = n.parse().expect("ping count");
            let step = (idle.len() / n.max(1)).max(1);
            let picks: Vec<usize> = (0..idle.len()).step_by(step).take(n).collect();
            let mut ok = 0usize;
            for i in picks {
                if ping_idle(&mut idle[i]) {
                    ok += 1;
                }
            }
            println!("pong {ok}");
        }
    }
}

/// The parent's handle on the idle-herd child process.
struct IdleHerd {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl IdleHerd {
    /// Re-execs the current binary as the herd and walks it through the
    /// paced attach, gating each batch on the server's live connection
    /// gauge (nothing else is connected while this runs).
    fn attach(addr: SocketAddr, count: usize, server: &Server) -> IdleHerd {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .arg(HERD_ARG)
            .arg(addr.to_string())
            .arg(count.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn idle herd");
        let stdin = child.stdin.take().expect("herd stdin");
        let stdout = BufReader::new(child.stdout.take().expect("herd stdout"));
        let mut herd = IdleHerd {
            child,
            stdin,
            stdout,
        };
        loop {
            let line = herd.read_line();
            if let Some(total) = line.strip_prefix("batch ") {
                let target: u64 = total.parse().expect("batch total");
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    if server.stats().active_connections >= target {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "server accepted only {} of {target} idle connections in 30s",
                        server.stats().active_connections
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
                writeln!(herd.stdin, "go").expect("herd go");
            } else if let Some(total) = line.strip_prefix("herd ") {
                assert_eq!(total.parse::<usize>().expect("herd total"), count);
                return herd;
            } else {
                panic!("unexpected idle-herd line: {line:?}");
            }
        }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("herd stdout");
        assert!(n > 0, "idle herd exited early");
        line.trim_end().to_string()
    }

    /// Ping-checks `n` evenly spaced idle sockets; returns how many
    /// answered with a well-formed `Pong`.
    fn ping(&mut self, n: usize) -> usize {
        writeln!(self.stdin, "ping {n}").expect("herd ping");
        let line = self.read_line();
        line.strip_prefix("pong ")
            .unwrap_or_else(|| panic!("unexpected idle-herd line: {line:?}"))
            .parse()
            .expect("pong count")
    }

    /// Drops the herd (closing every idle socket) and reaps the child.
    fn finish(mut self) {
        let _ = writeln!(self.stdin, "done");
        drop(self.stdin);
        let _ = self.child.wait();
    }
}

/// Ping over a raw idle socket; returns whether a well-formed `Pong`
/// came back.
fn ping_idle(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let wire = protocol::encode_request(7, &Request::Ping);
    if stream.write_all(&wire).is_err() {
        return false;
    }
    let mut prefix = [0u8; 4];
    if stream.read_exact(&mut prefix).is_err() {
        return false;
    }
    let mut frame = vec![0u8; u32::from_le_bytes(prefix) as usize];
    if stream.read_exact(&mut frame).is_err() {
        return false;
    }
    matches!(
        protocol::decode_response(&frame),
        Ok((7, Response::Pong { .. }))
    )
}

/// Runs one full storm: baseline load, idle attach (flat-thread
/// assertion), storm load, idle spot checks, counter assertions.
pub fn run(config: &StormConfig) -> StormResult {
    let spec = ModelSpec::new(ModelFamily::AlexNet, ModelScale::Paper, [1, 16, 16], 10);
    let mut model = build_model(&spec, &mut stream_rng(42, "storm-bench")).unwrap();
    let mut registry = ModelRegistry::new();
    registry.register(MODEL, &mut model, None).unwrap();
    let server = Server::start(
        registry,
        ServerConfig {
            batch: BatchConfig {
                max_batch: 32,
                workers: 1,
            },
            max_connections: config.idle_connections + config.active_concurrency + 256,
            ..ServerConfig::default()
        },
    )
    .expect("storm server");
    let addr = server.local_addr();

    // Local reference forwards: the bitwise oracle for every response.
    let expected: Vec<Vec<u32>> = (0..config.distinct_rows.max(1))
        .map(|r| {
            model
                .graph
                .forward_inference(&input_row(r))
                .expect("local forward")
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();

    // Warm up replicas and pools before anything is timed.
    {
        let mut client = Client::connect(addr).expect("warmup connect");
        for i in 0..8 {
            let _ = client
                .predict(MODEL, &input_row(usize::MAX - i))
                .expect("warmup");
        }
    }

    let baseline = run_phase(
        addr,
        config.active_concurrency,
        config.total_requests,
        &expected,
    );

    // Attach the idle herd; the whole point is that this does not cost
    // threads. Measured with zero load-generator threads alive.
    let threads_before_idle = process_threads();
    let mut herd = IdleHerd::attach(addr, config.idle_connections, &server);
    let threads_with_idle = process_threads();
    assert!(
        threads_with_idle <= threads_before_idle,
        "thread count grew from {threads_before_idle} to {threads_with_idle} while attaching \
         {} idle connections — the event loop must absorb them",
        config.idle_connections
    );

    let storm = run_phase(
        addr,
        config.active_concurrency,
        config.total_requests,
        &expected,
    );

    let stats = server.stats();
    assert!(
        stats.active_connections >= config.idle_connections as u64,
        "gauge says {} live connections with {} idle sockets attached",
        stats.active_connections,
        config.idle_connections
    );
    assert!(stats.loop_wakeups > 0, "event loops reported zero wakeups");
    assert!(
        stats.outbound_hwm_bytes > 0,
        "outbound high-water mark never moved despite predict responses"
    );

    // Long-idle sockets must still be live connections, not zombies.
    let spot_checks_ok = herd.ping(config.spot_checks);
    assert_eq!(
        spot_checks_ok, config.spot_checks,
        "only {spot_checks_ok} of {} idle sockets answered a ping after the storm",
        config.spot_checks
    );

    herd.finish();
    server.shutdown();

    StormResult {
        idle_connections: config.idle_connections,
        baseline,
        storm,
        threads_before_idle,
        threads_with_idle,
        spot_checks_ok,
        active_connections: stats.active_connections,
        conns_accepted: stats.conns_accepted,
        loop_wakeups: stats.loop_wakeups,
        outbound_hwm_bytes: stats.outbound_hwm_bytes,
        p50_ratio: if baseline.p50_us > 0.0 {
            storm.p50_us / baseline.p50_us
        } else {
            f64::INFINITY
        },
    }
}
