//! The TCP inference server.
//!
//! A fixed pool of readiness-driven event-loop threads
//! (`crate::event_loop`) holds every connection; predicts are handed
//! to the [`Scheduler`]'s workers, which write their responses straight
//! to the connection's socket (through the owning loop's per-connection
//! outbound buffer only when the socket is backed up). The thread count
//! is a function of configuration, never of connection count.
//!
//! Failure policy: **the server never dies on client input.** A frame
//! that fails to decode is answered with a typed error frame; a stream
//! whose framing is lost (corrupt length prefix, mid-frame disconnect)
//! gets a best-effort error frame and the connection — only the
//! connection — is closed. Running out of fds pauses *accepting*, not
//! serving.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};

use deepmorph::pipeline::DeepMorphConfig;

use crate::admin::AdminPool;
use crate::batch::{BatchConfig, Scheduler, ServeStats};
use crate::cases::LiveCases;
use crate::error::{ServeError, ServeResult};
use crate::event_loop::{start_loop, LoopState, IO_THREADS};
use crate::registry::ModelRegistry;
use crate::repair::{self, PromoteResponse, RepairState};
use deepmorph_nn::prelude::Precision;

/// Listen backlog requested on the bound socket. `TcpListener::bind`
/// hardcodes 128, which a connection storm overflows into SYN
/// retransmit stalls; the kernel clamps this to `net.core.somaxconn`.
const LISTEN_BACKLOG: u32 = 4096;

/// `RLIMIT_NOFILE` target requested at first server start.
const NOFILE_TARGET: u64 = 1 << 20;

/// Per-model cap on retained misclassified cases for live diagnosis.
const MAX_LIVE_CASES: usize = 256;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Micro-batching configuration.
    pub batch: BatchConfig,
    /// DeepMorph configuration used by the diagnose and repair endpoints.
    pub deepmorph: DeepMorphConfig,
    /// Cap on simultaneously live connections; a connection beyond it is
    /// answered with one typed overloaded error frame and closed, so
    /// clients can tell admission rejection from a network failure (and
    /// their backoff policy treats it as retryable).
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig::default(),
            deepmorph: DeepMorphConfig {
                max_faulty_cases: 256,
                ..DeepMorphConfig::default()
            },
            max_connections: 1024,
        }
    }
}

pub(crate) struct ServerShared {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) stats: Arc<ServeStats>,
    pub(crate) scheduler: Arc<Scheduler>,
    /// Per-model misclassification buffers, parallel to the registry
    /// slots (versions of one name share a buffer; a hot-swap advances
    /// its epoch and clears it).
    pub(crate) cases: Vec<Arc<Mutex<LiveCases>>>,
    pub(crate) deepmorph: DeepMorphConfig,
    pub(crate) repair: RepairState,
    pub(crate) max_connections: usize,
    pub(crate) shutdown: AtomicBool,
    /// The event loops' cross-thread faces (wakers, dirty sets, accept
    /// inboxes), indexed by loop.
    pub(crate) loops: Vec<Arc<LoopState>>,
    /// The diagnose/repair/rollback executor threads, reused across
    /// calls and joined at shutdown.
    pub(crate) admin: AdminPool,
}

/// A running inference server. Dropping it shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    io_threads: Vec<std::thread::JoinHandle<()>>,
    stopped: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("models", &self.shared.registry.len())
            .field("io_threads", &self.io_threads.len())
            .finish()
    }
}

impl Server {
    /// Binds, spawns the scheduler workers and the I/O event loops, and
    /// returns immediately. The first start in a process also raises
    /// `RLIMIT_NOFILE` as far as the kernel allows and logs the
    /// effective cap. The registry keeps its retention policy
    /// ([`ModelRegistry::set_retention`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the address cannot be bound or the
    /// event loops cannot be set up, and [`ServeError::BadInput`] for an
    /// empty registry.
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> ServeResult<Server> {
        if registry.is_empty() {
            return Err(ServeError::BadInput {
                reason: "refusing to serve an empty model registry".into(),
            });
        }
        // Once per process: a connection storm needs fds, and the
        // default soft limit (often 1024) dies at a fraction of what
        // the event loops can hold.
        static NOFILE: Once = Once::new();
        NOFILE.call_once(|| match deepmorph_net::raise_nofile_limit(NOFILE_TARGET) {
            Ok(cap) => eprintln!("deepmorph-serve: RLIMIT_NOFILE effective soft limit = {cap}"),
            Err(e) => eprintln!("deepmorph-serve: could not raise RLIMIT_NOFILE: {e}"),
        });
        let registry = Arc::new(registry);
        let stats = Arc::new(ServeStats::default());
        let scheduler = Arc::new(Scheduler::new(
            Arc::clone(&registry),
            config.batch,
            Arc::clone(&stats),
        ));
        let cases = registry
            .ids()
            .map(|id| {
                let mut cases =
                    LiveCases::new(registry.current(id).spec.input_shape, MAX_LIVE_CASES);
                // Align the buffer with the slot's current epoch. Today
                // every slot starts at epoch 0 (epochs are per-process,
                // not persisted), so this is a no-op kept so the pairing
                // survives any future change to slot construction.
                cases.advance_epoch(registry.epoch(id));
                Arc::new(Mutex::new(cases))
            })
            .collect();
        let repair = RepairState::new(registry.len());
        let listener = TcpListener::bind(&config.addr)?;
        let _ = deepmorph_net::boost_listen_backlog(&listener, LISTEN_BACKLOG);
        let local_addr = listener.local_addr()?;
        let loops = (0..IO_THREADS)
            .map(|_| LoopState::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let shared = Arc::new(ServerShared {
            registry,
            stats,
            scheduler,
            cases,
            deepmorph: config.deepmorph,
            repair,
            max_connections: config.max_connections.max(1),
            shutdown: AtomicBool::new(false),
            loops,
            admin: AdminPool::default(),
        });
        let mut io_threads = Vec::with_capacity(shared.loops.len());
        let mut listener = Some(listener);
        for index in 0..shared.loops.len() {
            let handle = start_loop(&shared, index, listener.take()).map_err(|e| {
                // Unblock and unwind whatever already started.
                shared.shutdown.store(true, Ordering::Release);
                for state in &shared.loops {
                    state.notify.waker.wake();
                }
                ServeError::Io {
                    message: format!("cannot start event loop {index}: {e}"),
                }
            })?;
            io_threads.push(handle);
        }
        Ok(Server {
            local_addr,
            shared,
            io_threads,
            stopped: false,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live serving counters.
    pub fn stats(&self) -> crate::protocol::StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Switches `model`'s serving replicas to a quantized precision (or
    /// back to f32), gated on the held-out set exactly like a repair
    /// hot-swap: the quantized replica must not lose accuracy against the
    /// f32 serving model, or nothing changes. An in-process
    /// administrative operation — predict traffic never waits on it;
    /// workers rebuild their replicas at the next batch boundary.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered name,
    /// [`ServeError::Diagnosis`] when the model has no provenance sidecar
    /// to regenerate the held-out set from, and [`ServeError::Model`]
    /// when the quantized replica cannot be built.
    pub fn promote_quantized(
        &self,
        model: &str,
        precision: Precision,
    ) -> ServeResult<PromoteResponse> {
        let id = self
            .shared
            .registry
            .find(model)
            .ok_or_else(|| ServeError::UnknownModel {
                name: model.to_string(),
            })?;
        repair::promote_quantized(&self.shared, id, precision)
    }

    /// Stops accepting connections, drains in-flight work, and joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.shutdown.store(true, Ordering::Release);
        for state in &self.shared.loops {
            state.notify.waker.wake();
        }
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
        self.shared.admin.shutdown();
        self.shared.scheduler.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};
    use deepmorph_tensor::init::stream_rng;

    #[test]
    fn start_keeps_the_registry_retention() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
        let mut model = build_model(&spec, &mut stream_rng(1, "server-test")).unwrap();
        let mut registry = ModelRegistry::new();
        registry.register("m", &mut model, None).unwrap();
        registry.set_retention(Some(1));
        let server = Server::start(registry, ServerConfig::default()).unwrap();
        assert_eq!(server.shared.registry.retention(), Some(1));
        server.shutdown();
    }
}
