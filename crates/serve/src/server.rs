//! The TCP inference server.
//!
//! One readiness-driven event-loop thread (`crate::event_loop`) owns
//! the listener and holds every connection; predicts are handed to the
//! one worker of the [`crate::batch`] scheduler, which writes their
//! responses straight to the connection's socket (through the loop's
//! per-connection outbound buffer only when the socket is backed up).
//! The thread count is a function of configuration, never of
//! connection count.
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
use crate::batch::{Scheduler, ServeStats};
use crate::cases::LiveCases;
use crate::conn::LoopNotify;
use crate::error::{ServeError, ServeResult};
use crate::event_loop::start_loop;
use crate::registry::ModelRegistry;
use crate::repair::RepairState;

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
    /// Maximum rows the scheduler coalesces into one forward. `1`
    /// disables batching (every request dispatches alone — the
    /// `serve_bench` control).
    pub max_batch: usize,
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
            max_batch: 32,
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
    pub(crate) scheduler: Scheduler,
    /// Per-model misclassification buffers, parallel to the registry
    /// slots (versions of one name share a buffer; a hot-swap advances
    /// its epoch and clears it).
    pub(crate) cases: Vec<Arc<Mutex<LiveCases>>>,
    pub(crate) deepmorph: DeepMorphConfig,
    pub(crate) repair: RepairState,
    pub(crate) max_connections: usize,
    pub(crate) shutdown: AtomicBool,
    /// The event loop's cross-thread face: its waker and the dirty set
    /// producers mark connections with a backlog in.
    pub(crate) notify: Arc<LoopNotify>,
    /// The diagnose/repair/rollback executor threads, reused across
    /// calls and joined at shutdown.
    pub(crate) admin: AdminPool,
}

/// A running inference server. Dropping it shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    /// The event loop's thread; taken (and joined) by the first stop.
    io_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("models", &self.shared.registry.len())
            .finish()
    }
}

impl Server {
    /// Binds, spawns the scheduler worker and the I/O event loop, and
    /// returns immediately. The first start in a process also raises
    /// `RLIMIT_NOFILE` as far as the kernel allows and logs the
    /// effective cap.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the address cannot be bound or the
    /// scheduler worker or the event loop cannot be started, and
    /// [`ServeError::BadInput`] for an empty registry.
    pub fn start(registry: ModelRegistry, config: ServerConfig) -> ServeResult<Server> {
        if registry.is_empty() {
            return Err(ServeError::BadInput {
                reason: "refusing to serve an empty model registry".into(),
            });
        }
        // Once per process: a connection storm needs fds, and the
        // default soft limit (often 1024) dies at a fraction of what
        // the event loop can hold.
        static NOFILE: Once = Once::new();
        NOFILE.call_once(|| match deepmorph_net::raise_nofile_limit(NOFILE_TARGET) {
            Ok(cap) => eprintln!("deepmorph-serve: RLIMIT_NOFILE effective soft limit = {cap}"),
            Err(e) => eprintln!("deepmorph-serve: could not raise RLIMIT_NOFILE: {e}"),
        });
        let registry = Arc::new(registry);
        let stats = Arc::new(ServeStats::default());
        let scheduler = Scheduler::new(Arc::clone(&registry), config.max_batch, Arc::clone(&stats))
            .map_err(|e| ServeError::Io {
                message: format!("cannot start the scheduler worker: {e}"),
            })?;
        let cases = registry
            .ids()
            .map(|id| {
                let mut cases =
                    LiveCases::new(registry.current(id).spec.input_shape, MAX_LIVE_CASES);
                // Align the buffer with the slot's current epoch, which
                // is not always 0: `publish` and `rollback` take `&self`,
                // so a registry can swap versions before it is served.
                // Workers record misses at their replica's epoch; a buffer
                // left behind it would count every one as stale, and
                // diagnose would find no cases.
                cases.advance_epoch(registry.epoch(id));
                Arc::new(Mutex::new(cases))
            })
            .collect();
        let repair = RepairState::new(registry.len());
        let listener = TcpListener::bind(&config.addr)?;
        let _ = deepmorph_net::boost_listen_backlog(&listener, LISTEN_BACKLOG);
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            registry,
            stats,
            scheduler,
            cases,
            deepmorph: config.deepmorph,
            repair,
            max_connections: config.max_connections.max(1),
            shutdown: AtomicBool::new(false),
            notify: Arc::new(LoopNotify::new()?),
            admin: AdminPool::default(),
        });
        let io_thread = start_loop(&shared, listener).map_err(|e| ServeError::Io {
            message: format!("cannot start the event loop: {e}"),
        })?;
        Ok(Server {
            local_addr,
            shared,
            io_thread: Some(io_thread),
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

    /// Stops accepting connections, drains in-flight work, and joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(io_thread) = self.io_thread.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify.waker.wake();
        let _ = io_thread.join();
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
    use crate::sync::LockRecover;
    use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};
    use deepmorph_tensor::init::stream_rng;

    #[test]
    fn start_aligns_live_cases_with_the_registry_epoch() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
        let model = |seed| build_model(&spec, &mut stream_rng(seed, "server-test")).unwrap();
        let mut registry = ModelRegistry::new();
        let id = registry.register("m", &mut model(1), None).unwrap();
        registry.publish(id, &mut model(2), None).unwrap();
        let server = Server::start(registry, ServerConfig::default()).unwrap();
        let epoch = server.shared.registry.epoch(id);
        assert_eq!(epoch, 1);
        assert_eq!(
            server.shared.cases[id.index()].lock_recover().epoch(),
            epoch
        );
        server.shutdown();
    }
}
