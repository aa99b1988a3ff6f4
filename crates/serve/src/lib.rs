//! **deepmorph-serve** — online inference and live defect diagnosis.
//!
//! After three PRs of offline machinery, this crate turns the DeepMorph
//! reproduction into a *service*: a threaded TCP server that loads
//! trained models from the `deepmorph-models` save format, answers
//! inference requests over a length-prefixed binary protocol, coalesces
//! concurrent requests into micro-batches, and — true to the paper's
//! framing of defect diagnosis as something operators run against
//! *deployed* models — diagnoses a model's live misclassified traffic
//! with the full DeepMorph pipeline on demand.
//!
//! The pieces:
//!
//! * [`protocol`] — the wire format: `u32` length prefix + a checksummed
//!   `deepmorph_tensor::io` container per frame. Malformed input becomes
//!   a typed error frame; the server never dies on client bytes.
//! * [`registry`] — named, *versioned* models, loaded from `*.dmmd` /
//!   `*@vN.dmmd` files or registered in process, each version stamped
//!   with a 128-bit content fingerprint. Every name is a hot-swappable
//!   version chain: publishing a repaired model atomically replaces the
//!   serving version without dropping or perturbing a single predict
//!   request. Serving workers instantiate independent *replicas*
//!   (rebuild from spec + exact state import), which predict bitwise
//!   identically to the saved model, and refresh them at batch
//!   boundaries when the version epoch moves.
//! * [`batch`] — the dynamic micro-batching scheduler: a bounded queue,
//!   worker-owned replicas, coalescing whatever queued up behind the
//!   head request (up to `max_batch` rows, no waiting for stragglers),
//!   one `Graph::forward_inference` per batch, per-row scatter. Batched
//!   responses are **bitwise identical** to solo responses (eval-mode
//!   rows are computed independently — pinned by tests at the GEMM,
//!   graph, scheduler, and protocol levels).
//! * [`server`] / [`client`] — the TCP endpoints. The server is
//!   readiness-driven: a fixed pool of epoll event-loop threads
//!   (`deepmorph-net`, raw syscall bindings — no async runtime) holds
//!   every connection and assembles frames incrementally ([`conn`]), so
//!   one process carries tens of thousands of mostly idle sockets on a
//!   constant thread count. Workers write their replies straight to the
//!   socket; only bytes a backed-up socket would not take go through a
//!   bounded per-connection outbound buffer that the loop flushes.
//! * [`cases`] — per-model accumulation of labeled misclassified
//!   traffic, the input to the diagnose endpoint; version-scoped, so a
//!   hot-swap can never leak pre-repair mistakes into the next
//!   diagnosis.
//! * [`repair`] — the online diagnose → repair → hot-swap loop: a
//!   memoized per-version diagnosis session, plan execution through the
//!   staged engine (cached in an artifact store), a held-out accuracy
//!   gate, and the atomic version swap.
//!
//! # Example (in-process round trip)
//!
//! ```no_run
//! use deepmorph_serve::prelude::*;
//! use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};
//! use deepmorph_tensor::{init::stream_rng, Tensor};
//!
//! # fn main() -> Result<(), ServeError> {
//! let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
//! let mut model = build_model(&spec, &mut stream_rng(0, "doc"))?;
//! let mut registry = ModelRegistry::new();
//! registry.register("lenet", &mut model, None)?;
//!
//! let server = Server::start(registry, ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let rows = Tensor::zeros(&[1, 1, 16, 16]);
//! let response = client.predict("lenet", &rows)?;
//! assert_eq!(response.predictions.len(), 1);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

mod admin;
pub mod batch;
pub mod cases;
pub mod conn;
mod error;
mod event_loop;
pub mod protocol;
pub mod registry;
pub mod repair;
pub mod server;
mod sync;

pub mod client;

pub use batch::{BatchConfig, JobOutput, Scheduler, ServeStats};
pub use client::{Client, ClientConfig, RetryPolicy};
pub use conn::{FrameAssembler, FramingError};
pub use error::{ErrorCode, ServeError, ServeResult};
pub use registry::{DiagnosisContext, ModelId, ModelRegistry, VersionPin};
pub use repair::PromoteResponse;
pub use server::{Server, ServerConfig};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::batch::{BatchConfig, JobOutput, Scheduler, ServeStats};
    pub use crate::cases::LiveCases;
    pub use crate::client::{Client, ClientConfig, RetryPolicy};
    pub use crate::error::{ErrorCode, ServeError, ServeResult};
    pub use crate::protocol::{
        DiagnoseResponse, ModelInfo, PredictResponse, RepairResponse, RollbackResponse,
        StatsSnapshot, TelemetryReport, VersionInfo, VersionTraffic,
    };
    pub use crate::registry::{DiagnosisContext, ModelId, ModelRegistry, VersionPin};
    pub use crate::repair::PromoteResponse;
    pub use crate::server::{Server, ServerConfig};
    pub use deepmorph_nn::prelude::{BackendKind, ComputeCtx, Precision};
    pub use deepmorph_telemetry::{
        HistogramSnapshot, Stage, Telemetry, TelemetryConfig, TelemetrySnapshot, Trace,
    };
}
