//! Blocking client for the serve protocol.
//!
//! Besides the request/response plumbing, the client owns the *retry*
//! half of the overload-control contract: the server sheds work with
//! typed `busy` / `overloaded` / `expired` errors, and a client
//! configured with a [`RetryPolicy`] answers those (plus transport
//! failures — dropped frames, truncated responses, resets) with
//! jittered exponential backoff and, for transport failures, a
//! reconnect. Retries are **off by default** ([`RetryPolicy::none`]):
//! an unconfigured client behaves exactly as before this policy
//! existed. Jitter is deterministic (a seeded hash of the attempt
//! number), keeping chaos tests reproducible end to end.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use deepmorph_tensor::Tensor;

use crate::error::{ErrorCode, ServeError, ServeResult};
use crate::protocol::{
    decode_response, encode_request, DiagnoseResponse, ModelInfo, PredictRequest, PredictResponse,
    RepairResponse, Request, Response, RollbackResponse, TelemetryReport, VersionInfo,
    MAX_FRAME_BYTES,
};

/// How long a client waits for one response before giving up, unless
/// configured otherwise ([`ClientConfig::response_timeout`]). Diagnosis
/// trains probes server-side, so the bound is generous.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(300);

/// Client-side retry behavior for retryable failures: transport errors
/// (IO, lost framing) and the server's typed admission-control errors
/// (`busy`, `overloaded`, `expired`). Non-idempotent requests (repair,
/// rollback) are never retried regardless of policy — a retry there
/// could execute the operation twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). `1` = no retry.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter applied to each backoff (each
    /// sleep is scaled into `[50%, 100%]` of its nominal value).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately. The default.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }

    /// Up to `max_attempts` total attempts with the default backoff
    /// curve (10 ms base, doubling, 500 ms cap) and jitter seed.
    pub fn retries(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..Self::none()
        }
    }

    /// The jittered backoff before retry number `retry` (1-based).
    fn backoff(&self, retry: u32) -> Duration {
        let nominal = self
            .base_backoff
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16))
            .min(self.max_backoff);
        // Deterministic jitter in [0.5, 1.0): a splitmix64-style hash of
        // (seed, retry) — reproducible run to run, decorrelated across
        // clients with different seeds.
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        nominal.mul_f64(0.5 + 0.5 * unit)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Client construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// How long to wait for one response before giving up. Requests
    /// carrying an explicit deadline budget wait at most the *remaining*
    /// budget instead, whichever is smaller.
    pub response_timeout: Duration,
    /// Retry behavior; [`RetryPolicy::none`] by default.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            response_timeout: RESPONSE_TIMEOUT,
            retry: RetryPolicy::none(),
        }
    }
}

/// A synchronous connection to a serve instance: one request in flight
/// at a time, responses matched by echoed id.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Resolved peer address, kept for transport-failure reconnects.
    addr: SocketAddr,
    config: ClientConfig,
    /// The read timeout currently set on the socket (tracked to skip the
    /// syscall when it has not changed).
    read_timeout: Duration,
    next_id: u64,
}

impl Client {
    /// Connects to a server with the default configuration (300 s
    /// response timeout, no retries).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> ServeResult<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a server with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on connection failure.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> ServeResult<Client> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.response_timeout))?;
        Ok(Client {
            stream,
            addr,
            config,
            read_timeout: config.response_timeout,
            next_id: 1,
        })
    }

    /// The underlying socket, for tuning (buffer sizes, platform socket
    /// options) and tests. Reading or writing bytes through it desyncs
    /// the client's framing; stick to option setters.
    pub fn socket(&self) -> &TcpStream {
        &self.stream
    }

    /// Replaces a dead transport with a fresh connection to the same
    /// address. Request ids keep increasing across the reconnect, so a
    /// straggler response from the old connection can never be matched
    /// to a new request.
    fn reconnect(&mut self) -> ServeResult<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        self.stream = stream;
        Ok(())
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> ServeResult<()> {
        // Zero would mean "no timeout" to the OS; clamp up instead.
        let timeout = timeout.max(Duration::from_millis(1));
        if timeout != self.read_timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.read_timeout = timeout;
        }
        Ok(())
    }

    /// One request/response exchange, no retries.
    fn call_once(&mut self, request: &Request, deadline: Option<Instant>) -> ServeResult<Response> {
        // Never wait past the caller's deadline budget for a response.
        let timeout = match deadline {
            Some(d) => self
                .config
                .response_timeout
                .min(d.saturating_duration_since(Instant::now())),
            None => self.config.response_timeout,
        };
        self.set_read_timeout(timeout)?;
        // One absolute deadline for the whole response: the per-syscall
        // receive timeout alone would reset on every partial read, so a
        // response trickling in against the nonblocking server could
        // wait far past the configured timeout.
        let response_deadline = Instant::now() + timeout.max(Duration::from_millis(1));

        let id = self.next_id;
        self.next_id += 1;
        write_full(&mut self.stream, &encode_request(id, request))?;

        let response = loop {
            let mut prefix = [0u8; 4];
            read_full(&mut self.stream, &mut prefix, response_deadline)?;
            let len = u32::from_le_bytes(prefix) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(ServeError::Protocol {
                    reason: format!("server frame claims {len} bytes"),
                });
            }
            let mut frame = vec![0u8; len];
            read_full(&mut self.stream, &mut frame, response_deadline)?;
            let (echoed, response) = decode_response(&frame)?;
            // A frame older than this request is a straggler answer to a
            // call we abandoned (its deadline lapsed locally); drop it
            // and keep reading for ours.
            if echoed < id && echoed != 0 {
                continue;
            }
            // Error frames for undecodable requests carry id 0.
            if echoed != id && echoed != 0 {
                return Err(ServeError::Protocol {
                    reason: format!("response id {echoed} does not match request id {id}"),
                });
            }
            break response;
        };
        match response {
            Response::Error(e) => Err(ServeError::Remote {
                code: e.code,
                message: e.message,
            }),
            other => Ok(other),
        }
    }

    /// Failures worth retrying: the transport broke (the request may
    /// never have arrived, or the response was lost on the way back), the
    /// server explicitly shed the request and asked us to come back, or
    /// the server hit an internal fault (e.g. a contained worker panic
    /// dropped the batch) — transient by the containment contract, and
    /// bounded by `max_attempts` if it turns out not to be.
    fn retryable_error(e: &ServeError) -> bool {
        match e {
            ServeError::Io { .. } | ServeError::Protocol { .. } => true,
            ServeError::Remote { code, .. } => matches!(
                code,
                ErrorCode::Busy | ErrorCode::Overloaded | ErrorCode::Expired | ErrorCode::Internal
            ),
            _ => false,
        }
    }

    /// A request/response exchange with the configured retry policy.
    ///
    /// `budget` bounds the *whole* exchange — attempts, backoffs, and
    /// waits together never exceed it — and, for predict requests, is
    /// re-encoded per attempt as the remaining `deadline_ms` so the
    /// server sheds work we have already given up on. `retryable` is
    /// `false` for non-idempotent requests, which always get exactly one
    /// attempt.
    fn call_with(
        &mut self,
        mut request: Request,
        retryable: bool,
        budget: Option<Duration>,
    ) -> ServeResult<Response> {
        let deadline = budget.map(|b| Instant::now() + b);
        let policy = self.config.retry;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if let (Request::Predict(p), Some(d)) = (&mut request, deadline) {
                let remaining = d.saturating_duration_since(Instant::now());
                p.deadline_ms = (remaining.as_millis() as u64).max(1);
            }
            let err = match self.call_once(&request, deadline) {
                Ok(response) => return Ok(response),
                Err(e) => e,
            };
            if !(retryable && attempt < policy.max_attempts.max(1) && Self::retryable_error(&err)) {
                return Err(err);
            }
            let mut backoff = policy.backoff(attempt);
            if let Some(d) = deadline {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(err);
                }
                backoff = backoff.min(remaining);
            }
            std::thread::sleep(backoff);
            if matches!(
                err,
                ServeError::Io { .. } | ServeError::Protocol { .. } | ServeError::Codec(_)
            ) {
                // The old socket is suspect (reset, desynced framing);
                // a failed reconnect just makes the next attempt fail
                // fast and consume its slot.
                let _ = self.reconnect();
            }
        }
    }

    fn unexpected<T>(what: &str) -> ServeResult<T> {
        Err(ServeError::Protocol {
            reason: format!("unexpected response kind to {what}"),
        })
    }

    /// Liveness check; returns the registered model count.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed.
    pub fn ping(&mut self) -> ServeResult<u64> {
        match self.call_with(Request::Ping, true, None)? {
            Response::Pong { models } => Ok(models),
            _ => Self::unexpected("ping"),
        }
    }

    /// Lists the registry.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed.
    pub fn models(&mut self) -> ServeResult<Vec<ModelInfo>> {
        match self.call_with(Request::ListModels, true, None)? {
            Response::Models(models) => Ok(models),
            _ => Self::unexpected("list-models"),
        }
    }

    /// Runs inference on `rows` (`[n, c, h, w]`), returning argmax
    /// predictions.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed.
    pub fn predict(&mut self, model: &str, rows: &Tensor) -> ServeResult<PredictResponse> {
        self.predict_request(model, rows, false, &[], None)
    }

    /// [`Client::predict`] under a deadline budget: the server sheds the
    /// request (typed `expired` error) if it cannot reach compute within
    /// the budget, and the client bounds its waits — and any configured
    /// retries — by the remaining budget instead of the flat response
    /// timeout.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed — including
    /// [`crate::ErrorCode::Expired`] when the budget ran out.
    pub fn predict_within(
        &mut self,
        model: &str,
        rows: &Tensor,
        budget: Duration,
    ) -> ServeResult<PredictResponse> {
        self.predict_request(model, rows, false, &[], Some(budget))
    }

    /// Full-control inference: optionally request raw logits and/or
    /// supply ground-truth labels so the server can accumulate
    /// misclassified cases for [`Client::diagnose`].
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed.
    pub fn predict_full(
        &mut self,
        model: &str,
        rows: &Tensor,
        want_logits: bool,
        true_labels: &[usize],
    ) -> ServeResult<PredictResponse> {
        self.predict_request(model, rows, want_logits, true_labels, None)
    }

    fn predict_request(
        &mut self,
        model: &str,
        rows: &Tensor,
        want_logits: bool,
        true_labels: &[usize],
        budget: Option<Duration>,
    ) -> ServeResult<PredictResponse> {
        let request = Request::Predict(PredictRequest {
            model: model.to_string(),
            rows: rows.clone(),
            want_logits,
            true_labels: true_labels.to_vec(),
            deadline_ms: 0,
        });
        match self.call_with(request, true, budget)? {
            Response::Predict(p) => Ok(p),
            _ => Self::unexpected("predict"),
        }
    }

    /// Runs live defect diagnosis over the traffic this server has
    /// accumulated for `model`.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed — including
    /// [`crate::ErrorCode::Diagnosis`] when no labeled misclassified
    /// traffic exists yet.
    pub fn diagnose(&mut self, model: &str) -> ServeResult<DiagnoseResponse> {
        match self.call_with(
            Request::Diagnose {
                model: model.to_string(),
            },
            true,
            None,
        )? {
            Response::Diagnose(d) => Ok(d),
            _ => Self::unexpected("diagnose"),
        }
    }

    /// Runs the online repair loop for `model`: diagnose the accumulated
    /// traffic, execute the recommended repair, and — when the retrained
    /// model is at least as accurate on the held-out set — hot-swap it in
    /// as a new version. Blocks for the retraining; concurrent predict
    /// traffic (on other connections) is not affected. Never retried.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed — including
    /// [`crate::ErrorCode::Repair`] when no actionable plan exists or a
    /// repair of the model is already running.
    pub fn repair(&mut self, model: &str) -> ServeResult<RepairResponse> {
        match self.call_with(
            Request::Repair {
                model: model.to_string(),
            },
            false,
            None,
        )? {
            Response::Repair(r) => Ok(r),
            _ => Self::unexpected("repair"),
        }
    }

    /// Reverts `model` to its previous published version — the ungated
    /// operator escape hatch for a bad swap. The restored version serves
    /// bitwise-identically to when it last served. Never retried (a
    /// retried rollback whose response was merely lost would revert one
    /// version further than asked).
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed — including
    /// [`crate::ErrorCode::BadInput`] when no previous version exists and
    /// [`crate::ErrorCode::Repair`] when a repair is mid-flight.
    pub fn rollback(&mut self, model: &str) -> ServeResult<RollbackResponse> {
        match self.call_with(
            Request::Rollback {
                model: model.to_string(),
            },
            false,
            None,
        )? {
            Response::Rollback(r) => Ok(r),
            _ => Self::unexpected("rollback"),
        }
    }

    /// Lists `model`'s version chain, oldest first.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed.
    pub fn versions(&mut self, model: &str) -> ServeResult<Vec<VersionInfo>> {
        match self.call_with(
            Request::ListVersions {
                model: model.to_string(),
            },
            true,
            None,
        )? {
            Response::Versions(v) => Ok(v),
            _ => Self::unexpected("list-versions"),
        }
    }

    /// Fetches the full observability report: the serving counters and
    /// each held version's live-traffic counters, plus, while telemetry
    /// is armed, latency histograms, per-stage spans and the slowest
    /// request traces. The payload is versioned and length-prefixed, so
    /// this client keeps working against servers that append fields.
    ///
    /// # Errors
    ///
    /// IO, protocol, and server errors, all typed.
    pub fn telemetry(&mut self) -> ServeResult<TelemetryReport> {
        match self.call_with(Request::Telemetry, true, None)? {
            Response::Telemetry(t) => Ok(t),
            _ => Self::unexpected("telemetry"),
        }
    }
}

/// Writes the whole buffer, looping over partial writes, `Interrupted`,
/// and spurious `WouldBlock`: with deliberately tiny socket buffers (or
/// a slow-draining nonblocking peer) even a blocking socket returns
/// short writes, and `write_all` alone would surface a transient
/// `WouldBlock` as a hard transport error.
fn write_full(stream: &mut TcpStream, mut buf: &[u8]) -> ServeResult<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => {
                return Err(ServeError::Io {
                    message: "server closed while request was being written".into(),
                })
            }
            Ok(n) => buf = &buf[n..],
            Err(e)
                if e.kind() == std::io::ErrorKind::Interrupted
                    || e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e.into()),
        }
    }
    stream.flush()?;
    Ok(())
}

/// Fills `buf`, tolerating short reads: the per-syscall receive timeout
/// acts as a poll tick against one absolute `deadline`, so a response
/// arriving in arbitrarily small chunks neither errors out mid-frame
/// (desyncing the stream) nor extends the total wait beyond the
/// caller's timeout.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> ServeResult<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ServeError::Io {
                    message: format!("server closed mid-frame ({filled}/{} bytes)", buf.len()),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(e.into());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 42,
        };
        let a = policy.backoff(1);
        assert_eq!(a, policy.backoff(1), "same inputs, same backoff");
        // Each backoff lands in [50%, 100%] of min(base * 2^(n-1), cap).
        for retry in 1..=8u32 {
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << (retry - 1))
                .min(Duration::from_millis(100));
            let b = policy.backoff(retry);
            assert!(b <= nominal, "retry {retry}: {b:?} > {nominal:?}");
            assert!(
                b >= nominal.mul_f64(0.5),
                "retry {retry}: {b:?} < half of {nominal:?}"
            );
        }
        // Different seeds decorrelate.
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy
        };
        assert_ne!(policy.backoff(3), other.backoff(3));
    }

    #[test]
    fn retryable_errors_are_the_shed_and_transport_kinds() {
        let yes = [
            ServeError::Io {
                message: "reset".into(),
            },
            ServeError::Protocol {
                reason: "desync".into(),
            },
            ServeError::Remote {
                code: ErrorCode::Busy,
                message: "full".into(),
            },
            ServeError::Remote {
                code: ErrorCode::Overloaded,
                message: "cap".into(),
            },
            ServeError::Remote {
                code: ErrorCode::Expired,
                message: "late".into(),
            },
            ServeError::Remote {
                code: ErrorCode::Internal,
                message: "worker panicked".into(),
            },
        ];
        for e in &yes {
            assert!(Client::retryable_error(e), "{e} should be retryable");
        }
        let no = [
            ServeError::Remote {
                code: ErrorCode::BadInput,
                message: "shape".into(),
            },
            ServeError::Remote {
                code: ErrorCode::UnknownModel,
                message: "who".into(),
            },
            ServeError::BadInput {
                reason: "local".into(),
            },
        ];
        for e in &no {
            assert!(!Client::retryable_error(e), "{e} should not be retryable");
        }
    }
}
