//! The readiness-driven I/O loops.
//!
//! A fixed pool of event-loop threads (one epoll instance each,
//! [`IO_THREADS`] of them) replaces the old
//! thread-per-connection model, so the process holds tens of thousands
//! of connections on a constant number of OS threads. Loop 0 owns the
//! nonblocking listener and deals accepted connections round-robin to
//! every loop (including itself) through per-loop inboxes; each loop
//! owns its connections' reads, their [`FrameAssembler`]s, their
//! epoll registrations, and the flush side of their [`Outbound`]
//! buffers.
//!
//! Division of labor:
//!
//! * **Loops never compute.** Cheap requests (ping, listings, stats)
//!   are answered inline; predicts are validated and enqueued with the
//!   scheduler; diagnose/repair/rollback — minutes-class retraining —
//!   run on the server's reusable admin threads ([`crate::admin`]).
//! * **Producers write their own replies.** A scheduler worker, an
//!   admin thread, or the loop itself writes an encoded frame straight
//!   to the socket when nothing is buffered ahead of it
//!   ([`Outbound::write_through`]), so a lone reply costs no loop
//!   wakeup. The loop is woken only when it has work left: the bytes a
//!   short write could not send, frames queued behind them, or a
//!   pending close. It flushes that backlog when the socket turns
//!   writable. Backpressure is two-stage: a connection whose outbound
//!   backlog passes [`READ_PAUSE_BYTES`] stops being *read* (no new
//!   requests admitted until the peer drains), and one that overflows
//!   the hard cap ([`MAX_OUTBOUND_BYTES`]) is closed.
//! * **Accept errors never kill the server.** `EMFILE`/`ENFILE`
//!   disarms the listener for a backoff interval while existing
//!   connections keep being served; level-triggered epoll re-reports
//!   the pending accept queue when the listener is re-armed.
//!
//! Failure policy is inherited unchanged from the threaded server: a
//! frame that fails to decode is answered with a typed error frame on a
//! connection that keeps serving; a stream whose *framing* is lost
//! (oversized length claim, mid-frame disconnect) gets one best-effort
//! typed error frame and then — only — that connection is closed.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use deepmorph_net::{Event, Events, Interest, Poller};
use deepmorph_telemetry::Stage;

use crate::admin::AdminJob;
use crate::batch::{validate_job, Job, JobTelemetry, Responder, ServeStats};
use crate::conn::{ConnHandle, FlushState, FrameAssembler, LoopNotify, Outbound};
use crate::error::{ServeError, ServeResult};
use crate::protocol::{
    decode_request, encode_response, ErrorFrame, Request, Response, TelemetryReport,
    MAX_FRAME_BYTES,
};
use crate::repair;
use crate::server::ServerShared;
use crate::sync::LockRecover;

/// Event-loop threads per server. Loops never compute, so a small fixed
/// pool carries tens of thousands of sockets.
pub(crate) const IO_THREADS: usize = 2;

/// Hard cap on one connection's buffered outbound bytes. A peer that
/// stops reading past it is disconnected (reads pause much earlier, at
/// [`READ_PAUSE_BYTES`]).
const MAX_OUTBOUND_BYTES: usize = 32 << 20;
// A legitimate response must always fit in the buffer.
const _: () = assert!(MAX_OUTBOUND_BYTES >= MAX_FRAME_BYTES + 4);

/// Reserved token for the loop's eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Reserved token for the listener (loop 0 only).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Outbound backlog at which a connection's *reads* are paused: the
/// peer stops being able to submit new requests until it drains what it
/// already owes us. Soft backpressure, well below the hard overflow cap.
const READ_PAUSE_BYTES: usize = 256 * 1024;

/// How long the listener stays disarmed after fd exhaustion.
const FD_EXHAUSTED_BACKOFF: Duration = Duration::from_millis(250);
/// Backoff for unexpected accept errors (old server slept 10ms too).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Read syscalls per readiness event before yielding to other
/// connections; level-triggered epoll re-reports whatever remains.
const MAX_READ_BURSTS: usize = 8;

/// The cross-thread face of one event loop: its waker + dirty set
/// ([`LoopNotify`]) and the inbox loop 0 hands accepted connections
/// through.
pub(crate) struct LoopState {
    /// Shared with every [`ConnHandle`] owned by this loop.
    pub(crate) notify: Arc<LoopNotify>,
    inbox: Mutex<Vec<TcpStream>>,
}

impl LoopState {
    pub(crate) fn new() -> std::io::Result<LoopState> {
        Ok(LoopState {
            notify: Arc::new(LoopNotify::new()?),
            inbox: Mutex::new(Vec::new()),
        })
    }

    fn hand_off(&self, stream: TcpStream) {
        self.inbox.lock_recover().push(stream);
        self.notify.waker.wake();
    }

    fn take_inbox(&self, into: &mut Vec<TcpStream>) {
        into.append(&mut self.inbox.lock_recover());
    }
}

/// Spawns event loop `index`; loop 0 receives the listener.
pub(crate) fn start_loop(
    shared: &Arc<ServerShared>,
    index: usize,
    listener: Option<TcpListener>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let poller = Poller::new()?;
    let state = Arc::clone(&shared.loops[index]);
    poller.add(state.notify.waker.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
    if let Some(listener) = &listener {
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    }
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("deepmorph-serve-io-{index}"))
        .spawn(move || {
            IoLoop {
                shared,
                index,
                state,
                poller,
                listener,
                listener_armed: true,
                accept_resume: None,
                conns: Vec::new(),
                free: Vec::new(),
                rr: index,
                scratch: vec![0u8; 64 * 1024],
            }
            .run();
        })
}

/// One registered connection, owned by exactly one loop.
struct Conn {
    /// Shared with the connection's [`Outbound`], which producers write
    /// through.
    stream: Arc<TcpStream>,
    assembler: FrameAssembler,
    outbound: Arc<Outbound>,
    /// Interest currently registered with the poller (avoids redundant
    /// `epoll_ctl` churn).
    interest: Interest,
    /// Reads paused under outbound backpressure.
    paused: bool,
    /// When the frame currently being assembled saw its first bytes.
    /// Only stamped while telemetry is armed; feeds the `Assembly`
    /// stage span.
    frame_started: Option<Instant>,
}

struct IoLoop {
    shared: Arc<ServerShared>,
    index: usize,
    state: Arc<LoopState>,
    poller: Poller,
    listener: Option<TcpListener>,
    listener_armed: bool,
    /// When to re-arm a disarmed listener (accept backoff).
    accept_resume: Option<Instant>,
    /// Slab of connections; the vector index is the epoll token.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Round-robin cursor for dealing accepted connections to loops.
    rr: usize,
    scratch: Vec<u8>,
}

impl IoLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut dirty: Vec<u64> = Vec::new();
        let mut adopted: Vec<TcpStream> = Vec::new();
        loop {
            let timeout = self
                .accept_resume
                .map(|at| at.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing epoll instance is unrecoverable for this
                // loop; treat it like shutdown rather than spinning.
                break;
            }
            self.shared
                .stats
                .loop_wakeups
                .fetch_add(1, Ordering::Relaxed);
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if let Some(at) = self.accept_resume {
                if Instant::now() >= at {
                    self.rearm_listener();
                }
            }
            for event in events.iter() {
                match event.token {
                    WAKER_TOKEN => self.state.notify.waker.drain(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_event(token as usize, event),
                }
            }
            self.state.take_inbox(&mut adopted);
            for stream in adopted.drain(..) {
                self.register(stream);
            }
            self.state.notify.take_dirty(&mut dirty);
            for token in dirty.drain(..) {
                self.flush(token as usize);
            }
        }
        self.teardown();
    }

    // ----- accept path (loop 0) -------------------------------------

    fn accept_ready(&mut self) {
        let telemetry = deepmorph_telemetry::armed();
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let accept_started = telemetry.as_ref().map(|_| Instant::now());
            match listener.accept() {
                Ok((stream, _)) => {
                    let stats = &self.shared.stats;
                    if stats.conns_active.load(Ordering::Relaxed)
                        >= self.shared.max_connections as u64
                    {
                        // Admission control: one typed frame (best
                        // effort — the peer may already be gone) so
                        // clients can tell rejection from network
                        // failure and treat it as retryable.
                        reject_overloaded(&self.shared, stream);
                        continue;
                    }
                    stats.conns_active.fetch_add(1, Ordering::Relaxed);
                    stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    let target = self.rr % self.shared.loops.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.index {
                        self.register(stream);
                    } else {
                        self.shared.loops[target].hand_off(stream);
                    }
                    if let (Some(t), Some(at)) = (&telemetry, accept_started) {
                        t.record_stage(Stage::Accept, at.elapsed().as_micros() as u64);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_fd_exhaustion(&e) => {
                    // Out of fds: keep serving what we have, stop
                    // accepting for a beat. Level-triggered epoll
                    // re-reports the queued accepts once re-armed.
                    self.shared
                        .stats
                        .accept_backoffs
                        .fetch_add(1, Ordering::Relaxed);
                    self.disarm_listener(FD_EXHAUSTED_BACKOFF);
                    return;
                }
                Err(_) => {
                    // Transient accept failures (ECONNABORTED and
                    // friends) tend to repeat immediately; same 10ms
                    // pause the threaded server took, without sleeping.
                    self.disarm_listener(ACCEPT_ERROR_BACKOFF);
                    return;
                }
            }
        }
    }

    fn disarm_listener(&mut self, backoff: Duration) {
        if let Some(listener) = &self.listener {
            if self.listener_armed {
                let _ = self.poller.delete(listener.as_raw_fd());
                self.listener_armed = false;
            }
            self.accept_resume = Some(Instant::now() + backoff);
        }
    }

    fn rearm_listener(&mut self) {
        self.accept_resume = None;
        if let Some(listener) = &self.listener {
            if !self.listener_armed
                && self
                    .poller
                    .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    .is_ok()
            {
                self.listener_armed = true;
            } else if !self.listener_armed {
                // Could not re-register; try again after another beat.
                self.accept_resume = Some(Instant::now() + FD_EXHAUSTED_BACKOFF);
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        // Nagle would add milliseconds to every small frame exchange.
        let _ = stream.set_nodelay(true);
        let prepared = stream.set_nonblocking(true).is_ok();
        let fd = stream.as_raw_fd();
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let stream = Arc::new(stream);
        self.conns[token] = Some(Conn {
            outbound: Arc::new(Outbound::new(Arc::clone(&stream), MAX_OUTBOUND_BYTES)),
            stream,
            assembler: FrameAssembler::for_protocol(),
            interest: Interest::READ,
            paused: false,
            frame_started: None,
        });
        if !prepared || self.poller.add(fd, token as u64, Interest::READ).is_err() {
            // Undo the admission accounting; the stream drops here.
            self.conns[token] = None;
            self.free.push(token);
            let stats = &self.shared.stats;
            stats.conns_closed.fetch_add(1, Ordering::Relaxed);
            stats.conns_active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // ----- per-connection events ------------------------------------

    fn conn_event(&mut self, token: usize, event: Event) {
        let Some(Some(conn)) = self.conns.get(token) else {
            return;
        };
        if event.error {
            self.close(token);
            return;
        }
        if event.hangup && conn.paused {
            // The peer is gone while its reads are paused for
            // backpressure; without this, level-triggered RDHUP would
            // re-report forever on a connection we never read again.
            self.close(token);
            return;
        }
        if event.writable {
            self.flush(token);
        }
        if event.readable || event.hangup {
            self.read_ready(token);
        }
    }

    fn read_ready(&mut self, token: usize) {
        enum After {
            Keep,
            CloseNow,
            /// Framing lost: typed error frame, then close-after-flush.
            Lost(String),
        }
        let mut complete: Vec<Vec<u8>> = Vec::new();
        let mut after = After::Keep;
        let telemetry = deepmorph_telemetry::armed();
        let mut assembly_us = 0u64;
        {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            if conn.paused {
                return;
            }
            let mut bursts = 0;
            loop {
                if bursts >= MAX_READ_BURSTS {
                    break; // fairness: let other connections run
                }
                match (&*conn.stream).read(&mut self.scratch) {
                    Ok(0) => {
                        after = if conn.assembler.mid_frame() {
                            After::Lost("peer closed mid-frame".into())
                        } else {
                            After::CloseNow
                        };
                        break;
                    }
                    Ok(n) => {
                        bursts += 1;
                        if telemetry.is_some() && conn.frame_started.is_none() {
                            conn.frame_started = Some(Instant::now());
                        }
                        if let Err(e) = conn.assembler.feed(&self.scratch[..n], &mut complete) {
                            after = After::Lost(e.reason);
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        after = After::Lost(format!("read error: {e}"));
                        break;
                    }
                }
            }
            // Assembly span: first byte of the oldest pending frame to
            // the end of the read pass that completed it. One value per
            // pass, shared by every frame the pass completed.
            if let Some(t) = &telemetry {
                if !complete.is_empty() {
                    if let Some(started) = conn.frame_started {
                        assembly_us = started.elapsed().as_micros() as u64;
                        for _ in &complete {
                            t.record_stage(Stage::Assembly, assembly_us);
                        }
                    }
                    // A partial next frame is already buffering; restart
                    // its clock at the pass boundary.
                    conn.frame_started = conn.assembler.mid_frame().then(Instant::now);
                }
            }
        }
        for frame in complete {
            if self.conns.get(token).is_none_or(Option::is_none) {
                return;
            }
            self.dispatch(token, frame, assembly_us);
        }
        match after {
            After::Keep => {}
            After::CloseNow => self.close(token),
            After::Lost(reason) => {
                // Answer once (the peer may still be reading) and drop
                // the connection — only the connection.
                let Some(handle) = self.handle_for(token) else {
                    return;
                };
                send_error(
                    &self.shared.stats,
                    &handle,
                    0,
                    &ServeError::Protocol { reason },
                );
                handle.outbound.mark_close_after_flush();
                // The send above may have written the frame straight
                // through; this flush delivers whatever it buffered and
                // closes.
                self.flush(token);
            }
        }
    }

    fn dispatch(&mut self, token: usize, frame: Vec<u8>, assembly_us: u64) {
        let Some(handle) = self.handle_for(token) else {
            return;
        };
        match decode_request(&frame) {
            // The length prefix was honored, so the stream is still in
            // sync: report the bad frame and keep serving.
            Err(e) => send_error(&self.shared.stats, &handle, 0, &ServeError::Codec(e)),
            Ok((id, request)) => handle_request(&self.shared, &handle, id, request, assembly_us),
        }
    }

    fn handle_for(&self, token: usize) -> Option<ConnHandle> {
        self.conns.get(token)?.as_ref().map(|conn| ConnHandle {
            outbound: Arc::clone(&conn.outbound),
            notify: Arc::clone(&self.state.notify),
            token: token as u64,
        })
    }

    // ----- write path -----------------------------------------------

    fn flush(&mut self, token: usize) {
        let flush_started = deepmorph_telemetry::armed().map(|t| (t, Instant::now()));
        let outcome = {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            conn.outbound.flush()
        };
        if let Some((t, at)) = flush_started {
            t.record_stage(Stage::Flush, at.elapsed().as_micros() as u64);
        }
        match outcome {
            Ok(FlushState::Idle) => self.set_interest(token, Interest::READ),
            Ok(FlushState::Pending { buffered }) => {
                let want = if buffered > READ_PAUSE_BYTES {
                    Interest::WRITE
                } else {
                    Interest::READ_WRITE
                };
                self.set_interest(token, want);
            }
            Ok(FlushState::CloseNow | FlushState::Dead) | Err(_) => self.close(token),
        }
    }

    fn set_interest(&mut self, token: usize, want: Interest) {
        let ok = {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            if conn.interest == want {
                return;
            }
            match self
                .poller
                .modify(conn.stream.as_raw_fd(), token as u64, want)
            {
                Ok(()) => {
                    conn.interest = want;
                    conn.paused = !want.readable;
                    true
                }
                Err(_) => false,
            }
        };
        if !ok {
            self.close(token);
        }
    }

    fn close(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        conn.outbound.close();
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.free.push(token);
        let stats = &self.shared.stats;
        stats.conns_closed.fetch_add(1, Ordering::Relaxed);
        stats.conns_active.fetch_sub(1, Ordering::Relaxed);
    }

    fn teardown(&mut self) {
        let stats = &self.shared.stats;
        for slot in &mut self.conns {
            if let Some(conn) = slot.take() {
                conn.outbound.close();
                stats.conns_closed.fetch_add(1, Ordering::Relaxed);
                stats.conns_active.fetch_sub(1, Ordering::Relaxed);
            }
        }
        // Connections handed off after this loop last drained its inbox
        // were already counted as admitted by loop 0.
        let mut leftovers = Vec::new();
        self.state.take_inbox(&mut leftovers);
        for stream in leftovers {
            stats.conns_closed.fetch_add(1, Ordering::Relaxed);
            stats.conns_active.fetch_sub(1, Ordering::Relaxed);
            drop(stream);
        }
    }
}

fn is_fd_exhaustion(e: &std::io::Error) -> bool {
    // EMFILE (24) = per-process fd limit, ENFILE (23) = system table.
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

fn reject_overloaded(shared: &ServerShared, mut stream: TcpStream) {
    shared.stats.conn_rejections.fetch_add(1, Ordering::Relaxed);
    let error = ServeError::Overloaded {
        reason: format!("connection limit ({}) reached", shared.max_connections),
    };
    let wire = encode_response(
        0,
        &Response::Error(ErrorFrame {
            code: error.code(),
            message: error.to_string(),
        }),
    );
    // The stream is blocking (accept does not inherit the listener's
    // nonblocking flag) with an empty send buffer: one small write.
    let _ = stream.write_all(&wire);
    let _ = stream.flush();
}

pub(crate) fn send_error(stats: &ServeStats, handle: &ConnHandle, id: u64, error: &ServeError) {
    stats.errors.fetch_add(1, Ordering::Relaxed);
    let wire = encode_response(
        id,
        &Response::Error(ErrorFrame {
            code: error.code(),
            message: error.to_string(),
        }),
    );
    handle.send(stats, &wire);
}

/// Answers one decoded request. Cheap requests inline on the loop;
/// predicts go to the scheduler; slow administrative work (diagnose /
/// repair / rollback may retrain for minutes) runs on an admin thread
/// so the loop keeps serving its other connections.
fn handle_request(
    shared: &Arc<ServerShared>,
    handle: &ConnHandle,
    id: u64,
    request: Request,
    assembly_us: u64,
) {
    let response = match request {
        Request::Ping => Response::Pong {
            models: shared.registry.len() as u64,
        },
        Request::ListModels => Response::Models(shared.registry.infos()),
        Request::Telemetry => {
            let (armed, snapshot) = match deepmorph_telemetry::armed() {
                Some(t) => (true, t.snapshot()),
                None => (false, Default::default()),
            };
            Response::Telemetry(TelemetryReport {
                stats: shared.stats.snapshot(),
                armed,
                snapshot,
                versions: shared.registry.traffic(),
            })
        }
        Request::ListVersions { model } => match shared.registry.find(&model) {
            Some(mid) => Response::Versions(shared.registry.versions(mid)),
            None => {
                return send_error(
                    &shared.stats,
                    handle,
                    id,
                    &ServeError::UnknownModel { name: model },
                )
            }
        },
        Request::Diagnose { model } => {
            return submit_admin(shared, handle, id, move |shared| {
                shared
                    .registry
                    .find(&model)
                    .ok_or_else(|| ServeError::UnknownModel {
                        name: model.clone(),
                    })
                    .and_then(|mid| repair::diagnose_live(shared, mid))
                    .map(Response::Diagnose)
            });
        }
        Request::Repair { model } => {
            // The admin thread blocks for the retrain; predict traffic
            // and every other connection do not.
            return submit_admin(shared, handle, id, move |shared| {
                shared
                    .registry
                    .find(&model)
                    .ok_or_else(|| ServeError::UnknownModel {
                        name: model.clone(),
                    })
                    .and_then(|mid| repair::repair_live(shared, mid))
                    .map(Response::Repair)
            });
        }
        Request::Rollback { model } => {
            return submit_admin(shared, handle, id, move |shared| {
                shared
                    .registry
                    .find(&model)
                    .ok_or_else(|| ServeError::UnknownModel {
                        name: model.clone(),
                    })
                    .and_then(|mid| repair::rollback_live(shared, mid))
                    .map(Response::Rollback)
            });
        }
        Request::Predict(p) => {
            let submitted = shared
                .registry
                .find(&p.model)
                .ok_or(ServeError::UnknownModel { name: p.model })
                .and_then(|model| {
                    validate_job(&shared.registry, model, &p.rows, &p.true_labels)?;
                    // A request-supplied deadline budget starts counting
                    // here, at admission; jobs still queued when it runs
                    // out are shed before compute.
                    let deadline = (p.deadline_ms > 0)
                        .then(|| Instant::now() + Duration::from_millis(p.deadline_ms));
                    shared.scheduler.submit(Job {
                        model,
                        rows: p.rows,
                        want_logits: p.want_logits,
                        cases: (!p.true_labels.is_empty())
                            .then(|| Arc::clone(&shared.cases[model.index()])),
                        true_labels: p.true_labels,
                        deadline,
                        deadline_ms: p.deadline_ms,
                        telemetry: JobTelemetry::start(assembly_us),
                        responder: Responder::Stream {
                            conn: handle.clone(),
                            id,
                        },
                    })
                });
            match submitted {
                // The worker owns the reply now.
                Ok(()) => return,
                Err(e) => return send_error(&shared.stats, handle, id, &e),
            }
        }
    };
    handle.send(&shared.stats, &encode_response(id, &response));
}

fn submit_admin<F>(shared: &Arc<ServerShared>, handle: &ConnHandle, id: u64, work: F)
where
    F: FnOnce(&Arc<ServerShared>) -> ServeResult<Response> + Send + 'static,
{
    let job = AdminJob {
        handle: handle.clone(),
        id,
        work: Box::new(work),
    };
    if shared.admin.submit(shared, job).is_err() {
        send_error(
            &shared.stats,
            handle,
            id,
            &ServeError::Overloaded {
                reason: "cannot spawn admin thread".into(),
            },
        );
    }
}
