//! Per-connection state shared between the event loops and the
//! scheduler workers.
//!
//! Three pieces live here:
//!
//! * [`FrameAssembler`] — the incremental decoder for the u32
//!   length-prefixed wire format. The event loop feeds it whatever byte
//!   chunks the socket yields; it emits complete frames and flags
//!   unrecoverable framing (oversized length claims) without ever
//!   panicking on hostile input. Public because the protocol proptests
//!   drive it directly with adversarial splits.
//! * `Outbound` — the write side of one connection: the socket (an
//!   `Arc<TcpStream>` shared with the owning loop) plus a bounded buffer
//!   for bytes the socket would not take yet. A producer — scheduler
//!   worker, admin thread, or the loop itself — writes its reply
//!   straight to the socket when nothing is buffered ahead of it. It
//!   buffers instead when bytes are already queued or a close is
//!   pending, and a short write buffers its remainder before the lock is
//!   released, so frames from two writers never interleave. The owning
//!   loop flushes buffered bytes when the socket turns writable. The
//!   bound is the backpressure policy: a peer that stops reading
//!   eventually overflows its buffer and is disconnected rather than
//!   growing server memory without limit.
//! * `ConnHandle` — what a producer holds: the outbound side plus the
//!   owning loop's waker, used only when the loop has to act (bytes left
//!   buffered, a close to carry out). `ConnHandle::send` is the server's
//!   transport fault seam: when a `deepmorph-faults` plan is armed, a
//!   response may be dropped, truncated, stalled, or the connection
//!   reset at this boundary.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use deepmorph_faults::NetAction;
use deepmorph_telemetry::Stage;

use crate::batch::ServeStats;
use crate::protocol::MAX_FRAME_BYTES;
use crate::sync::LockRecover;

/// Why a stream's framing was declared unrecoverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramingError {
    /// Human-readable reason, echoed in the typed error frame the
    /// server sends before closing the connection.
    pub reason: String,
}

enum AssemblerState {
    /// Accumulating the 4-byte length prefix.
    Prefix { buf: [u8; 4], filled: usize },
    /// Accumulating a frame body of known length.
    Body { buf: Vec<u8>, filled: usize },
    /// Framing lost; every further byte is rejected.
    Failed(String),
}

/// Incremental decoder for u32 length-prefixed frames.
///
/// Byte-boundary agnostic: a frame may arrive in any number of chunks
/// split anywhere, including mid-prefix, and multiple frames may share
/// one chunk. The assembler never allocates more than one frame body
/// (bounded by `max_frame`) and never panics on garbage.
pub struct FrameAssembler {
    max_frame: usize,
    state: AssemblerState,
}

impl FrameAssembler {
    /// A fresh assembler rejecting frames larger than `max_frame` bytes.
    pub fn new(max_frame: usize) -> FrameAssembler {
        FrameAssembler {
            max_frame,
            state: AssemblerState::Prefix {
                buf: [0; 4],
                filled: 0,
            },
        }
    }

    /// An assembler with the protocol's frame cap
    /// ([`MAX_FRAME_BYTES`]).
    pub fn for_protocol() -> FrameAssembler {
        FrameAssembler::new(MAX_FRAME_BYTES)
    }

    /// `true` while a frame is partially accumulated (a peer
    /// disconnecting now is a mid-frame disconnect, not a clean EOF).
    pub fn mid_frame(&self) -> bool {
        match &self.state {
            AssemblerState::Prefix { filled, .. } => *filled > 0,
            AssemblerState::Body { .. } => true,
            AssemblerState::Failed(_) => false,
        }
    }

    /// Consumes one chunk of stream bytes, appending every frame body
    /// that completed to `frames` (prefixes stripped).
    ///
    /// # Errors
    ///
    /// Returns [`FramingError`] when the stream claims a frame larger
    /// than the cap — resynchronization is impossible at that point, so
    /// the error is sticky and the connection must be closed after the
    /// typed error frame.
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        frames: &mut Vec<Vec<u8>>,
    ) -> Result<(), FramingError> {
        while !chunk.is_empty() {
            match &mut self.state {
                AssemblerState::Failed(reason) => {
                    return Err(FramingError {
                        reason: reason.clone(),
                    });
                }
                AssemblerState::Prefix { buf, filled } => {
                    let take = chunk.len().min(4 - *filled);
                    buf[*filled..*filled + take].copy_from_slice(&chunk[..take]);
                    *filled += take;
                    chunk = &chunk[take..];
                    if *filled == 4 {
                        let len = u32::from_le_bytes(*buf) as usize;
                        if len > self.max_frame {
                            let reason =
                                format!("frame claims {len} bytes (limit {})", self.max_frame);
                            self.state = AssemblerState::Failed(reason.clone());
                            return Err(FramingError { reason });
                        }
                        if len == 0 {
                            // A zero-length frame completes immediately;
                            // the decode layer rejects it as truncated.
                            frames.push(Vec::new());
                            self.state = AssemblerState::Prefix {
                                buf: [0; 4],
                                filled: 0,
                            };
                        } else {
                            self.state = AssemblerState::Body {
                                buf: vec![0; len],
                                filled: 0,
                            };
                        }
                    }
                }
                AssemblerState::Body { buf, filled } => {
                    let take = chunk.len().min(buf.len() - *filled);
                    buf[*filled..*filled + take].copy_from_slice(&chunk[..take]);
                    *filled += take;
                    chunk = &chunk[take..];
                    if *filled == buf.len() {
                        let body = std::mem::take(buf);
                        frames.push(body);
                        self.state = AssemblerState::Prefix {
                            buf: [0; 4],
                            filled: 0,
                        };
                    }
                }
            }
        }
        Ok(())
    }
}

/// What a flush attempt left behind.
pub(crate) enum FlushState {
    /// Buffer drained; connection stays in its steady state.
    Idle,
    /// Buffer drained and the connection was marked to close once empty
    /// (injected reset/truncate, or protocol error close).
    CloseNow,
    /// Bytes remain (socket would block); watch for writability.
    Pending {
        /// Bytes still buffered, for the backpressure check.
        buffered: usize,
    },
    /// The buffer was closed or overflowed; drop the connection.
    Dead,
}

struct OutState {
    buf: VecDeque<u8>,
    closed: bool,
    close_after_flush: bool,
}

/// The write side of one connection: its socket and a bounded buffer
/// for the bytes the socket would not take yet.
///
/// Shared between the owning event loop (which flushes the buffer) and
/// any number of scheduler workers / admin threads (which write their
/// replies through [`Outbound::write_through`]). The critical sections
/// are one nonblocking write syscall plus, at most, a memcpy into the
/// buffer, which is why a plain mutex is fine here. Holding the socket
/// as an `Arc` keeps its fd open for as long as any producer can still
/// write to it, so a stale handle can never reach a reused fd number.
pub(crate) struct Outbound {
    stream: Arc<TcpStream>,
    cap: usize,
    state: Mutex<OutState>,
}

impl Outbound {
    pub(crate) fn new(stream: Arc<TcpStream>, cap: usize) -> Outbound {
        Outbound {
            stream,
            cap: cap.max(1),
            state: Mutex::new(OutState {
                buf: VecDeque::new(),
                closed: false,
                close_after_flush: false,
            }),
        }
    }

    /// Delivers one frame from the calling thread. When nothing is
    /// buffered ahead of it and no close is pending, the frame is written
    /// straight to the socket; the remainder of a short write is buffered
    /// before the lock is released. Otherwise the whole frame is buffered
    /// behind what is already queued. Bytes for a closed connection are
    /// discarded.
    ///
    /// Returns `true` when the owning loop has to act: bytes were left
    /// buffered for it to flush, or the write failed (or the buffer
    /// overflowed) and the connection is now dead for it to reap.
    pub(crate) fn write_through(&self, stats: &ServeStats, bytes: &[u8]) -> bool {
        let mut state = self.state.lock_recover();
        if state.closed {
            return false;
        }
        let mut rest = bytes;
        if state.buf.is_empty() && !state.close_after_flush {
            // The high-water mark counts a frame that goes straight out
            // as outbound bytes too, as if it had passed through the
            // buffer.
            stats
                .outbound_hwm_bytes
                .fetch_max(bytes.len() as u64, Ordering::Relaxed);
            let flush_started = deepmorph_telemetry::armed().map(|t| (t, Instant::now()));
            let written = write_nonblocking(&self.stream, bytes);
            if let Some((t, at)) = flush_started {
                t.record_stage(Stage::Flush, at.elapsed().as_micros() as u64);
            }
            match written {
                Ok(n) if n == bytes.len() => return false,
                Ok(n) => rest = &bytes[n..],
                Err(_) => {
                    state.closed = true;
                    return true;
                }
            }
        }
        self.buffer(stats, &mut state, rest);
        true
    }

    /// Appends bytes to the buffer. Overflow means the peer has stopped
    /// reading faster than we produce, so the buffer is dropped wholesale
    /// and the connection marked dead for the loop to reap.
    fn buffer(&self, stats: &ServeStats, state: &mut OutState, bytes: &[u8]) {
        if state.buf.len() + bytes.len() > self.cap {
            state.closed = true;
            state.buf = VecDeque::new();
            return;
        }
        state.buf.extend(bytes);
        stats
            .outbound_hwm_bytes
            .fetch_max(state.buf.len() as u64, Ordering::Relaxed);
    }

    /// Buffers bytes for the loop to flush without trying the socket
    /// first, then marks the connection to be shut down once the buffer
    /// drains (the injected truncate fault).
    pub(crate) fn push_and_close(&self, stats: &ServeStats, bytes: &[u8]) {
        let mut state = self.state.lock_recover();
        if !state.closed {
            self.buffer(stats, &mut state, bytes);
        }
        state.close_after_flush = true;
    }

    /// Marks the connection to be shut down once the buffer drains
    /// (typed-error close after a framing loss, the injected reset
    /// fault).
    pub(crate) fn mark_close_after_flush(&self) {
        self.state.lock_recover().close_after_flush = true;
    }

    /// Marks the connection dead immediately; subsequent writes are
    /// discarded. Called by the loop when it drops the connection.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock_recover();
        state.closed = true;
        state.buf = VecDeque::new();
    }

    /// Bytes currently buffered (the live flush path reports this via
    /// [`FlushState::Pending`]; only tests need to ask directly).
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.state.lock_recover().buf.len()
    }

    /// Writes as much buffered data as the socket takes right now.
    ///
    /// # Errors
    ///
    /// Propagates real socket errors (connection reset etc.); the
    /// caller closes the connection. `WouldBlock` is not an error — it
    /// ends the flush with [`FlushState::Pending`].
    pub(crate) fn flush(&self) -> std::io::Result<FlushState> {
        let mut state = self.state.lock_recover();
        if state.closed {
            return Ok(FlushState::Dead);
        }
        while !state.buf.is_empty() {
            let (front, _) = state.buf.as_slices();
            let len = front.len();
            match write_nonblocking(&self.stream, front) {
                Ok(n) => {
                    state.buf.drain(..n);
                    if n < len {
                        return Ok(FlushState::Pending {
                            buffered: state.buf.len(),
                        });
                    }
                }
                Err(e) => {
                    state.closed = true;
                    return Err(e);
                }
            }
        }
        Ok(if state.close_after_flush {
            FlushState::CloseNow
        } else {
            FlushState::Idle
        })
    }
}

/// Writes as much of `bytes` as the nonblocking socket takes right now
/// and returns how many went out: fewer than `bytes.len()` only when the
/// socket would block.
///
/// # Errors
///
/// Real socket errors, and a write that accepts zero bytes.
fn write_nonblocking(stream: &TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    let mut written = 0;
    while written < bytes.len() {
        match (&mut &*stream).write(&bytes[written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// How producer threads wake a (possibly sleeping) event loop and tell
/// it which connections need a flush or a close.
pub(crate) struct LoopNotify {
    /// Pulls the loop's `epoll_wait` out of the kernel.
    pub(crate) waker: deepmorph_net::Waker,
    /// Tokens with buffered outbound data or a pending close.
    dirty: Mutex<Vec<u64>>,
}

impl LoopNotify {
    pub(crate) fn new() -> std::io::Result<LoopNotify> {
        Ok(LoopNotify {
            waker: deepmorph_net::Waker::new()?,
            dirty: Mutex::new(Vec::new()),
        })
    }

    /// Flags `token` as needing the loop's attention and wakes the loop.
    pub(crate) fn notify(&self, token: u64) {
        self.dirty.lock_recover().push(token);
        self.waker.wake();
    }

    /// Drains the dirty set into `into` (deduplication is the caller's
    /// concern; flushing an already-flushed token is a no-op).
    pub(crate) fn take_dirty(&self, into: &mut Vec<u64>) {
        into.append(&mut self.dirty.lock_recover());
    }
}

/// A producer's handle to one connection: write a reply, and wake the
/// loop only when it has work left to do.
///
/// Cloned into every [`crate::batch::Responder::Stream`]. Stale handles
/// (connection closed, token reused) degrade safely: writes to a closed
/// [`Outbound`] are discarded, and a spurious dirty notification makes
/// the loop flush a connection that has nothing pending.
#[derive(Clone)]
pub(crate) struct ConnHandle {
    pub(crate) outbound: Arc<Outbound>,
    pub(crate) notify: Arc<LoopNotify>,
    pub(crate) token: u64,
}

impl ConnHandle {
    /// Delivers one wire frame through [`Outbound::write_through`],
    /// applying the armed transport fault (if any) at this seam:
    ///
    /// * `Drop` — the frame vanishes in the "network".
    /// * `Truncate` — half the frame is delivered, then the connection
    ///   closes (after any previously queued frames flush).
    /// * `Stall` — the producer thread sleeps before writing.
    /// * `Reset` — nothing more is delivered and the connection closes
    ///   after pending bytes flush.
    ///
    /// Truncate and reset go through the loop, which carries out the
    /// close; every other reply wakes the loop only if it had to be
    /// buffered.
    pub(crate) fn send(&self, stats: &ServeStats, wire: &[u8]) {
        let wake = match deepmorph_faults::net_action() {
            NetAction::Deliver => self.outbound.write_through(stats, wire),
            NetAction::Drop => false,
            NetAction::Truncate => {
                self.outbound.push_and_close(stats, &wire[..wire.len() / 2]);
                true
            }
            NetAction::Stall(pause) => {
                std::thread::sleep(pause);
                self.outbound.write_through(stats, wire)
            }
            NetAction::Reset => {
                self.outbound.mark_close_after_flush();
                true
            }
        };
        if wake {
            self.notify.notify(self.token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire
    }

    /// A connected loopback pair: the client end (blocking, 5 s read
    /// timeout) and the nonblocking server end an [`Outbound`] writes to.
    fn socket_pair() -> (TcpStream, Arc<TcpStream>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (client, Arc::new(server_side))
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let bodies: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![9; 300], vec![42]];
        let mut wire = Vec::new();
        for body in &bodies {
            wire.extend_from_slice(&frame(body));
        }
        // Split after every single byte: the most adversarial chunking.
        let mut assembler = FrameAssembler::for_protocol();
        let mut frames = Vec::new();
        for byte in &wire {
            assembler
                .feed(std::slice::from_ref(byte), &mut frames)
                .unwrap();
        }
        assert_eq!(frames, bodies);
        assert!(!assembler.mid_frame());
    }

    #[test]
    fn assembler_emits_multiple_frames_from_one_chunk() {
        let mut wire = frame(b"abc");
        wire.extend_from_slice(&frame(b"defg"));
        wire.extend_from_slice(&frame(b""));
        let mut assembler = FrameAssembler::for_protocol();
        let mut frames = Vec::new();
        assembler.feed(&wire, &mut frames).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"abc");
        assert_eq!(frames[1], b"defg");
        assert!(frames[2].is_empty());
    }

    #[test]
    fn oversized_claim_is_a_sticky_framing_error() {
        let mut assembler = FrameAssembler::new(64);
        let mut frames = Vec::new();
        let wire = frame(&[0u8; 65]);
        let err = assembler.feed(&wire, &mut frames).unwrap_err();
        assert!(
            err.reason.contains("65"),
            "reason names the claim: {}",
            err.reason
        );
        assert!(frames.is_empty());
        // Sticky: even innocent bytes afterwards keep failing.
        assert!(assembler.feed(&frame(b"x"), &mut frames).is_err());
    }

    #[test]
    fn outbound_overflow_kills_the_buffer_instead_of_growing() {
        let (_client, server_side) = socket_pair();
        let stats = ServeStats::default();
        let outbound = Outbound::new(server_side, 10);
        // A pending close keeps later frames off the socket, so both
        // land in the buffer.
        outbound.push_and_close(&stats, &[0; 6]);
        assert_eq!(outbound.pending(), 6);
        assert!(
            outbound.write_through(&stats, &[0; 6]),
            "11 bytes > cap of 10: the loop must reap the connection"
        );
        assert_eq!(outbound.pending(), 0, "overflow drops the whole buffer");
        assert!(
            !outbound.write_through(&stats, &[0; 1]),
            "buffer is dead after overflow"
        );
        assert_eq!(outbound.pending(), 0);
        assert!(matches!(outbound.flush(), Ok(FlushState::Dead)));
        assert_eq!(stats.outbound_hwm_bytes.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn outbound_flushes_through_a_socket_pair() {
        let (mut client, server_side) = socket_pair();
        let stats = ServeStats::default();
        let outbound = Outbound::new(server_side, 1 << 20);
        assert!(
            !outbound.write_through(&stats, b"hello "),
            "an empty buffer writes straight to the socket"
        );
        assert_eq!(outbound.pending(), 0);
        outbound.push_and_close(&stats, b"world");
        assert!(
            outbound.write_through(&stats, b"!"),
            "a pending close queues later frames behind it"
        );
        assert_eq!(outbound.pending(), 6);
        match outbound.flush().unwrap() {
            FlushState::CloseNow => {}
            _ => panic!("close-after-flush reported once drained"),
        }
        let mut got = [0u8; 12];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world!");
    }

    #[test]
    fn short_write_buffers_the_rest_and_later_frames_queue_behind_it() {
        let (mut client, server_side) = socket_pair();
        let stats = ServeStats::default();
        let outbound = Outbound::new(server_side, 32 << 20);
        // Far more than a loopback socket takes while nobody reads.
        let big: Vec<u8> = (0..16u32 << 20).map(|i| (i % 251) as u8).collect();
        assert!(
            outbound.write_through(&stats, &big),
            "the remainder waits for the loop"
        );
        let buffered = outbound.pending();
        assert!(
            buffered > 0 && buffered < big.len(),
            "{buffered} bytes buffered"
        );
        assert!(
            outbound.write_through(&stats, b"tail"),
            "queued behind the remainder"
        );
        assert_eq!(outbound.pending(), buffered + 4);

        let total = big.len() + 4;
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; total];
            client.read_exact(&mut got).unwrap();
            got
        });
        while let FlushState::Pending { .. } = outbound.flush().unwrap() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let got = reader.join().unwrap();
        assert!(got[..big.len()] == big[..], "the big frame arrived whole");
        assert_eq!(&got[big.len()..], b"tail");
        assert_eq!(
            stats.outbound_hwm_bytes.load(Ordering::Relaxed),
            big.len() as u64,
            "the frame written through counts toward the high-water mark"
        );
    }
}
