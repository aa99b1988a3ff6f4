//! Minimal readiness-driven I/O primitives for the DeepMorph serving stack.
//!
//! The serving layer (`deepmorph-serve`) holds tens of thousands of mostly
//! idle connections on one event-loop thread. This crate provides
//! the raw building blocks it needs without pulling in mio/tokio (the build
//! environment has no network access to crates.io):
//!
//! - [`Poller`]: a thin safe wrapper over Linux `epoll` (level-triggered),
//!   bound directly via `extern "C"` declarations against libc symbols.
//! - [`Waker`]: a nonblocking `eventfd` that other threads write to in order
//!   to pull a sleeping [`Poller::wait`] call out of the kernel.
//! - [`raise_nofile_limit`]: lifts `RLIMIT_NOFILE` so a connection storm does
//!   not die on `EMFILE` at a few thousand sockets.
//! - [`boost_listen_backlog`] / [`set_socket_buffers`]: socket knobs used by
//!   the storm bench (std's listener backlog of 128 drops SYNs long before
//!   10k concurrent connects land).
//!
//! Everything here is Linux-specific, as is the container the project targets.
//! The wrappers own their fds through [`OwnedFd`], so teardown is automatic.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// Raw libc bindings used by this crate. Kept private; the safe wrappers
/// below are the crate surface.
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    /// Mirrors `struct epoll_event` on x86_64 Linux, where the kernel ABI
    /// packs the 8-byte data field directly after the 4-byte mask.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// Mirrors `struct rlimit` (64-bit fields on this target).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const RLIMIT_NOFILE: c_int = 7;

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const SO_RCVBUF: c_int = 8;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn listen(sockfd: c_int, backlog: c_int) -> c_int;
        pub fn setsockopt(
            sockfd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }
}

/// Converts a `-1`-on-error libc return value into an [`io::Result`].
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness classes a registered fd should report.
///
/// Peer hangup (`EPOLLRDHUP`) is always monitored so idle connections whose
/// peer disappears surface as events even while reads are paused for
/// backpressure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer half-closed).
    pub readable: bool,
    /// Wake when the fd accepts more outbound bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest: the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest: reads paused under backpressure, flush pending.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions: flush pending while still accepting requests.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if self.readable {
            mask |= sys::EPOLLIN;
        }
        if self.writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more outbound bytes.
    pub writable: bool,
    /// The fd is in an error state (`EPOLLERR`).
    pub error: bool,
    /// The peer hung up or half-closed (`EPOLLHUP` / `EPOLLRDHUP`).
    pub hangup: bool,
}

/// Reusable buffer of kernel-reported events for [`Poller::wait`].
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// Allocates space for up to `capacity` events per wait call.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterates over the events reported by the most recent wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out of the packed struct before touching fields.
            let raw = *raw;
            let mask = raw.events;
            Event {
                token: raw.data,
                readable: mask & sys::EPOLLIN != 0,
                writable: mask & sys::EPOLLOUT != 0,
                error: mask & sys::EPOLLERR != 0,
                hangup: mask & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            }
        })
    }
}

/// Level-triggered epoll instance.
///
/// Level-triggered mode keeps the state machine simple: a short read or a
/// deferred flush re-reports on the next wait instead of being lost, so the
/// loop never needs drain-until-`EAGAIN` discipline for correctness.
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; cvt screens the result.
        let fd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller {
            // SAFETY: cvt guarantees `fd` is a live descriptor we just
            // created and exclusively own; OwnedFd takes over closing it.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `event` is a live, properly initialized EpollEvent for
        // the duration of the call; the epfd is owned and open.
        cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the poller. Safe to call on already-closed fds;
    /// the caller decides whether the error matters.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut event = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: same contract as ctl(); pre-2.6.9 kernels require a
        // non-null event pointer for DEL, which `event` provides.
        cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, &mut event) })?;
        Ok(())
    }

    /// Blocks until at least one registered fd is ready, `timeout` elapses
    /// (`None` = wait forever), or a signal interrupts the wait (reported as
    /// zero events, not an error). Returns the number of events filled into
    /// `events`.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            // Round up so a 100µs deadline does not become a busy-loop of
            // zero-timeout polls.
            Some(t) => {
                let mut ms = t.as_millis();
                if t.subsec_nanos() % 1_000_000 != 0 {
                    ms += 1;
                }
                ms.min(i32::MAX as u128) as i32
            }
            None => -1,
        };
        // SAFETY: the pointer/len pair describes `events.buf`, which
        // outlives the call; the kernel writes at most `len` entries.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                events.buf.as_mut_ptr(),
                events.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                events.len = 0;
                return Ok(0);
            }
            return Err(err);
        }
        events.len = n as usize;
        Ok(events.len)
    }
}

/// Cross-thread wakeup for a sleeping [`Poller`], backed by a nonblocking
/// `eventfd`.
///
/// Register [`Waker::as_raw_fd`] with the poller under a reserved token; any
/// thread may then call [`Waker::wake`]. The owning loop calls
/// [`Waker::drain`] when the token reports readable so the level-triggered
/// poller stops re-reporting it.
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// Creates a new waker.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers; cvt screens the result.
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Waker {
            // SAFETY: cvt guarantees a live descriptor we exclusively
            // own; OwnedFd takes over closing it.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The fd to register with a [`Poller`].
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Signals the owning loop. Never blocks: if the eventfd counter is
    /// already saturated a wakeup is pending anyway, so `EAGAIN` is ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from `one`, which lives on this
        // stack frame for the whole call.
        unsafe {
            sys::write(
                self.fd.as_raw_fd(),
                (&one as *const u64).cast(),
                std::mem::size_of::<u64>(),
            );
        }
    }

    /// Clears pending wakeups so the poller stops reporting the fd readable.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: reads exactly 8 bytes into `count`, which lives on this
        // stack frame for the whole call.
        unsafe {
            sys::read(
                self.fd.as_raw_fd(),
                (&mut count as *mut u64).cast(),
                std::mem::size_of::<u64>(),
            );
        }
    }
}

/// Raises `RLIMIT_NOFILE` as far as the kernel allows, returning the
/// effective soft limit.
///
/// Tries to lift both limits to `target` first (possible when running with
/// `CAP_SYS_RESOURCE`, e.g. as root in the bench container, up to
/// `fs.nr_open`); if that is denied, falls back to raising the soft limit to
/// the existing hard limit. Never lowers either limit.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = sys::Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid Rlimit the kernel fills in.
    cvt(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) })?;

    if lim.max < target {
        let want = sys::Rlimit {
            cur: target,
            max: target,
        };
        // SAFETY: `want` is a valid Rlimit for the duration of the call.
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } == 0 {
            return Ok(target);
        }
        // Unprivileged (or above fs.nr_open): keep the current hard limit.
    }
    if lim.cur < lim.max {
        let want = sys::Rlimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `want` is a valid Rlimit for the duration of the call.
        cvt(unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) })?;
    }
    let mut after = sys::Rlimit { cur: 0, max: 0 };
    // SAFETY: `after` is a valid Rlimit the kernel fills in.
    cvt(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut after) })?;
    Ok(after.cur)
}

/// Re-issues `listen(2)` on a bound listener with a larger backlog.
///
/// `TcpListener::bind` hardcodes a backlog of 128; a 10k connection storm
/// overflows that queue and stalls on SYN retransmits. Calling `listen`
/// again on the same socket just updates the backlog.
pub fn boost_listen_backlog(listener: &TcpListener, backlog: u32) -> io::Result<()> {
    // SAFETY: listen takes no pointers; the fd is kept alive by the
    // borrowed listener.
    cvt(unsafe { sys::listen(listener.as_raw_fd(), backlog.min(i32::MAX as u32) as i32) })?;
    Ok(())
}

/// Shrinks (or grows) a stream's kernel send/receive buffers.
///
/// Used by tests to force partial writes: with a tiny `SO_SNDBUF`, a frame
/// larger than the buffer cannot be written in one syscall, exercising the
/// short-write paths on both client and server. The kernel clamps and
/// doubles the requested values; this only needs "small", not exact.
pub fn set_socket_buffers(stream: &TcpStream, send_bytes: u32, recv_bytes: u32) -> io::Result<()> {
    for (opt, value) in [(sys::SO_SNDBUF, send_bytes), (sys::SO_RCVBUF, recv_bytes)] {
        let value = value as i32;
        // SAFETY: passes 4 bytes of the stack-local `value`; the fd is
        // kept alive by the borrowed stream.
        cvt(unsafe {
            sys::setsockopt(
                stream.as_raw_fd(),
                sys::SOL_SOCKET,
                opt,
                (&value as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    const WAKER_TOKEN: u64 = u64::MAX;

    #[test]
    fn waker_pulls_a_sleeping_poller_out_of_wait() {
        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        poller
            .add(waker.as_raw_fd(), WAKER_TOKEN, Interest::READ)
            .unwrap();

        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });

        let mut events = Events::with_capacity(8);
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1, "exactly the waker fires");
        let event = events.iter().next().unwrap();
        assert_eq!(event.token, WAKER_TOKEN);
        assert!(event.readable);
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "woken well before the timeout"
        );

        waker.drain();
        let n = poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0, "drained waker stops reporting readable");
        handle.join().unwrap();
    }

    #[test]
    fn listener_and_stream_readiness_flow_through_epoll() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();

        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 1, Interest::READ).unwrap();

        let mut events = Events::with_capacity(8);
        assert_eq!(
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap(),
            0,
            "no pending accept yet"
        );

        let mut client = TcpStream::connect(addr).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().readable, "accept is pending");

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .add(server_side.as_raw_fd(), 2, Interest::READ_WRITE)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_read = false;
        let mut saw_write = false;
        while Instant::now() < deadline && !(saw_read && saw_write) {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for event in events.iter() {
                if event.token == 2 {
                    saw_read |= event.readable;
                    saw_write |= event.writable;
                }
            }
        }
        assert!(saw_read, "bytes in flight report readable");
        assert!(saw_write, "idle socket reports writable");

        // Peer hangup surfaces even with read-only interest.
        poller
            .modify(server_side.as_raw_fd(), 2, Interest::READ)
            .unwrap();
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_close = false;
        while Instant::now() < deadline && !saw_close {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for event in events.iter() {
                if event.token == 2 && (event.hangup || event.readable) {
                    saw_close = true;
                }
            }
        }
        assert!(saw_close, "hangup reported");
        let mut buf = [0u8; 16];
        let mut tmp = server_side;
        let got = tmp.read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"ping");

        poller.delete(tmp.as_raw_fd()).unwrap();
    }

    #[test]
    fn nofile_limit_is_raised_and_never_lowered() {
        let first = raise_nofile_limit(1 << 16).unwrap();
        assert!(first >= 1024, "effective limit is sane: {first}");
        // Idempotent: a second call must not shrink what the first achieved.
        let second = raise_nofile_limit(1 << 16).unwrap();
        assert!(
            second >= first,
            "second call never lowers ({second} < {first})"
        );
    }

    #[test]
    fn socket_knobs_apply_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        boost_listen_backlog(&listener, 4096).unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_socket_buffers(&stream, 4096, 4096).unwrap();
    }
}
