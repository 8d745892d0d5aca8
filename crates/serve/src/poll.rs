//! Readiness polling for the event-driven daemon: a thin, audited FFI shim
//! over `epoll(7)`. The serving crates build for Linux only (DESIGN.md §15).
//!
//! The workspace bans `unsafe` (see CONTRIBUTING.md); [`crate::signal`] was
//! the first documented exception and this module is the second, for the
//! same reason: `std` exposes no readiness-polling primitive, and the
//! no-new-dependencies rule keeps `libc`/`mio`/`polling` out. The audit
//! surface is deliberately small:
//!
//! - every `extern "C"` declaration matches the Linux kernel ABI (struct
//!   layouts are `#[repr(C)]` with the kernel's packing, constants are
//!   copied from the kernel headers and cross-checked against the libc
//!   crate's definitions);
//! - every call site checks the return value and converts `-1` into
//!   [`std::io::Error::last_os_error`] — no errno is ever ignored silently;
//! - no pointer outlives the call it is passed to: the kernel writes into
//!   buffers owned by the caller's stack/heap for exactly the duration of
//!   the syscall;
//! - nothing here runs in signal context, allocates in a handler, or
//!   touches thread-local state.
//!
//! The API is deliberately tiny — register/modify/remove a file descriptor
//! under a `u64` token, wait for readiness, and a self-pipe [`Waker`] so
//! other threads (engine workers queuing responses, the drain path) can
//! interrupt a wait. Level-triggered, so a partially-consumed readable
//! socket is simply reported again.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::Duration;

/// What readiness to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only.
    Read,
    /// Writable only.
    Write,
    /// Readable and writable.
    ReadWrite,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Bytes (or an accepted connection) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the owner should read
    /// to EOF and close.
    pub closed: bool,
}

// ---------------------------------------------------------------------------
// Shared POSIX calls (read/write/close/fcntl/pipe/rlimit)
// ---------------------------------------------------------------------------

mod posix {
    use std::io;
    use std::os::fd::RawFd;

    extern "C" {
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const F_SETFD: i32 = 2;
    const FD_CLOEXEC: i32 = 1;
    const O_NONBLOCK: i32 = 0o4000;
    const RLIMIT_NOFILE: i32 = 7;

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    pub(super) fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(super) fn close_fd(fd: RawFd) {
        // Double-close is the only misuse `close` has; fds here are owned
        // exactly once (Poller, WakeReader, WakeFd) and closed in Drop only.
        unsafe {
            let _ = close(fd);
        }
    }

    pub(super) fn read_fd(fd: RawFd, buf: &mut [u8]) -> isize {
        unsafe { read(fd, buf.as_mut_ptr(), buf.len()) }
    }

    pub(super) fn write_fd(fd: RawFd, buf: &[u8]) -> isize {
        unsafe { write(fd, buf.as_ptr(), buf.len()) }
    }

    /// A nonblocking close-on-exec pipe: `(read_end, write_end)`.
    pub(super) fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0i32; 2];
        check(unsafe { pipe(fds.as_mut_ptr()) })?;
        for fd in fds {
            if let Err(e) = set_nonblocking_cloexec(fd) {
                close_fd(fds[0]);
                close_fd(fds[1]);
                return Err(e);
            }
        }
        Ok((fds[0], fds[1]))
    }

    /// The process's `(soft, hard)` open-file limit.
    pub(super) fn nofile_limit() -> io::Result<(u64, u64)> {
        let mut lim = Rlimit { cur: 0, max: 0 };
        check(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        Ok((lim.cur, lim.max))
    }

    /// Raises the soft open-file limit to the hard limit; returns the new
    /// soft limit.
    pub(super) fn raise_nofile_limit() -> io::Result<u64> {
        let (cur, max) = nofile_limit()?;
        if cur >= max {
            return Ok(cur);
        }
        let lim = Rlimit { cur: max, max };
        check(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
        Ok(max)
    }

    /// Marks `fd` nonblocking and close-on-exec.
    pub(super) fn set_nonblocking_cloexec(fd: RawFd) -> io::Result<()> {
        let flags = check(unsafe { fcntl(fd, F_GETFL, 0) })?;
        check(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
        check(unsafe { fcntl(fd, F_SETFD, FD_CLOEXEC) })?;
        Ok(())
    }

    /// `struct iovec`: one segment of a gathered write.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct IoVec {
        base: *const u8,
        len: usize,
    }

    extern "C" {
        fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    }

    /// Gathers up to [`super::IOV_BATCH`] byte slices into one
    /// `writev(2)`. The iovec array lives on this call's stack; the kernel
    /// reads the referenced buffers only for the duration of the syscall.
    pub(super) fn writev_fd(fd: RawFd, bufs: &[&[u8]]) -> isize {
        let mut iov = [IoVec {
            base: std::ptr::null(),
            len: 0,
        }; super::IOV_BATCH];
        let n = bufs.len().min(super::IOV_BATCH);
        for (v, b) in iov.iter_mut().zip(&bufs[..n]) {
            v.base = b.as_ptr();
            v.len = b.len();
        }
        unsafe { writev(fd, iov.as_ptr(), n as i32) }
    }
}

/// The process's `(soft, hard)` open-file-descriptor limit — what bounds
/// how many connections one daemon can actually hold.
///
/// # Errors
/// Fails if `getrlimit(2)` fails (effectively never).
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    posix::nofile_limit()
}

/// Raises the soft open-file limit to the hard limit (a daemon serving
/// 10k+ sockets on a distribution that defaults the soft limit to 1024
/// needs this at startup). Returns the resulting soft limit.
///
/// # Errors
/// Fails if `setrlimit(2)` refuses (never, when only raising soft to hard).
pub fn raise_nofile_limit() -> io::Result<u64> {
    posix::raise_nofile_limit()
}

/// Most buffer segments one [`writev_fd`] call gathers. Longer reply queues
/// simply take another call on the next writable round — well under
/// `IOV_MAX` (1024).
pub const IOV_BATCH: usize = 64;

/// One gathered write: up to [`IOV_BATCH`] leading slices of `bufs` go out
/// with a single `writev(2)`, returning the bytes accepted by the socket
/// (possibly landing mid-slice — the caller advances its cursor).
///
/// # Errors
/// Any socket error, including `WouldBlock` when the send buffer is full.
pub fn writev_fd(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
    let n = posix::writev_fd(fd, bufs);
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

// ---------------------------------------------------------------------------
// SO_REUSEPORT listeners (multi-shard accept)
// ---------------------------------------------------------------------------

mod sock {
    use super::posix::{check, close_fd, set_nonblocking_cloexec};
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::FromRawFd;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;

    /// `struct sockaddr_in`.
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockaddrIn6 {
        sin6_family: u16,
        sin6_port: u16,
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    fn sockopt(fd: i32, name: i32) -> io::Result<()> {
        let one: i32 = 1;
        check(unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                name,
                &one,
                std::mem::size_of::<i32>() as u32,
            )
        })?;
        Ok(())
    }

    /// Binds `fd` to the socket address `sa`, which must be one of the
    /// `#[repr(C)]` `sockaddr` structs above.
    fn bind_to<T>(fd: i32, sa: &T) -> io::Result<()> {
        // SAFETY: `sa` is a live borrow of a sockaddr struct whose size is
        // passed alongside it; the kernel only reads it during the call.
        check(unsafe { bind(fd, (sa as *const T).cast(), std::mem::size_of::<T>() as u32) })?;
        Ok(())
    }

    /// A nonblocking TCP listener on `addr` with `SO_REUSEPORT` set before
    /// bind, so N shards can each own a listener on the same port and the
    /// kernel load-balances accepts across them.
    ///
    /// # Errors
    /// Any socket/bind/listen failure (port in use without a reuseport
    /// peer, privileged port, exhausted fds).
    pub(super) fn reuseport_tcp_listener(addr: SocketAddr) -> io::Result<TcpListener> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        let fd = check(unsafe { socket(domain, SOCK_STREAM, 0) })?;
        let result = (|| {
            sockopt(fd, SO_REUSEADDR)?;
            sockopt(fd, SO_REUSEPORT)?;
            match addr {
                SocketAddr::V4(v4) => bind_to(
                    fd,
                    &SockaddrIn {
                        sin_family: AF_INET as u16,
                        sin_port: v4.port().to_be(),
                        sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                        sin_zero: [0; 8],
                    },
                )?,
                SocketAddr::V6(v6) => bind_to(
                    fd,
                    &SockaddrIn6 {
                        sin6_family: AF_INET6 as u16,
                        sin6_port: v6.port().to_be(),
                        sin6_flowinfo: v6.flowinfo(),
                        sin6_addr: v6.ip().octets(),
                        sin6_scope_id: v6.scope_id(),
                    },
                )?,
            }
            check(unsafe { listen(fd, 1024) })?;
            set_nonblocking_cloexec(fd)?;
            Ok(())
        })();
        match result {
            // SAFETY: `fd` is a freshly created socket this function owns;
            // ownership transfers into the `TcpListener` exactly once.
            Ok(()) => Ok(unsafe { TcpListener::from_raw_fd(fd) }),
            Err(e) => {
                close_fd(fd);
                Err(e)
            }
        }
    }
}

/// A nonblocking TCP listener with `SO_REUSEPORT` set before bind — the
/// multi-shard accept path: every shard binds the same address and the
/// kernel spreads incoming connections across the listeners.
///
/// # Errors
/// Any socket/bind/listen failure.
pub fn reuseport_tcp_listener(addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
    sock::reuseport_tcp_listener(addr)
}

// ---------------------------------------------------------------------------
// epoll
// ---------------------------------------------------------------------------

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. The kernel packs it on x86/x86_64 only (see
/// `EPOLL_PACKED` in the kernel headers); other architectures use the
/// natural 16-byte layout.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// An epoll instance plus its registered descriptors.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Opens the kernel readiness queue.
    ///
    /// # Errors
    /// Fails if the kernel refuses (fd exhaustion).
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers; the returned fd is owned by this `Poller`.
        let epfd = posix::check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        // RDHUP distinguishes an orderly peer shutdown from silence, so a
        // half-closed connection is torn down instead of idling forever.
        let events = EPOLLRDHUP
            | match interest {
                Interest::Read => EPOLLIN,
                Interest::Write => EPOLLOUT,
                Interest::ReadWrite => EPOLLIN | EPOLLOUT,
            };
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live stack `epoll_event` the kernel reads during
        // the call only.
        posix::check(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` for `interest`.
    ///
    /// # Errors
    /// Fails if the descriptor is invalid or already registered.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already-registered descriptor.
    ///
    /// # Errors
    /// Fails if the descriptor was never registered.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters a descriptor.
    ///
    /// # Errors
    /// Fails if the descriptor was never registered.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels demanded a non-null event for DEL; passing one
        // is harmless everywhere.
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`.
        posix::check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks until at least one registered descriptor is ready, the
    /// timeout elapses (`Ok(0)`), or a [`Waker`] fires. Readiness reports
    /// replace the previous contents of `out`.
    ///
    /// # Errors
    /// Fails only on kernel-level errors; `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            // Round sub-millisecond timeouts up so a 100µs deadline does
            // not spin at timeout 0.
            Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(1),
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            // SAFETY: the kernel writes at most `buf.len()` events into the
            // stack buffer during the call.
            let ret =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
            if ret >= 0 {
                break ret as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
            // EINTR: retry with the same timeout (the daemon's signal
            // handling is polled via the waker, not via EINTR).
        };
        out.clear();
        for ev in &buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let events = ev.events;
            out.push(Event {
                token: ev.data,
                readable: events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                closed: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        posix::close_fd(self.epfd);
    }
}

/// The read end of the self-pipe, owned by the event loop.
pub struct WakeReader {
    fd: RawFd,
}

impl WakeReader {
    /// The descriptor to register with the [`Poller`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Consumes every pending wake byte (the pipe is nonblocking, so this
    /// never waits). Many queued wakes collapse into one loop iteration.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while posix::read_fd(self.fd, &mut buf) > 0 {}
    }
}

impl Drop for WakeReader {
    fn drop(&mut self) {
        posix::close_fd(self.fd);
    }
}

struct WakeFd {
    fd: RawFd,
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        posix::close_fd(self.fd);
    }
}

/// A cloneable handle that interrupts [`Poller::wait`] from any thread by
/// writing one byte into a self-pipe. Saturation is fine: a full pipe
/// means a wake is already pending.
#[derive(Clone)]
pub struct Waker {
    fd: Arc<WakeFd>,
}

impl Waker {
    /// Interrupts the poller (best effort; never blocks).
    pub fn wake(&self) {
        let _ = posix::write_fd(self.fd.fd, &[1u8]);
    }
}

/// Creates the waker pair: register the reader with the poller, hand the
/// writer to whoever must interrupt it.
///
/// # Errors
/// Fails if the pipe cannot be created (fd exhaustion).
pub fn waker() -> io::Result<(Waker, WakeReader)> {
    let (r, w) = posix::nonblocking_pipe()?;
    Ok((
        Waker {
            fd: Arc::new(WakeFd { fd: w }),
        },
        WakeReader { fd: r },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_interrupts_an_idle_wait() {
        let poller = Poller::new().expect("poller");
        let (waker, reader) = waker().expect("waker pair");
        poller
            .add(reader.raw_fd(), 0, Interest::Read)
            .expect("register waker");

        let mut events = Vec::new();
        // Nothing pending: a short wait times out.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0);

        waker.wake();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 0);
        assert!(events[0].readable);
        reader.drain();

        // Drained: back to timing out.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "drained waker must not re-report");
    }

    #[test]
    fn socket_readability_is_reported_under_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();

        let poller = Poller::new().expect("poller");
        poller
            .add(listener.as_raw_fd(), 7, Interest::Read)
            .expect("register listener");

        let mut events = Vec::new();
        let mut client = TcpStream::connect(addr).expect("connect");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).unwrap();
        poller
            .add(server_side.as_raw_fd(), 9, Interest::ReadWrite)
            .expect("register conn");
        client.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(n >= 1);
        let ev = events
            .iter()
            .find(|e| e.token == 9)
            .expect("connection event");
        assert!(ev.readable, "pending bytes must report readable");

        poller.remove(server_side.as_raw_fd()).expect("deregister");
        client.write_all(b"more").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("wait");
        assert!(
            events[..n].iter().all(|e| e.token != 9),
            "deregistered fd must not report"
        );
    }

    #[test]
    fn interest_modification_gates_writable_reports() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().expect("poller");
        poller
            .add(server_side.as_raw_fd(), 3, Interest::Read)
            .expect("register");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(
            events[..n].iter().all(|e| !e.writable),
            "read-only interest must not report writable"
        );

        poller
            .modify(server_side.as_raw_fd(), 3, Interest::ReadWrite)
            .expect("modify");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events[..n].iter().any(|e| e.token == 3 && e.writable),
            "an idle socket's send buffer is writable"
        );
    }

    #[test]
    fn nofile_limits_are_readable_and_raisable() {
        let (soft, hard) = nofile_limit().expect("getrlimit");
        assert!(soft > 0 && hard >= soft);
        let raised = raise_nofile_limit().expect("setrlimit");
        assert_eq!(raised, hard, "soft limit must land on the hard limit");
    }

    #[test]
    fn writev_gathers_segments_in_order() {
        use std::io::Read as _;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        let n = writev_fd(server_side.as_raw_fd(), &[b"gather", b"ed ", b"", b"write"])
            .expect("writev");
        assert_eq!(n, 14);
        let mut got = [0u8; 14];
        client.read_exact(&mut got).expect("read back");
        assert_eq!(&got, b"gathered write");
    }

    #[test]
    fn reuseport_listeners_share_one_port() {
        use std::io::Read as _;
        let first = reuseport_tcp_listener("127.0.0.1:0".parse().unwrap()).expect("first bind");
        let addr = first.local_addr().expect("local addr");
        assert_ne!(addr.port(), 0, "bind resolved an ephemeral port");
        let second = reuseport_tcp_listener(addr).expect("second bind on same port");
        second.set_nonblocking(false).unwrap();
        first.set_nonblocking(false).unwrap();
        // Both listeners accept from the shared port; which one gets which
        // connection is the kernel's choice, so accept from both ends
        // using two client connections and a helper thread per listener.
        let h1 = std::thread::spawn(move || {
            let (mut c, _) = first.accept().expect("first accept");
            let mut b = [0u8; 1];
            c.read_exact(&mut b).expect("read");
            b[0]
        });
        let h2 = std::thread::spawn(move || {
            let (mut c, _) = second.accept().expect("second accept");
            let mut b = [0u8; 1];
            c.read_exact(&mut b).expect("read");
            b[0]
        });
        // Two connections: with reuseport the kernel hashes by 4-tuple, so
        // two distinct client ports land one on each listener with high
        // probability — but not guaranteed, so keep connecting until both
        // helpers return (bounded).
        let mut clients = Vec::new();
        for i in 0..64u8 {
            // A refused connect is expected once one helper has accepted:
            // its listener is dropped, and reuseport hashing may still
            // route a later 4-tuple to the closed socket's bucket.
            if let Ok(mut c) = TcpStream::connect(addr) {
                let _ = c.write_all(&[i]);
                clients.push(c);
            }
            if h1.is_finished() && h2.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(h1.join().is_ok());
        assert!(h2.join().is_ok());
    }
}
