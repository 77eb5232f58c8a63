//! A thin vendored readiness-polling shim for the rbay event-loop
//! transport, in the same spirit as the workspace's vendored `rand` /
//! `proptest` stand-ins: the build environment has no
//! crates.io access, so instead of `mio`/`libc` this crate declares the
//! handful of C symbols it needs (they are provided by the libc that
//! `std` already links) and wraps them in a safe, minimal API.
//!
//! * [`Poller`] — level-triggered readiness notification over a set of
//!   file descriptors: `epoll_create1`/`epoll_ctl`/`epoll_wait` on Linux,
//!   a `poll(2)` fallback on other Unixes.
//! * [`connect_nonblocking`] — starts a TCP connect without blocking the
//!   caller; completion (or failure) is observed as writability on the
//!   returned socket.
//!
//! This is the **only** crate in the workspace allowed to contain
//! `unsafe`: everything above it (`rbay-wire` and up) stays under
//! `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(unix))]
compile_error!("epoll-shim supports Unix targets only");

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::raw::c_int;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Which readiness conditions a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a peer hangup to observe).
    pub readable: bool,
    /// Wake when the fd can accept writes (or a connect completed).
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (includes EOF/hangup — a read will not block).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// An error or hangup condition is pending on the fd; consult
    /// `TcpStream::take_error` / a zero-length read for the cause.
    pub error: bool,
}

pub use imp::Poller;

/// Starts a nonblocking TCP connect to `addr`. The returned stream is in
/// nonblocking mode with the connect possibly still in flight: register
/// it for write-readiness and, once writable, check
/// `TcpStream::take_error()` for the outcome.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    imp::connect_nonblocking(addr)
}

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Matches the kernel's `struct epoll_event`; on x86-64 glibc declares
    /// it packed, so the data word is unaligned there.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // SAFETY: declarations match the Linux syscall wrappers exported by
    // every libc (glibc/musl) `std` links: epoll_create1(2), epoll_ctl(2)
    // taking a pointer the kernel copies from, epoll_wait(2) writing at
    // most `maxevents` entries, close(2). `EpollEvent` mirrors the
    // kernel's `struct epoll_event` layout (packed on x86-64).
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// Level-triggered readiness notification over `epoll`.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Creates a fresh epoll instance.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall with no pointer arguments.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Replaces the interest of an already-registered fd.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Removes `fd` from the set.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default())
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Blocks until at least one registered fd is ready or `timeout`
        /// elapses (`None` blocks indefinitely), replacing the contents of
        /// `events`. A signal interruption returns an empty set.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
            };
            // SAFETY: `raw` is a valid writable buffer of the stated length.
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as c_int, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in raw.iter().take(n as usize) {
                // Copy packed fields out by value before use.
                let bits = ev.events;
                let token = ev.data;
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: we own the fd and nothing uses it after drop.
            unsafe { close(self.epfd) };
        }
    }

    // --- nonblocking connect -------------------------------------------

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const EINPROGRESS: i32 = 115;

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    // SAFETY: socket(2) and connect(2) as exported by libc; `connect`'s
    // `addr` is only read for `len` bytes during the call, and the
    // `SockAddrIn`/`SockAddrIn6` structs above mirror the kernel's
    // `sockaddr_in`/`sockaddr_in6` layouts (fields in network order).
    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const std::ffi::c_void, len: u32) -> c_int;
    }

    pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
        use std::os::unix::io::FromRawFd;
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: plain syscall; flags request a nonblocking cloexec fd.
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd is a fresh socket we own; errors below close it via
        // the TcpStream's Drop.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        let rc = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    family: AF_INET as u16,
                    port: v4.port().to_be(),
                    addr: u32::from(*v4.ip()).to_be(),
                    zero: [0; 8],
                };
                // SAFETY: `sa` is a valid sockaddr_in for the call's duration.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockAddrIn).cast(),
                        std::mem::size_of::<SockAddrIn>() as u32,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockAddrIn6 {
                    family: AF_INET6 as u16,
                    port: v6.port().to_be(),
                    flowinfo: v6.flowinfo(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                // SAFETY: `sa` is a valid sockaddr_in6 for the call's duration.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockAddrIn6).cast(),
                        std::mem::size_of::<SockAddrIn6>() as u32,
                    )
                }
            }
        };
        if rc == 0 {
            return Ok(stream);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINPROGRESS) {
            return Ok(stream);
        }
        Err(err)
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    // SAFETY: poll(2) as exported by libc; `PollFd` mirrors the kernel's
    // `struct pollfd` and the call writes only the `revents` fields of
    // the first `nfds` entries.
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    }

    /// `poll(2)` fallback: keeps the registration set in user space and
    /// rebuilds the pollfd array per wait. O(fds) per call — fine for the
    /// non-Linux development targets this path serves.
    #[derive(Debug)]
    pub struct Poller {
        fds: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        /// Creates an empty registration set.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Mutex::new(HashMap::new()),
            })
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        /// Replaces the interest of an already-registered fd.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        /// Removes `fd` from the set.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.fds.lock().unwrap().remove(&fd);
            Ok(())
        }

        /// Blocks until at least one registered fd is ready or `timeout`
        /// elapses, replacing the contents of `events`.
        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let snapshot: Vec<(RawFd, u64, Interest)> = self
                .fds
                .lock()
                .unwrap()
                .iter()
                .map(|(fd, (token, interest))| (*fd, *token, *interest))
                .collect();
            let mut fds: Vec<PollFd> = snapshot
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
            };
            // SAFETY: `fds` is a valid writable array of the stated length.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, (_, token, _)) in fds.iter().zip(snapshot.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token: *token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
        // Portability fallback: a short blocking connect, then switch the
        // stream to nonblocking. Linux (the deployment target) gets the
        // true nonblocking path.
        let stream = TcpStream::connect_timeout(addr, Duration::from_secs(5))?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn pipe_readability_is_reported() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "nothing written yet");

        a.write_all(&[1]).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut buf = [0u8; 8];
        let n = (&b).read(&mut buf).unwrap();
        assert_eq!(n, 1);
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_connect_becomes_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(stream.as_raw_fd(), 1, Interest::WRITE)
            .unwrap();
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 1 && e.writable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "connect never completed"
            );
        }
        assert!(stream.take_error().unwrap().is_none(), "connect failed");
        let _ = listener.accept().unwrap();
    }

    #[test]
    fn reregister_switches_interest() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        a.write_all(&[9]).unwrap();

        // Write-only interest: the pending byte must not wake us as readable.
        poller.register(b.as_raw_fd(), 3, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.iter().all(|e| !e.readable));

        poller.reregister(b.as_raw_fd(), 3, Interest::BOTH).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }
}
