//! Low-level non-blocking I/O primitives for the network serving tier
//! (Linux only): a thin `epoll` wrapper, an `eventfd` wake-up channel and
//! a process shutdown flag driven by `SIGINT`/`SIGTERM`.
//!
//! The build environment is offline, so — same spirit as the [`crate`]
//! mmap wrapper — the syscalls are bound directly against libc's symbols
//! (always linked by std on unix) instead of pulling in `libc`/`mio`/
//! `tokio`. Every unsafe block is small and carries a SAFETY comment;
//! every crate above `ocular-bytes` consumes these types through safe
//! APIs only (all but `ocular-linalg`, which holds one block of its own,
//! keep `#![forbid(unsafe_code)]`).

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
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

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const SIGHUP: i32 = 1;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// packs it there so 32-bit and 64-bit userlands share one layout);
/// naturally aligned everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Readiness interest for a registered file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer half-closes).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — a connection with buffered output.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        // EPOLLRDHUP rides along with read interest only: a write-only
        // registration (connection flushing its tail after the peer
        // half-closed) must not level-trigger on the half-close forever.
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Input readiness (data to read, or a pending accept).
    pub readable: bool,
    /// Output readiness.
    pub writable: bool,
    /// Error/hang-up condition — the connection should be torn down after
    /// draining whatever still reads.
    pub closed: bool,
}

/// A level-triggered `epoll` instance owning its kernel fd.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; the result is checked.
        #[allow(unsafe_code)]
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
        // SAFETY: `ev` is a live, properly laid out epoll_event for the
        // duration of the call; the kernel copies it before returning.
        #[allow(unsafe_code)]
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Re-arms an already registered `fd` with a new interest set.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Removes `fd` from the interest set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Waits up to `timeout_ms` (−1 = forever) and appends readiness
    /// events to `out`. Interruption by a signal (`EINTR`) returns
    /// normally with no events, so callers re-check their shutdown flag
    /// on every iteration.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        const MAX_EVENTS: usize = 256;
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // SAFETY: `buf` is a valid writable array of MAX_EVENTS
        // epoll_event structs; the kernel writes at most that many.
        #[allow(unsafe_code)]
        let n = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &buf[..n as usize] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing the fd this struct owns, exactly once.
        #[allow(unsafe_code)]
        unsafe {
            close(self.fd);
        }
    }
}

/// A non-blocking `eventfd` — the cross-thread wake-up channel that lets
/// worker threads interrupt an [`Epoll::wait`] (register its
/// [`EventFd::raw_fd`] for read interest, [`EventFd::notify`] from any
/// thread, [`EventFd::drain`] on wake).
pub struct EventFd {
    fd: RawFd,
}

// SAFETY: the wrapped fd is just an integer handle; eventfd read/write
// are thread-safe kernel operations.
#[allow(unsafe_code)]
unsafe impl Send for EventFd {}
#[allow(unsafe_code)]
unsafe impl Sync for EventFd {}

impl EventFd {
    /// Creates a non-blocking eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; the result is checked.
        #[allow(unsafe_code)]
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for registration with an [`Epoll`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the eventfd counter, waking any epoll waiting on it.
    pub fn notify(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: writing 8 bytes from a live stack buffer to an owned fd.
        // An EAGAIN (counter saturated) still leaves the fd readable, so
        // the wake-up is delivered either way and the result is ignorable.
        #[allow(unsafe_code)]
        unsafe {
            write(self.fd, one.as_ptr(), one.len());
        }
    }

    /// Resets the counter to 0 (returns the number of notifications
    /// consumed, 0 when none were pending).
    pub fn drain(&self) -> u64 {
        let mut buf = [0u8; 8];
        // SAFETY: reading at most 8 bytes into a live stack buffer from an
        // owned non-blocking fd.
        #[allow(unsafe_code)]
        let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
        if n == 8 {
            u64::from_ne_bytes(buf)
        } else {
            0
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: closing the fd this struct owns, exactly once.
        #[allow(unsafe_code)]
        unsafe {
            close(self.fd);
        }
    }
}

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    // async-signal-safe: a single relaxed atomic store
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs `SIGINT`/`SIGTERM` handlers that set a process-wide flag and
/// returns that flag. Event loops poll it between waits (signal delivery
/// also interrupts a blocking `epoll_wait` with `EINTR`), so `kill -TERM`
/// produces a clean drain-and-exit instead of an abrupt kill.
///
/// Idempotent; the flag can also be raised programmatically for tests.
pub fn shutdown_flag() -> &'static AtomicBool {
    // SAFETY: signal() installs an async-signal-safe handler (it only
    // stores to an atomic). Re-installation is harmless.
    #[allow(unsafe_code)]
    unsafe {
        signal(SIGINT, on_shutdown_signal as *const () as usize);
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
    }
    &SHUTDOWN
}

static RELOAD: AtomicBool = AtomicBool::new(false);

extern "C" fn on_reload_signal(_sig: i32) {
    // async-signal-safe: a single relaxed atomic store
    RELOAD.store(true, Ordering::Relaxed);
}

/// Installs a `SIGHUP` handler that sets a process-wide reload-request
/// flag and returns that flag — the classic daemon convention for
/// "re-read your configuration / pick up the new artifact". The serving
/// event loop polls it between waits and treats it exactly like a
/// `POST /admin/reload`.
///
/// Consumers take the request with [`take_reload_request`] (swap-and-
/// clear) so one signal triggers exactly one reload. Idempotent; the
/// flag can also be raised programmatically for tests.
pub fn reload_flag() -> &'static AtomicBool {
    // SAFETY: signal() installs an async-signal-safe handler (it only
    // stores to an atomic). Re-installation is harmless.
    #[allow(unsafe_code)]
    unsafe {
        signal(SIGHUP, on_reload_signal as *const () as usize);
    }
    &RELOAD
}

/// Atomically consumes a pending reload request: returns `true` (and
/// clears the flag) if a `SIGHUP` arrived since the last call.
pub fn take_reload_request(flag: &AtomicBool) -> bool {
    flag.swap(false, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw_fd(), 42, Interest::READ).unwrap();

        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no wake-up pending yet");

        ev.notify();
        ev.notify();
        ep.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        assert_eq!(ev.drain(), 2);

        // drained: level-triggered readiness is gone
        events.clear();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn listener_and_stream_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), 1, Interest::READ).unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 2000).unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "pending accept must surface as readable"
        );

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        ep.add(server_side.as_raw_fd(), 2, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();
        events.clear();
        ep.wait(&mut events, 2000).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));

        // interest modification round-trips: write-readiness on an idle
        // socket surfaces immediately
        ep.modify(server_side.as_raw_fd(), 2, Interest::READ_WRITE)
            .unwrap();
        events.clear();
        ep.wait(&mut events, 2000).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        ep.delete(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn reload_flag_swap_and_clear() {
        let flag = reload_flag();
        assert!(!take_reload_request(flag), "no request pending initially");
        flag.store(true, Ordering::Relaxed);
        assert!(take_reload_request(flag), "pending request consumed");
        assert!(
            !take_reload_request(flag),
            "one signal triggers exactly one reload"
        );
    }

    #[test]
    fn shutdown_flag_is_settable() {
        let flag = shutdown_flag();
        flag.store(true, Ordering::Relaxed);
        assert!(flag.load(Ordering::Relaxed));
        flag.store(false, Ordering::Relaxed);
        assert!(!flag.load(Ordering::Relaxed));
    }
}
