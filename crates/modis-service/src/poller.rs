//! Readiness discovery for the front-end: a zero-dependency wrapper over
//! `epoll(7)`.
//!
//! The workspace vendors no `libc` and no `mio`, so the reactor's original
//! sweep discovered readiness by *attempting* a syscall on every open
//! connection and treating [`WouldBlock`](std::io::ErrorKind::WouldBlock)
//! as "not ready" — O(open connections) per sweep. This module provides
//! the kernel's answer instead: register every descriptor once, then each
//! sweep asks "which of these are ready?" and touches only those —
//! O(ready) per sweep, flat in the number of idle connections.
//!
//! Keeping the no-libc stance, the epoll calls go straight to the kernel
//! through inline-assembly syscall stubs (the same way the vendored crates
//! shim their platform layers): `epoll_create1`/`epoll_ctl`/`epoll_pwait`
//! on Linux x86-64 and AArch64. Any other target gets the **sweep**
//! backend instead: every registered descriptor is reported ready each
//! wait (after a short bounded nap), which degrades exactly to the old
//! attempt-everything sweep. Correct everywhere, fast nowhere. Which of
//! the two a build runs on is decided at compile time; a failing
//! `epoll_create1` is reported as the `io::Error` it is.
//!
//! Both backends are **level-triggered**: a descriptor keeps reporting
//! ready until the condition is consumed. Callers therefore must drop
//! interest they cannot act on (e.g. a backpressured connection must
//! deregister read interest) or every wait returns immediately.

/// The raw descriptor type registered with a [`Poller`] (`RawFd` on Unix).
#[cfg(unix)]
pub type RawSource = std::os::unix::io::RawFd;
/// The raw descriptor type registered with a [`Poller`] (`RawSocket` on
/// Windows).
#[cfg(not(unix))]
pub type RawSource = u64;

/// Extracts the registrable raw descriptor from a socket type.
#[cfg(unix)]
pub fn source<T: std::os::unix::io::AsRawFd>(io: &T) -> RawSource {
    io.as_raw_fd()
}

/// Extracts the registrable raw descriptor from a socket type.
#[cfg(not(unix))]
pub fn source<T: std::os::windows::io::AsRawSocket>(io: &T) -> RawSource {
    io.as_raw_socket()
}

/// Which readiness conditions a registration subscribes to. Error and
/// hangup conditions are always reported, even for an empty interest —
/// a connection parked with [`Interest::NONE`] still learns its peer died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or EOF).
    pub read: bool,
    /// Wake when the descriptor can accept writes.
    pub write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// No readiness subscriptions (error/hangup still reported).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// Most events one [`Poller::wait`] call surfaces; a level-triggered
/// backend re-reports anything that did not fit on the next wait.
const MAX_EVENTS: usize = 256;

/// Raw syscall stubs for the epoll backend — Linux on x86-64 or
/// AArch64 only (the only targets with stable inline-assembly syscall
/// conventions this module carries).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::io;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const CLOSE: usize = 57;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EPOLL_CREATE1: usize = 20;
    }

    /// One 6-argument syscall. Returns the kernel's raw result: negative
    /// values in `[-4095, -1]` are `-errno`.
    ///
    /// # Safety
    /// The caller must uphold the invariants of the specific syscall
    /// (valid pointers with correct lengths for the kernel to read/write).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// One 6-argument syscall (AArch64 `svc #0` convention).
    ///
    /// # Safety
    /// Same contract as the x86-64 variant.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") 0usize,
            options(nostack)
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// Mirror of the kernel's `struct epoll_event`. Packed on x86-64 only
    /// (the kernel ABI there omits padding); naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: usize = 0x8_0000;
    pub const EPOLL_CTL_ADD: usize = 1;
    pub const EPOLL_CTL_DEL: usize = 2;
    pub const EPOLL_CTL_MOD: usize = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;

    pub fn epoll_create1() -> io::Result<i32> {
        check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0) }).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: usize, fd: i32, event: &mut EpollEvent) -> io::Result<()> {
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op,
                fd as usize,
                event as *mut EpollEvent as usize,
                0,
            )
        })
        .map(|_| ())
    }

    /// `epoll_pwait` with a NULL sigmask (identical to `epoll_wait`,
    /// which AArch64 does not provide). `timeout_ms < 0` blocks.
    pub fn epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as isize as usize,
                0,
            )
        })
    }

    pub fn close(fd: i32) {
        // Best-effort: nothing to do about a failed close of our own epoll fd.
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0) };
    }
}

/// The epoll backend (Linux with syscall stubs only).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod backend {
    use super::{sys, Interest, RawSource, MAX_EVENTS};
    use std::io;
    use std::time::Duration;

    fn epoll_bits(interest: Interest) -> u32 {
        let mut bits = 0u32;
        if interest.read {
            bits |= sys::EPOLLIN;
        }
        if interest.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// A readiness selector: register descriptors with a token and an
    /// [`Interest`], then [`wait`](Poller::wait) for the ready subset —
    /// O(ready) readiness via an epoll instance it owns.
    ///
    /// Level-triggered on either backend. One `Poller` belongs to one
    /// thread's event loop; registration and waiting are `&mut self` by
    /// design.
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        /// Opens the epoll instance.
        pub fn new() -> io::Result<Poller> {
            sys::epoll_create1().map(|epfd| Poller { epfd })
        }

        /// Which backend this poller runs on.
        #[cfg(test)]
        pub fn backend_name(&self) -> &'static str {
            "epoll"
        }

        fn ctl(
            &self,
            op: usize,
            fd: RawSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            let mut event = sys::EpollEvent {
                events: epoll_bits(interest),
                data: token as u64,
            };
            sys::epoll_ctl(self.epfd, op, fd, &mut event)
        }

        /// Starts watching `fd`, reporting its readiness under `token`.
        /// Registering an already-registered descriptor is an error.
        pub fn register(
            &mut self,
            fd: RawSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Replaces the token and interest of an already-registered `fd`.
        pub fn reregister(
            &mut self,
            fd: RawSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stops watching `fd`. Call it *before* the descriptor is closed:
        /// epoll forgets closed descriptors on its own, the sweep backend's
        /// entry list does not.
        pub fn deregister(&mut self, fd: RawSource) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// Clears `tokens` and fills it with the tokens of the descriptors
        /// ready now — readable, writable, or in an error or hangup state
        /// (the owner sweeps each in both directions and discovers a
        /// failure through the normal read/write paths) — blocking up to
        /// `timeout` (`None` blocks until something is ready). An
        /// interrupted wait (EINTR) returns `Ok` with no tokens — callers
        /// re-check their stop condition and wait again.
        pub fn wait(
            &mut self,
            tokens: &mut Vec<usize>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            tokens.clear();
            let mut buf = [sys::EpollEvent::default(); MAX_EVENTS];
            // Round a sub-millisecond timeout *up*: rounding to 0 would
            // turn a short park into a busy spin.
            let ms: i32 = match timeout {
                None => -1,
                Some(d) if d.is_zero() => 0,
                Some(d) => d.as_millis().clamp(1, i32::MAX as u128) as i32,
            };
            match sys::epoll_wait(self.epfd, &mut buf, ms) {
                Ok(n) => {
                    tokens.extend(buf[..n].iter().map(|event| event.data as usize));
                    Ok(())
                }
                // A signal is not an event; the caller's loop re-checks its
                // stop flag and waits again.
                Err(err) if err.kind() == io::ErrorKind::Interrupted => Ok(()),
                Err(err) => Err(err),
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close(self.epfd);
        }
    }
}

/// Portable degraded backend: every registered descriptor is reported
/// ready (per its interest) on every wait, after a short bounded nap —
/// behaviourally the old attempt-every-connection sweep. Its `Poller` has
/// the epoll backend's interface, documented there.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
#[allow(missing_docs)]
mod backend {
    use super::{Interest, RawSource, MAX_EVENTS};
    use std::io;
    use std::time::Duration;

    pub struct Poller {
        entries: Vec<(RawSource, usize, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                entries: Vec::new(),
            })
        }

        #[cfg(test)]
        pub fn backend_name(&self) -> &'static str {
            "sweep"
        }

        pub fn register(
            &mut self,
            fd: RawSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.entries.push((fd, token, interest));
            Ok(())
        }

        pub fn reregister(
            &mut self,
            fd: RawSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            match self.entries.iter_mut().find(|&&mut (f, ..)| f == fd) {
                Some(entry) => {
                    *entry = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&mut self, fd: RawSource) -> io::Result<()> {
            self.entries.retain(|&(f, ..)| f != fd);
            Ok(())
        }

        pub fn wait(
            &mut self,
            tokens: &mut Vec<usize>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            tokens.clear();
            let nap = timeout
                .unwrap_or(Duration::from_micros(500))
                .min(Duration::from_micros(500));
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
            for &(_, token, interest) in self.entries.iter().take(MAX_EVENTS) {
                if interest.read || interest.write {
                    tokens.push(token);
                }
            }
            Ok(())
        }
    }
}

pub use backend::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let local = tx.local_addr().unwrap();
        let rx = loop {
            let (rx, peer) = listener.accept().unwrap();
            if peer == local {
                break rx;
            }
        };
        (tx, rx)
    }

    fn wait_for_token(poller: &mut Poller, token: usize) {
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.contains(&token) {
                return;
            }
        }
        panic!("token {token} never became ready");
    }

    #[test]
    fn default_backend_reports_readiness_transitions() {
        let mut poller = Poller::new().unwrap();
        let (mut tx, rx) = socket_pair();
        poller.register(source(&rx), 7, Interest::READ).unwrap();

        // Nothing pending: a short wait returns empty, promptly.
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert!(events.is_empty(), "unexpected events: {events:?}");
        assert!(start.elapsed() < Duration::from_secs(2));

        // A byte arrives: the registered token reports ready, and keeps
        // reporting it (level-triggered) until consumed.
        tx.write_all(&[1]).unwrap();
        wait_for_token(&mut poller, 7);
        wait_for_token(&mut poller, 7);

        // Interest change to write-only: the unread byte no longer wakes
        // the old token, but the idle socket is writable.
        let write_only = Interest {
            read: false,
            write: true,
        };
        poller.reregister(source(&rx), 9, write_only).unwrap();
        wait_for_token(&mut poller, 9);
        assert!(!events.contains(&7));

        // Deregistered: silence, even with the byte still pending.
        poller.deregister(source(&rx)).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd reported: {events:?}");

        // Re-registering after deregistration works.
        poller.register(source(&rx), 11, Interest::READ).unwrap();
        wait_for_token(&mut poller, 11);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn epoll_is_the_default_backend_here() {
        let poller = Poller::new().unwrap();
        assert_eq!(poller.backend_name(), "epoll");
    }

    #[test]
    fn hangup_is_reported_even_with_no_interest() {
        let mut poller = Poller::new().unwrap();
        let (tx, mut rx) = socket_pair();
        poller.register(source(&rx), 3, Interest::NONE).unwrap();
        // A plain FIN leaves the socket half-open (we could still write),
        // so provoke a full teardown: writing to a fully-closed peer makes
        // it answer RST, which marks our socket errored — and ERR/HUP are
        // reported even with an empty interest mask (they are unmaskable
        // in epoll), so the owner can reap the connection.
        // (The degraded sweep backend cannot detect this; skip there.)
        drop(tx);
        let _ = rx.write_all(&[1]);
        if poller.backend_name() == "epoll" {
            wait_for_token(&mut poller, 3);
        }
    }
}
