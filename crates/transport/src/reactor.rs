//! The epoll readiness reactor: event-driven wakeups for the wire.
//!
//! Before this module the wire engine's `pump` speculatively polled
//! every peer socket on every progress call — O(peers) syscalls per
//! sweep, which collapses at fan-ins beyond a dozen ranks. The reactor
//! inverts that: **one reactor per process** owns all of a transport's
//! nonblocking sockets inside one edge-triggered epoll set, a dedicated
//! thread blocks in `epoll_wait`, and readiness is published as bits in
//! a lock-free [`ReadySet`] bitmap that the progress engine consumes.
//! `external_work` then answers from a handful of atomic loads, and a
//! pump pass touches only the peers that actually have bytes waiting —
//! O(ready peers), not O(peers).
//!
//! ## Wakeup channels
//!
//! * **Sockets** (TCP/UDS data connections and the listener) are
//!   registered `EPOLLIN | EPOLLRDHUP | EPOLLET`. Edge-triggered means
//!   one event per readable *edge*: the consumer must read until the
//!   socket is drained — `WouldBlock` or, on a stream socket, a short
//!   read — or explicitly re-mark the bit when it stops early, or the
//!   wakeup is lost — exactly the pathology the obs doctor's
//!   finding 11 and the DST `planted_lost_wakeup_bug` fixture cover.
//! * **The eventfd** doubles as shutdown channel and software doorbell
//!   ([`Reactor::wake`]): anyone can nudge the reactor thread. The
//!   shared-memory transport has no fds and no reactor; its consumer
//!   polls the ring tails.
//!
//! ## Fallback
//!
//! Off Linux — or with `MPFA_REACTOR=0` — [`Reactor::new`] returns
//! `None` and the wire engine keeps its legacy full-scan pump, so
//! behaviour (not performance) is identical everywhere; the
//! differential tests run both paths against the same byte streams.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Environment variable disabling the reactor (`MPFA_REACTOR=0` forces
/// the legacy full-scan pump even on Linux).
pub const ENV_REACTOR: &str = "MPFA_REACTOR";

/// True when the readiness reactor should be used: Linux, and not
/// explicitly disabled via [`ENV_REACTOR`].
pub fn reactor_enabled() -> bool {
    if !cfg!(target_os = "linux") {
        return false;
    }
    std::env::var(ENV_REACTOR).map_or(true, |v| v != "0" && !v.eq_ignore_ascii_case("false"))
}

/// A fixed-size atomic bitmap of ready peers. The reactor thread marks
/// bits as `epoll_wait` reports readiness; pump passes take them. Both
/// sides are lock-free; `any()` is one atomic load, which is what lets
/// `external_work` answer without a syscall.
pub struct ReadySet {
    words: Box<[AtomicU64]>,
    /// Number of set bits (kept exact: `mark` only increments on a
    /// 0→1 transition it observed atomically).
    set_hint: AtomicUsize,
}

impl ReadySet {
    /// A set able to hold bits `0..n`.
    pub fn new(n: usize) -> ReadySet {
        let words = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        ReadySet {
            words,
            set_hint: AtomicUsize::new(0),
        }
    }

    /// Set bit `i`. Returns true when the bit was newly set (callers
    /// use this to keep the `reactor_ready_pending` gauge exact).
    pub fn mark(&self, i: usize) -> bool {
        let mask = 1u64 << (i % 64);
        let prev = self.words[i / 64].fetch_or(mask, Ordering::AcqRel);
        let newly = prev & mask == 0;
        if newly {
            self.set_hint.fetch_add(1, Ordering::AcqRel);
        }
        newly
    }

    /// Clear bit `i`. Returns true when the bit was set.
    pub fn take(&self, i: usize) -> bool {
        let mask = 1u64 << (i % 64);
        let prev = self.words[i / 64].fetch_and(!mask, Ordering::AcqRel);
        let was = prev & mask != 0;
        if was {
            self.set_hint.fetch_sub(1, Ordering::AcqRel);
        }
        was
    }

    /// True when any bit is set. One atomic load.
    pub fn any(&self) -> bool {
        self.set_hint.load(Ordering::Acquire) > 0
    }

    /// Atomically clear every set bit, pushing the indices into `out`
    /// (ascending). Returns how many were taken.
    pub fn take_all(&self, out: &mut Vec<usize>) -> usize {
        if !self.any() {
            return 0;
        }
        let mut taken = 0;
        for (w, word) in self.words.iter().enumerate() {
            if word.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::AcqRel);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push(w * 64 + b);
                taken += 1;
            }
        }
        if taken > 0 {
            self.set_hint.fetch_sub(taken, Ordering::AcqRel);
        }
        taken
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::ReadySet;
    use std::os::raw::{c_int, c_void};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // Raw syscalls, declared directly like `shm::sys` — the workspace
    // is std-only, no libc crate.
    mod sys {
        use std::os::raw::{c_int, c_void};

        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLLET: u32 = 1 << 31;
        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EFD_CLOEXEC: c_int = 0o2000000;
        pub const EFD_NONBLOCK: c_int = 0o4000;
        pub const EINTR: c_int = 4;

        /// Kernel ABI: packed on x86_64, naturally aligned elsewhere.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub token: u64,
        }

        extern "C" {
            pub(crate) fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, ev: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                evs: *mut EpollEvent,
                max: c_int,
                timeout_ms: c_int,
            ) -> c_int;
            pub fn eventfd(initval: u32, flags: c_int) -> c_int;
            pub fn close(fd: c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        }
    }

    /// Event token for the transport's own listener.
    pub const TOKEN_LISTENER: u64 = u64::MAX;
    /// Event token for the wake/shutdown eventfd.
    pub const TOKEN_WAKE: u64 = u64::MAX - 1;
    /// Event token shared by accepted-but-unidentified (pre-hello)
    /// sockets.
    pub const TOKEN_PENDING: u64 = u64::MAX - 2;

    /// State shared between the reactor thread and pump passes.
    pub struct Shared {
        /// Per-peer readiness bits (bit = peer rank).
        pub ready: ReadySet,
        /// Peers whose socket reported a hang-up or error (set before
        /// the matching `ready` bit). The pump stops reading at a short
        /// read, which cannot show end-of-stream; these it reads until
        /// `Ok(0)`.
        pub hup: ReadySet,
        /// The listener has at least one pending accept.
        pub listener_ready: AtomicBool,
        /// Some pre-hello socket became readable.
        pub pending_ready: AtomicBool,
        shutdown: AtomicBool,
    }

    /// The epoll reactor: fds, the shared readiness surface, and the
    /// thread blocked in `epoll_wait`.
    pub struct Reactor {
        epfd: c_int,
        wakefd: c_int,
        shared: Arc<Shared>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Reactor {
        /// Build a reactor for `ranks` peers with the transport's
        /// listener pre-registered. `None` when epoll/eventfd are
        /// unavailable (callers fall back to the full-scan pump).
        pub fn new(ranks: usize, listener_fd: c_int) -> Option<Reactor> {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return None;
            }
            let wakefd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if wakefd < 0 {
                unsafe { sys::close(epfd) };
                return None;
            }
            let shared = Arc::new(Shared {
                ready: ReadySet::new(ranks),
                hup: ReadySet::new(ranks),
                listener_ready: AtomicBool::new(false),
                pending_ready: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
            });
            let mut reactor = Reactor {
                epfd,
                wakefd,
                shared: shared.clone(),
                thread: None,
            };
            // The wake channel is level-triggered on purpose: a wake
            // posted while the thread is mid-loop must not be lost.
            // (On any failure from here, Drop closes the fds.)
            if !reactor.ctl(sys::EPOLL_CTL_ADD, wakefd, TOKEN_WAKE, false)
                || !reactor.ctl(sys::EPOLL_CTL_ADD, listener_fd, TOKEN_LISTENER, true)
            {
                return None;
            }
            let thread = std::thread::Builder::new()
                .name("mpfa-reactor".into())
                .spawn(move || reactor_loop(epfd, wakefd, shared))
                .ok()?;
            reactor.thread = Some(thread);
            Some(reactor)
        }

        /// The shared readiness surface pump passes consume.
        pub fn shared(&self) -> &Shared {
            &self.shared
        }

        fn ctl(&self, op: c_int, fd: c_int, token: u64, edge: bool) -> bool {
            let mut ev = sys::EpollEvent {
                events: sys::EPOLLIN | sys::EPOLLRDHUP | if edge { sys::EPOLLET } else { 0 },
                token,
            };
            mpfa_obs::global_counters()
                .wire_syscalls
                .fetch_add(1, Ordering::Relaxed);
            unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) == 0 }
        }

        /// Register a connected peer socket under its rank token. If
        /// the socket is already readable, edge-triggered ADD delivers
        /// the initial event immediately — nothing is lost in the
        /// connect→register window.
        pub(crate) fn add_peer(&self, fd: c_int, rank: usize) -> bool {
            self.ctl(sys::EPOLL_CTL_ADD, fd, rank as u64, true)
        }

        /// Register an accepted, not-yet-identified socket.
        pub(crate) fn add_pending(&self, fd: c_int) -> bool {
            self.ctl(sys::EPOLL_CTL_ADD, fd, TOKEN_PENDING, true)
        }

        /// Retag a pending socket that identified itself as `rank`.
        pub(crate) fn promote_pending(&self, fd: c_int, rank: usize) -> bool {
            self.ctl(sys::EPOLL_CTL_MOD, fd, rank as u64, true)
        }

        /// Drop a socket from the set. Usually unnecessary — closing
        /// an fd removes it from every epoll set — but pending strays
        /// handed to other owners need an explicit goodbye.
        #[allow(dead_code)]
        pub(crate) fn del(&self, fd: c_int) -> bool {
            mpfa_obs::global_counters()
                .wire_syscalls
                .fetch_add(1, Ordering::Relaxed);
            unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) == 0 }
        }

        /// Software doorbell: nudge the reactor thread (and through it,
        /// any `external_work` watcher) without socket traffic.
        pub fn wake(&self) {
            let one: u64 = 1;
            unsafe {
                sys::write(self.wakefd, &one as *const u64 as *const c_void, 8);
            }
        }
    }

    impl Drop for Reactor {
        fn drop(&mut self) {
            if let Some(t) = self.thread.take() {
                self.shared.shutdown.store(true, Ordering::Release);
                self.wake();
                let _ = t.join();
            }
            unsafe {
                sys::close(self.epfd);
                sys::close(self.wakefd);
            }
        }
    }

    fn reactor_loop(epfd: c_int, wakefd: c_int, shared: Arc<Shared>) {
        const MAX_EVENTS: usize = 64;
        let mut evs = [sys::EpollEvent {
            events: 0,
            token: 0,
        }; MAX_EVENTS];
        loop {
            let n = unsafe { sys::epoll_wait(epfd, evs.as_mut_ptr(), MAX_EVENTS as c_int, -1) };
            if n < 0 {
                match std::io::Error::last_os_error().raw_os_error() {
                    Some(e) if e == sys::EINTR => continue,
                    _ => return,
                }
            }
            let counters = mpfa_obs::global_counters();
            let mut published = 0u64;
            for ev in &evs[..n as usize] {
                match ev.token {
                    TOKEN_WAKE => {
                        let mut buf = 0u64;
                        unsafe {
                            sys::read(wakefd, &mut buf as *mut u64 as *mut c_void, 8);
                        }
                    }
                    TOKEN_LISTENER => {
                        shared.listener_ready.store(true, Ordering::Release);
                        published += 1;
                    }
                    TOKEN_PENDING => {
                        shared.pending_ready.store(true, Ordering::Release);
                        published += 1;
                    }
                    rank => {
                        let gone = sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR;
                        if ev.events & gone != 0 {
                            shared.hup.mark(rank as usize);
                        }
                        if shared.ready.mark(rank as usize) {
                            counters
                                .reactor_ready_pending
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        published += 1;
                    }
                }
            }
            if published > 0 {
                counters.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::ReadySet;
    use std::sync::atomic::AtomicBool;

    /// Readiness surface the wire pump consumes. Never constructed off
    /// Linux — [`Reactor::new`] always returns `None` there.
    #[allow(dead_code)]
    pub struct Shared {
        /// Per-peer readiness bits (bit = peer rank).
        pub ready: ReadySet,
        /// Peers whose socket reported a hang-up or error.
        pub hup: ReadySet,
        /// The listener has at least one pending accept.
        pub listener_ready: AtomicBool,
        /// Some pre-hello socket became readable.
        pub pending_ready: AtomicBool,
    }

    /// Stub reactor for platforms without epoll: construction always
    /// fails, so the wire engine keeps its legacy full-scan pump.
    pub struct Reactor {
        shared: Shared,
    }

    impl Reactor {
        /// Always `None` off Linux.
        pub fn new(_ranks: usize, _listener_fd: i32) -> Option<Reactor> {
            None
        }

        /// The shared readiness surface (unreachable off Linux).
        pub fn shared(&self) -> &Shared {
            &self.shared
        }

        /// No-op off Linux.
        pub(crate) fn add_peer(&self, _fd: i32, _rank: usize) -> bool {
            false
        }

        /// No-op off Linux.
        pub(crate) fn add_pending(&self, _fd: i32) -> bool {
            false
        }

        /// No-op off Linux.
        pub(crate) fn promote_pending(&self, _fd: i32, _rank: usize) -> bool {
            false
        }

        /// No-op off Linux.
        pub fn wake(&self) {}
    }
}

pub use imp::{Reactor, Shared};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_set_marks_takes_and_counts() {
        let s = ReadySet::new(130);
        assert!(!s.any());
        assert!(s.mark(0));
        assert!(s.mark(65));
        assert!(s.mark(129));
        assert!(!s.mark(65), "second mark of a set bit is not new");
        assert!(s.any());
        let mut out = Vec::new();
        assert_eq!(s.take_all(&mut out), 3);
        assert_eq!(out, vec![0, 65, 129]);
        assert!(!s.any());
        assert_eq!(s.take_all(&mut out), 0);
    }

    #[test]
    fn ready_set_single_take_clears_one_bit() {
        let s = ReadySet::new(8);
        s.mark(3);
        s.mark(5);
        assert!(s.take(3));
        assert!(!s.take(3), "already taken");
        assert!(s.any(), "bit 5 still set");
        assert!(s.take(5));
        assert!(!s.any());
    }

    #[test]
    fn ready_set_is_exact_under_concurrent_marks() {
        use std::sync::Arc;
        let s = Arc::new(ReadySet::new(256));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut newly = 0usize;
                    for i in 0..256 {
                        if s.mark((i * 4 + t) % 256) {
                            newly += 1;
                        }
                    }
                    newly
                })
            })
            .collect();
        let newly: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(newly, 256, "every bit newly set exactly once");
        let mut out = Vec::new();
        assert_eq!(s.take_all(&mut out), 256);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reactor_publishes_listener_and_peer_readiness() {
        use std::io::Write;
        use std::os::fd::AsRawFd;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let reactor = Reactor::new(4, listener.as_raw_fd()).expect("reactor on linux");

        // A dial makes the listener readable.
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !reactor
            .shared()
            .listener_ready
            .load(std::sync::atomic::Ordering::Acquire)
        {
            assert!(std::time::Instant::now() < deadline, "no listener wakeup");
            std::thread::yield_now();
        }

        // Register the accepted peer socket and write to it: the peer
        // bit must light up without anyone polling the socket.
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        assert!(reactor.add_peer(sock.as_raw_fd(), 2));
        client.write_all(b"ding").unwrap();
        while !reactor.shared().ready.any() {
            assert!(std::time::Instant::now() < deadline, "no peer wakeup");
            std::thread::yield_now();
        }
        let mut out = Vec::new();
        reactor.shared().ready.take_all(&mut out);
        assert_eq!(out, vec![2]);
        // Keep the obs gauge exact: these bits were consumed.
        mpfa_obs::global_counters()
            .reactor_ready_pending
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}
