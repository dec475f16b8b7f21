//! Offline, API-compatible subset of the `polling` crate (v2 API).
//!
//! Provides a [`Poller`]: register file descriptors with an interest
//! ([`Event`]), block in [`Poller::wait`] until one is ready, wake the
//! waiter from another thread with [`Poller::notify`]. Like upstream
//! `polling`, notifications are **oneshot**: delivering an event for a
//! source clears its interest, and the caller re-arms it with
//! [`Poller::modify`] before the next wait — the discipline that ports
//! unchanged to upstream.
//!
//! # Backends
//!
//! The backend is chosen at build time by the target platform; there is
//! no option. Both keep the same contract, pinned by one shared test
//! suite run against each.
//!
//! * **Linux: `epoll(7)`**, so a wait costs O(ready sources), not
//!   O(registered). Sources sit in the epoll set level-triggered and the
//!   oneshot disarm happens in user space. Each registration keeps
//!   `want`, the armed interest, and `kernel`, the mask the epoll set
//!   holds, with `want ⊆ kernel`: `modify` calls `epoll_ctl` only when
//!   `want` gains a bit `kernel` lacks, and a reported bit nobody armed
//!   narrows `kernel` to `want` (one `epoll_ctl`) without being
//!   delivered. A deliver → re-arm-the-same-interest cycle therefore
//!   costs one `epoll_wait` and no `epoll_ctl`, and a source left
//!   disarmed while ready costs at most one extra kernel report.
//! * **Elsewhere: `poll(2)`**, the portable lowest common denominator:
//!   the registry is rebuilt into a `pollfd` array on every wait, which
//!   is O(registered) per call but needs no OS-specific registration
//!   state. On Linux it is compiled only for the contract tests.
//!
//! [`Poller::wait`] returns `Ok(0)` only when the timeout elapses or
//! [`Poller::notify`] was called — never because every kernel report was
//! for interest nobody armed: the epoll backend then waits again for
//! what remains of the timeout. Cross-thread wakeups use a self-pipe (a
//! non-blocking `UnixStream` pair) in both backends.
//!
//! This is the **only** crate in the workspace allowed to use `unsafe`:
//! `#[repr(C)]` kernel records and documented `extern "C"` calls to
//! `poll(2)` and the `epoll` family (std already links libc, so no
//! external crate is needed). Every `unsafe` block carries a
//! `// SAFETY:` comment (`spq-lint`'s `unsafe-without-safety-comment`).

#![warn(missing_docs)]

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod epoll;
#[cfg(any(test, not(target_os = "linux")))]
mod poll;

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub use poll::Poller;

/// A readiness interest or a delivered readiness notification for the
/// source registered under `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier for the source (delivered back by
    /// [`Poller::wait`]).
    pub key: usize,
    /// Interest in (or occurrence of) read readiness.
    pub readable: bool,
    /// Interest in (or occurrence of) write readiness.
    pub writable: bool,
}

impl Event {
    /// Interest in read readiness only.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in write readiness only.
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both read and write readiness.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// No interest: the source stays registered but produces no events
    /// until re-armed with [`Poller::modify`].
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// A registerable event source — anything exposing a raw file
/// descriptor. Mirrors the upstream trait: sockets and listeners
/// register as `&stream`, a raw fd registers as itself.
pub trait Source {
    /// The underlying descriptor.
    fn raw(&self) -> RawFd;
}

impl Source for RawFd {
    fn raw(&self) -> RawFd {
        *self
    }
}

impl<T: AsRawFd> Source for &T {
    fn raw(&self) -> RawFd {
        self.as_raw_fd()
    }
}

fn already_registered(fd: RawFd) -> io::Error {
    io::Error::new(
        io::ErrorKind::AlreadyExists,
        format!("fd {fd} is already registered"),
    )
}

fn not_registered(fd: RawFd) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("fd {fd} is not registered"),
    )
}

/// A wait timeout in the milliseconds both syscalls take: `-1` blocks.
/// Sub-millisecond remainders round up, so a tiny timeout never becomes
/// a hot 0 ms spin; far-future timeouts saturate.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0));
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

/// The self-pipe: `notify` writes one byte, the waiter watches the read
/// end and drains it. Both ends non-blocking.
struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The descriptor a wait watches for readability.
    fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Coalesces any number of pending notifications.
    fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    fn notify(&self) -> io::Result<()> {
        match (&self.tx).write(&[1u8]) {
            Ok(_) => Ok(()),
            // A full pipe means a wakeup is already pending — good enough.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// The contract both backends keep, as one test suite instantiated per
/// backend.
#[cfg(test)]
macro_rules! contract_tests {
    ($poller:ty) => {
        use std::io::Write;
        use std::os::unix::net::UnixStream;
        use std::time::{Duration, Instant};
        use $crate::Event;

        fn poller() -> $poller {
            <$poller>::new().expect("poller")
        }

        #[test]
        fn readable_event_is_delivered_once_then_rearmed() {
            let poller = poller();
            let (mut a, b) = UnixStream::pair().expect("pair");
            b.set_nonblocking(true).expect("nonblocking");
            poller.add(&b, Event::readable(7)).expect("add");

            a.write_all(b"x").expect("write");
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(n, 1);
            assert_eq!(events[0], Event::readable(7));

            // Oneshot: without re-arming, the still-readable socket
            // produces nothing more.
            events.clear();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            assert_eq!(n, 0, "disarmed source must stay silent");

            // Re-armed, it fires again.
            poller.modify(&b, Event::readable(7)).expect("modify");
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(n, 1);
        }

        #[test]
        fn a_disarmed_ready_source_stays_silent_for_the_whole_timeout() {
            let poller = poller();
            let (mut a, b) = UnixStream::pair().expect("pair");
            poller.add(&b, Event::readable(4)).expect("add");
            a.write_all(b"x").expect("write");
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(n, 1);

            // Still readable, not re-armed: the wait must neither deliver
            // nor return early because the only report was filtered out.
            events.clear();
            let start = Instant::now();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            let waited = start.elapsed();
            assert_eq!(n, 0);
            assert!(events.is_empty());
            assert!(
                waited >= Duration::from_millis(45),
                "returned Ok(0) after {waited:?}, before the timeout"
            );
        }

        #[test]
        fn rearming_a_still_readable_source_fires_on_the_next_wait() {
            let poller = poller();
            let (mut a, b) = UnixStream::pair().expect("pair");
            poller.add(&b, Event::readable(5)).expect("add");
            a.write_all(b"x").expect("write");
            let mut events = Vec::new();
            for round in 0..3 {
                events.clear();
                let n = poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .expect("wait");
                assert_eq!(n, 1, "round {round}: level semantics");
                assert_eq!(events, [Event::readable(5)]);
                poller.modify(&b, Event::readable(5)).expect("modify");
            }
        }

        #[test]
        fn widening_to_all_delivers_writable_and_narrowing_back_stops_it() {
            let poller = poller();
            let (_a, b) = UnixStream::pair().expect("pair");
            poller.add(&b, Event::readable(6)).expect("add");
            let mut events = Vec::new();
            let quiet = Some(Duration::from_millis(50));
            assert_eq!(poller.wait(&mut events, quiet).expect("wait"), 0);

            poller.modify(&b, Event::all(6)).expect("widen");
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(n, 1);
            assert_eq!(events, [Event::writable(6)]);

            events.clear();
            poller.modify(&b, Event::readable(6)).expect("narrow");
            assert_eq!(poller.wait(&mut events, quiet).expect("wait"), 0);
            assert!(
                events.is_empty(),
                "narrowed interest still fired: {events:?}"
            );
        }

        #[test]
        fn a_disarmed_hung_up_source_stays_silent() {
            let poller = poller();
            let (a, b) = UnixStream::pair().expect("pair");
            poller.add(&b, Event::readable(8)).expect("add");
            drop(a);
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(
                (n, events[0]),
                (1, Event::readable(8)),
                "EOF reads as readable"
            );

            // The hang-up persists; with nothing armed it is not reported,
            // and the wait does not spin on it either.
            events.clear();
            let start = Instant::now();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            assert_eq!(n, 0);
            assert!(start.elapsed() >= Duration::from_millis(45));
            poller.modify(&b, Event::readable(8)).expect("re-arm");
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(n, 1, "re-armed, the hang-up is delivered again");
        }

        #[test]
        fn notify_wakes_a_blocked_wait_with_zero_events() {
            let poller = std::sync::Arc::new(poller());
            let waker = std::sync::Arc::clone(&poller);
            let waiter = std::thread::spawn(move || {
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Some(Duration::from_secs(30)))
                    .expect("wait")
            });
            std::thread::sleep(Duration::from_millis(50));
            let start = Instant::now();
            waker.notify().expect("notify");
            let delivered = waiter.join().expect("join");
            assert_eq!(delivered, 0, "a bare notification carries no events");
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "wakeup was prompt"
            );
        }

        #[test]
        fn writable_interest_and_delete_work() {
            let poller = poller();
            let (a, _b) = UnixStream::pair().expect("pair");
            a.set_nonblocking(true).expect("nonblocking");
            poller.add(&a, Event::writable(3)).expect("add");
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(n, 1, "an idle socket is writable");
            assert_eq!(events[0], Event::writable(3));

            poller.delete(&a).expect("delete");
            assert!(poller.delete(&a).is_err(), "double delete is reported");
            assert!(
                poller.modify(&a, Event::all(3)).is_err(),
                "modifying a deleted source is reported"
            );
        }

        #[test]
        fn double_add_is_rejected() {
            let poller = poller();
            let (a, _b) = UnixStream::pair().expect("pair");
            poller.add(&a, Event::none(1)).expect("add");
            assert!(poller.add(&a, Event::none(2)).is_err());
        }

        #[test]
        fn a_zero_timeout_polls_without_blocking() {
            let poller = poller();
            let (mut a, b) = UnixStream::pair().expect("pair");
            poller.add(&b, Event::readable(9)).expect("add");
            let mut events = Vec::new();
            assert_eq!(
                poller
                    .wait(&mut events, Some(Duration::ZERO))
                    .expect("wait"),
                0
            );
            a.write_all(b"x").expect("write");
            let n = poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("wait");
            assert_eq!((n, events.as_slice()), (1, &[Event::readable(9)][..]));
        }

        #[test]
        fn timeout_expires_without_events() {
            let poller = poller();
            let mut events = Vec::new();
            let start = Instant::now();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(30)))
                .expect("wait");
            assert_eq!(n, 0);
            assert!(start.elapsed() >= Duration::from_millis(25));
        }
    };
}

/// The contract against the platform's [`Poller`].
#[cfg(test)]
mod tests {
    contract_tests!(crate::Poller);

    /// The same contract against the poll(2) backend, which on Linux
    /// serves nothing else.
    #[cfg(target_os = "linux")]
    mod poll_backend {
        contract_tests!(crate::poll::Poller);
    }
}
