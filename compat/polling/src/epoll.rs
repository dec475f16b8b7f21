//! The Linux backend: `epoll(7)`, level-triggered, with the oneshot
//! contract kept in user space and the kernel's interest synced lazily.
//!
//! Every registration keeps two masks: `want`, the interest the caller
//! armed, and `kernel`, the mask last handed to `epoll_ctl` (0 = not in
//! the epoll set at all). The invariant is `want ⊆ kernel`:
//!
//! * [`Poller::wait`] delivers only bits in `want`, then clears `want` —
//!   the oneshot disarm, with no syscall;
//! * [`Poller::modify`] writes `want` and calls `epoll_ctl` only when
//!   `want` gains a bit `kernel` lacks;
//! * a reported bit nobody armed (and an error or hang-up on a source
//!   with nothing armed) narrows `kernel` to `want` with one
//!   `epoll_ctl` — removing the source from the set when `want` is
//!   empty, since the kernel reports `EPOLLERR`/`EPOLLHUP` whatever the
//!   mask — and is not delivered.
//!
//! So the reactor's deliver → re-arm-the-same-interest cycle costs one
//! `epoll_wait` per wakeup and no `epoll_ctl`, and a source left
//! disarmed while ready costs at most one extra report.

use crate::{timeout_ms, Event, Source, Waker};
use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `struct epoll_event` from `<sys/epoll.h>`. The kernel ABI packs it on
/// x86-64 only (12 bytes there, 16 elsewhere); a wrong layout corrupts
/// `data` silently.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const _: () = assert!(
    std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
);

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
/// `O_CLOEXEC`, which `EPOLL_CLOEXEC` aliases.
#[cfg(any(target_arch = "sparc", target_arch = "sparc64"))]
const EPOLL_CLOEXEC: c_int = 0x40_0000;
#[cfg(not(any(target_arch = "sparc", target_arch = "sparc64")))]
const EPOLL_CLOEXEC: c_int = 0x8_0000;

/// Events reported per `epoll_wait`; more ready sources wait for the
/// next call (level-triggered, so none is lost).
const BATCH: usize = 256;

extern "C" {
    // Declared here rather than through the `libc` crate, like poll(2)
    // in the portable backend (see compat/README.md).
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// The caller's interest as an epoll mask.
fn mask(interest: Event) -> u32 {
    (if interest.readable { EPOLLIN } else { 0 }) | (if interest.writable { EPOLLOUT } else { 0 })
}

/// One registered source.
#[derive(Clone, Copy)]
struct Interest {
    key: usize,
    /// What the caller armed; cleared on delivery.
    want: u32,
    /// What the epoll set holds for this fd; 0 when it is not in the set.
    kernel: u32,
}

/// A readiness poller over registered file descriptors, backed by
/// `epoll(7)`. See the [crate docs](crate) for the contract.
pub struct Poller {
    epoll: OwnedFd,
    /// Indexed by file descriptor: descriptors are small and dense, so a
    /// lookup is one bounds check.
    registry: Mutex<Vec<Option<Interest>>>,
    /// `epoll_wait`'s output, reused so a wait allocates nothing.
    buffer: Mutex<Vec<EpollEvent>>,
    waker: Waker,
}

impl Poller {
    /// Creates a poller with an empty registry.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flags word and touches no memory
        // of ours.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by epoll_create1, is open, and
        // nothing else owns it; the OwnedFd closes it exactly once.
        let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
        let poller = Poller {
            epoll,
            registry: Mutex::new(Vec::new()),
            buffer: Mutex::new(vec![EpollEvent { events: 0, data: 0 }; BATCH]),
            waker: Waker::new()?,
        };
        poller.ctl(EPOLL_CTL_ADD, poller.waker.fd(), EPOLLIN)?;
        Ok(poller)
    }

    /// One `epoll_ctl` call; the event's `data` is the descriptor.
    fn ctl(&self, op: c_int, fd: RawFd, events: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: fd as u64,
        };
        // SAFETY: `event` is a live, exclusively borrowed epoll_event for
        // the duration of the call (the kernel ignores it for DEL), and
        // epoll_ctl reads only that one record.
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Brings the epoll set's mask for `fd` from `reg.kernel` to `to`.
    fn sync(&self, fd: RawFd, reg: &mut Interest, to: u32) -> io::Result<()> {
        match (reg.kernel, to) {
            (from, to) if from == to => {}
            (0, to) => self.ctl(EPOLL_CTL_ADD, fd, to)?,
            (_, 0) => self.ctl(EPOLL_CTL_DEL, fd, 0)?,
            (_, to) => self.ctl(EPOLL_CTL_MOD, fd, to)?,
        }
        reg.kernel = to;
        Ok(())
    }

    /// Registers `source` with an initial interest. Re-adding an already
    /// registered descriptor is an error (upstream parity).
    pub fn add(&self, source: impl Source, interest: Event) -> io::Result<()> {
        let fd = source.raw();
        let slot = usize::try_from(fd).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("fd {fd} is negative"))
        })?;
        let mut registry = self.registry.lock().expect("poller registry");
        if registry.len() <= slot {
            registry.resize(slot + 1, None);
        }
        if registry[slot].is_some() {
            return Err(crate::already_registered(fd));
        }
        let want = mask(interest);
        let mut reg = Interest {
            key: interest.key,
            want,
            kernel: 0,
        };
        self.sync(fd, &mut reg, want)?;
        registry[slot] = Some(reg);
        Ok(())
    }

    /// Replaces the interest (and key) of a registered `source` — the
    /// re-arm half of the oneshot contract. Costs a syscall only when it
    /// widens the interest beyond what the epoll set already holds.
    pub fn modify(&self, source: impl Source, interest: Event) -> io::Result<()> {
        let fd = source.raw();
        let mut registry = self.registry.lock().expect("poller registry");
        let reg = usize::try_from(fd)
            .ok()
            .and_then(|slot| registry.get_mut(slot))
            .and_then(Option::as_mut)
            .ok_or_else(|| crate::not_registered(fd))?;
        let want = mask(interest);
        let kernel = reg.kernel;
        if want & !kernel != 0 {
            self.sync(fd, reg, kernel | want)?;
        }
        reg.key = interest.key;
        reg.want = want;
        Ok(())
    }

    /// Deregisters `source`; its pending events are discarded.
    pub fn delete(&self, source: impl Source) -> io::Result<()> {
        let fd = source.raw();
        let mut registry = self.registry.lock().expect("poller registry");
        let reg = usize::try_from(fd)
            .ok()
            .and_then(|slot| registry.get_mut(slot))
            .and_then(Option::take)
            .ok_or_else(|| crate::not_registered(fd))?;
        if reg.kernel != 0 {
            // A descriptor closed before its deletion has already left the
            // set with its last reference; the registration is gone either
            // way.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0);
        }
        Ok(())
    }

    /// Blocks until at least one registered source is ready, the timeout
    /// elapses, or [`Poller::notify`] is called; appends the delivered
    /// events to `events` and returns how many were appended.
    ///
    /// A return of `Ok(0)` is a timeout or a bare notification — both
    /// legitimate, callers just loop. Delivered sources have their
    /// interest cleared (oneshot) and must be re-armed with
    /// [`Poller::modify`]. Error conditions on a source (`EPOLLERR`,
    /// `EPOLLHUP`) are delivered as ready-for-everything the caller asked
    /// about, so the next read/write observes the failure.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let start = Instant::now();
        let mut remaining = timeout;
        let mut buffer = self.buffer.lock().expect("poller buffer");
        loop {
            // SAFETY: `buffer` is a live, exclusively borrowed vector of
            // `#[repr(C)]` epoll_event records; its length is passed as
            // `maxevents`, and epoll_wait writes at most that many.
            let rc = unsafe {
                epoll_wait(
                    self.epoll.as_raw_fd(),
                    buffer.as_mut_ptr(),
                    buffer.len() as c_int,
                    timeout_ms(remaining),
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            if rc == 0 {
                return Ok(0);
            }
            let (delivered, woken) = self.deliver(&buffer[..rc as usize], events)?;
            if delivered > 0 || woken {
                return Ok(delivered);
            }
            // Every report was filtered out: wait again, for what is left
            // of the caller's timeout rather than a fresh one.
            if let Some(t) = timeout {
                match t.checked_sub(start.elapsed()) {
                    Some(left) if !left.is_zero() => remaining = Some(left),
                    _ => return Ok(0),
                }
            }
        }
    }

    /// Turns one `epoll_wait` batch into events: delivers the armed bits
    /// and disarms them, narrows the kernel mask of sources reported for
    /// bits nobody armed. Returns how many events were appended and
    /// whether the waker fired.
    fn deliver(&self, batch: &[EpollEvent], events: &mut Vec<Event>) -> io::Result<(usize, bool)> {
        let mut delivered = 0;
        let mut woken = false;
        let mut registry = self.registry.lock().expect("poller registry");
        for &EpollEvent { events: bits, data } in batch {
            let fd = data as RawFd;
            if fd == self.waker.fd() {
                self.waker.drain();
                woken = true;
                continue;
            }
            // The source may have been deleted while epoll_wait ran.
            let Some(reg) = registry.get_mut(data as usize).and_then(Option::as_mut) else {
                continue;
            };
            let failed = bits & (EPOLLERR | EPOLLHUP) != 0;
            let ready = if failed { reg.want } else { bits & reg.want };
            let unarmed =
                (bits & (EPOLLIN | EPOLLOUT) & !reg.want != 0) || (failed && reg.want == 0);
            if unarmed {
                let want = reg.want;
                self.sync(fd, reg, want)?;
            }
            if ready == 0 {
                continue;
            }
            events.push(Event {
                key: reg.key,
                readable: ready & EPOLLIN != 0,
                writable: ready & EPOLLOUT != 0,
            });
            reg.want = 0;
            delivered += 1;
        }
        Ok((delivered, woken))
    }

    /// Wakes a concurrent [`Poller::wait`] call (it returns with no
    /// events). Callable from any thread; coalesces.
    pub fn notify(&self) -> io::Result<()> {
        self.waker.notify()
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fds = self
            .registry
            .lock()
            .map(|r| r.iter().flatten().count())
            .unwrap_or(0);
        f.debug_struct("Poller").field("sources", &fds).finish()
    }
}
