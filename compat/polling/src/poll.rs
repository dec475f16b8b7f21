//! The portable `poll(2)` backend: the registry is rebuilt into a
//! `pollfd` array on every wait, so a wait costs O(registered) in user
//! space and in the kernel. It needs no OS-specific registration state.
//! [`crate::Poller`] on every platform but Linux; on Linux it is compiled
//! only for the shared contract tests.

use crate::{timeout_ms, Event, Source, Waker};
use std::collections::HashMap;
use std::io;
use std::os::fd::RawFd;
use std::sync::Mutex;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`, as the kernel ABI defines it.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    // std links the platform libc, so the symbol is always present;
    // declaring it here avoids depending on the `libc` crate (the build
    // environment has no registry access — see compat/README.md).
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Calls `poll(2)`, retrying on `EINTR`.
fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records for the duration of the call, the
        // length is passed alongside the pointer, and poll(2) writes only
        // the `revents` fields within that slice.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A readiness poller over registered file descriptors, backed by
/// `poll(2)`. See the [crate docs](crate) for the contract.
pub struct Poller {
    registry: Mutex<HashMap<RawFd, Event>>,
    waker: Waker,
}

impl Poller {
    /// Creates a poller with an empty registry.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            registry: Mutex::new(HashMap::new()),
            waker: Waker::new()?,
        })
    }

    /// Registers `source` with an initial interest. Re-adding an already
    /// registered descriptor is an error (upstream parity).
    pub fn add(&self, source: impl Source, interest: Event) -> io::Result<()> {
        let fd = source.raw();
        let mut registry = self.registry.lock().expect("poller registry");
        if registry.contains_key(&fd) {
            return Err(crate::already_registered(fd));
        }
        registry.insert(fd, interest);
        Ok(())
    }

    /// Replaces the interest (and key) of a registered `source` — the
    /// re-arm half of the oneshot contract.
    pub fn modify(&self, source: impl Source, interest: Event) -> io::Result<()> {
        let fd = source.raw();
        let mut registry = self.registry.lock().expect("poller registry");
        let reg = registry
            .get_mut(&fd)
            .ok_or_else(|| crate::not_registered(fd))?;
        *reg = interest;
        Ok(())
    }

    /// Deregisters `source`; its pending events are discarded.
    pub fn delete(&self, source: impl Source) -> io::Result<()> {
        let fd = source.raw();
        self.registry
            .lock()
            .expect("poller registry")
            .remove(&fd)
            .map(|_| ())
            .ok_or_else(|| crate::not_registered(fd))
    }

    /// Blocks until at least one registered source is ready, the timeout
    /// elapses, or [`Poller::notify`] is called; appends the delivered
    /// events to `events` and returns how many were appended.
    ///
    /// A return of `Ok(0)` is a timeout or a bare notification — both
    /// legitimate, callers just loop. Delivered sources have their
    /// interest cleared (oneshot) and must be re-armed with
    /// [`Poller::modify`]. Error conditions on a source (`POLLERR`,
    /// `POLLHUP`, `POLLNVAL`) are delivered as ready-for-everything the
    /// caller asked about, so the next read/write observes the failure.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let mut fds: Vec<PollFd> = Vec::new();
        fds.push(PollFd {
            fd: self.waker.fd(),
            events: POLLIN,
            revents: 0,
        });
        {
            let registry = self.registry.lock().expect("poller registry");
            fds.reserve(registry.len());
            for (&fd, reg) in registry.iter() {
                let mut mask = 0i16;
                if reg.readable {
                    mask |= POLLIN;
                }
                if reg.writable {
                    mask |= POLLOUT;
                }
                if mask != 0 {
                    fds.push(PollFd {
                        fd,
                        events: mask,
                        revents: 0,
                    });
                }
            }
        }

        let ready = sys_poll(&mut fds, timeout_ms(timeout))?;
        if ready == 0 {
            return Ok(0);
        }
        if fds[0].revents != 0 {
            self.waker.drain();
        }

        let mut delivered = 0;
        let mut registry = self.registry.lock().expect("poller registry");
        for pfd in &fds[1..] {
            if pfd.revents == 0 {
                continue;
            }
            // The source may have been deleted while poll(2) ran.
            let Some(reg) = registry.get_mut(&pfd.fd) else {
                continue;
            };
            let failed = pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
            let event = Event {
                key: reg.key,
                readable: reg.readable && (pfd.revents & POLLIN != 0 || failed),
                writable: reg.writable && (pfd.revents & POLLOUT != 0 || failed),
            };
            if !event.readable && !event.writable {
                continue;
            }
            // Oneshot: disarm until the caller re-arms via modify().
            reg.readable = false;
            reg.writable = false;
            events.push(event);
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Wakes a concurrent [`Poller::wait`] call (it returns with no
    /// events). Callable from any thread; coalesces.
    pub fn notify(&self) -> io::Result<()> {
        self.waker.notify()
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fds = self.registry.lock().map(|r| r.len()).unwrap_or(0);
        f.debug_struct("Poller").field("sources", &fds).finish()
    }
}
