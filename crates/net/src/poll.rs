//! The workspace's one foreign call: `poll(2)`, so a node can wait on all
//! of its sockets and its next timer from a single thread without an
//! external crate.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// Readable (or, on a listener, a connection is waiting).
pub(crate) const POLLIN: i16 = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x4;

/// One entry of the set handed to `poll`: `struct pollfd`, whose layout
/// and whose `POLLIN`/`POLLOUT` values are the same on every unix.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] found the socket readable — or in error
    /// or hung up, which the owner learns by attempting the read.
    pub(crate) fn readable(&self) -> bool {
        self.revents & !POLLOUT != 0
    }

    /// Whether the last [`wait`] found the socket writable.
    pub(crate) fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout_ms` passed,
/// filling in each entry's readiness. An interrupted wait reports nothing
/// ready, like a timeout.
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` structs
    // matching `struct pollfd`, and the length passed is the slice's own,
    // so the kernel reads and writes only memory this call owns for its
    // duration. `poll` retains no pointer after it returns.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
    if n >= 0 {
        return Ok(());
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        for fd in fds {
            fd.revents = 0;
        }
        return Ok(());
    }
    Err(err)
}
