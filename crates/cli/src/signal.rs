//! SIGINT/SIGTERM-safe shutdown for the `grimp` binary.
//!
//! A hand-rolled `signal(2)` registration (std already links libc, so no
//! new dependency) flips a process-wide [`ShutdownFlag`] that the training
//! loop checks at every epoch boundary. The serve accept loop blocks in
//! `accept`, which the signal does not interrupt (std retries on `EINTR`):
//! the server's waker thread sees the flag within 10 ms and wakes it with a
//! self-connect.
//! The first Ctrl-C asks for a clean stop — checkpoint, impute from the
//! current state (or drain the server), exit with [`EXIT_INTERRUPTED`]; a
//! second signal aborts immediately, because a user pressing it twice
//! means *now*.
//!
//! `grimp serve` additionally registers SIGTERM (the orchestrator's stop
//! signal): the server drains and exits 0, per the usual service
//! convention that a requested, clean termination is a success. The last
//! signal delivered is recorded so the serve command can tell the two
//! apart.
//!
//! The handler body is async-signal-safe: one atomic store, one atomic
//! increment, and on the second request a raw `_exit` (no atexit
//! handlers, no unwinding).

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::OnceLock;

use grimp::ShutdownFlag;

/// POSIX-style exit code for a run interrupted by Ctrl-C that still wrote
/// its imputation (128 + SIGINT).
pub const EXIT_INTERRUPTED: i32 = 130;

/// Exit code for a run that hit its `--deadline` but still wrote its
/// imputation from the epochs that completed.
pub const EXIT_DEADLINE: i32 = 6;

/// Hard-abort exit code for a second SIGTERM (128 + SIGTERM).
pub const EXIT_TERMINATED: i32 = 143;

/// `SIGINT` signal number.
pub const SIGINT: i32 = 2;

/// `SIGKILL` signal number (escalation target for a second signal while
/// supervising: the child is beyond graceful drain at that point).
pub const SIGKILL: i32 = 9;

/// `SIGTERM` signal number.
pub const SIGTERM: i32 = 15;

static FLAG: OnceLock<ShutdownFlag> = OnceLock::new();
static LAST_SIGNAL: AtomicI32 = AtomicI32::new(0);
/// Child pid that shutdown signals are forwarded to (0 = none). The
/// supervisor sets this so SIGTERM/SIGINT reach the serving child — which
/// owns the actual drain — from inside the handler, where the supervisor's
/// main thread may be blocked reading the child's stdout.
static FORWARD_PID: AtomicI32 = AtomicI32::new(0);

/// The process-wide shutdown flag. Clones share one counter, so the copy
/// installed into a [`grimp::GrimpConfig`] sees the handler's requests.
pub fn shutdown_flag() -> ShutdownFlag {
    FLAG.get_or_init(ShutdownFlag::new).clone()
}

/// The signal number that most recently requested shutdown (0 when none
/// has). `grimp serve` maps SIGTERM to exit 0 and SIGINT to exit 130.
pub fn last_signal() -> i32 {
    LAST_SIGNAL.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod sys {
    /// `signal(2)` handler type.
    pub type SigHandler = extern "C" fn(i32);

    extern "C" {
        pub fn signal(signum: i32, handler: SigHandler) -> usize;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn _exit(code: i32) -> !;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(sig: i32) {
    LAST_SIGNAL.store(sig, Ordering::SeqCst);
    // `install` initializes FLAG before registering, so `get` (an atomic
    // load) always finds it; `request` is a single fetch_add. `kill(2)` and
    // `_exit(2)` are both async-signal-safe.
    if let Some(flag) = FLAG.get() {
        let requests = flag.request();
        let pid = FORWARD_PID.load(Ordering::SeqCst);
        if requests >= 2 {
            if pid > 0 {
                // Escalation: the supervised child failed to drain in time
                // (or the operator means *now*); take it down with us.
                unsafe { sys::kill(pid, SIGKILL) };
            }
            let code = if sig == SIGTERM {
                EXIT_TERMINATED
            } else {
                EXIT_INTERRUPTED
            };
            unsafe { sys::_exit(code) }
        }
        if pid > 0 {
            unsafe { sys::kill(pid, sig) };
        }
    }
}

/// Install the SIGINT handler. Call once from `main`, before any work.
pub fn install() {
    let _ = shutdown_flag(); // initialize FLAG before the handler can fire
    #[cfg(unix)]
    unsafe {
        sys::signal(SIGINT, on_signal);
    }
}

/// Additionally route SIGTERM through the same graceful-shutdown path.
/// `grimp serve` calls this so an orchestrator's stop signal drains the
/// server instead of killing it mid-request.
pub fn install_sigterm() {
    let _ = shutdown_flag();
    #[cfg(unix)]
    unsafe {
        sys::signal(SIGTERM, on_signal);
    }
}

/// Forward subsequent shutdown signals to child `pid` (the supervisor's
/// serving child, which owns the drain). Pass 0 to stop forwarding — do so
/// as soon as the child exits, before its pid can be reused.
pub fn forward_signals_to(pid: i32) {
    FORWARD_PID.store(pid, Ordering::SeqCst);
}

/// Send `sig` to `pid`: a thin `kill(2)` wrapper for the chaos crashpoint
/// sweep, which stops the supervised servers it spawns. No-op off unix.
pub fn send_signal(pid: i32, sig: i32) {
    #[cfg(unix)]
    unsafe {
        sys::kill(pid, sig);
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flag_is_shared_across_clones() {
        let a = shutdown_flag();
        let b = shutdown_flag();
        let before = a.requests();
        b.request();
        assert_eq!(a.requests(), before + 1);
    }
}
