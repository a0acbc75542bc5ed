//! SIGTERM/SIGINT → graceful-shutdown flag, with no libc crate.
//!
//! The handler does the only thing that is async-signal-safe here: one
//! atomic store. The serve command's wait loop polls [`triggered`] and
//! runs the normal shutdown path — acceptor unblocked, shards drain
//! their in-flight connections ([`crate::event`]'s shutdown handling),
//! the write loop flushes the WAL and writes a final checkpoint.
//!
//! `signal(2)` is declared directly (the precedent is the vendored
//! `minipoll`'s `poll(2)` binding): the offline build environment has no
//! libc crate, and the two signal numbers used are stable POSIX values
//! on every platform this serves on.

#![allow(unsafe_code)] // the workspace denies it everywhere else

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static TRIGGERED: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    TRIGGERED.store(true, SeqCst);
}

/// Installs the termination handler for SIGINT and SIGTERM. Idempotent;
/// call once before entering the serve wait loop.
pub fn install() {
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Whether a termination signal has arrived since [`install`].
pub fn triggered() -> bool {
    TRIGGERED.load(SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn raised_sigterm_sets_the_flag() {
        install();
        assert!(!triggered());
        unsafe {
            raise(SIGTERM);
        }
        assert!(triggered());
    }
}
