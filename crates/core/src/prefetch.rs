//! The one prefetch hint of the push kernels (see "Latency hiding" in
//! [`crate::par`]).
//!
//! A prefetch asks the CPU to start loading a cache line now, so that the
//! load which needs it later finds it in cache. It is only a hint: it
//! reads nothing into the program, writes nothing and never faults, so a
//! kernel that issues one computes the same bits as a kernel that does
//! not. The helper takes a reference, so every address it is given is
//! valid anyway. It mirrors the unstable `std::hint::prefetch_read`, and
//! becomes a one-line safe call once that API is stable.

#![allow(unsafe_code)] // the one intrinsic call below; see the module doc

/// Hints that the cache line holding `x` is read soon, into every cache
/// level. On x86-64 this is `prefetcht0`; on any other target it does
/// nothing.
#[inline(always)]
pub(crate) fn prefetch<T>(x: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is a hint that neither faults nor writes,
        // whatever the address; this one comes from a live reference.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((x as *const T).cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = x;
}
