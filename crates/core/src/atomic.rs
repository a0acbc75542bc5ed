//! Atomic `f64` built on `AtomicU64` bit-casting.
//!
//! §4.2 of the paper requires "an atomic operation that performs the
//! addition to a 32/64 bit address atomically and returns the before-value"
//! — on architectures without a native float fetch-add it is built from
//! compare-and-swap, which is exactly what [`AtomicF64::fetch_add`] does.
//! The returned before-value is the by-product that makes *local duplicate
//! detection* possible.
//!
//! All operations use `Relaxed` ordering: the values are pure data and every
//! cross-thread hand-off in the push kernels happens across the join of a
//! `thread::scope` (see [`crate::fanout`]), which already establishes the
//! necessary happens-before edges.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` that supports atomic read-modify-write.
#[derive(Debug, Default)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a new atomic with the given value.
    #[inline]
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Atomically loads the value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Atomically stores `v`.
    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically replaces the value with `v`, returning the previous value.
    #[inline]
    pub fn swap(&self, v: f64) -> f64 {
        f64::from_bits(self.0.swap(v.to_bits(), Ordering::Relaxed))
    }

    /// Atomically adds `delta`, returning the **before-value** (the paper's
    /// `atomicAdd`, Algorithm 4 line 14). Implemented as a CAS loop.
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }

    /// [`AtomicF64::fetch_add`] that also counts CAS retries (for the
    /// contention profiling of Figure 9's substitute metrics).
    #[inline]
    pub fn fetch_add_counting(&self, delta: f64, retries: &mut u64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => {
                    *retries += 1;
                    cur = actual;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_store_swap() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
        assert_eq!(a.swap(7.0), -2.25);
        assert_eq!(a.load(), 7.0);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(AtomicF64::default().load(), 0.0);
    }

    #[test]
    fn fetch_add_returns_before_value() {
        let a = AtomicF64::new(10.0);
        assert_eq!(a.fetch_add(2.5), 10.0);
        assert_eq!(a.fetch_add(-1.0), 12.5);
        assert_eq!(a.load(), 11.5);
    }

    #[test]
    fn fetch_add_handles_special_values() {
        let a = AtomicF64::new(0.0);
        a.fetch_add(f64::MIN_POSITIVE);
        assert_eq!(a.load(), f64::MIN_POSITIVE);
        let b = AtomicF64::new(-0.0);
        assert_eq!(b.fetch_add(0.0), -0.0);
    }

    #[test]
    fn concurrent_adds_are_lossless() {
        // 8 threads × 10_000 increments of 1.0 must sum exactly (integers
        // up to 80_000 are exactly representable).
        let a = Arc::new(AtomicF64::new(0.0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    a.fetch_add(1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(), 80_000.0);
    }

    #[test]
    fn concurrent_before_values_are_unique() {
        // Every fetch_add(1.0) must observe a distinct before-value: that
        // uniqueness is precisely what local duplicate detection relies on.
        let a = Arc::new(AtomicF64::new(0.0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                (0..5_000).map(|_| a.fetch_add(1.0)).collect::<Vec<f64>>()
            }));
        }
        let mut seen: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        seen.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn counting_variant_matches() {
        let a = AtomicF64::new(3.0);
        let mut retries = 0;
        assert_eq!(a.fetch_add_counting(4.0, &mut retries), 3.0);
        assert_eq!(a.load(), 7.0);
        // Uncontended: no retries.
        assert_eq!(retries, 0);
    }
}
