//! Sampled structured tracing: a bounded ring of JSON-lines events.
//!
//! Producers decide *whether* to trace via [`Sampler`] (every Nth
//! occurrence; 0 disables) so untraced operations pay one relaxed
//! fetch_add and nothing else. Traced operations format one JSON line
//! and push it into the [`TraceRing`], which evicts the oldest line
//! when full — the ring is a flight recorder, not a log shipper.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Every-Nth sampler. `every == 0` samples nothing; `every == 1`
/// samples everything.
pub struct Sampler {
    every: u64,
    n: AtomicU64,
}

impl Sampler {
    pub fn new(every: u64) -> Self {
        Sampler { every, n: AtomicU64::new(0) }
    }

    pub fn enabled(&self) -> bool {
        self.every != 0
    }

    /// True when this occurrence should be traced.
    #[inline]
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.n.fetch_add(1, Relaxed).is_multiple_of(self.every)
    }
}

/// Fixed-capacity ring of trace lines (newest kept, oldest dropped).
pub struct TraceRing {
    cap: usize,
    lines: Mutex<VecDeque<String>>,
    dropped: AtomicU64,
}

impl TraceRing {
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            lines: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn push(&self, line: String) {
        let mut lines = self.lines.lock().unwrap();
        if lines.len() == self.cap {
            lines.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        lines.push_back(line);
    }

    pub fn len(&self) -> usize {
        self.lines.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to make room since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// The buffered events, oldest first, as one JSON-lines string.
    pub fn dump(&self) -> String {
        self.dump_with(usize::MAX, |_| true)
    }

    /// The newest `limit` events whose line passes `keep`, oldest
    /// first. The predicate sees the raw JSON line — callers own the
    /// schema, so e.g. a kind filter is `|l| l.contains("\"event\":\"slide\"")`.
    pub fn dump_with(&self, limit: usize, mut keep: impl FnMut(&str) -> bool) -> String {
        let lines = self.lines.lock().unwrap();
        // Walk newest→oldest so `limit` keeps the most recent matches,
        // then emit in chronological order.
        let mut kept: Vec<&String> = Vec::new();
        for l in lines.iter().rev() {
            if kept.len() >= limit {
                break;
            }
            if keep(l) {
                kept.push(l);
            }
        }
        let mut out = String::with_capacity(kept.iter().map(|l| l.len() + 1).sum());
        for l in kept.iter().rev() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_every_n() {
        let s = Sampler::new(3);
        let hits: Vec<bool> = (0..9).map(|_| s.sample()).collect();
        assert_eq!(hits, [true, false, false, true, false, false, true, false, false]);
        let off = Sampler::new(0);
        assert!(!off.enabled());
        assert!((0..10).all(|_| !off.sample()));
    }

    #[test]
    fn ring_evicts_oldest() {
        let r = TraceRing::new(3);
        for i in 0..5 {
            r.push(format!("{{\"i\":{i}}}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.dump(), "{\"i\":2}\n{\"i\":3}\n{\"i\":4}\n");
    }

    #[test]
    fn filtered_dump_keeps_newest_matches_in_order() {
        let r = TraceRing::new(8);
        for i in 0..6 {
            let kind = if i % 2 == 0 { "request" } else { "slide" };
            r.push(format!("{{\"event\":\"{kind}\",\"i\":{i}}}"));
        }
        // Newest 2 requests, chronological.
        let out = r.dump_with(2, |l| l.contains("\"event\":\"request\""));
        assert_eq!(out, "{\"event\":\"request\",\"i\":2}\n{\"event\":\"request\",\"i\":4}\n");
        // Limit only.
        let out = r.dump_with(1, |_| true);
        assert_eq!(out, "{\"event\":\"slide\",\"i\":5}\n");
        // No matches → empty string.
        assert_eq!(r.dump_with(10, |l| l.contains("nope")), "");
        // dump() delegates through the unfiltered path.
        assert_eq!(r.dump().lines().count(), 6);
    }
}
