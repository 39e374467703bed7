//! A thread-local pool of flat `f64` sample buffers.
//!
//! Every waveform-domain stage used to allocate (and drop) one fresh
//! `Vec<f64>` per `process` call — seven-plus heap round trips per
//! delay measurement, thousands per solve. The pool turns that into a
//! take/recycle cycle: a stage takes a buffer (reusing a previously
//! recycled allocation when one is available), builds its output in it,
//! and the chain driver recycles each intermediate trace as soon as the
//! next stage has consumed it. After the first stage of the first
//! request on a thread, the steady state is **zero allocations per
//! stage**.
//!
//! The pool is thread-local on purpose: no locks on the hot path, no
//! cross-thread buffer migration, and — because a buffer never changes
//! threads — identical numerical results at every thread count (the
//! pool only recycles capacity, never contents; every take clears the
//! buffer before use).
//!
//! Two observability counters feed the bench journal's
//! allocations-per-request dimension:
//!
//! * `waveform.pool_allocs` — takes that had to touch the allocator
//!   (cold pool or first use on a thread);
//! * `waveform.pool_reuses` — takes served from a recycled buffer.

use std::cell::RefCell;
use std::sync::OnceLock;

use vardelay_obs::Counter;

/// Buffers retained per thread. A full characterization sweep keeps at
/// most a handful of traces alive at once; anything beyond this cap is
/// returned to the allocator instead of hoarded.
const MAX_POOLED: usize = 16;

thread_local! {
    static POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// `waveform.pool_allocs`, resolved once: a registry lookup locks the
/// global metric map, and `take` runs several times per stage.
fn allocs() -> &'static Counter {
    static ALLOCS: OnceLock<&'static Counter> = OnceLock::new();
    ALLOCS.get_or_init(|| vardelay_obs::counter("waveform.pool_allocs"))
}

/// `waveform.pool_reuses`, resolved once (see [`allocs`]).
fn reuses() -> &'static Counter {
    static REUSES: OnceLock<&'static Counter> = OnceLock::new();
    REUSES.get_or_init(|| vardelay_obs::counter("waveform.pool_reuses"))
}

/// Takes an empty buffer with at least `capacity` spare room, reusing a
/// recycled allocation when one is available.
pub fn take(capacity: usize) -> Vec<f64> {
    let reused = POOL.with(|p| p.borrow_mut().pop());
    match reused {
        Some(mut buf) => {
            reuses().incr();
            buf.clear();
            buf.reserve(capacity);
            buf
        }
        None => {
            allocs().incr();
            Vec::with_capacity(capacity)
        }
    }
}

/// Takes a buffer holding a copy of `src` — the pooled replacement for
/// `input.samples().to_vec()` / `input.clone()` at the head of a stage.
pub fn take_copy(src: &[f64]) -> Vec<f64> {
    let mut buf = take(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Returns a buffer to the calling thread's pool for reuse. Contents
/// are discarded; only the capacity survives. Buffers beyond the
/// per-thread cap (or with no capacity worth keeping) are dropped.
pub fn recycle(mut buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

/// `(allocs, reuses)` of the process-wide pool counters — allocations
/// that reached the heap versus takes served from recycled buffers.
pub fn pool_stats() -> (u64, u64) {
    (allocs().get(), reuses().get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_capacity_is_reused() {
        // Drain whatever this thread's pool holds so the test owns it.
        while let Some(buf) = POOL.with(|p| p.borrow_mut().pop()) {
            drop(buf);
        }
        let mut a = take(100);
        a.resize(100, 1.5);
        let ptr = a.as_ptr();
        recycle(a);
        let b = take(50);
        assert_eq!(b.as_ptr(), ptr, "recycled buffer must be handed back");
        assert!(b.is_empty(), "takes must start from a cleared buffer");
        assert!(b.capacity() >= 100);
    }

    #[test]
    fn pool_is_bounded() {
        while let Some(buf) = POOL.with(|p| p.borrow_mut().pop()) {
            drop(buf);
        }
        for _ in 0..(MAX_POOLED + 10) {
            recycle(Vec::with_capacity(8));
        }
        let held = POOL.with(|p| p.borrow().len());
        assert!(held <= MAX_POOLED, "pool holds {held}");
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        while let Some(buf) = POOL.with(|p| p.borrow_mut().pop()) {
            drop(buf);
        }
        recycle(Vec::new());
        assert_eq!(POOL.with(|p| p.borrow().len()), 0);
    }
}
