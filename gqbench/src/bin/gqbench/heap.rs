//! Peak live heap of the benchmark process, counted from outside the
//! crates by wrapping the system allocator.
//!
//! Resident-set peaks of one seed varied by about a fifth between runs
//! (glibc places each short-lived executor thread in whichever arena is
//! free, and freed arena memory stays resident), which hides any memory
//! change smaller than that. Live heap bytes do not depend on arena
//! placement. Each allocation adds to one of [`STRIPES`] counters chosen
//! by the calling thread's stack address, so threads rarely share a cache
//! line; a sampler thread sums the stripes every millisecond and keeps the
//! maximum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const STRIPES: usize = 64;

#[repr(align(64))]
struct Stripe(AtomicI64);

static LIVE: [Stripe; STRIPES] = [const { Stripe(AtomicI64::new(0)) }; STRIPES];

fn account(delta: i64) {
    let probe = 0u8;
    // Thread stacks lie at least 2 MiB apart, so bits above 21 of a stack
    // address spread threads over the stripes.
    let slot = (std::ptr::addr_of!(probe) as usize >> 21) % STRIPES;
    LIVE[slot].0.fetch_add(delta, Ordering::Relaxed);
}

/// The system allocator, counting live bytes.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counting
// touches only static atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            account(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Live heap bytes now.
pub fn live_bytes() -> i64 {
    LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Samples [`live_bytes`] every millisecond until stopped.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<i64>,
}

impl PeakSampler {
    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = live_bytes();
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(live_bytes());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak.max(live_bytes())
        });
        PeakSampler { stop, handle }
    }

    /// Stops sampling and returns the peak in MiB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.handle.join().expect("the heap sampler panicked");
        peak as f64 / (1024.0 * 1024.0)
    }
}
