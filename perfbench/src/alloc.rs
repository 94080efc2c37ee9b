//! A switchable counting allocator for the per-layer `*.peak_mb`
//! numbers.
//!
//! It is the same idea as `CountingAlloc` in `crates/bench`, with one
//! difference: counting is off unless a traced layer span has switched
//! it on. An always-on counter puts two shared atomic updates on every
//! allocation of the untraced passes, and at two threads the bouncing
//! cache line would slow exactly the scans the end-to-end metrics time.
//! Switched off, the cost is one relaxed load of a line that is never
//! written while the untraced passes run.
//!
//! Because counting starts mid-run, blocks allocated before
//! [`start`] may be freed while counting; the counter is therefore a
//! signed *net* growth over the live size at [`start`], and [`stop`]
//! returns its high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Register with `#[global_allocator]`; see the module docs.
pub struct LayerAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    let now = NET.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    NET.fetch_sub(bytes as isize, Ordering::Relaxed);
}

/// Starts counting from zero net growth.
pub fn start() {
    NET.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the peak net growth in bytes since
/// [`start`].
pub fn stop() -> u64 {
    ON.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counters are plain statistics that no allocation decision reads.
unsafe impl GlobalAlloc for LayerAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            shrink(layout.size());
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}
