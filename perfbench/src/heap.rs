//! A counting global allocator: live heap bytes and their peak since the
//! last reset. Unlike the resident set, the count excludes pages the
//! allocator keeps after a free, so a run's peak does not depend on what
//! ran before it in the same process.
//!
//! Each thread keeps its net allocated bytes in a slot of its own (one
//! cache line, written only by that thread), so threads that allocate at
//! high rates (the async scheduler and worker) never contend. A slot
//! outlives its thread: bytes one thread allocates and another frees
//! still sum to the live total. A thread sums the slots into the peak
//! each time its own count has grown by [`CHECK`] bytes, so the peak is
//! exact to within `CHECK` bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Growth of one thread's count between peak checks, bytes.
pub const CHECK: isize = 64 * 1024;

/// Per-thread slots; threads past the table share slot 0.
const SLOTS: usize = 1024;

/// The system allocator plus the counters. The counters publish no other
/// data, so `Relaxed` suffices.
pub struct Counting;

#[repr(align(64))]
struct Slot(AtomicIsize);

static NET: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static CLAIMED: AtomicUsize = AtomicUsize::new(1);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// This thread's slot (0 until claimed) and its count at the last
    /// peak check.
    static MINE: Cell<(usize, isize)> = const { Cell::new((0, 0)) };
}

fn note(delta: isize) {
    // `try_with` fails only while the thread is being torn down; its
    // last changes then go to the shared slot.
    let check = MINE
        .try_with(|mine| {
            let (mut slot, mut checked) = mine.get();
            if slot == 0 {
                slot = CLAIMED.fetch_add(1, Ordering::Relaxed);
                if slot >= SLOTS {
                    slot = SLOTS; // shared
                }
            }
            let net = if slot == SLOTS {
                NET[0].0.fetch_add(delta, Ordering::Relaxed) + delta
            } else {
                let net = NET[slot].0.load(Ordering::Relaxed) + delta;
                NET[slot].0.store(net, Ordering::Relaxed);
                net
            };
            let due = net - checked >= CHECK;
            if due || net < checked {
                checked = net;
            }
            mine.set((slot, checked));
            due
        })
        .unwrap_or_else(|_| {
            NET[0].0.fetch_add(delta, Ordering::Relaxed);
            false
        });
    if check {
        PEAK.fetch_max(live(), Ordering::Relaxed);
    }
}

/// Live heap bytes summed over every slot.
fn live() -> isize {
    let used = CLAIMED.load(Ordering::Relaxed).min(SLOTS);
    NET[..used]
        .iter()
        .map(|s| s.0.load(Ordering::Relaxed))
        .sum()
}

fn size(n: usize) -> isize {
    isize::try_from(n).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters never
// touch the memory handed out, and `note` does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-size(layout.size()));
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(size(layout.size()));
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Starts a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], MB.
pub fn peak_mb() -> f64 {
    PEAK.fetch_max(live(), Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// A zeroed table of `len` words that lives for the rest of the process.
/// It comes from the system allocator directly, so it stays out of the
/// live-heap count and every peak.
pub fn untracked_table(len: usize) -> &'static mut [u32] {
    assert!(len > 0, "empty table");
    let layout = Layout::array::<u32>(len).expect("table size fits a layout");
    // SAFETY: `layout` has a nonzero size.
    let p = unsafe { System.alloc_zeroed(layout) }.cast::<u32>();
    assert!(!p.is_null(), "out of memory");
    // SAFETY: `p` is non-null, aligned for `u32` and points to `len`
    // zeroed words that nothing else references and nothing ever frees.
    unsafe { std::slice::from_raw_parts_mut(p, len) }
}
