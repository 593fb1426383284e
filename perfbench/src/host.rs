//! Host-side measurement: the reference kernel that host times are
//! normalized by, the counting allocator, and readings from procfs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The reference kernel's nominal duration. Every host time is reported as
/// `raw × NOMINAL_REF_NS / reference time`, i.e. in the units the program
/// would take on a host where the kernel takes exactly this long.
pub const NOMINAL_REF_NS: f64 = 50_000_000.0;

/// Keys the hashing, sorting, ordered-map and arithmetic parts use.
const REF_KEYS: usize = 100_000;
/// Distinct hash-map keys the counting pass folds the keys into.
const REF_BUCKETS: u64 = 25_000;
/// Strings the allocation part formats and sorts.
const REF_STRINGS: usize = 30_000;
/// Size of the DRAM-bound part's pointer-chase buffer.
const CHASE_BYTES: usize = 128 << 20;
/// One chase node per 64-byte cache line.
const LINE_WORDS: usize = 16;
/// Dependent loads per kernel sample.
const CHASE_STEPS: usize = 75_000;

/// A fixed, single-threaded unit of host work whose duration tracks how
/// fast this host runs code like the program's at the moment. It mixes
/// the kinds of work the program does: a hash-map counting pass and a sort
/// of `u64`s (cache-resident), formatting and sorting small strings
/// (allocator-bound), ordered-map inserts and removals, `ln`/`powf`
/// arithmetic, and a pointer chase through a 128 MiB buffer (DRAM-bound).
pub struct RefKernel {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    counts: HashMap<u64, u32>,
    chase: Vec<u32>,
    cursor: usize,
}

impl RefKernel {
    /// Allocates and touches the long-lived buffers, so the resident set
    /// they add stays constant for the whole run.
    pub fn new() -> RefKernel {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys: Vec<u64> = (0..REF_KEYS).map(|_| next()).collect();
        // Sattolo's shuffle gives one cycle through every line, so the
        // chase never settles into a short, cache-resident loop.
        let lines = CHASE_BYTES / 4 / LINE_WORDS;
        let mut order: Vec<u32> = (0..lines as u32).collect();
        for i in (1..lines).rev() {
            let j = (next() % i as u64) as usize;
            order.swap(i, j);
        }
        let mut chase = vec![0u32; lines * LINE_WORDS];
        for (line, &succ) in order.iter().enumerate() {
            chase[line * LINE_WORDS] = succ;
        }
        let mut k = RefKernel {
            scratch: keys.clone(),
            keys,
            counts: HashMap::with_capacity(REF_BUCKETS as usize * 2),
            chase,
            cursor: 0,
        };
        k.sample_ns();
        k
    }

    /// Resident bytes of the kernel's long-lived buffers.
    pub fn resident_bytes(&self) -> u64 {
        ((self.keys.len() + self.scratch.len()) * 8 + self.chase.len() * 4) as u64
    }

    /// Runs the kernel once and returns its wall time in nanoseconds.
    pub fn sample_ns(&mut self) -> u64 {
        let t0 = Instant::now();
        self.counts.clear();
        for &k in &self.keys {
            *self.counts.entry(k % REF_BUCKETS).or_insert(0) += 1;
        }
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();

        let mut strings: Vec<String> = self.keys[..REF_STRINGS]
            .iter()
            .map(|k| format!("t{k:x}"))
            .collect();
        strings.sort_unstable();

        let mut tree = BTreeMap::new();
        let half = self.keys.len() / 2;
        for &k in &self.keys[..half] {
            tree.insert(k % 1_000_003, k);
        }
        for &k in &self.keys[half..] {
            tree.remove(&(k % 1_000_003));
        }

        let mut acc = 0.0f64;
        for &k in &self.keys {
            let f = 1.0 + (k >> 11) as f64 * 1e-15;
            acc += f.ln() * f.powf(1.05);
        }

        let mut line = self.cursor;
        for _ in 0..CHASE_STEPS {
            line = self.chase[line * LINE_WORDS] as usize;
        }
        self.cursor = line;
        black_box((
            self.counts.len(),
            self.scratch[REF_KEYS / 2],
            strings.len(),
            tree.len(),
            acc,
            line,
        ));
        t0.elapsed().as_nanos() as u64
    }
}

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and the bytes it asked
/// for. A `realloc` counts as one allocation of its new size. The counters
/// are statistics that publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees on `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far: `(bytes requested, count)`.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_COUNT.load(Ordering::Relaxed),
    )
}

/// This thread's scheduler accounting from `/proc/thread-self/schedstat`:
/// `(ns on a CPU, ns waiting on a run queue)`. `None` where the kernel
/// does not provide the file.
pub fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn status_bytes(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The filesystem type `dir` lives on, from `/proc/self/mountinfo`: the
/// mount with the longest mount point that prefixes the directory.
pub fn fs_type(dir: &std::path::Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".into())
}
