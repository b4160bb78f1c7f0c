//! Allocation budget of the read path (DESIGN §5, §13). A counting global
//! allocator sees every heap byte the in-process stack allocates — client,
//! fabric and data node alike (the stack runs no threads of its own).
//!
//! A read should allocate the bytes it fetches (the data node's read
//! buffer, which travels to the client as the reply and is cached as
//! slices of it) plus the bytes it returns (the caller's `Vec`), and
//! little else: every extra copy of the payload shows up here as a
//! multiple of the read size.
//!
//! What a read leaves behind is bounded too: the block cache holds at most
//! its capacity in blocks, plus what those blocks keep alive of the replies
//! they were sliced from.
//!
//! One `#[test]` on purpose: the counters are process-wide, and the
//! harness runs the tests of one binary in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cfs::{ClientOptions, Cluster, ClusterBuilder, FileHandle};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are only bumped on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    /// A reallocation counts as a fresh allocation of the new size (it may
    /// move and copy the old bytes) and a free of the old one.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        FREED.fetch_add(layout.size() as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
/// Allowed overhead over the payload bytes a read must allocate.
const SLACK: f64 = 1.05;
/// Allowed bookkeeping of one small read (its request, route and reply
/// framing), over the payload bytes.
const REQUEST_BYTES: f64 = 1024.0;

/// `f`'s value, with the allocations and bytes made while it runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let out = f();
    (out, ALLOCS.load(Relaxed) - a0, BYTES.load(Relaxed) - b0)
}

/// Heap bytes allocated and not yet freed.
fn live() -> u64 {
    BYTES.load(Relaxed) - FREED.load(Relaxed)
}

/// Bytes the data nodes' extent stores returned so far.
fn fetched(cluster: &Cluster) -> u64 {
    cluster.metrics_snapshot().counter("store.bytes_read")
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

#[test]
fn read_path_allocates_what_it_fetches_and_returns() {
    let cluster = ClusterBuilder::new().build().unwrap();
    cluster.create_volume("alloc", 1, 4).unwrap();
    let block = cluster.config().packet_size;
    let content = payload(16 * MIB);
    let writer = cluster.mount("alloc").unwrap();
    writer.create(writer.root(), "seq").unwrap();
    let mut fh = writer.open(writer.root(), "seq").unwrap();
    for chunk in content.chunks(MIB) {
        writer.write(&mut fh, chunk).unwrap();
    }
    writer.fsync(&mut fh).unwrap();

    // Bound 1: a cold sequential scan in 1 MiB reads (cache on, default
    // options, readahead included).
    let cold = cluster.mount("alloc").unwrap();
    let rfh: FileHandle = cold.open(cold.root(), "seq").unwrap();
    let before = fetched(&cluster);
    let (same, allocs, bytes) = counted(|| {
        content
            .chunks(MIB)
            .enumerate()
            .all(|(i, want)| cold.read_at(&rfh, (i * MIB) as u64, MIB).unwrap() == want)
    });
    assert!(same, "sequential scan reads back what was written");
    let fetched_bytes = fetched(&cluster) - before;
    let returned = content.len() as u64;
    assert_eq!(fetched_bytes, returned, "each byte is fetched once");
    let budget = SLACK * (fetched_bytes + returned) as f64;
    println!(
        "cold 16 x 1 MiB scan: {allocs} allocations, {bytes} B \
         (fetched {fetched_bytes} B + returned {returned} B; budget {budget:.0} B)"
    );
    assert!(
        bytes as f64 <= budget,
        "cold scan allocated {bytes} B, budget {budget:.0} B: \
         the payload is copied more than once"
    );

    // Bound 2: one 4 KiB read that misses the cache. A first read warms
    // the mount's routes; the measured one lands far from it, so it is
    // not sequential and fetches exactly its 4 KiB.
    let rand = cluster.mount("alloc").unwrap();
    let rfh = rand.open(rand.root(), "seq").unwrap();
    rand.read_at(&rfh, 0, 4 * KIB).unwrap();
    let at = 9 * MIB + 5 * KIB;
    let before = fetched(&cluster);
    let (got, allocs, bytes) = counted(|| rand.read_at(&rfh, at as u64, 4 * KIB).unwrap());
    assert_eq!(got, &content[at..at + 4 * KIB]);
    assert_eq!(fetched(&cluster) - before, 4 * KIB as u64, "4 KiB fetched");
    let budget = SLACK * (4 * KIB + 4 * KIB) as f64 + REQUEST_BYTES;
    println!("4 KiB cache-miss read: {allocs} allocations, {bytes} B (budget {budget:.0} B)");
    assert!(
        bytes as f64 <= budget,
        "4 KiB miss allocated {bytes} B, budget {budget:.0} B"
    );

    // Bound 3: a read larger than the cache leaves no more than the cache's
    // capacity behind, however large its replies (here a 2.5 MiB span: 16
    // demanded blocks and 4 read ahead). A warm-up 4 KiB read far away
    // first caches the routes; it covers no full block, so it caches none.
    let cap = 8;
    let small = cluster
        .mount_with_options(
            "alloc",
            ClientOptions {
                read_cache_capacity: cap,
                ..ClientOptions::default()
            },
        )
        .unwrap();
    let sfh = small.open(small.root(), "seq").unwrap();
    small.read_at(&sfh, 15 * MIB as u64, 4 * KIB).unwrap();
    let before = live();
    let scan = 2 * cap * block as usize;
    assert_eq!(small.read_at(&sfh, 0, scan).unwrap(), &content[..scan]);
    let retained = live() - before;
    let budget = SLACK * (cap as u64 * block) as f64;
    println!("cold read of 2 x the cache ({scan} B): {retained} B retained (budget {budget:.0} B)");
    assert!(
        retained as f64 <= budget,
        "a read of 2 x the cache retained {retained} B, budget {budget:.0} B: \
         cached blocks pin a reply larger than the cache"
    );

    // Reported, not bounded: one cold lookup + stat, the metadata read of
    // the `meta_mdtest` workload.
    let meta = cluster.mount("alloc").unwrap();
    let (ino, allocs, bytes) = counted(|| {
        let dentry = meta.lookup(meta.root(), "seq").unwrap();
        meta.stat(dentry.inode).unwrap().id
    });
    assert_eq!(ino, rfh.ino());
    println!("cold lookup + stat: {allocs} allocations, {bytes} B");
}
