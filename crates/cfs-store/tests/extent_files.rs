//! Extent files against their index across a crash (§2.2.5).
//!
//! An extent's bytes are in a file, its acknowledged watermark is a row on
//! the engine, and the file is written first. The cases here put the two
//! out of step the way a crash can — or a way nothing should — and reopen:
//!
//! * Torn extent tail: an append reached the file but not the index. The
//!   tail is never served, never summed, and the next append overwrites it.
//! * A file without a row (crash inside `create_extent`) is swept.
//! * A row without its bytes (file missing or short) is reported as
//!   `Corrupt`, naming the partition and the extent.

use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cfs_kvwal::{LsmEngine, LsmOptions};
use cfs_store::{ExtentStore, StorePersist};
use cfs_types::crc::crc32;
use cfs_types::testutil::TempDir;
use cfs_types::{CfsError, ExtentId};

const STORE: u64 = 42;

fn persist(dir: &Path) -> Arc<StorePersist> {
    let engine = LsmEngine::open(dir, LsmOptions::default()).unwrap();
    Arc::new(StorePersist::new(Arc::new(engine), STORE))
}

fn restore(dir: &Path) -> cfs_types::Result<ExtentStore> {
    ExtentStore::restore(1 << 20, 0, persist(dir))
}

fn extent_file(dir: &Path, extent: ExtentId) -> PathBuf {
    dir.join("extents")
        .join(STORE.to_string())
        .join(extent.raw().to_string())
}

/// Between 1 and `max - 1` random bytes.
fn random_bytes(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(1..max);
    (0..len).map(|_| rng.gen_range(0..255u8)).collect()
}

/// Acknowledge some appends, then write garbage past the watermark
/// straight into the file — the crash between `pwrite` and the watermark
/// row — and reopen.
fn check_torn_extent_tail(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = TempDir::new("torntail").unwrap();
    let mut acked = Vec::new();
    let extent;
    {
        let mut st = ExtentStore::new_persistent(1 << 20, 0, persist(dir.path())).unwrap();
        extent = st.create_extent().unwrap();
        for _ in 0..rng.gen_range(1..4u32) {
            let chunk = random_bytes(&mut rng, 9000);
            st.append(extent, acked.len() as u64, &chunk).unwrap();
            acked.extend_from_slice(&chunk);
        }
    }
    let torn = random_bytes(&mut rng, 9000);
    std::fs::File::options()
        .write(true)
        .open(extent_file(dir.path(), extent))
        .unwrap()
        .write_all_at(&torn, acked.len() as u64)
        .unwrap();

    let mut st = restore(dir.path()).unwrap();
    let watermark = acked.len() as u64;
    assert_eq!(st.extent_size(extent).unwrap(), watermark, "seed {seed}");
    assert_eq!(
        st.read(extent, 0, acked.len() + torn.len()).unwrap(),
        acked,
        "seed {seed}: read clamps at the watermark"
    );
    assert!(st.read(extent, watermark, 64).unwrap().is_empty());
    assert_eq!(st.extent_crc(extent).unwrap(), crc32(&acked), "seed {seed}");

    // The next append lands at the watermark, over the torn bytes, whether
    // it is shorter or longer than they were.
    let next = random_bytes(&mut rng, 12_000);
    st.append(extent, watermark, &next).unwrap();
    acked.extend_from_slice(&next);
    assert_eq!(st.read(extent, 0, usize::MAX).unwrap(), acked);
    assert_eq!(st.extent_crc(extent).unwrap(), crc32(&acked));
    drop(st);
    let mut st = restore(dir.path()).unwrap();
    assert_eq!(st.read(extent, 0, usize::MAX).unwrap(), acked);
    assert_eq!(st.extent_crc(extent).unwrap(), crc32(&acked));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_torn_extent_tail_is_never_served(seed in any::<u64>()) {
        check_torn_extent_tail(seed);
    }
}

/// The fixed seed set CI runs beside the power-loss chaos seeds.
#[test]
fn torn_extent_tail_on_fixed_seeds() {
    for seed in [1, 2, 3, 5, 8, 13, 21, 34] {
        check_torn_extent_tail(seed);
    }
}

#[test]
fn restore_sweeps_a_file_without_a_row() {
    let dir = TempDir::new("torntail").unwrap();
    let extent;
    {
        let mut st = ExtentStore::new_persistent(1 << 20, 0, persist(dir.path())).unwrap();
        extent = st.create_extent().unwrap();
        st.append(extent, 0, b"indexed").unwrap();
    }
    // A crash inside `create_extent`: the file exists, its row never
    // committed.
    let orphan = extent_file(dir.path(), ExtentId(77));
    std::fs::write(&orphan, b"never acknowledged").unwrap();

    let mut st = restore(dir.path()).unwrap();
    assert!(!orphan.exists(), "unindexed file swept");
    assert!(!st.has_extent(ExtentId(77)));
    assert_eq!(&st.read(extent, 0, 7).unwrap(), b"indexed");
    // The id is free: the replayed create starts from an empty file.
    st.create_extent_with_id(ExtentId(77)).unwrap();
    assert_eq!(st.extent_size(ExtentId(77)).unwrap(), 0);
}

#[test]
fn restore_reports_a_row_without_its_bytes_as_corrupt() {
    let dir = TempDir::new("torntail").unwrap();
    let extent;
    {
        let mut st = ExtentStore::new_persistent(1 << 20, 0, persist(dir.path())).unwrap();
        extent = st.create_extent().unwrap();
        st.append(extent, 0, &[9u8; 5000]).unwrap();
    }
    let expect_corrupt = |what: &str| match restore(dir.path()) {
        Err(CfsError::Corrupt(msg)) => {
            assert!(msg.contains("p42") && msg.contains("e1"), "{what}: {msg}");
        }
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    };
    let path = extent_file(dir.path(), extent);
    std::fs::File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(4999)
        .unwrap();
    expect_corrupt("file one byte short of its watermark");
    std::fs::remove_file(&path).unwrap();
    expect_corrupt("file missing");
}
