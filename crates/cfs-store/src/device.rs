//! Block devices: the sparse-file abstraction under each extent.
//!
//! A [`BlockDevice`] behaves like a sparse file on a filesystem that
//! supports `fallocate(FALLOC_FL_PUNCH_HOLE)`: bytes can be written at any
//! offset, unwritten/punched ranges read back as zeros, and *physical*
//! allocation is tracked at block granularity so hole punching visibly
//! returns space (the paper's small-file deletion path, §2.2.3).
//!
//! There are two devices. [`MemDevice`] is a map of 4 KB pages: the
//! reference model, gone with the process. [`FileDevice`] is what the paper
//! runs on (§2.2.1): one sparse local file per extent, `pwrite`/`pread` in
//! place, real `fallocate` punch-hole. Its `allocated_bytes` is the same
//! O(1) block bookkeeping as the model's — for one sequence of calls both
//! report the same number — never a `stat`.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use cfs_types::{CfsError, ExtentId, Result};

use crate::persist::StorePersist;

/// Allocation granularity, matching a typical filesystem block.
pub const BLOCK_SIZE: u64 = 4096;

/// Sparse, hole-punchable byte store.
pub trait BlockDevice: Send {
    /// Write `data` at `offset`, allocating blocks as needed.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()>;

    /// Fill `buf` with the bytes at `offset`. Holes and never-written
    /// ranges read as zeros.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Deallocate the byte range `[offset, offset + len)`. Whole blocks
    /// inside the range are freed; partial blocks at the edges are zeroed
    /// in place (exactly `fallocate(FALLOC_FL_PUNCH_HOLE)` semantics).
    fn punch_hole(&mut self, offset: u64, len: u64) -> Result<()>;

    /// Bytes physically allocated (block-granular), the analog of
    /// `stat.st_blocks * 512`.
    fn allocated_bytes(&self) -> u64;
}

/// `offset + len`, or `InvalidArgument` when the range wraps.
fn punch_end(offset: u64, len: u64) -> Result<u64> {
    offset
        .checked_add(len)
        .ok_or_else(|| CfsError::InvalidArgument("punch range overflow".into()))
}

/// In-memory sparse device: a map from block index to a 4 KB page.
#[derive(Debug, Default)]
pub struct MemDevice {
    pages: HashMap<u64, Box<[u8]>>,
}

impl MemDevice {
    /// Empty device.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_mut(&mut self, block: u64) -> &mut [u8] {
        self.pages
            .entry(block)
            .or_insert_with(|| vec![0u8; BLOCK_SIZE as usize].into_boxed_slice())
    }
}

impl BlockDevice for MemDevice {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let block = abs / BLOCK_SIZE;
            let in_block = (abs % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - in_block).min(data.len() - pos);
            self.page_mut(block)[in_block..in_block + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let block = abs / BLOCK_SIZE;
            let in_block = (abs % BLOCK_SIZE) as usize;
            let n = (BLOCK_SIZE as usize - in_block).min(buf.len() - pos);
            match self.pages.get(&block) {
                Some(page) => buf[pos..pos + n].copy_from_slice(&page[in_block..in_block + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
        Ok(())
    }

    fn punch_hole(&mut self, offset: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let end = punch_end(offset, len)?;

        // Whole blocks strictly inside the range are deallocated.
        let first_full = offset.div_ceil(BLOCK_SIZE);
        let last_full = end / BLOCK_SIZE; // exclusive
        for block in first_full..last_full {
            self.pages.remove(&block);
        }

        // Partial edges are zeroed in place (keeping the block allocated),
        // mirroring fallocate semantics.
        let mut zero_range = |abs_start: u64, abs_end: u64| {
            if abs_start >= abs_end {
                return;
            }
            let block = abs_start / BLOCK_SIZE;
            if let Some(page) = self.pages.get_mut(&block) {
                let s = (abs_start % BLOCK_SIZE) as usize;
                let e = s + (abs_end - abs_start) as usize;
                page[s..e].fill(0);
            }
        };
        if first_full > last_full {
            // Entire range within one block.
            zero_range(offset, end);
        } else {
            zero_range(offset, first_full * BLOCK_SIZE);
            zero_range(last_full * BLOCK_SIZE, end);
        }
        Ok(())
    }

    fn allocated_bytes(&self) -> u64 {
        self.pages.len() as u64 * BLOCK_SIZE
    }
}

/// Deallocated block ranges of a [`FileDevice`], all below its end block:
/// `start -> end` (exclusive), disjoint and never adjacent. Every change
/// is also appended to a row log — `(start, Some(end))` puts the row,
/// `(start, None)` deletes it — so the index on the engine follows in one
/// batch.
#[derive(Debug, Default)]
struct Holes {
    ranges: BTreeMap<u64, u64>,
    /// Sum of the range lengths.
    blocks: u64,
}

type HoleLog = Vec<(u64, Option<u64>)>;

impl Holes {
    /// Blocks `[a, b)` were written: take them out of every hole.
    fn fill(&mut self, a: u64, b: u64, log: &mut HoleLog) {
        if a >= b {
            return;
        }
        let hit: Vec<(u64, u64)> = self
            .ranges
            .range(..b)
            .rev()
            .take_while(|&(_, &end)| end > a)
            .map(|(&start, &end)| (start, end))
            .collect();
        for (start, end) in hit {
            self.ranges.remove(&start);
            log.push((start, None));
            self.blocks -= end.min(b) - start.max(a);
            if start < a {
                self.ranges.insert(start, a);
                log.push((start, Some(a)));
            }
            if end > b {
                self.ranges.insert(b, end);
                log.push((b, Some(end)));
            }
        }
    }

    /// Blocks `[a, b)` were freed: one hole, merged with its neighbours.
    fn open(&mut self, mut a: u64, mut b: u64, log: &mut HoleLog) {
        if a >= b {
            return;
        }
        self.fill(a, b, log); // absorb overlaps so each block counts once
        self.blocks += b - a;
        if let Some((&start, &end)) = self.ranges.range(..a).next_back() {
            if end == a {
                self.ranges.remove(&start);
                log.push((start, None));
                a = start;
            }
        }
        if let Some(end) = self.ranges.remove(&b) {
            log.push((b, None));
            b = end;
        }
        self.ranges.insert(a, b);
        log.push((a, Some(b)));
    }
}

/// One extent's bytes in one sparse local file (§2.2.1), at
/// `<engine dir>/extents/<store>/<extent>`.
///
/// The file carries only bytes. What the file system would have to be
/// asked for — which blocks are allocated — is kept here as `end_block`
/// (the file length, rounded up) minus the punched ranges, and only the
/// punched ranges need a row on the engine: after a reopen the length comes
/// back from the file itself. Every mutation goes to the file *before* its
/// row, so the index never names bytes that are not there.
pub struct FileDevice {
    persist: Arc<StorePersist>,
    extent: ExtentId,
    file: File,
    /// Blocks at or past this index were never written.
    end_block: u64,
    holes: Holes,
}

impl std::fmt::Debug for FileDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDevice")
            .field("extent", &self.extent)
            .field("end_block", &self.end_block)
            .field("hole_blocks", &self.holes.blocks)
            .finish()
    }
}

impl FileDevice {
    /// A fresh, empty file for `extent`. The store's directory is made on
    /// the first extent, not when the store opens.
    pub(crate) fn create(persist: Arc<StorePersist>, extent: ExtentId) -> Result<Self> {
        let path = persist.extent_path(extent);
        let open = || {
            File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
        };
        let file = match open() {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::create_dir_all(persist.extent_dir())?;
                open()?
            }
            other => other?,
        };
        Ok(FileDevice {
            persist,
            extent,
            file,
            end_block: 0,
            holes: Holes::default(),
        })
    }

    /// Reopen the file of an extent the index lists with `watermark`
    /// acknowledged bytes and the punched block ranges `holes`. A missing
    /// or too-short file is `Corrupt`; bytes past the watermark (an append
    /// that reached the file but not the index, §2.2.5) stay where they
    /// are, unserved, until the next append overwrites them.
    pub(crate) fn open(
        persist: Arc<StorePersist>,
        extent: ExtentId,
        watermark: u64,
        holes: &[(u64, u64)],
    ) -> Result<Self> {
        let corrupt = |what: &str| {
            CfsError::Corrupt(format!(
                "partition p{} extent {extent}: {what}",
                persist.store_id()
            ))
        };
        let file = match File::options()
            .read(true)
            .write(true)
            .open(persist.extent_path(extent))
        {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(corrupt("indexed but its file is missing"))
            }
            other => other?,
        };
        let len = file.metadata()?.len();
        if len < watermark {
            return Err(corrupt(&format!(
                "file holds {len} bytes, index acknowledged {watermark}"
            )));
        }
        // Rows are written from a `Holes`, so they are already disjoint.
        Ok(FileDevice {
            persist,
            extent,
            file,
            end_block: len.div_ceil(BLOCK_SIZE),
            holes: Holes {
                ranges: holes.iter().copied().collect(),
                blocks: holes
                    .iter()
                    .map(|&(start, end)| end.saturating_sub(start))
                    .sum(),
            },
        })
    }
}

impl BlockDevice for FileDevice {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.file.write_all_at(data, offset)?;
        let first = offset / BLOCK_SIZE;
        let end = (offset + data.len() as u64).div_ceil(BLOCK_SIZE);
        let mut log = HoleLog::new();
        // A write that starts past the end leaves a gap of unwritten blocks.
        self.holes.open(self.end_block, first, &mut log);
        self.holes.fill(first, end.min(self.end_block), &mut log);
        self.end_block = self.end_block.max(end);
        self.persist.write_holes(self.extent, &log)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)
            {
                Ok(0) => break, // past the end of the file: zeros
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        buf[filled..].fill(0);
        Ok(())
    }

    fn punch_hole(&mut self, offset: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let end = punch_end(offset, len)?;
        punch_file(&self.file, offset, len)?;
        let mut log = HoleLog::new();
        self.holes.open(
            offset.div_ceil(BLOCK_SIZE),
            (end / BLOCK_SIZE).min(self.end_block),
            &mut log,
        );
        self.persist.write_holes(self.extent, &log)
    }

    fn allocated_bytes(&self) -> u64 {
        (self.end_block - self.holes.blocks) * BLOCK_SIZE
    }
}

/// `fallocate(FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE)`: whole blocks in
/// the range go back to the file system, partial ones are zeroed, the file
/// length stays. A file system without the call gets [`zero_fill`], which
/// reads back the same and only keeps the space.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn punch_file(file: &File, offset: u64, len: u64) -> io::Result<()> {
    use std::os::fd::AsRawFd;

    extern "C" {
        // From the libc `std` links; `off_t` is 64 bits on this target.
        fn fallocate(fd: i32, mode: i32, offset: i64, len: i64) -> i32;
    }
    const FALLOC_FL_KEEP_SIZE: i32 = 0x01;
    const FALLOC_FL_PUNCH_HOLE: i32 = 0x02;
    const ENOSYS: i32 = 38;
    const EOPNOTSUPP: i32 = 95;

    let (Ok(off), Ok(n)) = (i64::try_from(offset), i64::try_from(len)) else {
        return Err(io::ErrorKind::InvalidInput.into());
    };
    loop {
        // SAFETY: `file` keeps the descriptor open for the whole call, and
        // `fallocate` takes no pointer: it cannot touch this process's
        // memory.
        let rc = unsafe {
            fallocate(
                file.as_raw_fd(),
                FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                off,
                n,
            )
        };
        if rc == 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            Some(ENOSYS | EOPNOTSUPP) => return zero_fill(file, offset, len),
            _ if err.kind() == io::ErrorKind::Interrupted => {}
            _ => return Err(err),
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn punch_file(file: &File, offset: u64, len: u64) -> io::Result<()> {
    zero_fill(file, offset, len)
}

/// Punch-hole for a file system that cannot deallocate: overwrite the range
/// with zeros, stopping at the end of the file so it does not grow.
fn zero_fill(file: &File, offset: u64, len: u64) -> io::Result<()> {
    static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];
    let end = offset.saturating_add(len).min(file.metadata()?.len());
    let mut pos = offset;
    while pos < end {
        let n = (end - pos).min(ZEROS.len() as u64) as usize;
        file.write_all_at(&ZEROS[..n], pos)?;
        pos += n as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(d: &dyn BlockDevice, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0xEE; len]; // stale caller bytes must be overwritten
        d.read_at(offset, &mut buf).unwrap();
        buf
    }

    #[test]
    fn write_read_roundtrip_across_blocks() {
        let mut d = MemDevice::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        d.write_at(100, &data).unwrap();
        assert_eq!(read(&d, 100, data.len()), data);
        // Unwritten regions read as zeros.
        assert_eq!(read(&d, 0, 100), vec![0u8; 100]);
        assert_eq!(read(&d, 100 + data.len() as u64, 50), vec![0u8; 50]);
    }

    #[test]
    fn allocation_is_block_granular() {
        let mut d = MemDevice::new();
        assert_eq!(d.allocated_bytes(), 0);
        d.write_at(0, b"x").unwrap();
        assert_eq!(d.allocated_bytes(), BLOCK_SIZE);
        d.write_at(BLOCK_SIZE - 1, &[1, 2]).unwrap(); // spans two blocks
        assert_eq!(d.allocated_bytes(), 2 * BLOCK_SIZE);
    }

    #[test]
    fn punch_hole_frees_interior_blocks_and_zeros_edges() {
        let mut d = MemDevice::new();
        let data = vec![0xaau8; 4 * BLOCK_SIZE as usize];
        d.write_at(0, &data).unwrap();
        assert_eq!(d.allocated_bytes(), 4 * BLOCK_SIZE);

        // Punch from mid-block-0 to mid-block-3: blocks 1 and 2 freed,
        // blocks 0 and 3 partially zeroed but still allocated.
        d.punch_hole(BLOCK_SIZE / 2, 3 * BLOCK_SIZE).unwrap();
        assert_eq!(d.allocated_bytes(), 2 * BLOCK_SIZE);

        let back = read(&d, 0, 4 * BLOCK_SIZE as usize);
        let half = (BLOCK_SIZE / 2) as usize;
        assert!(back[..half].iter().all(|&b| b == 0xaa));
        assert!(back[half..half + 3 * BLOCK_SIZE as usize]
            .iter()
            .all(|&b| b == 0));
        assert!(back[half + 3 * BLOCK_SIZE as usize..]
            .iter()
            .all(|&b| b == 0xaa));
    }

    #[test]
    fn punch_hole_within_single_block_zeroes_only() {
        let mut d = MemDevice::new();
        d.write_at(0, &[0xffu8; 4096]).unwrap();
        d.punch_hole(10, 20).unwrap();
        // Block stays allocated; range zeroed.
        assert_eq!(d.allocated_bytes(), BLOCK_SIZE);
        let back = read(&d, 0, 40);
        assert!(back[..10].iter().all(|&b| b == 0xff));
        assert!(back[10..30].iter().all(|&b| b == 0));
        assert!(back[30..].iter().all(|&b| b == 0xff));
    }

    #[test]
    fn punch_block_aligned_range_frees_everything() {
        let mut d = MemDevice::new();
        d.write_at(0, &vec![1u8; 8 * BLOCK_SIZE as usize]).unwrap();
        d.punch_hole(0, 8 * BLOCK_SIZE).unwrap();
        assert_eq!(d.allocated_bytes(), 0);
        assert_eq!(
            read(&d, 0, 16),
            vec![0u8; 16],
            "punched data reads as zeros"
        );
    }

    #[test]
    fn punch_zero_len_is_noop() {
        let mut d = MemDevice::new();
        d.write_at(0, b"data").unwrap();
        d.punch_hole(1, 0).unwrap();
        assert_eq!(read(&d, 0, 4), b"data");
    }

    // ------------------------------------------------------------------
    // FileDevice
    // ------------------------------------------------------------------

    use cfs_kvwal::{LsmEngine, LsmOptions};
    use cfs_types::testutil::TempDir;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const EXTENT: ExtentId = ExtentId(5);

    fn persist(dir: &std::path::Path) -> Arc<StorePersist> {
        let engine = LsmEngine::open(dir, LsmOptions::default()).unwrap();
        Arc::new(StorePersist::new(Arc::new(engine), 9))
    }

    /// Drive one seeded sequence of writes (appends, overwrites, sparse
    /// writes past the end), punches, truncations (a punch through to the
    /// end) and engine + file reopens through a `FileDevice` and a
    /// `MemDevice`: after every step both hold the same bytes and report
    /// the same `allocated_bytes`.
    fn check_file_device_against_model(seed: u64) {
        const SPACE: u64 = 24 * BLOCK_SIZE;
        let mut rng = SmallRng::seed_from_u64(seed);
        let dir = TempDir::new("filedev").unwrap();
        let mut p = persist(dir.path());
        p.save_extent_meta(EXTENT, 0, 0, 0).unwrap();
        let mut file = FileDevice::create(p.clone(), EXTENT).unwrap();
        let mut mem = MemDevice::new();
        let mut end = 0u64; // highest byte written so far
        for step in 0..rng.gen_range(8..40u32) {
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    // Mostly at or below the end, sometimes past it.
                    let offset = match rng.gen_range(0..4u32) {
                        0 => end,
                        1 => rng.gen_range(0..SPACE / 2),
                        _ => rng.gen_range(0..end + 1),
                    };
                    let len = rng.gen_range(1..3 * BLOCK_SIZE) as usize;
                    let data: Vec<u8> = (0..len).map(|_| rng.gen_range(1..255u8)).collect();
                    file.write_at(offset, &data).unwrap();
                    mem.write_at(offset, &data).unwrap();
                    end = end.max(offset + len as u64);
                }
                5..=6 => {
                    let offset = rng.gen_range(0..SPACE);
                    let len = rng.gen_range(0..4 * BLOCK_SIZE);
                    file.punch_hole(offset, len).unwrap();
                    mem.punch_hole(offset, len).unwrap();
                }
                7 => {
                    let to = rng.gen_range(0..end + 1);
                    file.punch_hole(to, end - to).unwrap();
                    mem.punch_hole(to, end - to).unwrap();
                }
                _ => {
                    drop(file);
                    drop(p); // the engine goes with its last handle
                    p = persist(dir.path());
                    let rows = p.stored_extents().unwrap();
                    assert_eq!(rows.len(), 1);
                    file = FileDevice::open(p.clone(), EXTENT, 0, &rows[0].holes).unwrap();
                }
            }
            assert_eq!(
                read(&file, 0, SPACE as usize),
                read(&mem, 0, SPACE as usize),
                "seed {seed} step {step}: bytes"
            );
            assert_eq!(
                file.allocated_bytes(),
                mem.allocated_bytes(),
                "seed {seed} step {step}: allocated_bytes"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_file_device_matches_mem_device(seed in any::<u64>()) {
            check_file_device_against_model(seed);
        }
    }

    /// The fixed seed set CI runs beside the power-loss chaos seeds.
    #[test]
    fn file_device_matches_mem_device_on_fixed_seeds() {
        for seed in [1, 2, 3, 5, 8, 13, 21, 34] {
            check_file_device_against_model(seed);
        }
    }

    /// The fallback for a file system without punch-hole, called directly:
    /// it reads back exactly like a punch and never grows the file.
    #[test]
    fn zero_fill_fallback_reads_like_a_punch() {
        let dir = TempDir::new("filedev").unwrap();
        let p = persist(dir.path());
        let mut file = FileDevice::create(p, EXTENT).unwrap();
        let mut mem = MemDevice::new();
        let data: Vec<u8> = (0..5 * BLOCK_SIZE as u32 + 77)
            .map(|i| (i % 251) as u8 + 1)
            .collect();
        file.write_at(0, &data).unwrap();
        mem.write_at(0, &data).unwrap();
        let len_before = file.file.metadata().unwrap().len();
        for (offset, len) in [
            (BLOCK_SIZE / 2, 2 * BLOCK_SIZE),
            (3 * BLOCK_SIZE + 9, 100),
            (4 * BLOCK_SIZE, 64 * BLOCK_SIZE), // runs far past the end
        ] {
            zero_fill(&file.file, offset, len).unwrap();
            mem.punch_hole(offset, len).unwrap();
            assert_eq!(
                read(&file, 0, 8 * BLOCK_SIZE as usize),
                read(&mem, 0, 8 * BLOCK_SIZE as usize)
            );
        }
        assert_eq!(file.file.metadata().unwrap().len(), len_before);
    }

    /// On a file system that has it, the real punch gives blocks back.
    #[test]
    fn punch_deallocates_file_blocks_where_supported() {
        use std::os::unix::fs::MetadataExt;
        let dir = TempDir::new("filedev").unwrap();
        let p = persist(dir.path());
        let mut file = FileDevice::create(p, EXTENT).unwrap();
        file.write_at(0, &vec![7u8; 64 * BLOCK_SIZE as usize])
            .unwrap();
        file.file.sync_all().unwrap();
        let before = file.file.metadata().unwrap().blocks();
        file.punch_hole(0, 64 * BLOCK_SIZE).unwrap();
        file.file.sync_all().unwrap();
        let meta = file.file.metadata().unwrap();
        assert_eq!(meta.len(), 64 * BLOCK_SIZE, "length kept");
        assert!(meta.blocks() <= before, "punching never allocates");
        assert_eq!(file.allocated_bytes(), 0);
        assert_eq!(read(&file, 0, 4096), vec![0u8; 4096]);
    }
}
