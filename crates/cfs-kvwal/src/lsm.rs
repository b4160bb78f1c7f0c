//! The LSM engine: WAL → memtable → leveled sorted runs.
//!
//! This is the durable substrate under the resource manager, the meta
//! partitions' raft state, and the data nodes' extent images (the paper
//! persists the analogous state to RocksDB, §2). The write path appends one
//! CRC-framed batch record to the WAL, applies it to an in-memory ordered
//! memtable, and acknowledges; when the memtable passes its flush
//! threshold it is written as an immutable sorted L0 run
//! ([`crate::compact`]) and the WAL rotates. L0 runs are merged into
//! deeper levels by leveled compaction; tombstones are dropped only when a
//! merge reaches the bottom of the tree.
//!
//! Recovery is `newest valid runs + WAL replay`: temp files and runs that
//! fail their CRC (a crash mid-flush or mid-compaction) are removed, WAL
//! files at or below the highest flushed sequence are ignored, and the
//! surviving tail is replayed into a fresh memtable — bounded by
//! ops-since-last-flush, not total history (pinned by `tests/budgets.rs`).
//!
//! Metrics (`kvwal.*`): `wal_appends`, `flushes`, `compactions`,
//! `wal_replayed`, `runs_discarded`, `rows_scanned` (rows a prefix scan
//! visited), and the `recover_ns` histogram.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use cfs_obs::{Counter, Histogram, Registry};
use cfs_types::codec::Decode;
use cfs_types::Result;

use crate::cf::{self, TypedCf, WriteBatch};
use crate::compact::{self, Run, RunEntry};
use crate::record::Record;
use crate::wal::Wal;

/// Number of levels (L0 .. L(MAX_LEVELS-1)).
const MAX_LEVELS: usize = 3;

/// Tuning knobs for [`LsmEngine`].
#[derive(Debug, Clone)]
pub struct LsmOptions {
    /// Fsync the WAL on every batch append. Off by default: the simulated
    /// power-loss model loses process state, not page cache.
    pub sync_on_append: bool,
    /// Flush the memtable to an L0 run once it holds this many encoded
    /// bytes.
    pub memtable_flush_bytes: usize,
    /// Merge L0 into L1 once this many L0 runs accumulate.
    pub l0_compact_runs: usize,
    /// Cascade a level-`i` run into level `i+1` once it exceeds
    /// `level_base_bytes << (3 * i)`.
    pub level_base_bytes: u64,
    /// Disable automatic flushing entirely (the forced-failure twin in the
    /// recovery budget test: every restart replays the whole history).
    pub flush_enabled: bool,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            sync_on_append: false,
            memtable_flush_bytes: 256 * 1024,
            l0_compact_runs: 4,
            level_base_bytes: 4 * 1024 * 1024,
            flush_enabled: true,
        }
    }
}

/// `kvwal.*` counters, detached until bound to a registry.
#[derive(Debug, Clone, Default)]
pub struct KvwalMetrics {
    pub wal_appends: Counter,
    pub flushes: Counter,
    pub compactions: Counter,
    pub wal_replayed: Counter,
    pub runs_discarded: Counter,
    pub rows_scanned: Counter,
    pub recover_ns: Histogram,
}

impl KvwalMetrics {
    /// Bind to the cluster registry.
    pub fn bind(registry: &Registry) -> Self {
        KvwalMetrics {
            wal_appends: registry.counter("kvwal.wal_appends"),
            flushes: registry.counter("kvwal.flushes"),
            compactions: registry.counter("kvwal.compactions"),
            wal_replayed: registry.counter("kvwal.wal_replayed"),
            runs_discarded: registry.counter("kvwal.runs_discarded"),
            rows_scanned: registry.counter("kvwal.rows_scanned"),
            recover_ns: registry.histogram("kvwal.recover_ns"),
        }
    }
}

struct Inner {
    dir: PathBuf,
    options: LsmOptions,
    wal: Wal,
    /// Mutations not yet flushed to a run; `None` is a tombstone.
    mem: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Encoded size of `mem` (flush trigger).
    mem_bytes: usize,
    /// `levels[0]` holds many runs (newest = highest seq); deeper levels
    /// normally hold one, plus crash leftovers until the next merge.
    levels: Vec<Vec<Arc<Run>>>,
    next_run_seq: u64,
}

/// Log-structured, typed-column-family storage engine.
///
/// Thread-safe: one internal lock serializes writes and structural
/// changes; reads take the same lock (the sim's nodes already serialize
/// their apply paths, so this is not a hot-path concern).
pub struct LsmEngine {
    inner: Mutex<Inner>,
    metrics: KvwalMetrics,
}

impl std::fmt::Debug for LsmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("LsmEngine")
            .field("dir", &inner.dir)
            .field("mem_entries", &inner.mem.len())
            .field("runs", &inner.levels.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

impl LsmEngine {
    /// Open (and recover) an engine in `dir` with detached metrics.
    pub fn open(dir: &Path, options: LsmOptions) -> Result<LsmEngine> {
        Self::open_with_registry(dir, options, None)
    }

    /// Open (and recover) an engine in `dir`, binding `kvwal.*` metrics to
    /// `registry` when given.
    pub fn open_with_registry(
        dir: &Path,
        options: LsmOptions,
        registry: Option<&Registry>,
    ) -> Result<LsmEngine> {
        let metrics = registry.map(KvwalMetrics::bind).unwrap_or_default();
        let started = Instant::now();
        std::fs::create_dir_all(dir)?;

        // Survey the directory: runs, WAL files, and crash leftovers.
        let mut run_paths = Vec::new();
        let mut wal_seqs = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if compact::is_tmp_run(name) {
                // Half-written flush/compaction output: never renamed, so
                // never part of the tree. Remove it.
                metrics.runs_discarded.inc();
                std::fs::remove_file(&path)?;
            } else if compact::parse_run_name(name).is_some() {
                run_paths.push(path);
            } else if let Some(seq) = Wal::seq_of(&path) {
                wal_seqs.push(seq);
            }
        }

        let mut levels: Vec<Vec<Arc<Run>>> = vec![Vec::new(); MAX_LEVELS];
        let mut wal_upto = 0u64;
        let mut next_run_seq = 1u64;
        for path in run_paths {
            match compact::load_run(&path) {
                Ok(run) => {
                    wal_upto = wal_upto.max(run.wal_upto);
                    next_run_seq = next_run_seq.max(run.seq + 1);
                    let level = run.level.min(MAX_LEVELS - 1);
                    levels[level].push(run);
                }
                Err(_) => {
                    // Fails its CRC: a torn run. Ignore and remove.
                    metrics.runs_discarded.inc();
                    std::fs::remove_file(&path)?;
                }
            }
        }
        // Within a level, higher seq = newer = higher precedence.
        for level in levels.iter_mut() {
            level.sort_by_key(|r| r.seq);
        }

        // Replay the WAL tail (strictly newer than any flushed run) into a
        // fresh memtable.
        wal_seqs.sort_unstable();
        let mut mem: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut mem_bytes = 0usize;
        for &seq in wal_seqs.iter().filter(|&&s| s > wal_upto) {
            let (records, valid_len) = Wal::replay_with_len(dir, seq)?;
            for rec in records {
                metrics.wal_replayed.inc();
                apply_record(&mut mem, &mut mem_bytes, rec);
            }
            // Cut any torn tail so post-recovery appends extend a valid log.
            Wal::truncate_to(dir, seq, valid_len)?;
        }
        // Stale WAL files (already captured by a flushed run) are garbage.
        for &seq in wal_seqs.iter().filter(|&&s| s <= wal_upto) {
            Wal::remove(dir, seq)?;
        }

        // Continue the newest surviving WAL file, or start a fresh one
        // just past the flush point.
        let wal_seq = match wal_seqs.last() {
            Some(&s) if s > wal_upto => s,
            _ => wal_upto + 1,
        };
        let wal = Wal::open(dir, wal_seq, options.sync_on_append)?;

        metrics
            .recover_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(LsmEngine {
            inner: Mutex::new(Inner {
                dir: dir.to_path_buf(),
                options,
                wal,
                mem,
                mem_bytes,
                levels,
                next_run_seq,
            }),
            metrics,
        })
    }

    /// Commit a batch: one WAL append, then apply to the memtable. May
    /// trigger a flush and compaction on the way out.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.wal.append(&Record::Batch {
            ops: batch.ops.clone(),
        })?;
        self.metrics.wal_appends.inc();
        for (key, value) in batch.ops {
            upsert(&mut inner.mem, &mut inner.mem_bytes, key, value);
        }
        if inner.options.flush_enabled && inner.mem_bytes >= inner.options.memtable_flush_bytes {
            self.flush_locked(inner)?;
            self.maybe_compact_locked(inner)?;
        }
        Ok(())
    }

    /// Typed single put (a one-element batch).
    pub fn put<C: TypedCf>(&self, key: &C::Key, value: &C::Value) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put::<C>(key, value);
        self.write(b)
    }

    /// Typed single delete (a one-element batch).
    pub fn delete<C: TypedCf>(&self, key: &C::Key) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete::<C>(key);
        self.write(b)
    }

    /// Typed point lookup.
    pub fn get<C: TypedCf>(&self, key: &C::Key) -> Result<Option<C::Value>> {
        match self.get_raw(&cf::raw_key::<C>(key)) {
            None => Ok(None),
            Some(bytes) => Ok(Some(C::Value::from_bytes(&bytes)?)),
        }
    }

    /// Every live `(key, value)` of one family, in key order.
    pub fn scan<C: TypedCf>(&self) -> Result<Vec<(C::Key, C::Value)>> {
        self.scan_prefix_raw(&cf::cf_prefix::<C>())
            .into_iter()
            .map(|(k, v)| Ok((cf::typed_key::<C>(&k)?, C::Value::from_bytes(&v)?)))
            .collect()
    }

    /// Recovery hook for families whose keys group a sub-journal under a
    /// shared prefix (e.g. `(partition, intent)` tuples): every live
    /// `(key, value)` of one family whose *encoded* key starts with
    /// `prefix`, in key order. `CfKey` encodings are big-endian, so a
    /// tuple key's first component bytes are a valid prefix.
    pub fn scan_cf_prefix<C: TypedCf>(&self, prefix: &[u8]) -> Result<Vec<(C::Key, C::Value)>> {
        let mut full = cf::cf_prefix::<C>();
        full.extend_from_slice(prefix);
        self.scan_prefix_raw(&full)
            .into_iter()
            .map(|(k, v)| Ok((cf::typed_key::<C>(&k)?, C::Value::from_bytes(&v)?)))
            .collect()
    }

    /// Raw point lookup: memtable first, then runs newest → oldest.
    pub fn get_raw(&self, key: &[u8]) -> Option<Vec<u8>> {
        let inner = self.inner.lock();
        if let Some(v) = inner.mem.get(key) {
            return v.clone();
        }
        for level in &inner.levels {
            for run in level.iter().rev() {
                if let Some(v) = run.get(key) {
                    return v.clone();
                }
            }
        }
        None
    }

    /// Every live `(key, value)` whose key starts with `prefix`, merged
    /// across the memtable and all runs, in key order.
    pub fn scan_prefix_raw(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let inner = self.inner.lock();
        // Precedence-ordered sources: memtable, L0 newest→oldest, L1, …
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut visited = 0u64;
        let mut consider = |k: &[u8], v: &Option<Vec<u8>>| {
            visited += 1;
            if k.starts_with(prefix) && !merged.contains_key(k) {
                merged.insert(k.to_vec(), v.clone());
            }
        };
        for (k, v) in inner.mem.range(prefix.to_vec()..) {
            if !k.starts_with(prefix) {
                break;
            }
            consider(k, v);
        }
        for level in &inner.levels {
            for run in level.iter().rev() {
                let start = run.entries.partition_point(|(k, _)| k.as_slice() < prefix);
                for (k, v) in &run.entries[start..] {
                    if !k.starts_with(prefix) {
                        break;
                    }
                    consider(k, v);
                }
            }
        }
        self.metrics.rows_scanned.add(visited);
        merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// Force the memtable to an L0 run (no-op when empty), then apply the
    /// compaction policy.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)?;
        self.maybe_compact_locked(&mut inner)
    }

    /// Merge the whole tree into a single bottom-level run, dropping
    /// tombstones.
    pub fn compact_all(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)?;
        let bottom = MAX_LEVELS - 1;
        self.merge_into_locked(&mut inner, 0, bottom)
    }

    /// Fsync the WAL.
    pub fn sync(&self) -> Result<()> {
        self.inner.lock().wal.sync()
    }

    /// Engine directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().dir.clone()
    }

    /// Number of live runs per level (tests and budgets).
    pub fn level_run_counts(&self) -> Vec<usize> {
        self.inner.lock().levels.iter().map(Vec::len).collect()
    }

    /// Current WAL sequence number (tests).
    pub fn wal_seq(&self) -> u64 {
        self.inner.lock().wal.seq()
    }

    /// This engine's metric handles (shared with the registry when bound).
    pub fn metrics(&self) -> &KvwalMetrics {
        &self.metrics
    }

    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.mem.is_empty() {
            return Ok(());
        }
        let entries: Vec<RunEntry> = std::mem::take(&mut inner.mem).into_iter().collect();
        inner.mem_bytes = 0;
        let seq = inner.next_run_seq;
        inner.next_run_seq += 1;
        let flushed_wal = inner.wal.seq();
        let run = compact::write_run(&inner.dir, 0, seq, flushed_wal, entries)?;
        inner.levels[0].push(run);
        self.metrics.flushes.inc();
        // Rotate the WAL: everything at or below `flushed_wal` is now
        // captured by the run.
        inner.wal = Wal::open(&inner.dir, flushed_wal + 1, inner.options.sync_on_append)?;
        for seq in wal_seqs_in(&inner.dir)? {
            if seq <= flushed_wal {
                Wal::remove(&inner.dir, seq)?;
            }
        }
        Ok(())
    }

    fn maybe_compact_locked(&self, inner: &mut Inner) -> Result<()> {
        if inner.levels[0].len() >= inner.options.l0_compact_runs {
            self.merge_into_locked(inner, 0, 1)?;
        }
        // Size cascade: an oversized level spills into the next one.
        for level in 1..MAX_LEVELS - 1 {
            let bytes: u64 = inner.levels[level].iter().map(|r| r.bytes).sum();
            let limit = inner.options.level_base_bytes << (3 * (level - 1));
            if bytes > limit {
                self.merge_into_locked(inner, level, level + 1)?;
            }
        }
        Ok(())
    }

    /// Merge every run in levels `from..=into` into one run at `into`.
    /// Tombstones are dropped iff nothing deeper than `into` holds data.
    fn merge_into_locked(&self, inner: &mut Inner, from: usize, into: usize) -> Result<()> {
        let into = into.min(MAX_LEVELS - 1);
        let mut inputs: Vec<Arc<Run>> = Vec::new();
        // Precedence order: shallower level first; within a level newest
        // (highest seq) first.
        for level in from..=into {
            let mut runs: Vec<Arc<Run>> = inner.levels[level].clone();
            runs.sort_by_key(|r| std::cmp::Reverse(r.seq));
            inputs.extend(runs);
        }
        if inputs.len() < 2 && (inputs.is_empty() || from == into) {
            return Ok(());
        }
        let deeper_empty = inner.levels[into + 1..].iter().all(Vec::is_empty);
        let merged = compact::merge_runs(&inputs, deeper_empty);
        let wal_upto = inputs.iter().map(|r| r.wal_upto).max().unwrap_or(0);
        let seq = inner.next_run_seq;
        inner.next_run_seq += 1;
        let run = compact::write_run(&inner.dir, into, seq, wal_upto, merged)?;
        // Commit point passed (rename): now drop the inputs.
        for level in from..=into {
            for old in inner.levels[level].drain(..) {
                let _ = std::fs::remove_file(&old.path);
            }
        }
        inner.levels[into].push(run);
        self.metrics.compactions.inc();
        Ok(())
    }
}

fn wal_seqs_in(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Some(seq) = Wal::seq_of(&entry?.path()) {
            seqs.push(seq);
        }
    }
    Ok(seqs)
}

fn apply_record(mem: &mut BTreeMap<Vec<u8>, Option<Vec<u8>>>, mem_bytes: &mut usize, rec: Record) {
    match rec {
        Record::Put { key, value } => upsert(mem, mem_bytes, key, Some(value)),
        Record::Delete { key } => upsert(mem, mem_bytes, key, None),
        Record::Batch { ops } => {
            for (key, value) in ops {
                upsert(mem, mem_bytes, key, value);
            }
        }
    }
}

fn upsert(
    mem: &mut BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    mem_bytes: &mut usize,
    key: Vec<u8>,
    value: Option<Vec<u8>>,
) {
    *mem_bytes += key.len() + value.as_ref().map(Vec::len).unwrap_or(0) + 16;
    mem.insert(key, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::testutil::TempDir;

    struct KvCf;
    impl TypedCf for KvCf {
        const NAME: &'static str = "kv";
        type Key = u64;
        type Value = Vec<u8>;
    }

    struct OtherCf;
    impl TypedCf for OtherCf {
        const NAME: &'static str = "other";
        type Key = (u64, u64);
        type Value = u64;
    }

    fn tiny_options() -> LsmOptions {
        LsmOptions {
            memtable_flush_bytes: 256,
            l0_compact_runs: 2,
            level_base_bytes: 1024,
            ..LsmOptions::default()
        }
    }

    #[test]
    fn typed_families_are_isolated() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
        db.put::<KvCf>(&1, &b"one".to_vec()).unwrap();
        db.put::<OtherCf>(&(1, 1), &11).unwrap();
        db.put::<OtherCf>(&(1, 2), &12).unwrap();
        assert_eq!(db.get::<KvCf>(&1).unwrap(), Some(b"one".to_vec()));
        assert_eq!(db.get::<OtherCf>(&(1, 1)).unwrap(), Some(11));
        assert_eq!(db.scan::<KvCf>().unwrap().len(), 1);
        assert_eq!(
            db.scan::<OtherCf>().unwrap(),
            vec![((1, 1), 11), ((1, 2), 12)]
        );
    }

    #[test]
    fn typed_prefix_scan_isolates_tuple_sub_journals() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmEngine::open(dir.path(), tiny_options()).unwrap();
        for part in [1u64, 2, 258] {
            for seq in [3u64, 9] {
                db.put::<OtherCf>(&(part, seq), &(part * 100 + seq))
                    .unwrap();
            }
        }
        // A u64 big-endian prefix selects exactly one partition's rows —
        // including across a flush boundary (memtable + runs merged).
        db.flush().unwrap();
        db.put::<OtherCf>(&(2, 4), &204).unwrap();
        assert_eq!(
            db.scan_cf_prefix::<OtherCf>(&2u64.to_be_bytes()).unwrap(),
            vec![((2, 3), 203), ((2, 4), 204), ((2, 9), 209)]
        );
        // Partition 1 does not leak rows of partition 258 even though the
        // low byte of 258's first key byte range overlaps lexically.
        assert_eq!(
            db.scan_cf_prefix::<OtherCf>(&1u64.to_be_bytes()).unwrap(),
            vec![((1, 3), 103), ((1, 9), 109)]
        );
        assert!(db
            .scan_cf_prefix::<OtherCf>(&7u64.to_be_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_is_atomic_across_families() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
        let mut b = WriteBatch::new();
        b.put::<KvCf>(&7, &b"x".to_vec());
        b.put::<OtherCf>(&(7, 7), &77);
        db.write(b).unwrap();
        drop(db);
        let db = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
        assert_eq!(db.get::<KvCf>(&7).unwrap(), Some(b"x".to_vec()));
        assert_eq!(db.get::<OtherCf>(&(7, 7)).unwrap(), Some(77));
    }

    #[test]
    fn flush_compact_and_recover_roundtrip() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmEngine::open(dir.path(), tiny_options()).unwrap();
        for i in 0..200u64 {
            db.put::<KvCf>(&i, &vec![i as u8; 24]).unwrap();
        }
        for i in (0..200u64).step_by(3) {
            db.delete::<KvCf>(&i).unwrap();
        }
        assert!(db.metrics().flushes.get() > 0, "threshold flushes fired");
        assert!(db.metrics().compactions.get() > 0, "compactions fired");
        drop(db);

        let db = LsmEngine::open(dir.path(), tiny_options()).unwrap();
        for i in 0..200u64 {
            let got = db.get::<KvCf>(&i).unwrap();
            if i % 3 == 0 {
                assert_eq!(got, None, "key {i} deleted");
            } else {
                assert_eq!(got, Some(vec![i as u8; 24]), "key {i} survives");
            }
        }
    }

    #[test]
    fn recovery_replays_only_the_wal_tail() {
        let dir = TempDir::new("lsm").unwrap();
        let registry = Registry::new();
        {
            let db = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
            for i in 0..100u64 {
                db.put::<KvCf>(&i, &vec![0u8; 8]).unwrap();
            }
            db.flush().unwrap();
            for i in 0..5u64 {
                db.put::<KvCf>(&(1000 + i), &vec![1u8; 8]).unwrap();
            }
        }
        let db = LsmEngine::open_with_registry(dir.path(), LsmOptions::default(), Some(&registry))
            .unwrap();
        let replayed = registry.snapshot().counter("kvwal.wal_replayed");
        assert_eq!(replayed, 5, "only post-flush records replay");
        assert_eq!(db.get::<KvCf>(&3).unwrap(), Some(vec![0u8; 8]));
        assert_eq!(db.get::<KvCf>(&1004).unwrap(), Some(vec![1u8; 8]));
        assert!(registry.snapshot().histograms["kvwal.recover_ns"].count >= 1);
    }

    #[test]
    fn compact_all_collapses_to_bottom_level_and_drops_tombstones() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmEngine::open(dir.path(), tiny_options()).unwrap();
        for i in 0..50u64 {
            db.put::<KvCf>(&i, &vec![2u8; 16]).unwrap();
        }
        for i in 0..50u64 {
            db.delete::<KvCf>(&i).unwrap();
        }
        db.put::<KvCf>(&99, &b"keep".to_vec()).unwrap();
        db.compact_all().unwrap();
        let counts = db.level_run_counts();
        assert_eq!(counts[..counts.len() - 1], vec![0; counts.len() - 1][..]);
        assert_eq!(*counts.last().unwrap(), 1);
        // The single bottom run holds exactly the one live key.
        assert_eq!(db.scan::<KvCf>().unwrap(), vec![(99, b"keep".to_vec())]);
        drop(db);
        let db = LsmEngine::open(dir.path(), tiny_options()).unwrap();
        assert_eq!(db.scan::<KvCf>().unwrap(), vec![(99, b"keep".to_vec())]);
    }

    #[test]
    fn half_written_run_is_ignored_on_recovery() {
        let dir = TempDir::new("lsm").unwrap();
        {
            let db = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
            db.put::<KvCf>(&1, &b"durable".to_vec()).unwrap();
            db.flush().unwrap();
        }
        // A crashed compaction leaves a tmp file and a torn (truncated)
        // renamed run; both must be discarded, not trusted.
        std::fs::write(
            dir.path().join("tmp-run-01-00000000000000000099.sst"),
            b"gar",
        )
        .unwrap();
        let torn = dir.path().join(compact::run_file_name(1, 98));
        std::fs::write(&torn, b"CFSRUN1\0partial").unwrap();
        let registry = Registry::new();
        let db = LsmEngine::open_with_registry(dir.path(), LsmOptions::default(), Some(&registry))
            .unwrap();
        assert_eq!(db.get::<KvCf>(&1).unwrap(), Some(b"durable".to_vec()));
        assert_eq!(registry.snapshot().counter("kvwal.runs_discarded"), 2);
        assert!(!torn.exists(), "torn run removed");
    }

    #[test]
    fn scan_prefix_merges_mem_and_runs_with_correct_precedence() {
        let dir = TempDir::new("lsm").unwrap();
        let db = LsmEngine::open(dir.path(), LsmOptions::default()).unwrap();
        db.put::<KvCf>(&1, &b"old".to_vec()).unwrap();
        db.put::<KvCf>(&2, &b"gone".to_vec()).unwrap();
        db.flush().unwrap();
        db.put::<KvCf>(&1, &b"new".to_vec()).unwrap();
        db.delete::<KvCf>(&2).unwrap();
        db.put::<KvCf>(&3, &b"mem".to_vec()).unwrap();
        assert_eq!(
            db.scan::<KvCf>().unwrap(),
            vec![(1, b"new".to_vec()), (3, b"mem".to_vec())]
        );
    }

    #[test]
    fn disabled_flushing_replays_everything() {
        let dir = TempDir::new("lsm").unwrap();
        let options = LsmOptions {
            flush_enabled: false,
            memtable_flush_bytes: 1,
            ..LsmOptions::default()
        };
        {
            let db = LsmEngine::open(dir.path(), options.clone()).unwrap();
            for i in 0..64u64 {
                db.put::<KvCf>(&i, &vec![0u8; 4]).unwrap();
            }
            assert_eq!(db.level_run_counts().iter().sum::<usize>(), 0);
        }
        let registry = Registry::new();
        let db = LsmEngine::open_with_registry(dir.path(), options, Some(&registry)).unwrap();
        assert_eq!(registry.snapshot().counter("kvwal.wal_replayed"), 64);
        assert_eq!(db.get::<KvCf>(&63).unwrap(), Some(vec![0u8; 4]));
    }
}
