//! The durable side of an extent store: bytes in files, facts in rows.
//!
//! An extent's bytes live in its own sparse file (a
//! [`FileDevice`](crate::FileDevice)) under
//! `<engine dir>/extents/<store_id>/<extent_id>`; the node's shared
//! [`LsmEngine`] holds only the index — per extent one row with the
//! acknowledged watermark, the punch count and the committed offset (every
//! per-extent fact a replica keeps, rewritten whole by whichever of
//! append / punch / truncate / commit moved it), per punched block range
//! one small row (what `allocated_bytes` cannot recover from the file
//! length alone), per store the allocation cursor. `store_id` (the
//! partition id) namespaces both.
//!
//! The crash rule is §2.2.5's: a mutation reaches the file *before* its
//! row commits, reads clamp at the row's watermark, so bytes past it may
//! exist and are never served. Removal runs the other way — rows first,
//! file second — so a crash leaves a file without a row (swept by
//! [`ExtentStore::restore`](crate::ExtentStore::restore)), never a row
//! without a file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cfs_types::{ExtentId, Result};

use cfs_kvwal::cf::cf_prefix;
use cfs_kvwal::{LsmEngine, TypedCf, WriteBatch};

/// `(store, extent) -> (watermark, (punched_bytes, committed))`.
struct ExtentMetaCf;
impl TypedCf for ExtentMetaCf {
    const NAME: &'static str = "store_extents";
    type Key = (u64, u64);
    type Value = (u64, (u64, u64));
}

/// `(store, extent, first_block) -> end_block`: one deallocated block
/// range of an extent file.
struct HoleCf;
impl TypedCf for HoleCf {
    const NAME: &'static str = "store_holes";
    type Key = (u64, u64, u64);
    type Value = u64;
}

/// `store -> (next_extent_id, active_small_extent)`.
struct StoreMetaCf;
impl TypedCf for StoreMetaCf {
    const NAME: &'static str = "store_meta";
    type Key = u64;
    type Value = (u64, Option<u64>);
}

/// What the index holds for one extent.
#[derive(Debug)]
pub(crate) struct StoredExtent {
    pub(crate) id: ExtentId,
    /// Acknowledged bytes.
    pub(crate) watermark: u64,
    /// Bytes punched out so far.
    pub(crate) punched: u64,
    /// Bytes every replica acknowledged (0 off the chain head).
    pub(crate) committed: u64,
    /// Deallocated block ranges, `(first, end)` exclusive.
    pub(crate) holes: Vec<(u64, u64)>,
}

/// Handle to one store's slice of the shared engine and its directory of
/// extent files.
pub struct StorePersist {
    engine: Arc<LsmEngine>,
    store_id: u64,
    dir: PathBuf,
}

impl std::fmt::Debug for StorePersist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorePersist")
            .field("store_id", &self.store_id)
            .finish()
    }
}

impl StorePersist {
    /// Persistence for store `store_id` (a partition id) on `engine`.
    pub fn new(engine: Arc<LsmEngine>, store_id: u64) -> Self {
        let dir = engine.dir().join("extents").join(store_id.to_string());
        StorePersist {
            engine,
            store_id,
            dir,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Arc<LsmEngine> {
        &self.engine
    }

    /// The store (partition) id.
    pub(crate) fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Where this store's extent files live. Exists once the store has
    /// created an extent.
    pub(crate) fn extent_dir(&self) -> &Path {
        &self.dir
    }

    /// The file of `extent`.
    pub(crate) fn extent_path(&self, extent: ExtentId) -> PathBuf {
        self.dir.join(extent.raw().to_string())
    }

    /// Raw key prefix of this store's rows in a family keyed `(store, ..)`.
    fn store_prefix<C: TypedCf>(&self) -> Vec<u8> {
        let mut p = cf_prefix::<C>();
        p.extend_from_slice(&self.store_id.to_be_bytes());
        p
    }

    /// Persist an extent's `(watermark, punched_bytes, committed)` row.
    pub fn save_extent_meta(
        &self,
        extent: ExtentId,
        size: u64,
        punched: u64,
        committed: u64,
    ) -> Result<()> {
        self.engine.put::<ExtentMetaCf>(
            &(self.store_id, extent.raw()),
            &(size, (punched, committed)),
        )
    }

    /// Apply a device's hole-row changes — `(first_block, Some(end))` puts
    /// a row, `(first_block, None)` deletes it — as one batch.
    pub(crate) fn write_holes(&self, extent: ExtentId, log: &[(u64, Option<u64>)]) -> Result<()> {
        let mut batch = WriteBatch::new();
        for &(first, end) in log {
            let key = (self.store_id, extent.raw(), first);
            match end {
                Some(end) => batch.put::<HoleCf>(&key, &end),
                None => batch.delete::<HoleCf>(&key),
            };
        }
        self.engine.write(batch)
    }

    /// Queue the deletion of every row under `prefix`.
    fn delete_rows_under(&self, prefix: &[u8], batch: &mut WriteBatch) {
        for (raw, _) in self.engine.scan_prefix_raw(prefix) {
            batch.delete_raw(raw);
        }
    }

    /// Drop an extent: its rows, then its file.
    pub fn delete_extent(&self, extent: ExtentId) -> Result<()> {
        let mut holes = self.store_prefix::<HoleCf>();
        holes.extend_from_slice(&extent.raw().to_be_bytes());
        let mut batch = WriteBatch::new();
        batch.delete::<ExtentMetaCf>(&(self.store_id, extent.raw()));
        self.delete_rows_under(&holes, &mut batch);
        self.engine.write(batch)?;
        remove_if_present(std::fs::remove_file(self.extent_path(extent)))
    }

    /// Persist the store-level allocation state.
    pub fn save_store_meta(
        &self,
        next_extent_id: u64,
        active_small: Option<ExtentId>,
    ) -> Result<()> {
        self.engine.put::<StoreMetaCf>(
            &self.store_id,
            &(next_extent_id, active_small.map(|e| e.raw())),
        )
    }

    /// Stored `(next_extent_id, active_small_extent)`, if the store was
    /// ever persisted.
    pub fn load_store_meta(&self) -> Result<Option<(u64, Option<ExtentId>)>> {
        Ok(self
            .engine
            .get::<StoreMetaCf>(&self.store_id)?
            .map(|(next, active)| (next, active.map(ExtentId))))
    }

    /// Every extent the index lists for this store.
    pub(crate) fn stored_extents(&self) -> Result<Vec<StoredExtent>> {
        let store = self.store_id.to_be_bytes();
        let mut holes: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for ((_, extent, first), end) in self.engine.scan_cf_prefix::<HoleCf>(&store)? {
            holes.entry(extent).or_default().push((first, end));
        }
        Ok(self
            .engine
            .scan_cf_prefix::<ExtentMetaCf>(&store)?
            .into_iter()
            .map(
                |((_, extent), (watermark, (punched, committed)))| StoredExtent {
                    id: ExtentId(extent),
                    watermark,
                    punched,
                    committed,
                    holes: holes.remove(&extent).unwrap_or_default(),
                },
            )
            .collect())
    }

    /// Remove every extent file `indexed` does not know: what a crash
    /// between creating a file and committing its row leaves behind.
    pub(crate) fn sweep_unindexed_files(&self, indexed: impl Fn(ExtentId) -> bool) -> Result<()> {
        let entries = match std::fs::read_dir(&self.dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            other => other?,
        };
        for entry in entries {
            let entry = entry?;
            let id = entry.file_name().to_str().and_then(|n| n.parse().ok());
            if id.is_some_and(|id| !indexed(ExtentId(id))) {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Drop everything this store persisted: rows, then the directory of
    /// extent files.
    pub fn remove_store(&self) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete::<StoreMetaCf>(&self.store_id);
        self.delete_rows_under(&self.store_prefix::<ExtentMetaCf>(), &mut batch);
        self.delete_rows_under(&self.store_prefix::<HoleCf>(), &mut batch);
        self.engine.write(batch)?;
        remove_if_present(std::fs::remove_dir_all(&self.dir))
    }
}

/// A removal that found nothing to remove is done.
fn remove_if_present(removed: std::io::Result<()>) -> Result<()> {
    match removed {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtentStore;
    use cfs_kvwal::LsmOptions;
    use cfs_types::testutil::TempDir;

    fn files_in(dir: &Path) -> usize {
        std::fs::read_dir(dir).map_or(0, |entries| entries.count())
    }

    /// Two stores on one engine keep their rows and files apart, and
    /// neither `delete_extent` nor `remove_store` leaves a file behind.
    #[test]
    fn stores_are_namespaced_by_id() {
        let dir = TempDir::new("storefiles").unwrap();
        let engine = Arc::new(LsmEngine::open(dir.path(), LsmOptions::default()).unwrap());
        let a = Arc::new(StorePersist::new(engine.clone(), 1));
        let b = Arc::new(StorePersist::new(engine, 2));
        assert!(!a.extent_dir().exists(), "made at the first extent");
        let mut sa = ExtentStore::new_persistent(1 << 20, 0, a.clone()).unwrap();
        let mut sb = ExtentStore::new_persistent(1 << 20, 0, b.clone()).unwrap();
        let (ea, eb) = (sa.create_extent().unwrap(), sb.create_extent().unwrap());
        assert_eq!(ea, eb, "same extent id in both stores");
        sa.append(ea, 0, b"store-a").unwrap();
        sb.append(eb, 0, b"store-b").unwrap();
        let small = sa.write_small_file(&[7u8; 3 * 4096]).unwrap();
        sa.delete_small_file(small).unwrap();
        assert_eq!(&sa.read(ea, 0, 7).unwrap(), b"store-a");
        assert_eq!(&sb.read(eb, 0, 7).unwrap(), b"store-b");
        assert_eq!(files_in(a.extent_dir()), 2);

        sa.delete_extent(small.extent_id).unwrap();
        assert!(!a.extent_path(small.extent_id).exists());
        assert_eq!(a.stored_extents().unwrap().len(), 1, "rows went with it");
        assert_eq!(files_in(a.extent_dir()), 1);

        a.remove_store().unwrap();
        assert!(a.stored_extents().unwrap().is_empty());
        assert!(a.load_store_meta().unwrap().is_none());
        assert!(!a.extent_dir().exists(), "no file left under extents/1");
        assert_eq!(b.stored_extents().unwrap().len(), 1, "b untouched");
        assert_eq!(&sb.read(eb, 0, 7).unwrap(), b"store-b");
        a.remove_store().unwrap(); // nothing left to remove is not an error
    }
}
