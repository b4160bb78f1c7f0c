//! The extent store: CFS's general-purpose storage engine (§2.2).
//!
//! A data partition stores file content in *extents*. Two layouts share one
//! engine:
//!
//! * **Large files** are sequences of dedicated extents. A new file's data
//!   is always written at offset 0 of a fresh extent, the last extent is
//!   never padded, and an extent never mixes files (§2.2.2).
//! * **Small files** (≤ the configured threshold, default 128 KB) are
//!   aggregated into shared extents; the physical offset of each file in
//!   the extent is recorded at the meta node. Deleting a small file
//!   *punches a hole* — asynchronously deallocating its block range via the
//!   `fallocate`-style interface — instead of running a GC/compaction pass,
//!   so no logical→physical remap table is needed (§2.2.3).
//!
//! As in the paper, a durable extent is one sparse local file
//! ([`FileDevice`]), written in place and hole-punched with `fallocate`;
//! only the small facts about it (watermark, punch accounting, committed
//! offset, allocation cursor) are rows on the node's LSM engine
//! ([`StorePersist`]). The in-memory [`MemDevice`] is the reference model
//! of the same [`BlockDevice`] contract: it tracks *physical* block
//! allocation exactly like a sparse file, so hole punching measurably
//! reclaims space (see `DESIGN.md` §10 and the substitution table).
//!
//! Every extent's CRC is cached in memory to make integrity checks cheap
//! (§2.2.1).

mod device;
mod extent;
mod metrics;
mod persist;
mod small;
mod store;

pub use device::{BlockDevice, FileDevice, MemDevice, BLOCK_SIZE};
pub use extent::Extent;
pub use metrics::StoreMetrics;
pub use persist::StorePersist;
pub use small::SmallFileLocation;
pub use store::{ExtentStore, StoreStats};
