//! The CFS client (§2.4, §2.6, §2.7).
//!
//! The paper's client is a FUSE daemon; this crate is the same logic as a
//! user-space library (see `DESIGN.md` for the substitution rationale —
//! the paper itself plans to drop FUSE). One [`Client`] mounts one volume
//! and offers a POSIX-like API: create/mkdir/lookup/stat/readdir/
//! link/unlink/rename/symlink plus handle-based file I/O.
//!
//! Client-side machinery reproduced from the paper:
//!
//! * **Caches (§2.4)**: the volume's meta/data partition table (refreshed
//!   from the resource manager on demand and re-fetchable periodically),
//!   the last identified Raft leader per partition (minimizing
//!   read-retries after leader changes), and the inode/dentry cache
//!   (force-synced on open).
//! * **Relaxed metadata atomicity (§2.6)**: create = inode-then-dentry
//!   with the failed-create orphan list; link = nlink++ then dentry with
//!   rollback; unlink = dentry-then-nlink--. A dentry therefore always
//!   references an existing inode, but orphan inodes can appear; the
//!   client evicts its orphan list asynchronously.
//! * **Write paths (§2.7)**: sequential writes stream fixed-size packets
//!   to the PB leader and record extent keys at the meta node afterwards;
//!   random writes split into an overwrite part (in-place, Raft path) and
//!   an append part; small files take the aggregated-extent path; deletes
//!   are asynchronous.
//! * **Retries (§2.1.3)**: every retryable failure is retried up to the
//!   configured limit, switching partitions where the paper says to (a
//!   failed append resends the remainder to a different partition).
//! * **Asynchronous metadata commit (DESIGN §12)**: with
//!   [`ClientOptions::async_meta`] a mutating op returns once its intent
//!   is durably journaled at the leader — zero consensus rounds on the
//!   ack path — and the group commit happens behind the scenes; a leader
//!   outside a clean window commits the op synchronously inside the same
//!   RPC instead. Each workflow is written once over that one step. The
//!   client tracks every acked intent; `fsync`/`close` is the strong
//!   barrier that drains them, surfaces rolled-back (compensated) ops as
//!   errors, and forward-completes broken unlinks.
//! * **Small-file fast path (DESIGN §13)**: small first-writes join a
//!   client buffer that flushes as one `WriteSmallBatch` chain
//!   submission (committed-prefix semantics per record) once
//!   [`ClientOptions::small_batch_max_ops`] records wait — at the
//!   default of 1, inside each record's own `write`; the readahead
//!   block cache over `read_at` serves warmed sequential reads with zero
//!   fabric round-trips and invalidates on truncate/overwrite/unlink/
//!   generation drift/view refresh.

mod async_commit;
mod client;
mod coalesce;
mod file;
mod fsck;
mod ops;
mod path;
mod readcache;
mod retry;
mod route;

pub use client::{Client, ClientOptions, DataPathSnapshot, Fabrics};
pub use file::FileHandle;
pub use fsck::{FsckReport, OrphanIntent, UnderReplication};
pub use path::split_path;
