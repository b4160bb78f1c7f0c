//! The resource manager (§2.3): volumes, placement, splitting, liveness.
//!
//! The resource manager "manages the file system by processing different
//! types of tasks" — creating/deleting partitions, creating volumes,
//! adding/removing nodes — while tracking memory/disk utilization and
//! liveness of every meta and data node. It has multiple replicas kept
//! strongly consistent by Raft and persisted to a key-value store (§2).
//!
//! This crate follows that design literally:
//!
//! * [`MasterState`] is a deterministic state machine over
//!   [`MasterCommand`]s; every mutation is proposed through a single Raft
//!   group shared by the replicas. That group's log, hard state and
//!   compaction snapshot on a [`cfs_kvwal::LsmEngine`] are the state's
//!   only durable image: a restarted replica rebuilds from the snapshot
//!   and re-applies the committed tail.
//! * **One heartbeat command** per round carries liveness, utilization
//!   and partition stats, and its apply runs the maintenance sweep.
//! * **Utilization-based placement** (§2.3.1): partition replicas go to the
//!   nodes with the lowest memory (meta) or disk (data) utilization,
//!   preferring nodes of one *Raft set* (§2.5.1) to bound heartbeat
//!   fan-out. No data ever moves when nodes are added — new capacity just
//!   attracts future placements (tested by
//!   `state::tests::placement_prefers_low_utilization` and shown by the
//!   `capacity_expansion` example).
//! * **Meta partition splitting** (Algorithm 1): when the newest partition
//!   of a volume approaches its item limit, its inode range is cut at
//!   `maxInodeID + Δ` and a successor partition `[end+1, ∞)` is placed on
//!   fresh nodes.
//! * Decisions are returned as [`Task`]s (create partition, mark
//!   read-only…) that the cluster driver delivers to meta/data nodes,
//!   keeping this crate free of dependencies on the other subsystems.

mod node;
mod placement;
mod state;

pub use node::{MasterMetrics, MasterNode, MasterRequest, MasterResponse};
pub use placement::{choose_replicas, NodeLoad};
pub use state::{
    DataPartitionMeta, MasterCommand, MasterState, MetaPartitionMeta, MetaPartitionReport,
    NodeKind, NodeStatus, Task, VolumeMeta,
};
