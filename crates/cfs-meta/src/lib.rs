//! The metadata subsystem (§2.1): an in-memory distributed datastore of
//! inodes and dentries.
//!
//! * [`MetaPartition`] owns one inode-id range of one volume and keeps two
//!   copy-on-write B-trees — `inodeTree` (by inode id) and `dentryTree` (by
//!   `(parent inode id, name)`). It is a deterministic state machine: every
//!   mutation is a [`MetaCommand`] applied through Raft, so replicas stay
//!   identical, and reads are served at the Raft leader.
//! * [`MetaNode`] hosts many partitions behind one [`cfs_raft::MultiRaft`]
//!   instance, persists them via Raft snapshots + log compaction (§2.1.3),
//!   and serves the client RPCs ([`MetaRequest`]).
//!
//! The paper's relaxed metadata atomicity (§2.6) lives *above* this crate:
//! a file's inode and dentry may be on different partitions/nodes, and the
//! client orchestrates the create/link/unlink workflows with retries and
//! orphan-inode lists. This crate only guarantees per-partition atomicity
//! of each command.

mod command;
mod intent;
mod node;
mod partition;
#[cfg(test)]
mod prop_tests;

pub use command::{MetaCommand, MetaRead, MetaValue};
pub use intent::{CompensationRecord, IntentContext, IntentRecord};
pub use node::{MetaNode, MetaRequest, MetaResponse, PartitionInfo, MAX_WRITE_BATCH};
pub use partition::{MetaPartition, MetaPartitionConfig};
