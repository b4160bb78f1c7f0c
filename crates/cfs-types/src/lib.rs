//! Common types shared by every CFS subsystem.
//!
//! This crate is the vocabulary of the reproduction: strongly-typed
//! identifiers, the error model, a hand-written binary codec used for Raft
//! log entries / snapshots / WAL records, CRC32-C checksums for extent
//! integrity, and the inode/dentry/extent metadata structures from §2.1 of
//! the paper.

pub mod codec;
pub mod config;
pub mod crc;
pub mod error;
pub mod faults;
pub mod ids;
pub mod inode;
pub mod testutil;

pub use codec::{Decode, Decoder, Encode, Encoder};
pub use config::{
    ClusterConfig, DEAD_AFTER_MISSED, SPLIT_DELTA, SUSPECT_AFTER_MISSED, VOLUME_REFILL_WATERMARK,
};
pub use error::{CfsError, Result};
pub use faults::FaultState;
pub use ids::{
    ClientId, ExtentId, InodeId, NodeId, PartitionId, RaftGroupId, VolumeId, ROOT_INODE,
};
pub use inode::{Dentry, ExtentKey, FileType, Inode, InodeFlag};
