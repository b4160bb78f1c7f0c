//! The replicated command set and read operations of a meta partition.
//!
//! Writes ([`MetaCommand`]) go through Raft; their binary encoding is the
//! Raft log entry payload. Reads ([`MetaRead`]) are served directly at the
//! Raft leader's in-memory partition, which is exactly the design the paper
//! credits for its metadata performance — no disk I/O on any metadata read
//! (§4.3, first reason).

use cfs_types::codec::{Decode, Decoder, Encode, Encoder};
use cfs_types::{CfsError, Dentry, ExtentKey, FileType, Inode, InodeId, Result};

use crate::partition::MetaPartition;

/// A replicated (write) command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaCommand {
    CreateInode {
        file_type: FileType,
        link_target: Vec<u8>,
        now_ns: u64,
    },
    CreateDentry {
        parent: InodeId,
        name: String,
        inode: InodeId,
        file_type: FileType,
    },
    DeleteDentry {
        parent: InodeId,
        name: String,
    },
    Link {
        inode: InodeId,
    },
    Unlink {
        inode: InodeId,
        now_ns: u64,
    },
    Evict {
        inode: InodeId,
    },
    AppendExtents {
        inode: InodeId,
        extents: Vec<ExtentKey>,
        new_size: u64,
        now_ns: u64,
    },
    Truncate {
        inode: InodeId,
        size: u64,
        now_ns: u64,
    },
    /// Algorithm 1: cut this partition's inode range at `end`.
    UpdateEnd {
        end: InodeId,
    },
    /// Asynchronous-commit path (DESIGN §12): insert a fresh inode at an
    /// id the leader's overlay allocated when the op was acked. Pinning
    /// the id into the replicated command keeps the apply deterministic.
    CreateInodeAt {
        id: InodeId,
        file_type: FileType,
        link_target: Vec<u8>,
        now_ns: u64,
    },
    /// A command riding the async intent journal: `intent` names the
    /// journal entry every replica retires when this entry applies.
    Tagged {
        intent: u64,
        inner: Box<MetaCommand>,
    },
    /// Compensation fixup: remove `(parent, name)` only while it still
    /// points at `inode` (idempotent, can never undo an unrelated op).
    RemoveDentryIf {
        parent: InodeId,
        name: String,
        inode: InodeId,
    },
    /// Compensation fixup: evict `inode` only if its creation stamp
    /// matches the dead intent's and it is still unreferenced.
    EvictIf {
        inode: InodeId,
        ctime_ns: u64,
    },
}

impl MetaCommand {
    /// Stable op label for per-partition apply metrics
    /// (`meta.applies{partition=…,op=…}`).
    pub fn kind(&self) -> &'static str {
        match self {
            MetaCommand::CreateInode { .. } => "create_inode",
            MetaCommand::CreateDentry { .. } => "create_dentry",
            MetaCommand::DeleteDentry { .. } => "delete_dentry",
            MetaCommand::Link { .. } => "link",
            MetaCommand::Unlink { .. } => "unlink",
            MetaCommand::Evict { .. } => "evict",
            MetaCommand::AppendExtents { .. } => "append_extents",
            MetaCommand::Truncate { .. } => "truncate",
            MetaCommand::UpdateEnd { .. } => "update_end",
            MetaCommand::CreateInodeAt { .. } => "create_inode_at",
            // A tagged command is labeled by what it does, not how it got
            // here, so apply metrics stay comparable across sync/async.
            MetaCommand::Tagged { inner, .. } => inner.kind(),
            MetaCommand::RemoveDentryIf { .. } => "remove_dentry_if",
            MetaCommand::EvictIf { .. } => "evict_if",
        }
    }
}

impl MetaCommand {
    /// Dual-serve range fence (Algorithm 1 handoff): the first routing
    /// inode of this command outside `[start, end]`, if any. Commands that
    /// allocate (`CreateInode`) or reconfigure (`UpdateEnd`) have no
    /// routing inode — allocation enforces the range itself.
    pub fn out_of_range(&self, start: InodeId, end: InodeId) -> Option<InodeId> {
        let outside = |id: &InodeId| *id < start || *id > end;
        match self {
            // CreateInodeAt enforces the range at apply time like the
            // allocating form; compensation fixups are conditional no-ops
            // outside their range and must survive a racing cut.
            MetaCommand::CreateInode { .. }
            | MetaCommand::UpdateEnd { .. }
            | MetaCommand::CreateInodeAt { .. }
            | MetaCommand::RemoveDentryIf { .. }
            | MetaCommand::EvictIf { .. } => None,
            MetaCommand::CreateDentry { parent, .. } | MetaCommand::DeleteDentry { parent, .. } => {
                Some(*parent).filter(outside)
            }
            MetaCommand::Link { inode }
            | MetaCommand::Unlink { inode, .. }
            | MetaCommand::Evict { inode }
            | MetaCommand::AppendExtents { inode, .. }
            | MetaCommand::Truncate { inode, .. } => Some(*inode).filter(outside),
            MetaCommand::Tagged { inner, .. } => inner.out_of_range(start, end),
        }
    }
}

/// A leader-local read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaRead {
    GetInode {
        inode: InodeId,
    },
    BatchGetInodes {
        inodes: Vec<InodeId>,
    },
    Lookup {
        parent: InodeId,
        name: String,
    },
    ReadDir {
        parent: InodeId,
    },
    DirEntryCount {
        parent: InodeId,
    },
    /// fsck enumeration: every inode in the partition.
    ListAllInodes,
    /// fsck enumeration: every dentry in the partition.
    ListAllDentries,
}

impl MetaRead {
    /// Dual-serve range fence (Algorithm 1 handoff): the first routing
    /// inode of this read outside `[start, end]`, if any. Partition-wide
    /// enumerations carry no routing inode.
    pub fn out_of_range(&self, start: InodeId, end: InodeId) -> Option<InodeId> {
        let outside = |id: &InodeId| *id < start || *id > end;
        match self {
            MetaRead::GetInode { inode } => Some(*inode).filter(outside),
            MetaRead::BatchGetInodes { inodes } => inodes.iter().copied().find(|i| outside(i)),
            MetaRead::Lookup { parent, .. }
            | MetaRead::ReadDir { parent }
            | MetaRead::DirEntryCount { parent } => Some(*parent).filter(outside),
            MetaRead::ListAllInodes | MetaRead::ListAllDentries => None,
        }
    }
}

/// Result payload of a command or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaValue {
    None,
    Inode(Inode),
    Dentry(Dentry),
    Dentries(Vec<Dentry>),
    Inodes(Vec<Inode>),
    Extents(Vec<ExtentKey>),
    Count(u64),
}

impl MetaValue {
    /// Unwrap an inode payload.
    pub fn into_inode(self) -> Result<Inode> {
        match self {
            MetaValue::Inode(i) => Ok(i),
            other => Err(CfsError::Internal(format!("expected inode, got {other:?}"))),
        }
    }

    /// Unwrap a dentry payload.
    pub fn into_dentry(self) -> Result<Dentry> {
        match self {
            MetaValue::Dentry(d) => Ok(d),
            other => Err(CfsError::Internal(format!(
                "expected dentry, got {other:?}"
            ))),
        }
    }

    /// Unwrap a dentry list.
    pub fn into_dentries(self) -> Result<Vec<Dentry>> {
        match self {
            MetaValue::Dentries(d) => Ok(d),
            other => Err(CfsError::Internal(format!(
                "expected dentries, got {other:?}"
            ))),
        }
    }

    /// Unwrap an inode list.
    pub fn into_inodes(self) -> Result<Vec<Inode>> {
        match self {
            MetaValue::Inodes(i) => Ok(i),
            other => Err(CfsError::Internal(format!(
                "expected inodes, got {other:?}"
            ))),
        }
    }

    /// Unwrap an extent list.
    pub fn into_extents(self) -> Result<Vec<ExtentKey>> {
        match self {
            MetaValue::Extents(e) => Ok(e),
            other => Err(CfsError::Internal(format!(
                "expected extents, got {other:?}"
            ))),
        }
    }
}

impl MetaCommand {
    /// Apply this command to a partition. Deterministic: replicas applying
    /// the same command sequence converge, including on errors (an
    /// `Exists`/`NotFound` outcome is part of the replicated result).
    pub fn apply(&self, p: &mut MetaPartition) -> Result<MetaValue> {
        match self {
            MetaCommand::CreateInode {
                file_type,
                link_target,
                now_ns,
            } => Ok(MetaValue::Inode(p.create_inode(
                *file_type,
                link_target,
                *now_ns,
            )?)),
            MetaCommand::CreateDentry {
                parent,
                name,
                inode,
                file_type,
            } => Ok(MetaValue::Dentry(
                p.create_dentry(*parent, name, *inode, *file_type)?,
            )),
            MetaCommand::DeleteDentry { parent, name } => {
                Ok(MetaValue::Dentry(p.delete_dentry(*parent, name)?))
            }
            MetaCommand::Link { inode } => Ok(MetaValue::Inode(p.inode_link(*inode)?)),
            MetaCommand::Unlink { inode, now_ns } => {
                Ok(MetaValue::Inode(p.inode_unlink(*inode, *now_ns)?))
            }
            MetaCommand::Evict { inode } => Ok(MetaValue::Inode(p.evict_inode(*inode)?)),
            MetaCommand::AppendExtents {
                inode,
                extents,
                new_size,
                now_ns,
            } => Ok(MetaValue::Inode(
                p.append_extents(*inode, extents, *new_size, *now_ns)?,
            )),
            MetaCommand::Truncate {
                inode,
                size,
                now_ns,
            } => Ok(MetaValue::Extents(p.truncate(*inode, *size, *now_ns)?)),
            MetaCommand::UpdateEnd { end } => {
                p.update_end(*end)?;
                Ok(MetaValue::None)
            }
            MetaCommand::CreateInodeAt {
                id,
                file_type,
                link_target,
                now_ns,
            } => Ok(MetaValue::Inode(p.create_inode_at(
                *id,
                *file_type,
                link_target,
                *now_ns,
            )?)),
            MetaCommand::Tagged { inner, .. } => inner.apply(p),
            MetaCommand::RemoveDentryIf {
                parent,
                name,
                inode,
            } => Ok(match p.remove_dentry_if(*parent, name, *inode)? {
                Some(d) => MetaValue::Dentry(d),
                None => MetaValue::None,
            }),
            MetaCommand::EvictIf { inode, ctime_ns } => {
                Ok(match p.evict_if(*inode, *ctime_ns)? {
                    Some(i) => MetaValue::Inode(i),
                    None => MetaValue::None,
                })
            }
        }
    }
}

/// Serve a read against a partition.
pub fn apply_read(read: &MetaRead, p: &MetaPartition) -> Result<MetaValue> {
    match read {
        MetaRead::GetInode { inode } => Ok(MetaValue::Inode(p.get_inode(*inode)?)),
        MetaRead::BatchGetInodes { inodes } => Ok(MetaValue::Inodes(p.batch_get_inodes(inodes))),
        MetaRead::Lookup { parent, name } => Ok(MetaValue::Dentry(p.get_dentry(*parent, name)?)),
        MetaRead::ReadDir { parent } => Ok(MetaValue::Dentries(p.readdir(*parent))),
        MetaRead::DirEntryCount { parent } => {
            Ok(MetaValue::Count(p.dir_entry_count(*parent) as u64))
        }
        MetaRead::ListAllInodes => Ok(MetaValue::Inodes(p.all_inodes())),
        MetaRead::ListAllDentries => Ok(MetaValue::Dentries(p.all_dentries())),
    }
}

impl Encode for MetaCommand {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            MetaCommand::CreateInode {
                file_type,
                link_target,
                now_ns,
            } => {
                enc.put_u8(0);
                file_type.encode(enc);
                enc.put_bytes(link_target);
                enc.put_u64(*now_ns);
            }
            MetaCommand::CreateDentry {
                parent,
                name,
                inode,
                file_type,
            } => {
                enc.put_u8(1);
                parent.encode(enc);
                name.encode(enc);
                inode.encode(enc);
                file_type.encode(enc);
            }
            MetaCommand::DeleteDentry { parent, name } => {
                enc.put_u8(2);
                parent.encode(enc);
                name.encode(enc);
            }
            MetaCommand::Link { inode } => {
                enc.put_u8(3);
                inode.encode(enc);
            }
            MetaCommand::Unlink { inode, now_ns } => {
                enc.put_u8(4);
                inode.encode(enc);
                enc.put_u64(*now_ns);
            }
            MetaCommand::Evict { inode } => {
                enc.put_u8(6);
                inode.encode(enc);
            }
            MetaCommand::AppendExtents {
                inode,
                extents,
                new_size,
                now_ns,
            } => {
                enc.put_u8(7);
                inode.encode(enc);
                extents.encode(enc);
                enc.put_u64(*new_size);
                enc.put_u64(*now_ns);
            }
            MetaCommand::Truncate {
                inode,
                size,
                now_ns,
            } => {
                enc.put_u8(8);
                inode.encode(enc);
                enc.put_u64(*size);
                enc.put_u64(*now_ns);
            }
            MetaCommand::UpdateEnd { end } => {
                enc.put_u8(9);
                end.encode(enc);
            }
            MetaCommand::CreateInodeAt {
                id,
                file_type,
                link_target,
                now_ns,
            } => {
                enc.put_u8(10);
                id.encode(enc);
                file_type.encode(enc);
                enc.put_bytes(link_target);
                enc.put_u64(*now_ns);
            }
            MetaCommand::Tagged { intent, inner } => {
                enc.put_u8(11);
                enc.put_u64(*intent);
                inner.encode(enc);
            }
            MetaCommand::RemoveDentryIf {
                parent,
                name,
                inode,
            } => {
                enc.put_u8(12);
                parent.encode(enc);
                name.encode(enc);
                inode.encode(enc);
            }
            MetaCommand::EvictIf { inode, ctime_ns } => {
                enc.put_u8(13);
                inode.encode(enc);
                enc.put_u64(*ctime_ns);
            }
        }
    }
}

impl Decode for MetaCommand {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            0 => MetaCommand::CreateInode {
                file_type: FileType::decode(dec)?,
                link_target: dec.get_bytes()?.to_vec(),
                now_ns: dec.get_u64()?,
            },
            1 => MetaCommand::CreateDentry {
                parent: InodeId::decode(dec)?,
                name: String::decode(dec)?,
                inode: InodeId::decode(dec)?,
                file_type: FileType::decode(dec)?,
            },
            2 => MetaCommand::DeleteDentry {
                parent: InodeId::decode(dec)?,
                name: String::decode(dec)?,
            },
            3 => MetaCommand::Link {
                inode: InodeId::decode(dec)?,
            },
            4 => MetaCommand::Unlink {
                inode: InodeId::decode(dec)?,
                now_ns: dec.get_u64()?,
            },
            6 => MetaCommand::Evict {
                inode: InodeId::decode(dec)?,
            },
            7 => MetaCommand::AppendExtents {
                inode: InodeId::decode(dec)?,
                extents: Vec::<ExtentKey>::decode(dec)?,
                new_size: dec.get_u64()?,
                now_ns: dec.get_u64()?,
            },
            8 => MetaCommand::Truncate {
                inode: InodeId::decode(dec)?,
                size: dec.get_u64()?,
                now_ns: dec.get_u64()?,
            },
            9 => MetaCommand::UpdateEnd {
                end: InodeId::decode(dec)?,
            },
            10 => MetaCommand::CreateInodeAt {
                id: InodeId::decode(dec)?,
                file_type: FileType::decode(dec)?,
                link_target: dec.get_bytes()?.to_vec(),
                now_ns: dec.get_u64()?,
            },
            11 => MetaCommand::Tagged {
                intent: dec.get_u64()?,
                inner: Box::new(MetaCommand::decode(dec)?),
            },
            12 => MetaCommand::RemoveDentryIf {
                parent: InodeId::decode(dec)?,
                name: String::decode(dec)?,
                inode: InodeId::decode(dec)?,
            },
            13 => MetaCommand::EvictIf {
                inode: InodeId::decode(dec)?,
                ctime_ns: dec.get_u64()?,
            },
            b => return Err(CfsError::Corrupt(format!("invalid meta command tag {b}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::MetaPartitionConfig;
    use cfs_types::codec::roundtrip;
    use cfs_types::{PartitionId, VolumeId};

    fn part() -> MetaPartition {
        MetaPartition::new(MetaPartitionConfig {
            partition_id: PartitionId(1),
            volume_id: VolumeId(1),
            start: InodeId(1),
            end: InodeId::MAX,
        })
    }

    #[test]
    fn all_commands_roundtrip_codec() {
        let cmds = vec![
            MetaCommand::CreateInode {
                file_type: FileType::Symlink,
                link_target: b"/t".to_vec(),
                now_ns: 5,
            },
            MetaCommand::CreateDentry {
                parent: InodeId(1),
                name: "file".into(),
                inode: InodeId(2),
                file_type: FileType::File,
            },
            MetaCommand::DeleteDentry {
                parent: InodeId(1),
                name: "file".into(),
            },
            MetaCommand::Link { inode: InodeId(2) },
            MetaCommand::Unlink {
                inode: InodeId(2),
                now_ns: 9,
            },
            MetaCommand::Evict { inode: InodeId(2) },
            MetaCommand::AppendExtents {
                inode: InodeId(2),
                extents: vec![ExtentKey {
                    file_offset: 0,
                    partition_id: PartitionId(3),
                    extent_id: cfs_types::ExtentId(4),
                    extent_offset: 5,
                    size: 6,
                }],
                new_size: 6,
                now_ns: 10,
            },
            MetaCommand::Truncate {
                inode: InodeId(2),
                size: 3,
                now_ns: 11,
            },
            MetaCommand::UpdateEnd { end: InodeId(100) },
            MetaCommand::CreateInodeAt {
                id: InodeId(17),
                file_type: FileType::File,
                link_target: vec![],
                now_ns: 12,
            },
            MetaCommand::Tagged {
                intent: 0xBEEF_0001,
                inner: Box::new(MetaCommand::CreateInodeAt {
                    id: InodeId(18),
                    file_type: FileType::Symlink,
                    link_target: b"/t".to_vec(),
                    now_ns: 13,
                }),
            },
            MetaCommand::RemoveDentryIf {
                parent: InodeId(1),
                name: "file".into(),
                inode: InodeId(2),
            },
            MetaCommand::EvictIf {
                inode: InodeId(2),
                ctime_ns: 14,
            },
        ];
        for c in cmds {
            assert_eq!(roundtrip(&c).unwrap(), c);
        }
    }

    #[test]
    fn tagged_commands_delegate_kind_fence_and_apply() {
        let tagged = MetaCommand::Tagged {
            intent: 7,
            inner: Box::new(MetaCommand::CreateDentry {
                parent: InodeId(50),
                name: "a".into(),
                inode: InodeId(51),
                file_type: FileType::File,
            }),
        };
        assert_eq!(tagged.kind(), "create_dentry");
        assert_eq!(
            tagged.out_of_range(InodeId(1), InodeId(10)),
            Some(InodeId(50)),
            "fence routes by the inner command"
        );
        let mut p = part();
        p.create_inode(FileType::Dir, b"", 0).unwrap();
        let pinned = MetaCommand::Tagged {
            intent: 8,
            inner: Box::new(MetaCommand::CreateInodeAt {
                id: InodeId(5),
                file_type: FileType::File,
                link_target: vec![],
                now_ns: 3,
            }),
        };
        let ino = pinned.apply(&mut p).unwrap().into_inode().unwrap();
        assert_eq!(ino.id, InodeId(5));
    }

    #[test]
    fn invalid_tag_rejected() {
        assert!(MetaCommand::from_bytes(&[200]).is_err());
        // Tag 5 was the mark-deleted command (retired: `Unlink` marks the
        // inode itself) and is never reused; a log that still holds one
        // is refused, not misread as another command.
        let mut retired = vec![5u8];
        retired.extend_from_slice(&InodeId(2).to_bytes());
        assert!(matches!(
            MetaCommand::from_bytes(&retired),
            Err(CfsError::Corrupt(_))
        ));
    }

    #[test]
    fn replayed_command_sequence_is_deterministic() {
        let cmds = [
            MetaCommand::CreateInode {
                file_type: FileType::Dir,
                link_target: vec![],
                now_ns: 1,
            },
            MetaCommand::CreateInode {
                file_type: FileType::File,
                link_target: vec![],
                now_ns: 2,
            },
            MetaCommand::CreateDentry {
                parent: InodeId(1),
                name: "a".into(),
                inode: InodeId(2),
                file_type: FileType::File,
            },
            // A failing command (duplicate dentry) is part of the sequence.
            MetaCommand::CreateDentry {
                parent: InodeId(1),
                name: "a".into(),
                inode: InodeId(2),
                file_type: FileType::File,
            },
            MetaCommand::Unlink {
                inode: InodeId(2),
                now_ns: 3,
            },
        ];
        let mut p1 = part();
        let mut p2 = part();
        let r1: Vec<_> = cmds.iter().map(|c| c.apply(&mut p1)).collect();
        let r2: Vec<_> = cmds.iter().map(|c| c.apply(&mut p2)).collect();
        assert_eq!(r1, r2);
        assert!(r1[3].is_err(), "duplicate dentry fails identically");
        assert_eq!(p1.snapshot_bytes(), p2.snapshot_bytes());
    }

    #[test]
    fn reads_serve_from_partition() {
        let mut p = part();
        MetaCommand::CreateInode {
            file_type: FileType::Dir,
            link_target: vec![],
            now_ns: 1,
        }
        .apply(&mut p)
        .unwrap();
        let f = MetaCommand::CreateInode {
            file_type: FileType::File,
            link_target: vec![],
            now_ns: 1,
        }
        .apply(&mut p)
        .unwrap()
        .into_inode()
        .unwrap();
        MetaCommand::CreateDentry {
            parent: InodeId(1),
            name: "x".into(),
            inode: f.id,
            file_type: FileType::File,
        }
        .apply(&mut p)
        .unwrap();

        let got = apply_read(
            &MetaRead::Lookup {
                parent: InodeId(1),
                name: "x".into(),
            },
            &p,
        )
        .unwrap()
        .into_dentry()
        .unwrap();
        assert_eq!(got.inode, f.id);

        let list = apply_read(&MetaRead::ReadDir { parent: InodeId(1) }, &p)
            .unwrap()
            .into_dentries()
            .unwrap();
        assert_eq!(list.len(), 1);

        let count = apply_read(&MetaRead::DirEntryCount { parent: InodeId(1) }, &p).unwrap();
        assert_eq!(count, MetaValue::Count(1));

        let inos = apply_read(
            &MetaRead::BatchGetInodes {
                inodes: vec![InodeId(1), f.id],
            },
            &p,
        )
        .unwrap()
        .into_inodes()
        .unwrap();
        assert_eq!(inos.len(), 2);
    }

    #[test]
    fn value_unwrap_helpers_reject_wrong_kind() {
        assert!(MetaValue::None.into_inode().is_err());
        assert!(MetaValue::Count(1).into_dentry().is_err());
        assert!(MetaValue::None.into_dentries().is_err());
        assert!(MetaValue::None.into_inodes().is_err());
        assert!(MetaValue::None.into_extents().is_err());
    }
}
