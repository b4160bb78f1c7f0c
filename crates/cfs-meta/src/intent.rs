//! The asynchronous-commit intent journal (DESIGN §12).
//!
//! A mutating metadata op acked before consensus owns exactly one durable
//! row in the `meta_intents` column family, keyed `(partition, intent id)`,
//! whose value is the intent's [`IntentState`]:
//!
//! * *journaled* — an [`IntentRecord`]: the *pinned* replicated command,
//!   the [`IntentContext`] naming the other half of the client workflow,
//!   and, once its frame is proposed, the `(term, index)` stamp;
//! * *retired* — the command group-committed: the row is deleted;
//! * *compensated* — its raft entry was lost to an election, a power cut or
//!   a withdrawn frame, or it failed to apply: the row is rewritten as a
//!   [`CompensationRecord`] whose fixups repair both sides of the partition
//!   boundary — the half-created file's dentry is removed, the orphan inode
//!   evicted, the half-linked dentry's nlink increment rolled back. When
//!   the orphan sweep acks it, the row is rewritten with no fixups and
//!   kept: a barrier must report the rollback after the sweep and across
//!   reboots.
//!
//! Every transition is one engine write, i.e. one CRC-framed WAL record, so
//! a torn tail drops whole transitions. The namespace fixups are
//! conditional commands ([`MetaCommand::RemoveDentryIf`],
//! [`MetaCommand::EvictIf`]), so replaying them is idempotent and can never
//! undo an unrelated op; the one non-conditional fixup — the link
//! workflow's nlink rollback — runs exactly once per record, because the
//! sweep acks a record only after running it.
//!
//! [`IntentJournal`] owns these rows and their in-memory mirror; nothing
//! else reads or writes them. One more row in the family, the id
//! high-water mark, keeps intent ids unique across reboots.

use std::collections::BTreeMap;
use std::sync::Arc;

use cfs_kvwal::{LsmEngine, TypedCf};
use cfs_obs::{Counter, Registry};
use cfs_types::codec::{Decode, Decoder, Encode, Encoder};
use cfs_types::{CfsError, InodeId, NodeId, PartitionId, Result, VolumeId};

use crate::command::MetaCommand;
use crate::partition::MetaPartition;

/// Why an async intent was journaled: the cross-partition twin of the
/// acked command, from which compensation fixups are derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentContext {
    /// `CreateInodeAt` step of a create workflow: the dentry the client
    /// plants next. Dead ⇒ remove that dentry if it ever committed.
    PlannedDentry { parent: InodeId, name: String },
    /// `CreateDentry` step of a create workflow: the freshly created
    /// inode's creation stamp. Dead ⇒ evict the now-unreachable inode —
    /// the paper's orphan-inode list (§2.6.1), promoted to a journal.
    FreshInode { ctime_ns: u64 },
    /// `DeleteDentry` step of an unlink workflow: the target inode. Dead ⇒
    /// *forward-complete* the deletion, so an acked unlink always ends
    /// with the name absent.
    UnlinkedInode { inode: InodeId },
    /// `CreateDentry` step of a link workflow. Dead ⇒ roll back the
    /// synchronous nlink increment (§2.6.2 failure handling).
    LinkedInode { inode: InodeId },
}

impl Encode for IntentContext {
    fn encode(&self, enc: &mut Encoder) {
        // Tag 0 belonged to a retired context-free variant and is never
        // reused: a row holding one decodes to `Corrupt`.
        match self {
            IntentContext::PlannedDentry { parent, name } => {
                enc.put_u8(1);
                parent.encode(enc);
                name.encode(enc);
            }
            IntentContext::FreshInode { ctime_ns } => {
                enc.put_u8(2);
                enc.put_u64(*ctime_ns);
            }
            IntentContext::UnlinkedInode { inode } => {
                enc.put_u8(3);
                inode.encode(enc);
            }
            IntentContext::LinkedInode { inode } => {
                enc.put_u8(4);
                inode.encode(enc);
            }
        }
    }
}

impl Decode for IntentContext {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            1 => IntentContext::PlannedDentry {
                parent: InodeId::decode(dec)?,
                name: String::decode(dec)?,
            },
            2 => IntentContext::FreshInode {
                ctime_ns: dec.get_u64()?,
            },
            3 => IntentContext::UnlinkedInode {
                inode: InodeId::decode(dec)?,
            },
            4 => IntentContext::LinkedInode {
                inode: InodeId::decode(dec)?,
            },
            b => return Err(CfsError::Corrupt(format!("invalid intent context tag {b}"))),
        })
    }
}

/// One journaled intent: an acked-but-not-yet-committed metadata op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentRecord {
    /// Node-unique intent id (high bits: acking node, low bits: sequence).
    pub id: u64,
    /// The pinned command that was (or will be) group-committed.
    pub cmd: MetaCommand,
    pub ctx: IntentContext,
    /// `(term, log index)` the intent's frame was proposed at. Stamped
    /// durably *before* the propose, so recovery can always classify a
    /// surviving record: `None` ⇒ the entry is definitively not in the
    /// log (dead); `Some((t, i))` ⇒ decided by inspecting the tree once
    /// the applied index passes `i`.
    pub proposed: Option<(u64, u64)>,
}

impl Encode for IntentRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        self.cmd.encode(enc);
        self.ctx.encode(enc);
        match self.proposed {
            None => enc.put_u8(0),
            Some((t, i)) => {
                enc.put_u8(1);
                enc.put_u64(t);
                enc.put_u64(i);
            }
        }
    }
}

impl Decode for IntentRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let id = dec.get_u64()?;
        let cmd = MetaCommand::decode(dec)?;
        let ctx = IntentContext::decode(dec)?;
        let proposed = match dec.get_u8()? {
            0 => None,
            1 => Some((dec.get_u64()?, dec.get_u64()?)),
            b => return Err(CfsError::Corrupt(format!("invalid proposed tag {b}"))),
        };
        Ok(IntentRecord {
            id,
            cmd,
            ctx,
            proposed,
        })
    }
}

/// A dead intent's repair plan: conditional fixup commands, each routed by
/// an inode id (the partition owning that id executes it). Reported to the
/// resource manager through heartbeat reconciliation and executed by the
/// orphan sweep, whose ack empties `fixups`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompensationRecord {
    /// The dead intent's id (compensations inherit their intent's id).
    pub id: u64,
    /// Partition the intent was journaled on.
    pub partition: PartitionId,
    /// Volume the fixups route within (inode ranges are per-volume).
    pub volume: VolumeId,
    /// `(routing inode, fixup command)` pairs.
    pub fixups: Vec<(InodeId, MetaCommand)>,
}

impl Encode for CompensationRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        self.partition.encode(enc);
        self.volume.encode(enc);
        enc.put_u32(self.fixups.len() as u32);
        for (routing, cmd) in &self.fixups {
            routing.encode(enc);
            cmd.encode(enc);
        }
    }
}

impl Decode for CompensationRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let id = dec.get_u64()?;
        let partition = PartitionId::decode(dec)?;
        let volume = VolumeId::decode(dec)?;
        let n = dec.get_u32()? as usize;
        let mut fixups = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            fixups.push((InodeId::decode(dec)?, MetaCommand::decode(dec)?));
        }
        Ok(CompensationRecord {
            id,
            partition,
            volume,
            fixups,
        })
    }
}

/// The value of an intent's one `meta_intents` row. A retired intent has
/// no row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IntentState {
    /// Acked, not yet committed or compensated.
    Journaled(IntentRecord),
    /// Dead: the fixups the orphan sweep still owes (none once acked).
    Compensated(CompensationRecord),
}

impl Encode for IntentState {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            IntentState::Journaled(rec) => {
                enc.put_u8(0);
                rec.encode(enc);
            }
            IntentState::Compensated(comp) => {
                enc.put_u8(1);
                comp.encode(enc);
            }
        }
    }
}

impl Decode for IntentState {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            0 => IntentState::Journaled(IntentRecord::decode(dec)?),
            1 => IntentState::Compensated(CompensationRecord::decode(dec)?),
            b => return Err(CfsError::Corrupt(format!("invalid intent state tag {b}"))),
        })
    }
}

/// `(partition, intent id)` → encoded [`IntentState`], plus the id
/// high-water mark under [`MARK_KEY`].
pub(crate) struct IntentCf;
impl TypedCf for IntentCf {
    const NAME: &'static str = "meta_intents";
    type Key = (u64, u64);
    type Value = Vec<u8>;
}

/// Key of the id high-water mark row: no partition has id `u64::MAX`.
pub(crate) const MARK_KEY: (u64, u64) = (u64::MAX, u64::MAX);

/// Low 48 bits of an intent id are the node-local sequence; the high 16
/// identify the acking node, so ids from different nodes never collide.
const INTENT_SEQ_MASK: u64 = (1 << 48) - 1;

/// Sequences reserved per high-water-mark write: minting touches the
/// engine once per block, and a reboot skips at most one block.
const ID_BLOCK: u64 = 1 << 10;

/// One intent row's in-memory mirror.
struct Row {
    state: IntentState,
    /// Loaded at open, so no ticket of this incarnation carries it: never
    /// stamped ⇒ dead, and retiring it is a log replay. Also set when a
    /// never-stamped intent loses its ticket, so that a compensation whose
    /// write failed is retried by the next resolution pass.
    loaded: bool,
}

/// The intent journal: every row of [`IntentCf`], mirrored in memory, and
/// the only code that moves an intent from one state to the next.
pub(crate) struct IntentJournal {
    engine: Arc<LsmEngine>,
    /// Rows by partition, in id order: resolution settles them in the
    /// same order on every run.
    rows: BTreeMap<PartitionId, BTreeMap<u64, Row>>,
    /// Acking node, placed in the high 16 bits of every minted id.
    node: u64,
    /// Next node-local sequence.
    next_seq: u64,
    /// Highest sequence the durable high-water mark covers.
    reserved: u64,
    /// Intents journaled, i.e. async writes acked before consensus.
    acks: Counter,
    /// Intents retired because their command group-committed.
    completions: Counter,
    /// Intents that died and were turned into compensation records.
    compensations: Counter,
    /// Loaded intents that then completed through raft log replay.
    replays: Counter,
}

impl IntentJournal {
    /// Load every intent row and the id high-water mark in one scan.
    pub(crate) fn open(
        engine: Arc<LsmEngine>,
        node: NodeId,
        registry: Option<&Registry>,
    ) -> Result<IntentJournal> {
        let mut rows: BTreeMap<PartitionId, BTreeMap<u64, Row>> = BTreeMap::new();
        let (mut reserved, mut max_seq) = (0, 0);
        for ((praw, id), bytes) in engine.scan::<IntentCf>()? {
            if (praw, id) == MARK_KEY {
                reserved = u64::from_bytes(&bytes)?;
                continue;
            }
            max_seq = max_seq.max(id & INTENT_SEQ_MASK);
            let state = IntentState::from_bytes(&bytes)?;
            let row = Row {
                state,
                loaded: true,
            };
            rows.entry(PartitionId(praw)).or_default().insert(id, row);
        }
        let counter = |name: &str| registry.map_or_else(Counter::detached, |r| r.counter(name));
        Ok(IntentJournal {
            engine,
            rows,
            node: node.raw() & 0xFFFF,
            next_seq: reserved.max(max_seq) + 1,
            reserved,
            acks: counter("meta.async.acks"),
            completions: counter("meta.async.completions"),
            compensations: counter("meta.async.compensations"),
            replays: counter("meta.async.replays"),
        })
    }

    fn row(&self, pid: PartitionId, id: u64) -> Option<&Row> {
        self.rows.get(&pid)?.get(&id)
    }

    fn journaled(&self, pid: PartitionId, id: u64) -> Option<&IntentRecord> {
        match &self.row(pid, id)?.state {
            IntentState::Journaled(rec) => Some(rec),
            IntentState::Compensated(_) => None,
        }
    }

    /// Write `state` as intent `id`'s row — one engine write — and only
    /// then mirror it.
    fn put(&mut self, pid: PartitionId, id: u64, state: IntentState) -> Result<()> {
        self.engine
            .put::<IntentCf>(&(pid.raw(), id), &state.to_bytes())?;
        let m = self.rows.entry(pid).or_default();
        let loaded = m.get(&id).is_some_and(|row| row.loaded);
        m.insert(id, Row { state, loaded });
        Ok(())
    }

    /// Mint an id and durably journal `cmd` under it, before the ack
    /// leaves the node: one engine write, plus one for the high-water mark
    /// at the start of every [`ID_BLOCK`]. A failed write leaves no intent
    /// behind.
    pub(crate) fn journal(
        &mut self,
        pid: PartitionId,
        cmd: MetaCommand,
        ctx: IntentContext,
    ) -> Result<u64> {
        let seq = self.next_seq;
        if seq > self.reserved {
            let mark = seq + ID_BLOCK - 1;
            self.engine.put::<IntentCf>(&MARK_KEY, &mark.to_bytes())?;
            self.reserved = mark;
        }
        let id = (self.node << 48) | (seq & INTENT_SEQ_MASK);
        let rec = IntentRecord {
            id,
            cmd,
            ctx,
            proposed: None,
        };
        self.put(pid, id, IntentState::Journaled(rec))?;
        self.next_seq += 1;
        self.acks.inc();
        Ok(id)
    }

    /// Durably stamp `(term, index)` into a journaled intent whose frame is
    /// about to be proposed, *before* the entry can reach the raft log: a
    /// crash on either side of the propose then leaves the row
    /// classifiable. A failed write leaves the intent unstamped and must
    /// abort the frame.
    pub(crate) fn stamp(&mut self, pid: PartitionId, id: u64, term: u64, index: u64) -> Result<()> {
        let Some(rec) = self.journaled(pid, id) else {
            return Ok(());
        };
        let stamped = IntentRecord {
            proposed: Some((term, index)),
            ..rec.clone()
        };
        self.put(pid, id, IntentState::Journaled(stamped))
    }

    /// The intent's tagged command applied: delete its row and count the
    /// completion (and the replay, if the intent was loaded at open).
    pub(crate) fn retire(&mut self, pid: PartitionId, id: u64) {
        if self.journaled(pid, id).is_none() {
            return;
        }
        let row = self.rows.get_mut(&pid).and_then(|m| m.remove(&id));
        // A row that outlives a failed delete is re-settled after the next
        // reopen: its stamp is below the applied index, so log replay
        // retires it again.
        let _ = self.engine.delete::<IntentCf>(&(pid.raw(), id));
        self.completions.inc();
        if row.is_some_and(|row| row.loaded) {
            self.replays.inc();
        }
    }

    /// Rewrite a journaled intent as its compensation record — one put. A
    /// failed write leaves the row journaled.
    pub(crate) fn compensate(&mut self, pid: PartitionId, id: u64, volume: VolumeId) {
        let Some(rec) = self.journaled(pid, id) else {
            return;
        };
        let comp = CompensationRecord {
            id,
            partition: pid,
            volume,
            fixups: compensation_fixups(&rec.cmd, &rec.ctx),
        };
        if self.put(pid, id, IntentState::Compensated(comp)).is_ok() {
            self.compensations.inc();
        }
    }

    /// The ticket carrying a journaled intent failed. A never-stamped
    /// intent is definitively absent from the raft log and is compensated
    /// now; a stamped one is settled by [`Self::resolve`] once the applied
    /// index passes its stamp.
    pub(crate) fn ticket_failed(&mut self, pid: PartitionId, id: u64, volume: VolumeId) {
        let Some(row) = self.rows.get_mut(&pid).and_then(|m| m.get_mut(&id)) else {
            return;
        };
        if matches!(&row.state, IntentState::Journaled(rec) if rec.proposed.is_none()) {
            row.loaded = true;
            self.compensate(pid, id, volume);
        }
    }

    /// Settle journaled intents the tagged-apply path will never retire.
    /// `view` gives a hosted partition's applied index and tree.
    ///
    /// * A never-stamped loaded intent is definitively absent from the log
    ///   (the stamp is durable before the frame can reach it), so it is
    ///   compensated without consulting the tree — right after a restart
    ///   the tree may still be catching up through log replay, and judging
    ///   a dead intent by a stale tree can mis-retire it as committed.
    /// * A stamped intent whose stamp the applied index has passed, yet
    ///   still journaled, had its slot overwritten by another leader's
    ///   entry (dead), or its effect arrived inside an installed snapshot,
    ///   which skips per-entry retirement. The tree tells the two apart.
    pub(crate) fn resolve<'a>(
        &mut self,
        view: impl Fn(PartitionId) -> Option<(u64, &'a MetaPartition)>,
    ) {
        let mut decided = Vec::new();
        for (&pid, m) in &self.rows {
            let Some((applied, tree)) = view(pid) else {
                continue;
            };
            for (&id, row) in m {
                let IntentState::Journaled(rec) = &row.state else {
                    continue;
                };
                let present = match rec.proposed {
                    None if row.loaded => false,
                    Some((_, index)) if applied >= index => {
                        intent_effect_present(&rec.cmd, &rec.ctx, tree)
                    }
                    _ => continue,
                };
                decided.push((pid, id, (!present).then(|| tree.config().volume_id)));
            }
        }
        for (pid, id, dead) in decided {
            match dead {
                None => self.retire(pid, id),
                // A failed write leaves the row journaled: retried next
                // round.
                Some(volume) => self.compensate(pid, id, volume),
            }
        }
    }

    /// Has every listed intent of `pid` left the journaled state?
    pub(crate) fn settled(&self, pid: PartitionId, ids: &[u64]) -> bool {
        ids.iter().all(|&id| self.journaled(pid, id).is_none())
    }

    /// The listed intents that were compensated, whether or not the sweep
    /// has acked them since.
    pub(crate) fn compensated(&self, ids: &[u64]) -> Vec<u64> {
        let dead = |id: &u64| {
            self.rows.values().any(|m| {
                m.get(id)
                    .is_some_and(|row| matches!(row.state, IntentState::Compensated(_)))
            })
        };
        ids.iter().copied().filter(dead).collect()
    }

    /// `(journaled intents, compensations awaiting the sweep)` of `pid`.
    pub(crate) fn pending(&self, pid: PartitionId) -> (u64, u64) {
        let mut counts = (0, 0);
        for row in self.rows.get(&pid).into_iter().flat_map(|m| m.values()) {
            match &row.state {
                IntentState::Journaled(_) => counts.0 += 1,
                IntentState::Compensated(c) => counts.1 += !c.fixups.is_empty() as u64,
            }
        }
        counts
    }

    /// Does `pid` have no journaled intent?
    pub(crate) fn quiet(&self, pid: PartitionId) -> bool {
        self.pending(pid).0 == 0
    }

    /// `(journaled intents, compensations awaiting the sweep)` across all
    /// partitions.
    pub(crate) fn pending_total(&self) -> (u64, u64) {
        self.rows
            .keys()
            .map(|&pid| self.pending(pid))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Compensation records the orphan sweep still owes, sorted by id.
    pub(crate) fn compensations(&self) -> Vec<CompensationRecord> {
        let mut all: Vec<CompensationRecord> = self
            .rows
            .values()
            .flat_map(|m| m.values())
            .filter_map(|row| match &row.state {
                IntentState::Compensated(c) if !c.fixups.is_empty() => Some(c.clone()),
                _ => None,
            })
            .collect();
        all.sort_by_key(|c| c.id);
        all
    }

    /// The orphan sweep executed these records: rewrite each row with no
    /// fixups. A row whose write failed stays pending, so the sweep fetches
    /// it again and re-acks (the fixups are idempotent).
    pub(crate) fn ack(&mut self, pid: PartitionId, ids: &[u64]) {
        for &id in ids {
            let Some(Row {
                state: IntentState::Compensated(comp),
                ..
            }) = self.row(pid, id)
            else {
                continue;
            };
            if !comp.fixups.is_empty() {
                let acked = CompensationRecord {
                    fixups: Vec::new(),
                    ..comp.clone()
                };
                let _ = self.put(pid, id, IntentState::Compensated(acked));
            }
        }
    }
}

/// Derive the fixups repairing *both halves* of a dead intent's workflow.
/// Every fixup is conditional, so executing it when the other half never
/// committed (or was since re-created by an unrelated op) is a no-op.
pub(crate) fn compensation_fixups(
    cmd: &MetaCommand,
    ctx: &IntentContext,
) -> Vec<(InodeId, MetaCommand)> {
    match (cmd, ctx) {
        // Dead inode half of a create: the planned dentry may have
        // committed on its own partition — remove it if it still points at
        // the pinned id. The inode itself never committed, and EvictIf's
        // stamp guard makes the second fixup a no-op if the id was since
        // legitimately reallocated.
        (
            MetaCommand::CreateInodeAt { id, now_ns, .. },
            IntentContext::PlannedDentry { parent, name },
        ) => vec![
            (
                *parent,
                MetaCommand::RemoveDentryIf {
                    parent: *parent,
                    name: name.clone(),
                    inode: *id,
                },
            ),
            (
                *id,
                MetaCommand::EvictIf {
                    inode: *id,
                    ctime_ns: *now_ns,
                },
            ),
        ],
        // Dead dentry half of a create: the inode half may have committed
        // — evict the unreachable orphan (and clear the dentry if the
        // ambiguity resolution was wrong about it, harmlessly).
        (
            MetaCommand::CreateDentry {
                parent,
                name,
                inode,
                ..
            },
            IntentContext::FreshInode { ctime_ns },
        ) => vec![
            (
                *parent,
                MetaCommand::RemoveDentryIf {
                    parent: *parent,
                    name: name.clone(),
                    inode: *inode,
                },
            ),
            (
                *inode,
                MetaCommand::EvictIf {
                    inode: *inode,
                    ctime_ns: *ctime_ns,
                },
            ),
        ],
        // Dead unlink step 1: forward-complete the deletion — an acked
        // unlink always ends with the name absent.
        (MetaCommand::DeleteDentry { parent, name }, IntentContext::UnlinkedInode { inode }) => {
            vec![(
                *parent,
                MetaCommand::RemoveDentryIf {
                    parent: *parent,
                    name: name.clone(),
                    inode: *inode,
                },
            )]
        }
        // Dead dentry half of a link: roll back the synchronous nlink
        // increment (§2.6.2).
        (MetaCommand::CreateDentry { parent, name, .. }, IntentContext::LinkedInode { inode }) => {
            vec![
                (
                    *parent,
                    MetaCommand::RemoveDentryIf {
                        parent: *parent,
                        name: name.clone(),
                        inode: *inode,
                    },
                ),
                (
                    *inode,
                    MetaCommand::Unlink {
                        inode: *inode,
                        now_ns: 0,
                    },
                ),
            ]
        }
        _ => Vec::new(),
    }
}

/// Did this intent's effect reach `p`'s tree? Used to disambiguate a
/// proposed intent that is still journaled after `applied` passed its
/// index: normally that means its entry was overwritten by another
/// leader's (dead), but an installed snapshot can *contain* the effect
/// while skipping the per-entry retirement — inspection tells the two
/// apart. Identity checks (pinned id, creation stamp, dentry target) keep
/// a later unrelated op from masquerading as our effect.
pub(crate) fn intent_effect_present(
    cmd: &MetaCommand,
    ctx: &IntentContext,
    p: &MetaPartition,
) -> bool {
    match cmd {
        MetaCommand::CreateInodeAt { id, now_ns, .. } => p
            .get_inode(*id)
            .map(|i| i.ctime_ns == *now_ns)
            .unwrap_or(false),
        MetaCommand::CreateDentry {
            parent,
            name,
            inode,
            ..
        } => p
            .get_dentry(*parent, name)
            .map(|d| d.inode == *inode)
            .unwrap_or(false),
        // Deletion's effect is absence; a dentry re-pointed at a different
        // inode also means our delete went through (ids are never reused
        // within a partition).
        MetaCommand::DeleteDentry { parent, name } => match ctx {
            IntentContext::UnlinkedInode { inode } => p
                .get_dentry(*parent, name)
                .map(|d| d.inode != *inode)
                .unwrap_or(true),
            _ => p.get_dentry(*parent, name).is_err(),
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::MetaPartitionConfig;
    use cfs_types::codec::roundtrip;
    use cfs_types::FileType;

    #[test]
    fn intent_and_compensation_records_roundtrip() {
        let rec = IntentRecord {
            id: (42u64 << 48) | 7,
            cmd: MetaCommand::CreateInodeAt {
                id: InodeId(9),
                file_type: FileType::File,
                link_target: vec![],
                now_ns: 11,
            },
            ctx: IntentContext::PlannedDentry {
                parent: InodeId(1),
                name: "x".into(),
            },
            proposed: None,
        };
        assert_eq!(roundtrip(&rec).unwrap(), rec);
        let stamped = IntentRecord {
            proposed: Some((3, 17)),
            ctx: IntentContext::FreshInode { ctime_ns: 5 },
            ..rec.clone()
        };
        assert_eq!(roundtrip(&stamped).unwrap(), stamped);

        let comp = CompensationRecord {
            id: rec.id,
            partition: PartitionId(4),
            volume: VolumeId(2),
            fixups: compensation_fixups(&rec.cmd, &rec.ctx),
        };
        assert_eq!(comp.fixups.len(), 2);
        assert_eq!(roundtrip(&comp).unwrap(), comp);

        // A row's value is either state, and nothing else.
        for state in [
            IntentState::Journaled(stamped),
            IntentState::Compensated(comp),
        ] {
            assert_eq!(roundtrip(&state).unwrap(), state);
        }
        assert!(IntentState::from_bytes(&[2]).is_err());

        // The retired context-free tag is refused, not misread.
        let mut bytes = IntentContext::FreshInode { ctime_ns: 5 }.to_bytes();
        assert_eq!(bytes[0], 2);
        bytes[0] = 0;
        assert!(matches!(
            IntentContext::from_bytes(&bytes),
            Err(CfsError::Corrupt(_))
        ));
    }

    #[test]
    fn fixups_cover_both_halves_of_each_workflow() {
        // Dead inode half of a create: dentry removal + orphan eviction.
        let f = compensation_fixups(
            &MetaCommand::CreateInodeAt {
                id: InodeId(9),
                file_type: FileType::File,
                link_target: vec![],
                now_ns: 11,
            },
            &IntentContext::PlannedDentry {
                parent: InodeId(1),
                name: "x".into(),
            },
        );
        assert!(matches!(
            f[0],
            (
                InodeId(1),
                MetaCommand::RemoveDentryIf {
                    inode: InodeId(9),
                    ..
                }
            )
        ));
        assert!(matches!(
            f[1],
            (InodeId(9), MetaCommand::EvictIf { ctime_ns: 11, .. })
        ));

        // Dead unlink step 1 forward-completes the deletion.
        let f = compensation_fixups(
            &MetaCommand::DeleteDentry {
                parent: InodeId(1),
                name: "x".into(),
            },
            &IntentContext::UnlinkedInode { inode: InodeId(9) },
        );
        assert_eq!(f.len(), 1);
        assert!(matches!(f[0].1, MetaCommand::RemoveDentryIf { .. }));

        // Dead link dentry rolls the nlink increment back.
        let f = compensation_fixups(
            &MetaCommand::CreateDentry {
                parent: InodeId(1),
                name: "hard".into(),
                inode: InodeId(9),
                file_type: FileType::File,
            },
            &IntentContext::LinkedInode { inode: InodeId(9) },
        );
        assert!(matches!(
            f[1].1,
            MetaCommand::Unlink {
                inode: InodeId(9),
                ..
            }
        ));

        // A context that does not belong to the command, no fixups.
        assert!(compensation_fixups(
            &MetaCommand::DeleteDentry {
                parent: InodeId(1),
                name: "x".into()
            },
            &IntentContext::FreshInode { ctime_ns: 1 },
        )
        .is_empty());
    }

    #[test]
    fn effect_inspection_distinguishes_committed_from_overwritten() {
        let mut p = MetaPartition::new(MetaPartitionConfig {
            partition_id: PartitionId(1),
            volume_id: VolumeId(1),
            start: InodeId(1),
            end: InodeId::MAX,
        });
        p.create_inode(FileType::Dir, b"", 0).unwrap();
        let create = MetaCommand::CreateInodeAt {
            id: InodeId(5),
            file_type: FileType::File,
            link_target: vec![],
            now_ns: 7,
        };
        let ctx = IntentContext::PlannedDentry {
            parent: InodeId(1),
            name: "x".into(),
        };
        assert!(!intent_effect_present(&create, &ctx, &p));
        create.apply(&mut p).unwrap();
        assert!(intent_effect_present(&create, &ctx, &p));

        // A *different* inode at the pinned id (reallocation after the
        // intent died) is not our effect.
        let mut q = p.clone();
        q.evict_inode(InodeId(5)).unwrap();
        q.create_inode_at(InodeId(5), FileType::File, b"", 99)
            .unwrap();
        assert!(!intent_effect_present(&create, &ctx, &q));

        // Deletion: effect is absence (or a re-pointed dentry).
        let del = MetaCommand::DeleteDentry {
            parent: InodeId(1),
            name: "x".into(),
        };
        let del_ctx = IntentContext::UnlinkedInode { inode: InodeId(5) };
        assert!(intent_effect_present(&del, &del_ctx, &p), "never created");
        p.create_dentry(InodeId(1), "x", InodeId(5), FileType::File)
            .unwrap();
        assert!(!intent_effect_present(&del, &del_ctx, &p));
    }
}
