//! Client half of the asynchronous metadata commit (DESIGN §12).
//!
//! With [`crate::ClientOptions::async_meta`] set, the mutating workflows
//! (create/link/unlink) return once the op is durably journaled as an
//! *intent* at the serving meta node — zero consensus rounds on the ack
//! path. The client remembers every acked intent and which node holds its
//! journal entry; `fsync`/`close` drain that list through a strong
//! barrier, and a barrier that reports a *compensated* (rolled-back)
//! intent surfaces as a durability error, exactly like a failed `fsync`
//! on a local file system with delayed allocation.

use std::collections::HashSet;

use cfs_meta::{IntentContext, MetaCommand, MetaRequest, MetaResponse, MetaValue};
use cfs_types::{CfsError, Inode, InodeId, NodeId, PartitionId, Result};

use crate::client::{Client, MaxSpecific, MAX_RETRIES};

/// One acked-but-unbarriered intent the client still owes a barrier.
#[derive(Debug, Clone)]
pub(crate) struct AsyncIntent {
    pub partition: PartitionId,
    /// Node that acked (and journaled) the intent. The barrier must go
    /// back to it — the intent journal is node-local, and resolution
    /// advances there whether or not it still leads.
    pub node: NodeId,
    pub intent: u64,
    /// Whether compensation of this intent *rolls the op back* (create /
    /// link halves) — a durability failure the next barrier must report.
    /// Unlink intents are forward-completed by their compensation, so
    /// for them a compensation still means "the name is gone" = success.
    pub rollback_on_comp: bool,
    /// Directory entry the op touched, for cache invalidation on
    /// rollback.
    pub parent: InodeId,
    pub inode: InodeId,
}

impl Client {
    // ------------------------------------------------------------------
    // Ack-path RPCs
    // ------------------------------------------------------------------

    /// Async replicated write to a specific partition. `Ok(None)` means
    /// the leader declined (`SyncFallback`: the partition was not in a
    /// clean window) and the caller must take the synchronous path;
    /// domain errors (`Exists`, …) surface synchronously, nothing acked.
    pub(crate) fn meta_write_async(
        &self,
        partition: PartitionId,
        members: &[NodeId],
        cmd: MetaCommand,
        ctx: IntentContext,
    ) -> Result<Option<(NodeId, u64, MetaValue)>> {
        let req = MetaRequest::WriteAsync {
            partition,
            cmd,
            ctx,
        };
        match self.meta_call_raw(partition, members, req)? {
            (node, MetaResponse::Acked { intent, value }) => Ok(Some((node, intent, value))),
            (_, MetaResponse::SyncFallback) => Ok(None),
            _ => Err(CfsError::Internal("unexpected meta response".into())),
        }
    }

    /// Inode-routed async write: the same split-handoff loop as
    /// [`Client::meta_write_at`] (refresh + re-route on `RangeMoved`).
    pub(crate) fn meta_write_async_at(
        &self,
        inode: InodeId,
        cmd: MetaCommand,
        ctx: IntentContext,
    ) -> Result<Option<(PartitionId, NodeId, u64, MetaValue)>> {
        let mut last_err = CfsError::NotFound(format!("no meta partition for {inode}"));
        for pass in 0..=MAX_RETRIES {
            self.retry_pause(pass, "meta_route", |c| {
                c.stats.view_refreshes.inc();
                c.refresh_partition_table()
            })?;
            let (partition, members) = self.meta_partition_of(inode)?;
            match self.meta_write_async(partition, &members, cmd.clone(), ctx.clone()) {
                Err(e @ CfsError::RangeMoved { .. }) => last_err = e,
                Ok(Some((node, intent, value))) => {
                    return Ok(Some((partition, node, intent, value)))
                }
                other => return other.map(|_| None),
            }
        }
        Err(CfsError::RetriesExhausted {
            op: format!("meta_write_async_at({inode})"),
            attempts: MAX_RETRIES + 1,
        }
        .max_specific(last_err))
    }

    /// Async inode allocation on *some* writable meta partition — the
    /// asynchronous twin of [`Client::create_inode_anywhere`], carrying
    /// the planned dentry as the intent's compensation context.
    pub(crate) fn create_inode_async(
        &self,
        file_type: cfs_types::FileType,
        link_target: &[u8],
        parent: InodeId,
        name: &str,
    ) -> Result<Option<(PartitionId, NodeId, u64, Inode)>> {
        let mut last_err = CfsError::Unavailable("no writable meta partitions".into());
        for pass in 0..=MAX_RETRIES {
            self.retry_pause(pass, "meta_route", |c| {
                c.stats.view_refreshes.inc();
                c.refresh_partition_table()
            })?;
            let (partition, members) = self.random_meta_partition()?;
            let cmd = MetaCommand::CreateInode {
                file_type,
                link_target: link_target.to_vec(),
                now_ns: self.now_ns(),
            };
            let ctx = IntentContext::PlannedDentry {
                parent,
                name: name.to_string(),
            };
            match self.meta_write_async(partition, &members, cmd, ctx) {
                Ok(Some((node, intent, v))) => {
                    return Ok(Some((partition, node, intent, v.into_inode()?)))
                }
                Ok(None) => return Ok(None),
                Err(
                    e @ (CfsError::PartitionFull(_)
                    | CfsError::ReadOnly(_)
                    | CfsError::RangeMoved { .. }),
                ) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(CfsError::RetriesExhausted {
            op: "create_inode_async".into(),
            attempts: MAX_RETRIES + 1,
        }
        .max_specific(last_err))
    }

    // ------------------------------------------------------------------
    // Outstanding-intent bookkeeping
    // ------------------------------------------------------------------

    pub(crate) fn record_async_intent(&self, ai: AsyncIntent) {
        self.cache.lock().async_pending.push(ai);
    }

    /// Defer the second half of an unlink (nlink-- and the threshold
    /// mark) until `intent` — the dentry delete — has been barriered.
    pub(crate) fn defer_unlink(&self, intent: u64, inode: InodeId) {
        self.cache.lock().deferred_unlinks.push((intent, inode));
    }

    /// Acked intents not yet drained by a barrier (tests/chaos observe
    /// this to know a quiesce still owes an `fsync`).
    pub fn async_pending_count(&self) -> usize {
        let cache = self.cache.lock();
        cache.async_pending.len() + cache.deferred_unlinks.len()
    }

    // ------------------------------------------------------------------
    // The strong barrier (fsync / close)
    // ------------------------------------------------------------------

    /// Direct barrier RPC to the node that journaled `intents`; returns
    /// the subset that was compensated rather than committed.
    fn barrier_call(
        &self,
        node: NodeId,
        partition: PartitionId,
        intents: &[u64],
    ) -> Result<Vec<u64>> {
        let mut last_err = CfsError::Unavailable(format!("{node:?} unreachable"));
        for pass in 0..=MAX_RETRIES {
            self.retry_pause(pass, "barrier", |_| Ok(()))?;
            let req = MetaRequest::Barrier {
                partition,
                intents: intents.to_vec(),
            };
            match self.fabrics.meta.call(self.id, node, req) {
                Ok(Ok(MetaResponse::Drained { compensated })) => return Ok(compensated),
                Ok(Ok(_)) => return Err(CfsError::Internal("unexpected meta response".into())),
                Ok(Err(e)) if e.is_retryable() => last_err = e,
                Ok(Err(e)) => return Err(e),
                Err(e) => last_err = e,
            }
        }
        Err(CfsError::RetriesExhausted {
            op: format!("barrier({partition})"),
            attempts: MAX_RETRIES + 1,
        }
        .max_specific(last_err))
    }

    /// Drain every outstanding async intent (DESIGN §12 barrier
    /// semantics): barrier each (node, partition) batch, invalidate
    /// caches for rolled-back ops, then run the deferred unlink second
    /// halves. Returns an error if any *rollback* compensation was
    /// reported (the acked op did not survive) or a barrier could not be
    /// served — unreached intents stay queued for the next drain.
    pub fn drain_async_commits(&self) -> Result<()> {
        // The small-file coalescer drains under the same barrier
        // (DESIGN §13): after this returns, no acked small write is
        // still sitting in a client buffer.
        self.flush_small_writes()?;
        let (pending, deferred) = {
            let mut cache = self.cache.lock();
            (
                std::mem::take(&mut cache.async_pending),
                std::mem::take(&mut cache.deferred_unlinks),
            )
        };
        if pending.is_empty() && deferred.is_empty() {
            return Ok(());
        }

        // Batch by (node, partition): one barrier per journal.
        let mut groups: Vec<((NodeId, PartitionId), Vec<AsyncIntent>)> = Vec::new();
        for ai in pending {
            let key = (ai.node, ai.partition);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(ai),
                None => groups.push((key, vec![ai])),
            }
        }

        let mut first_err: Option<CfsError> = None;
        let mut rolled_back = 0usize;
        let mut unreached: Vec<AsyncIntent> = Vec::new();
        for ((node, partition), group) in groups {
            let intents: Vec<u64> = group.iter().map(|a| a.intent).collect();
            match self.barrier_call(node, partition, &intents) {
                Ok(compensated) => {
                    for ai in group {
                        if compensated.contains(&ai.intent) && ai.rollback_on_comp {
                            // The op was rolled back after its ack: drop
                            // every cache entry that still reflects it.
                            self.uncache_inode(ai.inode);
                            self.invalidate_parent(ai.parent);
                            rolled_back += 1;
                        }
                    }
                }
                Err(e) => {
                    unreached.extend(group);
                    first_err.get_or_insert(e);
                }
            }
        }

        // Unlink second halves. The dentry delete is forward-completed
        // even when compensated, so nlink-- runs regardless — but only
        // once its barrier actually answered; otherwise keep deferring.
        let unreached_ids: HashSet<u64> = unreached.iter().map(|a| a.intent).collect();
        let mut redeferred: Vec<(u64, InodeId)> = Vec::new();
        for (intent, ino) in deferred {
            if unreached_ids.contains(&intent) {
                redeferred.push((intent, ino));
                continue;
            }
            if let Err(e) = self.finish_unlink(ino) {
                first_err.get_or_insert(e);
            }
        }

        {
            let mut cache = self.cache.lock();
            cache.async_pending.extend(unreached);
            cache.deferred_unlinks.extend(redeferred);
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if rolled_back > 0 {
            return Err(CfsError::Unavailable(format!(
                "async commit: {rolled_back} acked op(s) rolled back"
            )));
        }
        Ok(())
    }

    /// The deferred second half of an async unlink: nlink-- at the
    /// inode's node, then the §2.6.3 threshold mark — the same tail as
    /// the synchronous workflow.
    fn finish_unlink(&self, ino: InodeId) -> Result<()> {
        let (ino_partition, _) = self.meta_partition_of(ino)?;
        match self.meta_write_at(
            ino,
            MetaCommand::Unlink {
                inode: ino,
                now_ns: self.now_ns(),
            },
        ) {
            Ok(v) => {
                let inode = v.into_inode()?;
                self.uncache_inode(ino);
                if inode.nlink == 0 {
                    let _ = self.meta_write_at(ino, MetaCommand::MarkDeleted { inode: ino });
                    self.push_orphan(ino_partition, ino);
                }
                Ok(())
            }
            // Already reclaimed (an earlier pass or fsck got there).
            Err(CfsError::NotFound(_)) => Ok(()),
            Err(e) => {
                self.push_orphan(ino_partition, ino);
                Err(e)
            }
        }
    }
}
