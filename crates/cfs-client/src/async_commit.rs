//! Client half of the asynchronous metadata commit (DESIGN §12).
//!
//! The mutating workflows (create/link/unlink) are written once, over one
//! step primitive ([`Client::dentry_step`], and
//! [`Client::create_inode_anywhere`] for the allocating step). With
//! [`crate::ClientOptions::async_meta`] set a step is a `WriteAsync`: in a
//! clean window the leader answers once the op is durably journaled as an
//! *intent* — zero consensus rounds on the ack path — and otherwise it
//! commits the op synchronously inside the same RPC, as it does every
//! step of a mount without the option. The client remembers every
//! [`Acked`] intent and which node holds its journal entry;
//! `fsync`/`close` drain that list through a strong barrier, and a
//! barrier that reports a *compensated* (rolled-back) intent surfaces as
//! a durability error, exactly like a failed `fsync` on a local file
//! system with delayed allocation.

use cfs_meta::{IntentContext, MetaCommand, MetaRequest, MetaResponse};
use cfs_types::{CfsError, Dentry, InodeId, NodeId, PartitionId, Result};

use crate::client::{Client, MaxSpecific, MAX_RETRIES};

/// Where a journal-acked step's intent lives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Acked {
    pub partition: PartitionId,
    /// Node that acked (and journaled) the intent. The barrier must go
    /// back to it — the intent journal is node-local, and resolution
    /// advances there whether or not it still leads.
    pub node: NodeId,
    pub intent: u64,
}

/// One acked-but-unbarriered intent the client still owes a barrier.
#[derive(Debug, Clone)]
pub(crate) struct AsyncIntent {
    pub acked: Acked,
    /// Whether compensation of this intent *rolls the op back* (create /
    /// link halves) — a durability failure the next barrier must report.
    /// `false` only for an unlink's dentry delete: its compensation
    /// forward-completes it, so a compensation still means "the name is
    /// gone" = success, and the unlink's nlink-- half waits for this
    /// intent's barrier.
    pub rollback_on_comp: bool,
    /// Directory entry the op touched, for cache invalidation on
    /// rollback.
    pub parent: InodeId,
    pub inode: InodeId,
}

impl Client {
    // ------------------------------------------------------------------
    // The workflow step
    // ------------------------------------------------------------------

    /// The request one workflow step sends to `partition`: journaled when
    /// the mount asked for it (`ctx` = what a compensation would need to
    /// know), a plain replicated write otherwise.
    pub(crate) fn step_request(
        partition: PartitionId,
        cmd: MetaCommand,
        ctx: Option<IntentContext>,
    ) -> MetaRequest {
        match ctx {
            Some(ctx) => MetaRequest::WriteAsync {
                partition,
                cmd,
                ctx,
            },
            None => MetaRequest::Write {
                partition,
                cmds: vec![cmd],
            },
        }
    }

    /// One dentry step of a workflow, routed by the parent directory
    /// (same split-handoff loop as [`Client::meta_write_at`]); `ctx` is
    /// only evaluated for the journaled form. Returns the dentry and
    /// whether the leader acked early (the intent is then remembered for
    /// the barrier). Domain errors (`Exists`, …) surface synchronously in
    /// both forms, nothing acked.
    pub(crate) fn dentry_step(
        &self,
        parent: InodeId,
        cmd: MetaCommand,
        rollback_on_comp: bool,
        ctx: impl FnOnce() -> Result<IntentContext>,
    ) -> Result<(Dentry, bool)> {
        let ctx = self.options.async_meta.then(ctx).transpose()?;
        let (v, acked) = self.meta_call_at(parent, |partition| {
            Self::step_request(partition, cmd.clone(), ctx.clone())
        })?;
        let dentry = v.into_dentry()?;
        self.record_async_intent(acked, rollback_on_comp, parent, dentry.inode);
        Ok((dentry, acked.is_some()))
    }

    // ------------------------------------------------------------------
    // Outstanding-intent bookkeeping
    // ------------------------------------------------------------------

    /// Remember a step the leader acked early; a step it committed
    /// (`None`) owes no barrier.
    pub(crate) fn record_async_intent(
        &self,
        acked: Option<Acked>,
        rollback_on_comp: bool,
        parent: InodeId,
        inode: InodeId,
    ) {
        if let Some(acked) = acked {
            self.cache.lock().async_pending.push(AsyncIntent {
                acked,
                rollback_on_comp,
                parent,
                inode,
            });
        }
    }

    /// Acked intents not yet drained by a barrier (tests/chaos observe
    /// this to know a quiesce still owes an `fsync`).
    pub fn async_pending_count(&self) -> usize {
        self.cache.lock().async_pending.len()
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
    /// caches for rolled-back ops and run the second half of each
    /// barriered unlink. Returns an error if any *rollback* compensation
    /// was reported (the acked op did not survive) or a barrier could not
    /// be served — unreached intents stay queued for the next drain.
    pub fn drain_async_commits(&self) -> Result<()> {
        // The small-file coalescer drains under the same barrier
        // (DESIGN §13): after this returns, no acked small write is
        // still sitting in a client buffer.
        self.flush_small_writes()?;
        let pending = std::mem::take(&mut self.cache.lock().async_pending);

        // Batch by (node, partition): one barrier per journal.
        let mut groups: Vec<((NodeId, PartitionId), Vec<AsyncIntent>)> = Vec::new();
        for ai in pending {
            let key = (ai.acked.node, ai.acked.partition);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(ai),
                None => groups.push((key, vec![ai])),
            }
        }

        let mut first_err: Option<CfsError> = None;
        let mut rolled_back = 0usize;
        for ((node, partition), group) in groups {
            let intents: Vec<u64> = group.iter().map(|a| a.acked.intent).collect();
            match self.barrier_call(node, partition, &intents) {
                Ok(compensated) => {
                    for ai in group {
                        if !ai.rollback_on_comp {
                            // The dentry delete is forward-completed even
                            // when compensated, so nlink-- runs
                            // regardless, now that its barrier answered.
                            if let Err(e) = self.finish_unlink(ai.inode) {
                                first_err.get_or_insert(e);
                            }
                        } else if compensated.contains(&ai.acked.intent) {
                            // The op was rolled back after its ack: drop
                            // every cache entry that still reflects it.
                            self.uncache_inode(ai.inode);
                            self.invalidate_parent(ai.parent);
                            rolled_back += 1;
                        }
                    }
                }
                Err(e) => {
                    self.cache.lock().async_pending.extend(group);
                    first_err.get_or_insert(e);
                }
            }
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
}
