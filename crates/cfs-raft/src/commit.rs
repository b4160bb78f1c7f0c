//! Group commit: the one way a state machine replicates a command.
//!
//! Meta partitions (§2.1), data-partition overwrites (§2.2.4) and the
//! resource manager (§2.3) all propose through [`GroupCommit`]. Commands
//! queued within a hub round go out as ONE batch frame per group, so they
//! cost one consensus round (§2.1.3); one frame is in flight per group.
//! A frame's results go only to the tickets of the frame this node
//! proposed at that `(term, index)`: if the group loses leadership or
//! changes term first, or another leader's entry takes the frame's slot,
//! every ticket in it fails with a retryable `NotLeader`.

use std::collections::HashMap;

use cfs_types::{CfsError, NodeId, PartitionId, RaftGroupId, Result};

use crate::log::Entry;
use crate::multiraft::MultiRaft;
use crate::node::decode_batch_frame;

/// Ticks a caller pumps the hub for its ticket (or a read barrier)
/// before it reports `Timeout`; the client then retries (§2.1.3).
pub const COMMIT_TIMEOUT_TICKS: u64 = 2_000;

/// Who is owed a command's outcome.
#[derive(Debug)]
enum Waiter<T> {
    /// A caller blocks on this ticket and takes the result.
    Ticket(u64),
    /// Nobody takes the result; if no frame carries the command into the
    /// log, the tag is handed back to the embedding layer.
    Detached(T),
    /// The caller gave up; the outcome is dropped.
    Abandoned,
}

/// A queued command and who is owed its outcome.
type Queued<T> = (Waiter<T>, Vec<u8>);

/// The batch frame a group has going through consensus.
#[derive(Debug)]
struct Frame<T> {
    term: u64,
    index: u64,
    waiters: Vec<Waiter<T>>,
}

/// Group-commit pipeline for every Raft group one node hosts. `R` is what
/// the state machine's apply returns; `T` tags a detached command (one no
/// caller waits for) so the embedding layer learns when it never reached
/// the log.
#[derive(Debug)]
pub struct GroupCommit<R, T = ()> {
    /// Commands enqueued since the group's last frame, never empty.
    queues: HashMap<RaftGroupId, Vec<Queued<T>>>,
    inflight: HashMap<RaftGroupId, Frame<T>>,
    /// Outcomes awaiting pickup by a waiting caller, keyed by ticket.
    results: HashMap<u64, Result<R>>,
    next_ticket: u64,
}

impl<R, T> Default for GroupCommit<R, T> {
    fn default() -> Self {
        GroupCommit {
            queues: HashMap::new(),
            inflight: HashMap::new(),
            results: HashMap::new(),
            next_ticket: 0,
        }
    }
}

fn not_leader(group: RaftGroupId, hint: Option<NodeId>) -> CfsError {
    CfsError::NotLeader {
        partition: PartitionId(group.raw()),
        hint,
    }
}

impl<R, T: Copy> GroupCommit<R, T> {
    /// Queue `cmd` for `group`'s next frame. The returned ticket resolves
    /// once that frame applies or fails ([`Self::take`]).
    pub fn enqueue(&mut self, group: RaftGroupId, cmd: Vec<u8>) -> u64 {
        self.next_ticket += 1;
        self.push(group, Waiter::Ticket(self.next_ticket), cmd);
        self.next_ticket
    }

    /// Queue a command no caller waits for. Its result is dropped; if no
    /// frame ever carries it into the log, `tag` comes back from
    /// [`Self::flush`].
    pub fn enqueue_detached(&mut self, group: RaftGroupId, cmd: Vec<u8>, tag: T) {
        self.push(group, Waiter::Detached(tag), cmd);
    }

    fn push(&mut self, group: RaftGroupId, waiter: Waiter<T>, cmd: Vec<u8>) {
        self.queues.entry(group).or_default().push((waiter, cmd));
    }

    /// Has `ticket`'s outcome arrived?
    pub fn is_resolved(&self, ticket: u64) -> bool {
        self.results.contains_key(&ticket)
    }

    /// Take `ticket`'s outcome, if it has arrived.
    pub fn take(&mut self, ticket: u64) -> Option<Result<R>> {
        self.results.remove(&ticket)
    }

    /// The caller of `ticket` stops waiting. Returns true when the command
    /// was still queued: it is withdrawn and never proposed. Otherwise its
    /// frame is in flight and may still commit; the outcome is dropped.
    pub fn abandon(&mut self, group: RaftGroupId, ticket: u64) -> bool {
        let is_it = |w: &Waiter<T>| matches!(w, Waiter::Ticket(id) if *id == ticket);
        self.results.remove(&ticket);
        if let Some(frame) = self.inflight.get_mut(&group) {
            for w in frame.waiters.iter_mut().filter(|w| is_it(w)) {
                *w = Waiter::Abandoned;
            }
        }
        let Some(queue) = self.queues.get_mut(&group) else {
            return false;
        };
        let before = queue.len();
        queue.retain(|(w, _)| !is_it(w));
        let withdrawn = queue.len() < before;
        if queue.is_empty() {
            self.queues.remove(&group);
        }
        withdrawn
    }

    /// Nothing queued and no frame in flight for `group`.
    pub fn is_idle(&self, group: RaftGroupId) -> bool {
        !self.queues.contains_key(&group) && !self.inflight.contains_key(&group)
    }

    /// Nothing queued, in flight or awaiting pickup, in any group.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty() && self.inflight.is_empty() && self.results.is_empty()
    }

    /// Once per hub round, before draining `multiraft`: fail every frame
    /// whose group lost leadership or changed term (it can never resolve),
    /// then fold each idle group's accumulator into one frame and propose
    /// it.
    ///
    /// `stamp(group, (term, index), tags)` runs just before a frame is
    /// proposed, with the slot the frame will take and the tags of its
    /// detached commands; an error aborts the frame. Returns the tags of
    /// detached commands whose frame could not be proposed: they are
    /// definitively absent from the log. (A proposed one that never
    /// commits is the embedding layer's to settle from the log.)
    pub fn flush(
        &mut self,
        multiraft: &mut MultiRaft,
        mut stamp: impl FnMut(RaftGroupId, (u64, u64), &[T]) -> Result<()>,
    ) -> Vec<(RaftGroupId, T)> {
        let mut lost = Vec::new();
        let mut groups: Vec<RaftGroupId> = self
            .inflight
            .keys()
            .chain(self.queues.keys())
            .copied()
            .collect();
        groups.sort_unstable();
        groups.dedup();
        for group in groups {
            if let Some(frame) = self.inflight.get(&group) {
                let node = multiraft.group(group);
                if node.is_some_and(|g| g.is_leader() && g.term() == frame.term) {
                    continue; // still replicating
                }
                let hint = node.and_then(|g| g.leader_hint());
                let frame = self.inflight.remove(&group).expect("checked above");
                self.fail(frame.waiters, &not_leader(group, hint));
            }
            let Some(queue) = self.queues.remove(&group) else {
                continue;
            };
            let (waiters, cmds): (Vec<Waiter<T>>, Vec<Vec<u8>>) = queue.into_iter().unzip();
            let tags: Vec<T> = waiters
                .iter()
                .filter_map(|w| match w {
                    Waiter::Detached(tag) => Some(*tag),
                    _ => None,
                })
                .collect();
            let proposed = match multiraft.group_mut(group) {
                None => Err(CfsError::NotFound(format!("{}", PartitionId(group.raw())))),
                Some(g) => g.require_leader().and_then(|()| {
                    let slot = (g.term(), g.last_index() + 1);
                    stamp(group, slot, &tags)?;
                    let index = g.propose_batch(cmds)?;
                    debug_assert_eq!(index, slot.1, "stamped slot must match the propose");
                    Ok(slot)
                }),
            };
            match proposed {
                Ok((term, index)) => {
                    let frame = Frame {
                        term,
                        index,
                        waiters,
                    };
                    self.inflight.insert(group, frame);
                }
                Err(e) => lost.extend(self.fail(waiters, &e).into_iter().map(|t| (group, t))),
            }
        }
        lost
    }

    /// Apply `group`'s newly committed entries in order. Every frame's
    /// sub-commands go through `apply` on every replica; the results go to
    /// tickets only when the entry is the frame this node proposed at that
    /// `(term, index)`. A frame whose slot another term's entry took fails
    /// with `NotLeader` (`hint` names the leader). A non-empty entry that
    /// is not a frame is `Corrupt` and applies nothing.
    pub fn apply(
        &mut self,
        group: RaftGroupId,
        committed: Vec<Entry>,
        hint: Option<NodeId>,
        mut apply: impl FnMut(&[u8]) -> Result<R>,
    ) {
        for entry in committed {
            let mine = match self.inflight.get(&group) {
                Some(frame) if frame.index == entry.index => {
                    let frame = self.inflight.remove(&group).expect("checked above");
                    if frame.term == entry.term {
                        Some(frame.waiters)
                    } else {
                        self.fail(frame.waiters, &not_leader(group, hint));
                        None
                    }
                }
                _ => None,
            };
            if entry.data.is_empty() {
                continue; // a new leader's no-op
            }
            let results = decode_batch_frame(&entry.data)
                .map(|cmds| cmds.into_iter().map(&mut apply).collect::<Vec<_>>());
            let Some(waiters) = mine else {
                continue;
            };
            match results {
                Ok(results) => {
                    debug_assert_eq!(waiters.len(), results.len());
                    for (w, r) in waiters.into_iter().zip(results) {
                        if let Waiter::Ticket(ticket) = w {
                            self.results.insert(ticket, r);
                        }
                    }
                }
                Err(e) => {
                    self.fail(waiters, &e);
                }
            }
        }
    }

    /// Fail every waiting caller with `err`; return the detached tags.
    fn fail(&mut self, waiters: Vec<Waiter<T>>, err: &CfsError) -> Vec<T> {
        let mut detached = Vec::new();
        for w in waiters {
            match w {
                Waiter::Ticket(ticket) => {
                    self.results.insert(ticket, Err(err.clone()));
                }
                Waiter::Detached(tag) => detached.push(tag),
                Waiter::Abandoned => {}
            }
        }
        detached
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;

    use cfs_types::FaultState;

    use super::*;
    use crate::config::{RaftConfig, ELECTION_TIMEOUT_MAX};
    use crate::hub::{RaftHost, RaftHub};
    use crate::multiraft::WireEnvelope;
    use crate::node::encode_batch_frame;

    const G: RaftGroupId = RaftGroupId(1);

    /// A single-member group that has elected itself and applied its no-op.
    fn solo() -> MultiRaft {
        let mut mr = MultiRaft::new(NodeId(1), RaftConfig::default(), 1, true);
        mr.create_group(G, vec![NodeId(1)]).unwrap();
        for _ in 0..ELECTION_TIMEOUT_MAX {
            mr.tick_all();
        }
        assert!(mr.group(G).unwrap().is_leader());
        mr.drain();
        mr
    }

    fn no_stamp(_: RaftGroupId, _: (u64, u64), _: &[u64]) -> Result<()> {
        Ok(())
    }

    /// Apply every committed entry with an echo state machine that records
    /// what it applied.
    fn drain_into(
        mr: &mut MultiRaft,
        gc: &mut GroupCommit<Vec<u8>, u64>,
        applied: &mut Vec<Vec<u8>>,
    ) {
        let (_, readies) = mr.drain();
        for (group, ready) in readies {
            gc.apply(group, ready.committed, None, |cmd| {
                applied.push(cmd.to_vec());
                Ok(cmd.to_vec())
            });
        }
    }

    #[test]
    fn frame_overtaken_at_its_index_fails_every_ticket_with_not_leader() {
        let mut mr = solo();
        let mut gc: GroupCommit<Vec<u8>, u64> = GroupCommit::default();
        let a = gc.enqueue(G, b"A".to_vec());
        gc.enqueue_detached(G, b"A-async".to_vec(), 7);
        assert!(gc.flush(&mut mr, no_stamp).is_empty());
        let (term, index) = {
            let g = mr.group(G).unwrap();
            (g.term(), g.last_index())
        };
        // Another leader's entry took the frame's slot in a later term.
        let winner = Entry {
            index,
            term: term + 1,
            data: encode_batch_frame(&[b"B".to_vec()]),
        };
        let mut applied = Vec::new();
        gc.apply(G, vec![winner], Some(NodeId(2)), |cmd| {
            applied.push(cmd.to_vec());
            Ok(cmd.to_vec())
        });
        assert_eq!(applied, vec![b"B".to_vec()], "the replica applies it");
        match gc.take(a) {
            Some(Err(CfsError::NotLeader { hint, .. })) => assert_eq!(hint, Some(NodeId(2))),
            other => panic!("the caller of A must not get B's result: {other:?}"),
        }
        assert!(gc.is_empty());
    }

    #[test]
    fn abandoned_ticket_leaves_nothing_behind() {
        let mut mr = solo();
        let mut gc: GroupCommit<Vec<u8>, u64> = GroupCommit::default();
        let last = mr.group(G).unwrap().last_index();

        // Still queued: withdrawn, never proposed.
        let queued = gc.enqueue(G, b"queued".to_vec());
        assert!(gc.abandon(G, queued));
        assert!(gc.is_empty() && gc.is_idle(G));
        gc.flush(&mut mr, no_stamp);
        assert_eq!(mr.group(G).unwrap().last_index(), last, "nothing proposed");

        // Already in a frame: it still commits, and its outcome is dropped.
        let flown = gc.enqueue(G, b"flown".to_vec());
        gc.flush(&mut mr, no_stamp);
        assert!(!gc.abandon(G, flown));
        let mut applied = Vec::new();
        drain_into(&mut mr, &mut gc, &mut applied);
        assert_eq!(applied, vec![b"flown".to_vec()]);
        assert!(!gc.is_resolved(flown));
        assert!(gc.is_empty(), "no frame, queue or result left behind");
    }

    #[test]
    fn frame_resolves_its_tickets_in_order_and_only_once() {
        let mut mr = solo();
        let mut gc: GroupCommit<Vec<u8>, u64> = GroupCommit::default();
        let t1 = gc.enqueue(G, b"one".to_vec());
        gc.enqueue_detached(G, b"async".to_vec(), 3);
        let t2 = gc.enqueue(G, b"two".to_vec());
        gc.flush(&mut mr, no_stamp);
        // One frame in flight: a later command waits for the next one.
        let t3 = gc.enqueue(G, b"three".to_vec());
        gc.flush(&mut mr, no_stamp);
        let mut applied = Vec::new();
        drain_into(&mut mr, &mut gc, &mut applied);
        assert_eq!(applied.len(), 3);
        assert_eq!(gc.take(t1).unwrap().unwrap(), b"one");
        assert_eq!(gc.take(t2).unwrap().unwrap(), b"two");
        assert!(!gc.is_resolved(t3));
        gc.flush(&mut mr, no_stamp);
        drain_into(&mut mr, &mut gc, &mut applied);
        assert_eq!(gc.take(t3).unwrap().unwrap(), b"three");
        assert!(gc.take(t3).is_none());
        assert!(gc.is_empty());
    }

    #[test]
    fn failed_stamp_aborts_the_frame() {
        let mut mr = solo();
        let mut gc: GroupCommit<Vec<u8>, u64> = GroupCommit::default();
        let last = mr.group(G).unwrap().last_index();
        let t = gc.enqueue(G, b"sync".to_vec());
        gc.enqueue_detached(G, b"async".to_vec(), 9);
        let lost = gc.flush(&mut mr, |group, slot, tags| {
            assert_eq!((group, slot.1, tags), (G, last + 1, &[9][..]));
            Err(CfsError::Io("stamp".into()))
        });
        assert_eq!(lost, vec![(G, 9)]);
        assert!(matches!(gc.take(t), Some(Err(CfsError::Io(_)))));
        assert_eq!(mr.group(G).unwrap().last_index(), last, "nothing proposed");
        assert!(gc.is_empty());
    }

    #[test]
    fn entry_that_is_not_a_frame_applies_nothing() {
        let mut gc: GroupCommit<Vec<u8>, u64> = GroupCommit::default();
        let raw = Entry {
            index: 5,
            term: 1,
            data: b"\x01raw command".to_vec(),
        };
        let mut calls = 0;
        gc.apply(G, vec![raw], None, |cmd| {
            calls += 1;
            Ok(cmd.to_vec())
        });
        assert_eq!(calls, 0);
    }

    /// A replica whose state machine echoes each command.
    struct Host {
        id: NodeId,
        mr: Mutex<MultiRaft>,
        gc: Mutex<GroupCommit<Vec<u8>>>,
        applied: Mutex<Vec<Vec<u8>>>,
    }

    impl RaftHost for Host {
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn raft_tick(&self) {
            self.mr.lock().tick_all();
        }
        fn raft_drain(&self) -> Vec<WireEnvelope> {
            let (mut mr, mut gc) = (self.mr.lock(), self.gc.lock());
            gc.flush(&mut mr, |_, _, _| Ok(()));
            let (msgs, readies) = mr.drain();
            for (group, ready) in readies {
                let hint = mr.group(group).and_then(|g| g.leader_hint());
                gc.apply(group, ready.committed, hint, |cmd| {
                    self.applied.lock().push(cmd.to_vec());
                    Ok(cmd.to_vec())
                });
            }
            msgs
        }
        fn raft_deliver(&self, env: WireEnvelope) {
            self.mr.lock().receive(env.from, env.msg);
        }
    }

    #[test]
    fn deposed_leaders_frame_fails_and_never_takes_the_winners_result() {
        let hub = RaftHub::new();
        let faults = FaultState::new();
        hub.set_faults(faults.clone());
        let ids: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let hosts: Vec<Arc<Host>> = ids
            .iter()
            .map(|&id| {
                let mut mr = MultiRaft::new(id, RaftConfig::default(), 11, true);
                mr.create_group(G, ids.clone()).unwrap();
                Arc::new(Host {
                    id,
                    mr: Mutex::new(mr),
                    gc: Mutex::new(GroupCommit::default()),
                    applied: Mutex::new(Vec::new()),
                })
            })
            .collect();
        for h in &hosts {
            hub.register(h.clone() as Arc<dyn RaftHost>);
        }
        let leads = |h: &Host| h.mr.lock().group(G).unwrap().is_leader();
        assert!(hub.pump_until(|| hosts.iter().any(|h| leads(h)), 2_000));
        let old = hosts.iter().find(|h| leads(h)).unwrap().clone();

        // The leader proposes A, cut off from both followers.
        for h in hosts.iter().filter(|h| h.id != old.id) {
            faults.set_partitioned(old.id, h.id, true);
        }
        let a = old.gc.lock().enqueue(G, b"A".to_vec());
        hub.pump();
        assert!(!old.gc.lock().is_idle(G), "A's frame is in flight");

        // The majority elects a new leader, which commits B.
        assert!(hub.pump_until(|| hosts.iter().any(|h| h.id != old.id && leads(h)), 5_000));
        let new = hosts
            .iter()
            .find(|h| h.id != old.id && leads(h))
            .unwrap()
            .clone();
        let b = new.gc.lock().enqueue(G, b"B".to_vec());
        assert!(hub.pump_until(|| new.gc.lock().is_resolved(b), 2_000));
        assert_eq!(new.gc.lock().take(b).unwrap().unwrap(), b"B");

        // Healed, the old leader learns B and applies it — as a replica.
        faults.heal_all();
        assert!(hub.pump_until(|| old.applied.lock().iter().any(|c| c == b"B"), 2_000));
        assert!(!old.applied.lock().iter().any(|c| c == b"A"));
        assert!(matches!(
            old.gc.lock().take(a),
            Some(Err(CfsError::NotLeader { .. }))
        ));
        assert!(old.gc.lock().is_empty());
    }
}
