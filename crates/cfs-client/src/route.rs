//! Leader routing (§2.4): one last-known-leader cache per replicated
//! group, learned from replies and follower redirects, and one scan that
//! every leader-bound request takes — master, meta and data alike.
//!
//! The policy, in full:
//! * try the cached leader first, then the other members in view order;
//! * a member that answers `Ok` becomes the cached leader;
//! * `NotLeader { hint: Some(h) }` caches `h`; `NotLeader { hint: None }`
//!   and a fabric error (timeout, unreachable) evict the entry;
//! * a retryable error moves the scan on, any other error ends it;
//! * after a failed pass, re-fetch the group's view (the master group
//!   has none) and back off before the next pass (§2.1.3).

use std::borrow::Cow;
use std::ops::ControlFlow;

use cfs_net::Network;
use cfs_obs::RpcRoute;
use cfs_types::{CfsError, NodeId, PartitionId, Result};

use crate::client::{CacheState, Client};

/// A replicated group the client sends leader-bound requests to: the key
/// of the leader cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Group {
    /// The resource manager's own Raft group.
    Master,
    Meta(PartitionId),
    Data(PartitionId),
}

impl Group {
    /// Retry-counter label (`client.retries{op=..}`).
    fn label(self) -> &'static str {
        match self {
            Group::Master => "master",
            Group::Meta(_) => "meta",
            Group::Data(_) => "data",
        }
    }
}

impl CacheState {
    /// `group`'s members in the cached partition table (none for the
    /// master group, whose replicas are fixed at mount).
    pub(crate) fn members(&self, group: Group) -> Option<&[NodeId]> {
        match group {
            Group::Master => None,
            Group::Meta(p) => self
                .meta_partitions
                .iter()
                .find(|m| m.partition == p)
                .map(|m| &m.members[..]),
            Group::Data(p) => self
                .data_partitions
                .iter()
                .find(|d| d.partition == p)
                .map(|d| &d.members[..]),
        }
    }
}

/// The one try order: the cached leader, then every other member.
fn try_order(cached: Option<NodeId>, members: &[NodeId]) -> impl Iterator<Item = NodeId> + '_ {
    cached
        .into_iter()
        .chain(members.iter().copied().filter(move |&m| Some(m) != cached))
}

impl Client {
    pub(crate) fn cached_leader(&self, group: Group) -> Option<NodeId> {
        self.cache.lock().leader_cache.get(&group).copied()
    }

    /// Where a one-shot request to `group` goes first: the head of the
    /// try order over the cached view.
    pub(crate) fn first_target(&self, group: Group) -> Option<NodeId> {
        let cache = self.cache.lock();
        let cached = cache.leader_cache.get(&group).copied();
        let first = try_order(cached, cache.members(group).unwrap_or_default()).next();
        first
    }

    /// Fold one member's reply into `group`'s leader cache. `Break`
    /// carries the group's answer — `Ok`, or an error no other member
    /// would answer differently; `Continue` the retryable error that
    /// moves the scan on to the next member.
    pub(crate) fn learn<T>(
        &self,
        group: Group,
        node: NodeId,
        reply: Result<Result<T>>,
    ) -> ControlFlow<Result<T>, CfsError> {
        let remember = |leader: Option<NodeId>| {
            let mut cache = self.cache.lock();
            match leader {
                Some(l) => cache.leader_cache.insert(group, l),
                None => cache.leader_cache.remove(&group),
            };
        };
        match reply {
            Ok(Ok(resp)) => {
                remember(Some(node));
                ControlFlow::Break(Ok(resp))
            }
            Ok(Err(e @ CfsError::NotLeader { hint, .. })) => {
                remember(hint);
                ControlFlow::Continue(e)
            }
            Ok(Err(e)) if e.is_retryable() => ControlFlow::Continue(e),
            Ok(Err(e)) => ControlFlow::Break(Err(e)),
            Err(fabric) => {
                remember(None);
                ControlFlow::Continue(fabric)
            }
        }
    }

    /// Send one request to `group`'s leader over `fabric`, scanning
    /// `members` in the try order for up to `attempts` passes. `Ok` holds
    /// the group's answer and the node that gave it; `Err` the last
    /// retryable error once every pass failed.
    pub(crate) fn route<Req: RpcRoute, Resp>(
        &self,
        fabric: &Network<Req, Result<Resp>>,
        group: Group,
        members: &[NodeId],
        attempts: u32,
        mut req: impl FnMut() -> Req,
    ) -> std::result::Result<Result<(NodeId, Resp)>, CfsError> {
        let mut members = Cow::Borrowed(members);
        let mut last = None;
        for pass in 0..attempts.max(1) {
            self.retry_pause(pass, group.label(), |c| {
                if let Some(m) = c.refresh_view(group) {
                    members = Cow::Owned(m);
                }
                Ok(())
            })?;
            for node in try_order(self.cached_leader(group), &members) {
                match self.learn(group, node, fabric.call(self.id, node, req())) {
                    ControlFlow::Break(answer) => return Ok(answer.map(|resp| (node, resp))),
                    ControlFlow::Continue(e) => last = Some(e),
                }
            }
        }
        Err(last.unwrap_or_else(|| CfsError::Unavailable(format!("no {} replicas", group.label()))))
    }

    /// A full pass over `group` failed: the cached view may be stale (the
    /// repair scheduler moves replicas, §2.3.3). Re-fetch routing from
    /// the resource manager; returns the group's current members if it
    /// still exists.
    fn refresh_view(&self, group: Group) -> Option<Vec<NodeId>> {
        if group == Group::Master {
            return None;
        }
        self.refresh_partition_table().ok()?;
        self.stats.view_refreshes.inc();
        self.cache.lock().members(group).map(<[NodeId]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use parking_lot::Mutex;

    use cfs_data::{DataRequest, DataResponse};
    use cfs_master::{DataPartitionMeta, MasterResponse, MetaPartitionMeta, VolumeMeta};
    use cfs_meta::{MetaRead, MetaResponse, MetaValue};
    use cfs_net::{DeliveryHook, DeliveryVerdict};
    use cfs_types::{ClusterConfig, InodeId, VolumeId};

    use super::*;
    use crate::client::{ClientOptions, Fabrics, MAX_RETRIES};

    /// One scripted reply, addressed by member index (0..3).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Reply {
        Ok,
        Hint(usize),
        NoHint,
        /// The fabric drops the call: the caller sees a `Timeout`.
        Timeout,
        /// A retryable server answer that names no leader.
        Busy,
        /// A non-retryable server answer.
        Fatal,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Outcome {
        Ok,
        Fatal,
        Exhausted,
    }

    const META: PartitionId = PartitionId(1);
    const DATA: PartitionId = PartitionId(2);

    /// Member `i` of the plane whose node ids start at `base`.
    fn member(base: u64, i: usize) -> NodeId {
        NodeId(base + i as u64)
    }

    /// Replies of one fabric's three fake members, in call order (once
    /// the script runs dry every call answers `Ok`), and the member
    /// index of every call made.
    struct Script {
        base: u64,
        replies: Mutex<VecDeque<Reply>>,
        calls: Mutex<Vec<usize>>,
    }

    impl Script {
        fn new(base: u64) -> Arc<Script> {
            Arc::new(Script {
                base,
                replies: Mutex::new(VecDeque::new()),
                calls: Mutex::new(Vec::new()),
            })
        }

        fn load(&self, replies: &[Reply]) {
            *self.replies.lock() = replies.iter().copied().collect();
            self.calls.lock().clear();
        }

        /// The next reply for a call delivered to `to` (a `Timeout` never
        /// reaches a handler: the delivery hook drops it).
        fn next(&self, to: NodeId) -> Reply {
            self.calls.lock().push((to.raw() - self.base) as usize);
            self.replies.lock().pop_front().unwrap_or(Reply::Ok)
        }

        /// Answer one delivered call with `ok` or the scripted error.
        fn answer<T>(&self, to: NodeId, ok: impl FnOnce() -> T) -> Result<T> {
            match self.next(to) {
                Reply::Ok => Ok(ok()),
                Reply::Hint(i) => Err(CfsError::NotLeader {
                    partition: PartitionId(0),
                    hint: Some(member(self.base, i)),
                }),
                Reply::NoHint => Err(CfsError::NotLeader {
                    partition: PartitionId(0),
                    hint: None,
                }),
                Reply::Busy => Err(CfsError::Unavailable("busy".into())),
                Reply::Fatal => Err(CfsError::NotFound("gone".into())),
                Reply::Timeout => unreachable!("timeouts are dropped by the hook"),
            }
        }
    }

    impl DeliveryHook for Script {
        fn verdict(&self, _seq: u64, _from: NodeId, to: NodeId) -> DeliveryVerdict {
            if self.replies.lock().front() == Some(&Reply::Timeout) {
                self.next(to);
                return DeliveryVerdict::Drop;
            }
            DeliveryVerdict::Deliver
        }
    }

    fn volume_view() -> MasterResponse {
        let volume = VolumeId(1);
        MasterResponse::Volume {
            volume: VolumeMeta {
                volume,
                name: "vol".into(),
                meta_partitions: vec![META],
                data_partitions: vec![DATA],
            },
            meta_partitions: vec![MetaPartitionMeta {
                partition: META,
                volume,
                start: InodeId(1),
                end: InodeId(u64::MAX),
                members: (0..3).map(|i| member(11, i)).collect(),
                item_count: 0,
                max_inode: InodeId(1),
                applied: 0,
                write_load: 0,
                reported_end: InodeId(u64::MAX),
                last_reported_round: 0,
            }],
            data_partitions: vec![DataPartitionMeta {
                partition: DATA,
                volume,
                members: (0..3).map(|i| member(21, i)).collect(),
                read_only: false,
                full: false,
            }],
        }
    }

    /// A client mounted on fake master, meta and data members (no Raft
    /// anywhere), with one script per fabric.
    fn fake_client() -> (Client, [Arc<Script>; 3]) {
        let fabrics = Fabrics {
            master: Network::new(),
            meta: Network::new(),
            data: Network::new(),
        };
        let scripts = [Script::new(1), Script::new(11), Script::new(21)];
        for i in 0..3 {
            let s = Arc::clone(&scripts[0]);
            fabrics.master.register(
                member(1, i),
                Arc::new(move |_, _| s.answer(member(1, i), volume_view)),
            );
            let s = Arc::clone(&scripts[1]);
            fabrics.meta.register(
                member(11, i),
                Arc::new(move |_, _| {
                    s.answer(member(11, i), || MetaResponse::Value(MetaValue::None))
                }),
            );
            let s = Arc::clone(&scripts[2]);
            fabrics.data.register(
                member(21, i),
                Arc::new(move |_, _| s.answer(member(21, i), || DataResponse::None)),
            );
        }
        fabrics.master.set_delivery_hook(Some(scripts[0].clone()));
        fabrics.meta.set_delivery_hook(Some(scripts[1].clone()));
        fabrics.data.set_delivery_hook(Some(scripts[2].clone()));
        let client = Client::mount(
            NodeId(100),
            "vol",
            fabrics,
            (0..3).map(|i| member(1, i)).collect(),
            ClusterConfig::default(),
            ClientOptions::default(),
        )
        .expect("mount on fake members");
        (client, scripts)
    }

    /// One leader-bound call on each plane, through its usual caller.
    fn call(client: &Client, plane: usize) -> Result<()> {
        match plane {
            0 => client
                .master_call(cfs_master::MasterRequest::GetVolumeById {
                    volume: VolumeId(1),
                })
                .map(drop),
            1 => {
                let members: Vec<NodeId> = (0..3).map(|i| member(11, i)).collect();
                let read = MetaRead::GetInode { inode: InodeId(1) };
                client.meta_read(META, &members, read).map(drop)
            }
            _ => client
                .call_leader(DATA, MAX_RETRIES + 1, || DataRequest::Overwrite {
                    partition: DATA,
                    extent: cfs_types::ExtentId(1),
                    offset: 0,
                    data: bytes::Bytes::new(),
                })
                .map(drop),
        }
    }

    fn group(plane: usize) -> (Group, u64) {
        match plane {
            0 => (Group::Master, 1),
            1 => (Group::Meta(META), 11),
            _ => (Group::Data(DATA), 21),
        }
    }

    #[test]
    fn every_plane_routes_a_script_the_same_way() {
        use Reply::*;
        let exhaust = [Busy; 3 * (MAX_RETRIES as usize + 1)];
        let mut exhausted_calls = Vec::new();
        for _ in 0..=MAX_RETRIES {
            exhausted_calls.extend([0, 1, 2]);
        }
        // (name, leader cached before the call, replies, member index
        // of each call, leader cached after, outcome)
        #[allow(clippy::type_complexity)]
        let table: [(&str, usize, &[Reply], &[usize], Option<usize>, Outcome); 9] = [
            (
                "ok at the cached leader",
                1,
                &[Ok],
                &[1],
                Some(1),
                Outcome::Ok,
            ),
            (
                "ok moves the cache",
                1,
                &[Busy, Ok],
                &[1, 0],
                Some(0),
                Outcome::Ok,
            ),
            (
                "hint is cached, scan stays in order",
                0,
                &[Hint(2), Busy, Ok],
                &[0, 1, 2],
                Some(2),
                Outcome::Ok,
            ),
            (
                "hint leads the next pass",
                0,
                &[Timeout, Busy, Hint(1), Ok],
                &[0, 1, 2, 1],
                Some(1),
                Outcome::Ok,
            ),
            (
                "hint-less redirect evicts",
                0,
                &[NoHint, Fatal],
                &[0, 1],
                None,
                Outcome::Fatal,
            ),
            (
                "timeout evicts",
                1,
                &[Timeout, Fatal],
                &[1, 0],
                None,
                Outcome::Fatal,
            ),
            (
                "retryable error keeps the cache",
                2,
                &[Busy, Fatal],
                &[2, 0],
                Some(2),
                Outcome::Fatal,
            ),
            (
                "non-retryable error returns at once",
                0,
                &[Fatal],
                &[0],
                Some(0),
                Outcome::Fatal,
            ),
            (
                "budget runs out",
                0,
                &exhaust,
                &exhausted_calls,
                Some(0),
                Outcome::Exhausted,
            ),
        ];
        for plane in 0..3 {
            let (group, base) = group(plane);
            for &(name, warm, replies, calls, cached, outcome) in &table {
                let (client, scripts) = fake_client();
                let script = &scripts[plane];
                // Warm the cache to member `warm` through the routine.
                let mut warmup = vec![Busy; warm];
                warmup.push(Ok);
                script.load(&warmup);
                call(&client, plane).unwrap();
                assert_eq!(client.cached_leader(group), Some(member(base, warm)));

                script.load(replies);
                let got = call(&client, plane);
                let ctx = format!("{group:?}: {name}");
                assert_eq!(*script.calls.lock(), calls, "{ctx}: call sequence");
                assert_eq!(
                    client.cached_leader(group),
                    cached.map(|i| member(base, i)),
                    "{ctx}: cached leader"
                );
                match (outcome, got) {
                    (Outcome::Ok, Result::Ok(())) => {}
                    (Outcome::Fatal, Err(CfsError::NotFound(_))) => {}
                    // Only the meta plane wraps an exhausted budget.
                    (Outcome::Exhausted, Err(CfsError::RetriesExhausted { .. })) if plane == 1 => {}
                    (Outcome::Exhausted, Err(CfsError::Unavailable(_))) if plane != 1 => {}
                    (want, got) => panic!("{ctx}: wanted {want:?}, got {got:?}"),
                }
            }
        }
    }
}
