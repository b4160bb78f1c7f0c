//! Property-based tests of the meta partition: arbitrary command
//! sequences against an in-memory model, plus snapshot/restore and
//! determinism invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cfs_types::{FileType, InodeId, PartitionId, VolumeId};

use crate::command::MetaCommand;
use crate::intent::{compensation_fixups, IntentContext};
use crate::partition::{MetaPartition, MetaPartitionConfig};

#[derive(Debug, Clone)]
enum Op {
    CreateInode(bool), // dir?
    CreateDentry {
        parent_ix: u8,
        name: u8,
        target_ix: u8,
    },
    DeleteDentry {
        parent_ix: u8,
        name: u8,
    },
    Link(u8),
    Unlink(u8),
    Evict(u8),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<bool>().prop_map(Op::CreateInode),
        3 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, n, t)| Op::CreateDentry {
            parent_ix: p,
            name: n % 16,
            target_ix: t,
        }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(p, n)| Op::DeleteDentry {
            parent_ix: p,
            name: n % 16,
        }),
        1 => any::<u8>().prop_map(Op::Link),
        2 => any::<u8>().prop_map(Op::Unlink),
        1 => any::<u8>().prop_map(Op::Evict),
        1 => Just(Op::Snapshot),
    ]
}

fn partition() -> MetaPartition {
    MetaPartition::new(MetaPartitionConfig {
        partition_id: PartitionId(1),
        volume_id: VolumeId(1),
        start: InodeId(1),
        end: InodeId::MAX,
    })
}

/// Decode a fuzz triple stream into a command log (shared by the replay
/// properties below so they explore the same command space).
fn build_log(seeds: &[(u8, u8, u8)]) -> Vec<MetaCommand> {
    let mut log: Vec<MetaCommand> = Vec::new();
    for &(a, b, c) in seeds {
        match a % 5 {
            0 => log.push(MetaCommand::CreateInode {
                file_type: if b % 2 == 0 {
                    FileType::File
                } else {
                    FileType::Dir
                },
                link_target: vec![],
                now_ns: c as u64,
            }),
            1 => log.push(MetaCommand::CreateDentry {
                parent: InodeId(1 + (b % 8) as u64),
                name: format!("f{}", c % 8),
                inode: InodeId(1 + (c % 8) as u64),
                file_type: FileType::File,
            }),
            2 => log.push(MetaCommand::DeleteDentry {
                parent: InodeId(1 + (b % 8) as u64),
                name: format!("f{}", c % 8),
            }),
            3 => log.push(MetaCommand::Unlink {
                inode: InodeId(1 + (b % 8) as u64),
                now_ns: c as u64,
            }),
            _ => log.push(MetaCommand::Link {
                inode: InodeId(1 + (b % 8) as u64),
            }),
        }
    }
    log
}

/// Freeze the newest partition at `maxInodeID + delta` and spawn its
/// successor owning `(cut, MAX]` — the Algorithm 1 range handoff, minus
/// the replication machinery (covered by the node/cluster tests).
fn do_split(parts: &mut Vec<MetaPartition>, delta: u64) {
    let newest = parts.last_mut().expect("at least one partition");
    let base = newest
        .max_inode()
        .raw()
        .max(newest.config().start.raw() - 1);
    let cut = InodeId(base + delta);
    newest.update_end(cut).expect("cut is >= maxInodeID");
    let next = MetaPartitionConfig {
        partition_id: PartitionId(parts.len() as u64 + 1),
        volume_id: VolumeId(1),
        start: InodeId(cut.raw() + 1),
        end: InodeId::MAX,
    };
    parts.push(MetaPartition::new(next));
}

/// Apply one command in the split world, routed the way the client
/// routes: creates go to the lowest partition with allocation headroom,
/// everything else to the partition whose range owns the target inode
/// (dentries live with their parent).
fn route_apply(
    parts: &mut [MetaPartition],
    cmd: &MetaCommand,
) -> cfs_types::Result<crate::command::MetaValue> {
    use cfs_types::CfsError;
    let target = match cmd {
        MetaCommand::CreateInode { .. } => {
            let mut full = None;
            for p in parts.iter_mut() {
                match cmd.apply(p) {
                    Err(e @ CfsError::PartitionFull(_)) => full = Some(Err(e)),
                    other => return other,
                }
            }
            return full.expect("at least one partition");
        }
        MetaCommand::CreateDentry { parent, .. } | MetaCommand::DeleteDentry { parent, .. } => {
            *parent
        }
        MetaCommand::Link { inode }
        | MetaCommand::Unlink { inode, .. }
        | MetaCommand::Evict { inode }
        | MetaCommand::AppendExtents { inode, .. }
        | MetaCommand::Truncate { inode, .. } => *inode,
        MetaCommand::UpdateEnd { .. } => unreachable!("splits are driven by do_split"),
        MetaCommand::CreateInodeAt { .. }
        | MetaCommand::Tagged { .. }
        | MetaCommand::RemoveDentryIf { .. }
        | MetaCommand::EvictIf { .. } => {
            unreachable!("async-commit commands are exercised by the intent-journal properties")
        }
    };
    let owner = parts
        .iter_mut()
        .find(|p| p.config().start <= target && target <= p.config().end)
        .expect("contiguous ranges cover the id space");
    cmd.apply(owner)
}

/// A fuzzed async-commit client workflow (DESIGN §12): create plants an
/// inode intent plus a dentry intent (in either commit order — the two
/// halves live on independent partitions in the real system), unlink
/// journals a single delete intent, link commits its nlink increment
/// synchronously and journals the dentry intent.
#[derive(Debug, Clone)]
enum WfSpec {
    Create {
        parent_sel: u8,
        name: u8,
        dir: bool,
        flip: bool,
    },
    Unlink {
        sel: u8,
    },
    Link {
        target_sel: u8,
        parent_sel: u8,
        name: u8,
    },
}

fn wf_strategy() -> impl Strategy<Value = WfSpec> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>(), any::<bool>(), any::<bool>()).prop_map(
            |(p, n, dir, flip)| WfSpec::Create { parent_sel: p, name: n, dir, flip }
        ),
        2 => any::<u8>().prop_map(|s| WfSpec::Unlink { sel: s }),
        2 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(t, p, n)| WfSpec::Link {
            target_sel: t,
            parent_sel: p,
            name: n,
        }),
    ]
}

/// One journaled intent: the pinned command plus the context its
/// compensation fixups derive from — exactly what `IntentRecord` stores.
struct PlannedIntent {
    cmd: MetaCommand,
    ctx: IntentContext,
}

/// A planned workflow: synchronous commands (committed before the ack,
/// so they always survive the crash) plus the indices of its intents in
/// the global journal order.
struct PlannedWf {
    sync: Vec<MetaCommand>,
    intents: Vec<usize>,
    kind: WfKind,
}

enum WfKind {
    /// `ino` is the pinned inode id, `inode_half` the journal index of
    /// its `CreateInodeAt` intent — needed to model the rescue rule.
    Create {
        ino: InodeId,
        inode_half: usize,
    },
    Unlink,
    Link {
        target: InodeId,
    },
}

enum Step {
    Sync(MetaCommand),
    Intent(usize),
}

/// Plan the fuzzed workflows the way `write_async` does: speculatively
/// against an overlay world where every acked op succeeds, pinning
/// nondeterminism (inode ids, ctimes) into the journaled commands. A
/// workflow the overlay would refuse (name already taken) is skipped —
/// the real node commits it synchronously or answers an error instead of acking.
fn plan_workflows(
    specs: &[WfSpec],
) -> (
    Vec<MetaCommand>,
    Vec<Step>,
    Vec<PlannedIntent>,
    Vec<PlannedWf>,
) {
    let setup = vec![
        MetaCommand::CreateInode {
            file_type: FileType::Dir,
            link_target: vec![],
            now_ns: 1,
        },
        MetaCommand::CreateInode {
            file_type: FileType::Dir,
            link_target: vec![],
            now_ns: 2,
        },
    ];
    let mut planner = partition();
    for c in &setup {
        c.apply(&mut planner).unwrap();
    }
    let mut dirs = vec![InodeId(1), InodeId(2)];
    let mut files: Vec<(InodeId, String, InodeId)> = Vec::new();
    let mut steps = Vec::new();
    let mut intents: Vec<PlannedIntent> = Vec::new();
    let mut wfs: Vec<PlannedWf> = Vec::new();

    for (i, spec) in specs.iter().enumerate() {
        match spec {
            WfSpec::Create {
                parent_sel,
                name,
                dir,
                flip,
            } => {
                let ctime = 1_000 + i as u64;
                let parent = dirs[*parent_sel as usize % dirs.len()];
                let nm = format!("f{}", name % 12);
                if planner.get_dentry(parent, &nm).is_ok() {
                    continue;
                }
                let ft = if *dir { FileType::Dir } else { FileType::File };
                let ino = planner.create_inode(ft, b"", ctime).unwrap().id;
                planner.create_dentry(parent, &nm, ino, ft).unwrap();
                let inode_half = PlannedIntent {
                    cmd: MetaCommand::CreateInodeAt {
                        id: ino,
                        file_type: ft,
                        link_target: vec![],
                        now_ns: ctime,
                    },
                    ctx: IntentContext::PlannedDentry {
                        parent,
                        name: nm.clone(),
                    },
                };
                let dentry_half = PlannedIntent {
                    cmd: MetaCommand::CreateDentry {
                        parent,
                        name: nm.clone(),
                        inode: ino,
                        file_type: ft,
                    },
                    ctx: IntentContext::FreshInode { ctime_ns: ctime },
                };
                let base = intents.len();
                let inode_ix = if *flip { base + 1 } else { base };
                let pair = if *flip {
                    [dentry_half, inode_half]
                } else {
                    [inode_half, dentry_half]
                };
                let mut ixs = Vec::new();
                for half in pair {
                    steps.push(Step::Intent(intents.len()));
                    ixs.push(intents.len());
                    intents.push(half);
                }
                wfs.push(PlannedWf {
                    sync: vec![],
                    intents: ixs,
                    kind: WfKind::Create {
                        ino,
                        inode_half: inode_ix,
                    },
                });
                if *dir {
                    dirs.push(ino);
                }
                files.push((parent, nm, ino));
            }
            WfSpec::Unlink { sel } => {
                if files.is_empty() {
                    continue;
                }
                let (parent, nm, ino) = files.remove(*sel as usize % files.len());
                planner.delete_dentry(parent, &nm).unwrap();
                steps.push(Step::Intent(intents.len()));
                wfs.push(PlannedWf {
                    sync: vec![],
                    intents: vec![intents.len()],
                    kind: WfKind::Unlink,
                });
                intents.push(PlannedIntent {
                    cmd: MetaCommand::DeleteDentry { parent, name: nm },
                    ctx: IntentContext::UnlinkedInode { inode: ino },
                });
            }
            WfSpec::Link {
                target_sel,
                parent_sel,
                name,
            } => {
                if files.is_empty() {
                    continue;
                }
                let target = files[*target_sel as usize % files.len()].2;
                let parent = dirs[*parent_sel as usize % dirs.len()];
                let nm = format!("l{}", name % 12);
                if planner.get_dentry(parent, &nm).is_ok() {
                    continue;
                }
                planner.inode_link(target).unwrap();
                planner
                    .create_dentry(parent, &nm, target, FileType::File)
                    .unwrap();
                steps.push(Step::Sync(MetaCommand::Link { inode: target }));
                steps.push(Step::Intent(intents.len()));
                wfs.push(PlannedWf {
                    sync: vec![MetaCommand::Link { inode: target }],
                    intents: vec![intents.len()],
                    kind: WfKind::Link { target },
                });
                intents.push(PlannedIntent {
                    cmd: MetaCommand::CreateDentry {
                        parent,
                        name: nm.clone(),
                        inode: target,
                        file_type: FileType::File,
                    },
                    ctx: IntentContext::LinkedInode { inode: target },
                });
                files.push((parent, nm, target));
            }
        }
    }
    (setup, steps, intents, wfs)
}

#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    /// The intent's frame committed and applied cleanly — retired.
    Applied,
    /// The frame committed but application failed (e.g. the name a dead
    /// sibling was supposed to free is still taken) — compensated.
    Failed,
    /// The frame never committed (lost to the crash) — compensated.
    Dead,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partition agrees with a simple model on inode existence,
    /// nlink counts and the dentry namespace — and every snapshot
    /// restores byte-identically.
    #[test]
    fn partition_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p = partition();
        // Model: inode id -> nlink; dentry (parent, name) -> inode.
        let mut inodes: Vec<InodeId> = Vec::new(); // allocation order
        let mut nlink: BTreeMap<InodeId, u32> = BTreeMap::new();
        let mut dentries: BTreeMap<(InodeId, String), InodeId> = BTreeMap::new();

        let pick = |v: &Vec<InodeId>, ix: u8| -> Option<InodeId> {
            if v.is_empty() { None } else { Some(v[ix as usize % v.len()]) }
        };

        for op in &ops {
            match op {
                Op::CreateInode(is_dir) => {
                    let ft = if *is_dir { FileType::Dir } else { FileType::File };
                    let ino = p.create_inode(ft, b"", 1).unwrap();
                    inodes.push(ino.id);
                    nlink.insert(ino.id, ft.initial_nlink());
                }
                Op::CreateDentry { parent_ix, name, target_ix } => {
                    let (Some(parent), Some(target)) =
                        (pick(&inodes, *parent_ix), pick(&inodes, *target_ix))
                    else { continue };
                    if !nlink.contains_key(&parent) || !nlink.contains_key(&target) {
                        continue;
                    }
                    let nm = format!("d{name}");
                    let got = p.create_dentry(parent, &nm, target, FileType::File);
                    match dentries.entry((parent, nm)) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(got.is_err(), "duplicate dentry accepted");
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            prop_assert!(got.is_ok());
                            slot.insert(target);
                        }
                    }
                }
                Op::DeleteDentry { parent_ix, name } => {
                    let Some(parent) = pick(&inodes, *parent_ix) else { continue };
                    let nm = format!("d{name}");
                    let got = p.delete_dentry(parent, &nm);
                    match dentries.remove(&(parent, nm)) {
                        Some(target) => {
                            prop_assert_eq!(got.unwrap().inode, target);
                        }
                        None => prop_assert!(got.is_err()),
                    }
                }
                Op::Link(ix) => {
                    let Some(ino) = pick(&inodes, *ix) else { continue };
                    if let Some(n) = nlink.get_mut(&ino) {
                        let got = p.inode_link(ino).unwrap();
                        *n += 1;
                        prop_assert_eq!(got.nlink, *n);
                    }
                }
                Op::Unlink(ix) => {
                    let Some(ino) = pick(&inodes, *ix) else { continue };
                    if let Some(n) = nlink.get_mut(&ino) {
                        let got = p.inode_unlink(ino, 2).unwrap();
                        *n = n.saturating_sub(1);
                        prop_assert_eq!(got.nlink, *n);
                    }
                }
                Op::Evict(ix) => {
                    let Some(ino) = pick(&inodes, *ix) else { continue };
                    if nlink.remove(&ino).is_some() {
                        prop_assert!(p.evict_inode(ino).is_ok());
                    } else {
                        prop_assert!(p.evict_inode(ino).is_err(), "double evict");
                    }
                }
                Op::Snapshot => {
                    let bytes = p.snapshot_bytes();
                    let q = MetaPartition::from_snapshot(PartitionId(1), &bytes).unwrap();
                    prop_assert_eq!(
                        q.snapshot_bytes(),
                        bytes,
                        "snapshot restore is byte-identical"
                    );
                    prop_assert_eq!(q.item_count(), p.item_count());
                }
            }
            // Global invariants after every op.
            prop_assert_eq!(
                p.item_count(),
                (nlink.len() + dentries.len()) as u64,
                "item count tracks model"
            );
        }

        // Final audit: every model inode and dentry is observable.
        for (ino, n) in &nlink {
            let got = p.get_inode(*ino).unwrap();
            prop_assert_eq!(got.nlink, *n);
        }
        for ((parent, name), target) in &dentries {
            let d = p.get_dentry(*parent, name).unwrap();
            prop_assert_eq!(d.inode, *target);
        }
    }

    /// Replaying a command log on a fresh partition yields an identical
    /// snapshot — the determinism Raft relies on.
    #[test]
    fn command_replay_is_deterministic(
        seeds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..60)
    ) {
        let log = build_log(&seeds);
        let mut p1 = partition();
        let mut p2 = partition();
        for cmd in &log {
            let r1 = cmd.apply(&mut p1);
            let r2 = cmd.apply(&mut p2);
            prop_assert_eq!(r1, r2, "identical results incl. errors");
        }
        prop_assert_eq!(p1.snapshot_bytes(), p2.snapshot_bytes());
    }

    /// Group commit equivalence: shipping a command log through a real
    /// Raft batch frame (propose_batch → commit → decode) and applying
    /// the decoded sub-commands is observably identical to applying the
    /// same commands sequentially — same per-command results (including
    /// errors), same tree, same snapshot bytes.
    #[test]
    fn batched_frame_apply_equals_sequential_apply(
        seeds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..60)
    ) {
        use cfs_raft::{decode_batch_frame, RaftConfig, RaftNode, ELECTION_TIMEOUT_MAX};
        use cfs_types::codec::{Decode, Encode};
        use cfs_types::NodeId;

        let log = build_log(&seeds);

        // Drive the frame through a real single-member Raft group.
        let mut node = RaftNode::new(
            NodeId(1),
            cfs_types::RaftGroupId(1),
            vec![NodeId(1)],
            RaftConfig::default(),
            7,
        );
        for _ in 0..ELECTION_TIMEOUT_MAX {
            node.tick();
        }
        prop_assert!(node.is_leader());
        let index = node.propose_batch(log.iter().map(|c| c.to_bytes()).collect()).unwrap();
        let ready = node.take_ready();
        let entry = ready
            .committed
            .into_iter()
            .find(|e| e.index == index)
            .expect("frame committed");
        let decoded = decode_batch_frame(&entry.data).expect("is a frame");
        prop_assert_eq!(decoded.len(), log.len());

        let mut batched = partition();
        let mut sequential = partition();
        for (bytes, cmd) in decoded.iter().zip(&log) {
            let from_frame = MetaCommand::from_bytes(bytes).unwrap();
            let r_batch = from_frame.apply(&mut batched);
            let r_seq = cmd.apply(&mut sequential);
            prop_assert_eq!(r_batch, r_seq, "per-command result parity");
        }
        prop_assert_eq!(batched.item_count(), sequential.item_count());
        prop_assert_eq!(
            batched.snapshot_bytes(),
            sequential.snapshot_bytes(),
            "frame roundtrip preserves the whole tree"
        );
    }

    /// Crash-replay equivalence (§2.1.3): apply a prefix of the log, take
    /// a snapshot ("crash"), restore a new replica from it, then apply the
    /// suffix — the restored replica must behave and end up byte-identical
    /// to a replica that lived through the whole log.
    #[test]
    fn crash_replay_from_snapshot_matches_live(
        seeds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
        cut_sel in any::<u16>(),
    ) {
        let log = build_log(&seeds);
        let cut = cut_sel as usize % (log.len() + 1);

        let mut live = partition();
        for cmd in &log {
            let _ = cmd.apply(&mut live);
        }

        let mut pre = partition();
        for cmd in &log[..cut] {
            let _ = cmd.apply(&mut pre);
        }
        let image = pre.snapshot_bytes();
        let mut restored = MetaPartition::from_snapshot(PartitionId(1), &image).unwrap();
        for cmd in &log[cut..] {
            // Suffix commands must produce the same results (including
            // errors) on the survivor and on the restored replica.
            let r_pre = cmd.apply(&mut pre);
            let r_restored = cmd.apply(&mut restored);
            prop_assert_eq!(r_pre, r_restored, "suffix result parity after restore");
        }
        prop_assert_eq!(
            restored.snapshot_bytes(),
            live.snapshot_bytes(),
            "prefix + snapshot + suffix equals the uninterrupted history"
        );
    }

    /// Split equivalence (Algorithm 1): a command log interleaved with
    /// online splits at arbitrary points and arbitrary `Δ` headroom is
    /// observably identical to the same log on one unsplit partition —
    /// per-command results (including errors) match, the union of the
    /// halves is the unsplit tree, every inode and dentry is owned by
    /// exactly one partition (the invariant the chaos fsck checks at
    /// cluster scale), and no split ever copies an item between halves.
    #[test]
    fn split_interleaving_matches_unsplit(
        seeds in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..80),
        cut_plan in proptest::collection::vec((any::<u16>(), 0u64..5), 1..4),
    ) {
        let log = build_log(&seeds);
        // Normalise the fuzzed cut plan to (op index, Δ), sorted so the
        // splits fire in schedule order. Δ = 0 freezes the predecessor
        // with no headroom — the next create spills straight over.
        let mut cuts: Vec<(usize, u64)> = cut_plan
            .iter()
            .map(|&(pos, d)| (pos as usize % (log.len() + 1), d))
            .collect();
        cuts.sort_unstable();

        let mut mono = partition();
        let mut parts: Vec<MetaPartition> = vec![partition()];

        for (i, cmd) in log.iter().enumerate() {
            for &(_, delta) in cuts.iter().filter(|&&(pos, _)| pos == i) {
                do_split(&mut parts, delta);
            }
            // Clients only hang dentries under a parent inode they hold
            // (§2.6), and every allocated inode id is ≤ maxInodeID ≤ the
            // next cut — which is what keeps a dentry co-located with
            // its parent across splits. Skip fuzzed dentries under
            // never-allocated parents; the node-level fence rejects such
            // routing with RangeMoved in the real system.
            if let MetaCommand::CreateDentry { parent, .. } = cmd {
                if *parent > mono.max_inode() {
                    continue;
                }
            }
            let r_mono = cmd.apply(&mut mono);
            let r_split = route_apply(&mut parts, cmd);
            prop_assert_eq!(r_mono, r_split, "result parity for op {}", i);
        }
        for &(_, delta) in cuts.iter().filter(|&&(pos, _)| pos == log.len()) {
            do_split(&mut parts, delta);
        }
        prop_assert!(parts.len() >= 2, "plan performed at least one split");

        // Exactly-once ownership: every item sits inside its partition's
        // range, and the sorted union reassembles the unsplit tree (any
        // double-owned or lost item breaks the equality, since the
        // unsplit tree holds each exactly once).
        let mut union_inodes = Vec::new();
        let mut union_dentries = Vec::new();
        for p in &parts {
            for ino in p.all_inodes() {
                prop_assert!(
                    p.config().start <= ino.id && ino.id <= p.config().end,
                    "inode {} outside its owner's range", ino.id
                );
                union_inodes.push(ino);
            }
            union_dentries.extend(p.all_dentries());
        }
        union_inodes.sort_by_key(|i| i.id);
        union_dentries.sort_by(|a, b| {
            (a.parent_id, &a.name).cmp(&(b.parent_id, &b.name))
        });
        prop_assert_eq!(union_inodes, mono.all_inodes(), "inode union");
        prop_assert_eq!(union_dentries.clone(), mono.all_dentries(), "dentry union");
        let total: u64 = parts.iter().map(|p| p.item_count()).sum();
        prop_assert_eq!(total, mono.item_count(), "no item copied or lost");

        // Readdir exactly-once: each directory's listing comes entirely
        // from the partition owning the parent and matches the unsplit
        // listing.
        let parents: std::collections::BTreeSet<InodeId> =
            union_dentries.iter().map(|d| d.parent_id).collect();
        for parent in parents {
            let owner = parts
                .iter()
                .find(|p| p.config().start <= parent && parent <= p.config().end)
                .expect("ranges cover the id space");
            prop_assert_eq!(owner.readdir(parent), mono.readdir(parent));
        }
    }

    /// Crash-cut equivalence for the async-commit journal (DESIGN §12,
    /// chaos invariant (i)): journal a fuzzed stream of client workflows,
    /// crash after an arbitrary prefix of group commits, and run the
    /// compensation engine over every dead or failed intent. The visible
    /// tree (inodes incl. nlink/ctime, dentries) must equal a synchronous
    /// execution of exactly the workflows whose every intent committed
    /// and applied cleanly — with one asymmetry by design: an acked
    /// unlink whose intent died is *forward-completed*, so the name ends
    /// absent either way. Bookkeeping the reference never saw (max
    /// inode id, burned ids of compensated creates) is excluded — ids
    /// are never reused, not reclaimed. Fixups must also be idempotent:
    /// replaying the whole compensation batch is a no-op, which is what
    /// lets the orphan sweep retry them across further crashes.
    #[test]
    fn compensated_crash_cut_equals_synchronous_prefix(
        specs in proptest::collection::vec(wf_strategy(), 1..40),
        cut_sel in any::<u16>(),
    ) {
        let (setup, steps, intents, wfs) = plan_workflows(&specs);
        let k = cut_sel as usize % (intents.len() + 1);

        // Subject: the survivor tree. Synchronous commands always
        // committed (they precede the ack); intents committed only up to
        // the cut. A committed intent whose application fails is
        // compensated exactly like a dead one (apply_one's error path).
        let mut subject = partition();
        for c in &setup {
            c.apply(&mut subject).unwrap();
        }
        let mut outcome = vec![Outcome::Dead; intents.len()];
        for step in &steps {
            match step {
                Step::Sync(c) => {
                    let _ = c.apply(&mut subject);
                }
                Step::Intent(i) if *i < k => {
                    outcome[*i] = if intents[*i].cmd.apply(&mut subject).is_ok() {
                        Outcome::Applied
                    } else {
                        Outcome::Failed
                    };
                }
                Step::Intent(_) => {}
            }
        }
        let fixups: Vec<(InodeId, MetaCommand)> = intents
            .iter()
            .enumerate()
            .filter(|(i, _)| outcome[*i] != Outcome::Applied)
            .flat_map(|(_, pi)| compensation_fixups(&pi.cmd, &pi.ctx))
            .collect();
        // Mirror the orphan sweep's two-pass order: dentry removals and
        // nlink rollbacks first, conditional evictions second — a dead
        // link's not-yet-rolled-back increment must not make a sibling
        // EvictIf refuse the orphan for good.
        let is_evict = |f: &MetaCommand| matches!(f, MetaCommand::EvictIf { .. });
        for (_, f) in fixups.iter().filter(|(_, f)| !is_evict(f)) {
            let _ = f.apply(&mut subject);
        }
        for (_, f) in fixups.iter().filter(|(_, f)| is_evict(f)) {
            let _ = f.apply(&mut subject);
        }

        // Reference: synchronous execution of exactly the clean
        // workflows, plus forward-completion of broken unlinks, plus the
        // rescue rule: a compensated create whose inode half committed
        // stays alive if a *clean* link hard-linked it first — EvictIf's
        // nlink guard deliberately refuses to destroy a linked-up file,
        // leaving it reachable under the link's name.
        let clean =
            |wf: &PlannedWf| wf.intents.iter().all(|&i| outcome[i] == Outcome::Applied);
        let mut reference = partition();
        for c in &setup {
            c.apply(&mut reference).unwrap();
        }
        for wf in &wfs {
            if clean(wf) {
                for c in &wf.sync {
                    let _ = c.apply(&mut reference);
                }
                for &i in &wf.intents {
                    let _ = intents[i].cmd.apply(&mut reference);
                }
                continue;
            }
            match &wf.kind {
                WfKind::Unlink => {
                    let i = wf.intents[0];
                    for (_, f) in compensation_fixups(&intents[i].cmd, &intents[i].ctx) {
                        let _ = f.apply(&mut reference);
                    }
                }
                WfKind::Create { ino, inode_half } => {
                    let rescued = outcome[*inode_half] == Outcome::Applied
                        && wfs.iter().any(|w| {
                            clean(w) && matches!(w.kind, WfKind::Link { target } if target == *ino)
                        });
                    if rescued {
                        let _ = intents[*inode_half].cmd.apply(&mut reference);
                    }
                }
                WfKind::Link { .. } => {}
            }
        }

        // mtime is excluded: a rollback legitimately stamps the inode
        // with a repair time the synchronous history never saw.
        let norm = |p: &MetaPartition| {
            p.all_inodes()
                .into_iter()
                .map(|mut i| {
                    i.mtime_ns = 0;
                    i
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(
            norm(&subject),
            norm(&reference),
            "compensated survivor's inodes (incl. nlink rollback) equal the clean prefix"
        );
        prop_assert_eq!(
            subject.all_dentries(),
            reference.all_dentries(),
            "compensated survivor's namespace equals the clean prefix"
        );

        // Idempotence: the sweep may re-execute a conditional fixup after
        // another crash; the tree must not move. (The non-conditional
        // link rollback is excluded — the sweep's ack lifecycle runs it
        // exactly once per record.)
        let inodes_before = subject.all_inodes();
        let dentries_before = subject.all_dentries();
        for (_, f) in &fixups {
            if matches!(
                f,
                MetaCommand::RemoveDentryIf { .. } | MetaCommand::EvictIf { .. }
            ) {
                let _ = f.apply(&mut subject);
            }
        }
        prop_assert_eq!(subject.all_inodes(), inodes_before, "fixup replay is a no-op");
        prop_assert_eq!(subject.all_dentries(), dentries_before);
    }
}
