//! The four workloads, one fixed-size *round* at a time.
//!
//! Per-op cost on this stack grows with the state a cluster holds, so a
//! round does a fixed amount of work on a fresh cluster and a run repeats
//! rounds until `--seconds` is used up. Rounds are therefore comparable
//! with each other and across commits, and a run reports medians over
//! them. The load is closed-loop: one thread, one op in flight.
//!
//! Only the client calls are timed (a phase's time is the sum of its op
//! latencies): mounting, payload generation and verification happen
//! between ops and are not counted.

use std::path::Path;
use std::time::{Duration, Instant};

use cfs::{CfsError, Client, ClientOptions, Cluster, ClusterBuilder, InodeId, MetricsSnapshot};

use crate::gen;
use crate::trace::{self, Span};

const VOLUME: &str = "bench";
const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// Virtual latency per fabric hop in a `--trace 1` run. It costs no wall
/// time; `virtual_ns / VIRTUAL_HOP` counts the sequential round trips.
pub const VIRTUAL_HOP: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetaMdtest,
    SmallFiles,
    LargeSeq,
    LargeRand,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MetaMdtest,
        Workload::SmallFiles,
        Workload::LargeSeq,
        Workload::LargeRand,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaMdtest => "meta_mdtest",
            Workload::SmallFiles => "small_files",
            Workload::LargeSeq => "large_seq",
            Workload::LargeRand => "large_rand",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The timed windows of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The workload's mutating op: create, whole-file write, 1 MiB write
    /// call, or 4 KB overwrite.
    Write = 0,
    /// stat of a path, whole-file read, 1 MiB read, or random 4 KB read.
    Read = 1,
    /// `readdir_plus` (`meta_mdtest` only).
    List = 2,
    /// unlink plus the deletion drain.
    Delete = 3,
}

pub const PHASES: usize = 4;
pub const PHASE_NAMES: [&str; PHASES] = ["write", "read", "list", "delete"];

#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Units of work done: ops, or entries for `List`.
    pub units: u64,
    /// Sum of the op latencies.
    pub ns: u64,
    /// Registry events inside the window.
    pub registry: MetricsSnapshot,
    /// Virtual time that passed inside the window.
    pub virtual_ns: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Cluster build + volume + first mount + directories / preload.
    pub setup_s: f64,
    pub windows: [Window; PHASES],
    /// Latency of every op of the write phase.
    pub write_lat_ns: Vec<u64>,
    /// Bytes handed to the client in the write phase.
    pub user_bytes: u64,
    /// Growth of the cluster's data directory over the write phase.
    pub disk_bytes: u64,
    /// Registry at the end of the round (a new cluster starts from zero).
    pub whole: MetricsSnapshot,
    /// Peak resident set of the process during the round.
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl Round {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("cfsbench: FAILED {what}");
        }
    }

    /// Sum of every timed op of the round.
    pub fn op_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.ns).sum()
    }
}

/// 3 masters, 3 meta nodes, 4 data nodes, a volume of 2 meta and 8 data
/// partitions, every knob at its default, no fabric latency.
fn build_cluster() -> cfs::Result<Cluster> {
    let cluster = ClusterBuilder::new()
        .master_replicas(3)
        .meta_nodes(3)
        .data_nodes(4)
        .build()?;
    cluster.create_volume(VOLUME, 2, 8)?;
    Ok(cluster)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Drives one round against one cluster.
struct Runner<'a> {
    cluster: &'a Cluster,
    round: &'a mut Round,
    data_dir: &'a Path,
    started: Instant,
    virtual_latency: bool,
}

impl Runner<'_> {
    /// Set-up ends here: record its time, then arm the traced run's
    /// virtual latency and handler wrappers.
    fn setup_done(&mut self) {
        self.round.setup_s = self.started.elapsed().as_secs_f64();
        if self.virtual_latency {
            let fabrics = self.cluster.fabrics();
            fabrics.master.set_latency(VIRTUAL_HOP);
            fabrics.meta.set_latency(VIRTUAL_HOP);
            fabrics.data.set_latency(VIRTUAL_HOP);
        }
        if self.round.traced {
            trace::wrap_handlers(self.cluster);
            trace::start();
        }
    }

    /// One timed client op worth `units` of its phase. `None` (and a
    /// failure counted) when it returned an error.
    fn op<T>(
        &mut self,
        phase: Phase,
        route: &'static str,
        units: u64,
        f: impl FnOnce() -> cfs::Result<T>,
    ) -> Option<T> {
        self.round.attempted += 1;
        let span = trace::span(route);
        let t = Instant::now();
        let result = f();
        let ns = t.elapsed().as_nanos() as u64;
        drop(span);
        let w = &mut self.round.windows[phase as usize];
        w.ns += ns;
        if phase == Phase::Write && units > 0 {
            self.round.write_lat_ns.push(ns);
        }
        match result {
            Ok(v) => {
                w.units += units;
                Some(v)
            }
            Err(e) => {
                self.round.fail(format!("{route}: {e}"));
                None
            }
        }
    }

    /// A round-level correctness check, counted as an attempted op.
    fn verify(&mut self, what: &str, ok: bool) {
        self.round.attempted += 1;
        if !ok {
            self.round.fail(format!("check: {what}"));
        }
    }

    /// Run `f` as the window of `phase`, recording the registry events
    /// and the virtual time inside it.
    fn phase(
        &mut self,
        phase: Phase,
        f: impl FnOnce(&mut Self) -> cfs::Result<()>,
    ) -> cfs::Result<()> {
        let before = self.cluster.metrics_snapshot();
        let v0 = self.cluster.virtual_now_ns();
        let disk0 = (phase == Phase::Write).then(|| dir_bytes(self.data_dir));
        let out = f(self);
        if let Some(disk0) = disk0 {
            self.round.disk_bytes = dir_bytes(self.data_dir).saturating_sub(disk0);
        }
        let w = &mut self.round.windows[phase as usize];
        w.virtual_ns = self.cluster.virtual_now_ns() - v0;
        w.registry = self.cluster.metrics_snapshot().diff(&before);
        out
    }

    /// unlink every `(parent, name)`, then drain the deletion queues.
    fn delete_all(&mut self, client: &Client, files: impl Iterator<Item = (InodeId, String)>) {
        let mut n = 0;
        for (parent, name) in files {
            self.op(Phase::Delete, "op.unlink", 1, || {
                client.unlink(parent, &name)
            });
            n += 1;
        }
        let drained = self.op(Phase::Delete, "op.process_deletions", 0, || {
            Ok(client.process_deletions())
        });
        self.verify(
            "every unlinked inode was reclaimed",
            drained.map(|d| d.0) == Some(n),
        );
    }

    /// End-of-round checks every workload shares.
    fn finish(&mut self, client: &Client) {
        let dangling = client.fsck(false).map(|r| r.dangling_dentries);
        self.verify("fsck reports no dangling dentry", matches!(dangling, Ok(0)));
        self.verify(
            "the volume root is empty",
            matches!(client.readdir(client.root()), Ok(ref v) if v.is_empty()),
        );
        self.round.whole = self.cluster.metrics_snapshot();
        let failures = self.round.whole.counter_sum("net.failures{");
        self.verify("no fabric call failed", failures == 0);
    }
}

/// Take every node off its fabric. A data node holds its fabric and the
/// fabric holds the node's handler, so a dropped cluster would otherwise
/// keep its data nodes (and their engines' memory) alive, and the peak
/// resident set would grow with the number of rounds.
fn release_nodes(cluster: &Cluster) {
    let fabrics = cluster.fabrics();
    for n in cluster.masters() {
        fabrics.master.deregister(n.id());
    }
    for n in cluster.meta_nodes() {
        fabrics.meta.deregister(n.id());
    }
    for n in cluster.data_nodes() {
        fabrics.data.deregister(n.id());
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one round of `workload` on a fresh cluster whose engine files live
/// under `data_dir`.
pub fn run_round(
    workload: Workload,
    seed: u64,
    traced: bool,
    virtual_latency: bool,
    data_dir: &Path,
) -> Round {
    let mut round = Round {
        traced,
        ..Round::default()
    };
    // Restart the kernel's high-water mark, so that the round reports its
    // own peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let started = Instant::now();
    let result = (|| {
        let cluster = build_cluster()?;
        let mut r = Runner {
            cluster: &cluster,
            round: &mut round,
            data_dir,
            started,
            virtual_latency,
        };
        let out = match workload {
            Workload::MetaMdtest => meta_mdtest(&mut r, seed),
            Workload::SmallFiles => small_files(&mut r, seed),
            Workload::LargeSeq => large_seq(&mut r, seed),
            Workload::LargeRand => large_rand(&mut r, seed),
        };
        release_nodes(&cluster);
        out
    })();
    round.spans = trace::finish();
    round.peak_rss_mib = peak_rss_mib();
    if let Err(e) = result {
        round.attempted += 1;
        round.fail(format!("{}: round aborted: {e}", workload.name()));
    }
    round
}

fn mkdirs(client: &Client, names: &[String]) -> cfs::Result<Vec<InodeId>> {
    let root = client.root();
    names
        .iter()
        .map(|d| Ok(client.mkdir(root, d)?.id))
        .collect()
}

const DIRS: usize = 10;

// --- meta_mdtest ---------------------------------------------------------

pub const META_FILES_PER_DIR: usize = 60;
const META_STAT_PASSES: usize = 200;
const META_LIST_PASSES: usize = 1000;

/// mdtest-like: create empty files, stat every path from cold mounts,
/// list every directory from cold mounts, unlink everything.
fn meta_mdtest(r: &mut Runner, seed: u64) -> cfs::Result<()> {
    let ns = gen::namespace(seed, DIRS, META_FILES_PER_DIR, &[0]);
    let writer = r.cluster.mount(VOLUME)?;
    let dirs = mkdirs(&writer, &ns.dirs)?;
    r.setup_done();

    let mut inodes = Vec::with_capacity(ns.files.len());
    r.phase(Phase::Write, |r| {
        for f in &ns.files {
            let made = r.op(Phase::Write, "op.create", 1, || {
                writer.create(dirs[f.dir], &f.name)
            });
            inodes.push(made.map(|i| i.id));
        }
        Ok(())
    })?;

    r.phase(Phase::Read, |r| {
        for _ in 0..META_STAT_PASSES {
            let cold = r.cluster.mount(VOLUME)?;
            for (f, want) in ns.files.iter().zip(&inodes) {
                let got = r.op(Phase::Read, "op.stat", 1, || {
                    let dentry = cold.lookup(dirs[f.dir], &f.name)?;
                    cold.stat(dentry.inode)
                });
                if let (Some(got), Some(want)) = (got, want) {
                    if got.id != *want {
                        r.round.fail(format!("stat {}: wrong inode", f.name));
                    }
                }
            }
        }
        Ok(())
    })?;

    r.phase(Phase::List, |r| {
        for _ in 0..META_LIST_PASSES {
            let cold = r.cluster.mount(VOLUME)?;
            for &dir in &dirs {
                let listed = r.op(Phase::List, "op.readdir_plus", 0, || cold.readdir_plus(dir));
                if let Some(entries) = listed {
                    r.round.windows[Phase::List as usize].units += entries.len() as u64;
                    if entries.len() != META_FILES_PER_DIR {
                        r.round.fail(format!(
                            "readdir_plus: {} entries, {META_FILES_PER_DIR} files created",
                            entries.len()
                        ));
                    }
                }
            }
        }
        Ok(())
    })?;

    r.phase(Phase::Delete, |r| {
        let files = ns.files.iter().map(|f| (dirs[f.dir], f.name.clone()));
        r.delete_all(&writer, files);
        let root = writer.root();
        for d in &ns.dirs {
            r.op(Phase::Delete, "op.rmdir", 0, || writer.rmdir(root, d));
        }
        Ok(())
    })?;
    r.finish(&writer);
    Ok(())
}

// --- small_files ---------------------------------------------------------

const SMALL_FILES_PER_DIR: usize = 30;
const SMALL_SIZES: [usize; 5] = [KIB, 4 * KIB, 16 * KIB, 64 * KIB, 128 * KIB];
const SMALL_READ_PASSES: usize = 40;

/// The container small-file path: create+open+write+close per file, whole
/// file read-back from cold mounts, unlink plus the punch-hole drain.
fn small_files(r: &mut Runner, seed: u64) -> cfs::Result<()> {
    let ns = gen::namespace(seed, DIRS, SMALL_FILES_PER_DIR, &SMALL_SIZES);
    let writer = r.cluster.mount(VOLUME)?;
    let dirs = mkdirs(&writer, &ns.dirs)?;
    r.setup_done();

    let mut sums = Vec::with_capacity(ns.files.len());
    r.phase(Phase::Write, |r| {
        for f in &ns.files {
            let data = gen::payload(f.content_seed, f.size);
            sums.push(gen::checksum(&data));
            r.op(Phase::Write, "op.write_file", 1, || {
                writer.create(dirs[f.dir], &f.name)?;
                let mut fh = writer.open(dirs[f.dir], &f.name)?;
                writer.write(&mut fh, &data)?;
                writer.close(&mut fh)
            });
            r.round.user_bytes += f.size as u64;
        }
        Ok(())
    })?;

    r.phase(Phase::Read, |r| {
        for _ in 0..SMALL_READ_PASSES {
            let cold = r.cluster.mount(VOLUME)?;
            for (f, want) in ns.files.iter().zip(&sums) {
                // One byte more than was written, so a file that grew
                // fails the length check.
                let got = r.op(Phase::Read, "op.read_file", 1, || {
                    let fh = cold.open(dirs[f.dir], &f.name)?;
                    cold.read_at(&fh, 0, f.size + 1)
                });
                if let Some(got) = got {
                    if got.len() != f.size || gen::checksum(&got) != *want {
                        r.round.fail(format!("read {}: checksum mismatch", f.name));
                    }
                }
            }
        }
        Ok(())
    })?;

    let listed: usize = dirs
        .iter()
        .map(|&d| writer.readdir(d).map_or(0, |v| v.len()))
        .sum();
    r.verify(
        "readdir counts equal files created",
        listed == ns.files.len(),
    );

    r.phase(Phase::Delete, |r| {
        let files = ns.files.iter().map(|f| (dirs[f.dir], f.name.clone()));
        r.delete_all(&writer, files);
        Ok(())
    })?;
    let root = writer.root();
    for d in &ns.dirs {
        writer.rmdir(root, d)?;
    }
    r.finish(&writer);
    // Every byte the stores wrote belonged to a file that is now deleted.
    let whole = &r.round.whole;
    let (written, punched) = (
        whole.counter("store.bytes_written"),
        whole.counter("store.bytes_punched"),
    );
    let live = whole.gauge("store.live_bytes").map(|g| g.value);
    r.verify(
        "store.bytes_punched equals store.bytes_written",
        punched == written,
    );
    r.verify("store.live_bytes is back to 0", live == Some(0));
    Ok(())
}

// --- large_seq -----------------------------------------------------------

const SEQ_BYTES: usize = 16 * MIB;
const SEQ_READ_PASSES: usize = 30;

fn short_io(what: &str, got: usize, want: usize) -> CfsError {
    CfsError::Internal(format!("{what}: {got} of {want} bytes"))
}

/// Append `content` to `fh` in 1 MiB `write` calls and `fsync`; timed into
/// the write phase when `timed`.
fn write_large(
    r: &mut Runner,
    timed: bool,
    client: &Client,
    fh: &mut cfs::FileHandle,
    content: &[u8],
) -> cfs::Result<()> {
    for chunk in content.chunks(MIB) {
        let mut write = || match client.write(fh, chunk)? {
            n if n == chunk.len() => Ok(()),
            n => Err(short_io("write", n, chunk.len())),
        };
        if timed {
            r.op(Phase::Write, "op.write", 1, write);
        } else {
            write()?;
        }
    }
    if timed {
        r.op(Phase::Write, "op.fsync", 0, || client.fsync(fh));
    } else {
        client.fsync(fh)?;
    }
    Ok(())
}

/// Read the whole file through `client` in 1 MiB `read_at` calls and
/// compare it with `want`; timed into the read phase when `timed`.
fn read_large(
    r: &mut Runner,
    timed: bool,
    client: &Client,
    name: &str,
    want: &[u8],
) -> cfs::Result<bool> {
    let fh = client.open(client.root(), name)?;
    let mut same = true;
    for (i, chunk) in want.chunks(MIB).enumerate() {
        let read = || client.read_at(&fh, (i * MIB) as u64, MIB);
        let got = if timed {
            r.op(Phase::Read, "op.read", 1, read)
        } else {
            Some(read()?)
        };
        same &= got.is_some_and(|g| g == chunk);
    }
    Ok(same)
}

fn delete_large(r: &mut Runner, client: &Client, name: &str) -> cfs::Result<()> {
    r.phase(Phase::Delete, |r| {
        r.delete_all(client, std::iter::once((client.root(), name.to_string())));
        Ok(())
    })
}

/// fio sequential: stream one file in 1 MiB writes, read it back in 1 MiB
/// reads from cold mounts.
fn large_seq(r: &mut Runner, seed: u64) -> cfs::Result<()> {
    let file = gen::large_file(seed, SEQ_BYTES as u64, MIB as u64, 0, 0);
    let content = gen::payload(file.content_seed, SEQ_BYTES);
    let writer = r.cluster.mount(VOLUME)?;
    writer.create(writer.root(), &file.name)?;
    let mut fh = writer.open(writer.root(), &file.name)?;
    r.setup_done();

    r.phase(Phase::Write, |r| {
        write_large(r, true, &writer, &mut fh, &content)
    })?;
    r.round.user_bytes = SEQ_BYTES as u64;

    r.phase(Phase::Read, |r| {
        for _ in 0..SEQ_READ_PASSES {
            let cold = r.cluster.mount(VOLUME)?;
            if !read_large(r, true, &cold, &file.name, &content)? {
                r.round.fail("sequential read-back differs".into());
            }
        }
        Ok(())
    })?;

    delete_large(r, &writer, &file.name)?;
    r.finish(&writer);
    Ok(())
}

// --- large_rand ----------------------------------------------------------

const RAND_BYTES: usize = 8 * MIB;
const RAND_BLOCK: usize = 4 * KIB;
const RAND_READS: usize = 40_000;
const RAND_OVERWRITES: usize = 500;

/// fio random: 4 KB reads over a file twice the size of the reader's
/// block cache, then 4 KB in-place overwrites (the data-plane Raft path).
fn large_rand(r: &mut Runner, seed: u64) -> cfs::Result<()> {
    let file = gen::large_file(
        seed,
        RAND_BYTES as u64,
        RAND_BLOCK as u64,
        RAND_READS,
        RAND_OVERWRITES,
    );
    let mut model = gen::payload(file.content_seed, RAND_BYTES);
    let writer = r.cluster.mount(VOLUME)?;
    writer.create(writer.root(), &file.name)?;
    let mut fh = writer.open(writer.root(), &file.name)?;
    write_large(r, false, &writer, &mut fh, &model)?;
    r.setup_done();

    // The default cache (32 MiB) would hold the whole 8 MiB file; keep
    // the file at twice the cache instead of paying a 64 MiB preload per
    // round.
    let cache_blocks = RAND_BYTES / r.cluster.config().packet_size as usize / 2;
    let reader = r.cluster.mount_with_options(
        VOLUME,
        ClientOptions {
            read_cache_capacity: cache_blocks,
            ..ClientOptions::default()
        },
    )?;
    let read_fh = reader.open(reader.root(), &file.name)?;
    r.phase(Phase::Read, |r| {
        for &off in &file.read_offsets {
            let got = r.op(Phase::Read, "op.read_4k", 1, || {
                reader.read_at(&read_fh, off, RAND_BLOCK)
            });
            let want = &model[off as usize..off as usize + RAND_BLOCK];
            if got.is_some_and(|g| g != want) {
                r.round.fail(format!("random read at {off} differs"));
            }
        }
        Ok(())
    })?;

    r.phase(Phase::Write, |r| {
        for &(off, data_seed) in &file.overwrites {
            let data = gen::payload(data_seed, RAND_BLOCK);
            r.op(Phase::Write, "op.overwrite", 1, || {
                match writer.write_at(&mut fh, off, &data)? {
                    n if n == RAND_BLOCK => Ok(()),
                    n => Err(short_io("write_at", n, RAND_BLOCK)),
                }
            });
            model[off as usize..off as usize + RAND_BLOCK].copy_from_slice(&data);
            r.round.user_bytes += RAND_BLOCK as u64;
        }
        r.op(Phase::Write, "op.fsync", 0, || writer.fsync(&mut fh));
        Ok(())
    })?;

    // An overwrite is acknowledged once its Raft entry commits, but a cold
    // mount reads from the first replica, which as a follower learns of
    // the commit only with the leader's next message: without this
    // quiesce the last overwrite reads back stale (reported in the
    // README; the stack is left as it is).
    r.cluster.settle(64);
    let cold = r.cluster.mount(VOLUME)?;
    let same = read_large(r, false, &cold, &file.name, &model)?;
    r.verify("the file reads back as overwritten", same);

    delete_large(r, &writer, &file.name)?;
    r.finish(&writer);
    Ok(())
}
