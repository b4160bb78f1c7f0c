//! Mounting, caches, routing and retries.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::async_commit::Acked;
use crate::route::Group;
use cfs_data::{DataRequest, DataResponse};
use cfs_master::{DataPartitionMeta, MasterRequest, MasterResponse, MetaPartitionMeta};
use cfs_meta::{
    IntentContext, MetaCommand, MetaRead, MetaRequest, MetaResponse, MetaValue, MAX_WRITE_BATCH,
};
use cfs_net::Network;
use cfs_obs::{Counter, Gauge, Registry, RequestId, Span};
use cfs_types::{
    CfsError, ClusterConfig, Dentry, Inode, InodeId, NodeId, PartitionId, Result, VolumeId,
};

/// Retry limit per logical operation (§2.1.3: retry until success or
/// this limit).
pub(crate) const MAX_RETRIES: u32 = 5;
/// Retry backoff, in backoff units (the simulated clock's yield quantum;
/// no wall time involved): the first wait, and the cap on the
/// exponentially growing wait.
const RETRY_BACKOFF_BASE: u64 = 1;
const RETRY_BACKOFF_CAP: u64 = 32;
/// How long a negative lookup ("no such name") stays cached, in the
/// client's logical-clock units. Local mutations of the parent invalidate
/// negative entries early.
const NEGATIVE_LOOKUP_TTL_NS: u64 = 256;
/// Small-file coalescing byte bound: flush once the buffered records
/// reach this many bytes.
pub(crate) const SMALL_BATCH_MAX_BYTES: u64 = 256 * 1024;
/// Small-file coalescing age bound, in client logical-clock ticks: a
/// buffered record never waits longer than this for peers.
pub(crate) const SMALL_BATCH_MAX_AGE: u64 = 256;
/// Blocks fetched ahead of a sequential read-cache miss.
pub(crate) const READAHEAD_BLOCKS: u64 = 4;

/// Per-mount tunables: the one place the client's knobs live.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Deterministic seed for random partition selection (§2.3.1: clients
    /// pick partitions randomly to avoid consulting the RM per write).
    pub seed: u64,
    /// Append packets kept in flight per window (§2.7.1: the client
    /// "streams" packets; 1 = fully synchronous, one blocking round-trip
    /// wait per packet); also caps the read-path extent fan-out. Must be
    /// > 0.
    pub pipeline_depth: u32,
    /// Sync freshly committed extent keys to the meta node every N packets
    /// (and always on fsync/close), §2.7.1: "synchronizes with the meta
    /// node periodically or upon fsync". 1 = sync on every write call.
    /// Must be > 0.
    pub meta_sync_every: u32,
    /// Shared metrics registry. When set, the client's data-path counters
    /// get `client.*` names in it, ops allocate causal request ids that
    /// ride in `Append` packet headers, and client-side spans are recorded
    /// against its tracer. When unset everything still counts, detached.
    pub registry: Option<Registry>,
    /// Asynchronous metadata commit (DESIGN §12): create/link/unlink
    /// return once the op is durably journaled at the leader instead of
    /// after its Raft round; `fsync`/`close` become the strong barrier
    /// that drains the outstanding intents. Off by default — the
    /// synchronous paths are the baseline semantics.
    pub async_meta: bool,
    /// Small-file write coalescing (DESIGN §13): small creates' first
    /// writes buffered before the client submits them as one
    /// `WriteSmallBatch` to a PB leader. 1 (the default) = no coalescing:
    /// every record is submitted inside its own `write`. Above 1,
    /// `fsync`/`close` and the async-commit barrier drain the buffer.
    /// Must be > 0.
    pub small_batch_max_ops: u32,
    /// Readahead extent cache over `read_at` (DESIGN §13): resident block
    /// capacity of this mount, in `packet_size` blocks; 0 turns the cache
    /// off. On by default: the cache is invisible except for saved fabric
    /// reads, and keeping it on means every chaos seed exercises its
    /// invalidation paths.
    pub read_cache_capacity: usize,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            seed: 0xC0FFEE,
            pipeline_depth: 4,
            meta_sync_every: 1,
            registry: None,
            async_meta: false,
            small_batch_max_ops: 1,
            read_cache_capacity: 256,
        }
    }
}

/// A per-client counter that also mirrors into a registry-named
/// `client.*` counter when the client was mounted with one. The local
/// handle keeps [`Client::data_path_stats`] strictly per-client even
/// though the cluster registry is shared by every mount.
#[derive(Debug, Default)]
pub(crate) struct CounterPair {
    local: Counter,
    shared: Option<Counter>,
}

impl CounterPair {
    fn shared(counter: Counter) -> CounterPair {
        CounterPair {
            local: Counter::default(),
            shared: Some(counter),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.local.add(n);
        if let Some(s) = &self.shared {
            s.add(n);
        }
    }

    /// This client's count (never another mount's traffic).
    pub fn get(&self) -> u64 {
        self.local.get()
    }
}

/// [`CounterPair`]'s gauge counterpart.
#[derive(Debug, Default)]
pub(crate) struct GaugePair {
    local: Gauge,
    shared: Option<Gauge>,
}

impl GaugePair {
    fn shared(gauge: Gauge) -> GaugePair {
        GaugePair {
            local: Gauge::default(),
            shared: Some(gauge),
        }
    }

    pub fn add(&self, n: i64) {
        self.local.add(n);
        if let Some(s) = &self.shared {
            s.add(n);
        }
    }

    pub fn sub(&self, n: i64) {
        self.local.sub(n);
        if let Some(s) = &self.shared {
            s.sub(n);
        }
    }

    /// This client's gauge value (never another mount's traffic).
    pub fn get(&self) -> i64 {
        self.local.get()
    }
}

/// Data-path instrumentation: how the client's pipelining behaves, exposed
/// so tests and benches can assert on blocking-wait counts. Counts are
/// per-client; a client mounted with a registry additionally mirrors them
/// into the shared `client.*` metrics (see [`ClientOptions::registry`]).
#[derive(Debug, Default)]
pub(crate) struct DataPathStats {
    /// Append packets handed to the fabric (including failed sends).
    pub packets_sent: CounterPair,
    /// Blocking round-trip waits on the append path: one per window (a
    /// window of depth 1 degenerates to one wait per packet).
    pub window_waits: CounterPair,
    /// Extent-key syncs issued to the meta node.
    pub meta_syncs: CounterPair,
    /// `read_at` calls that fanned out over more than one extent.
    pub parallel_read_fanouts: CounterPair,
    /// Append packets currently in flight; the high-water mark is the
    /// budget tests' proof that the window never exceeds `pipeline_depth`.
    pub inflight_packets: GaugePair,
    /// Retry passes taken after a failed scan (never incremented on the
    /// happy path; per-op breakdown lives in `client.retries{op=..}`).
    pub retries: CounterPair,
    /// Partition-table re-fetches triggered by failed scans (§2.4: the
    /// cached view went stale — e.g. repair moved a replica).
    pub view_refreshes: CounterPair,
    /// Lookups answered from the client lookup cache (§2.4).
    pub lookup_cache_hits: CounterPair,
    /// Lookups that went to the fabric (no usable cache entry).
    pub lookup_cache_misses: CounterPair,
    /// Lookups answered `NotFound` from an unexpired negative entry.
    pub lookup_cache_negatives: CounterPair,
    /// Meta read RPCs that reached a leader and were served — counted on
    /// `Value` responses and on non-retryable domain errors (which only
    /// arise *after* the server classified the read as lease or quorum).
    /// Reconciles against `meta.lease_reads + meta.quorum_reads`.
    pub meta_reads_served: CounterPair,
    /// Data `Read` replies taken as served; reconciles against
    /// `data.lease_reads + data.quorum_reads`.
    pub data_reads_served: CounterPair,
    /// Small-file first-writes taken on the aggregated-extent path: each
    /// joins the coalescing buffer (DESIGN §13), for as long as the
    /// record bound lets it wait.
    pub smallfile_coalesced: CounterPair,
    /// `WriteSmallBatch` RPC submissions the coalescer flushed.
    pub smallfile_batches: CounterPair,
    /// Records durably committed through flushed batches.
    pub smallfile_batch_records: CounterPair,
    /// Reads served straight from the coalescing buffer or its
    /// flushed-location map (read-your-writes before handle adoption).
    pub smallfile_buffer_reads: CounterPair,
    /// Read-cache blocks served without touching the fabric.
    pub readcache_hits: CounterPair,
    /// Demanded blocks that had to be fetched.
    pub readcache_misses: CounterPair,
    /// Speculative blocks fetched ahead of a sequential miss.
    pub readcache_readahead: CounterPair,
    /// Full blocks inserted into the cache (partial tail blocks are
    /// never cached, so inserted ≤ misses + readahead).
    pub readcache_inserted: CounterPair,
    /// Blocks evicted by the capacity bound.
    pub readcache_evicted: CounterPair,
    /// Blocks dropped by invalidation: truncate, punch-hole/overwrite
    /// overlap, generation drift, or a partition-view refresh.
    pub readcache_invalidated: CounterPair,
    /// Blocks currently resident. Conservation law, checked by chaos:
    /// `resident == inserted - evicted - invalidated`.
    pub readcache_resident: GaugePair,
}

impl DataPathStats {
    fn bind(registry: &Registry) -> DataPathStats {
        DataPathStats {
            packets_sent: CounterPair::shared(registry.counter("client.packets_sent")),
            window_waits: CounterPair::shared(registry.counter("client.window_waits")),
            meta_syncs: CounterPair::shared(registry.counter("client.meta_syncs")),
            parallel_read_fanouts: CounterPair::shared(
                registry.counter("client.parallel_read_fanouts"),
            ),
            inflight_packets: GaugePair::shared(registry.gauge("client.inflight_packets")),
            retries: CounterPair::shared(registry.counter("client.retries")),
            view_refreshes: CounterPair::shared(registry.counter("client.view_refresh")),
            lookup_cache_hits: CounterPair::shared(registry.counter("client.lookup_cache.hit")),
            lookup_cache_misses: CounterPair::shared(registry.counter("client.lookup_cache.miss")),
            lookup_cache_negatives: CounterPair::shared(
                registry.counter("client.lookup_cache.negative"),
            ),
            meta_reads_served: CounterPair::shared(registry.counter("client.meta_reads_served")),
            data_reads_served: CounterPair::shared(registry.counter("client.data_reads_served")),
            smallfile_coalesced: CounterPair::shared(
                registry.counter("client.smallfile.coalesced"),
            ),
            smallfile_batches: CounterPair::shared(registry.counter("client.smallfile.batches")),
            smallfile_batch_records: CounterPair::shared(
                registry.counter("client.smallfile.batch_records"),
            ),
            smallfile_buffer_reads: CounterPair::shared(
                registry.counter("client.smallfile.buffer_reads"),
            ),
            readcache_hits: CounterPair::shared(registry.counter("client.readcache.hit")),
            readcache_misses: CounterPair::shared(registry.counter("client.readcache.miss")),
            readcache_readahead: CounterPair::shared(
                registry.counter("client.readcache.readahead"),
            ),
            readcache_inserted: CounterPair::shared(registry.counter("client.readcache.inserted")),
            readcache_evicted: CounterPair::shared(registry.counter("client.readcache.evicted")),
            readcache_invalidated: CounterPair::shared(
                registry.counter("client.readcache.invalidated"),
            ),
            readcache_resident: GaugePair::shared(registry.gauge("client.readcache.resident")),
        }
    }
}

/// Point-in-time copy of [`Client::data_path_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPathSnapshot {
    pub packets_sent: u64,
    pub window_waits: u64,
    pub meta_syncs: u64,
    pub parallel_read_fanouts: u64,
    pub retries: u64,
    pub view_refreshes: u64,
    pub lookup_cache_hits: u64,
    pub lookup_cache_misses: u64,
    pub lookup_cache_negatives: u64,
    pub meta_reads_served: u64,
    pub smallfile_coalesced: u64,
    pub smallfile_batches: u64,
    pub smallfile_batch_records: u64,
    pub smallfile_buffer_reads: u64,
    pub readcache_hits: u64,
    pub readcache_misses: u64,
    pub readcache_readahead: u64,
    pub readcache_inserted: u64,
    pub readcache_evicted: u64,
    pub readcache_invalidated: u64,
    pub readcache_resident: i64,
}

/// RPC fabrics the client talks over.
#[derive(Clone)]
pub struct Fabrics {
    pub master: Network<MasterRequest, Result<MasterResponse>>,
    pub meta: Network<MetaRequest, Result<MetaResponse>>,
    pub data: Network<DataRequest, Result<DataResponse>>,
}

/// One slot of the client lookup cache (§2.4): either a positive dentry
/// pinned to the generation the target inode had when the entry was
/// filled, or a cached negative ("no such name") with an expiry on the
/// client's logical clock. Positive entries have no TTL — any local
/// mutation of the parent directory invalidates them, and a generation
/// mismatch against the attribute cache drops them lazily.
#[derive(Debug, Clone)]
pub(crate) enum LookupEntry {
    Hit {
        dentry: Dentry,
        /// Target inode's `generation` at fill time, if the attribute
        /// cache knew it. A later attribute fetch observing a different
        /// generation means this entry resolved against stale state.
        target_gen: Option<u64>,
    },
    Negative {
        expires_ns: u64,
    },
}

pub(crate) struct CacheState {
    pub meta_partitions: Vec<MetaPartitionMeta>,
    pub data_partitions: Vec<DataPartitionMeta>,
    /// Last identified Raft leader per group (§2.4); only the routing
    /// code in `route.rs` reads or writes it.
    pub leader_cache: HashMap<Group, NodeId>,
    /// Inode cache (§2.4), force-synced on open.
    pub inode_cache: HashMap<InodeId, Inode>,
    /// Lookup cache: (parent, name) → positive or negative entry.
    pub lookup_cache: HashMap<(InodeId, String), LookupEntry>,
    /// Local orphan-inode list (§2.6.1): inodes awaiting an evict request,
    /// routed by id when it is sent.
    pub orphans: Vec<InodeId>,
    /// Async-commit intents acked but not yet barriered (DESIGN §12),
    /// drained by the next `fsync`/`close`.
    pub async_pending: Vec<crate::async_commit::AsyncIntent>,
    pub rng: SmallRng,
}

/// One mounted volume.
pub struct Client {
    pub(crate) id: NodeId,
    pub(crate) volume: VolumeId,
    pub(crate) root: InodeId,
    pub(crate) config: ClusterConfig,
    pub(crate) options: ClientOptions,
    pub(crate) fabrics: Fabrics,
    pub(crate) master_replicas: Vec<NodeId>,
    pub(crate) cache: Mutex<CacheState>,
    /// Small-file write coalescing buffer (DESIGN §13). Separate lock
    /// from `cache` so a flush never holds the routing cache across a
    /// fabric round-trip.
    pub(crate) coalesce: Mutex<crate::coalesce::CoalesceState>,
    /// Readahead extent cache over `read_at` (DESIGN §13).
    pub(crate) readcache: Mutex<crate::readcache::ReadCacheState>,
    pub(crate) stats: DataPathStats,
    /// Logical clock for command timestamps (ns).
    clock: AtomicU64,
}

impl Client {
    /// Mount `volume_name`: fetch the partition table from the resource
    /// manager and locate the volume root (inode 1).
    pub fn mount(
        id: NodeId,
        volume_name: &str,
        fabrics: Fabrics,
        master_replicas: Vec<NodeId>,
        config: ClusterConfig,
        options: ClientOptions,
    ) -> Result<Self> {
        if options.pipeline_depth == 0
            || options.meta_sync_every == 0
            || options.small_batch_max_ops == 0
        {
            return Err(CfsError::InvalidArgument(
                "pipeline_depth, meta_sync_every and small_batch_max_ops must be > 0".into(),
            ));
        }
        let seed = options.seed ^ id.raw();
        let stats = options
            .registry
            .as_ref()
            .map(DataPathStats::bind)
            .unwrap_or_default();
        let client = Client {
            id,
            volume: VolumeId(0), // filled below
            root: cfs_types::ROOT_INODE,
            config,
            options,
            fabrics,
            master_replicas,
            cache: Mutex::new(CacheState {
                meta_partitions: Vec::new(),
                data_partitions: Vec::new(),
                leader_cache: HashMap::new(),
                inode_cache: HashMap::new(),
                lookup_cache: HashMap::new(),
                orphans: Vec::new(),
                async_pending: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
            }),
            coalesce: Mutex::new(crate::coalesce::CoalesceState::default()),
            readcache: Mutex::new(crate::readcache::ReadCacheState::default()),
            stats,
            clock: AtomicU64::new(1),
        };
        let volume = client.fetch_volume(volume_name)?;
        // Safe: the struct is not shared yet.
        let client = Client { volume, ..client };
        client.refresh_partition_table()?;
        Ok(client)
    }

    /// The mounted volume id.
    pub fn volume(&self) -> VolumeId {
        self.volume
    }

    /// The volume root inode.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Monotonic per-client timestamp for command payloads.
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Current logical-clock reading without advancing it (age checks).
    pub(crate) fn peek_clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Data-path pipelining counters for this client.
    pub fn data_path_stats(&self) -> DataPathSnapshot {
        DataPathSnapshot {
            packets_sent: self.stats.packets_sent.get(),
            window_waits: self.stats.window_waits.get(),
            meta_syncs: self.stats.meta_syncs.get(),
            parallel_read_fanouts: self.stats.parallel_read_fanouts.get(),
            retries: self.stats.retries.get(),
            view_refreshes: self.stats.view_refreshes.get(),
            lookup_cache_hits: self.stats.lookup_cache_hits.get(),
            lookup_cache_misses: self.stats.lookup_cache_misses.get(),
            lookup_cache_negatives: self.stats.lookup_cache_negatives.get(),
            meta_reads_served: self.stats.meta_reads_served.get(),
            smallfile_coalesced: self.stats.smallfile_coalesced.get(),
            smallfile_batches: self.stats.smallfile_batches.get(),
            smallfile_batch_records: self.stats.smallfile_batch_records.get(),
            smallfile_buffer_reads: self.stats.smallfile_buffer_reads.get(),
            readcache_hits: self.stats.readcache_hits.get(),
            readcache_misses: self.stats.readcache_misses.get(),
            readcache_readahead: self.stats.readcache_readahead.get(),
            readcache_inserted: self.stats.readcache_inserted.get(),
            readcache_evicted: self.stats.readcache_evicted.get(),
            readcache_invalidated: self.stats.readcache_invalidated.get(),
            readcache_resident: self.stats.readcache_resident.get(),
        }
    }

    /// A fresh causal request id for one client op, or the untraced
    /// sentinel when no registry was supplied at mount.
    pub(crate) fn next_request_id(&self) -> RequestId {
        self.options
            .registry
            .as_ref()
            .map(|r| r.next_request_id())
            .unwrap_or(RequestId::NONE)
    }

    /// Open a `client.{op}` span for a traced op (no-op without a
    /// registry).
    pub(crate) fn op_span(&self, rid: RequestId, op: &'static str) -> Option<Span> {
        let registry = self.options.registry.as_ref()?;
        rid.is_traced()
            .then(|| registry.tracer().span(rid, "client", op))
    }

    // ------------------------------------------------------------------
    // Retry discipline (§2.1.3): deterministic capped exponential backoff
    // ------------------------------------------------------------------

    /// Wait before retry pass `pass` (0 = the first *re*-scan): the delay
    /// is `min(cap, base << pass)` backoff units plus seeded jitter in
    /// `[0, delay]`. There is no wall clock anywhere in the retry path:
    /// the wait is charged to the client's logical clock *and* to the
    /// fabric's virtual clock (so scheduled deliveries and delayed
    /// verdicts come due across the backoff), and the fabric's completion
    /// condvar provides the wakeup — nothing spins or sleeps.
    pub(crate) fn backoff(&self, pass: u32) {
        let delay = crate::retry::capped_backoff(RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP, pass);
        let jitter = self.cache.lock().rng.gen_range(0..delay + 1);
        self.clock.fetch_add(delay + jitter, Ordering::Relaxed);
        self.fabrics.data.clock().advance(delay + jitter);
    }

    /// Count one retry pass, both in the aggregate `client.retries` and a
    /// per-op `client.retries{op=..}` registry counter.
    pub(crate) fn count_retry(&self, op: &str) {
        self.stats.retries.inc();
        if let Some(r) = &self.options.registry {
            r.counter(&format!("client.retries{{op={op}}}")).inc();
        }
    }

    // ------------------------------------------------------------------
    // Resource-manager communication (non-persistent connections, §2.5.2)
    // ------------------------------------------------------------------

    /// Call the master group's leader.
    pub(crate) fn master_call(&self, req: MasterRequest) -> Result<MasterResponse> {
        let answer = self.route(
            &self.fabrics.master,
            Group::Master,
            &self.master_replicas,
            MAX_RETRIES + 1,
            || req.clone(),
        )?;
        Ok(answer?.1)
    }

    fn fetch_volume(&self, name: &str) -> Result<VolumeId> {
        match self.master_call(MasterRequest::GetVolume { name: name.into() })? {
            MasterResponse::Volume { volume, .. } => Ok(volume.volume),
            _ => Err(CfsError::Internal("bad GetVolume reply".into())),
        }
    }

    /// Re-fetch the volume's partition table (done at mount, periodically,
    /// and whenever placement information looks stale, §2.4).
    pub fn refresh_partition_table(&self) -> Result<()> {
        match self.master_call(MasterRequest::GetVolumeById {
            volume: self.volume,
        })? {
            MasterResponse::Volume {
                meta_partitions,
                data_partitions,
                ..
            } => {
                {
                    let mut cache = self.cache.lock();
                    cache.meta_partitions = meta_partitions;
                    cache.data_partitions = data_partitions;
                }
                // The placement view moved under us: drop every cached
                // block rather than risk serving bytes fetched through a
                // replica set that has since been repaired (DESIGN §13).
                self.read_cache_clear();
                Ok(())
            }
            _ => Err(CfsError::Internal("bad GetVolumeById reply".into())),
        }
    }

    // ------------------------------------------------------------------
    // Partition routing
    // ------------------------------------------------------------------

    /// The meta partition owning `inode` (routing by inode-id range).
    pub(crate) fn meta_partition_of(&self, inode: InodeId) -> Result<(PartitionId, Vec<NodeId>)> {
        let cache = self.cache.lock();
        cache
            .meta_partitions
            .iter()
            .find(|p| p.start <= inode && inode <= p.end)
            .map(|p| (p.partition, p.members.clone()))
            .ok_or_else(|| CfsError::NotFound(format!("no meta partition for {inode}")))
    }

    /// A random writable meta partition for new inodes (§2.3.1: the client
    /// picks randomly among the RM-allocated partitions).
    pub(crate) fn random_meta_partition(&self) -> Result<(PartitionId, Vec<NodeId>)> {
        let mut cache = self.cache.lock();
        // Writable = the partition can still allocate ids (max < end).
        let candidates: Vec<(PartitionId, Vec<NodeId>)> = cache
            .meta_partitions
            .iter()
            .filter(|p| p.max_inode < p.end)
            .map(|p| (p.partition, p.members.clone()))
            .collect();
        if candidates.is_empty() {
            return Err(CfsError::Unavailable("no writable meta partitions".into()));
        }
        let i = cache.rng.gen_range(0..candidates.len());
        Ok(candidates[i].clone())
    }

    /// A random writable data partition (excluding `avoid`) for new
    /// extents; a failed append resends the remainder to a *different*
    /// partition (§2.2.5).
    pub(crate) fn random_data_partition(
        &self,
        avoid: &[PartitionId],
    ) -> Result<(PartitionId, Vec<NodeId>)> {
        let mut cache = self.cache.lock();
        let candidates: Vec<(PartitionId, Vec<NodeId>)> = cache
            .data_partitions
            .iter()
            .filter(|p| !p.read_only && !p.full && !avoid.contains(&p.partition))
            .map(|p| (p.partition, p.members.clone()))
            .collect();
        if candidates.is_empty() {
            return Err(CfsError::Unavailable("no writable data partitions".into()));
        }
        let i = cache.rng.gen_range(0..candidates.len());
        Ok(candidates[i].clone())
    }

    /// Replica array of a data partition (index 0 = PB leader, §2.7.1).
    /// Public for tests and tooling that target specific replicas.
    pub fn data_partition_members(&self, partition: PartitionId) -> Result<Vec<NodeId>> {
        let cache = self.cache.lock();
        cache
            .members(Group::Data(partition))
            .map(<[NodeId]>::to_vec)
            .ok_or_else(|| CfsError::NotFound(format!("{partition}")))
    }

    /// Issue one data RPC to a partition's Raft leader, for up to
    /// `attempts` scan passes. The caller matches the returned response
    /// against the variant it expects.
    pub(crate) fn call_leader(
        &self,
        partition: PartitionId,
        attempts: u32,
        req: impl FnMut() -> DataRequest,
    ) -> Result<DataResponse> {
        let members = self.data_partition_members(partition)?;
        let group = Group::Data(partition);
        Ok(self
            .route(&self.fabrics.data, group, &members, attempts, req)??
            .1)
    }

    // ------------------------------------------------------------------
    // Meta RPC with leader cache + retries
    // ------------------------------------------------------------------

    /// Send one meta RPC to the partition's leader; retries per §2.1.3.
    fn meta_answer(
        &self,
        partition: PartitionId,
        members: &[NodeId],
        req: MetaRequest,
    ) -> Result<(NodeId, MetaResponse)> {
        let is_read = matches!(req, MetaRequest::Read { .. });
        let group = Group::Meta(partition);
        let answer = self
            .route(&self.fabrics.meta, group, members, MAX_RETRIES + 1, || {
                req.clone()
            })
            .map_err(|last| {
                CfsError::RetriesExhausted {
                    op: format!("meta_call({partition})"),
                    attempts: MAX_RETRIES + 1,
                }
                .max_specific(last)
            })?;
        // A leader answered, so it served the read — domain errors
        // (NotFound, Exists, ...) included, since they only arise after
        // the leader classified the read as lease or quorum; this keeps
        // `client.meta_reads_served` reconcilable with `meta.lease_reads +
        // meta.quorum_reads`. `RangeMoved` is the exception: the
        // dual-serve fence fires *before* classification (the partition
        // no longer owns the inode).
        if is_read && !matches!(answer, Err(CfsError::RangeMoved { .. })) {
            self.stats.meta_reads_served.inc();
        }
        answer
    }

    /// Issue a meta RPC to the partition's leader; retries per §2.1.3.
    /// Returns the value and — when the leader acked a `WriteAsync` from
    /// its intent journal instead of committing it (DESIGN §12) — where
    /// that intent lives, so the barrier can go back to the acking node.
    pub(crate) fn meta_call(
        &self,
        partition: PartitionId,
        members: &[NodeId],
        req: MetaRequest,
    ) -> Result<(MetaValue, Option<Acked>)> {
        match self.meta_answer(partition, members, req)? {
            (node, MetaResponse::Acked { intent, value }) => Ok((
                value,
                Some(Acked {
                    partition,
                    node,
                    intent,
                }),
            )),
            (_, resp) => Ok((resp.into_value()?, None)),
        }
    }

    /// Convenience: leader read from a partition.
    pub(crate) fn meta_read(
        &self,
        partition: PartitionId,
        members: &[NodeId],
        read: MetaRead,
    ) -> Result<MetaValue> {
        self.meta_call(partition, members, MetaRequest::Read { partition, read })
            .map(|(v, _)| v)
    }

    /// The split-handoff loop of §2.4, for any number of inode-routed
    /// items: each goes to the partition that owns its inode in the cached
    /// view, and `send` gets each partition's items in one call (in
    /// partition order, so requests go out the same way on every run),
    /// answering one result per item in order. An item answered
    /// [`CfsError::RangeMoved`] (the dual-serve fence: a split cut the
    /// range after we cached the view) is re-routed after a view refresh,
    /// so it lands on whichever half owns its inode *now*, never the
    /// frozen half. Results come back in input order.
    fn meta_route_by_inode<T: Clone, V>(
        &self,
        items: &[(InodeId, T)],
        mut send: impl FnMut(PartitionId, &[NodeId], Vec<T>) -> Vec<Result<V>>,
    ) -> Vec<Result<V>> {
        let mut out: Vec<Option<Result<V>>> = items.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..items.len()).collect();
        for pass in 0..=MAX_RETRIES {
            if pending.is_empty() {
                break;
            }
            if let Err(e) = self.retry_pause(pass, "meta_route", |c| {
                c.stats.view_refreshes.inc();
                c.refresh_partition_table()
            }) {
                for i in pending.drain(..) {
                    out[i] = Some(Err(e.clone()));
                }
                break;
            }
            let mut groups: BTreeMap<PartitionId, (Vec<NodeId>, Vec<usize>)> = BTreeMap::new();
            for i in pending.drain(..) {
                match self.meta_partition_of(items[i].0) {
                    Ok((p, members)) => groups.entry(p).or_insert((members, Vec::new())).1.push(i),
                    Err(e) => out[i] = Some(Err(e)),
                }
            }
            for (partition, (members, idx)) in groups {
                let batch = idx.iter().map(|&i| items[i].1.clone()).collect();
                let mut results = send(partition, &members, batch).into_iter();
                for i in idx {
                    match results.next() {
                        Some(Err(CfsError::RangeMoved { .. })) => pending.push(i),
                        Some(r) => out[i] = Some(r),
                        None => {
                            out[i] = Some(Err(CfsError::Internal(format!(
                                "{partition}: fewer results than items"
                            ))))
                        }
                    }
                }
            }
        }
        for i in pending {
            out[i] = Some(Err(CfsError::RetriesExhausted {
                op: format!("meta_call_at({})", items[i].0),
                attempts: MAX_RETRIES + 1,
            }));
        }
        out.into_iter().flatten().collect()
    }

    /// One inode-routed meta call (see [`Self::meta_route_by_inode`]).
    pub(crate) fn meta_call_at(
        &self,
        inode: InodeId,
        mut req: impl FnMut(PartitionId) -> MetaRequest,
    ) -> Result<(MetaValue, Option<Acked>)> {
        let mut answer = self.meta_route_by_inode(&[(inode, ())], |partition, members, _| {
            vec![self.meta_call(partition, members, req(partition))]
        });
        answer.pop().expect("one result per item")
    }

    /// Inode-routed replicated writes: each owning partition gets its
    /// commands in requests of up to [`cfs_meta::MAX_WRITE_BATCH`], one
    /// group-commit frame each (see [`Self::meta_route_by_inode`]). A
    /// result per command, in order; an error that answered a whole
    /// request answers each of its commands.
    pub(crate) fn meta_write_many(
        &self,
        writes: &[(InodeId, MetaCommand)],
    ) -> Vec<Result<MetaValue>> {
        self.meta_route_by_inode(writes, |partition, members, cmds| {
            let mut results = Vec::with_capacity(cmds.len());
            for chunk in cmds.chunks(MAX_WRITE_BATCH) {
                let n = chunk.len();
                let req = MetaRequest::Write {
                    partition,
                    cmds: chunk.to_vec(),
                };
                match self.meta_answer(partition, members, req) {
                    Ok((_, MetaResponse::Values(vs))) if vs.len() == n => results.extend(vs),
                    Ok((_, other)) => results.extend((0..n).map(|_| {
                        Err(CfsError::Internal(format!(
                            "unexpected meta response {other:?}"
                        )))
                    })),
                    Err(e) => results.extend((0..n).map(|_| Err(e.clone()))),
                }
            }
            results
        })
    }

    /// One inode-routed replicated write (see [`Self::meta_write_many`]).
    pub(crate) fn meta_write_at(&self, inode: InodeId, cmd: MetaCommand) -> Result<MetaValue> {
        self.meta_write_many(&[(inode, cmd)])
            .pop()
            .expect("one result per item")
    }

    /// Inode-routed leader read (see [`Self::meta_call_at`]).
    pub(crate) fn meta_read_at(&self, inode: InodeId, read: MetaRead) -> Result<MetaValue> {
        self.meta_call_at(inode, |partition| MetaRequest::Read {
            partition,
            read: read.clone(),
        })
        .map(|(v, _)| v)
    }

    /// Allocate a new inode on *some* writable meta partition (step 1 of
    /// create; `parent/name` is the dentry step 2 plans, kept as the
    /// compensation context if the leader journals this one). The random
    /// pick (§2.3.1) can land on a partition frozen by an Algorithm 1 cut
    /// between the view fetch and the write — it then answers
    /// `PartitionFull` (cannot allocate past its new end) or `RangeMoved`.
    /// Refresh the view and re-pick; the split's successor partition is
    /// always writable, so this converges.
    pub(crate) fn create_inode_anywhere(
        &self,
        file_type: cfs_types::FileType,
        link_target: &[u8],
        parent: InodeId,
        name: &str,
    ) -> Result<Inode> {
        let ctx = self
            .options
            .async_meta
            .then(|| IntentContext::PlannedDentry {
                parent,
                name: name.to_string(),
            });
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
            let req = Self::step_request(partition, cmd, ctx.clone());
            match self.meta_call(partition, &members, req) {
                Ok((v, acked)) => {
                    let inode = v.into_inode()?;
                    self.record_async_intent(acked, true, parent, inode.id);
                    return Ok(inode);
                }
                Err(
                    e @ (CfsError::PartitionFull(_)
                    | CfsError::ReadOnly(_)
                    | CfsError::RangeMoved { .. }),
                ) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(CfsError::RetriesExhausted {
            op: "create_inode".into(),
            attempts: MAX_RETRIES + 1,
        }
        .max_specific(last_err))
    }

    // ------------------------------------------------------------------
    // Cache maintenance
    // ------------------------------------------------------------------

    pub(crate) fn cache_inode(&self, ino: &Inode) {
        let drifted = {
            let mut cache = self.cache.lock();
            let drifted = matches!(
                cache.inode_cache.insert(ino.id, ino.clone()),
                Some(old) if old.generation != ino.generation
            );
            if drifted {
                // The generation moved (truncate, §2.4): every cached
                // lookup that resolved against the old attributes is
                // suspect and must be re-fetched.
                let id = ino.id;
                cache.lookup_cache.retain(
                    |_, e| !matches!(e, LookupEntry::Hit { dentry, .. } if dentry.inode == id),
                );
            }
            drifted
        };
        if drifted {
            // Cached data blocks carry the old generation too (§13).
            self.read_cache_invalidate_ino(ino.id);
        }
    }

    pub(crate) fn cache_dentry(&self, d: &Dentry) {
        let mut cache = self.cache.lock();
        let target_gen = cache.inode_cache.get(&d.inode).map(|i| i.generation);
        cache.lookup_cache.insert(
            (d.parent_id, d.name.clone()),
            LookupEntry::Hit {
                dentry: d.clone(),
                target_gen,
            },
        );
    }

    /// Record that `name` does not exist under `parent`, valid for
    /// [`NEGATIVE_LOOKUP_TTL_NS`] on the client's logical clock.
    pub(crate) fn cache_negative_lookup(&self, parent: InodeId, name: &str) {
        let expires_ns = self
            .clock
            .load(Ordering::Relaxed)
            .saturating_add(NEGATIVE_LOOKUP_TTL_NS);
        self.cache.lock().lookup_cache.insert(
            (parent, name.to_string()),
            LookupEntry::Negative { expires_ns },
        );
    }

    /// Consult the lookup cache: `Some(Ok(_))` is a positive hit,
    /// `Some(Err(NotFound))` an unexpired negative, `None` a miss (the
    /// caller goes to the fabric). Stale entries — expired negatives and
    /// positives whose target generation moved — are dropped here.
    pub(crate) fn cached_lookup(&self, parent: InodeId, name: &str) -> Option<Result<Dentry>> {
        let now = self.clock.load(Ordering::Relaxed);
        let mut cache = self.cache.lock();
        let key = (parent, name.to_string());
        match cache.lookup_cache.get(&key) {
            Some(LookupEntry::Hit { dentry, target_gen }) => {
                let current = cache.inode_cache.get(&dentry.inode).map(|i| i.generation);
                if let (Some(then), Some(cur)) = (*target_gen, current) {
                    if then != cur {
                        cache.lookup_cache.remove(&key);
                        return None;
                    }
                }
                self.stats.lookup_cache_hits.inc();
                Some(Ok(dentry.clone()))
            }
            Some(LookupEntry::Negative { expires_ns }) => {
                if now < *expires_ns {
                    self.stats.lookup_cache_negatives.inc();
                    Some(Err(CfsError::NotFound(format!(
                        "dentry {parent}/{name} (negative cache)"
                    ))))
                } else {
                    cache.lookup_cache.remove(&key);
                    None
                }
            }
            None => None,
        }
    }

    /// Drop every lookup-cache entry under `parent` — called after any
    /// local mutation of that directory, so read-your-own-writes holds
    /// without a TTL on positive entries.
    pub(crate) fn invalidate_parent(&self, parent: InodeId) {
        self.cache
            .lock()
            .lookup_cache
            .retain(|(p, _), _| *p != parent);
    }

    pub(crate) fn uncache_inode(&self, ino: InodeId) {
        self.cache.lock().inode_cache.remove(&ino);
        self.read_cache_invalidate_ino(ino);
    }

    /// Cached inode, if any (callers force-sync on open, §2.4).
    pub fn cached_inode(&self, ino: InodeId) -> Option<Inode> {
        self.cache.lock().inode_cache.get(&ino).cloned()
    }

    /// Number of orphan inodes this client still has to evict.
    pub fn orphan_count(&self) -> usize {
        self.cache.lock().orphans.len()
    }

    pub(crate) fn push_orphan(&self, inode: InodeId) {
        self.cache.lock().orphans.push(inode);
    }
}

/// Pick the more informative of two errors for retry exhaustion reports.
pub(crate) trait MaxSpecific {
    fn max_specific(self, other: CfsError) -> CfsError;
}

impl MaxSpecific for CfsError {
    fn max_specific(self, other: CfsError) -> CfsError {
        // Prefer the concrete underlying error over the generic wrapper
        // when it tells the caller what to do (e.g. ReadOnly → ask RM).
        match other {
            CfsError::ReadOnly(_) | CfsError::PartitionFull(_) => other,
            _ => self,
        }
    }
}

#[cfg(test)]
mod tests {
    // Client logic is exercised end-to-end in the `cfs` facade crate and
    // the workspace integration tests; here we keep the pure helpers.
    use super::*;

    #[test]
    fn max_specific_prefers_actionable_errors() {
        let wrapped = CfsError::RetriesExhausted {
            op: "x".into(),
            attempts: 3,
        };
        let e = wrapped
            .clone()
            .max_specific(CfsError::ReadOnly(PartitionId(1)));
        assert!(matches!(e, CfsError::ReadOnly(_)));
        let e = wrapped.max_specific(CfsError::Timeout("t".into()));
        assert!(matches!(e, CfsError::RetriesExhausted { .. }));
    }

    #[test]
    fn options_default_sane() {
        // Pinned here because this is where the benchmark reads them:
        // `cfsbench` mounts with `ClientOptions::default()`.
        let ClientOptions {
            seed,
            pipeline_depth,
            meta_sync_every,
            registry,
            async_meta,
            small_batch_max_ops,
            read_cache_capacity,
        } = ClientOptions::default();
        assert_eq!(seed, 0xC0FFEE);
        assert_eq!(pipeline_depth, 4);
        assert_eq!(meta_sync_every, 1);
        assert!(registry.is_none());
        assert!(!async_meta);
        assert_eq!(small_batch_max_ops, 1);
        assert_eq!(read_cache_capacity, 256);
        assert_eq!(MAX_RETRIES, 5);
        assert_eq!((RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP), (1, 32));
        assert_eq!(NEGATIVE_LOOKUP_TTL_NS, 256);
        assert_eq!(SMALL_BATCH_MAX_BYTES, 256 * 1024);
        assert_eq!(SMALL_BATCH_MAX_AGE, 256);
        assert_eq!(READAHEAD_BLOCKS, 4);
    }
}
