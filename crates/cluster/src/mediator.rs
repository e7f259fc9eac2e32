//! The Web-server / mediator and cluster assembly.
//!
//! "Each request is broken down into multiple parts based on the spatial
//! layout of the data. Each part is asynchronously submitted for
//! evaluation to the database which stores the data needed ... The
//! Web-server assembles the results from the distributed computation and
//! sends them back to the client." (paper §2)

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use tdb_cache::{CacheStats, ThresholdPoint};
use tdb_field::{Grid3, Histogram, VectorField};
use tdb_kernels::{DerivedField, DiffScheme};
use tdb_obs::{QueryTrace, TraceSpan};
use tdb_storage::device::{DeviceId, DeviceProfile, DeviceRegistry, IoSession};
use tdb_storage::{
    AtomKey, AtomRecord, BlockCache, FaultPlan, StorageError, StorageResult, TableBuilder,
};
use tdb_zorder::{AtomCoord, Box3, ZRange};

use crate::config::ClusterConfig;
use crate::node::{NodeResult, NodeRuntime, QueryMode};
use crate::placement::{Chunk, Layout};
use crate::scan::{ScanAssignment, ScanKernel, ScanParticipant, SharedOutcome, SharedScanRequest};
use crate::scheduler::ScanScheduler;
use crate::sim::NodeTimeModel;
use crate::timing::TimeBreakdown;
use crate::wire;

/// A threshold query as the mediator receives it.
#[derive(Debug, Clone)]
pub struct ThresholdRequest {
    pub raw_field: String,
    pub derived: DerivedField,
    pub timestep: u32,
    pub query_box: Box3,
    pub threshold: f64,
    pub use_cache: bool,
    pub mode: QueryMode,
    /// Worker processes per node; defaults to the cluster configuration.
    pub procs_override: Option<usize>,
    /// Fail-fast mode: any node failure or deadline violation fails the
    /// whole query instead of degrading it.
    pub strict: bool,
    /// Per-node modelled-time deadline, seconds. A node whose modelled
    /// time (cache lookup + I/O + compute) for this query exceeds it is
    /// treated as failed: its chunks fail over to a live replica when
    /// there is one, else they are dropped with degradation, or fatal
    /// under [`Self::strict`].
    pub node_deadline_s: Option<f64>,
}

/// One node that could not contribute to a degraded answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedNode {
    pub node: usize,
    pub reason: String,
}

/// What a degraded (partial) answer is missing: which nodes failed and
/// exactly which sub-boxes of the query box their absence leaves
/// unanswered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedInfo {
    pub failed_nodes: Vec<FailedNode>,
    pub missing_boxes: Vec<Box3>,
}

/// Assembled answer of a threshold query.
#[derive(Debug)]
pub struct ThresholdResponse {
    pub points: Vec<ThresholdPoint>,
    pub breakdown: TimeBreakdown,
    /// How many nodes answered from their cache.
    pub cache_hits: usize,
    pub nodes: usize,
    /// Real wall-clock of the in-process evaluation.
    pub wall_s: f64,
    /// Per-surviving-node closed-form time models (zero for cache hits),
    /// letting callers evaluate `t(p)` at any process count deterministically.
    pub node_models: Vec<NodeTimeModel>,
    /// Span tree of the query's phases and per-node work.
    pub trace: Option<QueryTrace>,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// One query of a multi-query batch evaluated against shared scans.
#[derive(Debug, Clone)]
pub enum BatchQuery {
    Threshold(ThresholdRequest),
    Pdf {
        req: ThresholdRequest,
        origin: f64,
        width: f64,
        nbins: usize,
    },
    TopK {
        req: ThresholdRequest,
        k: usize,
    },
}

impl BatchQuery {
    /// The underlying threshold-shaped request.
    pub fn request(&self) -> &ThresholdRequest {
        match self {
            BatchQuery::Threshold(r) => r,
            BatchQuery::Pdf { req, .. } | BatchQuery::TopK { req, .. } => req,
        }
    }

    fn participant(&self) -> ScanParticipant {
        match self {
            BatchQuery::Threshold(r) => ScanParticipant {
                query_box: r.query_box,
                kernel: ScanKernel::Threshold {
                    threshold: r.threshold,
                },
                use_cache: r.use_cache,
            },
            BatchQuery::Pdf {
                req,
                origin,
                width,
                nbins,
            } => ScanParticipant {
                query_box: req.query_box,
                kernel: ScanKernel::Pdf {
                    origin: *origin,
                    width: *width,
                    nbins: *nbins,
                },
                use_cache: req.use_cache,
            },
            BatchQuery::TopK { req, .. } => ScanParticipant {
                query_box: req.query_box,
                kernel: ScanKernel::TopK,
                use_cache: false,
            },
        }
    }
}

/// The per-kind answer of a [`BatchQuery`].
#[derive(Debug)]
pub enum BatchAnswer {
    Threshold(ThresholdResponse),
    Pdf(PdfResponse),
    TopK(TopKResponse),
}

impl BatchAnswer {
    fn kind_mismatch() -> StorageError {
        StorageError::internal("query yielded an answer of another kind")
    }
}

impl TryFrom<BatchAnswer> for ThresholdResponse {
    type Error = StorageError;
    fn try_from(answer: BatchAnswer) -> StorageResult<Self> {
        match answer {
            BatchAnswer::Threshold(r) => Ok(r),
            _ => Err(BatchAnswer::kind_mismatch()),
        }
    }
}

impl TryFrom<BatchAnswer> for PdfResponse {
    type Error = StorageError;
    fn try_from(answer: BatchAnswer) -> StorageResult<Self> {
        match answer {
            BatchAnswer::Pdf(r) => Ok(r),
            _ => Err(BatchAnswer::kind_mismatch()),
        }
    }
}

impl TryFrom<BatchAnswer> for TopKResponse {
    type Error = StorageError;
    fn try_from(answer: BatchAnswer) -> StorageResult<Self> {
        match answer {
            BatchAnswer::TopK(r) => Ok(r),
            _ => Err(BatchAnswer::kind_mismatch()),
        }
    }
}

/// Everything that must agree for two queries to share one atom scan.
/// The threshold value, query box and kernel are per-participant; the
/// degradation policy (strict / deadline) is part of the key so every
/// participant of a group is judged by the same policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ScanGroupKey {
    raw_field: String,
    derived: DerivedField,
    timestep: u32,
    full_mode: bool,
    procs_override: Option<usize>,
    strict: bool,
    deadline_bits: Option<u64>,
}

impl ScanGroupKey {
    pub(crate) fn of(req: &ThresholdRequest) -> Self {
        Self {
            raw_field: req.raw_field.clone(),
            derived: req.derived,
            timestep: req.timestep,
            full_mode: req.mode == QueryMode::Full,
            procs_override: req.procs_override,
            strict: req.strict,
            deadline_bits: req.node_deadline_s.map(f64::to_bits),
        }
    }
}

/// Cuts `points` down to its `k` best under [`ThresholdPoint::rank_cmp`],
/// in no particular order.
fn keep_best(points: &mut Vec<ThresholdPoint>, k: usize) {
    if points.len() > k {
        points.select_nth_unstable_by(k, ThresholdPoint::rank_cmp);
        points.truncate(k);
    }
}

/// Assembled answer of a PDF query.
#[derive(Debug)]
pub struct PdfResponse {
    pub histogram: Histogram,
    pub breakdown: TimeBreakdown,
    pub wall_s: f64,
    pub trace: Option<QueryTrace>,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// Assembled answer of a top-k query.
#[derive(Debug)]
pub struct TopKResponse {
    /// The k best points in [`ThresholdPoint::rank_cmp`] order: value
    /// descending, ties by zindex ascending.
    pub points: Vec<ThresholdPoint>,
    pub breakdown: TimeBreakdown,
    pub wall_s: f64,
    pub trace: Option<QueryTrace>,
    /// `Some` when one or more nodes failed and the answer is partial.
    pub degraded: Option<DegradedInfo>,
}

/// The devices racked for one node: its disk arrays, semantic-cache SSD
/// and I/O controller. Kept after build so rebalancing can rebuild a
/// node's tables against the same simulated hardware.
#[derive(Debug, Clone)]
pub(crate) struct NodeDevices {
    pub arrays: Vec<DeviceId>,
    pub ssd: DeviceId,
    pub controller: DeviceId,
}

/// Mutable cluster-membership state, serialized under one lock so joins
/// and leaves cannot interleave.
pub(crate) struct RebalanceState {
    /// Devices of every node id ever racked (index = node id).
    pub node_devices: Vec<NodeDevices>,
    /// Pre-registered device sets for future [`Cluster::join_node`] calls
    /// ([`crate::config::ReplicationConfig::spare_nodes`]).
    pub spares: Vec<NodeDevices>,
    /// Next unused partition-file id block (file ids advance by 1024 per
    /// table so fault rules can target files of rebuilt nodes too).
    pub next_file_id: u64,
}

/// One immutable topology generation: the placement snapshot plus the
/// node runtimes serving it. Queries grab an `Arc<Topology>` once and run
/// entirely against it, so a concurrent join/leave installing the next
/// generation never tears an in-flight scan.
pub(crate) struct Topology {
    pub layout: Arc<Layout>,
    /// Runtimes indexed by node id; `None` marks a departed node.
    pub nodes: Vec<Option<Arc<NodeRuntime>>>,
    /// Monotone generation counter, bumped per join/leave.
    pub epoch: u64,
}

impl Topology {
    /// Live `(node id, runtime)` pairs in id order.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Arc<NodeRuntime>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }
}

/// Builds a cluster: devices, placement, and bulk-loaded tables.
pub struct ClusterBuilder {
    config: ClusterConfig,
    dataset: String,
    grid: Arc<Grid3>,
    layout: Arc<Layout>,
    registry: DeviceRegistry,
    lan: DeviceId,
    wan: DeviceId,
    node_devices: Vec<NodeDevices>,
    spares: Vec<NodeDevices>,
    builders: Vec<HashMap<String, TableBuilder>>,
    pools: Vec<Arc<BlockCache>>,
    fields: Vec<(String, u8)>,
    timesteps: Vec<u32>,
    dir: PathBuf,
}

impl ClusterBuilder {
    /// Prepares storage for `fields` (`(name, ncomp)`) under `dir`.
    pub fn new(
        dir: impl AsRef<Path>,
        dataset: &str,
        grid: Grid3,
        fields: &[(&str, u8)],
        config: ClusterConfig,
    ) -> StorageResult<Self> {
        config.validate(grid.dims());
        let layout = Arc::new(Layout::with_replication(
            grid.dims(),
            config.chunk_atoms,
            config.num_nodes,
            config.replication.k,
            config.replication.placement,
        ));
        let mut registry = DeviceRegistry::new();
        let lan = registry.register(DeviceProfile::lan());
        let wan = registry.register(DeviceProfile::user_wan());
        let rack = |registry: &mut DeviceRegistry| NodeDevices {
            arrays: (0..config.arrays_per_node)
                .map(|_| registry.register(DeviceProfile::hdd_array()))
                .collect(),
            ssd: registry.register(DeviceProfile::ssd()),
            controller: registry.register(DeviceProfile::node_controller()),
        };
        let dir = dir.as_ref().to_path_buf();
        let mut builders: Vec<HashMap<String, TableBuilder>> = Vec::with_capacity(config.num_nodes);
        let mut pools = Vec::with_capacity(config.num_nodes);
        let mut node_devices = Vec::with_capacity(config.num_nodes);
        for node in 0..config.num_nodes {
            let devices = rack(&mut registry);
            let zones = split_zones(&layout.stored_zranges_of_node(node), config.arrays_per_node);
            let node_dir = dir.join(format!("node{node}"));
            let mut per_field = HashMap::new();
            for &(name, ncomp) in fields {
                per_field.insert(
                    name.to_string(),
                    TableBuilder::new(
                        &node_dir,
                        name,
                        ncomp,
                        zones.clone(),
                        &devices.arrays,
                        config.compression,
                    )?,
                );
            }
            node_devices.push(devices);
            builders.push(per_field);
            pools.push(Arc::new(BlockCache::with_policy(
                config.bufferpool_bytes,
                config.eviction,
                config.faults.clone(),
            )));
        }
        // spare hardware for future join_node calls is racked now: the
        // device registry is frozen once the cluster is running
        let spares = (0..config.replication.spare_nodes)
            .map(|_| rack(&mut registry))
            .collect();
        Ok(Self {
            config,
            dataset: dataset.to_string(),
            grid: Arc::new(grid),
            layout,
            registry,
            lan,
            wan,
            node_devices,
            spares,
            builders,
            pools,
            fields: fields
                .iter()
                .map(|&(name, ncomp)| (name.to_string(), ncomp))
                .collect(),
            timesteps: Vec::new(),
            dir,
        })
    }

    /// Ingests one field of one time-step. `extract(atom)` returns the
    /// atom's payload (`ncomp × 512` values, component-major). With
    /// replication every node stores all `k` chains it belongs to, so an
    /// atom is ingested once per replica.
    pub fn ingest_timestep(
        &mut self,
        timestep: u32,
        field: &str,
        ncomp: u8,
        extract: impl Fn(AtomCoord) -> Vec<f32> + Sync,
    ) -> StorageResult<()> {
        if !self.timesteps.contains(&timestep) {
            self.timesteps.push(timestep);
        }
        for (node, per_field) in self.builders.iter_mut().enumerate() {
            let zones = self.layout.stored_zranges_of_node(node);
            let mut records = Vec::new();
            for zr in zones {
                for code in zr.start..=zr.end {
                    let atom = AtomCoord::from_zindex(code);
                    let rec = AtomRecord::new(AtomKey::new(timestep, code), ncomp, extract(atom))?;
                    records.push(rec);
                }
            }
            per_field
                .get_mut(field)
                .ok_or_else(|| StorageError::internal(format!("unknown field {field}")))?
                .append_timestep(timestep, records)?;
        }
        Ok(())
    }

    /// Seals the tables and brings the node runtimes up.
    pub fn finish(self) -> StorageResult<Cluster> {
        let registry = Arc::new(self.registry);
        let scheme = Arc::new(DiffScheme::new(&self.grid, self.config.fd_order));
        let mut nodes = Vec::with_capacity(self.config.num_nodes);
        let mut file_id = 0u64;
        for (node, ((per_field, pool), devices)) in self
            .builders
            .into_iter()
            .zip(&self.pools)
            .zip(&self.node_devices)
            .enumerate()
        {
            let mut tables = HashMap::new();
            for (name, builder) in per_field {
                let table = builder.finish(Arc::clone(pool), file_id)?;
                file_id += 1024;
                tables.insert(name, table);
            }
            nodes.push(Some(Arc::new(NodeRuntime::new(
                node,
                tables,
                Arc::clone(pool),
                devices.ssd,
                devices.controller,
                self.config.compute_scale,
                self.config.synthetic_compute_s_per_point,
                self.config.cache_budget_bytes,
                Arc::clone(&self.grid),
                Arc::clone(&scheme),
                Arc::clone(&registry),
                self.lan,
                self.config.faults.clone(),
            ))));
        }
        let scheduler = self.config.coalesce.map(ScanScheduler::new);
        Ok(Cluster {
            config: self.config,
            dataset: self.dataset,
            grid: self.grid,
            registry,
            scheme,
            lan: self.lan,
            wan: self.wan,
            topology: RwLock::new(Arc::new(Topology {
                layout: self.layout,
                nodes,
                epoch: 0,
            })),
            fields: self.fields,
            timesteps: self.timesteps,
            rebalance: Mutex::new(RebalanceState {
                node_devices: self.node_devices,
                spares: self.spares,
                next_file_id: file_id,
            }),
            scheduler,
            dir: self.dir,
        })
    }
}

/// Splits a node's merged z-ranges into `k` contiguous pieces of roughly
/// equal atom count — one partition file per disk array.
pub(crate) fn split_zones(zones: &[ZRange], k: usize) -> Vec<ZRange> {
    let total: u64 = zones.iter().map(ZRange::len).sum();
    let k = (k as u64).min(total).max(1);
    let per = total.div_ceil(k);
    let mut out = Vec::new();
    for z in zones {
        let mut start = z.start;
        while start <= z.end {
            let end = (start + per - 1).min(z.end);
            out.push(ZRange::new(start, end));
            if end == z.end {
                break;
            }
            start = end + 1;
        }
    }
    out
}

/// One node's share of a scatter wave: which chunks it was asked to scan
/// and what came back. `chunk_idxs` (indices into `Layout::chunks`) are
/// kept so a failed node orphans exactly its own assignment — including
/// failover chunks it inherited in a previous round — and nothing else.
struct WaveEntry {
    node: usize,
    chunk_idxs: Vec<usize>,
    result: StorageResult<Vec<SharedOutcome>>,
}

/// A node that failed a scan group, or one participant of it: it was
/// unavailable, or its modelled time blew the node deadline.
struct Failure {
    failed: FailedNode,
    /// `Some(j)` when only participant `j` lost the node: its own outcome
    /// blew the deadline and no replica could take the node's chunks.
    participant: Option<usize>,
    /// What a strict query that loses data to this failure fails with.
    error: StorageError,
    /// The node's chunks (indices into `Layout::chunks`) that no live
    /// replica answered.
    lost: Vec<usize>,
}

impl Failure {
    fn new(node: usize, participant: Option<usize>, reason: String, error: StorageError) -> Self {
        Self {
            failed: FailedNode { node, reason },
            participant,
            error,
            lost: Vec::new(),
        }
    }

    fn deadline(node: usize, participant: Option<usize>, t: f64, d: f64) -> Self {
        let detail = format!("modelled node time {t:.3}s exceeds deadline {d:.3}s");
        let reason = format!("deadline exceeded: modelled {t:.3}s > {d:.3}s");
        Self::new(
            node,
            participant,
            reason,
            StorageError::NodeUnavailable { node, detail },
        )
    }
}

/// The per-kind part of assembling an answer: what the nodes' outcomes
/// reduce to, and how much of it travels.
struct Reduction {
    payload: Payload,
    /// Points each node contributed (zero for histograms).
    node_points: Vec<u64>,
    /// Points in the answer.
    points: u64,
    /// Bytes shipped node → mediator and mediator → user.
    db_bytes: u64,
    user_bytes: u64,
}

enum Payload {
    Threshold(Vec<ThresholdPoint>),
    Pdf(Histogram),
    TopK(Vec<ThresholdPoint>),
}

impl Reduction {
    /// A point answer: binary rows to the mediator, XML to the user.
    fn of_points(payload: Payload, n: u64, node_points: Vec<u64>) -> Self {
        Self {
            payload,
            node_points,
            points: n,
            db_bytes: wire::binary_result_bytes(n),
            user_bytes: wire::xml_result_bytes(n),
        }
    }
}

/// Reduces the surviving nodes' outcomes to `query`'s answer.
fn reduce(query: &BatchQuery, results: &mut [SharedOutcome]) -> Reduction {
    match query {
        BatchQuery::Threshold(_) => {
            let node_points = results
                .iter()
                .map(|o| o.result.points.len() as u64)
                .collect();
            let mut points = Vec::new();
            for o in results.iter_mut() {
                points.append(&mut o.result.points);
            }
            points.sort_unstable_by_key(|p| p.zindex);
            let n = points.len() as u64;
            Reduction::of_points(Payload::Threshold(points), n, node_points)
        }
        BatchQuery::Pdf {
            origin,
            width,
            nbins,
            ..
        } => {
            let mut hist = Histogram::new(*origin, *width, *nbins);
            for h in results.iter_mut().filter_map(|o| o.histogram.take()) {
                hist.merge(&h);
            }
            let bins = *nbins as u64 + 1;
            Reduction {
                payload: Payload::Pdf(hist),
                node_points: vec![0; results.len()],
                points: 0,
                db_bytes: bins * 16,
                user_bytes: bins * 64,
            }
        }
        BatchQuery::TopK { k, .. } => {
            // each node contributes at most its own top k, then the
            // mediator keeps the global top k; under the total `rank_cmp`
            // order that is exactly the global top k, ties included. Only
            // the kept k are sorted: selection is linear in the points.
            let mut points = Vec::new();
            let mut node_points = Vec::with_capacity(results.len());
            for o in results.iter_mut() {
                let mut p = o.take_points();
                keep_best(&mut p, *k);
                node_points.push(p.len() as u64);
                points.append(&mut p);
            }
            keep_best(&mut points, *k);
            points.sort_unstable_by(ThresholdPoint::rank_cmp);
            let n = points.len() as u64;
            Reduction::of_points(Payload::TopK(points), n, node_points)
        }
    }
}

/// The running cluster: mediator entry points.
pub struct Cluster {
    pub(crate) config: ClusterConfig,
    pub(crate) dataset: String,
    pub(crate) grid: Arc<Grid3>,
    pub(crate) registry: Arc<DeviceRegistry>,
    pub(crate) scheme: Arc<DiffScheme>,
    pub(crate) lan: DeviceId,
    pub(crate) wan: DeviceId,
    /// The current topology generation. Queries snapshot the `Arc` once
    /// and never observe a half-installed join/leave.
    pub(crate) topology: RwLock<Arc<Topology>>,
    /// `(name, ncomp)` of every stored field — needed to rebuild tables
    /// when nodes join or leave.
    pub(crate) fields: Vec<(String, u8)>,
    /// Every ingested time-step, in ingest order.
    pub(crate) timesteps: Vec<u32>,
    /// Membership-change state; the lock serializes joins/leaves.
    pub(crate) rebalance: Mutex<RebalanceState>,
    /// `Some` when [`ClusterConfig::coalesce`] is set: queries route
    /// through the scan scheduler and may share atom scans.
    scheduler: Option<ScanScheduler>,
    pub(crate) dir: PathBuf,
}

impl Cluster {
    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Dataset name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Grid geometry.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// The current topology snapshot.
    pub(crate) fn topology_snapshot(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read())
    }

    /// The current placement map (a snapshot: joins/leaves replace it).
    pub fn layout(&self) -> Arc<Layout> {
        Arc::clone(&self.topology.read().layout)
    }

    /// Current topology generation (bumped per join/leave).
    pub fn epoch(&self) -> u64 {
        self.topology.read().epoch
    }

    /// Device registry (for custom time modelling in benches).
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// The live node runtimes (departed nodes are skipped).
    pub fn nodes(&self) -> Vec<Arc<NodeRuntime>> {
        self.topology
            .read()
            .nodes
            .iter()
            .flatten()
            .map(Arc::clone)
            .collect()
    }

    /// Ids of the live nodes, ascending.
    pub fn live_node_ids(&self) -> Vec<usize> {
        self.topology.read().live().map(|(id, _)| id).collect()
    }

    /// The fault plan the cluster was configured with, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.config.faults.as_ref()
    }

    /// Per-node worker processes for a request.
    fn procs_for(&self, req: &ThresholdRequest) -> usize {
        req.procs_override.unwrap_or(self.config.procs_per_node)
    }

    /// The cluster-wide I/O phase: nodes run in parallel, so the phase is
    /// the slowest node's serial schedule divided by its processes — but
    /// never less than any single device's total service time (devices
    /// serve *all* nodes' requests: a peer fetching halo atoms still
    /// occupies the owner's arrays and controller).
    fn cluster_io_ref(&self, results: &[&NodeResult], procs: usize) -> f64 {
        let cold: Vec<&&NodeResult> = results.iter().filter(|r| !r.cache_hit).collect();
        if cold.is_empty() {
            return 0.0;
        }
        let mut merged = IoSession::new();
        let mut max_serial = 0.0f64;
        for r in &cold {
            merged.merge(&r.session);
            max_serial = max_serial.max(r.io_serial_s);
        }
        let global_floor = merged.makespan(&self.registry);
        (max_serial / procs.max(1) as f64).max(global_floor)
    }

    /// Builds the span tree of a finished query. Phase spans carry the
    /// final breakdown's durations verbatim (so the trace is always
    /// consistent with the reported [`TimeBreakdown`]); per-node child
    /// spans under `phase.io` carry the measured detail — cache outcome,
    /// atoms scanned, buffer-pool hits/misses, bytes charged per device.
    #[allow(clippy::too_many_arguments)]
    fn build_trace(
        &self,
        kind: &str,
        results: &[&NodeResult],
        node_ids: &[usize],
        node_points: &[u64],
        breakdown: &TimeBreakdown,
        points_returned: u64,
        wall_s: f64,
        degraded: Option<&DegradedInfo>,
    ) -> QueryTrace {
        let mut root = TraceSpan::new(format!("query.{kind}"), 0.0, breakdown.total_s())
            .with_attr("points", points_returned)
            .with_attr("nodes", results.len() as u64)
            .with_attr("wall_s", wall_s);
        if let Some(d) = degraded {
            root.set_attr("degraded", "true");
            let mut span = TraceSpan::new("phase.degraded", 0.0, 0.0)
                .with_attr("failed_nodes", d.failed_nodes.len() as u64)
                .with_attr("missing_boxes", d.missing_boxes.len() as u64);
            for f in &d.failed_nodes {
                span.push_child(
                    TraceSpan::new(format!("failed.node.{}", f.node), 0.0, 0.0)
                        .with_attr("reason", f.reason.as_str()),
                );
            }
            root.push_child(span);
        }
        let mut t = 0.0;
        root.push_child(TraceSpan::new(
            "phase.cache_lookup",
            t,
            breakdown.cache_lookup_s,
        ));
        t += breakdown.cache_lookup_s;
        let mut io = TraceSpan::new("phase.io", t, breakdown.io_s);
        for (i, r) in results.iter().enumerate() {
            let id = node_ids.get(i).copied().unwrap_or(i);
            let mut node = TraceSpan::new(format!("node.{id}"), t, r.io_s)
                .with_attr("cache", if r.cache_hit { "hit" } else { "miss" })
                .with_attr("atoms_scanned", r.atoms_scanned)
                .with_attr("points", node_points.get(i).copied().unwrap_or(0))
                .with_attr("pool_hits", r.session.pool_hits)
                .with_attr("pool_misses", r.session.pool_misses)
                .with_attr("cache_lookup_s", r.cache_lookup_s)
                .with_attr("compute_s", r.compute_s)
                .with_attr("node_wall_s", r.wall_s);
            // several devices can share a profile name (a node has many
            // identical disk arrays), so aggregate bytes per name
            let mut by_device: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            for (dev, a) in r.session.devices() {
                *by_device
                    .entry(format!("bytes.{}", self.registry.profile(dev).name))
                    .or_default() += a.bytes;
            }
            for (key, bytes) in by_device {
                node.set_attr(key, bytes);
            }
            io.push_child(node);
        }
        root.push_child(io);
        t += breakdown.io_s;
        root.push_child(TraceSpan::new("phase.compute", t, breakdown.compute_s));
        t += breakdown.compute_s;
        root.push_child(TraceSpan::new(
            "phase.mediator_db",
            t,
            breakdown.mediator_db_s,
        ));
        t += breakdown.mediator_db_s;
        root.push_child(TraceSpan::new(
            "phase.mediator_user",
            t,
            breakdown.mediator_user_s,
        ));
        QueryTrace::new(root)
    }

    /// Routes one query through the scan scheduler when coalescing is
    /// configured, or runs it as a batch of one.
    fn submit(&self, query: BatchQuery) -> StorageResult<BatchAnswer> {
        match &self.scheduler {
            Some(s) => s.submit(self, query),
            None => self
                .run_batch(vec![query])
                .pop()
                .unwrap_or_else(|| Err(StorageError::internal("batch of one produced no answer"))),
        }
    }

    /// Evaluates a threshold query: scatter to nodes, gather, assemble.
    /// Node outages (and deadline violations) degrade the answer instead
    /// of failing it unless [`ThresholdRequest::strict`] is set.
    pub fn get_threshold(&self, req: &ThresholdRequest) -> StorageResult<ThresholdResponse> {
        self.submit(BatchQuery::Threshold(req.clone()))?.try_into()
    }

    /// Evaluates a PDF query over the same scan machinery (paper Fig. 2).
    pub fn get_pdf(
        &self,
        req: &ThresholdRequest,
        origin: f64,
        width: f64,
        nbins: usize,
    ) -> StorageResult<PdfResponse> {
        self.submit(BatchQuery::Pdf {
            req: req.clone(),
            origin,
            width,
            nbins,
        })?
        .try_into()
    }

    /// Evaluates a top-k query (no caching: results are tiny but the scan
    /// is the same as a threshold query).
    pub fn get_topk(&self, req: &ThresholdRequest, k: usize) -> StorageResult<TopKResponse> {
        self.submit(BatchQuery::TopK {
            req: req.clone(),
            k,
        })?
        .try_into()
    }

    /// Evaluates many threshold queries as one batch: queries over the
    /// same scan key share atom scans (each atom decoded once per group
    /// instead of once per query), with byte-identical results.
    pub fn get_threshold_batch(
        &self,
        reqs: &[ThresholdRequest],
    ) -> Vec<StorageResult<ThresholdResponse>> {
        self.run_batch(reqs.iter().cloned().map(BatchQuery::Threshold).collect())
            .into_iter()
            .map(|r| r.and_then(ThresholdResponse::try_from))
            .collect()
    }

    /// Evaluates a set of queries, sharing one atom scan per
    /// [`ScanGroupKey`] group. Answers are positionally aligned with the
    /// input; a per-node failure inside a group is fanned out to every
    /// query of that group (and degraded per query by the usual policy).
    pub fn run_batch(&self, queries: Vec<BatchQuery>) -> Vec<StorageResult<BatchAnswer>> {
        let wall = std::time::Instant::now();
        let mut answers: Vec<Option<StorageResult<BatchAnswer>>> =
            queries.iter().map(|_| None).collect();
        let mut groups: Vec<(ScanGroupKey, Vec<usize>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let key = ScanGroupKey::of(q.request());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        for (_, idxs) in &groups {
            self.run_group(&queries, idxs, &mut answers, wall);
        }
        answers
            .into_iter()
            .map(|a| {
                a.unwrap_or_else(|| {
                    Err(StorageError::internal("query was never assigned an answer"))
                })
            })
            .collect()
    }

    /// Runs one shared-scan group: scatter a [`SharedScanRequest`] over
    /// one topology snapshot, then assemble each participant's answer.
    ///
    /// Chunks of an unavailable node are re-scattered to the next live
    /// replica in their chains, round by round, until every chunk is
    /// answered or its chain is exhausted; at `k = 1` every chain has
    /// length one, so the chunks are lost at once. A node that blows the
    /// deadline is handled like an outage when a replica that is live and
    /// on time in the same wave can take its chunks — whatever the node
    /// ids — otherwise each participant judges it on its own outcome,
    /// so a cache hit keeps a node that a cold scan loses. A successful
    /// failover leaves the answer *complete* — no [`DegradedInfo`] — and
    /// byte-identical to an unfaulted run; only lost chunks degrade (or
    /// fail, under `strict`) the queries they intersect. Any other node
    /// error fails the whole group.
    fn run_group(
        &self,
        queries: &[BatchQuery],
        idxs: &[usize],
        answers: &mut [Option<StorageResult<BatchAnswer>>],
        wall: std::time::Instant,
    ) {
        let Some(first) = idxs
            .first()
            .and_then(|&i| queries.get(i))
            .map(BatchQuery::request)
        else {
            return;
        };
        let procs = self.procs_for(first);
        let topo = self.topology_snapshot();
        let layout = Arc::clone(&topo.layout);
        let live = topo.live_count();
        let deadline = first.node_deadline_s;
        let participants: Vec<ScanParticipant> = idxs
            .iter()
            .filter_map(|&i| queries.get(i))
            .map(BatchQuery::participant)
            .collect();
        let modelled_time =
            |o: &SharedOutcome| o.result.cache_lookup_s + o.result.io_s + o.result.compute_s;
        let usable = |r: usize, excluded: &HashSet<usize>| {
            !excluded.contains(&r) && topo.nodes.get(r).is_some_and(Option::is_some)
        };
        // one scatter wave: targeted nodes evaluate their assigned chunks
        // in parallel against the snapshot
        let scatter = |targets: &[(usize, Vec<usize>)], canonical: bool| -> Vec<WaveEntry> {
            let mut chunks: Vec<Vec<Chunk>> = vec![Vec::new(); topo.nodes.len()];
            for (node, cidxs) in targets {
                let assigned = cidxs
                    .iter()
                    .filter_map(|&c| layout.chunks().get(c).copied())
                    .collect();
                if let Some(slot) = chunks.get_mut(*node) {
                    *slot = assigned;
                }
            }
            let assignment = Arc::new(ScanAssignment {
                layout: Arc::clone(&layout),
                chunks,
                canonical,
            });
            let req = SharedScanRequest {
                dataset: self.dataset.clone(),
                raw_field: first.raw_field.clone(),
                derived: first.derived,
                timestep: first.timestep,
                mode: first.mode,
                procs,
                participants: participants.clone(),
                assignment,
            };
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|(node, _)| {
                        let req = &req;
                        let peers = &topo.nodes;
                        let node = *node;
                        let runtime = peers.get(node).and_then(Option::as_ref).map(Arc::clone);
                        scope.spawn(move || match runtime {
                            Some(runtime) => runtime.evaluate_shared(peers, req),
                            None => Err(StorageError::NodeUnavailable {
                                node,
                                detail: "scatter target is not a live member".into(),
                            }),
                        })
                    })
                    .collect();
                targets
                    .iter()
                    .zip(handles)
                    .map(|((node, cidxs), h)| WaveEntry {
                        node: *node,
                        chunk_idxs: cidxs.clone(),
                        result: h.join().unwrap_or_else(|_| {
                            Err(StorageError::internal("node evaluation thread panicked"))
                        }),
                    })
                    .collect()
            })
        };
        // wave 0: the canonical assignment over every live node. Entries
        // land in `done` and `failures` in wave order (node-id order
        // within a wave).
        let initial: Vec<(usize, Vec<usize>)> = topo
            .live()
            .map(|(id, _)| (id, layout.chunk_indices_of_node(id)))
            .collect();
        let mut wave = scatter(&initial, true);
        let mut done: Vec<(usize, Vec<Option<SharedOutcome>>)> = Vec::new();
        let mut excluded: HashSet<usize> = HashSet::new();
        let mut failures: Vec<Failure> = Vec::new();
        let mut fatal: Option<StorageError> = None;
        loop {
            // (chunk, index into `failures`) of every chunk to move on
            let mut orphans: Vec<(usize, usize)> = Vec::new();
            // the wave's down and late nodes, known before any node is
            // judged, so a slow node's fate does not hang on node ids
            let behind: HashSet<usize> = wave
                .iter()
                .filter(|e| match &e.result {
                    Ok(outs) => deadline.is_some_and(|d| outs.iter().any(|o| modelled_time(o) > d)),
                    Err(err) => err.is_unavailable(),
                })
                .map(|e| e.node)
                .collect();
            for e in wave.drain(..) {
                let failure = match e.result {
                    Err(err) if err.is_unavailable() => {
                        Failure::new(e.node, None, err.to_string(), err)
                    }
                    // corruption is never papered over by replicas
                    Err(err) => {
                        fatal.get_or_insert(err);
                        continue;
                    }
                    Ok(outs) => {
                        let times: Vec<f64> = outs.iter().map(modelled_time).collect();
                        let mut outs: Vec<Option<SharedOutcome>> =
                            outs.into_iter().map(Some).collect();
                        let Some(d) = deadline.filter(|&d| times.iter().any(|&t| t > d)) else {
                            done.push((e.node, outs));
                            continue;
                        };
                        // a blown deadline is an outage when a live replica
                        // that is on time in this wave can take some of the
                        // node's chunks; else each participant judges the
                        // node on its own outcome
                        let movable = e.chunk_idxs.iter().any(|&c| {
                            (layout.replicas_of_chunk(c).iter())
                                .any(|&r| !behind.contains(&r) && usable(r, &excluded))
                        });
                        if !movable {
                            for (j, (out, &t)) in outs.iter_mut().zip(&times).enumerate() {
                                if t > d {
                                    tdb_obs::add("node.deadline_exceeded", 1);
                                    *out = None;
                                    let mut f = Failure::deadline(e.node, Some(j), t, d);
                                    f.lost.clone_from(&e.chunk_idxs);
                                    failures.push(f);
                                }
                            }
                            done.push((e.node, outs));
                            continue;
                        }
                        tdb_obs::add("node.deadline_exceeded", 1);
                        let t = times.iter().copied().fold(0.0f64, f64::max);
                        Failure::deadline(e.node, None, t, d)
                    }
                };
                excluded.insert(e.node);
                orphans.extend(e.chunk_idxs.iter().map(|&c| (c, failures.len())));
                failures.push(failure);
            }
            if fatal.is_some() || orphans.is_empty() {
                break;
            }
            orphans.sort_unstable();
            let mut retargets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (c, f) in orphans {
                let chain = layout.replicas_of_chunk(c);
                match chain.iter().copied().find(|&r| usable(r, &excluded)) {
                    Some(r) => retargets.entry(r).or_default().push(c),
                    None => {
                        if let Some(f) = failures.get_mut(f) {
                            f.lost.push(c);
                        }
                    }
                }
            }
            if retargets.is_empty() {
                break;
            }
            let moved: u64 = retargets.values().map(|v| v.len() as u64).sum();
            tdb_obs::add("replication.failover.rounds", 1);
            tdb_obs::add("replication.failover.chunks", moved);
            let targets: Vec<(usize, Vec<usize>)> = retargets.into_iter().collect();
            wave = scatter(&targets, false);
        }
        let group_failures = failures.iter().filter(|f| f.participant.is_none());
        let (nodes, lost) = group_failures.fold((0, 0), |(n, l), f| (n + 1, l + f.lost.len()));
        if nodes > 0 {
            tdb_obs::add("replication.failover.nodes", nodes);
        }
        if lost > 0 {
            tdb_obs::add("replication.lost_chunks", lost as u64);
        }
        for (j, &qi) in idxs.iter().enumerate() {
            let Some((query, slot)) = queries.get(qi).zip(answers.get_mut(qi)) else {
                continue;
            };
            *slot = Some(match &fatal {
                Some(err) => Err(err.clone()),
                None => self.assemble(query, j, &layout, &failures, &mut done, procs, live, wall),
            });
        }
    }

    /// Assembles participant `j`'s answer from a finished scatter: the
    /// failures that apply to it decide its [`DegradedInfo`], the per-kind
    /// [`reduce`] folds the outcomes it kept, and the breakdown, modelled
    /// transfers, trace and metrics are the same for every kind.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        query: &BatchQuery,
        j: usize,
        layout: &Layout,
        failures: &[Failure],
        done: &mut [(usize, Vec<Option<SharedOutcome>>)],
        procs: usize,
        nnodes: usize,
        wall: std::time::Instant,
    ) -> StorageResult<BatchAnswer> {
        let req = query.request();
        let failed: Vec<&Failure> = failures
            .iter()
            .filter(|f| f.participant.map_or(true, |p| p == j))
            .collect();
        // the lost chunks by failed node id, then z-order
        let mut lost: Vec<(usize, usize)> = failed
            .iter()
            .flat_map(|f| f.lost.iter().map(|&c| (f.failed.node, c)))
            .collect();
        lost.sort_unstable();
        let in_box = |c: usize| {
            (layout.chunks().get(c)).and_then(|chunk| chunk.grid_box().intersect(&req.query_box))
        };
        let missing_boxes: Vec<Box3> = lost.iter().filter_map(|&(_, c)| in_box(c)).collect();
        // strict fails with the first failure that cost this box data
        let degraded = match failed
            .iter()
            .find(|f| f.lost.iter().any(|&c| in_box(c).is_some()))
        {
            None => None,
            Some(f) if req.strict => return Err(f.error.clone()),
            Some(_) => {
                tdb_obs::add("query.degraded", 1);
                Some(DegradedInfo {
                    failed_nodes: failed.iter().map(|f| f.failed.clone()).collect(),
                    missing_boxes,
                })
            }
        };
        let (node_ids, mut results): (Vec<usize>, Vec<SharedOutcome>) = done
            .iter_mut()
            .filter_map(|(node, outs)| outs.get_mut(j).and_then(Option::take).map(|o| (*node, o)))
            .unzip();
        let mut breakdown = TimeBreakdown::default();
        for o in &results {
            breakdown = breakdown.max_merge(&o.result.breakdown());
        }
        let r = reduce(query, &mut results);
        let node_results: Vec<&NodeResult> = results.iter().map(|o| &o.result).collect();
        breakdown.io_s = self.cluster_io_ref(&node_results, procs);
        breakdown.mediator_db_s = self
            .registry
            .profile(self.lan)
            .time(2 * nnodes as u64, r.db_bytes);
        breakdown.mediator_user_s = self.registry.profile(self.wan).time(2, r.user_bytes);
        let wall_s = wall.elapsed().as_secs_f64();
        let kind = match r.payload {
            Payload::Threshold(_) => "threshold",
            Payload::Pdf(_) => "pdf",
            Payload::TopK(_) => "topk",
        };
        let trace = Some(self.build_trace(
            kind,
            &node_results,
            &node_ids,
            &r.node_points,
            &breakdown,
            r.points,
            wall_s,
            degraded.as_ref(),
        ));
        Ok(match r.payload {
            Payload::Threshold(points) => {
                tdb_obs::add("query.threshold.count", 1);
                tdb_obs::add("query.points_returned", r.points);
                tdb_obs::observe("query.threshold.wall_s", wall_s);
                BatchAnswer::Threshold(ThresholdResponse {
                    points,
                    breakdown,
                    cache_hits: node_results.iter().filter(|n| n.cache_hit).count(),
                    nodes: nnodes,
                    wall_s,
                    node_models: node_results.iter().map(|n| n.model).collect(),
                    trace,
                    degraded,
                })
            }
            Payload::Pdf(histogram) => {
                tdb_obs::add("query.pdf.count", 1);
                tdb_obs::observe("query.pdf.wall_s", wall_s);
                BatchAnswer::Pdf(PdfResponse {
                    histogram,
                    breakdown,
                    wall_s,
                    trace,
                    degraded,
                })
            }
            Payload::TopK(points) => {
                tdb_obs::add("query.topk.count", 1);
                tdb_obs::add("query.points_returned", r.points);
                tdb_obs::observe("query.topk.wall_s", wall_s);
                BatchAnswer::TopK(TopKResponse {
                    points,
                    breakdown,
                    wall_s,
                    trace,
                    degraded,
                })
            }
        })
    }

    /// Reads a raw-field cutout (no kernel), as a user downloading data
    /// would. Returns the assembled field over `cutout` and the breakdown
    /// including the XML-inflated user transfer (§5.3 baseline).
    pub fn get_cutout(
        &self,
        raw_field: &str,
        timestep: u32,
        cutout: &Box3,
    ) -> StorageResult<(VectorField<3>, TimeBreakdown)> {
        let (nx, ny, nz) = self.grid.dims();
        let (hx, hy, hz) = cutout.hi3();
        assert!(
            (hx as usize) < nx && (hy as usize) < ny && (hz as usize) < nz,
            "cutout outside grid"
        );
        let topo = self.topology_snapshot();
        let mut session = IoSession::new();
        let mut field = VectorField::zeros(nx, ny, nz);
        let mut ncomp = 1u64;
        for atom in cutout.atoms() {
            let rec = storage_source(&topo, atom)?
                .fetch_atom(
                    raw_field,
                    AtomKey::new(timestep, atom.zindex()),
                    &mut session,
                )?
                .ok_or_else(|| tdb_storage::StorageError::MissingData {
                    detail: format!("atom {atom:?} of {raw_field} timestep {timestep}"),
                })?;
            ncomp = u64::from(rec.ncomp);
            field.insert_atom(atom, &pad_components(&rec.data, usize::from(rec.ncomp)));
        }
        let mut breakdown = TimeBreakdown {
            io_s: session.makespan(&self.registry),
            ..Default::default()
        };
        let npoints = cutout.num_points();
        breakdown.mediator_db_s = self
            .registry
            .profile(self.lan)
            .time(2 * topo.live_count() as u64, npoints * ncomp * 4);
        breakdown.mediator_user_s = self
            .registry
            .profile(self.wan)
            .time(2, wire::xml_cutout_bytes(npoints, ncomp));
        let sub = field.extract_box(cutout);
        Ok((sub, breakdown))
    }

    /// Interpolates a raw field at arbitrary positions (grid units) with
    /// Lagrange polynomials — the JHTDB `GetVelocity`-style point query
    /// (paper §2 lists interpolation among the built-in routines).
    ///
    /// Positions wrap on periodic axes and clamp at walls.
    pub fn get_points(
        &self,
        raw_field: &str,
        timestep: u32,
        positions: &[[f64; 3]],
        order: tdb_kernels::interp::LagOrder,
    ) -> StorageResult<(Vec<[f32; 3]>, TimeBreakdown)> {
        use crate::assemble::{assemble_padded, needed_atoms};
        let dims = self.grid.dims();
        let (ex, ey, ez) = (dims.0 as f64, dims.1 as f64, dims.2 as f64);
        let &[per_x, per_y, per_z] = &self.grid.periodic;
        // wrap on periodic axes, clamp at walls
        let clip = |v: f64, extent: f64, periodic: bool| {
            if periodic {
                v.rem_euclid(extent)
            } else {
                v.clamp(0.0, extent - 1.0)
            }
        };
        let topo = self.topology_snapshot();
        let mut session = IoSession::new();
        let mut out = Vec::with_capacity(positions.len());
        let halo = order.halo();
        for &[rx, ry, rz] in positions {
            let (px, py, pz) = (
                clip(rx, ex, per_x),
                clip(ry, ey, per_y),
                clip(rz, ez, per_z),
            );
            let (cx, cy, cz) = (
                (px.floor() as u32).min(dims.0 as u32 - 1),
                (py.floor() as u32).min(dims.1 as u32 - 1),
                (pz.floor() as u32).min(dims.2 as u32 - 1),
            );
            let cell = [cx, cy, cz];
            let domain = Box3::new(cell, cell);
            let needed = needed_atoms(&domain, halo, dims, self.grid.periodic);
            let mut atoms = std::collections::HashMap::new();
            for atom in needed {
                let recs = storage_source(&topo, atom)?.fetch_atoms(
                    raw_field,
                    timestep,
                    &[atom.zindex()],
                    &mut session,
                )?;
                let rec = recs.into_iter().next().ok_or_else(|| {
                    tdb_storage::StorageError::MissingData {
                        detail: format!("atom {atom:?} of {raw_field} timestep {timestep}"),
                    }
                })?;
                atoms.insert(rec.key.zindex, rec);
            }
            let padded = assemble_padded(&domain, halo, dims, self.grid.periodic, &atoms)?;
            let local = [px - f64::from(cx), py - f64::from(cy), pz - f64::from(cz)];
            out.push(tdb_kernels::interp::interpolate::<3>(&padded, order, local));
        }
        let mut breakdown = TimeBreakdown {
            io_s: session.makespan(&self.registry),
            ..Default::default()
        };
        breakdown.mediator_db_s = self
            .registry
            .profile(self.lan)
            .time(2 * topo.live_count() as u64, positions.len() as u64 * 12);
        breakdown.mediator_user_s = self
            .registry
            .profile(self.wan)
            .time(2, wire::xml_cutout_bytes(positions.len() as u64, 3));
        Ok((out, breakdown))
    }

    /// Clears every node's semantic cache (cold-cache experiments).
    pub fn clear_caches(&self) {
        for n in self.topology.read().nodes.iter().flatten() {
            n.cache.clear();
            n.pdf_cache.clear();
        }
    }

    /// Drops cache entries for one (field, derived, timestep) — the
    /// paper's per-run "cache entries ... were dropped" setup.
    pub fn invalidate_cache_entry(&self, raw_field: &str, derived: DerivedField, timestep: u32) {
        let key = tdb_cache::CacheInfoKey {
            dataset: self.dataset.clone(),
            field: format!("{raw_field}/{}", derived.name()),
            timestep,
        };
        for n in self.topology.read().nodes.iter().flatten() {
            n.cache.invalidate(&key);
        }
    }

    /// Flips bits in the stored rows of one cached threshold entry on
    /// every node that holds it, leaving its checksum stale (chaos
    /// testing: the next lookup must quarantine and self-heal the entry).
    /// Returns how many node-local entries were corrupted.
    pub fn corrupt_cache_entry(
        &self,
        raw_field: &str,
        derived: DerivedField,
        timestep: u32,
    ) -> usize {
        let key = tdb_cache::CacheInfoKey {
            dataset: self.dataset.clone(),
            field: format!("{raw_field}/{}", derived.name()),
            timestep,
        };
        self.topology
            .read()
            .nodes
            .iter()
            .flatten()
            .filter(|n| n.cache.corrupt_entry(&key))
            .count()
    }

    /// Clears every node's buffer pool (cold-I/O experiments).
    pub fn clear_buffer_pools(&self) {
        for n in self.topology.read().nodes.iter().flatten() {
            n.buffer_pool().clear();
        }
    }

    /// Aggregate cache statistics across nodes (semantic + PDF caches).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for n in self.topology.read().nodes.iter().flatten() {
            for s in [n.cache.stats(), n.pdf_cache.stats()] {
                total.hits += s.hits;
                total.misses += s.misses;
                total.inserts += s.inserts;
                total.evictions += s.evictions;
                total.conflicts += s.conflicts;
                total.quarantined += s.quarantined;
            }
        }
        total
    }
}

/// The first live node along an atom's replica chain — the storage
/// source for direct point access (cutouts, interpolation). Down-marked
/// nodes keep serving storage (only their query evaluator refuses), so
/// the chain head is normally the primary, exactly as before replication.
pub(crate) fn storage_source(topo: &Topology, atom: AtomCoord) -> StorageResult<&Arc<NodeRuntime>> {
    let chunk = topo.layout.chunk_index_of_atom(atom);
    topo.layout
        .replicas_of_chunk(chunk)
        .iter()
        .find_map(|&r| topo.nodes.get(r).and_then(Option::as_ref))
        .ok_or_else(|| StorageError::internal(format!("no live replica stores atom {atom:?}")))
}

/// Pads a record payload (component-major) out to three components.
fn pad_components(data: &[f32], ncomp: usize) -> Vec<f32> {
    use tdb_zorder::ATOM_POINTS;
    let mut out = vec![0.0f32; 3 * ATOM_POINTS];
    for (dst, src) in out
        .chunks_exact_mut(ATOM_POINTS)
        .zip(data.chunks_exact(ATOM_POINTS))
        .take(ncomp.min(3))
    {
        dst.copy_from_slice(src);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn per_node_selection_keeps_the_global_top_k_ties_included(
            raw in prop::collection::vec(0u64..6 * 4096, 0..300),
            nodes in 1usize..5,
            k in 0usize..40,
        ) {
            // few distinct values, so the k-th place is usually a tie
            let points: Vec<ThresholdPoint> = raw
                .iter()
                .map(|&r| ThresholdPoint { zindex: r / 6, value: (r % 6) as f32 })
                .collect();
            let mut want = points.clone();
            want.sort_by(ThresholdPoint::rank_cmp);
            want.truncate(k);
            let mut merged = Vec::new();
            for node in 0..nodes {
                let mut p: Vec<ThresholdPoint> =
                    points.iter().skip(node).step_by(nodes).copied().collect();
                keep_best(&mut p, k);
                merged.append(&mut p);
            }
            keep_best(&mut merged, k);
            merged.sort_unstable_by(ThresholdPoint::rank_cmp);
            prop_assert_eq!(merged, want);
        }
    }

    #[test]
    fn split_zones_is_contiguous_and_complete() {
        let zones = vec![ZRange::new(0, 99)];
        let parts = split_zones(&zones, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, 99);
        let total: u64 = parts.iter().map(ZRange::len).sum();
        assert_eq!(total, 100);
        for w in parts.windows(2) {
            assert_eq!(w[0].end + 1, w[1].start);
        }
    }

    #[test]
    fn split_zones_handles_more_parts_than_atoms() {
        let zones = vec![ZRange::new(0, 1)];
        let parts = split_zones(&zones, 8);
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn pad_components_zero_fills() {
        use tdb_zorder::ATOM_POINTS;
        let data = vec![2.0f32; ATOM_POINTS];
        let p = pad_components(&data, 1);
        assert_eq!(p.len(), 3 * ATOM_POINTS);
        assert_eq!(p[0], 2.0);
        assert_eq!(p[ATOM_POINTS], 0.0);
    }
}
