//! Per-node query evaluation.
//!
//! A node holds a partitioned table per raw field (over every chunk it
//! stores a replica of), a buffer pool, and a semantic cache on its SSD.
//! Threshold subqueries follow Algorithm 1: probe the cache, otherwise
//! evaluate from the raw data chunk-by-chunk with `procs` worker
//! processes and update the cache.
//!
//! A node holds no placement state of its own: which chunks it scans
//! arrives with every [`SharedScanRequest`] as a [`ScanAssignment`]
//! computed by the mediator from one topology snapshot (`placement.rs`
//! is the single source of placement truth). That is what lets the
//! mediator re-target a dead node's chunks at a surviving replica.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use tdb_cache::{
    CacheConfig, CacheInfoKey, CacheLookup, PdfCache, PdfKey, PdfLookup, SemanticCache,
    ThresholdPoint,
};
use tdb_field::{Grid3, ScalarField};
use tdb_kernels::{DerivedField, DiffScheme};
use tdb_storage::device::{DeviceId, DeviceRegistry, IoSession};
use tdb_storage::{AtomKey, AtomRecord, BlockCache, FaultPlan, StorageError, StorageResult, Table};
use tdb_zorder::Box3;

use crate::assemble::{assemble_padded, needed_atoms};
use crate::cputime::thread_cpu_time_s;
#[allow(unused_imports)] // ScanAssignment appears in doc comments
use crate::scan::{ScanAssignment, ScanKernel, SharedOutcome, SharedScanRequest};
use crate::sim::{ChunkCost, NodeTimeModel};
use crate::timing::TimeBreakdown;

/// Whether a query does real work or only the disk reads (Fig. 8's
/// "I/O only" series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    Full,
    IoOnly,
}

/// The per-node share of a threshold query.
#[derive(Debug, Clone)]
pub struct ThresholdSubquery {
    pub dataset: String,
    pub raw_field: String,
    pub derived: DerivedField,
    pub timestep: u32,
    pub query_box: Box3,
    pub threshold: f64,
    pub use_cache: bool,
    pub mode: QueryMode,
    pub procs: usize,
}

impl ThresholdSubquery {
    /// Cache key for this (dataset, field, time-step).
    pub fn cache_key(&self) -> CacheInfoKey {
        CacheInfoKey {
            dataset: self.dataset.clone(),
            field: format!("{}/{}", self.raw_field, self.derived.name()),
            timestep: self.timestep,
        }
    }
}

/// Outcome of one node's threshold subquery.
#[derive(Debug)]
pub struct NodeResult {
    pub points: Vec<ThresholdPoint>,
    pub cache_hit: bool,
    /// Modelled + measured cache-probe time.
    pub cache_lookup_s: f64,
    /// Modelled I/O schedule time at the configured process count.
    pub io_s: f64,
    /// Strictly serial I/O schedule of this node's subquery (the mediator
    /// combines these with the global per-device floor).
    pub io_serial_s: f64,
    /// Modelled compute residency (total pipeline − I/O schedule), i.e.
    /// the measured kernel time as overlapped by the worker pipeline.
    pub compute_s: f64,
    /// Raw measured wall-clock of the node evaluation.
    pub wall_s: f64,
    /// Atoms fetched (local + halo) while evaluating from raw data.
    pub atoms_scanned: u64,
    /// Closed-form time model of this node's scan (zero on cache hits);
    /// lets callers evaluate `t(p)` at any process count from one run.
    pub model: NodeTimeModel,
    /// Device accesses of the whole subquery.
    pub session: IoSession,
}

impl NodeResult {
    /// This node's contribution to the cluster breakdown (communication
    /// phases are filled in by the mediator).
    pub fn breakdown(&self) -> TimeBreakdown {
        TimeBreakdown {
            cache_lookup_s: self.cache_lookup_s,
            io_s: self.io_s,
            compute_s: self.compute_s,
            ..Default::default()
        }
    }
}

/// One simulated database node.
pub struct NodeRuntime {
    pub id: usize,
    tables: HashMap<String, Table>,
    pub cache: SemanticCache,
    pub pdf_cache: PdfCache,
    pool: Arc<BlockCache>,
    grid: Arc<Grid3>,
    scheme: Arc<DiffScheme>,
    registry: Arc<DeviceRegistry>,
    lan: DeviceId,
    controller: DeviceId,
    compute_scale: f64,
    /// When set, replaces measured kernel CPU time with a deterministic
    /// per-grid-point cost (seconds), making the time model load-immune.
    synthetic_compute_s_per_point: Option<f64>,
    faults: Option<Arc<FaultPlan>>,
}

impl NodeRuntime {
    /// Assembles a node from its built tables and devices (used by
    /// [`crate::mediator::ClusterBuilder`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        tables: HashMap<String, Table>,
        pool: Arc<BlockCache>,
        ssd: DeviceId,
        controller: DeviceId,
        compute_scale: f64,
        synthetic_compute_s_per_point: Option<f64>,
        cache_budget_bytes: u64,
        grid: Arc<Grid3>,
        scheme: Arc<DiffScheme>,
        registry: Arc<DeviceRegistry>,
        lan: DeviceId,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        Self {
            id,
            tables,
            cache: SemanticCache::new(CacheConfig {
                budget_bytes: cache_budget_bytes,
                ssd,
                faults: faults.clone(),
            }),
            // histograms are tiny; a small slice of the SSD suffices
            pdf_cache: PdfCache::new(ssd, (cache_budget_bytes / 64).max(1 << 20)),
            pool,
            grid,
            scheme,
            registry,
            lan,
            controller,
            compute_scale,
            synthetic_compute_s_per_point,
            faults,
        }
    }

    /// Fails with [`StorageError::NodeUnavailable`] when the fault plan
    /// has this node marked dead. Only the node's *query evaluator* is
    /// gated: peers fetching halo atoms still reach its storage (the
    /// failover model of DESIGN.md — data stays reachable, compute dies),
    /// so one dead node degrades exactly its own boxes.
    fn check_available(&self) -> StorageResult<()> {
        if let Some(plan) = &self.faults {
            if plan.node_is_down(self.id) {
                tdb_obs::add("node.unavailable", 1);
                return Err(StorageError::NodeUnavailable {
                    node: self.id,
                    detail: "injected node failure".into(),
                });
            }
        }
        Ok(())
    }

    /// The node's buffer pool (exposed for cold-cache experiment setup).
    pub fn buffer_pool(&self) -> &BlockCache {
        &self.pool
    }

    /// Table for a raw field.
    pub fn table(&self, field: &str) -> StorageResult<&Table> {
        self.tables
            .get(field)
            .ok_or_else(|| StorageError::internal(format!("node {} has no field {field}", self.id)))
    }

    /// Point lookup used by peers fetching halo atoms.
    pub fn fetch_atom(
        &self,
        field: &str,
        key: AtomKey,
        session: &mut IoSession,
    ) -> StorageResult<Option<AtomRecord>> {
        self.table(field)?.get(key, session)
    }

    /// Batched halo fetch: one request for many atoms (sorted, unique
    /// zindexes), served by clustered-index range scans.
    pub fn fetch_atoms(
        &self,
        field: &str,
        timestep: u32,
        zindexes: &[u64],
        session: &mut IoSession,
    ) -> StorageResult<Vec<AtomRecord>> {
        let mut local = IoSession::new();
        let out = self.table(field)?.get_many(timestep, zindexes, &mut local);
        // every request and byte the arrays serve also crosses the node's
        // shared controller, which caps how far I/O parallelises
        let (ops, bytes) = (local.total_ops(), local.total_bytes());
        if bytes > 0 || ops > 0 {
            local.charge(self.controller, ops, bytes);
        }
        session.merge(&local);
        out
    }

    /// Evaluates a group of queries against one shared atom scan.
    ///
    /// Every participant's cache is probed first; the remaining misses
    /// share one pass over this node's chunks. Per chunk the scanned
    /// domain is the hull of all pending clips, so each atom is fetched
    /// and each derived field evaluated exactly once, then every pending
    /// kernel is applied over its own clip. Results are byte-identical to
    /// independent execution (kernels are pointwise over halo stencils),
    /// and every cache-eligible participant's entry is filled afterwards.
    ///
    /// Caches are only consulted (or filled) when the assignment is
    /// canonical: entries are keyed by the full query box but hold
    /// exactly this node's primary points, so a failover re-scan of
    /// another node's chunks must bypass them in both directions.
    pub fn evaluate_shared(
        &self,
        peers: &[Option<Arc<NodeRuntime>>],
        req: &SharedScanRequest,
    ) -> StorageResult<Vec<SharedOutcome>> {
        self.check_available()?;
        let _active = ActiveGuard::new();
        let wall = Instant::now();
        let key = req.cache_key();
        let cacheable = req.assignment.canonical;

        struct Slot {
            outcome: Option<SharedOutcome>,
            cache_lookup_s: f64,
            probe_session: IoSession,
            healing: bool,
        }
        fn take_outcome(s: Slot) -> StorageResult<SharedOutcome> {
            s.outcome
                .ok_or_else(|| StorageError::internal("participant slot never produced an outcome"))
        }
        let mut slots: Vec<Slot> = req
            .participants
            .iter()
            .map(|_| Slot {
                outcome: None,
                cache_lookup_s: 0.0,
                probe_session: IoSession::new(),
                healing: false,
            })
            .collect();

        // --- per-participant cache probes --------------------------------
        for (slot, part) in slots.iter_mut().zip(&req.participants) {
            if !part.use_cache || !cacheable {
                continue;
            }
            let probe = thread_cpu_time_s();
            let mut probe_session = IoSession::new();
            // a hit is the participant's points or histogram
            let hit = match &part.kernel {
                ScanKernel::Threshold { threshold } => {
                    match self
                        .cache
                        .lookup(&key, &part.query_box, *threshold, &mut probe_session)
                    {
                        CacheLookup::Hit(points) => Some((points, None)),
                        // a quarantined entry falls through to the raw
                        // evaluation, whose insert below rebuilds it
                        CacheLookup::Quarantined => {
                            slot.healing = true;
                            None
                        }
                        CacheLookup::Miss => None,
                    }
                }
                ScanKernel::Pdf {
                    origin,
                    width,
                    nbins,
                } => {
                    let pdf_key = PdfKey::new(key.clone(), *origin, *width, *nbins as u32);
                    match self
                        .pdf_cache
                        .lookup(&pdf_key, &part.query_box, &mut probe_session)
                    {
                        PdfLookup::Hit(counts) => {
                            let mut hist = tdb_field::Histogram::new(*origin, *width, *nbins);
                            hist.set_counts(&counts);
                            Some((Vec::new(), Some(hist)))
                        }
                        PdfLookup::Miss => None,
                    }
                }
                ScanKernel::TopK => continue,
            };
            slot.cache_lookup_s =
                (thread_cpu_time_s() - probe).max(0.0) + probe_session.makespan(&self.registry);
            let Some((points, histogram)) = hit else {
                slot.probe_session = probe_session;
                continue;
            };
            self.report_session(&probe_session);
            slot.outcome = Some(SharedOutcome {
                result: NodeResult {
                    points,
                    cache_hit: true,
                    cache_lookup_s: slot.cache_lookup_s,
                    io_s: 0.0,
                    io_serial_s: 0.0,
                    compute_s: 0.0,
                    wall_s: wall.elapsed().as_secs_f64(),
                    atoms_scanned: 0,
                    model: NodeTimeModel::default(),
                    session: probe_session,
                },
                histogram,
            });
        }

        let pending: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.outcome.is_none())
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            return slots.into_iter().map(take_outcome).collect();
        }

        // --- shared scan over all pending participants -------------------
        // per chunk, scan the hull of every pending clip so each atom is
        // decoded once no matter how many queries need it
        struct ScanTask {
            domain: Box3,
            clips: Vec<(usize, Box3)>,
        }
        let mut tasks: Vec<ScanTask> = Vec::new();
        for c in req.assignment.chunks_of(self.id) {
            let grid_box = c.grid_box();
            let mut clips = Vec::new();
            for &i in &pending {
                let Some(part) = req.participants.get(i) else {
                    continue;
                };
                if let Some(clip) = grid_box.intersect(&part.query_box) {
                    clips.push((i, clip));
                }
            }
            let Some(&(_, first)) = clips.first() else {
                continue;
            };
            let domain = clips.iter().skip(1).fold(first, |d, (_, b)| d.hull(b));
            tasks.push(ScanTask { domain, clips });
        }

        enum SlotOut {
            Points(Vec<ThresholdPoint>),
            Hist(tdb_field::Histogram),
        }
        type TaskOutcome = (Vec<(usize, SlotOut)>, ChunkCost, IoSession, u64, u64);
        let results: Vec<StorageResult<TaskOutcome>> =
            self.run_workers(req.procs, &tasks, |task: &ScanTask| {
                let mut chunk_session = IoSession::new();
                let atoms =
                    self.fetch_atoms_shared(req, &task.domain, peers, &mut chunk_session)?;
                let chunk_atoms = atoms.len() as u64;
                let saved = chunk_atoms * (task.clips.len() as u64 - 1);
                let mut outs: Vec<(usize, SlotOut)> = Vec::new();
                let mut compute_s = 0.0;
                if req.mode == QueryMode::Full {
                    let c0 = thread_cpu_time_s();
                    let halo = req.derived.halo(&self.scheme);
                    let padded = assemble_padded(
                        &task.domain,
                        halo,
                        self.grid.dims(),
                        self.grid.periodic,
                        &atoms,
                    )?;
                    let (dlx, dly, dlz) = task.domain.lo3();
                    let norm = req.derived.eval(
                        &padded,
                        &self.scheme,
                        [dlx as usize, dly as usize, dlz as usize],
                    );
                    for (i, clip) in &task.clips {
                        let Some(part) = req.participants.get(*i) else {
                            continue;
                        };
                        let out = match &part.kernel {
                            ScanKernel::Threshold { threshold } => SlotOut::Points(
                                threshold_scan_clip(&norm, &task.domain, clip, *threshold),
                            ),
                            ScanKernel::TopK => SlotOut::Points(threshold_scan_clip(
                                &norm,
                                &task.domain,
                                clip,
                                f64::NEG_INFINITY,
                            )),
                            ScanKernel::Pdf {
                                origin,
                                width,
                                nbins,
                            } => {
                                let mut hist = tdb_field::Histogram::new(*origin, *width, *nbins);
                                pdf_scan_clip(&norm, &task.domain, clip, &mut hist);
                                SlotOut::Hist(hist)
                            }
                        };
                        outs.push((*i, out));
                    }
                    let measured = (thread_cpu_time_s() - c0).max(0.0) * self.compute_scale;
                    compute_s = match self.synthetic_compute_s_per_point {
                        Some(rate) => task.domain.num_points() as f64 * rate,
                        None => measured,
                    };
                }
                let cost = ChunkCost {
                    io: chunk_session
                        .devices()
                        .map(|(dev, a)| (dev, self.registry.profile(dev).time(a.ops, a.bytes)))
                        .collect(),
                    compute_s,
                };
                Ok((outs, cost, chunk_session, chunk_atoms, saved))
            });

        let mut acc_points: Vec<Vec<ThresholdPoint>> =
            (0..slots.len()).map(|_| Vec::new()).collect();
        let mut acc_hist: Vec<Option<tdb_field::Histogram>> =
            (0..slots.len()).map(|_| None).collect();
        let mut shared_session = IoSession::new();
        let mut costs = Vec::with_capacity(results.len());
        let mut atoms_scanned = 0u64;
        let mut atoms_saved = 0u64;
        for r in results {
            let (outs, cost, chunk_session, chunk_atoms, saved) = r?;
            for (i, out) in outs {
                match out {
                    SlotOut::Points(p) => {
                        if let Some(acc) = acc_points.get_mut(i) {
                            acc.extend(p);
                        }
                    }
                    SlotOut::Hist(h) => match acc_hist.get_mut(i) {
                        Some(Some(acc)) => acc.merge(&h),
                        Some(slot) => *slot = Some(h),
                        None => {}
                    },
                }
            }
            costs.push(cost);
            atoms_scanned += chunk_atoms;
            atoms_saved += saved;
            shared_session.merge(&chunk_session);
        }
        // --- serial-phase timing (DESIGN.md §4) --------------------------
        let model = NodeTimeModel::from_costs(&costs, &self.registry);
        if pending.len() >= 2 {
            tdb_obs::add("scan.shared", 1);
            tdb_obs::add("scan.coalesced_queries", (pending.len() - 1) as u64);
            tdb_obs::add("scan.atoms_saved", atoms_saved);
        }
        tdb_obs::add("node.atoms_scanned", atoms_scanned);

        // --- per-participant assembly and cache fills --------------------
        let mut report = IoSession::new();
        report.merge(&shared_session);
        for &i in &pending {
            let (Some(part), Some(slot)) = (req.participants.get(i), slots.get_mut(i)) else {
                continue;
            };
            let mut session = IoSession::new();
            session.merge(&slot.probe_session);
            session.merge(&shared_session);
            report.merge(&slot.probe_session);
            // injected latency and retry backoff stall the issuing worker,
            // so they ride on the I/O phase serially
            let mut io_s = model.io_s(req.procs) + session.injected_delay_s;
            let io_serial_s = model.io_serial + session.injected_delay_s;
            let mut points = acc_points
                .get_mut(i)
                .map(std::mem::take)
                .unwrap_or_default();
            let mut histogram = None;
            match &part.kernel {
                ScanKernel::Threshold { threshold } => {
                    points.sort_unstable_by_key(|p| p.zindex);
                    if part.use_cache && cacheable && req.mode == QueryMode::Full {
                        let mut insert_session = IoSession::new();
                        self.cache.insert(
                            &key,
                            part.query_box,
                            *threshold,
                            &points,
                            &mut insert_session,
                        );
                        io_s += insert_session.makespan(&self.registry);
                        session.merge(&insert_session);
                        report.merge(&insert_session);
                        if slot.healing {
                            tdb_obs::add("cache.semantic.rebuilt", 1);
                        }
                    }
                }
                // ranked and cut to k by the mediator, which sorts only
                // the kept points
                ScanKernel::TopK => {}
                ScanKernel::Pdf {
                    origin,
                    width,
                    nbins,
                } => {
                    let hist = acc_hist
                        .get_mut(i)
                        .and_then(Option::take)
                        .unwrap_or_else(|| tdb_field::Histogram::new(*origin, *width, *nbins));
                    if part.use_cache && cacheable {
                        let pdf_key = PdfKey::new(key.clone(), *origin, *width, *nbins as u32);
                        let mut insert_session = IoSession::new();
                        self.pdf_cache.insert(
                            &pdf_key,
                            part.query_box,
                            hist.counts().to_vec(),
                            &mut insert_session,
                        );
                        io_s += insert_session.injected_delay_s;
                        session.merge(&insert_session);
                        report.merge(&insert_session);
                    }
                    histogram = Some(hist);
                }
            }
            slot.outcome = Some(SharedOutcome {
                result: NodeResult {
                    points,
                    cache_hit: false,
                    cache_lookup_s: slot.cache_lookup_s,
                    io_s,
                    io_serial_s,
                    compute_s: model.compute_s(req.procs),
                    wall_s: wall.elapsed().as_secs_f64(),
                    atoms_scanned,
                    model,
                    session,
                },
                histogram,
            });
        }
        self.report_session(&report);
        slots.into_iter().map(take_outcome).collect()
    }

    /// Mirrors a subquery's device charges into the global metrics
    /// registry as `io.ops.<device>` / `io.bytes.<device>` counters.
    fn report_session(&self, session: &IoSession) {
        let reg = tdb_obs::global();
        for (dev, access) in session.devices() {
            let name = &self.registry.profile(dev).name;
            reg.add(&format!("io.ops.{name}"), access.ops);
            reg.add(&format!("io.bytes.{name}"), access.bytes);
        }
    }

    /// Runs `procs` workers over the task list, collecting per-task output.
    fn run_workers<I: Sync, T: Send>(
        &self,
        procs: usize,
        tasks: &[I],
        work: impl Fn(&I) -> T + Sync,
    ) -> Vec<T> {
        // the time model scales with the *requested* process count; the
        // real thread count is capped at the hardware so CPU-time
        // measurements stay clean
        let hw = std::thread::available_parallelism().map_or(8, |n| n.get());
        let procs = procs.max(1).min(hw);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let out: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(tasks.len()));
        std::thread::scope(|scope| {
            for _ in 0..procs.min(tasks.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let r = work(task);
                    out.lock().push((i, r));
                });
            }
        });
        let mut results = out.into_inner();
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Fetches every atom a chunk domain needs: atoms this node stores a
    /// replica of from its own table as batched range scans, the rest
    /// from the atom's primary as one batched request per peer over the
    /// (modelled) LAN. Routing comes from the request's assignment — the
    /// node holds no placement state of its own.
    fn fetch_atoms_shared(
        &self,
        req: &SharedScanRequest,
        domain: &Box3,
        peers: &[Option<Arc<NodeRuntime>>],
        session: &mut IoSession,
    ) -> StorageResult<HashMap<u64, AtomRecord>> {
        // I/O-only probes (Fig. 8) read exactly what the full evaluation
        // reads — boundary bands included — they just skip the kernel
        let halo = req.derived.halo(&self.scheme);
        let needed = needed_atoms(domain, halo, self.grid.dims(), self.grid.periodic);
        let layout = &req.assignment.layout;
        let mut by_owner: HashMap<usize, Vec<u64>> = HashMap::new();
        for atom in &needed {
            by_owner
                .entry(layout.fetch_node_for(*atom, self.id))
                .or_default()
                .push(atom.zindex());
        }
        let mut out = HashMap::with_capacity(needed.len());
        for (owner, mut codes) in by_owner {
            codes.sort_unstable();
            let records = if owner == self.id {
                self.fetch_atoms(&req.raw_field, req.timestep, &codes, session)
            } else {
                let Some(peer) = peers.get(owner).and_then(Option::as_ref) else {
                    return Err(StorageError::internal(format!(
                        "atom owner {owner} absent from the cluster of {} node slots",
                        peers.len()
                    )));
                };
                let r = peer.fetch_atoms(&req.raw_field, req.timestep, &codes, session);
                if let Ok(records) = &r {
                    // one LAN round-trip per peer contacted for this chunk
                    let bytes: u64 = records
                        .iter()
                        .map(|rec| AtomRecord::encoded_len(rec.ncomp) as u64)
                        .sum();
                    session.charge(self.lan, 1, bytes);
                }
                r
            };
            let records = records?;
            if records.len() != codes.len() {
                return Err(tdb_storage::StorageError::MissingData {
                    detail: format!(
                        "node {owner} returned {} of {} atoms for field {} timestep {}",
                        records.len(),
                        codes.len(),
                        req.raw_field,
                        req.timestep
                    ),
                });
            }
            for rec in records {
                out.insert(rec.key.zindex, rec);
            }
        }
        Ok(out)
    }
}

/// RAII increment of the `node.active_subqueries` gauge.
struct ActiveGuard(tdb_obs::Gauge);

impl ActiveGuard {
    fn new() -> Self {
        let g = tdb_obs::global().gauge("node.active_subqueries");
        g.inc();
        Self(g)
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Scans an evaluated norm field, returning every point at or above the
/// threshold with its global Morton code.
///
/// The comparison is in f64, matching the warm-path filter in
/// `SemanticCache::lookup` — comparing in f32 (`threshold as f32`) rounds
/// the threshold and can admit points a later cache hit would reject,
/// making warm results differ from cold ones at thresholds that are not
/// exactly representable in f32.
#[cfg(test)]
fn threshold_scan(norm: &ScalarField, domain: &Box3, threshold: f64) -> Vec<ThresholdPoint> {
    threshold_scan_clip(norm, domain, domain, threshold)
}

/// Scans the `clip` sub-box of a norm field evaluated over `domain`.
///
/// Delegates to the chunked kernel in [`tdb_kernels::scan`] (row-sliced,
/// hoisted Morton row encoding). In a shared scan the evaluated domain is
/// the hull of several participants' clips; each participant only keeps
/// points inside its own clip. The per-point values are identical to a
/// clip-only evaluation because the kernels are pointwise over halo
/// stencils.
fn threshold_scan_clip(
    norm: &ScalarField,
    domain: &Box3,
    clip: &Box3,
    threshold: f64,
) -> Vec<ThresholdPoint> {
    let mut hits: Vec<tdb_kernels::ScanHit> = Vec::new();
    tdb_kernels::scan::threshold_scan_clip(norm, domain, clip, threshold, &mut hits);
    hits.into_iter()
        .map(|(zindex, value)| ThresholdPoint { zindex, value })
        .collect()
}

/// Accumulates the `clip` sub-box of an evaluated norm into a histogram.
fn pdf_scan_clip(norm: &ScalarField, domain: &Box3, clip: &Box3, hist: &mut tdb_field::Histogram) {
    tdb_kernels::scan::pdf_scan_clip(norm, domain, clip, hist);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_scan_finds_exact_points() {
        let mut f = ScalarField::zeros(4, 4, 4);
        f.set(1, 2, 3, 5.0);
        f.set(0, 0, 0, 4.9);
        let domain = Box3::new([8, 8, 8], [11, 11, 11]);
        let pts = threshold_scan(&f, &domain, 5.0);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].coords(), (9, 10, 11));
        assert_eq!(pts[0].value, 5.0);
        // threshold is inclusive
        let pts = threshold_scan(&f, &domain, 4.9);
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn threshold_scan_compares_in_f64() {
        // 25.000000001 is not representable in f32: it rounds to exactly
        // 25.0, so an f32 comparison would wrongly admit a 25.0 point.
        // The warm-path cache filter compares in f64 and would then drop
        // it, making warm results differ from cold ones.
        let mut f = ScalarField::zeros(2, 2, 2);
        f.set(0, 0, 0, 25.0);
        f.set(1, 1, 1, 26.0);
        let domain = Box3::new([0, 0, 0], [1, 1, 1]);
        let thr = 25.000000001_f64;
        assert_eq!(thr as f32, 25.0_f32, "threshold must round to 25 in f32");
        let pts = threshold_scan(&f, &domain, thr);
        assert_eq!(pts.len(), 1, "the 25.0 point must be excluded");
        assert_eq!(pts[0].value, 26.0);
    }

    #[test]
    fn cache_key_includes_derived_field() {
        let q = ThresholdSubquery {
            dataset: "mhd".into(),
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 3,
            query_box: Box3::cube(8),
            threshold: 1.0,
            use_cache: true,
            mode: QueryMode::Full,
            procs: 1,
        };
        let k = q.cache_key();
        assert_eq!(k.field, "velocity/curl_norm");
        assert_eq!(k.timestep, 3);
    }
}
