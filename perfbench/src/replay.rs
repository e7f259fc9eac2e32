//! The traced run: a sample of the workload's requests replayed layer by
//! layer through each layer's public entry points, in the order the real
//! path makes them. The program itself carries no spans; every span here
//! wraps one of the benchmark's own calls.
//!
//! Each request is replayed in five passes, each from the same starting
//! state (cold pools on `cold_scan`, a dropped cache entry before an
//! exploration session's first threshold):
//!
//! 1. `wire.round_trip`: the real TCP round trip, with the client-side
//!    request encode and response decode inside it;
//! 2. the server side: request decode, admission, `server::execute`
//!    (`core.execute`) and response encode;
//! 3. `cluster.get`: `Cluster::get_*` on the equivalent request;
//! 4. `cluster.node`: each node's `NodeRuntime::evaluate_shared`, the
//!    nodes in parallel as the mediator runs them;
//! 5. inside each node: cache probe, `needed_atoms`, `fetch_atoms`, the
//!    plane decode, `assemble_padded`, `DerivedField::eval`, the scan, and
//!    the cache insert.
//!
//! Every pass's answer is checked against the oracle. A layer's self time
//! is its span minus its children (`wire.round_trip` minus the server
//! side and the codecs is `wire.transport`; `core.execute` minus
//! `cluster.get` is the facade; `cluster.get` minus the slowest node is
//! the mediator). The part of the slowest node's `evaluate_shared` that
//! the pass-5 calls do not explain is left unattributed, so
//! `trace.coverage` = attributed self time ÷ round trip shows how much of
//! the request the layer calls account for.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tdb_cache::{CacheInfoKey, CacheLookup, PdfKey, PdfLookup, ThresholdPoint};
use tdb_cluster::assemble::{assemble_padded, needed_atoms};
use tdb_cluster::mediator::ThresholdRequest;
use tdb_cluster::node::NodeRuntime;
use tdb_cluster::{
    QueryMode, ScanAssignment, ScanKernel, ScanParticipant, SharedOutcome, SharedScanRequest,
};
use tdb_compress::{decode_plane, encode_plane, CompressionMode};
use tdb_field::Histogram;
use tdb_kernels::scan::{pdf_scan_clip, threshold_scan_clip};
use tdb_kernels::DiffScheme;
use tdb_storage::block::TARGET_BLOCK_BYTES;
use tdb_storage::{AtomRecord, IoSession};
use tdb_wire::{AdmissionConfig, AdmissionQueue, Json, Request};
use tdb_zorder::{Box3, ATOM_POINTS};

use crate::client::{check_response, request, Conn};
use crate::load::apply_local;
use crate::oracle::{Answer, Oracle};
use crate::setup::Deployment;
use crate::stats::{mean, median, Metric};
use crate::workload::{Kind, Query, Region, Step, Stream, Workload, GRID, TOPK};

/// Repetitions of every pass; per-request figures are medians over them.
const REPS: usize = 3;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: usize,
    pub rep: usize,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub node: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    /// False for a measurement kept for reference that the real path
    /// did not make (the plane decode of an uncompressed archive).
    pub on_path: bool,
}

/// A span measured on a node thread, linked up when the thread returns.
#[derive(Debug, Clone)]
struct LocalSpan {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    /// Index of the parent among the thread's spans; `None` = the node.
    parent: Option<usize>,
    on_path: bool,
}

/// Pass-5 times of one node, seconds.
#[derive(Debug, Clone, Default)]
struct Inner {
    lookup: f64,
    fetch: f64,
    /// `decode_plane` over the planes the fetch decoded (compressed
    /// archive) or, for reference, over the fetched planes under the raw
    /// codec (uncompressed archive).
    decode: f64,
    /// The part of `decode` that is on the request's path.
    decode_on_path: f64,
    assemble: f64,
    derive: f64,
    scan: f64,
    insert: f64,
    derived_points: u64,
}

impl Inner {
    fn explained(&self) -> f64 {
        self.lookup + self.fetch + self.assemble + self.derive + self.scan + self.insert
    }
}

/// What one node's pass-5 replay produced.
enum NodeOut {
    Points(Vec<ThresholdPoint>),
    Counts(Vec<u64>),
}

/// Per-request figures of one repetition, seconds unless noted.
#[derive(Debug, Clone, Default)]
struct RepFigures {
    round_trip: f64,
    request_encode: f64,
    response_decode: f64,
    request_decode: f64,
    admission: f64,
    response_encode: f64,
    transport: f64,
    core: f64,
    mediator: f64,
    node: f64,
    skew: f64,
    /// Pass-5 times of the slowest node of pass 4.
    inner: Inner,
    unattributed: f64,
    /// Points evaluated and `DerivedField::eval` time over every node.
    derived_points: u64,
    derive_all_nodes: f64,
    response_bytes: usize,
    points_merged: u64,
}

impl RepFigures {
    /// Self time per layer.
    fn layers(&self) -> [(&'static str, f64); 7] {
        [
            (
                "wire",
                self.transport
                    + self.request_encode
                    + self.response_decode
                    + self.request_decode
                    + self.admission
                    + self.response_encode,
            ),
            ("core", self.core),
            ("cluster", self.mediator + self.inner.assemble),
            ("cache", self.inner.lookup + self.inner.insert),
            ("storage", self.inner.fetch - self.inner.decode_on_path),
            ("compress", self.inner.decode_on_path),
            ("kernels", self.inner.derive + self.inner.scan),
        ]
    }
}

/// The traced run's result: per-layer metrics and the span dump.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Layer with the largest self time.
    pub dominant: &'static str,
    /// Self time per layer, ms per request.
    pub layer_ms: Vec<(&'static str, f64)>,
    /// Slowest-node time the pass-5 calls do not explain, ms per request.
    pub unattributed_ms: f64,
    /// Replayed answers checked against the oracle, those that differ,
    /// and the first few differences.
    pub checks: u64,
    pub mismatches: u64,
    pub mismatch_log: Vec<String>,
}

struct Ctx<'a> {
    dep: &'a Deployment,
    oracle: &'a Oracle,
    workload: Workload,
    epoch: Instant,
    spans: Vec<Span>,
    checks: u64,
    mismatches: u64,
    mismatch_log: Vec<String>,
    admission: Arc<AdmissionQueue>,
    peers: Vec<Option<Arc<NodeRuntime>>>,
    scheme: DiffScheme,
}

fn secs(epoch: Instant, t: Instant) -> f64 {
    (t - epoch).as_secs_f64()
}

impl Ctx<'_> {
    fn push(
        &mut self,
        (req, rep): (usize, usize),
        parent: Option<usize>,
        name: &'static str,
        node: Option<usize>,
        (start_s, end_s): (f64, f64),
        on_path: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            req,
            rep,
            id,
            parent,
            name,
            node,
            start_s,
            end_s,
            on_path,
        });
        id
    }

    fn now(&self) -> f64 {
        secs(self.epoch, Instant::now())
    }

    fn checked(&mut self, pass: &str, q: &Query, r: Result<(), String>) {
        self.checks += 1;
        if let Err(e) = r {
            self.mismatches += 1;
            if self.mismatch_log.len() < 5 {
                self.mismatch_log
                    .push(format!("replay {pass} of {}: {e}", q.label()));
            }
        }
    }

    /// Puts the system back into the state the request met in the loop.
    fn reset(&self, q: &Query) {
        let cluster = self.dep.service.cluster();
        if self.workload == Workload::ColdScan {
            cluster.clear_buffer_pools();
        }
        if is_session_miss(q) {
            cluster.invalidate_cache_entry(q.key.field, q.key.derived, q.key.timestep);
        }
    }

    fn cluster_request(&self, q: &Query) -> ThresholdRequest {
        let full = Box3::grid(GRID, GRID, GRID);
        let (query_box, threshold, use_cache) = match q.kind {
            Kind::Threshold {
                tier,
                region,
                use_cache,
            } => (
                region.query_box().unwrap_or(full),
                self.oracle.threshold(&q.key, tier),
                use_cache,
            ),
            // the server asks for PDFs and top-k with the cache enabled
            Kind::Pdf | Kind::TopK => (full, 0.0, true),
        };
        ThresholdRequest {
            raw_field: q.key.field.to_string(),
            derived: q.key.derived,
            timestep: q.key.timestep,
            query_box,
            threshold,
            use_cache,
            mode: QueryMode::Full,
            procs_override: None,
            strict: false,
            node_deadline_s: None,
        }
    }

    fn participant(&self, q: &Query, req: &ThresholdRequest) -> ScanParticipant {
        let (kernel, use_cache) = match q.kind {
            Kind::Threshold { .. } => (
                ScanKernel::Threshold {
                    threshold: req.threshold,
                },
                req.use_cache,
            ),
            Kind::Pdf => {
                let b = self.oracle.pdf_bins(&q.key);
                (
                    ScanKernel::Pdf {
                        origin: b.origin,
                        width: b.width,
                        nbins: b.nbins as usize,
                    },
                    true,
                )
            }
            Kind::TopK => (ScanKernel::TopK, false),
        };
        ScanParticipant {
            query_box: req.query_box,
            kernel,
            use_cache,
        }
    }

    /// Pass 1: the real round trip. Returns its span.
    fn pass_wire(
        &mut self,
        conn: &mut Conn,
        q: &Query,
        r: (usize, usize),
        f: &mut RepFigures,
    ) -> Option<usize> {
        let req = request(self.oracle, q);
        let start = self.now();
        match conn.call(&req) {
            Ok((response, t)) => {
                let root = self.push(
                    r,
                    None,
                    "wire.round_trip",
                    None,
                    (start, start + t.total_s),
                    true,
                );
                let enc_end = start + t.encode_s;
                let sock_end = enc_end + t.socket_s;
                self.push(
                    r,
                    Some(root),
                    "wire.request_encode",
                    None,
                    (start, enc_end),
                    true,
                );
                self.push(
                    r,
                    Some(root),
                    "wire.socket",
                    None,
                    (enc_end, sock_end),
                    true,
                );
                self.push(
                    r,
                    Some(root),
                    "wire.response_decode",
                    None,
                    (sock_end, sock_end + t.decode_s),
                    true,
                );
                f.round_trip = t.total_s;
                f.request_encode = t.encode_s;
                f.response_decode = t.decode_s;
                f.response_bytes = t.response_bytes;
                let check = check_response(self.oracle, q, &response).map_err(|e| format!("{e:?}"));
                self.checked("wire", q, check);
                Some(root)
            }
            Err(e) => {
                self.checked("wire", q, Err(e.0));
                None
            }
        }
    }

    /// Pass 2: the server side of the round trip. Returns the span of
    /// `server::execute`.
    fn pass_server(
        &mut self,
        q: &Query,
        r: (usize, usize),
        root: Option<usize>,
        f: &mut RepFigures,
    ) -> Option<usize> {
        let line = request(self.oracle, q).to_json().encode();
        let t0 = self.now();
        let parsed = Json::parse(&line)
            .map_err(|e| e.to_string())
            .and_then(|doc| Request::from_json(&doc).map_err(|e| e.to_string()));
        let t1 = self.now();
        let request = match parsed {
            Ok(r) => r,
            Err(e) => {
                self.checked("server", q, Err(e));
                return None;
            }
        };
        let permit = self.admission.admit_keyed(0, None);
        let t2 = self.now();
        let response = tdb_wire::server::execute(&request, &self.dep.service);
        let t3 = self.now();
        drop(permit);
        let t4 = self.now();
        let text = response.to_json().encode();
        let t5 = self.now();
        std::hint::black_box(text);
        self.push(r, root, "wire.request_decode", None, (t0, t1), true);
        self.push(r, root, "wire.admission", None, (t1, t2), true);
        let execute = self.push(r, root, "core.execute", None, (t2, t3), true);
        self.push(r, root, "wire.admission_release", None, (t3, t4), true);
        self.push(r, root, "wire.response_encode", None, (t4, t5), true);
        f.request_decode = t1 - t0;
        f.admission = (t2 - t1) + (t4 - t3);
        f.core = t3 - t2; // minus cluster.get below
        f.response_encode = t5 - t4;
        let check = check_response(self.oracle, q, &response).map_err(|e| format!("{e:?}"));
        self.checked("server", q, check);
        Some(execute)
    }

    /// Pass 3: the mediator entry point. Returns its span.
    fn pass_cluster(
        &mut self,
        q: &Query,
        r: (usize, usize),
        parent: Option<usize>,
        f: &mut RepFigures,
    ) -> Option<usize> {
        let req = self.cluster_request(q);
        let cluster = self.dep.service.cluster();
        let t0 = self.now();
        let check = match q.kind {
            Kind::Threshold { .. } => cluster.get_threshold(&req).map(|a| {
                let t = self.now();
                (t, self.oracle.check(q, Answer::Points(&a.points)))
            }),
            Kind::Pdf => {
                let b = self.oracle.pdf_bins(&q.key);
                cluster
                    .get_pdf(&req, b.origin, b.width, b.nbins as usize)
                    .map(|a| {
                        let t = self.now();
                        (
                            t,
                            self.oracle.check(q, Answer::Counts(a.histogram.counts())),
                        )
                    })
            }
            Kind::TopK => cluster.get_topk(&req, TOPK as usize).map(|a| {
                let t = self.now();
                (t, self.oracle.check(q, Answer::Points(&a.points)))
            }),
        };
        match check {
            Ok((t1, check)) => {
                let id = self.push(r, parent, "cluster.get", None, (t0, t1), true);
                f.core -= t1 - t0;
                f.mediator = t1 - t0; // minus the slowest node below
                self.checked("cluster", q, check);
                Some(id)
            }
            Err(e) => {
                self.checked("cluster", q, Err(e.to_string()));
                None
            }
        }
    }

    /// Pass 4: every node's `evaluate_shared`, in parallel. Returns the
    /// node spans.
    fn pass_nodes(
        &mut self,
        q: &Query,
        r: (usize, usize),
        parent: Option<usize>,
        f: &mut RepFigures,
    ) -> Vec<usize> {
        let req = self.cluster_request(q);
        let cluster = self.dep.service.cluster();
        let shared = SharedScanRequest {
            dataset: cluster.dataset().to_string(),
            raw_field: req.raw_field.clone(),
            derived: req.derived,
            timestep: req.timestep,
            mode: QueryMode::Full,
            procs: cluster.config().procs_per_node,
            participants: vec![self.participant(q, &req)],
            assignment: Arc::new(ScanAssignment::canonical(&cluster.layout())),
        };
        let (epoch, peers) = (self.epoch, &self.peers);
        let results: Vec<(f64, f64, Result<Vec<SharedOutcome>, String>)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = peers
                    .iter()
                    .flatten()
                    .map(|node| {
                        let shared = &shared;
                        s.spawn(move || {
                            let t0 = Instant::now();
                            let out = node.evaluate_shared(peers, shared);
                            let t1 = Instant::now();
                            (
                                secs(epoch, t0),
                                secs(epoch, t1),
                                out.map_err(|e| e.to_string()),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("node replay thread panicked"))
                    .collect()
            });
        let mut ids = Vec::new();
        let mut outs = Vec::new();
        let mut durations = Vec::new();
        for (i, (t0, t1, out)) in results.into_iter().enumerate() {
            ids.push(self.push(r, parent, "cluster.node", Some(i), (t0, t1), true));
            durations.push(t1 - t0);
            match out {
                Ok(mut o) => outs.push(o.pop()),
                Err(e) => self.checked("node", q, Err(e)),
            }
        }
        let slowest = durations.iter().copied().fold(0.0, f64::max);
        f.node = slowest;
        f.skew = slowest / mean(&durations).max(1e-12);
        f.mediator -= slowest;
        f.points_merged = outs
            .iter()
            .flatten()
            .map(|o| o.result.points.len() as u64)
            .sum();
        let merged = merge(
            q,
            outs.into_iter()
                .flatten()
                .map(|mut o| match o.histogram.take() {
                    Some(h) => NodeOut::Counts(h.counts().to_vec()),
                    None => NodeOut::Points(o.take_points()),
                })
                .collect(),
        );
        let check = self.check_merged(q, &merged);
        self.checked("node", q, check);
        ids
    }

    fn check_merged(&self, q: &Query, merged: &NodeOut) -> Result<(), String> {
        match merged {
            NodeOut::Points(p) => self.oracle.check(q, Answer::Points(p)),
            NodeOut::Counts(c) => self.oracle.check(q, Answer::Counts(c)),
        }
    }

    /// Pass 5: the calls inside every node, nodes in parallel.
    fn pass_inner(
        &mut self,
        q: &Query,
        r: (usize, usize),
        node_spans: &[usize],
        f: &mut RepFigures,
        node_durations: &[f64],
    ) {
        let req = self.cluster_request(q);
        let part = self.participant(q, &req);
        let results: Vec<(Inner, Result<NodeOut, String>, Vec<LocalSpan>)> = {
            let this = &*self;
            std::thread::scope(|s| {
                let handles: Vec<_> = this
                    .peers
                    .iter()
                    .flatten()
                    .map(|node| {
                        let (req, part) = (&req, &part);
                        s.spawn(move || this.node_calls(node, req, part))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("node replay thread panicked"))
                    .collect()
            })
        };
        let mut inners = Vec::new();
        let mut outs = Vec::new();
        for (i, (inner, out, local)) in results.into_iter().enumerate() {
            let base = self.spans.len();
            for l in local {
                let parent = match l.parent {
                    Some(p) => Some(base + p),
                    None => node_spans.get(i).copied(),
                };
                self.push(r, parent, l.name, Some(i), (l.start_s, l.end_s), l.on_path);
            }
            match out {
                Ok(o) => outs.push(o),
                Err(e) => self.checked("inner", q, Err(e)),
            }
            inners.push(inner);
        }
        let merged = merge(q, outs);
        let check = self.check_merged(q, &merged);
        self.checked("inner", q, check);
        // the slowest node of pass 4 is the critical path
        let s = (0..node_durations.len())
            .max_by(|&a, &b| node_durations[a].total_cmp(&node_durations[b]))
            .unwrap_or(0);
        f.inner = inners.get(s).cloned().unwrap_or_default();
        f.unattributed = f.node - f.inner.explained();
        f.derived_points = inners.iter().map(|i| i.derived_points).sum();
        f.derive_all_nodes = inners.iter().map(|i| i.derive).sum();
    }

    /// One node's share of the query, made of the layers' public calls in
    /// the order `evaluate_shared` makes them.
    fn node_calls(
        &self,
        me: &NodeRuntime,
        req: &ThresholdRequest,
        part: &ScanParticipant,
    ) -> (Inner, Result<NodeOut, String>, Vec<LocalSpan>) {
        let mut inner = Inner::default();
        let mut spans = Vec::new();
        let out = self.node_calls_into(me, req, part, &mut inner, &mut spans);
        (inner, out, spans)
    }

    fn node_calls_into(
        &self,
        me: &NodeRuntime,
        req: &ThresholdRequest,
        part: &ScanParticipant,
        inner: &mut Inner,
        spans: &mut Vec<LocalSpan>,
    ) -> Result<NodeOut, String> {
        let epoch = self.epoch;
        let mut span = |name, t0: Instant, parent: Option<usize>, on_path: bool| -> (usize, f64) {
            let t1 = Instant::now();
            spans.push(LocalSpan {
                name,
                start_s: secs(epoch, t0),
                end_s: secs(epoch, t1),
                parent,
                on_path,
            });
            (spans.len() - 1, (t1 - t0).as_secs_f64())
        };
        let cluster = self.dep.service.cluster();
        let key = CacheInfoKey {
            dataset: cluster.dataset().to_string(),
            field: format!("{}/{}", req.raw_field, req.derived.name()),
            timestep: req.timestep,
        };
        let mut session = IoSession::new();
        let pdf_key = match part.kernel {
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => Some(PdfKey::new(key.clone(), origin, width, nbins as u32)),
            _ => None,
        };
        // --- cache probe ------------------------------------------------
        if part.use_cache {
            let t0 = Instant::now();
            match (&part.kernel, &pdf_key) {
                (ScanKernel::Threshold { threshold }, _) => {
                    let hit = me
                        .cache
                        .lookup(&key, &part.query_box, *threshold, &mut session);
                    inner.lookup += span("cache.lookup", t0, None, true).1;
                    if let CacheLookup::Hit(points) = hit {
                        return Ok(NodeOut::Points(points));
                    }
                }
                (ScanKernel::Pdf { .. }, Some(pk)) => {
                    let hit = me.pdf_cache.lookup(pk, &part.query_box, &mut session);
                    inner.lookup += span("cache.lookup", t0, None, true).1;
                    if let PdfLookup::Hit(counts) = hit {
                        return Ok(NodeOut::Counts(counts));
                    }
                }
                _ => {}
            }
        }
        // --- the scan over this node's chunks ---------------------------
        let grid = cluster.grid();
        let (dims, periodic) = (grid.dims(), grid.periodic);
        let halo = req.derived.halo(&self.scheme);
        let layout = cluster.layout();
        let codec = cluster.config().compression;
        let compressed = codec.mode != CompressionMode::Off;
        let mut points: Vec<ThresholdPoint> = Vec::new();
        let mut hist = match part.kernel {
            ScanKernel::Pdf {
                origin,
                width,
                nbins,
            } => Some(Histogram::new(origin, width, nbins)),
            _ => None,
        };
        for chunk in layout.chunks_of_node(me.id) {
            let Some(domain) = chunk.grid_box().intersect(&part.query_box) else {
                continue;
            };
            let t0 = Instant::now();
            let needed = needed_atoms(&domain, halo, dims, periodic);
            let mut by_owner: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for atom in &needed {
                by_owner
                    .entry(layout.fetch_node_for(*atom, me.id))
                    .or_default()
                    .push(atom.zindex());
            }
            inner.assemble += span("cluster.assemble", t0, None, true).1;
            let mut atoms: HashMap<u64, AtomRecord> = HashMap::with_capacity(needed.len());
            for (owner, mut codes) in by_owner {
                codes.sort_unstable();
                let owner_rt = self
                    .peers
                    .get(owner)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| format!("atom owner {owner} is not a live node"))?;
                let misses = session.pool_misses;
                let t0 = Instant::now();
                let records = owner_rt
                    .fetch_atoms(&req.raw_field, req.timestep, &codes, &mut session)
                    .map_err(|e| e.to_string())?;
                let (fetch_id, dt) = span("storage.fetch", t0, None, true);
                inner.fetch += dt;
                // On a compressed archive each pool miss decoded a whole
                // block: decode as many of the fetched planes again. An
                // uncompressed archive decodes no planes on the path; the
                // fetched planes are decoded under the raw codec instead,
                // for reference.
                let planes: Vec<&[f32]> = records
                    .iter()
                    .flat_map(|rec| (0..usize::from(rec.ncomp)).map(|c| rec.plane(c)))
                    .collect();
                let missed = session.pool_misses - misses;
                let n = if compressed {
                    let ncomp = records.first().map_or(1, |r| r.ncomp);
                    let per_block = TARGET_BLOCK_BYTES.div_ceil(AtomRecord::encoded_len(ncomp));
                    missed as usize * per_block * usize::from(ncomp)
                } else {
                    planes.len()
                };
                let encoded: Vec<Vec<u8>> = planes
                    .iter()
                    .cycle()
                    .take(if planes.is_empty() { 0 } else { n })
                    .map(|p| encode_plane(&codec, p).bytes)
                    .collect();
                if !encoded.is_empty() {
                    let t0 = Instant::now();
                    for bytes in &encoded {
                        let plane = decode_plane(bytes, ATOM_POINTS).map_err(|e| e.to_string())?;
                        std::hint::black_box(plane);
                    }
                    let dt = span("compress.decode", t0, Some(fetch_id), compressed).1;
                    inner.decode += dt;
                    if compressed {
                        inner.decode_on_path += dt;
                    }
                }
                let t0 = Instant::now();
                atoms.extend(records.into_iter().map(|rec| (rec.key.zindex, rec)));
                inner.assemble += span("cluster.assemble", t0, None, true).1;
            }
            let t0 = Instant::now();
            let padded = assemble_padded(&domain, halo, dims, periodic, &atoms)
                .map_err(|e| e.to_string())?;
            inner.assemble += span("cluster.assemble", t0, None, true).1;
            let (lx, ly, lz) = domain.lo3();
            let t0 = Instant::now();
            let norm = req.derived.eval(
                &padded,
                &self.scheme,
                [lx as usize, ly as usize, lz as usize],
            );
            inner.derive += span("kernels.derive", t0, None, true).1;
            inner.derived_points += domain.num_points();
            let t0 = Instant::now();
            let mut hits = Vec::new();
            match (&part.kernel, hist.as_mut()) {
                (ScanKernel::Threshold { threshold }, _) => {
                    threshold_scan_clip(&norm, &domain, &domain, *threshold, &mut hits)
                }
                (ScanKernel::TopK, _) => {
                    threshold_scan_clip(&norm, &domain, &domain, f64::NEG_INFINITY, &mut hits)
                }
                (ScanKernel::Pdf { .. }, Some(h)) => pdf_scan_clip(&norm, &domain, &domain, h),
                (ScanKernel::Pdf { .. }, None) => {}
            }
            inner.scan += span("kernels.scan", t0, None, true).1;
            points.extend(
                hits.into_iter()
                    .map(|(zindex, value)| ThresholdPoint { zindex, value }),
            );
        }
        // --- cache fill -------------------------------------------------
        if part.use_cache {
            match (&part.kernel, &pdf_key, &hist) {
                (ScanKernel::Threshold { threshold }, _, _) => {
                    points.sort_unstable_by_key(|p| p.zindex);
                    let t0 = Instant::now();
                    me.cache
                        .insert(&key, part.query_box, *threshold, &points, &mut session);
                    inner.insert += span("cache.insert", t0, None, true).1;
                }
                (ScanKernel::Pdf { .. }, Some(pk), Some(h)) => {
                    let t0 = Instant::now();
                    me.pdf_cache
                        .insert(pk, part.query_box, h.counts().to_vec(), &mut session);
                    inner.insert += span("cache.insert", t0, None, true).1;
                }
                _ => {}
            }
        }
        Ok(match hist {
            Some(h) => NodeOut::Counts(h.counts().to_vec()),
            None => NodeOut::Points(points),
        })
    }

    /// The would-hit probe behind `cache.hit_ms`: `Cluster::get_threshold`
    /// answered from the semantic cache. On workloads that bypass the
    /// cache this is the hit time the same request would see; the entry
    /// it needs is inserted untimed and dropped again afterwards.
    fn cache_hit_probe(&mut self, q: &Query, r: usize) -> Option<f64> {
        let Kind::Threshold { use_cache, .. } = q.kind else {
            return None;
        };
        let cluster = self.dep.service.cluster();
        let mut req = self.cluster_request(q);
        req.use_cache = true;
        if let Err(e) = cluster.get_threshold(&req) {
            self.checked("cache", q, Err(e.to_string()));
            return None;
        }
        let mut times = Vec::new();
        for rep in 0..REPS {
            let t0 = self.now();
            let answer = cluster.get_threshold(&req);
            let t1 = self.now();
            match answer {
                Ok(a) if a.cache_hits == a.nodes => {
                    self.push((r, rep), None, "cache.hit_probe", None, (t0, t1), true);
                    times.push(t1 - t0);
                    let check = self.oracle.check(q, Answer::Points(&a.points));
                    self.checked("cache", q, check);
                }
                Ok(a) => self.checked(
                    "cache",
                    q,
                    Err(format!(
                        "{} of {} nodes hit the cache",
                        a.cache_hits, a.nodes
                    )),
                ),
                Err(e) => self.checked("cache", q, Err(e.to_string())),
            }
        }
        if !use_cache {
            cluster.invalidate_cache_entry(q.key.field, q.key.derived, q.key.timestep);
        }
        (!times.is_empty()).then(|| median(&times))
    }
}

/// The first threshold of an exploration session, which must miss.
fn is_session_miss(q: &Query) -> bool {
    matches!(
        q.kind,
        Kind::Threshold {
            tier: 0,
            region: Region::Full,
            use_cache: true
        }
    )
}

/// Merges per-node answers the way the mediator does: points
/// concatenated (top-k: each node's k best, then the global k best),
/// histograms summed.
fn merge(q: &Query, outs: Vec<NodeOut>) -> NodeOut {
    let mut points = Vec::new();
    let mut counts: Option<Vec<u64>> = None;
    for o in outs {
        match o {
            NodeOut::Points(mut p) => {
                if q.kind == Kind::TopK {
                    p.sort_unstable_by(|a, b| b.value.total_cmp(&a.value));
                    p.truncate(TOPK as usize);
                }
                points.append(&mut p);
            }
            NodeOut::Counts(c) => match counts.as_mut() {
                Some(acc) => acc.iter_mut().zip(&c).for_each(|(a, b)| *a += b),
                None => counts = Some(c),
            },
        }
    }
    if let Some(c) = counts {
        return NodeOut::Counts(c);
    }
    if q.kind == Kind::TopK {
        points.sort_unstable_by(|a, b| b.value.total_cmp(&a.value));
        points.truncate(TOPK as usize);
    }
    NodeOut::Points(points)
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median over repetitions of one figure.
fn med(reps: &[RepFigures], f: impl Fn(&RepFigures) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Replays the workload's sample and derives the per-layer metrics.
/// `loop_p50_s` is the untraced run's median latency; the counters come
/// from the untraced run's metric deltas.
pub fn run(
    dep: &Deployment,
    oracle: &Oracle,
    workload: Workload,
    seed: u64,
    loop_p50_s: f64,
) -> Result<Traced, String> {
    let cluster = dep.service.cluster();
    let nodes = cluster.nodes();
    let mut peers: Vec<Option<Arc<NodeRuntime>>> =
        vec![None; nodes.iter().map(|n| n.id + 1).max().unwrap_or(0)];
    for n in nodes {
        let id = n.id;
        peers[id] = Some(n);
    }
    let mut ctx = Ctx {
        dep,
        oracle,
        workload,
        epoch: Instant::now(),
        spans: Vec::new(),
        checks: 0,
        mismatches: 0,
        mismatch_log: Vec::new(),
        admission: AdmissionQueue::new(AdmissionConfig::default()),
        peers,
        scheme: DiffScheme::new(cluster.grid(), cluster.config().fd_order),
    };
    let mut conn = Conn::connect(dep.addr()).map_err(|e| format!("replay connect: {e}"))?;
    // a stream of its own, so the sample is the same for every run length
    let steps: Vec<Step> = Stream::new(workload, seed ^ 0x7ace, 0)
        .take(workload.spec().replay_steps)
        .collect();
    let mut per_request: Vec<Vec<RepFigures>> = Vec::new();
    let mut hit_probe = Vec::new();
    for step in steps {
        let Step::Send(q) = step else {
            apply_local(&dep.service, &step);
            continue;
        };
        let req_id = per_request.len();
        let mut reps = Vec::new();
        for rep in 0..REPS {
            let r = (req_id, rep);
            let mut f = RepFigures::default();
            ctx.reset(&q);
            let root = ctx.pass_wire(&mut conn, &q, r, &mut f);
            ctx.reset(&q);
            let execute = ctx.pass_server(&q, r, root, &mut f);
            ctx.reset(&q);
            let get = ctx.pass_cluster(&q, r, execute, &mut f);
            ctx.reset(&q);
            let node_ids = ctx.pass_nodes(&q, r, get, &mut f);
            let durations: Vec<f64> = node_ids
                .iter()
                .map(|&id| ctx.spans[id].end_s - ctx.spans[id].start_s)
                .collect();
            ctx.reset(&q);
            ctx.pass_inner(&q, r, &node_ids, &mut f, &durations);
            f.transport = f.round_trip
                - f.request_encode
                - f.response_decode
                - f.request_decode
                - f.admission
                - f.response_encode
                - (f.core + f.mediator + f.node);
            reps.push(f);
        }
        if let Some(t) = ctx.cache_hit_probe(&q, req_id) {
            hit_probe.push(t);
        }
        per_request.push(reps);
    }
    Ok(summarise(ctx, &per_request, &hit_probe, loop_p50_s))
}

fn summarise(
    ctx: Ctx<'_>,
    per_request: &[Vec<RepFigures>],
    hit_probe: &[f64],
    loop_p50_s: f64,
) -> Traced {
    // per request the median over repetitions, then the mean over requests
    let per_req = |f: &dyn Fn(&RepFigures) -> f64| -> f64 {
        mean(
            &per_request
                .iter()
                .map(|reps| med(reps, f))
                .collect::<Vec<_>>(),
        )
    };
    let ms = |f: &dyn Fn(&RepFigures) -> f64| 1e3 * per_req(f);
    let layer_names = RepFigures::default().layers().map(|(n, _)| n);
    let layer_ms: Vec<(&'static str, f64)> = layer_names
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, ms(&|f: &RepFigures| f.layers()[i].1)))
        .collect();
    let attributed: f64 = layer_ms.iter().map(|(_, v)| v).sum();
    let round_trip = ms(&|f: &RepFigures| f.round_trip);
    let dominant = layer_ms
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(n, _)| n);
    let derive_s: f64 = per_request
        .iter()
        .flatten()
        .map(|f| f.derive_all_nodes)
        .sum();
    let derived_pts: u64 = per_request.iter().flatten().map(|f| f.derived_points).sum();
    let first_rep: Vec<f64> = per_request
        .iter()
        .filter_map(|r| r.first())
        .map(|f| f.round_trip)
        .collect();
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("storage.fetch_ms", ms(&|f| f.inner.fetch), "ms"),
        m("compress.decode_ms", ms(&|f| f.inner.decode), "ms"),
        m("kernels.derive_ms", ms(&|f| f.inner.derive), "ms"),
        m("kernels.scan_ms", ms(&|f| f.inner.scan), "ms"),
        m(
            "kernels.derive_mpts_s",
            ratio(derived_pts as f64 / 1e6, derive_s),
            "Mpts/s",
        ),
        m("cluster.assemble_ms", ms(&|f| f.inner.assemble), "ms"),
        m("cluster.node_ms", ms(&|f| f.node), "ms"),
        m("cluster.node_skew", per_req(&|f| f.skew), "ratio"),
        m("cluster.mediator_ms", ms(&|f| f.mediator), "ms"),
        m(
            "cluster.points_merged",
            per_req(&|f| f.points_merged as f64),
            "count",
        ),
        m("cache.hit_ms", 1e3 * mean(hit_probe), "ms"),
        m("wire.request_encode_ms", ms(&|f| f.request_encode), "ms"),
        m("wire.request_decode_ms", ms(&|f| f.request_decode), "ms"),
        m("wire.response_encode_ms", ms(&|f| f.response_encode), "ms"),
        m("wire.response_decode_ms", ms(&|f| f.response_decode), "ms"),
        m("wire.transport_ms", ms(&|f| f.transport), "ms"),
        m(
            "wire.response_bytes",
            per_req(&|f| f.response_bytes as f64),
            "bytes",
        ),
        m("wire.admission_wait_ms", ms(&|f| f.admission), "ms"),
        m("core.service_ms", ms(&|f| f.core), "ms"),
        m("trace.coverage", ratio(attributed, round_trip), "ratio"),
        m(
            "trace.overhead",
            ratio(median(&first_rep), loop_p50_s),
            "ratio",
        ),
    ];
    Traced {
        metrics,
        spans: ctx.spans,
        dominant,
        layer_ms,
        unattributed_ms: ms(&|f| f.unattributed),
        checks: ctx.checks,
        mismatches: ctx.mismatches,
        mismatch_log: ctx.mismatch_log,
    }
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let node = s.node.map_or("null".to_string(), |n| n.to_string());
        writeln!(
            out,
            "{{\"req\":{},\"rep\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"node\":{node},\"start_us\":{:.3},\"end_us\":{:.3},\"on_path\":{}}}",
            s.req,
            s.rep,
            s.id,
            s.name,
            s.start_s * 1e6,
            s.end_s * 1e6,
            s.on_path
        )?;
    }
    out.flush()
}
