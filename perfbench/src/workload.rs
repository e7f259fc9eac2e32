//! The three workloads: archive shape, cluster sizing and the seeded
//! closed-loop request streams.

use tdb_cluster::{ClusterConfig, CompressionConfig};
use tdb_kernels::DerivedField;
use tdb_zorder::Box3;

use crate::stats::Rng;

/// Grid edge of every archive.
pub const GRID: u32 = 64;
/// Raw fields the queries read (the MHD archive also stores pressure).
pub const FIELDS: [&str; 2] = ["velocity", "magnetic"];
/// `k` of every `GetTopK`.
pub const TOPK: u32 = 100;
/// Bins of every `GetPdf`, spread over the field's [min, max].
pub const PDF_BINS: u32 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Larger-than-pool archive: cold scans through storage + codec.
    ColdScan,
    /// In-memory archive, cache bypassed: stencil kernels + cluster.
    WarmDerived,
    /// The exploration loop over the semantic cache, two clients.
    ExploreCached,
}

/// Archive, cluster and load shape of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub timesteps: u32,
    pub compression: CompressionConfig,
    /// Buffer pool per node, bytes.
    pub bufferpool_bytes: usize,
    /// Closed-loop client connections (and threads).
    pub connections: usize,
    pub derived: &'static [DerivedField],
    /// Selectivity tiers: the share of grid points a threshold passes.
    pub tiers: &'static [f64],
    /// Requests of the traced replay (whole sessions on `explore_cached`).
    pub replay_steps: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdScan,
        Workload::WarmDerived,
        Workload::ExploreCached,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold_scan",
            Workload::WarmDerived => "warm_derived",
            Workload::ExploreCached => "explore_cached",
        }
    }

    /// The layer the workload is built to load (checked by the trace).
    pub fn predicted_layer(self) -> &'static [&'static str] {
        match self {
            Workload::ColdScan => &["storage", "compress"],
            Workload::WarmDerived => &["kernels", "cluster"],
            Workload::ExploreCached => &["cache", "wire"],
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::ColdScan => Spec {
                timesteps: 8,
                compression: CompressionConfig::lossless(),
                bufferpool_bytes: 2 << 20,
                connections: 1,
                derived: &[DerivedField::Norm, DerivedField::CurlNorm],
                tiers: &[8.5e-4],
                replay_steps: 12,
            },
            Workload::WarmDerived => Spec {
                timesteps: 4,
                compression: CompressionConfig::default(),
                bufferpool_bytes: ClusterConfig::default().bufferpool_bytes,
                connections: 1,
                derived: &[DerivedField::CurlNorm, DerivedField::QCriterion],
                tiers: &[8.5e-4, 8.1e-5, 4e-6],
                replay_steps: 16,
            },
            Workload::ExploreCached => Spec {
                timesteps: 4,
                compression: CompressionConfig::default(),
                bufferpool_bytes: ClusterConfig::default().bufferpool_bytes,
                connections: 2,
                derived: &[DerivedField::CurlNorm, DerivedField::QCriterion],
                tiers: &[5e-2, 1e-2, 3e-3, 8.5e-4, 8.1e-5],
                replay_steps: 2 * SESSION_LEN,
            },
        }
    }

    /// The fixed cluster shape: one worker per core per query.
    pub fn cluster_config(self) -> ClusterConfig {
        let spec = self.spec();
        ClusterConfig {
            num_nodes: 2,
            procs_per_node: 1,
            arrays_per_node: 2,
            chunk_atoms: 2,
            bufferpool_bytes: spec.bufferpool_bytes,
            compression: spec.compression,
            ..ClusterConfig::default()
        }
    }
}

/// One (raw field, derived field, timestep) — the semantic-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub field: &'static str,
    pub derived: DerivedField,
    pub timestep: u32,
}

/// Every key of a workload, in a fixed order.
pub fn keys(spec: &Spec) -> Vec<Key> {
    let mut out = Vec::new();
    for timestep in 0..spec.timesteps {
        for field in FIELDS {
            for &derived in spec.derived {
                out.push(Key {
                    field,
                    derived,
                    timestep,
                });
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    Full,
    /// The low octant `[0, 32)³`.
    Octant,
    /// The upper half along z.
    HalfBox,
}

impl Region {
    /// The query box; `None` is the whole timestep.
    pub fn query_box(self) -> Option<Box3> {
        let (h, n) = (GRID / 2, GRID - 1);
        match self {
            Region::Full => None,
            Region::Octant => Some(Box3::new([0, 0, 0], [h - 1, h - 1, h - 1])),
            Region::HalfBox => Some(Box3::new([0, 0, h], [n, n, n])),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `GetThreshold` at selectivity tier `tier` of the workload.
    Threshold {
        tier: usize,
        region: Region,
        use_cache: bool,
    },
    Pdf,
    TopK,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    pub key: Key,
    pub kind: Kind,
}

impl Query {
    /// Label for per-kind latency figures, e.g. `threshold/curl_norm/t1/octant`.
    pub fn label(&self) -> String {
        let d = self.key.derived.name();
        match self.kind {
            Kind::Threshold { tier, region, .. } => {
                format!("threshold/{d}/t{tier}/{region:?}").to_lowercase()
            }
            Kind::Pdf => format!("pdf/{d}"),
            Kind::TopK => format!("topk/{d}"),
        }
    }
}

/// What a client does next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Drop the key's semantic-cache entries (untimed, in process).
    Invalidate(Key),
    Send(Query),
}

/// Steps of one `explore_cached` session.
pub const SESSION_LEN: usize = 9;

fn session(key: Key) -> [Step; SESSION_LEN] {
    let thr = |tier, region| {
        Step::Send(Query {
            key,
            kind: Kind::Threshold {
                tier,
                region,
                use_cache: true,
            },
        })
    };
    [
        Step::Invalidate(key),
        Step::Send(Query {
            key,
            kind: Kind::Pdf,
        }),
        // 5e-2 misses and inserts; the follow-ups are served from it
        thr(0, Region::Full),
        thr(1, Region::Full),
        thr(2, Region::Full),
        thr(3, Region::Full),
        thr(4, Region::Full),
        thr(3, Region::Octant),
        thr(3, Region::HalfBox),
    ]
}

/// The endless, seeded request stream of one client connection.
pub struct Stream {
    workload: Workload,
    spec: Spec,
    /// The keys this connection may touch.
    keys: Vec<Key>,
    rng: Rng,
    n: u64,
    pending: std::collections::VecDeque<Step>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Stream {
        let spec = workload.spec();
        let all = keys(&spec);
        // explore_cached clients own disjoint halves of the keys
        let keys = if workload == Workload::ExploreCached {
            all.into_iter()
                .enumerate()
                .filter(|(i, _)| i % spec.connections == conn)
                .map(|(_, k)| k)
                .collect()
        } else {
            all
        };
        Stream {
            workload,
            spec,
            keys,
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64)),
            n: 0,
            pending: Default::default(),
        }
    }

    /// A seeded random field and timestep.
    fn random_key(&mut self, derived: DerivedField) -> Key {
        let field = FIELDS[self.rng.below(FIELDS.len())];
        let timestep = self.rng.below(self.spec.timesteps as usize) as u32;
        Key {
            field,
            derived,
            timestep,
        }
    }
}

impl Iterator for Stream {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let i = self.n;
        self.n += 1;
        let step = match self.workload {
            // two raw scans in three, one curl
            Workload::ColdScan => {
                let derived = if i % 3 == 2 {
                    DerivedField::CurlNorm
                } else {
                    DerivedField::Norm
                };
                Step::Send(Query {
                    key: self.random_key(derived),
                    kind: Kind::Threshold {
                        tier: 0,
                        region: Region::Full,
                        use_cache: false,
                    },
                })
            }
            // one request in four is a top-k; the thresholds cycle through
            // every (tier, derived field) pair, so each run has the same mix
            Workload::WarmDerived => {
                let (derived, tiers) = (self.spec.derived, self.spec.tiers.len());
                let block = (i / 4) as usize;
                let (derived, kind) = if i % 4 == 3 {
                    (derived[block % derived.len()], Kind::TopK)
                } else {
                    let j = block * 3 + (i % 4) as usize;
                    let kind = Kind::Threshold {
                        tier: j % tiers,
                        region: Region::Full,
                        use_cache: false,
                    };
                    (derived[(j / tiers) % derived.len()], kind)
                };
                Step::Send(Query {
                    key: self.random_key(derived),
                    kind,
                })
            }
            Workload::ExploreCached => {
                if self.pending.is_empty() {
                    let key = self.keys[self.rng.below(self.keys.len())];
                    self.pending.extend(session(key));
                }
                self.pending.pop_front()?
            }
        };
        Some(step)
    }
}
