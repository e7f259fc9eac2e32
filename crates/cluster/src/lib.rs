//! Distributed data-parallel evaluation over a simulated database cluster.
//!
//! Mirrors the JHTDB runtime (paper Figs. 1 & 5): a mediator splits every
//! query by the spatial layout of the data, submits the parts
//! asynchronously to the database nodes that own them, and assembles the
//! results. Each node evaluates its part with `P` worker processes over a
//! queue of fixed-size *chunks* (cubes of atoms), requesting only a
//! kernel-half-width band of halo data from adjacent nodes.
//!
//! The cluster is simulated in-process: nodes are threaded runtimes with
//! private storage ([`tdb_storage`]) and a private semantic cache
//! ([`tdb_cache`]); disks and links are device models; per-query I/O and
//! network time are derived from the *actual* access pattern by a
//! closed-form node-time model ([`sim`]), while compute and cache
//! lookups are measured wall-clock (DESIGN.md §4).

pub mod assemble;
pub mod config;
pub mod cputime;
pub mod mediator;
pub mod node;
pub mod placement;
pub mod rebalance;
pub mod scan;
pub mod scheduler;
pub mod sim;
pub mod timing;
pub mod wire;

pub use config::{ClusterConfig, CoalesceConfig, ReplicationConfig};
pub use mediator::{
    BatchAnswer, BatchQuery, Cluster, ClusterBuilder, DegradedInfo, FailedNode, PdfResponse,
    ThresholdResponse, TopKResponse,
};
pub use node::{QueryMode, ThresholdSubquery};
pub use placement::{Chunk, Layout, PlacementMode};
pub use rebalance::RebalanceReport;
pub use scan::{ScanAssignment, ScanKernel, ScanParticipant, SharedOutcome, SharedScanRequest};
pub use sim::NodeTimeModel;
pub use tdb_storage::{CompressionConfig, CompressionMode};
pub use timing::TimeBreakdown;
