//! k-way replication consistency: a replicated cluster under node faults
//! answers every threshold/PDF/top-k query *byte-identically* to a
//! healthy unreplicated cluster — the fault seeds that degrade a k=1
//! answer come back complete at k≥2 — and node join/leave rebalancing
//! preserves answers across topology generations.

use std::sync::Arc;

use proptest::prelude::*;
use tdb_cluster::{ClusterConfig, PlacementMode, ReplicationConfig};
use tdb_core::{
    DerivedField, QueryLimits, ServiceConfig, ThresholdPoint, ThresholdQuery, TurbulenceService,
};
use tdb_storage::FaultPlan;
use tdb_turbgen::SyntheticDataset;
use tdb_zorder::Box3;

fn curl_query() -> ThresholdQuery {
    ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 25.0)
}

/// Bit-exact, order-independent view of a threshold answer.
fn point_bits(points: &[ThresholdPoint]) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = points
        .iter()
        .map(|p| (p.zindex, p.value.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Bit-exact, order-*sensitive* view (top-k answers are ranked).
fn ranked_bits(points: &[ThresholdPoint]) -> Vec<(u64, u32)> {
    points
        .iter()
        .map(|p| (p.zindex, p.value.to_bits()))
        .collect()
}

/// Every query family the mediator assembles, evaluated cold (caches
/// bypassed so the scan path — and any failover — actually runs), plus
/// the degraded flags: the full byte-level answer surface to compare.
#[derive(Debug, PartialEq)]
struct AnswerSurface {
    threshold: Vec<(u64, u32)>,
    threshold_degraded: bool,
    subbox: Vec<(u64, u32)>,
    pdf_counts: Vec<u64>,
    pdf_degraded: bool,
    topk: Vec<(u64, u32)>,
    topk_degraded: bool,
}

fn answer_surface(service: &TurbulenceService) -> AnswerSurface {
    let q = curl_query().without_cache();
    let t = service.get_threshold(&q).expect("threshold answer");
    let mut sub = curl_query().without_cache();
    sub.threshold = 15.0;
    sub.query_box = Some(Box3::new([4, 2, 6], [27, 25, 19]));
    let s = service.get_threshold(&sub).expect("sub-box answer");
    let pq =
        ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0).without_cache();
    let p = service.get_pdf(&pq, 0.0, 5.0, 16).expect("pdf answer");
    let k = service.get_topk(&pq, 20).expect("top-k answer");
    AnswerSurface {
        threshold: point_bits(&t.points),
        threshold_degraded: t.degraded.is_some(),
        subbox: point_bits(&s.points),
        pdf_counts: p.histogram.counts().to_vec(),
        pdf_degraded: p.degraded.is_some(),
        topk: ranked_bits(&k.points),
        topk_degraded: k.degraded.is_some(),
    }
}

/// A service over `nodes` database nodes with the given replication
/// config, optional fault plan, and failure policy.
fn build_replicated(
    tag: &str,
    nodes: usize,
    replication: ReplicationConfig,
    plan: Option<Arc<FaultPlan>>,
    strict: bool,
) -> TurbulenceService {
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(32, 1, 0xdead),
        cluster: ClusterConfig {
            num_nodes: nodes,
            procs_per_node: 2,
            arrays_per_node: 2,
            chunk_atoms: 2,
            replication,
            faults: plan,
            ..ClusterConfig::default()
        },
        limits: QueryLimits {
            strict,
            ..Default::default()
        },
        data_dir: tdb_bench::scratch_dir(tag),
    };
    TurbulenceService::build(config).expect("build")
}

/// The acceptance scenario: the PR-3 fault seed that produces a
/// `DegradedInfo` partial answer at k=1 comes back *complete* at k=2,
/// byte-identical to an unfaulted single-copy run, across threshold,
/// sub-box threshold, PDF, and top-k queries.
#[test]
fn failover_returns_byte_identical_complete_answers() {
    let plan = FaultPlan::new(FaultPlan::seed_from_env(0x7411)).shared();
    let replicated = build_replicated(
        "repl_failover",
        2,
        ReplicationConfig::k(2),
        Some(Arc::clone(&plan)),
        false,
    );
    let clean = build_replicated(
        "repl_failover_ref",
        2,
        ReplicationConfig::default(),
        None,
        false,
    );
    let reference = answer_surface(&clean);
    assert!(
        !reference.threshold_degraded && !reference.pdf_degraded && !reference.topk_degraded,
        "reference run must be complete"
    );
    // healthy k=2 is already byte-identical to k=1
    assert_eq!(answer_surface(&replicated), reference);

    // kill node 1 — at k=1 this seed degrades the answer (see
    // failure_injection::killed_node_yields_degraded_answer_with_exact_missing_boxes);
    // at k=2 every chunk still has a live replica, so the answer is
    // complete and byte-identical
    let before = replicated.metrics_snapshot();
    plan.set_node_down(1, true);
    replicated.cluster().clear_buffer_pools();
    assert_eq!(answer_surface(&replicated), reference);
    assert!(plan.counts().node_down > 0, "the down node must be probed");

    // process-wide counters are shared across tests: deltas are lower
    // bounds, but this service's failovers alone must register
    let after = replicated.metrics_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert!(delta("replication.failover.rounds") >= 1);
    assert!(delta("replication.failover.chunks") >= 1);
    assert_eq!(delta("replication.lost_chunks"), 0);

    // reviving the node restores the canonical scatter, still identical
    plan.set_node_down(1, false);
    replicated.cluster().clear_buffer_pools();
    assert_eq!(answer_surface(&replicated), reference);
}

#[test]
fn strict_mode_completes_at_k2_where_k1_fails() {
    let plan = FaultPlan::new(2).shared();
    let strict = build_replicated(
        "repl_strict",
        2,
        ReplicationConfig::k(2),
        Some(Arc::clone(&plan)),
        true,
    );
    let clean = build_replicated(
        "repl_strict_ref",
        2,
        ReplicationConfig::default(),
        None,
        false,
    );
    plan.set_node_down(0, true);
    // failure_injection::strict_mode_fails_loudly_when_a_node_is_down
    // pins the k=1 behaviour for this seed; with a replica the strict
    // query must instead succeed, complete and byte-identical
    let q = curl_query().without_cache();
    let r = strict
        .get_threshold(&q)
        .expect("strict query with replicas");
    assert!(r.degraded.is_none(), "failover must fill the gap");
    let reference = clean.get_threshold(&q).expect("reference");
    assert_eq!(point_bits(&r.points), point_bits(&reference.points));
}

/// A chunk whose every copy is down is lost even at k=2, and the report
/// is ordered as unreplicated: by the failed node that lost a chunk (here
/// its primary), then z-order — not plain z-order across the two nodes.
#[test]
fn lost_chunks_at_k2_are_reported_in_node_order() {
    let plan = FaultPlan::new(4).shared();
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(32, 1, 0xdead),
        cluster: ClusterConfig {
            num_nodes: 4,
            procs_per_node: 2,
            arrays_per_node: 2,
            // 64 chunks, so some have both copies on nodes 1 and 3
            chunk_atoms: 1,
            replication: ReplicationConfig {
                k: 2,
                placement: PlacementMode::Rendezvous,
                ..ReplicationConfig::default()
            },
            faults: Some(Arc::clone(&plan)),
            ..ClusterConfig::default()
        },
        limits: QueryLimits::default(),
        data_dir: tdb_bench::scratch_dir("repl_two_down"),
    };
    let service = TurbulenceService::build(config).expect("build");
    plan.set_node_down(3, true);
    plan.set_node_down(1, true);
    let r = service
        .get_threshold(&curl_query().without_cache())
        .expect("must degrade, not fail");
    let degraded = r.degraded.expect("chunks without a live copy are lost");
    let failed: Vec<usize> = degraded.failed_nodes.iter().map(|f| f.node).collect();
    assert_eq!(failed, vec![1, 3]);
    let layout = service.cluster().layout();
    let lost: Vec<usize> = [1, 3]
        .iter()
        .flat_map(|&n| layout.chunk_indices_of_node(n))
        .filter(|&c| {
            layout
                .replicas_of_chunk(c)
                .iter()
                .all(|r| [1, 3].contains(r))
        })
        .collect();
    let boxes = |idxs: &[usize]| -> Vec<Box3> {
        idxs.iter()
            .map(|&c| layout.chunks()[c].grid_box())
            .collect()
    };
    let mut z_order = lost.clone();
    z_order.sort_unstable();
    assert_ne!(lost, z_order, "the two nodes' lost chunks must interleave");
    assert_eq!(degraded.missing_boxes, boxes(&lost));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// Random topology (node count, replication factor, placement),
    /// random fault seed and victim, random query mix: the faulted k≥2
    /// cluster answers byte-identically to the healthy k=1 cluster.
    #[test]
    fn prop_faulted_replicated_cluster_matches_healthy(
        nodes in 2usize..=4,
        k in 2usize..=3,
        rendezvous in any::<bool>(),
        seed in 1u64..1000,
        victim in 0usize..4,
        threshold in prop_oneof![Just(15.0f64), Just(25.0), Just(40.0)],
    ) {
        let k = k.min(nodes);
        let victim = victim % nodes;
        let placement = if rendezvous {
            PlacementMode::Rendezvous
        } else {
            PlacementMode::Contiguous
        };
        let replication = ReplicationConfig {
            k,
            placement,
            ..ReplicationConfig::default()
        };
        let tag = format!("repl_prop_{nodes}_{k}_{rendezvous}_{seed}_{victim}");
        let plan = FaultPlan::new(seed).shared();
        let faulted =
            build_replicated(&tag, nodes, replication, Some(Arc::clone(&plan)), false);
        let clean = build_replicated(
            &format!("{tag}_ref"),
            nodes,
            ReplicationConfig::default(),
            None,
            false,
        );
        plan.set_node_down(victim, true);
        faulted.cluster().clear_buffer_pools();

        let mut q = curl_query().without_cache();
        q.threshold = threshold;
        let a = faulted.get_threshold(&q).expect("faulted threshold");
        let b = clean.get_threshold(&q).expect("clean threshold");
        prop_assert!(a.degraded.is_none(), "k>=2 must absorb one dead node");
        prop_assert_eq!(point_bits(&a.points), point_bits(&b.points));

        let pq = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0)
            .without_cache();
        let pa = faulted.get_pdf(&pq, 0.0, 5.0, 16).expect("faulted pdf");
        let pb = clean.get_pdf(&pq, 0.0, 5.0, 16).expect("clean pdf");
        prop_assert!(pa.degraded.is_none());
        prop_assert_eq!(pa.histogram.counts(), pb.histogram.counts());

        let ka = faulted.get_topk(&pq, 12).expect("faulted topk");
        let kb = clean.get_topk(&pq, 12).expect("clean topk");
        prop_assert!(ka.degraded.is_none());
        prop_assert_eq!(ranked_bits(&ka.points), ranked_bits(&kb.points));
    }
}

/// Node join and leave under a live workload: answers before, between
/// and after membership changes stay byte-identical to a fixed healthy
/// reference, movement is bounded to the chunks the new topology
/// actually re-homes, and failover still works on the rebuilt topology.
#[test]
fn rebalance_preserves_answers_across_join_and_leave() {
    let plan = FaultPlan::new(3).shared();
    let replicated = build_replicated(
        "repl_rebalance",
        3,
        ReplicationConfig {
            spare_nodes: 1,
            ..ReplicationConfig::rendezvous(2)
        },
        Some(Arc::clone(&plan)),
        false,
    );
    let clean = build_replicated(
        "repl_rebalance_ref",
        3,
        ReplicationConfig::default(),
        None,
        false,
    );
    let reference = answer_surface(&clean);
    assert_eq!(answer_surface(&replicated), reference);

    let before = replicated.metrics_snapshot();
    let old_layout = replicated.cluster().layout();
    let total_chunks = old_layout.chunks().len();

    // join the pre-racked spare: node 3 appears, answers unchanged
    let report = replicated.cluster().join_node().expect("join");
    assert_eq!(report.node, 3);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.live_nodes, 4);
    let new_layout = replicated.cluster().layout();
    let gained = (0..new_layout.chunks().len())
        .filter(|&c| new_layout.replicas_of_chunk(c).contains(&3))
        .count();
    assert_eq!(
        report.chunks_moved, gained,
        "a join moves exactly the chunks the new node stores"
    );
    assert!(report.chunks_moved > 0);
    assert!(
        report.chunks_moved < total_chunks * 2,
        "movement must be a fraction of all replicas, not a reshuffle"
    );
    assert!(report.atoms_copied > 0);
    assert_eq!(answer_surface(&replicated), reference);

    // retire node 1 mid-workload: survivors absorb its chunks
    let report = replicated.cluster().leave_node(1).expect("leave");
    assert_eq!(report.epoch, 2);
    assert_eq!(report.live_nodes, 3);
    assert!(report.chunks_moved > 0, "the departed node held replicas");
    assert_eq!(answer_surface(&replicated), reference);
    assert_eq!(
        replicated.cluster().live_node_ids(),
        vec![0, 2, 3],
        "node ids are stable across membership changes"
    );

    // a retired node is gone: retiring it again is a typed error
    assert!(replicated.cluster().leave_node(1).is_err());

    // failover still functions on the post-rebalance topology
    plan.set_node_down(2, true);
    replicated.cluster().clear_buffer_pools();
    assert_eq!(answer_surface(&replicated), reference);
    plan.set_node_down(2, false);

    let after = replicated.metrics_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert!(delta("replication.rebalance.joins") >= 1);
    assert!(delta("replication.rebalance.leaves") >= 1);
    assert!(delta("replication.rebalance.chunks_moved") >= 2);
    assert!(delta("replication.rebalance.atoms_copied") >= 1);
}

/// Guard rails: invalid membership changes are typed errors, not panics
/// or silent misconfigurations.
#[test]
fn rebalance_rejects_invalid_membership_changes() {
    // contiguous placement cannot rebalance
    let contiguous = build_replicated("repl_guard_contig", 2, ReplicationConfig::k(2), None, false);
    assert!(contiguous.cluster().join_node().is_err());
    assert!(contiguous.cluster().leave_node(0).is_err());

    // no spares racked: join refuses; shrinking below k refuses
    let no_spare = build_replicated(
        "repl_guard_spare",
        2,
        ReplicationConfig::rendezvous(2),
        None,
        false,
    );
    assert!(no_spare.cluster().join_node().is_err());
    assert!(
        no_spare.cluster().leave_node(0).is_err(),
        "2 nodes at k=2 cannot lose one"
    );
    assert!(no_spare.cluster().leave_node(7).is_err(), "unknown node");
}
