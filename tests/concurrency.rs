//! Deterministic concurrency suite: shared-scan coalescing, the mediator
//! scan scheduler, and wire-level admission control.
//!
//! Metric-delta assertions read process-wide counters, so every test in
//! this binary that evaluates queries holds [`METRICS`] for its whole
//! body. The suite is then correct under `--test-threads=1` and under
//! the default parallel runner alike (CI runs both).

use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;
use tdb_bench::{test_service, test_service_with};
use tdb_cluster::mediator::{ThresholdRequest, ThresholdResponse};
use tdb_cluster::{BatchAnswer, BatchQuery, Cluster, CoalesceConfig, ReplicationConfig};
use tdb_core::{Box3, DerivedField, QueryMode, ThresholdPoint, ThresholdQuery, TurbulenceService};
use tdb_storage::{FaultPlan, FaultRule};
use tdb_wire::admission::AdmissionConfig;
use tdb_wire::client::ClientError;
use tdb_wire::server::{Server, ServerConfig};

static METRICS: Mutex<()> = Mutex::new(());

fn metrics_lock() -> MutexGuard<'static, ()> {
    // a panicking test must not wedge the rest of the suite
    METRICS.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    tdb_obs::global().snapshot().counter(name)
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

fn curl_query(threshold: f64) -> ThresholdQuery {
    ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold)
}

/// The PR's acceptance criterion: four concurrent identical queries
/// through the coalesced path decode at least 2x fewer atoms than four
/// independent evaluations, with byte-identical results.
#[test]
fn coalesced_batch_halves_atom_decodes_with_identical_answers() {
    let _g = metrics_lock();
    let service = test_service("conc_accept", 64, 1, 4);
    let q = curl_query(25.0).without_cache();

    // baseline: four independent sequential evaluations
    service.cluster().clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let mut sequential = Vec::new();
    for _ in 0..4 {
        sequential.push(service.get_threshold(&q).unwrap());
    }
    let independent_atoms = counter("node.atoms_scanned") - before;

    // the same four queries as one coalesced batch
    service.cluster().clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let saved_before = counter("scan.atoms_saved");
    let batch = service.get_threshold_batch(&vec![q; 4]);
    let shared_atoms = counter("node.atoms_scanned") - before;

    let reference = point_bits(&sequential[0].points);
    assert!(!reference.is_empty(), "threshold must select some points");
    for r in &sequential {
        assert_eq!(point_bits(&r.points), reference);
    }
    for r in batch {
        let r = r.expect("batched query must succeed");
        assert_eq!(
            point_bits(&r.points),
            reference,
            "coalesced answers must be byte-identical to independent ones"
        );
    }
    assert!(
        shared_atoms > 0,
        "the shared scan still decodes every atom once"
    );
    assert!(
        shared_atoms * 2 <= independent_atoms,
        "coalescing must at least halve atom decodes: shared {shared_atoms} vs independent {independent_atoms}"
    );
    assert!(
        counter("scan.atoms_saved") > saved_before,
        "the scheduler must account its savings"
    );
}

/// The scan scheduler: four threads admitted inside one coalescing
/// window become exactly one batch, and each gets the answer it would
/// have received alone.
#[test]
fn scheduler_coalesces_concurrent_identical_queries() {
    let _g = metrics_lock();
    let service = Arc::new(test_service_with("conc_sched", 32, 1, 2, |c| {
        // a window far above thread-startup jitter plus a batch cap equal
        // to the thread count makes the grouping deterministic: the batch
        // closes the moment the fourth query joins, never by timeout
        c.coalesce = Some(CoalesceConfig {
            window_ms: 2000,
            max_batch: 4,
        });
    }));
    let q = curl_query(25.0).without_cache();
    // reference through the direct batch path, which bypasses the
    // scheduler (no 2 s window wait for a solo query)
    let reference = point_bits(
        &service.get_threshold_batch(std::slice::from_ref(&q))[0]
            .as_ref()
            .expect("reference query")
            .points,
    );

    let batches_before = counter("scheduler.batches");
    let coalesced_before = counter("scheduler.coalesced");
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let q = q.clone();
            std::thread::spawn(move || {
                barrier.wait();
                service.get_threshold(&q).unwrap()
            })
        })
        .collect();
    for h in handles {
        let r = h.join().unwrap();
        assert_eq!(point_bits(&r.points), reference);
    }
    assert_eq!(
        counter("scheduler.batches") - batches_before,
        1,
        "all four queries must land in one batch"
    );
    assert_eq!(counter("scheduler.coalesced") - coalesced_before, 3);
}

/// Threshold, PDF and top-k queries over the same (field, derived,
/// timestep) share one scan and still answer exactly like independent
/// evaluations.
#[test]
fn mixed_query_kinds_share_one_scan() {
    let _g = metrics_lock();
    let service = test_service("conc_mixed", 32, 1, 2);
    let cluster = service.cluster();
    let req = ThresholdRequest {
        raw_field: "velocity".into(),
        derived: DerivedField::CurlNorm,
        timestep: 0,
        query_box: Box3::grid(32, 32, 32),
        threshold: 25.0,
        use_cache: false,
        mode: QueryMode::Full,
        procs_override: None,
        strict: false,
        node_deadline_s: None,
    };

    cluster.clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let t_ref = cluster.get_threshold(&req).unwrap();
    let pdf_ref = cluster.get_pdf(&req, 0.0, 10.0, 9).unwrap();
    let topk_ref = cluster.get_topk(&req, 5).unwrap();
    let independent_atoms = counter("node.atoms_scanned") - before;

    cluster.clear_buffer_pools();
    let before = counter("node.atoms_scanned");
    let answers = cluster.run_batch(vec![
        BatchQuery::Threshold(req.clone()),
        BatchQuery::Pdf {
            req: req.clone(),
            origin: 0.0,
            width: 10.0,
            nbins: 9,
        },
        BatchQuery::TopK { req, k: 5 },
    ]);
    let shared_atoms = counter("node.atoms_scanned") - before;

    let mut answers = answers.into_iter();
    match answers.next().unwrap().unwrap() {
        BatchAnswer::Threshold(t) => {
            assert_eq!(point_bits(&t.points), point_bits(&t_ref.points))
        }
        other => panic!("expected a threshold answer, got {other:?}"),
    }
    match answers.next().unwrap().unwrap() {
        BatchAnswer::Pdf(p) => {
            assert_eq!(p.histogram.counts(), pdf_ref.histogram.counts())
        }
        other => panic!("expected a pdf answer, got {other:?}"),
    }
    match answers.next().unwrap().unwrap() {
        BatchAnswer::TopK(t) => {
            assert_eq!(point_bits(&t.points), point_bits(&topk_ref.points))
        }
        other => panic!("expected a top-k answer, got {other:?}"),
    }
    assert!(
        shared_atoms * 2 <= independent_atoms,
        "three kernels over one scan: shared {shared_atoms} vs independent {independent_atoms}"
    );
}

/// Unreplicated, a node deadline is judged per participant of a shared
/// scan: in one coalesced batch a warm cache hit keeps every node while
/// a cache-bypassing scan loses the nodes whose modelled time blew the
/// deadline — each answer, degradation report included, exactly what
/// that query gets alone.
#[test]
fn coalesced_deadline_is_judged_per_participant() {
    let _g = metrics_lock();
    // a synthetic compute rate makes every scanning node's modelled time
    // deterministic and far past the deadline, while a cache probe stays
    // far below it; pools stay warm, so no disk read adds noise
    let service = test_service_with("conc_deadline", 32, 1, 2, |c| {
        c.synthetic_compute_s_per_point = Some(1e-3);
    });
    let cluster = service.cluster();
    let hit = ThresholdRequest {
        raw_field: "velocity".into(),
        derived: DerivedField::CurlNorm,
        timestep: 0,
        query_box: Box3::grid(32, 32, 32),
        threshold: 25.0,
        use_cache: true,
        mode: QueryMode::Full,
        procs_override: None,
        strict: false,
        node_deadline_s: Some(1.0),
    };
    let scan = ThresholdRequest {
        threshold: 20.0,
        use_cache: false,
        ..hit.clone()
    };
    // the warming scan misses the deadline but still fills every cache
    cluster.get_threshold(&hit).expect("warming query");
    let hit_alone = cluster.get_threshold(&hit).expect("warm query alone");
    assert_eq!(hit_alone.cache_hits, hit_alone.nodes);
    assert!(hit_alone.degraded.is_none());
    let scan_alone = cluster.get_threshold(&scan).expect("scan alone");
    assert!(
        scan_alone.degraded.is_some(),
        "the scan must blow the deadline"
    );

    assert_coalesced_equals_alone(cluster, [(hit, hit_alone), (scan, scan_alone)]);
}

/// Replicated, a slow node whose only replica is down is judged per
/// participant too, whichever of the two has the lower id: in a
/// coalesced batch the warm cache hit keeps the slow node's own chunks,
/// exactly as when it runs alone.
#[test]
fn coalesced_deadline_with_a_dead_replica_is_judged_per_participant() {
    let _g = metrics_lock();
    for dead in [1, 0] {
        let plan = FaultPlan::new(3).shared();
        let service = test_service_with(&format!("conc_deadline_k2_{dead}"), 32, 1, 2, |c| {
            c.synthetic_compute_s_per_point = Some(1e-3);
            c.replication = ReplicationConfig::k(2);
            c.faults = Some(Arc::clone(&plan));
        });
        let cluster = service.cluster();
        let hit = ThresholdRequest {
            raw_field: "velocity".into(),
            derived: DerivedField::CurlNorm,
            timestep: 0,
            query_box: Box3::grid(32, 32, 32),
            threshold: 25.0,
            use_cache: true,
            mode: QueryMode::Full,
            procs_override: None,
            strict: false,
            node_deadline_s: Some(1.0),
        };
        let scan = ThresholdRequest {
            threshold: 20.0,
            use_cache: false,
            ..hit.clone()
        };
        // warm every cache and pool with both nodes up, then kill one
        cluster.get_threshold(&hit).expect("warming query");
        cluster.get_threshold(&scan).expect("warming scan");
        plan.set_node_down(dead, true);
        cluster.get_threshold(&hit).expect("warming failover");
        let hit_alone = cluster.get_threshold(&hit).expect("warm query alone");
        assert_eq!(hit_alone.cache_hits, 1, "the slow node's own chunks hit");
        let scan_alone = cluster.get_threshold(&scan).expect("scan alone");
        assert_eq!(scan_alone.cache_hits, 0);
        assert!(scan_alone.degraded.is_some(), "the scan loses both nodes");
        assert_coalesced_equals_alone(cluster, [(hit, hit_alone), (scan, scan_alone)]);
    }
}

/// Runs the requests as one coalesced batch and demands that each answer,
/// degradation report included, equal the one the request got alone.
fn assert_coalesced_equals_alone(
    cluster: &Cluster,
    runs: [(ThresholdRequest, ThresholdResponse); 2],
) {
    let (requests, alone): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    let answers = cluster.run_batch(requests.into_iter().map(BatchQuery::Threshold).collect());
    for (answer, alone) in answers.into_iter().zip(alone) {
        match answer.unwrap() {
            BatchAnswer::Threshold(t) => {
                assert_eq!(point_bits(&t.points), point_bits(&alone.points));
                assert_eq!(t.cache_hits, alone.cache_hits);
                assert_eq!(t.degraded, alone.degraded);
            }
            other => panic!("expected a threshold answer, got {other:?}"),
        }
    }
}

fn prop_service() -> &'static TurbulenceService {
    static S: OnceLock<TurbulenceService> = OnceLock::new();
    S.get_or_init(|| test_service("conc_prop", 32, 1, 2))
}

fn faulted_service() -> &'static TurbulenceService {
    static S: OnceLock<TurbulenceService> = OnceLock::new();
    S.get_or_init(|| {
        let seed = FaultPlan::seed_from_env(0x7411);
        let plan = FaultPlan::new(seed)
            .with_rule(FaultRule::transient_reads(0.2))
            .shared();
        test_service_with("conc_prop_faults", 32, 1, 2, move |c| {
            c.faults = Some(plan);
        })
    })
}

/// Runs each query alone, then the whole set as one coalesced batch, and
/// demands slot-by-slot byte-identical answers.
fn assert_batch_equals_sequential(service: &TurbulenceService, queries: &[ThresholdQuery]) {
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| {
            service
                .get_threshold(q)
                .expect("sequential query must succeed")
        })
        .collect();
    for (i, r) in service.get_threshold_batch(queries).into_iter().enumerate() {
        let r = r.expect("batched query must succeed");
        assert_eq!(
            point_bits(&r.points),
            point_bits(&sequential[i].points),
            "query {i} diverged between sequential and coalesced evaluation"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random overlapping query sets answer identically whether each
    /// query runs alone or the set runs as one coalesced batch — with
    /// caching on (later queries may hit entries earlier ones built) and
    /// with random sub-boxes that overlap arbitrarily.
    #[test]
    fn coalesced_equals_sequential_for_random_query_sets(
        corner in prop::array::uniform3(0u32..16),
        sizes in prop::collection::vec(prop::array::uniform3(3u32..16), 3..6),
        thresholds in prop::collection::vec(5.0f64..60.0, 3..6),
        cached in prop::collection::vec(any::<bool>(), 3..6),
    ) {
        let _g = metrics_lock();
        let service = prop_service();
        let queries: Vec<ThresholdQuery> = sizes
            .iter()
            .zip(&thresholds)
            .zip(&cached)
            .map(|((size, &threshold), &use_cache)| {
                let lo = corner;
                let hi = [
                    (lo[0] + size[0]).min(31),
                    (lo[1] + size[1]).min(31),
                    (lo[2] + size[2]).min(31),
                ];
                let q = curl_query(threshold).in_box(Box3::new(lo, hi));
                if use_cache { q } else { q.without_cache() }
            })
            .collect();
        assert_batch_equals_sequential(service, &queries);
    }

    /// The same property under deterministic fault injection: transient
    /// read faults fire (fixed `TDB_FAULT_SEED` default 0x7411) on both
    /// paths and retries absorb them to the same byte-identical answers.
    #[test]
    fn coalesced_equals_sequential_under_injected_faults(
        thresholds in prop::collection::vec(10.0f64..50.0, 2..5),
    ) {
        let _g = metrics_lock();
        let service = faulted_service();
        let queries: Vec<ThresholdQuery> = thresholds
            .iter()
            .map(|&t| curl_query(t).without_cache())
            .collect();
        service.cluster().clear_buffer_pools();
        assert_batch_equals_sequential(service, &queries);
    }
}

/// Wire-level load shedding: with one in-flight slot and no queue, a
/// burst of four concurrent clients gets at least one `Busy` and at
/// least one full answer; every admitted answer is correct, and a shed
/// client that retries after the hint eventually succeeds.
#[test]
fn wire_server_sheds_concurrent_burst_with_busy() {
    let _g = metrics_lock();
    let service = Arc::new(test_service("conc_wire", 32, 1, 2));
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_inflight: 1,
            queue_depth: 0,
            busy_retry_ms: 25,
            tenants: Vec::new(),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let reference = point_bits(&service.get_threshold(&curl_query(25.0)).unwrap().points);
    let shed_before = counter("admission.shed");
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = tdb_wire::Client::connect(addr).expect("connect");
                barrier.wait();
                client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut busy = 0usize;
    for h in handles {
        match h.join().unwrap() {
            Ok(answer) => {
                ok += 1;
                assert_eq!(point_bits(&answer.points), reference);
            }
            Err(ClientError::Busy {
                queue_depth,
                retry_ms,
            }) => {
                busy += 1;
                assert_eq!(queue_depth, 0);
                assert_eq!(retry_ms, 25);
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
    }
    assert_eq!(ok + busy, 4);
    assert!(ok >= 1, "at least one query must be admitted");
    assert!(busy >= 1, "a burst of 4 with one slot must shed");
    assert!(counter("admission.shed") > shed_before);

    // back-off and retry drains: a fresh client keeps retrying on Busy
    // and must get through once the burst is over
    let mut client = tdb_wire::Client::connect(addr).expect("connect");
    let answer = loop {
        match client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0) {
            Ok(a) => break a,
            Err(ClientError::Busy { retry_ms, .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(retry_ms));
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
    };
    assert_eq!(point_bits(&answer.points), reference);
    server.stop();
}

/// Control-plane requests are never shed: even with a zero-size queue
/// and a data query in flight, `ping`/`info`/`metrics` answer.
#[test]
fn control_plane_requests_bypass_admission() {
    let _g = metrics_lock();
    let service = Arc::new(test_service("conc_ctl", 32, 1, 2));
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_inflight: 1,
            queue_depth: 0,
            busy_retry_ms: 10,
            tenants: Vec::new(),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(2));
    let b = Arc::clone(&barrier);
    let data = std::thread::spawn(move || {
        let mut client = tdb_wire::Client::connect(addr).expect("connect");
        b.wait();
        client.get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
    });
    let mut client = tdb_wire::Client::connect(addr).expect("connect");
    barrier.wait();
    for _ in 0..20 {
        client.ping().expect("ping must never be shed");
        let (counters, _) = client.metrics().expect("metrics must never be shed");
        assert!(!counters.is_empty());
    }
    data.join()
        .unwrap()
        .expect("the data query itself succeeds");
    server.stop();
}
