//! The Web-services layer end to end: a real server on a real socket,
//! queried by the client library, answers identical to in-process calls.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb_bench::test_service;
use tdb_core::{DerivedField, ThresholdQuery};
use tdb_wire::server::{handle_line, Server, ServerConfig};
use tdb_wire::{Client, Request, Response};

fn start_server(tag: &str) -> (Server, Arc<tdb_core::TurbulenceService>) {
    let service = Arc::new(test_service(tag, 32, 2, 2));
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    (server, service)
}

#[test]
fn wire_answers_match_in_process_answers() {
    let (server, service) = start_server("wire_match");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");

    let info = client.info().expect("info");
    assert_eq!(info.dims, (32, 32, 32));
    assert_eq!(info.timesteps, 2);
    assert!(info.fields.iter().any(|(n, c)| n == "velocity" && *c == 3));

    let (_, _, rms, _, max) = client
        .get_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    assert!(max > rms);
    let threshold = 3.0 * rms;

    let wire = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, threshold)
        .expect("threshold");
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, threshold);
    let local = service.get_threshold(&q).expect("local");
    // first wire query warmed the cache; the local call hits it — answers
    // must be identical either way
    assert_eq!(wire.points.len(), local.points.len());
    for (a, b) in wire.points.iter().zip(&local.points) {
        assert_eq!(a.zindex, b.zindex);
        assert!((a.value - b.value).abs() < 1e-6);
    }

    let pdf = client
        .get_pdf("velocity", DerivedField::CurlNorm, 0, 0.0, 10.0, 9)
        .expect("pdf");
    assert_eq!(pdf.iter().sum::<u64>(), 32 * 32 * 32);

    let top = client
        .get_topk("velocity", DerivedField::CurlNorm, 0, 5)
        .expect("topk");
    assert_eq!(top.len(), 5);
    assert!(top.windows(2).all(|w| w[0].value >= w[1].value));

    // point interpolation over the wire matches the in-process answer
    let positions = [[3.5, 4.25, 5.0], [31.0, 0.0, 16.5]];
    let wire_vals = client
        .get_points("velocity", 0, 6, &positions)
        .expect("points");
    let (local_vals, _) = service
        .interpolate_at("velocity", 0, &positions, tdb_core::LagOrder::Lag6)
        .expect("local points");
    assert_eq!(wire_vals.len(), 2);
    for (w, l) in wire_vals.iter().zip(&local_vals) {
        for c in 0..3 {
            assert!((w[c] - l[c]).abs() < 1e-4);
        }
    }
    // invalid lag width is a clean server error
    let err = client
        .get_points("velocity", 0, 5, &positions)
        .expect_err("lag 5 invalid");
    assert!(err.to_string().contains("lag_width"));
    drop(client);
    server.stop();
}

#[test]
fn multiple_concurrent_clients() {
    let (server, _service) = start_server("wire_multi");
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.ping().expect("ping");
                let t = 25.0 + i as f64;
                let a = c
                    .get_threshold("velocity", DerivedField::CurlNorm, 0, None, t)
                    .expect("threshold");
                a.points.len()
            })
        })
        .collect();
    let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // monotone thresholds → monotone (non-increasing) result sizes
    assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
    server.stop();
}

#[test]
fn server_reports_query_errors_cleanly() {
    let (server, _service) = start_server("wire_errors");
    let mut client = Client::connect(server.addr()).expect("connect");
    // unknown field flows back as a server error, connection stays usable
    let err = client
        .get_threshold("nonexistent", DerivedField::Norm, 0, None, 1.0)
        .expect_err("must fail");
    assert!(err.to_string().contains("unknown raw field"));
    client.ping().expect("connection survives an error");
    // bad timestep
    let err = client
        .get_pdf("velocity", DerivedField::Norm, 99, 0.0, 1.0, 4)
        .expect_err("must fail");
    assert!(err.to_string().contains("out of range"));
    server.stop();
}

#[test]
fn batch_jobs_and_mydb_over_the_wire() {
    let (server, _service) = start_server("wire_batch");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (_, _, rms, _, _) = client
        .get_stats("velocity", DerivedField::CurlNorm, 0)
        .expect("stats");
    let job = client
        .submit_job("velocity", DerivedField::CurlNorm, 0, 3.0 * rms, "wired")
        .expect("submit");
    // poll to completion
    let mut state = String::new();
    let mut rows = 0;
    for _ in 0..200 {
        let (s, _, r) = client.job_status(job).expect("status");
        state = s;
        rows = r;
        if state == "done" || state == "failed" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(state, "done");
    assert!(rows > 0);
    // the table is readable through MyDB
    assert!(client
        .list_mydb()
        .expect("list")
        .contains(&"wired".to_string()));
    let (prov, points) = client.get_mydb_table("wired").expect("table");
    assert!(prov.contains("curl_norm"));
    assert_eq!(points.len() as u64, rows);
    // identical to an interactive query
    let direct = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, 3.0 * rms)
        .expect("direct");
    assert_eq!(direct.points.len(), points.len());
    // failure path: bogus field
    let bad = client
        .submit_job("bogus", DerivedField::Norm, 0, 1.0, "never")
        .expect("submit accepts; job fails");
    for _ in 0..200 {
        let (s, detail, _) = client.job_status(bad).expect("status");
        if s == "failed" {
            assert!(detail.contains("unknown raw field"));
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(client.job_status(9999).is_err(), "unknown job id errors");
    server.stop();
}

#[test]
fn oversized_requests_are_rejected_and_the_connection_closed() {
    let service = Arc::new(test_service("wire_oversize", 32, 1, 2));
    let config = ServerConfig {
        max_request_bytes: 256,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let before = service.metrics_snapshot();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let big = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(1024));
    stream.write_all(big.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    assert!(
        line.contains("error") && line.contains("byte limit"),
        "unexpected response: {line}"
    );
    // the rest of the oversized line was never read, so the server closes
    line.clear();
    let n = reader.read_line(&mut line).expect("clean EOF");
    assert_eq!(n, 0, "connection must be closed after an oversized request");
    assert!(
        service.metrics_snapshot().counter("wire.request.oversized")
            > before.counter("wire.request.oversized")
    );
    server.stop();
}

#[test]
fn idle_connections_time_out_and_close() {
    let service = Arc::new(test_service("wire_idle", 32, 1, 2));
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    let before = service.metrics_snapshot();
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // send nothing: the server must hang up on its own
    let n = reader.read_line(&mut line).expect("server closes cleanly");
    assert_eq!(n, 0, "expected EOF after the server-side idle timeout");
    assert!(
        service
            .metrics_snapshot()
            .counter("wire.connection.timeout")
            > before.counter("wire.connection.timeout")
    );
    server.stop();
}

#[test]
fn degraded_status_travels_the_wire() {
    let plan = tdb_storage::FaultPlan::new(3).shared();
    let config = tdb_core::ServiceConfig {
        dataset: tdb_turbgen::SyntheticDataset::mhd(32, 1, 0x7db),
        cluster: tdb_cluster::ClusterConfig {
            num_nodes: 2,
            procs_per_node: 2,
            arrays_per_node: 2,
            chunk_atoms: 2,
            faults: Some(Arc::clone(&plan)),
            ..tdb_cluster::ClusterConfig::default()
        },
        limits: Default::default(),
        data_dir: tdb_bench::scratch_dir("wire_degraded"),
    };
    let service = Arc::new(tdb_core::TurbulenceService::build(config).expect("build"));
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    plan.set_node_down(1, true);
    let a = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
        .expect("degraded answer must still arrive");
    let d = a
        .degraded
        .expect("degraded flag must survive serialization");
    assert_eq!(d.failed_nodes.len(), 1);
    assert_eq!(d.failed_nodes[0].node, 1);
    assert!(!d.missing_boxes.is_empty());

    // revived node → clean answers again, same connection
    plan.set_node_down(1, false);
    let b = client
        .get_threshold("velocity", DerivedField::CurlNorm, 0, None, 25.0)
        .expect("clean answer");
    assert!(b.degraded.is_none());
    assert!(b.points.len() >= a.points.len());
    server.stop();
}

#[test]
fn malformed_lines_get_error_responses() {
    let service = test_service("wire_malformed", 32, 1, 2);
    for bad in [
        "not json at all",
        "{\"op\":\"launch_missiles\"}",
        "{\"op\":\"get_threshold\"}",
        "{\"op\":\"get_pdf\",\"field\":\"velocity\",\"derived\":\"norm\",\"timestep\":0,\"origin\":0,\"bin_width\":-1,\"nbins\":4}",
        "{\"op\":\"get_topk\",\"field\":\"velocity\",\"derived\":\"norm\",\"timestep\":0,\"k\":0}",
    ] {
        match handle_line(bad, &service) {
            Response::Error { .. } => {}
            other => panic!("{bad} should produce an error, got {other:?}"),
        }
    }
    // and a well-formed line still works on the same handler
    match handle_line("{\"op\":\"ping\"}", &service) {
        Response::Pong => {}
        other => panic!("expected pong, got {other:?}"),
    }
}

#[test]
fn large_response_lines_are_not_stalled() {
    // a response line well past the 8 KiB mark: if the server wrote the
    // body and its newline separately, Nagle plus the client's delayed
    // ACK would hold the newline back ~40 ms on every round trip
    let (server, service) = start_server("wire_large_line");
    let q = ThresholdQuery::whole_timestep("velocity", DerivedField::CurlNorm, 0, 0.0);
    let top = service.get_topk(&q, 700).expect("topk");
    let threshold = f64::from(top.points.last().expect("700 points").value);
    let request = Request::GetThreshold {
        raw_field: "velocity".into(),
        derived: DerivedField::CurlNorm,
        timestep: 0,
        query_box: None,
        threshold,
        use_cache: true,
    };
    let line = format!("{}\n", request.to_json().encode());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut round_trip = || {
        let t = Instant::now();
        stream.write_all(line.as_bytes()).expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        (t.elapsed(), response.len())
    };
    // the first request fills the semantic cache; the timed ones hit it
    let (_, bytes) = round_trip();
    assert!((15_000..40_000).contains(&bytes), "{bytes}-byte response");
    let mut times: Vec<Duration> = (0..10).map(|_| round_trip().0).collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(30),
        "median round trip {median:?} for a {bytes}-byte response: {times:?}"
    );
    server.stop();
}

#[test]
fn deeply_nested_line_gets_an_error_and_the_server_survives() {
    // a 500 KB line of `[` once overflowed the parsing thread's stack and
    // aborted the whole server process
    let (server, _service) = start_server("wire_nesting");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hostile = format!("{}\n", "[".repeat(500_000));
    stream.write_all(hostile.as_bytes()).expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    assert!(
        line.contains("error") && line.contains("nesting"),
        "unexpected response: {line}"
    );
    // the same connection and a fresh client both still get answers
    stream.write_all(b"{\"op\":\"info\"}\n").expect("send info");
    line.clear();
    reader.read_line(&mut line).expect("info response");
    assert!(line.contains("velocity"), "unexpected response: {line}");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.info().expect("info").dims, (32, 32, 32));
    server.stop();
}
