//! The front-end server: "the Web-server acts as a mediator sending the
//! users' requests to the database nodes and initiating their distributed
//! evaluation" (paper §2).
//!
//! Transport: TCP, one JSON document per `\n`-terminated line in each
//! direction, thread per connection with a connection cap.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdb_core::batch::{BatchSession, JobId, JobSpec, JobState};
use tdb_core::{QueryError, ThresholdQuery, TurbulenceService};

use crate::admission::{Admission, AdmissionConfig, AdmissionQueue};
use crate::json::Json;
use crate::proto::{Request, Response};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent connections (excess are refused politely).
    pub max_connections: usize,
    /// Admission control for data queries: bounded in-flight evaluation,
    /// a fair bounded wait queue, and `Busy` load-shedding beyond it.
    pub admission: AdmissionConfig,
    /// MyDB quota for the server's shared batch session.
    pub mydb_quota_bytes: u64,
    /// Socket read timeout. An idle connection is closed (and counted in
    /// `wire.connection.timeout`) instead of pinning its thread forever.
    /// `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; a client that stops draining its responses
    /// cannot stall the handler thread indefinitely.
    pub write_timeout: Option<Duration>,
    /// Largest accepted request line in bytes; longer requests get an
    /// error response and the connection is closed (the remainder of the
    /// line is never buffered).
    pub max_request_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            admission: AdmissionConfig::default(),
            mydb_quota_bytes: 256 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_request_bytes: 1 << 20,
        }
    }
}

/// Shared per-server state: the service plus one batch session (the
/// paper's MyDB "resides on the servers near the data").
pub struct ServerState {
    pub service: Arc<TurbulenceService>,
    pub batch: BatchSession,
    pub admission: Arc<AdmissionQueue>,
}

impl ServerState {
    /// Builds the state with a MyDB quota and default admission sizing.
    pub fn new(service: Arc<TurbulenceService>, mydb_quota_bytes: u64) -> Self {
        Self::with_admission(service, mydb_quota_bytes, AdmissionConfig::default())
    }

    /// Builds the state with explicit admission sizing.
    pub fn with_admission(
        service: Arc<TurbulenceService>,
        mydb_quota_bytes: u64,
        admission: AdmissionConfig,
    ) -> Self {
        let batch = BatchSession::open(Arc::clone(&service), mydb_quota_bytes);
        Self {
            service,
            batch,
            admission: AdmissionQueue::new(admission),
        }
    }
}

/// A running front-end server.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn start(
        service: Arc<TurbulenceService>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let state = Arc::new(ServerState::with_admission(
            service,
            config.mydb_quota_bytes,
            config.admission.clone(),
        ));
        let handle = std::thread::spawn(move || accept_loop(listener, state, config, flag));
        Ok(Server {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the accept loop to finish.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // poke the listener so accept() returns
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if live.load(Ordering::SeqCst) >= config.max_connections {
            let refusal = Response::Error {
                message: "server at connection capacity".into(),
            };
            let _ = write_line(&stream, &refusal);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let conn = next_conn;
        next_conn += 1;
        let _ = stream.set_read_timeout(config.read_timeout);
        let _ = stream.set_write_timeout(config.write_timeout);
        let st = Arc::clone(&state);
        let counter = Arc::clone(&live);
        let max_request_bytes = config.max_request_bytes;
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &st, max_request_bytes, conn);
            counter.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Sends one response as a `\n`-terminated line in a single `write_all`.
/// Writing the body and the newline separately sends a large line as two
/// segments, and Nagle's algorithm holds the second until the peer's
/// delayed ACK of the first (~40 ms).
fn write_line(mut out: impl Write, response: &Response) -> std::io::Result<()> {
    let mut line = response.to_json().encode();
    line.push('\n');
    out.write_all(line.as_bytes())
}

fn serve_connection(
    stream: TcpStream,
    state: &ServerState,
    max_request_bytes: usize,
    conn: u64,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // read at most cap + '\n' + 1 sentinel byte: a line that hits the
        // take() limit is over the cap without the rest ever being buffered
        let n = match (&mut reader)
            .take(max_request_bytes as u64 + 2)
            .read_until(b'\n', &mut buf)
        {
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                tdb_obs::add("wire.connection.timeout", 1);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(()); // clean EOF
        }
        while buf.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
            buf.pop();
        }
        if buf.len() > max_request_bytes {
            tdb_obs::add("wire.request.oversized", 1);
            let resp = Response::Error {
                message: format!("request exceeds the {max_request_bytes}-byte limit"),
            };
            let _ = write_line(&stream, &resp);
            // the rest of the line was never read; resync is impossible
            return Ok(());
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line_admitted(&line, state, conn);
        write_line(&stream, &response)?;
    }
}

/// True for requests that run a data query against the cluster — the
/// ones admission control gates. Cheap control-plane requests (ping,
/// info, metrics, job polling, MyDB reads) always pass.
fn is_data_query(request: &Request) -> bool {
    matches!(
        request,
        Request::GetThreshold { .. }
            | Request::GetPdf { .. }
            | Request::GetTopK { .. }
            | Request::GetStats { .. }
            | Request::GetPoints { .. }
            | Request::GetTrace { .. }
    )
}

/// Parses one request line, passes data queries through admission
/// control on behalf of connection `conn`, and executes.
pub fn handle_line_admitted(line: &str, state: &ServerState, conn: u64) -> Response {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => {
            return Response::Error {
                message: e.to_string(),
            }
        }
    };
    let request = match Request::from_json(&doc) {
        Ok(r) => r,
        Err(e) => {
            return Response::Error {
                message: e.to_string(),
            }
        }
    };
    if is_data_query(&request) {
        // the API key travels in the request envelope, outside the typed
        // request, so tenancy never alters query semantics
        let api_key = doc.get("api_key").and_then(Json::as_str);
        match state.admission.admit_keyed(conn, api_key) {
            Admission::Granted(_permit) => execute_with_state(&request, state),
            Admission::Busy {
                queue_depth,
                retry_ms,
            } => Response::Busy {
                queue_depth: queue_depth as u64,
                retry_ms,
            },
        }
    } else {
        execute_with_state(&request, state)
    }
}

/// Parses one request line and executes it against a bare service (batch
/// operations report an error) — kept for direct handler testing.
pub fn handle_line(line: &str, service: &TurbulenceService) -> Response {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => {
            return Response::Error {
                message: e.to_string(),
            }
        }
    };
    let request = match Request::from_json(&doc) {
        Ok(r) => r,
        Err(e) => {
            return Response::Error {
                message: e.to_string(),
            }
        }
    };
    execute(&request, service)
}

fn query_error(e: QueryError) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

/// Executes a parsed request against full server state.
pub fn execute_with_state(request: &Request, state: &ServerState) -> Response {
    match request {
        Request::SubmitJob {
            raw_field,
            derived,
            timestep,
            threshold,
            output_table,
        } => {
            let query = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, *threshold);
            let JobId(id) = state.batch.submit(JobSpec::Threshold {
                query,
                output_table: output_table.clone(),
            });
            Response::JobAccepted { job: id }
        }
        Request::JobStatus { job } => match state.batch.status(JobId(*job)) {
            Some(JobState::Queued) => Response::JobState {
                state: "queued".into(),
                detail: String::new(),
                rows: 0,
            },
            Some(JobState::Running) => Response::JobState {
                state: "running".into(),
                detail: String::new(),
                rows: 0,
            },
            Some(JobState::Done { rows, modelled_s }) => Response::JobState {
                state: "done".into(),
                detail: format!("{modelled_s:.3}s modelled"),
                rows: rows as u64,
            },
            Some(JobState::Failed(msg)) => Response::JobState {
                state: "failed".into(),
                detail: msg,
                rows: 0,
            },
            None => Response::Error {
                message: format!("unknown job {job}"),
            },
        },
        Request::ListMyDb => Response::MyDbList {
            tables: state.batch.mydb().list(),
        },
        Request::GetMyDbTable { name } => match state.batch.mydb().get(name) {
            Some(t) => Response::MyDbTable {
                provenance: t.provenance,
                points: t.points,
            },
            None => Response::Error {
                message: format!("no MyDB table '{name}'"),
            },
        },
        other => execute(other, &state.service),
    }
}

/// Executes a parsed non-batch request against the service.
pub fn execute(request: &Request, service: &TurbulenceService) -> Response {
    match request {
        Request::SubmitJob { .. }
        | Request::JobStatus { .. }
        | Request::ListMyDb
        | Request::GetMyDbTable { .. } => Response::Error {
            message: "batch operations need a server session".into(),
        },
        Request::Ping => Response::Pong,
        Request::Info => {
            let d = service.dataset();
            let (nx, ny, nz) = d.grid.dims();
            Response::Info {
                dataset: d.name.clone(),
                dims: (nx as u32, ny as u32, nz as u32),
                timesteps: d.timesteps,
                fields: d
                    .raw_fields()
                    .into_iter()
                    .map(|f| (f.name.to_string(), f.ncomp as u8))
                    .collect(),
                compression: service.cluster().config().compression,
            }
        }
        Request::GetThreshold {
            raw_field,
            derived,
            timestep,
            query_box,
            threshold,
            use_cache,
        } => {
            let mut q = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, *threshold);
            q.query_box = *query_box;
            q.use_cache = *use_cache;
            match service.get_threshold(&q) {
                Ok(r) => Response::Threshold {
                    points: r.points,
                    breakdown: r.breakdown,
                    cache_hits: r.cache_hits as u32,
                    nodes: r.nodes as u32,
                    degraded: r.degraded,
                },
                Err(e) => query_error(e),
            }
        }
        Request::GetPdf {
            raw_field,
            derived,
            timestep,
            origin,
            bin_width,
            nbins,
        } => {
            if *bin_width <= 0.0 || *nbins == 0 || *nbins > 4096 {
                return Response::Error {
                    message: "pdf bins must satisfy 0 < nbins <= 4096 and bin_width > 0".into(),
                };
            }
            let q = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, 0.0);
            match service.get_pdf(&q, *origin, *bin_width, *nbins as usize) {
                Ok(r) => Response::Pdf {
                    origin: *origin,
                    bin_width: *bin_width,
                    counts: r.histogram.counts().to_vec(),
                    degraded: r.degraded,
                },
                Err(e) => query_error(e),
            }
        }
        Request::GetTopK {
            raw_field,
            derived,
            timestep,
            k,
        } => {
            if *k == 0 || *k > 100_000 {
                return Response::Error {
                    message: "k must satisfy 0 < k <= 100000".into(),
                };
            }
            let q = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, 0.0);
            match service.get_topk(&q, *k as usize) {
                Ok(r) => Response::TopK {
                    points: r.points,
                    degraded: r.degraded,
                },
                Err(e) => query_error(e),
            }
        }
        Request::GetStats {
            raw_field,
            derived,
            timestep,
        } => match service.derived_stats(raw_field, *derived, *timestep) {
            Ok(s) => Response::Stats {
                count: s.count,
                mean: s.mean,
                rms: s.rms,
                min: s.min,
                max: s.max,
            },
            Err(e) => query_error(e),
        },
        Request::GetPoints {
            raw_field,
            timestep,
            lag_width,
            positions,
        } => {
            let order = match lag_width {
                4 => tdb_core::LagOrder::Lag4,
                6 => tdb_core::LagOrder::Lag6,
                8 => tdb_core::LagOrder::Lag8,
                other => {
                    return Response::Error {
                        message: format!("lag_width must be 4, 6 or 8 (got {other})"),
                    }
                }
            };
            if positions.is_empty() || positions.len() > 100_000 {
                return Response::Error {
                    message: "positions must contain 1..=100000 entries".into(),
                };
            }
            match service.interpolate_at(raw_field, *timestep, positions, order) {
                Ok((values, _)) => Response::Points { values },
                Err(e) => query_error(e),
            }
        }
        Request::Metrics => {
            let snap = service.metrics_snapshot();
            Response::Metrics {
                counters: snap.counters.into_iter().collect(),
                gauges: snap.gauges.into_iter().collect(),
            }
        }
        Request::GetTrace {
            raw_field,
            derived,
            timestep,
            query_box,
            threshold,
            use_cache,
        } => {
            let mut q = ThresholdQuery::whole_timestep(raw_field, *derived, *timestep, *threshold);
            q.query_box = *query_box;
            q.use_cache = *use_cache;
            match service.get_threshold(&q) {
                Ok(r) => match r.trace {
                    Some(trace) => Response::Trace { trace },
                    None => Response::Error {
                        message: "query produced no trace".into(),
                    },
                },
                Err(e) => query_error(e),
            }
        }
    }
}
