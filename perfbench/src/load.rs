//! The measured phase: closed-loop clients over loopback TCP, every
//! answer checked against the oracle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::client::{check_response, request, Conn, Failure};
use crate::oracle::Oracle;
use crate::procfs::{self, HostCpu};
use crate::setup::Deployment;
use crate::stats::quantile;
use crate::workload::{Step, Stream, Workload};
use tdb_core::TurbulenceService;
use tdb_obs::MetricsSnapshot;

/// Length of the slices the measured phase is cut into.
pub const WINDOW_S: f64 = 0.5;
/// Share of the requests the quiet windows hold at least.
const QUIET_SHARE: f64 = 0.25;
/// Fewest requests for a p95 with ten samples beyond it.
pub const MIN_P95_SAMPLES: usize = 200;

/// One slice of the measured phase.
#[derive(Debug, Default)]
pub struct Window {
    /// Latencies of the requests that completed in it, seconds.
    pub latencies_s: Vec<f64>,
    /// Process CPU used in it, seconds.
    pub cpu_s: f64,
    /// Host CPU time stolen by the hypervisor, as a share.
    pub steal_share: f64,
}

/// Latency, throughput and CPU figures of a set of windows.
#[derive(Debug, Default)]
pub struct Figures {
    pub p50_s: f64,
    pub p95_s: f64,
    pub throughput_qps: f64,
    pub cpu_s_per_req: f64,
    pub requests: usize,
    /// Mean steal share of the windows.
    pub steal_share: f64,
}

impl Figures {
    fn of(windows: &[&Window]) -> Figures {
        let mut lat: Vec<f64> = windows
            .iter()
            .flat_map(|w| w.latencies_s.iter().copied())
            .collect();
        lat.sort_by(f64::total_cmp);
        let n = lat.len();
        let secs = windows.len() as f64 * WINDOW_S;
        let cpu: f64 = windows.iter().map(|w| w.cpu_s).sum();
        Figures {
            p50_s: quantile(&lat, 0.50),
            p95_s: quantile(&lat, 0.95),
            throughput_qps: if secs > 0.0 { n as f64 / secs } else { 0.0 },
            cpu_s_per_req: cpu / n.max(1) as f64,
            requests: n,
            steal_share: windows.iter().map(|w| w.steal_share).sum::<f64>()
                / windows.len().max(1) as f64,
        }
    }
}

/// What one closed-loop run measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// `(completion time since the start, client-observed latency)` of
    /// every answered request, seconds.
    pub samples: Vec<(f64, f64)>,
    /// Process CPU seconds and host CPU counters at every window
    /// boundary, from the start of the phase to its end.
    pub marks: Vec<(f64, HostCpu)>,
    pub attempted: u64,
    /// Calls that got no response (connect, socket or protocol failure).
    pub transport_errors: u64,
    /// `Error` and `Busy` responses, and partial answers.
    pub server_errors: u64,
    /// Answers that differ from the oracle's.
    pub mismatches: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Latencies per request kind.
    pub by_label: BTreeMap<String, Vec<f64>>,
    pub elapsed_s: f64,
    pub steal_share: f64,
    pub loadavg: [f64; 3],
    /// The program's own metrics before and after the phase.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl LoopStats {
    pub fn failed(&self) -> u64 {
        self.transport_errors + self.server_errors + self.mismatches
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.transport_errors
    }

    /// The measured phase in whole windows.
    pub fn windows(&self) -> Vec<Window> {
        let mut windows: Vec<Window> = self
            .marks
            .windows(2)
            .map(|m| Window {
                latencies_s: Vec::new(),
                cpu_s: m[1].0 - m[0].0,
                steal_share: m[1].1.steal_share_since(&m[0].1),
            })
            .collect();
        for &(t, l) in &self.samples {
            if let Some(w) = windows.get_mut((t / WINDOW_S) as usize) {
                w.latencies_s.push(l);
            }
        }
        windows
    }

    /// Figures over every whole window.
    pub fn pooled(&self) -> Figures {
        let windows = self.windows();
        Figures::of(&windows.iter().collect::<Vec<_>>())
    }

    /// Figures over the windows in which the hypervisor stole the least
    /// host CPU: every window whose steal share is at most the smallest
    /// level below which a quarter of the requests (and at least
    /// [`MIN_P95_SAMPLES`]) completed. What the program does when its
    /// neighbours are quiet, as a best-of-N timing reports it; on a quiet
    /// host that is every window.
    pub fn quiet(&self) -> Figures {
        let windows = self.windows();
        let total: usize = windows.iter().map(|w| w.latencies_s.len()).sum();
        let want = ((total as f64 * QUIET_SHARE).ceil() as usize).max(MIN_P95_SAMPLES);
        let mut by_steal: Vec<&Window> = windows.iter().collect();
        by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
        let mut held = 0;
        let level = by_steal
            .iter()
            .find(|w| {
                held += w.latencies_s.len();
                held >= want
            })
            .or(by_steal.last())
            .map_or(0.0, |w| w.steal_share);
        by_steal.retain(|w| w.steal_share <= level);
        Figures::of(&by_steal)
    }

    fn absorb(&mut self, other: LoopStats) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.transport_errors += other.transport_errors;
        self.server_errors += other.server_errors;
        self.mismatches += other.mismatches;
        self.failures.extend(other.failures);
        for (label, l) in other.by_label {
            self.by_label.entry(label).or_default().extend(l);
        }
    }

    fn fail(&mut self, message: String) {
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

/// Applies an untimed client step that is not a request.
pub fn apply_local(service: &TurbulenceService, step: &Step) {
    if let Step::Invalidate(k) = step {
        service
            .cluster()
            .invalidate_cache_entry(k.field, k.derived, k.timestep);
    }
}

fn client_loop(
    dep: &Deployment,
    oracle: &Oracle,
    workload: Workload,
    seed: u64,
    conn_id: usize,
    start: Instant,
    deadline: Instant,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut conn = match Conn::connect(dep.addr()) {
        Ok(c) => Some(c),
        Err(e) => {
            stats.transport_errors += 1;
            stats.attempted += 1;
            stats.fail(format!("connect: {e}"));
            None
        }
    };
    for step in Stream::new(workload, seed, conn_id) {
        if Instant::now() >= deadline {
            break;
        }
        let Step::Send(q) = step else {
            apply_local(&dep.service, &step);
            continue;
        };
        let Some(c) = conn.as_mut() else { break };
        stats.attempted += 1;
        let req = request(oracle, &q);
        match c.call(&req) {
            Ok((response, timing)) => {
                stats
                    .samples
                    .push((start.elapsed().as_secs_f64(), timing.total_s));
                stats
                    .by_label
                    .entry(q.label())
                    .or_default()
                    .push(timing.total_s);
                match check_response(oracle, &q, &response) {
                    Ok(()) => {}
                    Err(Failure::Server(e)) => {
                        stats.server_errors += 1;
                        stats.fail(e);
                    }
                    Err(Failure::Mismatch(e)) => {
                        stats.mismatches += 1;
                        stats.fail(e);
                    }
                }
            }
            Err(e) => {
                stats.transport_errors += 1;
                stats.fail(e.0);
                // a broken connection is replaced once per failure
                conn = Conn::connect(dep.addr()).ok();
            }
        }
    }
    stats
}

/// Runs the workload's clients for `seconds` and collects the outcome.
pub fn run(
    dep: &Deployment,
    oracle: &Oracle,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> LoopStats {
    let connections = workload.spec().connections;
    let before = tdb_obs::global().snapshot();
    let cpu0 = procfs::process_cpu_s();
    let host0 = HostCpu::now();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut marks = vec![(cpu0, host0)];
    let mut stats = std::thread::scope(|s| {
        let clients: Vec<_> = (0..connections)
            .map(|c| s.spawn(move || client_loop(dep, oracle, workload, seed, c, start, deadline)))
            .collect();
        // sample process and host CPU at every window boundary
        let mut next = start;
        loop {
            next += Duration::from_secs_f64(WINDOW_S);
            if next > deadline {
                break;
            }
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            marks.push((procfs::process_cpu_s(), HostCpu::now()));
        }
        let mut total = LoopStats::default();
        for h in clients {
            total.absorb(h.join().expect("client thread panicked"));
        }
        total
    });
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats.marks = marks;
    stats.steal_share = HostCpu::now().steal_share_since(&host0);
    stats.loadavg = procfs::loadavg();
    stats.before = before;
    stats.after = tdb_obs::global().snapshot();
    stats
}
