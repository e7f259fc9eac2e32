//! Standing the system up: archive build + loopback server, timed as
//! `setup_s`, and torn down again without leaving files behind.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tdb_core::{QueryLimits, ServiceConfig, TurbulenceService};
use tdb_turbgen::SyntheticDataset;
use tdb_wire::server::ServerConfig;
use tdb_wire::Server;

use crate::workload::{Workload, GRID};

/// Directory, relative to the working directory, that holds the
/// archives and the span dump.
pub const WORK_DIR: &str = ".perfbench-work";

/// The dataset of a workload: the seed picks the synthetic fields.
pub fn dataset(workload: Workload, seed: u64) -> SyntheticDataset {
    SyntheticDataset::mhd(GRID as usize, workload.spec().timesteps, seed)
}

/// A built archive served on a loopback port.
pub struct Deployment {
    pub service: Arc<TurbulenceService>,
    server: Option<Server>,
    dir: PathBuf,
    /// `TurbulenceService::build` + `Server::start`, seconds.
    pub setup_s: f64,
}

impl Deployment {
    /// Builds the archive in `dir` and starts the server on an ephemeral
    /// port. Only the build and the start are timed.
    pub fn start(workload: Workload, seed: u64, dir: PathBuf) -> Result<Deployment, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let config = ServiceConfig {
            dataset: dataset(workload, seed),
            cluster: workload.cluster_config(),
            limits: QueryLimits::default(),
            data_dir: dir.clone(),
        };
        let t0 = Instant::now();
        let service =
            Arc::new(TurbulenceService::build(config).map_err(|e| format!("archive build: {e}"))?);
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        Ok(Deployment {
            service,
            server: Some(server),
            dir,
            setup_s,
        })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server runs until drop").addr()
    }

    /// Partition bytes on disk ÷ raw f32 bytes ingested.
    pub fn stored_bytes_ratio(&self) -> f64 {
        let d = self.service.dataset();
        let points = d.grid.num_points();
        let raw: u64 = d
            .raw_fields()
            .iter()
            .map(|f| f.ncomp as u64 * points * 4 * u64::from(d.timesteps))
            .sum();
        dir_bytes(&self.dir) as f64 / raw as f64
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
