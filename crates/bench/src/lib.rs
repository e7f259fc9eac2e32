//! Shared helpers for the benchmark harness, repo-level integration tests
//! and examples.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

use tdb_cluster::ClusterConfig;
use tdb_core::{ServiceConfig, TurbulenceService};
use tdb_turbgen::SyntheticDataset;
use tdb_wire::Json;

static UNIQUE: AtomicU64 = AtomicU64::new(0);
static CLEAN_STALE: Once = Once::new();

/// Best-effort removal of `thresholdb_*` scratch dirs left behind by
/// crashed or killed runs. Only dirs untouched for a day are removed, so
/// concurrent test processes never race each other on live dirs; when two
/// sweeps race on the *same* stale dir, whoever loses sees `NotFound`
/// part-way through its `remove_dir_all` — that is success, not failure.
fn clean_stale_scratch() {
    let cutoff = Duration::from_secs(24 * 60 * 60);
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        if !entry
            .file_name()
            .to_string_lossy()
            .starts_with("thresholdb_")
        {
            continue;
        }
        // the entry may vanish between readdir and stat: treat as cleaned
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > cutoff);
        if stale {
            match std::fs::remove_dir_all(entry.path()) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => eprintln!(
                    "warning: could not sweep stale scratch dir {}: {e}",
                    entry.path().display()
                ),
            }
        }
    }
}

/// A fresh scratch directory under the system temp dir. The first call per
/// process also sweeps out stale scratch dirs from previous runs.
pub fn scratch_dir(tag: &str) -> PathBuf {
    CLEAN_STALE.call_once(clean_stale_scratch);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("thresholdb_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Builds a small MHD service for tests: `n`-cube grid, `timesteps` steps,
/// `nodes` database nodes.
pub fn test_service(tag: &str, n: usize, timesteps: u32, nodes: usize) -> TurbulenceService {
    test_service_with(tag, n, timesteps, nodes, |_| {})
}

/// Like [`test_service`] but lets the caller adjust the cluster
/// configuration (e.g. enable scan coalescing) before the build.
pub fn test_service_with(
    tag: &str,
    n: usize,
    timesteps: u32,
    nodes: usize,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> TurbulenceService {
    let mut cluster = ClusterConfig {
        num_nodes: nodes,
        procs_per_node: 2,
        arrays_per_node: 2,
        chunk_atoms: 2,
        ..ClusterConfig::default()
    };
    tweak(&mut cluster);
    let config = ServiceConfig {
        dataset: SyntheticDataset::mhd(n, timesteps, 0x7db),
        cluster,
        limits: Default::default(),
        data_dir: scratch_dir(tag),
    };
    TurbulenceService::build(config).expect("service build")
}

/// Today's civil date in UTC as `(year, month, day)`, derived from the
/// system clock (no calendar crate offline; days-from-epoch algorithm per
/// Howard Hinnant's `civil_from_days`).
pub fn civil_date_utc() -> (i64, u32, u32) {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

/// The dated benchmark trend file for today, e.g. `BENCH_2026-01-31.json`.
/// One file per day: unlike `repro_metrics.json` (overwritten every run),
/// these accumulate in the repo as a performance trend.
pub fn bench_trend_path() -> String {
    let (y, m, d) = civil_date_utc();
    format!("BENCH_{y:04}-{m:02}-{d:02}.json")
}

/// The directory that holds the trend file: `TDB_BENCH_DIR` when set,
/// else the workspace root anchored at compile time (this crate lives at
/// `crates/bench`). `cargo bench`/`cargo test` set the binary's working
/// directory to the *package* root, `cargo run` keeps the caller's, so
/// anchoring is the only way every harness writes the same trend file;
/// the override points a binary built from one checkout (or copied out
/// of it) at another directory.
fn workspace_root() -> PathBuf {
    trend_dir(std::env::var_os("TDB_BENCH_DIR"))
}

fn trend_dir(over: Option<std::ffi::OsString>) -> PathBuf {
    if let Some(dir) = over.filter(|d| !d.is_empty()) {
        return PathBuf::from(dir);
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

/// Merges `doc` under the key `section` into today's `BENCH_<date>.json`
/// at the workspace root, preserving sections written by other harnesses
/// (the repro binary and the hotpath bench share one trend file per day).
/// Returns the path written.
pub fn merge_into_trend(section: &str, doc: Json) -> std::io::Result<String> {
    merge_into_trend_at(&workspace_root(), section, doc)
}

fn merge_into_trend_at(dir: &std::path::Path, section: &str, doc: Json) -> std::io::Result<String> {
    use std::io::{Read, Seek, Write};
    use std::os::unix::io::AsRawFd;

    let path = dir.join(bench_trend_path());
    // Concurrent harnesses (repro, cargo bench, parallel CI jobs) all merge
    // into the same dated file. An exclusive flock on the trend file itself
    // serialises the read-modify-write, so no section is ever lost to a
    // racing writer; the lock dies with the file handle even on panic.
    // deliberately NOT truncating at open: existing sections must be read
    // back first, and truncation happens under the lock via set_len
    #[allow(clippy::suspicious_open_options)]
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .open(&path)?;
    if unsafe { libc::flock(file.as_raw_fd(), libc::LOCK_EX) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let mut contents = String::new();
    let result = file.read_to_string(&mut contents).and_then(|_| {
        let mut root = Json::parse(&contents).unwrap_or_else(|_| Json::Obj(Default::default()));
        if !matches!(root, Json::Obj(_)) {
            root = Json::Obj(Default::default());
        }
        if let Json::Obj(m) = &mut root {
            let (y, mo, d) = civil_date_utc();
            m.insert(
                "date".to_string(),
                Json::Str(format!("{y:04}-{mo:02}-{d:02}")),
            );
            m.insert(section.to_string(), doc);
        }
        file.seek(std::io::SeekFrom::Start(0))?;
        file.set_len(0)?;
        file.write_all(root.encode().as_bytes())
    });
    unsafe { libc::flock(file.as_raw_fd(), libc::LOCK_UN) };
    result?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_is_sane() {
        let (y, m, d) = civil_date_utc();
        assert!((2024..2124).contains(&y));
        assert!((1..=12).contains(&m));
        assert!((1..=31).contains(&d));
        assert_eq!(
            bench_trend_path(),
            format!("BENCH_{y:04}-{m:02}-{d:02}.json")
        );
    }

    #[test]
    fn trend_dir_honours_the_override() {
        assert_eq!(
            trend_dir(Some("/elsewhere/bench".into())),
            PathBuf::from("/elsewhere/bench")
        );
        let anchored = trend_dir(None);
        assert!(anchored.join("Cargo.toml").is_file(), "{anchored:?}");
        assert_eq!(trend_dir(Some("".into())), anchored);
    }

    #[test]
    fn trend_merge_preserves_other_sections() {
        let dir = scratch_dir("trend");
        merge_into_trend_at(&dir, "a", Json::Num(1.0)).expect("write a");
        merge_into_trend_at(&dir, "b", Json::Num(2.0)).expect("write b");
        let root =
            Json::parse(&std::fs::read_to_string(dir.join(bench_trend_path())).expect("read"))
                .expect("parse");
        assert_eq!(root.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(root.get("b").and_then(Json::as_f64), Some(2.0));
        assert!(root.get("date").and_then(Json::as_str).is_some());
    }

    #[test]
    fn concurrent_trend_merges_lose_no_section() {
        let dir = scratch_dir("trend_race");
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    merge_into_trend_at(&dir, &format!("s{i}"), Json::Num(i as f64))
                        .expect("merge");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("merge thread");
        }
        let root =
            Json::parse(&std::fs::read_to_string(dir.join(bench_trend_path())).expect("read"))
                .expect("parse");
        for i in 0..8 {
            assert_eq!(
                root.get(&format!("s{i}")).and_then(Json::as_f64),
                Some(i as f64),
                "section s{i} lost in concurrent merge"
            );
        }
    }

    #[test]
    fn scratch_dirs_are_unique() {
        let a = scratch_dir("t");
        let b = scratch_dir("t");
        assert_ne!(a, b);
        assert!(a.exists() && b.exists());
    }
}
