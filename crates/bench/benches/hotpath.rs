//! Hot-path before/after benchmarks with a machine-readable trend file.
//!
//! Measures the chunked (autovectorization-friendly) kernels against their
//! per-point reference implementations — threshold scan, finite-difference
//! derivative, batched Morton decode — plus interpolation throughput, the
//! per-chunk read path (block CRC-32, padded-domain assembly from atoms)
//! and the buffer-pool hit rate of every eviction policy under a zipf trace.
//! Results are printed as a table and merged into today's
//! `BENCH_<date>.json` under the `hotpath` key (see EXPERIMENTS.md).
//!
//! ```sh
//! cargo bench -p tdb-bench --bench hotpath            # full sizes
//! TDB_BENCH_SMOKE=1 cargo bench -p tdb-bench --bench hotpath   # CI smoke
//! ```

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use tdb_cluster::assemble::assemble_padded;
use tdb_field::{Grid3, PaddedVector, ScalarField, VectorField};
use tdb_kernels::scan::{threshold_scan_clip, threshold_scan_clip_scalar, ScanHit};
use tdb_kernels::{DerivedField, DiffScheme, FdOrder};
use tdb_storage::block::TARGET_BLOCK_BYTES;
use tdb_storage::bufferpool::{BlockKey, BufferPool};
use tdb_storage::{AtomKey, AtomRecord, EvictionPolicyKind};
use tdb_wire::Json;
use tdb_zorder::{decode3, AtomCoord, Box3, MortonBlockDecoder, ATOM_POINTS, ATOM_WIDTH};

/// Mean seconds per call over `reps` calls after one warm-up call.
fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Synthetic turbulence-like velocity field on an `n`-cube.
fn velocity(n: usize) -> (Grid3, VectorField<3>) {
    let grid = Grid3::periodic_cube(n, std::f64::consts::TAU);
    let h = std::f64::consts::TAU / n as f64;
    let mk = |p: f64| {
        ScalarField::from_fn(n, n, n, move |x, y, z| {
            ((h * x as f64 + p).sin() * (h * y as f64).cos() + (h * z as f64 * 2.0).sin()) as f32
        })
    };
    (
        grid,
        VectorField::from_components([mk(0.0), mk(1.0), mk(2.0)]),
    )
}

/// Threshold picked so roughly `frac` of the norm field matches.
fn threshold_at(norm: &ScalarField, frac: f64) -> f64 {
    let (nx, ny, nz) = norm.dims();
    let mut vals: Vec<f32> = Vec::with_capacity(nx * ny * nz);
    for z in 0..nz {
        for y in 0..ny {
            vals.extend_from_slice(norm.row(y, z));
        }
    }
    vals.sort_unstable_by(f32::total_cmp);
    let idx = ((vals.len() as f64) * (1.0 - frac)) as usize;
    f64::from(vals[idx.min(vals.len() - 1)])
}

struct ScanNumbers {
    scalar_mpts: f64,
    chunked_mpts: f64,
    speedup: f64,
}

fn bench_scan(norm: &ScalarField, reps: usize) -> ScanNumbers {
    let (nx, ny, nz) = norm.dims();
    let npoints = (nx * ny * nz) as f64;
    let domain = Box3::new([0, 0, 0], [nx as u32 - 1, ny as u32 - 1, nz as u32 - 1]);
    // the paper's "low" tier: ~1e-3 of the grid matches, so the scan is
    // compare-bound, not output-bound
    let thr = threshold_at(norm, 1e-3);
    let mut out: Vec<ScanHit> = Vec::new();
    let t_scalar = time(reps, || {
        out.clear();
        threshold_scan_clip_scalar(black_box(norm), &domain, &domain, black_box(thr), &mut out);
        black_box(out.len());
    });
    let t_chunked = time(reps, || {
        out.clear();
        threshold_scan_clip(black_box(norm), &domain, &domain, black_box(thr), &mut out);
        black_box(out.len());
    });
    ScanNumbers {
        scalar_mpts: npoints / t_scalar / 1e6,
        chunked_mpts: npoints / t_chunked / 1e6,
        speedup: t_scalar / t_chunked,
    }
}

fn bench_morton(ncodes: u64, reps: usize) -> (f64, f64) {
    // consecutive codes within shared atoms: the decoder's common case
    let codes: Vec<u64> = (0..ncodes).collect();
    let t_plain = time(reps, || {
        let mut acc = 0u32;
        for &c in &codes {
            let (x, y, z) = decode3(black_box(c));
            acc = acc.wrapping_add(x ^ y ^ z);
        }
        black_box(acc);
    });
    let t_batched = time(reps, || {
        let mut dec = MortonBlockDecoder::default();
        let mut acc = 0u32;
        for &c in &codes {
            let (x, y, z) = dec.decode(black_box(c));
            acc = acc.wrapping_add(x ^ y ^ z);
        }
        black_box(acc);
    });
    let n = ncodes as f64;
    (n / t_plain / 1e6, n / t_batched / 1e6)
}

struct DerivNumbers {
    reference_mpts: f64,
    chunked_mpts: f64,
    eval_mpts: f64,
}

fn bench_deriv(grid: &Grid3, v: &VectorField<3>, reps: usize) -> DerivNumbers {
    let (nx, ny, nz) = grid.dims();
    let npoints = (nx * ny * nz) as f64;
    let scheme = DiffScheme::new(grid, FdOrder::O4);
    let mut padded = PaddedVector::zeros(nx, ny, nz, scheme.halo());
    padded.fill_periodic_from(v, [0, 0, 0]);
    let comp = padded.comp(0);
    let t_ref = time(reps, || {
        black_box(scheme.deriv_padded_reference(black_box(comp), 0, [0, 0, 0]));
    });
    let t_chunked = time(reps, || {
        black_box(scheme.deriv_padded(black_box(comp), 0, [0, 0, 0]));
    });
    let t_eval = time(reps, || {
        black_box(DerivedField::CurlNorm.eval(black_box(&padded), &scheme, [0, 0, 0]));
    });
    DerivNumbers {
        reference_mpts: npoints / t_ref / 1e6,
        chunked_mpts: npoints / t_chunked / 1e6,
        eval_mpts: npoints / t_eval / 1e6,
    }
}

fn bench_interp(grid: &Grid3, v: &VectorField<3>, npos: usize, reps: usize) -> f64 {
    use tdb_kernels::interp::{interpolate, LagOrder};
    let (nx, ny, nz) = grid.dims();
    let order = LagOrder::Lag6;
    let scheme_halo = order.halo();
    let mut padded = PaddedVector::zeros(nx, ny, nz, scheme_halo);
    padded.fill_periodic_from(v, [0, 0, 0]);
    // deterministic jittered positions away from the chunk faces
    let positions: Vec<[f64; 3]> = (0..npos)
        .map(|i| {
            let r = |k: usize| {
                let s = (i * 31 + k * 17) % 1000;
                4.0 + (nx as f64 - 8.0) * (s as f64 / 1000.0)
            };
            [r(0), r(1), r(2)]
        })
        .collect();
    let t = time(reps, || {
        let mut acc = 0.0f32;
        for &p in &positions {
            let out = interpolate::<3>(black_box(&padded), order, p);
            acc += out[0];
        }
        black_box(acc);
    });
    npos as f64 / t / 1e6
}

/// Block checksum throughput in MB/s over one block-sized buffer (every
/// block is checksummed once per disk read and once per write).
fn bench_crc32(reps: usize) -> f64 {
    let data: Vec<u8> = (0..TARGET_BLOCK_BYTES)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let t = time(reps * 50, || {
        black_box(tdb_storage::checksum(black_box(&data)));
    });
    data.len() as f64 / t / 1e6
}

/// Padded-domain assembly throughput in millions of padded points per
/// second: the `m`³ box at grid offset 3 (not atom-aligned) with `halo`
/// ghost layers, gathered from 3-component atoms of a periodic `n`³ grid.
fn bench_assemble(n: usize, m: u32, halo: usize, reps: usize) -> f64 {
    let w = (n / ATOM_WIDTH) as u32;
    let mut atoms = HashMap::new();
    for az in 0..w {
        for ay in 0..w {
            for ax in 0..w {
                let atom = AtomCoord::new(ax, ay, az);
                let data = (0..3 * ATOM_POINTS).map(|i| (i % 977) as f32).collect();
                let rec = AtomRecord::new(AtomKey::new(0, atom.zindex()), 3, data)
                    .expect("3-component atom payload");
                atoms.insert(atom.zindex(), rec);
            }
        }
    }
    let domain = Box3::new([3; 3], [3 + m - 1; 3]);
    let dims = (n, n, n);
    let t = time(reps, || {
        let padded = assemble_padded(black_box(&domain), halo, dims, [true; 3], &atoms);
        black_box(padded.expect("every atom present"));
    });
    let side = (m as usize + 2 * halo) as f64;
    side.powi(3) / t / 1e6
}

/// Inverse-CDF zipf(s≈1) sampler over `universe` keys with an xorshift rng.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(universe: usize, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(universe);
        let mut total = 0.0;
        for i in 0..universe {
            total += 1.0 / ((i + 1) as f64).powf(0.99);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf, state: seed }
    }

    fn next(&mut self) -> u32 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

fn bench_pool_zipf(universe: usize, accesses: usize) -> Vec<(String, f64)> {
    const BLOCK: usize = 4096;
    // budget for a quarter of the universe: eviction pressure without thrash
    let budget = universe / 4 * BLOCK;
    let mut out = Vec::new();
    for kind in EvictionPolicyKind::all() {
        let pool: BufferPool = BufferPool::with_policy(budget, kind, None);
        let mut zipf = Zipf::new(universe, 0x7db2026);
        let mut session = tdb_storage::IoSession::new();
        for _ in 0..accesses {
            let key = BlockKey {
                file_id: 0,
                block_no: zipf.next(),
            };
            pool.get_or_load(key, &mut session, |_| {
                Ok(bytes::Bytes::from(vec![0u8; BLOCK]))
            })
            .expect("pool load");
        }
        let hits = session.pool_hits as f64;
        let total = (session.pool_hits + session.pool_misses) as f64;
        out.push((kind.name().to_string(), hits / total.max(1.0)));
    }
    out
}

fn main() {
    let smoke = std::env::var("TDB_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let (n, reps, ncodes, npos, universe, accesses) = if smoke {
        (32, 2, 1u64 << 14, 1_000, 256, 20_000)
    } else {
        (128, 5, 1u64 << 20, 20_000, 4096, 400_000)
    };
    println!("== hotpath bench (grid {n}³, smoke={smoke}) ==\n");

    let (grid, v) = velocity(n);
    let scheme = DiffScheme::new(&grid, FdOrder::O4);
    let mut padded = PaddedVector::zeros(n, n, n, scheme.halo());
    padded.fill_periodic_from(&v, [0, 0, 0]);
    let norm = DerivedField::CurlNorm.eval(&padded, &scheme, [0, 0, 0]);

    let scan = bench_scan(&norm, reps);
    println!(
        "threshold scan   scalar {:8.1} Mpts/s   chunked {:8.1} Mpts/s   ({:.2}x)",
        scan.scalar_mpts, scan.chunked_mpts, scan.speedup
    );

    let (morton_plain, morton_batched) = bench_morton(ncodes, reps);
    println!(
        "morton decode    plain  {morton_plain:8.1} Mcodes/s  batched {morton_batched:8.1} Mcodes/s   ({:.2}x)",
        morton_batched / morton_plain
    );

    let deriv = bench_deriv(&grid, &v, reps);
    println!(
        "fd derivative    ref    {:8.1} Mpts/s   chunked {:8.1} Mpts/s   ({:.2}x)",
        deriv.reference_mpts,
        deriv.chunked_mpts,
        deriv.chunked_mpts / deriv.reference_mpts
    );
    println!("curl-norm eval          {:8.1} Mpts/s", deriv.eval_mpts);

    let interp_mpts = bench_interp(&grid, &v, npos, reps);
    println!("lagrange-6 interp       {interp_mpts:8.3} Mpts/s");

    let crc_mb_s = bench_crc32(reps);
    println!("block crc32             {crc_mb_s:8.1} MB/s");

    let box_side = (n / 2) as u32;
    let assemble_h0 = bench_assemble(n, box_side, 0, reps);
    let assemble_h2 = bench_assemble(n, box_side, 2, reps);
    println!(
        "assemble_padded {box_side}³   halo 0 {assemble_h0:8.1} Mpts/s   halo 2 {assemble_h2:8.1} Mpts/s"
    );

    let pool = bench_pool_zipf(universe, accesses);
    print!("pool zipf hit-rate     ");
    for (name, rate) in &pool {
        print!("  {name} {:.1}%", rate * 100.0);
    }
    println!("\n");

    let doc = Json::obj([
        ("smoke", Json::Bool(smoke)),
        ("grid_n", Json::Num(n as f64)),
        (
            "threshold_scan",
            Json::obj([
                ("scalar_mpts_s", Json::Num(scan.scalar_mpts)),
                ("chunked_mpts_s", Json::Num(scan.chunked_mpts)),
                ("speedup", Json::Num(scan.speedup)),
            ]),
        ),
        (
            "morton_decode",
            Json::obj([
                ("plain_mcodes_s", Json::Num(morton_plain)),
                ("batched_mcodes_s", Json::Num(morton_batched)),
                ("speedup", Json::Num(morton_batched / morton_plain)),
            ]),
        ),
        (
            "fd_derivative",
            Json::obj([
                ("reference_mpts_s", Json::Num(deriv.reference_mpts)),
                ("chunked_mpts_s", Json::Num(deriv.chunked_mpts)),
                ("curlnorm_eval_mpts_s", Json::Num(deriv.eval_mpts)),
            ]),
        ),
        ("interp_mpts_s", Json::Num(interp_mpts)),
        ("crc32_mb_s", Json::Num(crc_mb_s)),
        (
            "assemble_padded",
            Json::obj([
                ("box_side", Json::Num(f64::from(box_side))),
                ("halo0_mpts_s", Json::Num(assemble_h0)),
                ("halo2_mpts_s", Json::Num(assemble_h2)),
            ]),
        ),
        (
            "pool_zipf_hit_rate",
            Json::Obj(
                pool.iter()
                    .map(|(name, rate)| (name.clone(), Json::Num(*rate)))
                    .collect(),
            ),
        ),
    ]);
    match tdb_bench::merge_into_trend("hotpath", doc) {
        Ok(path) => println!("(results merged into {path})"),
        Err(e) => eprintln!("could not write trend file: {e}"),
    }
    // the acceptance gate: the chunked scan must be meaningfully faster
    // than the per-point reference (full sizes only; smoke is too noisy)
    if !smoke && scan.speedup < 1.5 {
        eprintln!(
            "WARNING: chunked threshold scan speedup {:.2}x is below the 1.5x target",
            scan.speedup
        );
    }
}
