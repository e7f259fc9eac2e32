//! The answer oracle: every expected answer computed from the dense,
//! regenerated fields (`SyntheticDataset::generate` + `DerivedField::eval`
//! over the whole periodic grid), with no storage, cluster, cache or wire
//! code on the path.

use std::collections::HashMap;

use tdb_cache::ThresholdPoint;
use tdb_field::{Histogram, PaddedVector, ScalarField};
use tdb_kernels::scan::{pdf_scan_clip, threshold_scan_clip};
use tdb_kernels::{DiffScheme, FdOrder};
use tdb_turbgen::SyntheticDataset;
use tdb_zorder::{decode3, Box3};

use crate::workload::{keys, Key, Kind, Query, Region, Spec, GRID, PDF_BINS, TOPK};

/// Fixed PDF binning of one key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdfBins {
    pub origin: f64,
    pub width: f64,
    pub nbins: u32,
}

#[derive(Debug)]
struct TopKExpect {
    /// The k largest values, descending.
    values: Vec<f32>,
    /// Every point whose value ties or beats the k-th largest.
    candidates: HashMap<u64, u32>,
    /// One valid answer (ties broken by zindex), for the self-test.
    example: Vec<ThresholdPoint>,
}

#[derive(Debug, Default)]
struct KeyAnswers {
    /// Threshold of each selectivity tier.
    thresholds: Vec<f64>,
    /// Whole-grid answer of each tier as `(zindex, value bits)`, sorted.
    points: Vec<Vec<(u64, u32)>>,
    topk: Option<TopKExpect>,
    pdf: Option<(PdfBins, Vec<u64>)>,
}

/// An answer as received, for checking.
pub enum Answer<'a> {
    Points(&'a [ThresholdPoint]),
    Counts(&'a [u64]),
}

pub struct Oracle {
    answers: HashMap<Key, KeyAnswers>,
}

/// The exact `1 - fraction` quantile of the sorted values: the pivot
/// `TurbulenceService::threshold_for_fraction` selects.
fn threshold_of(sorted: &[f32], fraction: f64) -> f64 {
    let k = ((sorted.len() as f64) * fraction).round() as usize;
    let k = k.clamp(1, sorted.len());
    f64::from(sorted[sorted.len() - k])
}

fn full_box() -> Box3 {
    Box3::grid(GRID, GRID, GRID)
}

fn scan(norm: &ScalarField, threshold: f64) -> Vec<(u64, u32)> {
    let full = full_box();
    let mut hits = Vec::new();
    threshold_scan_clip(norm, &full, &full, threshold, &mut hits);
    let mut out: Vec<(u64, u32)> = hits.into_iter().map(|(z, v)| (z, v.to_bits())).collect();
    out.sort_unstable();
    out
}

fn answers_for(norm: &ScalarField, spec: &Spec, topk: bool, pdf: bool) -> KeyAnswers {
    let mut sorted = norm.as_slice().to_vec();
    sorted.sort_unstable_by(f32::total_cmp);
    let thresholds: Vec<f64> = spec
        .tiers
        .iter()
        .map(|&f| threshold_of(&sorted, f))
        .collect();
    let points = thresholds.iter().map(|&t| scan(norm, t)).collect();
    let topk = topk.then(|| {
        let values: Vec<f32> = sorted.iter().rev().take(TOPK as usize).copied().collect();
        let kth = values.last().copied().unwrap_or(f32::NEG_INFINITY);
        let candidates = scan(norm, f64::from(kth));
        let mut example: Vec<ThresholdPoint> = candidates
            .iter()
            .map(|&(zindex, bits)| ThresholdPoint {
                zindex,
                value: f32::from_bits(bits),
            })
            .collect();
        example.sort_by(|a, b| b.value.total_cmp(&a.value).then(a.zindex.cmp(&b.zindex)));
        example.truncate(TOPK as usize);
        TopKExpect {
            values,
            candidates: candidates.into_iter().collect(),
            example,
        }
    });
    let pdf = pdf.then(|| {
        let (lo, hi) = (f64::from(sorted[0]), f64::from(sorted[sorted.len() - 1]));
        let width = if hi > lo {
            (hi - lo) / f64::from(PDF_BINS)
        } else {
            1.0
        };
        let bins = PdfBins {
            origin: lo,
            width,
            nbins: PDF_BINS,
        };
        let full = full_box();
        let mut hist = Histogram::new(lo, width, PDF_BINS as usize);
        pdf_scan_clip(norm, &full, &full, &mut hist);
        (bins, hist.counts().to_vec())
    });
    KeyAnswers {
        thresholds,
        points,
        topk,
        pdf,
    }
}

fn sorted_bits(points: &[ThresholdPoint]) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = points
        .iter()
        .map(|p| (p.zindex, p.value.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

fn in_region(zindex: u64, region: Region) -> bool {
    match region.query_box() {
        None => true,
        Some(b) => {
            let (x, y, z) = decode3(zindex);
            b.contains_point(x, y, z)
        }
    }
}

impl Oracle {
    /// Regenerates every timestep of `dataset` and precomputes the
    /// expected answer of each distinct request of the workload. Runs on
    /// two threads (timesteps split between them).
    pub fn build(
        dataset: &SyntheticDataset,
        fd_order: FdOrder,
        spec: &Spec,
        topk: bool,
        pdf: bool,
    ) -> Oracle {
        let scheme = DiffScheme::new(&dataset.grid, fd_order);
        let per_step = |t: u32| -> Vec<(Key, KeyAnswers)> {
            let step = dataset.generate(t);
            let mut out = Vec::new();
            for key in keys(spec).into_iter().filter(|k| k.timestep == t) {
                let Some((_, data)) = step.fields.iter().find(|(n, _)| *n == key.field) else {
                    continue;
                };
                let data = data.as_vector3();
                let (nx, ny, nz) = data.dims();
                let mut padded = PaddedVector::zeros(nx, ny, nz, key.derived.halo(&scheme));
                padded.fill_periodic_from(&data, [0, 0, 0]);
                let norm = key.derived.eval(&padded, &scheme, [0, 0, 0]);
                out.push((key, answers_for(&norm, spec, topk, pdf)));
            }
            out
        };
        let answers = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u32)
                .map(|w| {
                    let per_step = &per_step;
                    s.spawn(move || {
                        (w..spec.timesteps)
                            .step_by(2)
                            .flat_map(per_step)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("oracle worker panicked"))
                .collect()
        });
        Oracle { answers }
    }

    fn key(&self, key: &Key) -> &KeyAnswers {
        self.answers
            .get(key)
            .expect("every workload key has precomputed answers")
    }

    /// Threshold of a selectivity tier.
    pub fn threshold(&self, key: &Key, tier: usize) -> f64 {
        self.key(key).thresholds[tier]
    }

    /// Fixed PDF binning of a key.
    pub fn pdf_bins(&self, key: &Key) -> PdfBins {
        self.key(key)
            .pdf
            .as_ref()
            .expect("pdf answers precomputed")
            .0
    }

    /// Number of points the whole-grid answer of a tier holds.
    pub fn tier_points(&self, key: &Key, tier: usize) -> usize {
        self.key(key).points[tier].len()
    }

    /// Checks an answer against the dense computation: threshold points
    /// as sorted `(zindex, value bits)`, top-k as the k largest values at
    /// their true locations, PDF counts exactly.
    pub fn check(&self, q: &Query, answer: Answer<'_>) -> Result<(), String> {
        let exp = self.key(&q.key);
        match (q.kind, answer) {
            (Kind::Threshold { tier, region, .. }, Answer::Points(points)) => {
                let got = sorted_bits(points);
                let want = exp.points[tier]
                    .iter()
                    .filter(|(z, _)| in_region(*z, region));
                let mut n = 0usize;
                for (i, w) in want.enumerate() {
                    n += 1;
                    if got.get(i) != Some(w) {
                        return Err(format!(
                            "{q:?}: point {i} is {:?}, expected {w:?}",
                            got.get(i)
                        ));
                    }
                }
                if got.len() != n {
                    return Err(format!("{q:?}: {} points, expected {n}", got.len()));
                }
                Ok(())
            }
            (Kind::TopK, Answer::Points(points)) => {
                let exp = exp.topk.as_ref().ok_or("top-k answers not precomputed")?;
                for p in points {
                    if exp.candidates.get(&p.zindex) != Some(&p.value.to_bits()) {
                        return Err(format!("{q:?}: {p:?} is not among the top {TOPK}"));
                    }
                }
                let mut values: Vec<f32> = points.iter().map(|p| p.value).collect();
                values.sort_unstable_by(|a, b| b.total_cmp(a));
                let same = values.len() == exp.values.len()
                    && values
                        .iter()
                        .zip(&exp.values)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return Err(format!("{q:?}: top-{TOPK} values differ"));
                }
                Ok(())
            }
            (Kind::Pdf, Answer::Counts(counts)) => {
                let (_, want) = exp.pdf.as_ref().ok_or("pdf answers not precomputed")?;
                if counts != want.as_slice() {
                    return Err(format!("{q:?}: pdf counts differ"));
                }
                Ok(())
            }
            (kind, _) => Err(format!("{kind:?}: answer of the wrong kind")),
        }
    }

    /// Proves the checker rejects a perturbed answer: for one request of
    /// each kind the oracle holds, its exact answer must pass and the same
    /// answer with one value's lowest bit flipped (or one PDF count moved)
    /// must fail.
    pub fn self_test(&self) -> Result<(), String> {
        let mut keys: Vec<&Key> = self.answers.keys().collect();
        keys.sort_by_key(|k| (k.timestep, k.field, k.derived.name()));
        let key = **keys.first().ok_or("oracle is empty")?;
        let exp = self.key(&key);
        let flip = |p: &mut ThresholdPoint| p.value = f32::from_bits(p.value.to_bits() ^ 1);
        let mut tested = 0;
        // the first tier that holds points
        if let Some(tier) = (0..exp.points.len()).find(|&t| !exp.points[t].is_empty()) {
            let q = Query {
                key,
                kind: Kind::Threshold {
                    tier,
                    region: Region::Full,
                    use_cache: false,
                },
            };
            let mut pts: Vec<ThresholdPoint> = exp.points[tier]
                .iter()
                .map(|&(zindex, bits)| ThresholdPoint {
                    zindex,
                    value: f32::from_bits(bits),
                })
                .collect();
            self.check(&q, Answer::Points(&pts))?;
            let mid = pts.len() / 2;
            flip(&mut pts[mid]);
            if self.check(&q, Answer::Points(&pts)).is_ok() {
                return Err("a flipped threshold value passed the oracle".into());
            }
            tested += 1;
        }
        if let Some(topk) = &exp.topk {
            let q = Query {
                key,
                kind: Kind::TopK,
            };
            let mut pts = topk.example.clone();
            self.check(&q, Answer::Points(&pts))?;
            flip(&mut pts[0]);
            if self.check(&q, Answer::Points(&pts)).is_ok() {
                return Err("a flipped top-k value passed the oracle".into());
            }
            tested += 1;
        }
        if let Some((_, counts)) = &exp.pdf {
            let q = Query {
                key,
                kind: Kind::Pdf,
            };
            let mut c = counts.clone();
            self.check(&q, Answer::Counts(&c))?;
            let bin = c.iter().position(|&n| n > 0).unwrap_or(0);
            c[bin] -= 1;
            let next = (bin + 1) % c.len();
            c[next] += 1;
            if self.check(&q, Answer::Counts(&c)).is_ok() {
                return Err("a moved pdf count passed the oracle".into());
            }
            tested += 1;
        }
        if tested == 0 {
            return Err("self-test found nothing to perturb".into());
        }
        Ok(())
    }
}
