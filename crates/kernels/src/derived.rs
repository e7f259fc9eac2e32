//! The catalogue of threshold-able fields.
//!
//! "The stored procedure performing the evaluation must have an
//! implementation for each derived field of interest" (paper §7). This
//! module is that catalogue: each variant knows its kernel half-width and
//! how to evaluate the *thresholded quantity* (the norm or absolute value
//! the paper compares against `k`) over a padded chunk.

use crate::diff::DiffScheme;
use tdb_field::{PaddedVector, ScalarField, VectorField};

/// A field whose norm (or absolute value) can be thresholded.
///
/// `Norm` is the raw-field case of the paper's Fig. 9(c)/(f): no kernel, no
/// halo, no additional computation. The others are genuinely derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DerivedField {
    /// Euclidean norm of the stored (raw) field itself.
    Norm,
    /// Norm of the curl. Applied to velocity this is the vorticity norm;
    /// applied to the magnetic field it is the electric-current norm.
    CurlNorm,
    /// Second invariant `Q = ½(‖Ω‖² − ‖S‖²)` of the velocity gradient — a
    /// non-linear combination of all nine gradient components (paper §5.4).
    QCriterion,
    /// Third invariant `R = −det(∇u)` of the velocity gradient.
    RInvariant,
    /// Frobenius norm of the full velocity-gradient tensor.
    GradientNorm,
    /// Norm of the strain-rate tensor `S = ½(∇u + ∇uᵀ)`.
    StrainRateNorm,
    /// Divergence (absolute value) — useful as a solenoidality diagnostic.
    DivergenceAbs,
    /// Norm of the box-filtered field (top-hat of half-width `radius`
    /// grid points per axis) — the JHTDB's filtered quantities.
    BoxFilteredNorm { radius: u8 },
    /// Norm of the component-wise Laplacian `∇²u` (diffusion-term
    /// intensity).
    LaplacianNorm,
}

impl DerivedField {
    /// Every supported field.
    pub fn all() -> [DerivedField; 8] {
        [
            DerivedField::Norm,
            DerivedField::CurlNorm,
            DerivedField::QCriterion,
            DerivedField::RInvariant,
            DerivedField::GradientNorm,
            DerivedField::StrainRateNorm,
            DerivedField::DivergenceAbs,
            DerivedField::LaplacianNorm,
        ]
    }

    /// Stable identifier used for cache keys and wire messages.
    pub fn name(&self) -> String {
        match self {
            DerivedField::Norm => "norm".into(),
            DerivedField::CurlNorm => "curl_norm".into(),
            DerivedField::QCriterion => "q_criterion".into(),
            DerivedField::RInvariant => "r_invariant".into(),
            DerivedField::GradientNorm => "gradient_norm".into(),
            DerivedField::StrainRateNorm => "strain_rate_norm".into(),
            DerivedField::DivergenceAbs => "divergence_abs".into(),
            DerivedField::BoxFilteredNorm { radius } => format!("box_filtered_norm:{radius}"),
            DerivedField::LaplacianNorm => "laplacian_norm".into(),
        }
    }

    /// Parses a [`DerivedField::name`] string.
    pub fn parse(s: &str) -> Option<DerivedField> {
        if let Some(r) = s.strip_prefix("box_filtered_norm:") {
            let radius: u8 = r.parse().ok().filter(|&r| r >= 1)?;
            return Some(DerivedField::BoxFilteredNorm { radius });
        }
        Self::all().into_iter().find(|f| f.name() == s)
    }

    /// Kernel half-width: the band of neighbour data needed on every side
    /// of the computation domain (paper §4). Raw-field norms need none.
    pub fn halo(&self, scheme: &DiffScheme) -> usize {
        match self {
            DerivedField::Norm => 0,
            DerivedField::BoxFilteredNorm { radius } => usize::from(*radius),
            _ => scheme.halo(),
        }
    }

    /// Whether evaluating the field requires differentiation (used by the
    /// execution-time breakdown: raw fields skip the compute phase).
    pub fn needs_kernel(&self) -> bool {
        !matches!(self, DerivedField::Norm)
    }

    /// Evaluates the thresholded quantity over the interior of a padded
    /// chunk whose interior origin is at global coordinates `origin`.
    pub fn eval(
        &self,
        input: &PaddedVector<3>,
        scheme: &DiffScheme,
        origin: [usize; 3],
    ) -> ScalarField {
        match self {
            DerivedField::Norm => {
                // Row-chunked: three flat component rows in, one flat output
                // row out, no per-point gather through `input.at`. The f32
                // operation order matches the scalar form exactly.
                let (nx, ny, nz) = input.dims();
                let h = input.halo();
                let mut out = ScalarField::zeros(nx, ny, nz);
                for z in 0..nz {
                    for y in 0..ny {
                        let (yi, zi) = (y as isize, z as isize);
                        let r0 = &input.comp(0).padded_row(yi, zi)[h..h + nx];
                        let r1 = &input.comp(1).padded_row(yi, zi)[h..h + nx];
                        let r2 = &input.comp(2).padded_row(yi, zi)[h..h + nx];
                        let start = nx * (y + ny * z);
                        let dst = &mut out.as_mut_slice()[start..start + nx];
                        for (((d, &a), &b), &c) in dst.iter_mut().zip(r0).zip(r1).zip(r2) {
                            *d = (a * a + b * b + c * c).sqrt();
                        }
                    }
                }
                out
            }
            DerivedField::CurlNorm => scheme.curl_padded(input, origin).norm(),
            DerivedField::QCriterion => {
                let g = scheme.grad_padded(input, origin);
                map_gradient(&g, q_of_gradient)
            }
            DerivedField::RInvariant => {
                let g = scheme.grad_padded(input, origin);
                map_gradient(&g, r_of_gradient)
            }
            DerivedField::GradientNorm => {
                let g = scheme.grad_padded(input, origin);
                map_gradient(&g, |a| a.iter().map(|v| v * v).sum::<f32>().sqrt())
            }
            DerivedField::StrainRateNorm => {
                let g = scheme.grad_padded(input, origin);
                map_gradient(&g, strain_norm_of_gradient)
            }
            DerivedField::DivergenceAbs => {
                let mut d = scheme.divergence_padded(input, origin);
                d.map_inplace(f32::abs);
                d
            }
            DerivedField::LaplacianNorm => {
                let comps: [ScalarField; 3] =
                    std::array::from_fn(|c| scheme.laplacian_padded(input.comp(c), origin));
                VectorField::from_components(comps).norm()
            }
            DerivedField::BoxFilteredNorm { radius } => {
                let filt = crate::filter::SeparableFilter::box_filter(usize::from(*radius));
                let mut comps = filt.apply_vector(input).into_iter();
                let v = VectorField::<3>::from_components(std::array::from_fn(|_| {
                    comps.next().expect("three components")
                }));
                v.norm()
            }
        }
    }
}

fn map_gradient(g: &[ScalarField; 9], f: impl Fn(&[f32; 9]) -> f32) -> ScalarField {
    let (nx, ny, nz) = g[0].dims();
    let mut out = ScalarField::zeros(nx, ny, nz);
    let planes: [&[f32]; 9] = std::array::from_fn(|k| g[k].as_slice());
    let dst = out.as_mut_slice();
    for (i, d) in dst.iter_mut().enumerate() {
        let a: [f32; 9] = std::array::from_fn(|k| planes[k][i]);
        *d = f(&a);
    }
    out
}

/// `Q = ½(‖Ω‖² − ‖S‖²)` where `S`/`Ω` are the symmetric/antisymmetric parts
/// of the velocity gradient `a[3i+j] = ∂u_i/∂x_j`.
#[inline]
pub fn q_of_gradient(a: &[f32; 9]) -> f32 {
    let mut s2 = 0.0f32;
    let mut o2 = 0.0f32;
    for i in 0..3 {
        for j in 0..3 {
            let s = 0.5 * (a[3 * i + j] + a[3 * j + i]);
            let o = 0.5 * (a[3 * i + j] - a[3 * j + i]);
            s2 += s * s;
            o2 += o * o;
        }
    }
    0.5 * (o2 - s2)
}

/// `R = −det(∇u)`.
#[inline]
pub fn r_of_gradient(a: &[f32; 9]) -> f32 {
    let det = a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6])
        + a[2] * (a[3] * a[7] - a[4] * a[6]);
    -det
}

/// `‖S‖ = sqrt(Σ S_ij²)`.
#[inline]
pub fn strain_norm_of_gradient(a: &[f32; 9]) -> f32 {
    let mut s2 = 0.0f32;
    for i in 0..3 {
        for j in 0..3 {
            let s = 0.5 * (a[3 * i + j] + a[3 * j + i]);
            s2 += s * s;
        }
    }
    s2.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::FdOrder;
    use std::f64::consts::TAU;
    use tdb_field::{Grid3, ScalarField};

    fn padded(v: &VectorField<3>, h: usize) -> PaddedVector<3> {
        let (nx, ny, nz) = v.dims();
        let mut p = PaddedVector::zeros(nx, ny, nz, h);
        p.fill_periodic_from(v, [0, 0, 0]);
        p
    }

    #[test]
    fn names_roundtrip() {
        for f in DerivedField::all() {
            assert_eq!(DerivedField::parse(&f.name()), Some(f));
        }
        assert_eq!(DerivedField::parse("bogus"), None);
        // parameterized filtered norms roundtrip too
        let f = DerivedField::BoxFilteredNorm { radius: 2 };
        assert_eq!(f.name(), "box_filtered_norm:2");
        assert_eq!(DerivedField::parse("box_filtered_norm:2"), Some(f));
        assert_eq!(DerivedField::parse("box_filtered_norm:0"), None);
        assert_eq!(DerivedField::parse("box_filtered_norm:x"), None);
    }

    #[test]
    fn box_filtered_norm_smooths_and_preserves_constants() {
        let grid = Grid3::periodic_cube(16, TAU);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let f = DerivedField::BoxFilteredNorm { radius: 2 };
        assert_eq!(f.halo(&scheme), 2);
        // constant field: filtered norm equals the constant's norm
        let c = ScalarField::from_fn(16, 16, 16, |_, _, _| 3.0);
        let v = VectorField::from_components([
            c,
            ScalarField::from_fn(16, 16, 16, |_, _, _| 4.0),
            ScalarField::zeros(16, 16, 16),
        ]);
        let p = padded(&v, 2);
        let out = f.eval(&p, &scheme, [0, 0, 0]);
        for val in out.as_slice() {
            assert!((val - 5.0).abs() < 1e-4);
        }
        // oscillating field: filtering reduces the norm
        let osc = ScalarField::from_fn(16, 16, 16, |x, _, _| if x % 2 == 0 { 1.0 } else { -1.0 });
        let v = VectorField::from_components([
            osc,
            ScalarField::zeros(16, 16, 16),
            ScalarField::zeros(16, 16, 16),
        ]);
        let p = padded(&v, 2);
        let out = f.eval(&p, &scheme, [0, 0, 0]);
        let max = out.as_slice().iter().fold(0.0f32, |m, &v| m.max(v));
        assert!(max < 0.5, "filtered oscillation should shrink, max {max}");
    }

    #[test]
    fn norm_needs_no_halo_or_kernel() {
        let grid = Grid3::periodic_cube(8, TAU);
        let scheme = DiffScheme::new(&grid, FdOrder::O8);
        assert_eq!(DerivedField::Norm.halo(&scheme), 0);
        assert!(!DerivedField::Norm.needs_kernel());
        assert_eq!(DerivedField::CurlNorm.halo(&scheme), 4);
        assert!(DerivedField::QCriterion.needs_kernel());
    }

    #[test]
    fn q_and_r_of_pure_rotation() {
        // Solid-body rotation about z: u = (-y, x, 0); ∇u antisymmetric,
        // S = 0, ‖Ω‖² = 2, so Q = 1. R = -det = 0.
        let a: [f32; 9] = [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!((q_of_gradient(&a) - 1.0).abs() < 1e-6);
        assert!(r_of_gradient(&a).abs() < 1e-6);
        assert!(strain_norm_of_gradient(&a).abs() < 1e-6);
    }

    #[test]
    fn q_of_pure_strain_is_negative() {
        // u = (x, -y, 0): symmetric gradient, Q = -½‖S‖² = -1, Ω = 0.
        let a: [f32; 9] = [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        assert!((q_of_gradient(&a) + 1.0).abs() < 1e-6);
        assert!((strain_norm_of_gradient(&a) - 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn r_of_uniform_expansion() {
        // ∇u = I: det = 1, R = -1.
        let a: [f32; 9] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        assert!((r_of_gradient(&a) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn curl_norm_matches_analytic_vorticity() {
        // Taylor-Green-like: u = (sin x cos y, -cos x sin y, 0)
        // ω_z = ∂u_y/∂x - ∂u_x/∂y = sin x sin y + sin x sin y = 2 sin x sin y
        let n = 32;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        let vx = ScalarField::from_fn(n, n, n, |x, y, _| {
            ((h * x as f64).sin() * (h * y as f64).cos()) as f32
        });
        let vy = ScalarField::from_fn(n, n, n, |x, y, _| {
            (-(h * x as f64).cos() * (h * y as f64).sin()) as f32
        });
        let v = VectorField::from_components([vx, vy, ScalarField::zeros(n, n, n)]);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let p = padded(&v, scheme.halo());
        let w = DerivedField::CurlNorm.eval(&p, &scheme, [0, 0, 0]);
        for (x, y) in [(3, 5), (10, 20), (17, 9)] {
            let expect = (2.0 * (h * x as f64).sin() * (h * y as f64).sin()).abs();
            let got = f64::from(w.get(x, y, 7));
            assert!((got - expect).abs() < 1e-3, "({x},{y}): {got} vs {expect}");
        }
    }

    #[test]
    fn gradient_norm_vs_strain_plus_rotation() {
        // ‖∇u‖² = ‖S‖² + ‖Ω‖² pointwise.
        let n = 16;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        let mk = |kx: f64, ky: f64, kz: f64, phase: f64| {
            ScalarField::from_fn(n, n, n, |x, y, z| {
                ((kx * h * x as f64 + ky * h * y as f64 + kz * h * z as f64 + phase).sin()) as f32
            })
        };
        let v = VectorField::from_components([
            mk(1.0, 2.0, 0.0, 0.3),
            mk(0.0, 1.0, 2.0, 1.1),
            mk(2.0, 0.0, 1.0, 2.2),
        ]);
        let scheme = DiffScheme::new(&grid, FdOrder::O6);
        let p = padded(&v, scheme.halo());
        let gn = DerivedField::GradientNorm.eval(&p, &scheme, [0, 0, 0]);
        let sn = DerivedField::StrainRateNorm.eval(&p, &scheme, [0, 0, 0]);
        let q = DerivedField::QCriterion.eval(&p, &scheme, [0, 0, 0]);
        for (x, y, z) in [(0, 0, 0), (5, 3, 8), (12, 15, 1)] {
            let g2 = f64::from(gn.get(x, y, z)).powi(2);
            let s2 = f64::from(sn.get(x, y, z)).powi(2);
            // Q = ½(‖Ω‖² - ‖S‖²) and ‖Ω‖² = g² - s² ⇒ Q = ½(g² - 2s²)
            let expect_q = 0.5 * (g2 - 2.0 * s2);
            let got_q = f64::from(q.get(x, y, z));
            assert!((got_q - expect_q).abs() < 1e-3 * (1.0 + expect_q.abs()));
        }
    }

    #[test]
    fn laplacian_norm_of_sine_waves_is_analytic() {
        // u = (sin x, sin 2y, 0): ∇²u = (-sin x, -4 sin 2y, 0)
        let n = 32;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        let vx = ScalarField::from_fn(n, n, n, |x, _, _| (h * x as f64).sin() as f32);
        let vy = ScalarField::from_fn(n, n, n, |_, y, _| (2.0 * h * y as f64).sin() as f32);
        let v = VectorField::from_components([vx, vy, ScalarField::zeros(n, n, n)]);
        let scheme = DiffScheme::new(&grid, FdOrder::O6);
        let p = padded(&v, scheme.halo());
        let out = DerivedField::LaplacianNorm.eval(&p, &scheme, [0, 0, 0]);
        for (x, y) in [(3usize, 5usize), (10, 20), (30, 1)] {
            let lx = -(h * x as f64).sin();
            let ly = -4.0 * (2.0 * h * y as f64).sin();
            let expect = (lx * lx + ly * ly).sqrt();
            let got = f64::from(out.get(x, y, 9));
            assert!((got - expect).abs() < 1e-3, "({x},{y}): {got} vs {expect}");
        }
    }

    #[test]
    fn divergence_abs_of_solenoidal_field_vanishes() {
        let n = 16;
        let grid = Grid3::periodic_cube(n, TAU);
        let h = TAU / n as f64;
        // u = (sin y, sin z, sin x) is divergence-free
        let vx = ScalarField::from_fn(n, n, n, |_, y, _| (h * y as f64).sin() as f32);
        let vy = ScalarField::from_fn(n, n, n, |_, _, z| (h * z as f64).sin() as f32);
        let vz = ScalarField::from_fn(n, n, n, |x, _, _| (h * x as f64).sin() as f32);
        let v = VectorField::from_components([vx, vy, vz]);
        let scheme = DiffScheme::new(&grid, FdOrder::O4);
        let p = padded(&v, scheme.halo());
        let d = DerivedField::DivergenceAbs.eval(&p, &scheme, [0, 0, 0]);
        let max = d.as_slice().iter().fold(0.0f32, |m, &v| m.max(v));
        assert!(max < 1e-5);
    }
}
