//! Assembling padded computation domains from atom records.
//!
//! "The data are read into memory and the particular field requested is
//! computed at each of the locations on the grid" (paper §4). A chunk's
//! computation domain is its grid box clipped to the query box, dilated by
//! the kernel half-width; this module figures out which atoms cover that
//! dilated box (wrapping on periodic axes) and scatters their payloads
//! into a [`PaddedVector`].

use std::collections::HashMap;

use tdb_field::PaddedVector;
use tdb_storage::{AtomRecord, StorageError, StorageResult};
use tdb_zorder::{AtomCoord, Box3, ATOM_WIDTH};

/// Atoms (by zindex) covering `domain` dilated by `halo`, with periodic
/// wrapping (or clamping on wall axes). Sorted and unique.
pub fn needed_atoms(
    domain: &Box3,
    halo: usize,
    dims: (usize, usize, usize),
    periodic: [bool; 3],
) -> Vec<AtomCoord> {
    let w = ATOM_WIDTH as i64;
    let dims = [dims.0 as i64, dims.1 as i64, dims.2 as i64];
    let mut axis_atoms: [Vec<i64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (((axis, &n), &per), (&lo, &hi)) in axis_atoms
        .iter_mut()
        .zip(&dims)
        .zip(&periodic)
        .zip(domain.lo.iter().zip(&domain.hi))
    {
        let lo = i64::from(lo) - halo as i64;
        let hi = i64::from(hi) + halo as i64;
        let mut set = std::collections::BTreeSet::new();
        let mut g = lo;
        while g <= hi {
            set.insert(i64::from(wrap(g, n, per)) / w);
            // jump to the start of the next atom
            g = (g.div_euclid(w) + 1) * w;
        }
        *axis = set.into_iter().collect();
    }
    let [xs, ys, zs] = &axis_atoms;
    let mut out = Vec::new();
    for &az in zs {
        for &ay in ys {
            for &ax in xs {
                out.push(AtomCoord::new(ax as u32, ay as u32, az as u32));
            }
        }
    }
    out.sort_by_key(AtomCoord::zindex);
    out.dedup();
    out
}

/// Grid coordinate `raw` on an axis of `n` points: wrapped on a periodic
/// axis, clamped to the walls otherwise.
fn wrap(raw: i64, n: i64, periodic: bool) -> u32 {
    if periodic {
        raw.rem_euclid(n) as u32
    } else {
        raw.clamp(0, n - 1) as u32
    }
}

/// A stretch of a padded x-row whose points are consecutive grid points
/// of one atom, so each component copies as one slice.
#[derive(Debug, Clone, Copy)]
struct XRun {
    /// Offset in the padded row (0 is interior `x = -halo`).
    dst: usize,
    /// Grid x of the first point.
    gx: u32,
    len: usize,
}

/// Splits a padded x-row of `len` points starting at grid `x0` into runs
/// that end at an atom edge or at the periodic seam. Clamped ghost points
/// on a wall axis repeat the edge coordinate, so each is a 1-point run.
/// Every row of a domain shares the same split.
fn x_runs(x0: i64, len: usize, n: i64, periodic: bool) -> Vec<XRun> {
    let w = ATOM_WIDTH as u32;
    let mut runs: Vec<XRun> = Vec::new();
    for dst in 0..len {
        let gx = wrap(x0 + dst as i64, n, periodic);
        match runs.last_mut() {
            Some(r) if gx == r.gx + r.len as u32 && gx % w != 0 => r.len += 1,
            _ => runs.push(XRun { dst, gx, len: 1 }),
        }
    }
    runs
}

/// Builds the padded input for a kernel over `domain` from fetched atoms.
///
/// `atoms` maps atom zindex → record; every atom returned by
/// [`needed_atoms`] must be present. Scalar fields (ncomp = 1) land in
/// component 0 of the padded vector.
///
/// Each padded (y, z) row is copied as a few x-runs (see [`x_runs`]),
/// one slice copy per run and component; rows in the same atom row share
/// their atom lookups.
///
/// A missing atom or a plane shorter than an atom is a fetch-layer
/// failure reported as a typed [`StorageError`], so it travels the proto
/// error channel instead of killing the worker thread.
pub fn assemble_padded(
    domain: &Box3,
    halo: usize,
    dims: (usize, usize, usize),
    periodic: [bool; 3],
    atoms: &HashMap<u64, AtomRecord>,
) -> StorageResult<PaddedVector<3>> {
    let (ex, ey, ez) = domain.extent3();
    let mut padded = PaddedVector::zeros(ex, ey, ez, halo);
    let [lx, ly, lz] = domain.lo.map(i64::from);
    let (nx, ny, nz) = (dims.0 as i64, dims.1 as i64, dims.2 as i64);
    let [px, py, pz] = periodic;
    let h = halo as isize;
    let runs = x_runs(lx - h as i64, ex + 2 * halo, nx, px);
    let w = ATOM_WIDTH as u32;
    // the atom under each run, valid for every row of one atom row
    let mut row_atoms: Vec<&AtomRecord> = Vec::with_capacity(runs.len());
    let mut row_key = None;
    for z in -h..(ez as isize + h) {
        let gz = wrap(lz + z as i64, nz, pz);
        for y in -h..(ey as isize + h) {
            let gy = wrap(ly + y as i64, ny, py);
            if row_key != Some((gy / w, gz / w)) {
                row_atoms.clear();
                for run in &runs {
                    let atom = AtomCoord::containing(run.gx, gy, gz);
                    let rec = atoms.get(&atom.zindex()).ok_or_else(|| {
                        StorageError::internal(format!(
                            "atom {atom:?} missing from the fetch result"
                        ))
                    })?;
                    row_atoms.push(rec);
                }
                row_key = Some((gy / w, gz / w));
            }
            // x-fastest atom payload: this row starts at (0, gy % w, gz % w)
            let row_off = ATOM_WIDTH * ((gy % w) as usize + ATOM_WIDTH * (gz % w) as usize);
            for c in 0..3 {
                let dst_row = padded.comp_mut(c).padded_row_mut(y, z);
                for (run, rec) in runs.iter().zip(&row_atoms) {
                    if c >= usize::from(rec.ncomp) {
                        continue;
                    }
                    let off = row_off + (run.gx % w) as usize;
                    let src = rec.plane(c).get(off..off + run.len).ok_or_else(|| {
                        StorageError::internal(format!(
                            "plane {c} of atom {:?} is shorter than an atom",
                            rec.key
                        ))
                    })?;
                    dst_row
                        .get_mut(run.dst..run.dst + run.len)
                        .ok_or_else(|| StorageError::internal("x-run past the padded row"))?
                        .copy_from_slice(src);
                }
            }
        }
    }
    Ok(padded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdb_storage::AtomKey;
    use tdb_zorder::ATOM_POINTS;

    /// The original per-point assembly: wrap all three coordinates, find
    /// the atom and set one value per component at every padded point.
    /// The row-copy [`assemble_padded`] must reproduce it exactly.
    fn assemble_padded_per_point(
        domain: &Box3,
        halo: usize,
        dims: (usize, usize, usize),
        periodic: [bool; 3],
        atoms: &HashMap<u64, AtomRecord>,
    ) -> PaddedVector<3> {
        let (ex, ey, ez) = domain.extent3();
        let mut padded = PaddedVector::zeros(ex, ey, ez, halo);
        let n = [dims.0 as i64, dims.1 as i64, dims.2 as i64];
        let h = halo as isize;
        for z in -h..(ez as isize + h) {
            for y in -h..(ey as isize + h) {
                for x in -h..(ex as isize + h) {
                    let mut g = [0u32; 3];
                    for (axis, local) in [x, y, z].into_iter().enumerate() {
                        let raw = i64::from(domain.lo[axis]) + local as i64;
                        g[axis] = if periodic[axis] {
                            raw.rem_euclid(n[axis]) as u32
                        } else {
                            raw.clamp(0, n[axis] - 1) as u32
                        };
                    }
                    let [gx, gy, gz] = g;
                    let atom = AtomCoord::containing(gx, gy, gz);
                    let rec = &atoms[&atom.zindex()];
                    let off = atom.point_offset(gx, gy, gz).unwrap();
                    for c in 0..usize::from(rec.ncomp).min(3) {
                        padded.comp_mut(c).set(x, y, z, rec.plane(c)[off]);
                    }
                }
            }
        }
        padded
    }

    /// Builds an atom map over a whole grid where component `c` at global
    /// point (x,y,z) stores `c*1e6 + x + 10y + 100z`.
    fn atom_map(dims: (usize, usize, usize), ncomp: u8) -> HashMap<u64, AtomRecord> {
        let mut out = HashMap::new();
        for az in 0..(dims.2 / ATOM_WIDTH) as u32 {
            for ay in 0..(dims.1 / ATOM_WIDTH) as u32 {
                for ax in 0..(dims.0 / ATOM_WIDTH) as u32 {
                    let atom = AtomCoord::new(ax, ay, az);
                    let mut data = vec![0.0f32; usize::from(ncomp) * ATOM_POINTS];
                    for (gx, gy, gz) in atom.grid_points() {
                        let off = atom.point_offset(gx, gy, gz).unwrap();
                        for c in 0..usize::from(ncomp) {
                            data[c * ATOM_POINTS + off] =
                                (c as f32) * 1e6 + (gx + 10 * gy + 100 * gz) as f32;
                        }
                    }
                    out.insert(
                        atom.zindex(),
                        AtomRecord::new(AtomKey::new(0, atom.zindex()), ncomp, data).unwrap(),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn needed_atoms_interior_no_halo() {
        let domain = Box3::new([8, 8, 8], [15, 15, 15]);
        let atoms = needed_atoms(&domain, 0, (32, 32, 32), [true; 3]);
        assert_eq!(atoms, vec![AtomCoord::new(1, 1, 1)]);
    }

    #[test]
    fn needed_atoms_with_halo_spans_neighbours() {
        let domain = Box3::new([8, 8, 8], [15, 15, 15]);
        let atoms = needed_atoms(&domain, 2, (32, 32, 32), [true; 3]);
        assert_eq!(atoms.len(), 27, "3x3x3 atom neighbourhood");
    }

    #[test]
    fn needed_atoms_wraps_periodically() {
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let atoms = needed_atoms(&domain, 1, (32, 32, 32), [true; 3]);
        // neighbours at -1 wrap to lattice coordinate 3
        assert!(atoms.contains(&AtomCoord::new(3, 0, 0)));
        assert!(atoms.contains(&AtomCoord::new(3, 3, 3)));
        assert_eq!(atoms.len(), 27);
    }

    #[test]
    fn needed_atoms_clamps_on_walls() {
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let atoms = needed_atoms(&domain, 1, (32, 32, 32), [true, false, true]);
        // y neighbours clamp to the wall: only y-lattice 0 and 1 appear
        assert!(atoms.iter().all(|a| a.y <= 1));
        assert_eq!(atoms.len(), 3 * 2 * 3);
    }

    #[test]
    fn assemble_matches_source_values() {
        let dims = (32, 32, 32);
        let atoms = atom_map(dims, 3);
        let domain = Box3::new([8, 16, 8], [15, 23, 15]);
        let p = assemble_padded(&domain, 2, dims, [true; 3], &atoms).unwrap();
        // interior point
        let v = p.at(0, 0, 0);
        assert_eq!(v[0], (8 + 160 + 800) as f32);
        assert_eq!(v[1], 1e6 + 968.0);
        // halo point wraps/reads neighbour atoms
        let v = p.at(-2, -1, 7);
        assert_eq!(v[0], (6 + 10 * 15 + 100 * 15) as f32);
    }

    #[test]
    fn assemble_periodic_wrap_at_edge() {
        let dims = (16, 16, 16);
        let atoms = atom_map(dims, 1);
        let domain = Box3::new([8, 8, 8], [15, 15, 15]);
        let p = assemble_padded(&domain, 2, dims, [true; 3], &atoms).unwrap();
        // ghost at local x = 8 (global 16) wraps to x = 0
        assert_eq!(p.at(8, 0, 0)[0], (80 + 800) as f32);
        // scalar input: components 1, 2 stay zero
        assert_eq!(p.at(0, 0, 0)[1], 0.0);
        assert_eq!(p.at(0, 0, 0)[2], 0.0);
    }

    #[test]
    fn assemble_errors_on_missing_atom() {
        let dims = (16, 16, 16);
        let mut atoms = atom_map(dims, 1);
        atoms.remove(&AtomCoord::new(0, 0, 0).zindex());
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let err = assemble_padded(&domain, 0, dims, [true; 3], &atoms)
            .expect_err("missing atom must be a typed error");
        assert!(
            err.to_string().contains("missing from the fetch result"),
            "{err}"
        );
    }

    #[test]
    fn assemble_errors_on_short_plane() {
        let dims = (16, 16, 16);
        let mut atoms = atom_map(dims, 3);
        let victim = AtomCoord::new(1, 1, 1).zindex();
        if let Some(rec) = atoms.get_mut(&victim) {
            rec.data.truncate(2 * ATOM_POINTS + 100);
        }
        let domain = Box3::new([8, 8, 8], [15, 15, 15]);
        let err = assemble_padded(&domain, 1, dims, [true; 3], &atoms)
            .expect_err("a short plane must be a typed error");
        assert!(err.to_string().contains("shorter than an atom"), "{err}");
    }

    #[test]
    fn wall_axis_clamps_ghosts_to_the_edge() {
        let dims = (16, 16, 16);
        let atoms = atom_map(dims, 1);
        let domain = Box3::new([0, 0, 0], [7, 7, 7]);
        let p = assemble_padded(&domain, 3, dims, [false, true, true], &atoms).unwrap();
        // x ghosts below the wall repeat grid x = 0
        for x in -3..0 {
            assert_eq!(p.at(x, 2, 2)[0], p.at(0, 2, 2)[0]);
        }
        assert_eq!(
            p,
            assemble_padded_per_point(&domain, 3, dims, [false, true, true], &atoms)
        );
    }

    fn axis_len() -> impl Strategy<Value = usize> {
        prop_oneof![Just(8usize), Just(16), Just(24), Just(32)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn row_copy_matches_per_point(
            nx in axis_len(),
            ny in axis_len(),
            nz in axis_len(),
            lo in prop::array::uniform3(0u32..32),
            ext in prop::array::uniform3(1u32..20),
            periodic in prop::array::uniform3(any::<bool>()),
            halo in 0usize..=4,
            three in any::<bool>(),
        ) {
            let dims = (nx, ny, nz);
            let n = [nx as u32, ny as u32, nz as u32];
            let mut blo = [0u32; 3];
            let mut bhi = [0u32; 3];
            for a in 0..3 {
                blo[a] = lo[a] % n[a];
                // periodic boxes may run across the seam; wall boxes stop
                // at the last grid point
                let hi = blo[a] + ext[a] - 1;
                bhi[a] = if periodic[a] { hi } else { hi.min(n[a] - 1) };
            }
            let domain = Box3::new(blo, bhi);
            let atoms = atom_map(dims, if three { 3 } else { 1 });
            let got = assemble_padded(&domain, halo, dims, periodic, &atoms).unwrap();
            let want = assemble_padded_per_point(&domain, halo, dims, periodic, &atoms);
            prop_assert!(got == want, "{domain:?} halo {halo} periodic {periodic:?} dims {dims:?}");
        }
    }
}
