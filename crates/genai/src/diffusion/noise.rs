//! Seeded value noise and fractional Brownian motion, the spatial
//! randomness source of the procedural generator.

use crate::fnv1a;

/// Hash lattice coordinates to a value in `[-1, 1]`.
fn lattice(seed: u64, xi: i64, yi: i64) -> f64 {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&seed.to_le_bytes());
    buf[8..16].copy_from_slice(&xi.to_le_bytes());
    buf[16..].copy_from_slice(&yi.to_le_bytes());
    let h = fnv1a(&buf);
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Bilinear smoothstep blend of the four lattice corners around `(x, y)`;
/// `corner(xi, yi)` supplies the lattice value. The one interpolation
/// expression behind both [`value_noise`] and [`FbmTable`].
#[inline(always)]
fn blend(x: f64, y: f64, corner: impl Fn(i64, i64) -> f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = smoothstep(x - x0);
    let fy = smoothstep(y - y0);
    // `as` saturates huge and non-finite coordinates; the wrapping step
    // past `i64::MAX` is what release builds always computed.
    let (xi, yi) = (x0 as i64, y0 as i64);
    let (xj, yj) = (xi.wrapping_add(1), yi.wrapping_add(1));
    let v00 = corner(xi, yi);
    let v10 = corner(xj, yi);
    let v01 = corner(xi, yj);
    let v11 = corner(xj, yj);
    let a = v00 + (v10 - v00) * fx;
    let b = v01 + (v11 - v01) * fx;
    a + (b - a) * fy
}

/// Smooth value noise at `(x, y)`, in `[-1, 1]`.
pub fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
    blend(x, y, |xi, yi| lattice(seed, xi, yi))
}

/// The fbm octave sum: `noise(octave, x, y)` samples one octave's value
/// noise at already-scaled coordinates. `None` from the sampler aborts
/// the sum.
#[inline(always)]
fn octave_sum(
    x: f64,
    y: f64,
    octaves: u32,
    mut noise: impl FnMut(u32, f64, f64) -> Option<f64>,
) -> Option<f64> {
    let mut total = 0.0;
    let mut amplitude = 1.0;
    let mut frequency = 1.0;
    let mut norm = 0.0;
    for o in 0..octaves.max(1) {
        total += noise(o, x * frequency, y * frequency)? * amplitude;
        norm += amplitude;
        amplitude *= 0.5;
        frequency *= 2.0;
    }
    Some(total / norm)
}

/// The seed of octave `o` of an fbm field.
fn octave_seed(seed: u64, o: u32) -> u64 {
    seed.wrapping_add(u64::from(o) * 0x9e37)
}

/// Fractional Brownian motion: `octaves` layers of value noise with
/// doubling frequency and halving amplitude, normalized to `[-1, 1]`.
pub fn fbm(seed: u64, x: f64, y: f64, octaves: u32) -> f64 {
    octave_sum(x, y, octaves, |o, x, y| {
        Some(value_noise(octave_seed(seed, o), x, y))
    })
    .expect("every octave samples")
}

/// Octaves an [`FbmTable`] can hold.
const TABLE_OCTAVES: usize = 3;

/// Lattice values an [`FbmTable`] holds across its octaves: three octaves
/// over `[0, 3)²` need 4² + 7² + 13² = 234.
const TABLE_VALUES: usize = 256;

/// One fbm field's lattice values, hashed once and then read by every
/// sample.
///
/// An image samples its noise fields thousands of times but touches only
/// a few hundred lattice points, each of which [`fbm`] would otherwise
/// re-hash at all four corners of every sample. The table holds octave
/// `o`'s lattice over `[0, ⌈extent·2ᵒ⌉]²`, computed by the same hash, and
/// [`FbmTable::fbm`] runs the same octave sum and interpolation over it, so
/// it returns [`fbm`]'s result bit for bit. A sample whose lattice cell
/// lies outside the table — negative or past `extent`, non-finite, or in
/// an octave that did not fit — is computed by [`fbm`] itself. The table
/// lives on the stack (2 KiB), so building one allocates nothing.
pub(crate) struct FbmTable {
    seed: u64,
    octaves: u32,
    /// Lattice points per side of each octave's square; 0 for an octave
    /// that did not fit.
    side: [usize; TABLE_OCTAVES],
    /// Start of each octave's square in `values`, row-major.
    offset: [usize; TABLE_OCTAVES],
    values: [f64; TABLE_VALUES],
}

impl FbmTable {
    /// Tabulate the field `fbm(seed, x, y, octaves)` for samples with
    /// `x, y` in `[0, extent)`.
    pub(crate) fn new(seed: u64, octaves: u32, extent: f64) -> FbmTable {
        let mut table = FbmTable {
            seed,
            octaves,
            side: [0; TABLE_OCTAVES],
            offset: [0; TABLE_OCTAVES],
            values: [0.0; TABLE_VALUES],
        };
        let mut used = 0;
        let mut frequency = 1.0;
        for o in 0..(octaves.max(1) as usize).min(TABLE_OCTAVES) {
            let reach = (extent * frequency).ceil();
            frequency *= 2.0;
            if !(0.0..TABLE_VALUES as f64).contains(&reach) {
                break;
            }
            let side = reach as usize + 1;
            if used + side * side > TABLE_VALUES {
                break;
            }
            let octave_seed = octave_seed(seed, o as u32);
            for (i, v) in table.values[used..used + side * side]
                .iter_mut()
                .enumerate()
            {
                *v = lattice(octave_seed, (i % side) as i64, (i / side) as i64);
            }
            table.side[o] = side;
            table.offset[o] = used;
            used += side * side;
        }
        table
    }

    /// `fbm(seed, x, y, octaves)` for the seed and octaves the table was
    /// built with.
    pub(crate) fn fbm(&self, x: f64, y: f64) -> f64 {
        octave_sum(x, y, self.octaves, |o, x, y| {
            self.value_noise(o as usize, x, y)
        })
        .unwrap_or_else(|| fbm(self.seed, x, y, self.octaves))
    }

    /// Octave `o`'s value noise from the table, or `None` when its lattice
    /// cell is not tabulated.
    #[inline(always)]
    fn value_noise(&self, o: usize, x: f64, y: f64) -> Option<f64> {
        let side = *self.side.get(o)?;
        let (x0, y0) = (x.floor(), y.floor());
        let last = side as f64 - 1.0;
        if !(x0 >= 0.0 && y0 >= 0.0 && x0 < last && y0 < last) {
            return None;
        }
        let values = &self.values[self.offset[o]..self.offset[o] + side * side];
        Some(blend(x, y, |xi, yi| {
            values[yi as usize * side + xi as usize]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table is `fbm` bit for bit, inside its range and through
        /// the fallback outside it (negative, past the extent, or in an
        /// octave beyond the table's).
        #[test]
        fn table_equals_fbm_bit_for_bit(
            seed in any::<u64>(),
            octaves in 0u32..6,
            extent_milli in 0i64..6000,
            xs in proptest::collection::vec((-3000i64..9000, -3000i64..9000), 1..64),
        ) {
            let extent = extent_milli as f64 / 1000.0;
            let table = FbmTable::new(seed, octaves, extent);
            for (xm, ym) in xs {
                let (x, y) = (xm as f64 / 1000.0, ym as f64 / 1000.0);
                prop_assert_eq!(
                    table.fbm(x, y).to_bits(),
                    fbm(seed, x, y, octaves).to_bits(),
                    "seed {} octaves {} extent {} at ({}, {})", seed, octaves, extent, x, y
                );
            }
        }

        /// Arbitrary bit patterns (NaN, infinities, huge magnitudes) take
        /// the fallback and still agree with `fbm`.
        #[test]
        fn table_fallback_handles_any_coordinate(
            seed in any::<u64>(),
            x in any::<f64>(),
            y in any::<f64>(),
        ) {
            let table = FbmTable::new(seed, 3, 3.0);
            prop_assert_eq!(table.fbm(x, y).to_bits(), fbm(seed, x, y, 3).to_bits());
        }
    }

    #[test]
    fn table_covers_the_generator_fields() {
        // The fields the generator tabulates fit whole, so their samples
        // never take the fallback.
        assert_eq!(FbmTable::new(1, 3, 3.0).side, [4, 7, 13]);
        assert_eq!(FbmTable::new(1, 2, 4.0).side, [5, 9, 0]);
        assert_eq!(FbmTable::new(1, 1, 5.0).side, [6, 0, 0]);
        // A field too large for the table keeps the octaves that fit.
        assert_eq!(FbmTable::new(1, 3, 6.0).side, [7, 13, 0]);
    }

    #[test]
    fn bounded() {
        for i in 0..500 {
            let x = i as f64 * 0.173;
            let y = i as f64 * 0.311;
            let v = value_noise(9, x, y);
            assert!((-1.0..=1.0).contains(&v), "v={v}");
            let f = fbm(9, x, y, 4);
            assert!((-1.0..=1.0).contains(&f), "f={f}");
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        assert_eq!(value_noise(1, 2.5, 3.5), value_noise(1, 2.5, 3.5));
        assert_ne!(value_noise(1, 2.5, 3.5), value_noise(2, 2.5, 3.5));
    }

    #[test]
    fn continuous_across_lattice() {
        // Values just either side of an integer lattice line are close.
        let a = value_noise(5, 3.0 - 1e-9, 0.4);
        let b = value_noise(5, 3.0 + 1e-9, 0.4);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn lattice_points_match_hash() {
        // At integer coordinates the noise equals the lattice value.
        let v = value_noise(7, 4.0, 9.0);
        assert!((v - lattice(7, 4, 9)).abs() < 1e-12);
    }

    #[test]
    fn fbm_roughly_zero_mean() {
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|i| fbm(3, (i % 63) as f64 * 0.37, (i / 63) as f64 * 0.29, 3))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.1, "mean={mean}");
    }
}
