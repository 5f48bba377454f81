//! Texture features (§4: QBIC "can search for images by various visual
//! characteristics such as color, shape, and **texture**").
//!
//! A [`TexturePatch`] is a small grayscale raster; a
//! [`TextureDescriptor`] summarizes it with the three classic Tamura
//! features (simplified to their standard discrete forms):
//!
//! * **coarseness** — the dominant scale of intensity variation, found
//!   by comparing non-overlapping block means at powers of two;
//! * **contrast** — Tamura's `σ / α₄^¼` (standard deviation tempered
//!   by kurtosis), normalized into `[0, 1]`;
//! * **directionality** — the concentration of the gradient
//!   orientation distribution (1 = a single dominant direction,
//!   0 = isotropic), with angles doubled so opposite gradients agree.

use std::f64::consts::PI;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Error for malformed texture input.
#[derive(Debug, Clone, PartialEq)]
pub enum TextureError {
    /// Patch side length too small to analyze.
    TooSmall(usize),
    /// Pixel buffer length does not match `size²`.
    SizeMismatch {
        /// Expected pixel count.
        expected: usize,
        /// Provided pixel count.
        got: usize,
    },
    /// A pixel was NaN or infinite.
    NotFinite,
}

impl fmt::Display for TextureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextureError::TooSmall(n) => write!(f, "patch side {n} is below the minimum of 8"),
            TextureError::SizeMismatch { expected, got } => {
                write!(f, "expected {expected} pixels, got {got}")
            }
            TextureError::NotFinite => write!(f, "pixels must be finite"),
        }
    }
}

impl std::error::Error for TextureError {}

/// A square grayscale raster with intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TexturePatch {
    size: usize,
    pixels: Vec<f64>,
}

impl TexturePatch {
    /// Minimum supported side length.
    pub const MIN_SIZE: usize = 8;

    /// Wraps raw pixels (row-major, clamped into `[0, 1]`).
    pub fn new(size: usize, pixels: Vec<f64>) -> Result<TexturePatch, TextureError> {
        if size < Self::MIN_SIZE {
            return Err(TextureError::TooSmall(size));
        }
        if pixels.len() != size * size {
            return Err(TextureError::SizeMismatch {
                expected: size * size,
                got: pixels.len(),
            });
        }
        if pixels.iter().any(|v| !v.is_finite()) {
            return Err(TextureError::NotFinite);
        }
        Ok(TexturePatch {
            size,
            pixels: pixels.into_iter().map(|v| v.clamp(0.0, 1.0)).collect(),
        })
    }

    /// A sinusoidal grating: `frequency` cycles across the patch at
    /// `orientation` radians, amplitude `contrast`, plus uniform noise
    /// of amplitude `noise`. The workhorse synthetic texture.
    pub fn grating(
        size: usize,
        frequency: f64,
        orientation: f64,
        contrast: f64,
        noise: f64,
        seed: u64,
    ) -> Result<TexturePatch, TextureError> {
        if size < Self::MIN_SIZE {
            return Err(TextureError::TooSmall(size));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let (sin_o, cos_o) = orientation.sin_cos();
        let mut pixels = Vec::with_capacity(size * size);
        for y in 0..size {
            for x in 0..size {
                let u = x as f64 / size as f64;
                let v = y as f64 / size as f64;
                let phase = 2.0 * PI * frequency * (u * cos_o + v * sin_o);
                let value = 0.5
                    + 0.5 * contrast.clamp(0.0, 1.0) * phase.sin()
                    + noise * (rng.gen::<f64>() - 0.5);
                pixels.push(value.clamp(0.0, 1.0));
            }
        }
        TexturePatch::new(size, pixels)
    }

    /// Pure uniform noise of the given amplitude around mid-gray —
    /// the isotropic reference texture.
    pub fn noise(size: usize, amplitude: f64, seed: u64) -> Result<TexturePatch, TextureError> {
        if size < Self::MIN_SIZE {
            return Err(TextureError::TooSmall(size));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let pixels = (0..size * size)
            .map(|_| (0.5 + amplitude * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0))
            .collect();
        TexturePatch::new(size, pixels)
    }

    /// Side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Pixel at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        self.pixels[y * self.size + x]
    }
}

/// The three Tamura-style texture features, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextureDescriptor {
    /// Dominant variation scale relative to the patch (1 = whole-patch
    /// waves, → 0 = pixel-level detail).
    pub coarseness: f64,
    /// Kurtosis-tempered standard deviation, normalized.
    pub contrast: f64,
    /// Orientation concentration (1 = single direction, 0 = isotropic).
    pub directionality: f64,
}

impl TextureDescriptor {
    /// Analyzes a patch.
    pub fn of(patch: &TexturePatch) -> TextureDescriptor {
        TextureDescriptor {
            coarseness: coarseness(patch),
            contrast: contrast(patch),
            directionality: directionality(patch),
        }
    }

    /// Euclidean distance in feature space (each axis already in
    /// `[0, 1]`, so the distance lies in `[0, √3]`).
    pub fn distance(&self, other: &TextureDescriptor) -> f64 {
        let dc = self.coarseness - other.coarseness;
        let dk = self.contrast - other.contrast;
        let dd = self.directionality - other.directionality;
        (dc * dc + dk * dk + dd * dd).sqrt()
    }

    /// The features as a fixed-size vector (for generic indexing).
    pub fn as_vector(&self) -> [f64; 3] {
        [self.coarseness, self.contrast, self.directionality]
    }
}

/// Dominant scale: for block sizes 2^k, the mean absolute difference
/// between horizontally/vertically adjacent block means; the best k
/// (scaled) is the coarseness.
fn coarseness(patch: &TexturePatch) -> f64 {
    let n = patch.size;
    let max_k = (n.trailing_zeros().max(3) as usize).min(6);
    let mut best_k = 0usize;
    let mut best_e = f64::NEG_INFINITY;
    for k in 0..max_k {
        let w = 1usize << k;
        if 2 * w > n {
            break;
        }
        let blocks = n / w;
        // Block means.
        let mut means = vec![0.0; blocks * blocks];
        for by in 0..blocks {
            for bx in 0..blocks {
                let mut s = 0.0;
                for y in 0..w {
                    for x in 0..w {
                        s += patch.get(bx * w + x, by * w + y);
                    }
                }
                means[by * blocks + bx] = s / (w * w) as f64;
            }
        }
        // Mean absolute difference between adjacent blocks.
        let mut diff = 0.0;
        let mut count = 0u32;
        for by in 0..blocks {
            for bx in 0..blocks {
                if bx + 1 < blocks {
                    diff += (means[by * blocks + bx + 1] - means[by * blocks + bx]).abs();
                    count += 1;
                }
                if by + 1 < blocks {
                    diff += (means[(by + 1) * blocks + bx] - means[by * blocks + bx]).abs();
                    count += 1;
                }
            }
        }
        if count == 0 {
            break;
        }
        let e = diff / f64::from(count);
        if e > best_e {
            best_e = e;
            best_k = k;
        }
    }
    // Scale 2^best_k into (0, 1]: pixel-level detail → small value.
    (1 << best_k) as f64 * 2.0 / patch.size as f64
}

/// Tamura contrast: `σ / α₄^¼`, normalized by the maximum standard
/// deviation (0.5) of a `[0, 1]` signal.
fn contrast(patch: &TexturePatch) -> f64 {
    let n = patch.pixels.len() as f64;
    let mean = patch.pixels.iter().sum::<f64>() / n;
    let mut m2 = 0.0;
    let mut m4 = 0.0;
    for &p in &patch.pixels {
        let d = p - mean;
        m2 += d * d;
        m4 += d * d * d * d;
    }
    m2 /= n;
    m4 /= n;
    if m2 < 1e-12 {
        return 0.0; // flat patch
    }
    let kurtosis = (m4 / (m2 * m2)).max(1e-6);
    let sigma = m2.sqrt();
    (sigma / kurtosis.powf(0.25) / 0.5).clamp(0.0, 1.0)
}

/// Directionality: resultant length of the magnitude-weighted gradient
/// orientation distribution, with angles doubled (axial data).
fn directionality(patch: &TexturePatch) -> f64 {
    let n = patch.size;
    let mut sum_cos = 0.0;
    let mut sum_sin = 0.0;
    let mut sum_mag = 0.0;
    for y in 1..n - 1 {
        for x in 1..n - 1 {
            // Sobel gradients.
            let gx = (patch.get(x + 1, y - 1)
                + 2.0 * patch.get(x + 1, y)
                + patch.get(x + 1, y + 1))
                - (patch.get(x - 1, y - 1) + 2.0 * patch.get(x - 1, y) + patch.get(x - 1, y + 1));
            let gy = (patch.get(x - 1, y + 1)
                + 2.0 * patch.get(x, y + 1)
                + patch.get(x + 1, y + 1))
                - (patch.get(x - 1, y - 1) + 2.0 * patch.get(x, y - 1) + patch.get(x + 1, y - 1));
            let mag = (gx * gx + gy * gy).sqrt();
            if mag > 1e-9 {
                let theta = gy.atan2(gx);
                sum_cos += mag * (2.0 * theta).cos();
                sum_sin += mag * (2.0 * theta).sin();
                sum_mag += mag;
            }
        }
    }
    if sum_mag < 1e-9 {
        return 0.0;
    }
    ((sum_cos * sum_cos + sum_sin * sum_sin).sqrt() / sum_mag).clamp(0.0, 1.0)
}

/// Named texture prototypes for query targets ("coarse", "fine",
/// "smooth", "rough", "directional"), analyzed from reference patches.
pub fn named_texture(name: &str) -> Option<TextureDescriptor> {
    let patch = match name.to_ascii_lowercase().as_str() {
        "coarse" => TexturePatch::grating(32, 2.0, 0.3, 0.9, 0.02, 7),
        "fine" => TexturePatch::grating(32, 12.0, 0.3, 0.9, 0.02, 7),
        "smooth" => TexturePatch::noise(32, 0.05, 7),
        "rough" => TexturePatch::noise(32, 1.0, 7),
        "directional" => TexturePatch::grating(32, 6.0, 0.0, 1.0, 0.0, 7),
        _ => return None,
    };
    Some(TextureDescriptor::of(
        #[expect(
            clippy::expect_used,
            reason = "the prototype table holds constant in-domain parameters"
        )]
        &patch.expect("prototype parameters are valid"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(matches!(
            TexturePatch::new(4, vec![0.0; 16]),
            Err(TextureError::TooSmall(4))
        ));
        assert!(matches!(
            TexturePatch::new(8, vec![0.0; 10]),
            Err(TextureError::SizeMismatch {
                expected: 64,
                got: 10
            })
        ));
        assert!(matches!(
            TexturePatch::new(8, vec![f64::NAN; 64]),
            Err(TextureError::NotFinite)
        ));
        assert!(TexturePatch::new(8, vec![0.5; 64]).is_ok());
    }

    #[test]
    fn gratings_are_deterministic_in_seed() {
        let a = TexturePatch::grating(16, 4.0, 0.5, 0.8, 0.1, 3).unwrap();
        let b = TexturePatch::grating(16, 4.0, 0.5, 0.8, 0.1, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn low_frequency_is_coarser_than_high_frequency() {
        let coarse = TexturePatch::grating(32, 2.0, 0.2, 0.9, 0.0, 1).unwrap();
        let fine = TexturePatch::grating(32, 14.0, 0.2, 0.9, 0.0, 1).unwrap();
        let dc = TextureDescriptor::of(&coarse);
        let df = TextureDescriptor::of(&fine);
        assert!(
            dc.coarseness > df.coarseness,
            "coarse {} vs fine {}",
            dc.coarseness,
            df.coarseness
        );
    }

    #[test]
    fn contrast_feature_tracks_contrast_parameter() {
        let lo = TexturePatch::grating(32, 6.0, 0.2, 0.1, 0.0, 1).unwrap();
        let hi = TexturePatch::grating(32, 6.0, 0.2, 0.9, 0.0, 1).unwrap();
        let dlo = TextureDescriptor::of(&lo);
        let dhi = TextureDescriptor::of(&hi);
        assert!(
            dhi.contrast > dlo.contrast * 2.0,
            "{} vs {}",
            dhi.contrast,
            dlo.contrast
        );
    }

    #[test]
    fn gratings_are_directional_noise_is_not() {
        let grating = TexturePatch::grating(32, 6.0, 0.7, 1.0, 0.0, 1).unwrap();
        let noise = TexturePatch::noise(32, 1.0, 1).unwrap();
        let dg = TextureDescriptor::of(&grating);
        let dn = TextureDescriptor::of(&noise);
        assert!(
            dg.directionality > 0.8,
            "grating directionality {}",
            dg.directionality
        );
        assert!(
            dn.directionality < 0.35,
            "noise directionality {}",
            dn.directionality
        );
    }

    #[test]
    fn directionality_is_rotation_robust() {
        // Different orientations of the same grating are equally
        // directional (the *amount* of directionality is invariant
        // even though the direction itself differs).
        for angle in [0.0, 0.4, 0.9, 1.3] {
            let patch = TexturePatch::grating(32, 6.0, angle, 1.0, 0.0, 1).unwrap();
            let d = TextureDescriptor::of(&patch);
            assert!(
                d.directionality > 0.7,
                "angle {angle}: {}",
                d.directionality
            );
        }
    }

    #[test]
    fn flat_patch_has_zero_contrast_and_directionality() {
        let flat = TexturePatch::new(16, vec![0.5; 256]).unwrap();
        let d = TextureDescriptor::of(&flat);
        assert_eq!(d.contrast, 0.0);
        assert_eq!(d.directionality, 0.0);
    }

    #[test]
    fn descriptor_distance_is_a_semimetric() {
        let a = TextureDescriptor::of(&TexturePatch::grating(32, 3.0, 0.1, 0.8, 0.05, 1).unwrap());
        let b = TextureDescriptor::of(&TexturePatch::grating(32, 12.0, 1.2, 0.3, 0.2, 2).unwrap());
        assert!(a.distance(&a) < 1e-12);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) > 0.0);
    }

    #[test]
    fn similar_textures_are_closer_than_dissimilar_ones() {
        let base =
            TextureDescriptor::of(&TexturePatch::grating(32, 4.0, 0.3, 0.8, 0.05, 1).unwrap());
        let near =
            TextureDescriptor::of(&TexturePatch::grating(32, 4.5, 0.35, 0.75, 0.05, 2).unwrap());
        let far = TextureDescriptor::of(&TexturePatch::noise(32, 0.9, 3).unwrap());
        assert!(
            base.distance(&near) < base.distance(&far),
            "near {} vs far {}",
            base.distance(&near),
            base.distance(&far)
        );
    }

    #[test]
    fn as_vector_mirrors_the_fields() {
        let d = TextureDescriptor::of(&TexturePatch::grating(16, 4.0, 0.2, 0.8, 0.0, 1).unwrap());
        assert_eq!(d.as_vector(), [d.coarseness, d.contrast, d.directionality]);
    }

    #[test]
    fn named_prototypes_resolve_and_differ() {
        let coarse = named_texture("coarse").unwrap();
        let fine = named_texture("FINE").unwrap();
        let smooth = named_texture("smooth").unwrap();
        let rough = named_texture("rough").unwrap();
        assert!(named_texture("fluffy").is_none());
        assert!(coarse.coarseness > fine.coarseness);
        assert!(rough.contrast > smooth.contrast);
    }
}
