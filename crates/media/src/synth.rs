//! Synthetic multimedia objects.
//!
//! The paper's evaluation context (QBIC over IBM's image collections)
//! is proprietary; per the reproduction plan we substitute a generator
//! whose knobs control exactly the properties the algorithms are
//! sensitive to: the grade/feature *distributions* and the
//! *correlation* between attributes (Theorem 4.1 assumes independent
//! conjuncts; §6's hard case is extreme dependence).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::color::{ColorHistogram, ColorSpace, Rgb};
use crate::shape::{Point, Polygon};
use crate::texture::{TextureDescriptor, TexturePatch};

/// The shape families the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeFamily {
    /// Near-circular ellipses ("round", the paper's example predicate).
    Round,
    /// Rectangles with assorted aspect ratios.
    Boxy,
    /// Stars with sharp spikes.
    Spiky,
}

impl ShapeFamily {
    /// All families.
    pub const ALL: [ShapeFamily; 3] = [ShapeFamily::Round, ShapeFamily::Boxy, ShapeFamily::Spiky];
}

/// One synthetic "image": a color histogram plus a shape outline.
#[derive(Debug, Clone)]
pub struct MediaObject {
    /// Object id, dense from 0.
    pub id: u64,
    /// The color histogram over the generating [`ColorSpace`].
    pub histogram: ColorHistogram,
    /// The dominant color the histogram was sampled around.
    pub dominant: Rgb,
    /// The shape outline.
    pub shape: Polygon,
    /// The family the shape was drawn from.
    pub family: ShapeFamily,
    /// Tamura-style texture features of the object's surface patch.
    pub texture: TextureDescriptor,
}

/// Configuration for [`SyntheticDb::generate`].
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of objects.
    pub count: usize,
    /// Bins per RGB channel (4 ⇒ the paper's typical k = 64).
    pub bins_per_channel: usize,
    /// Pixel samples drawn per histogram.
    pub samples_per_object: usize,
    /// Channel noise around the dominant color.
    pub color_noise: f64,
    /// Correlation in `[0, 1]` between color redness and shape
    /// roundness: 0 = independent attributes, 1 = red objects are
    /// always round (the dependence that breaks Theorem 4.1's
    /// assumption).
    pub color_shape_correlation: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            count: 100,
            bins_per_channel: 4,
            samples_per_object: 200,
            color_noise: 0.12,
            color_shape_correlation: 0.0,
            seed: 42,
        }
    }
}

/// A generated database of [`MediaObject`]s plus its color space.
#[derive(Debug, Clone)]
pub struct SyntheticDb {
    /// The shared color space.
    pub space: ColorSpace,
    /// The objects, ids dense from 0.
    pub objects: Vec<MediaObject>,
}

impl SyntheticDb {
    /// Generates a database. Deterministic in `config.seed`.
    ///
    /// # Panics
    /// Panics if `config.color_shape_correlation` is outside `[0, 1]`
    /// or `count`/`bins_per_channel`/`samples_per_object` is zero
    /// (configuration bugs, not data).
    pub fn generate(config: &SynthConfig) -> SyntheticDb {
        assert!(config.count > 0, "count must be positive");
        assert!(config.samples_per_object > 0, "samples must be positive");
        assert!(
            (0.0..=1.0).contains(&config.color_shape_correlation),
            "correlation must lie in [0, 1]"
        );
        #[expect(
            clippy::expect_used,
            reason = "SynthConfig::validate rejected zero bins before generation starts"
        )]
        let space = ColorSpace::rgb_grid(config.bins_per_channel)
            .expect("bins_per_channel must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut objects = Vec::with_capacity(config.count);
        for id in 0..config.count as u64 {
            let dominant = Rgb::new(rng.gen(), rng.gen(), rng.gen());
            let colors: Vec<Rgb> = (0..config.samples_per_object)
                .map(|_| {
                    let n = config.color_noise;
                    Rgb::new(
                        dominant.r + rng.gen_range(-n..=n),
                        dominant.g + rng.gen_range(-n..=n),
                        dominant.b + rng.gen_range(-n..=n),
                    )
                })
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "the sample loop above always pushes samples_per_object >= 1 colors"
            )]
            let histogram =
                ColorHistogram::from_colors(&space, &colors).expect("samples are non-empty");

            // Redness of the dominant color drives (with probability
            // `correlation`) the shape family toward Round.
            let redness = dominant.r * (1.0 - dominant.g) * (1.0 - dominant.b);
            let family = if rng.gen::<f64>() < config.color_shape_correlation {
                if redness > 0.25 {
                    ShapeFamily::Round
                } else {
                    ShapeFamily::Spiky
                }
            } else {
                ShapeFamily::ALL[rng.gen_range(0..ShapeFamily::ALL.len())]
            };
            let shape = sample_shape(family, &mut rng);
            let texture = sample_texture(&mut rng, config.seed.wrapping_add(id));
            objects.push(MediaObject {
                id,
                histogram,
                dominant,
                shape,
                family,
                texture,
            });
        }
        SyntheticDb { space, objects }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

fn sample_shape(family: ShapeFamily, rng: &mut StdRng) -> Polygon {
    let cx = rng.gen_range(-5.0..5.0);
    let cy = rng.gen_range(-5.0..5.0);
    match family {
        ShapeFamily::Round => {
            let a = rng.gen_range(0.8..1.6);
            let b = a * rng.gen_range(0.85..1.0);
            #[expect(
                clippy::expect_used,
                reason = "radii are drawn from strictly positive ranges"
            )]
            Polygon::ellipse(cx, cy, a, b, 40).expect("ellipse parameters are valid")
        }
        ShapeFamily::Boxy => {
            let w = rng.gen_range(0.8..3.0);
            let h = rng.gen_range(0.5..1.5);
            #[expect(
                clippy::expect_used,
                reason = "extents are drawn from strictly positive ranges"
            )]
            Polygon::rectangle(cx, cy, w, h).expect("rectangle parameters are valid")
        }
        ShapeFamily::Spiky => {
            let spikes = rng.gen_range(5..9);
            let outer = rng.gen_range(1.0..1.8);
            let inner = outer * rng.gen_range(0.25..0.45);
            #[expect(
                clippy::expect_used,
                reason = "spike count and radii are drawn from strictly positive ranges"
            )]
            Polygon::star(spikes, outer, inner, cx, cy).expect("star parameters are valid")
        }
    }
}

/// Draws a random surface texture: a grating with random frequency,
/// orientation and contrast, plus mild noise.
fn sample_texture(rng: &mut StdRng, seed: u64) -> TextureDescriptor {
    let frequency = rng.gen_range(1.5..14.0);
    let orientation = rng.gen_range(0.0..std::f64::consts::PI);
    let contrast = rng.gen_range(0.1..1.0);
    let noise = rng.gen_range(0.0..0.3);
    #[expect(
        clippy::expect_used,
        reason = "frequency/contrast/noise are drawn from ranges inside the accepted domain"
    )]
    let patch = TexturePatch::grating(32, frequency, orientation, contrast, noise, seed)
        .expect("generator parameters are valid");
    TextureDescriptor::of(&patch)
}

/// A jittered copy of a polygon — a "similar shape" for recall tests.
pub fn jitter_shape(poly: &Polygon, magnitude: f64, seed: u64) -> Polygon {
    let mut rng = StdRng::seed_from_u64(seed);
    let vertices = poly
        .vertices()
        .iter()
        .map(|p| {
            Point::new(
                p.x + rng.gen_range(-magnitude..=magnitude),
                p.y + rng.gen_range(-magnitude..=magnitude),
            )
        })
        .collect();
    Polygon::new(vertices).unwrap_or_else(|_| poly.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig {
            count: 10,
            ..SynthConfig::default()
        };
        let a = SyntheticDb::generate(&cfg);
        let b = SyntheticDb::generate(&cfg);
        assert_eq!(a.len(), 10);
        for (x, y) in a.objects.iter().zip(&b.objects) {
            assert_eq!(x.histogram.bins(), y.histogram.bins());
            assert_eq!(x.family, y.family);
        }
    }

    #[test]
    fn ids_are_dense() {
        let db = SyntheticDb::generate(&SynthConfig {
            count: 25,
            ..SynthConfig::default()
        });
        for (i, o) in db.objects.iter().enumerate() {
            assert_eq!(o.id, i as u64);
        }
    }

    #[test]
    fn histograms_are_normalized_over_the_space() {
        let db = SyntheticDb::generate(&SynthConfig {
            count: 5,
            ..SynthConfig::default()
        });
        for o in &db.objects {
            assert_eq!(o.histogram.k(), db.space.k());
            let total: f64 = o.histogram.bins().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn correlation_knob_links_red_to_round() {
        let correlated = SyntheticDb::generate(&SynthConfig {
            count: 400,
            color_shape_correlation: 1.0,
            seed: 7,
            ..SynthConfig::default()
        });
        // Every clearly-red object must be round.
        for o in &correlated.objects {
            let redness = o.dominant.r * (1.0 - o.dominant.g) * (1.0 - o.dominant.b);
            if redness > 0.25 {
                assert_eq!(o.family, ShapeFamily::Round, "object {}", o.id);
            }
        }
    }

    #[test]
    fn uncorrelated_families_are_spread() {
        let db = SyntheticDb::generate(&SynthConfig {
            count: 300,
            color_shape_correlation: 0.0,
            seed: 3,
            ..SynthConfig::default()
        });
        for family in ShapeFamily::ALL {
            let n = db.objects.iter().filter(|o| o.family == family).count();
            assert!(n > 50, "{family:?} occurred only {n} times");
        }
    }

    #[test]
    fn textures_vary_across_objects() {
        let db = SyntheticDb::generate(&SynthConfig {
            count: 30,
            ..SynthConfig::default()
        });
        let first = db.objects[0].texture;
        assert!(
            db.objects.iter().any(|o| o.texture.distance(&first) > 0.1),
            "textures should not all collapse to one point"
        );
    }

    #[test]
    fn jittered_shapes_stay_closer_than_different_shapes() {
        use crate::shape::turning_distance;
        let hexagon = Polygon::regular(6, 1.0, 0.0, 0.0, 0.0).unwrap();
        let jittered = jitter_shape(&hexagon, 0.03, 9);
        let star = Polygon::star(6, 1.0, 0.35, 0.0, 0.0).unwrap();
        let d_jitter = turning_distance(&hexagon, &jittered, 64);
        let d_star = turning_distance(&hexagon, &star, 64);
        assert!(
            d_jitter < d_star,
            "jitter {d_jitter} should be below cross-shape {d_star}"
        );
    }

    #[test]
    fn jitter_preserves_vertex_count() {
        let p = Polygon::regular(6, 1.0, 0.0, 0.0, 0.0).unwrap();
        let j = jitter_shape(&p, 0.05, 1);
        assert_eq!(j.vertices().len(), 6);
        assert_ne!(j.vertices()[0], p.vertices()[0]);
    }

    #[test]
    #[should_panic(expected = "correlation")]
    fn invalid_correlation_panics() {
        let _ = SyntheticDb::generate(&SynthConfig {
            color_shape_correlation: 2.0,
            ..SynthConfig::default()
        });
    }
}
