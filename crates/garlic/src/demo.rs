//! Prebuilt demo databases mirroring the paper's running examples: the
//! CD store (§3–§4.1) and the Advertisement/AdPhoto complex objects
//! (§4.2).

use fmdb_media::synth::{SynthConfig, SyntheticDb};

use crate::catalog::Catalog;
use crate::executor::Garlic;
use crate::object::{ComplexObject, SubObjectIndex, Value};
use crate::repository::{QbicRepository, TableRepository};

/// Artists used by the CD-store demo.
pub const ARTISTS: [&str; 5] = ["Beatles", "Kinks", "Who", "Zombies", "Byrds"];

/// Builds the CD-store demo: `n` albums with a crisp `Artist` column
/// (rotating through [`ARTISTS`]) and QBIC-graded `Color`/`Shape`
/// attributes over synthetic album covers.
///
/// Returns the Garlic instance; album `i` has artist
/// `ARTISTS[i % ARTISTS.len()]`.
pub fn cd_store(n: usize, seed: u64) -> Garlic {
    let db = SyntheticDb::generate(&SynthConfig {
        count: n,
        bins_per_channel: 4,
        seed,
        ..SynthConfig::default()
    });
    let mut table = TableRepository::new("store", n as u64);
    for i in 0..n {
        table.set(i as u64, "Artist", Value::text(ARTISTS[i % ARTISTS.len()]));
        table.set(i as u64, "Year", Value::Int(1960 + (i % 10) as i64));
    }
    let mut catalog = Catalog::new();
    #[expect(
        clippy::expect_used,
        reason = "freshly built catalog, attribute names are distinct string literals"
    )]
    catalog
        .register(Box::new(table))
        .expect("fresh catalog accepts the table");
    #[expect(
        clippy::expect_used,
        reason = "freshly built catalog, attribute names are distinct string literals"
    )]
    catalog
        .register(Box::new(QbicRepository::new("qbic", db)))
        .expect("fresh catalog accepts qbic");
    Garlic::new(catalog)
}

/// Builds the advertisement demo (§4.2): a photo database plus
/// `n_ads` Advertisements, each holding 1–3 AdPhotos, with every third
/// photo shared between two consecutive ads.
///
/// Returns the Garlic instance over *photos* (attribute `Color`,
/// `Shape`), the complex objects, and the reverse index used to lift
/// photo results to advertisements.
pub fn ad_database(
    n_photos: usize,
    n_ads: usize,
    seed: u64,
) -> (Garlic, Vec<ComplexObject>, SubObjectIndex) {
    let db = SyntheticDb::generate(&SynthConfig {
        count: n_photos,
        bins_per_channel: 4,
        seed,
        ..SynthConfig::default()
    });
    let mut catalog = Catalog::new();
    #[expect(
        clippy::expect_used,
        reason = "freshly built catalog, attribute names are distinct string literals"
    )]
    catalog
        .register(Box::new(QbicRepository::new("photos", db)))
        .expect("fresh catalog accepts qbic");
    let garlic = Garlic::new(catalog);

    let mut ads = Vec::with_capacity(n_ads);
    for a in 0..n_ads {
        // Ad ids live above the photo id space.
        let mut ad = ComplexObject::new((n_photos + a) as u64);
        let base = (a * 3) % n_photos.max(1);
        ad.attach("AdPhoto", base as u64);
        if n_photos > 1 {
            ad.attach("AdPhoto", ((base + 1) % n_photos) as u64);
        }
        // Share a photo with the next ad.
        if a % 3 == 0 && n_photos > 2 {
            ad.attach("AdPhoto", ((base + 3) % n_photos) as u64);
        }
        ads.push(ad);
    }
    let index = SubObjectIndex::build(&ads);
    (garlic, ads, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::AlgoChoice;
    use crate::planner::PlanKind;
    use fmdb_core::query::{Query, Target};

    #[test]
    fn cd_store_answers_the_running_example() {
        let g = cd_store(50, 1);
        let q = Query::and(vec![
            Query::atomic("Artist", Target::Text("Beatles".into())),
            Query::atomic("Color", Target::Similar("red".into())),
        ]);
        let r = g.top_k(&q, 5).unwrap();
        assert_eq!(r.plan, PlanKind::CrispFilter);
        for a in &r.answers {
            if a.grade.value() > 0.0 {
                assert_eq!(a.id % ARTISTS.len() as u64, 0);
            }
        }
    }

    #[test]
    fn cd_store_crisp_year_queries_work() {
        let g = cd_store(30, 2);
        let q = Query::atomic("Year", Target::Int(1965));
        let r = g.top_k_with(&q, 30, AlgoChoice::Naive).unwrap();
        let hits = r.answers.iter().filter(|a| a.grade.value() == 1.0).count();
        assert_eq!(hits, 3); // years rotate 1960..1969 over 30 albums
    }

    #[test]
    fn ad_database_lifts_photo_hits_to_ads() {
        let (g, ads, index) = ad_database(30, 8, 3);
        let q = Query::atomic("Color", Target::Similar("red".into()));
        let photos = g.top_k(&q, 10).unwrap();
        let parents = crate::executor::Garlic::lift_to_parents(&photos, &index, "AdPhoto", 5);
        assert!(!parents.is_empty());
        // Every lifted id is an ad id.
        for p in &parents {
            assert!(ads.iter().any(|a| a.id == p.id), "{} is not an ad", p.id);
        }
        // Descending grades.
        for w in parents.windows(2) {
            assert!(w[0].grade >= w[1].grade);
        }
    }

    #[test]
    fn some_photos_are_shared() {
        let (_, _, index) = ad_database(30, 9, 4);
        let shared = (0..30u64).any(|p| index.is_shared("AdPhoto", p));
        assert!(shared, "the demo should produce shared sub-objects");
    }
}
