//! Complex objects and the cost-based optimizer (§4.2).
//!
//! Advertisements are complex objects whose AdPhotos live in a photo
//! subsystem — and photos can be *shared* between ads. A fuzzy query
//! runs against the photos; the results are lifted to the parent ads
//! through the sub-object index. Separately, the cost-based optimizer
//! prices every plan before choosing one.
//!
//! ```sh
//! cargo run --release --example ad_campaign
//! ```

use fuzzymm::garlic::demo::{ad_database, cd_store};
use fuzzymm::garlic::executor::Garlic;
use fuzzymm::garlic::sql::parse;
use fuzzymm::middleware::policy::ExecPolicy;
use fuzzymm::middleware::stats::CostModel;

fn main() {
    // --- Part 1: complex objects -------------------------------------
    let (photos, ads, index) = ad_database(200, 40, 2026);
    println!("{} photos referenced by {} advertisements", 200, ads.len());
    let shared = (0..200u64)
        .filter(|&p| index.is_shared("AdPhoto", p))
        .count();
    println!("{shared} photos are shared between ads (the §4.2 complication)\n");

    // "We are interested in Advertisements with an AdPhoto that is red."
    let stmt = parse("SELECT TOP 12 WHERE Color~'red'").expect("well-formed");
    let photo_hits = photos.top_k(&stmt.query, stmt.k).expect("query runs");
    println!("top red *photos*: ");
    for p in photo_hits.answers.iter().take(5) {
        let parents = index.parents_of("AdPhoto", p.id);
        println!(
            "  photo #{:<4} grade {}  → ads {:?}",
            p.id, p.grade, parents
        );
    }

    let ad_hits = Garlic::lift_to_parents(&photo_hits, &index, "AdPhoto", 5);
    println!("\ntop red *advertisements* (max over their photos):");
    for a in &ad_hits {
        println!("  ad #{:<4} grade {}", a.id, a.grade);
    }

    // --- Part 2: the cost-based optimizer ----------------------------
    // The same queries under the paper's uniform cost measure and under
    // "a random access costs 20 sorted ones" (Fagin–Lotem–Naor's
    // c_R/c_S): re-pricing flips the fuzzy conjunction off TA.
    let store = cd_store(1_000, 55);
    let pricey = CostModel::random_to_sorted_ratio(20.0).expect("a valid ratio");
    for (label, cost) in [
        ("c_R/c_S = 1", CostModel::UNIFORM),
        ("c_R/c_S = 20", pricey),
    ] {
        println!("\ncost-based optimizer under {label}:");
        for sql in [
            // A crisp conjunct matching 1 album in 5 is too unselective
            // to filter on: TA, then CA once probes are expensive.
            "SELECT TOP 10 WHERE Artist='Beatles' AND Color~'red'",
            "SELECT TOP 10 WHERE Color~'red' AND Shape~'round'", // fuzzy only: TA, then CA
            "SELECT TOP 10 WHERE Color~'red' OR Texture~'coarse'", // disjunction: m·k merge
        ] {
            let stmt = parse(sql).expect("well-formed");
            let result = store
                .top_k_policy(&stmt.query, stmt.k, ExecPolicy::new().cost_model(cost))
                .expect("query runs");
            println!("  {sql}");
            println!("    {} — actual cost {}", result.explanation, result.stats);
        }
    }
}
