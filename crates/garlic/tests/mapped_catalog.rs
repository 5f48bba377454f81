//! A custom id mapping is still only a renaming.
//!
//! `Catalog::source_for` hands a repository's list through untouched
//! when the mapper says the subsystem's mapping is the identity, and
//! translates it id by id otherwise. Both doors must lead to the same
//! query results: the statements `pinned_answers.rs` pins on
//! `demo::cd_store(300, 11)`, run against the same two repositories
//! registered through a *permuted* mapping, return the identity
//! catalog's answers under that permutation — same grades bit for bit
//! (ties in global-id order, as everywhere), same plan, same
//! `AccessStats`.

use fmdb_garlic::catalog::Catalog;
use fmdb_garlic::demo::{cd_store, ARTISTS};
use fmdb_garlic::executor::Garlic;
use fmdb_garlic::object::Value;
use fmdb_garlic::repository::{QbicRepository, Repository, TableRepository};
use fmdb_garlic::sql::parse;
use fmdb_media::synth::{SynthConfig, SyntheticDb};

/// The statements of `pinned_answers.rs`, in its order.
const STATEMENTS: [&str; 16] = [
    "SELECT TOP 10 WHERE Artist = 'Beatles' AND Color ~ 'red'",
    "SELECT TOP 10 WHERE Artist = 'Kinks' AND Color ~ '#17'",
    "SELECT TOP 10 WHERE Color ~ 'red' AND Texture ~ 'coarse'",
    "SELECT TOP 10 WHERE Color ~ '#17' AND Texture ~ '#42'",
    "SELECT TOP 10 WHERE Color ~ 'blue' AND Texture ~ 'fine' WEIGHTS 2, 1",
    "SELECT TOP 10 WHERE Color ~ '#101' AND Texture ~ '#5' WEIGHTS 1, 2",
    "SELECT TOP 10 WHERE Color ~ 'green' AND Texture ~ 'smooth' USING mean",
    "SELECT TOP 10 WHERE Color ~ '#250' AND Texture ~ '#3' USING mean",
    "SELECT TOP 10 WHERE Color ~ 'yellow' OR Texture ~ 'rough'",
    "SELECT TOP 10 WHERE Color ~ '#77' OR Texture ~ '#199'",
    "SELECT TOP 10 WHERE Color ~ 'orange'",
    "SELECT TOP 10 WHERE Color ~ '#299'",
    "SELECT TOP 10 WHERE Color ~ 'pink' AND NOT Texture ~ 'directional'",
    "SELECT TOP 10 WHERE Color ~ '#64' AND NOT Texture ~ '#128'",
    "SELECT TOP 10 WHERE Color ~ 'red' AND Shape ~ 'round'",
    "SELECT TOP 10 WHERE Color ~ '#17' AND Shape ~ '#7'",
];

const N: u64 = 300;

/// A permutation of `0..N` (7 and 300 are coprime) that preserves no
/// order and fixes no small id.
fn permuted(local: u64) -> u64 {
    (local * 7 + 3) % N
}

/// `demo::cd_store(N, seed)`'s two repositories, every local id `l`
/// registered as global `permuted(l)`.
fn permuted_cd_store(seed: u64) -> Garlic {
    let db = SyntheticDb::generate(&SynthConfig {
        count: N as usize,
        bins_per_channel: 4,
        seed,
        ..SynthConfig::default()
    });
    let mut table = TableRepository::new("store", N);
    for i in 0..N {
        let artist = ARTISTS[i as usize % ARTISTS.len()];
        table.set(i, "Artist", Value::text(artist));
        table.set(i, "Year", Value::Int(1960 + (i % 10) as i64));
    }
    let repos: [Box<dyn Repository>; 2] =
        [Box::new(table), Box::new(QbicRepository::new("qbic", db))];
    let mut catalog = Catalog::new();
    for repo in repos {
        for local in 0..N {
            catalog
                .mapper_mut()
                .register(repo.name(), local, permuted(local))
                .unwrap();
        }
        catalog.register_with_existing_mapping(repo).unwrap();
    }
    Garlic::new(catalog)
}

#[test]
fn a_permuted_mapping_returns_the_identity_answers_under_the_permutation() {
    let identity = cd_store(N as usize, 11);
    let mapped = permuted_cd_store(11);
    for sql in STATEMENTS {
        let statement = parse(sql).unwrap();
        let want = identity.top_k(&statement.query, statement.k).unwrap();
        let got = mapped.top_k(&statement.query, statement.k).unwrap();
        assert_eq!(got.plan, want.plan, "{sql}");
        assert_eq!(got.stats, want.stats, "{sql}");
        // Renamed, and — the answer contract breaks ties by ascending
        // *global* id — equal grades re-ranked under their new names.
        let mut renamed = want.answers.clone();
        for answer in &mut renamed {
            answer.id = permuted(answer.id);
        }
        renamed.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        assert_eq!(got.answers, renamed, "{sql}");
    }
}
