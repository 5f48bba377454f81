//! Repositories: the autonomous subsystems Garlic integrates (§4).
//!
//! "A single Garlic query can access data in a number of different
//! subsystems" — here a relational-style [`TableRepository`] (crisp
//! predicates like `Artist='Beatles'`) and a QBIC-style
//! [`QbicRepository`] (fuzzy predicates like `Color='red'` or
//! `Shape='round'`, graded by the feature distances of `fmdb-media`).
//!
//! Each repository turns an atomic query into a [`VecSource`] exposing
//! exactly the paper's two access modes, its grades computed when the
//! source is built — the middleware's cost model deliberately meters
//! only the accesses the *algorithm* performs against the source,
//! matching the paper's black-box view of subsystems. A plan reads what
//! [`Repository::bind_source`] serves: that list, or for a QBIC `Shape`
//! atom a [`ShapeStream`] with the same grades, each computed when an
//! access first needs it.
//!
//! Both repositories grade the dense local universe `0..n` and hand
//! [`VecSource::new`] / [`VecSource::from_dense`] their pairs in oid
//! order, which is the list's random-access array as it stands: what a
//! list costs beyond its kernel (a distance per object, or one pass
//! over a column) is the distance → grade pass and one sort into
//! sorted-access order.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

use fmdb_core::query::{AtomicQuery, Target};
use fmdb_core::score::Score;
use fmdb_media::color::{ColorError, ColorHistogram, Rgb};
use fmdb_media::distance::DistanceError;
use fmdb_media::embed::{EmbedError, EmbeddedCorpus, EmbeddedSpace};
use fmdb_media::shape::{Polygon, Prototype, TurningCorpus};
use fmdb_media::synth::SyntheticDb;
use fmdb_media::texture::{named_texture, TextureDescriptor, TEXTURE_NAMES};
use fmdb_middleware::source::VecSource;
use fmdb_middleware::store::{build_store_from_source, BuildConfig, StoreError};

use crate::object::{Oid, Value};
use crate::shape_stream::ShapeStream;

/// Whether an attribute grades crisply (0/1) or fuzzily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributeKind {
    /// Traditional predicate: every grade is 0 or 1.
    Crisp,
    /// Similarity predicate: grades range over `[0, 1]`.
    Fuzzy,
}

/// Error raised by repositories.
#[derive(Debug, Clone)]
pub enum RepoError {
    /// The repository has no such attribute.
    UnknownAttribute {
        /// Repository name.
        repository: String,
        /// The attribute asked for.
        attribute: String,
    },
    /// The target name could not be resolved (unknown color/shape).
    UnknownTarget(String),
    /// The target type does not fit the attribute (e.g. a feature
    /// vector against a crisp column).
    TargetMismatch {
        /// The attribute.
        attribute: String,
        /// Human description of what was expected.
        expected: &'static str,
    },
    /// Feature-layer failure.
    Color(ColorError),
    /// Distance-layer failure.
    Distance(DistanceError),
    /// Embedding-kernel failure.
    Embed(EmbedError),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::UnknownAttribute {
                repository,
                attribute,
            } => write!(
                f,
                "repository '{repository}' has no attribute '{attribute}'"
            ),
            RepoError::UnknownTarget(t) => write!(f, "unknown similarity target '{t}'"),
            RepoError::TargetMismatch {
                attribute,
                expected,
            } => write!(f, "attribute '{attribute}' expects {expected}"),
            RepoError::Color(e) => write!(f, "{e}"),
            RepoError::Distance(e) => write!(f, "{e}"),
            RepoError::Embed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RepoError {}

impl From<ColorError> for RepoError {
    fn from(e: ColorError) -> Self {
        RepoError::Color(e)
    }
}

impl From<DistanceError> for RepoError {
    fn from(e: DistanceError) -> Self {
        RepoError::Distance(e)
    }
}

impl From<EmbedError> for RepoError {
    fn from(e: EmbedError) -> Self {
        RepoError::Embed(e)
    }
}

/// What a plan reads for one atom: any subsystem, boxed
/// ([`Repository::bind_source`]).
pub type BoundSource = Box<dyn fmdb_middleware::source::Subsystem + Send>;

/// A subsystem that can grade its universe against atomic queries.
///
/// `Send + Sync`, so a [`crate::catalog::Catalog`] and a
/// [`crate::executor::Garlic`] over it can be shared between threads.
pub trait Repository: Send + Sync {
    /// The subsystem's name (also its id-mapping namespace).
    fn name(&self) -> &str;

    /// The attributes this repository can grade.
    fn attributes(&self) -> Vec<(String, AttributeKind)>;

    /// Number of objects in the repository.
    fn universe_size(&self) -> usize;

    /// Builds the graded source for `query` (ids are repository-local).
    fn source_for(&self, query: &AtomicQuery) -> Result<VecSource, RepoError>;

    /// The source a plan reads for `query` (ids are repository-local,
    /// below [`Repository::universe_size`]): by default the list of
    /// [`Repository::source_for`], boxed. A repository that can answer
    /// sorted and random access without grading every object first
    /// serves that instead; its accesses must answer as the list would,
    /// bit for bit.
    fn bind_source(&self, query: &AtomicQuery) -> Result<BoundSource, RepoError> {
        Ok(Box::new(self.source_for(query)?))
    }

    /// For crisp attributes: the exact match set (repository-local
    /// ids), used by the crisp-filter plan. `Ok(None)` means the
    /// attribute is fuzzy.
    fn crisp_matches(&self, query: &AtomicQuery) -> Result<Option<Vec<Oid>>, RepoError>;
}

/// Error persisting a repository's graded source to a paged store.
#[derive(Debug)]
pub enum PersistError {
    /// Grading the query failed.
    Repo(RepoError),
    /// Writing the store file failed.
    Store(StoreError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Repo(e) => write!(f, "{e}"),
            PersistError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// One-shot bridge from any [`Repository`] to the middleware's paged
/// column store: grades `query` eagerly (the repository's normal
/// source construction) and persists the resulting pairs at `path`.
/// Reopening with [`fmdb_middleware::store::PagedStore::open`] yields
/// a source bit-identical to the [`VecSource`] the repository serves —
/// the out-of-core path for corpora too large to re-grade per query.
pub fn persist_source(
    repo: &dyn Repository,
    query: &AtomicQuery,
    path: &std::path::Path,
    cfg: &BuildConfig,
) -> Result<(), PersistError> {
    let mut source = repo.source_for(query).map_err(PersistError::Repo)?;
    build_store_from_source(path, &mut source, cfg).map_err(PersistError::Store)
}

/// A relational-style table of crisp attributes.
#[derive(Debug, Clone)]
pub struct TableRepository {
    name: String,
    /// attr → its column: row `oid`'s value at position `oid`, over
    /// the declared universe `0..n`.
    columns: BTreeMap<String, Vec<Option<Value>>>,
    universe: usize,
}

impl TableRepository {
    /// An empty table named `name` over the oid universe `0..n`.
    pub fn new(name: impl Into<String>, n: u64) -> TableRepository {
        TableRepository {
            name: name.into(),
            columns: BTreeMap::new(),
            universe: n as usize,
        }
    }

    /// Sets `attr` of object `oid` to `value`.
    ///
    /// The table's rows are `0..n`: a value set for an `oid` outside
    /// them declares the attribute but belongs to no row — it is never
    /// matched and never streamed.
    pub fn set(&mut self, oid: Oid, attr: impl Into<String>, value: Value) {
        let column = self
            .columns
            .entry(attr.into())
            .or_insert_with(|| vec![None; self.universe]);
        if let Some(cell) = usize::try_from(oid)
            .ok()
            .and_then(|row| column.get_mut(row))
        {
            *cell = Some(value);
        }
    }

    /// The column a crisp query reads, one cell per row, and the value
    /// it asks for.
    fn column_and_wanted(
        &self,
        query: &AtomicQuery,
    ) -> Result<(&[Option<Value>], Value), RepoError> {
        let column =
            self.columns
                .get(&query.attribute)
                .ok_or_else(|| RepoError::UnknownAttribute {
                    repository: self.name.clone(),
                    attribute: query.attribute.clone(),
                })?;
        let wanted = match &query.target {
            Target::Text(s) => Value::Text(s.clone()),
            Target::Int(i) => Value::Int(*i),
            Target::Similar(_) | Target::Feature(_) => {
                return Err(RepoError::TargetMismatch {
                    attribute: query.attribute.clone(),
                    expected: "an exact (crisp) text or integer target",
                })
            }
        };
        Ok((column, wanted))
    }

    /// The rows matching a crisp query, ascending.
    fn matches(&self, query: &AtomicQuery) -> Result<Vec<Oid>, RepoError> {
        let (column, wanted) = self.column_and_wanted(query)?;
        Ok(column
            .iter()
            .enumerate()
            .filter(|(_, cell)| cell.as_ref() == Some(&wanted))
            .map(|(row, _)| row as Oid)
            .collect())
    }
}

impl Repository for TableRepository {
    fn name(&self) -> &str {
        &self.name
    }

    fn attributes(&self) -> Vec<(String, AttributeKind)> {
        self.columns
            .keys()
            .map(|a| (a.clone(), AttributeKind::Crisp))
            .collect()
    }

    fn universe_size(&self) -> usize {
        self.universe
    }

    fn source_for(&self, query: &AtomicQuery) -> Result<VecSource, RepoError> {
        let (column, wanted) = self.column_and_wanted(query)?;
        Ok(VecSource::from_fn(
            format!("{}:{}", self.name, query),
            column.len(),
            |row| Score::crisp(column[row].as_ref() == Some(&wanted)),
        ))
    }

    fn crisp_matches(&self, query: &AtomicQuery) -> Result<Option<Vec<Oid>>, RepoError> {
        self.matches(query).map(Some)
    }
}

/// A QBIC-style image repository grading `Color`, `Shape`, and
/// `Texture` queries against a [`SyntheticDb`].
///
/// Targets may be named prototypes (`Similar("red")`,
/// `Similar("round")`, `Similar("coarse")`) or **query-by-example**
/// references `Similar("#42")` — §2's "selecting an image I … and
/// asking for other images whose colors are 'close to' that of
/// image I".
pub struct QbicRepository {
    name: String,
    db: SyntheticDb,
    /// Pre-embedded color histograms: `Color` queries cost one O(k²)
    /// query embedding plus n O(k) norms instead of n O(k²) quadratic
    /// forms.
    color_corpus: EmbeddedCorpus,
    /// Pre-resampled turning functions and their spectra: `Shape`
    /// queries cost one resampling and transform of the prototype plus
    /// the shift kernel per object graded. Shared with the
    /// [`ShapeStream`]s it serves.
    shape_corpus: Arc<TurningCorpus>,
    /// Named shape prototypes ("round", "boxy", "spiky", …), each
    /// resampled and transformed on its first query.
    shape_prototypes: HashMap<String, NamedShape>,
    /// Named texture prototypes ([`TEXTURE_NAMES`]), each analysed on its
    /// first query: building the reference patch and its descriptor
    /// costs far more than grading the corpus against it.
    texture_prototypes: HashMap<&'static str, OnceLock<Option<TextureDescriptor>>>,
    /// Attribute-name prefix, so several image repositories can coexist
    /// in one catalog (`"Album"` ⇒ `AlbumColor`, `AlbumShape`,
    /// `AlbumTexture` — the paper's own attribute spelling).
    attribute_prefix: String,
}

impl fmt::Debug for QbicRepository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QbicRepository({}, {} objects)",
            self.name,
            self.db.len()
        )
    }
}

/// Resampling resolution for turning-function comparisons.
const TURNING_SAMPLES: usize = 64;

/// A named shape target: its outline, and the corpus-side prototype
/// (turning function and spectrum) made from it on first use, so
/// repeated queries skip that work and the repository pays nothing for
/// names nobody asks for.
#[derive(Debug)]
struct NamedShape {
    outline: Polygon,
    prepared: OnceLock<Arc<Prototype>>,
}

impl NamedShape {
    fn new(outline: Polygon) -> NamedShape {
        NamedShape {
            outline,
            prepared: OnceLock::new(),
        }
    }
}

/// Resolves a color name to RGB; the vocabulary a color-wheel UI would
/// offer.
pub fn named_color(name: &str) -> Option<Rgb> {
    let c = match name.to_ascii_lowercase().as_str() {
        "red" => Rgb::new(1.0, 0.0, 0.0),
        "green" => Rgb::new(0.0, 1.0, 0.0),
        "blue" => Rgb::new(0.0, 0.0, 1.0),
        "yellow" => Rgb::new(1.0, 1.0, 0.0),
        "cyan" => Rgb::new(0.0, 1.0, 1.0),
        "magenta" => Rgb::new(1.0, 0.0, 1.0),
        "pink" => Rgb::new(1.0, 0.6, 0.7),
        "orange" => Rgb::new(1.0, 0.55, 0.0),
        "white" => Rgb::new(1.0, 1.0, 1.0),
        "black" => Rgb::new(0.0, 0.0, 0.0),
        "gray" | "grey" => Rgb::new(0.5, 0.5, 0.5),
        _ => return None,
    };
    Some(c)
}

impl QbicRepository {
    /// Wraps a synthetic image database.
    pub fn new(name: impl Into<String>, db: SyntheticDb) -> QbicRepository {
        #[expect(
            clippy::expect_used,
            reason = "the constant QBIC similarity matrix is PD after zero-sum projection; the embed tests prove it"
        )]
        let space = EmbeddedSpace::for_space(&db.space)
            .expect("QBIC similarity matrix embeds (PD after zero-sum projection)");
        let histograms: Vec<ColorHistogram> =
            db.objects.iter().map(|o| o.histogram.clone()).collect();
        #[expect(
            clippy::expect_used,
            reason = "histograms come from the same SyntheticDb space, so dimensions match by construction"
        )]
        let color_corpus = EmbeddedCorpus::build(space, &histograms)
            .expect("database histograms share the space's dimension");
        let shape_corpus = Arc::new(TurningCorpus::build(
            db.objects.iter().map(|o| &o.shape),
            TURNING_SAMPLES,
        ));
        let mut shape_prototypes = HashMap::new();
        shape_prototypes.insert(
            "round".to_owned(),
            #[expect(
                clippy::expect_used,
                reason = "constant prototype geometry with positive radii"
            )]
            NamedShape::new(
                Polygon::ellipse(0.0, 0.0, 1.0, 1.0, 40).expect("unit circle is valid"),
            ),
        );
        shape_prototypes.insert(
            "boxy".to_owned(),
            #[expect(
                clippy::expect_used,
                reason = "constant prototype geometry with positive extent"
            )]
            NamedShape::new(
                Polygon::rectangle(0.0, 0.0, 2.0, 1.0).expect("2x1 rectangle is valid"),
            ),
        );
        shape_prototypes.insert(
            "spiky".to_owned(),
            #[expect(
                clippy::expect_used,
                reason = "constant prototype geometry with positive radii"
            )]
            NamedShape::new(Polygon::star(6, 1.0, 0.35, 0.0, 0.0).expect("6-spike star is valid")),
        );
        QbicRepository {
            name: name.into(),
            db,
            color_corpus,
            shape_corpus,
            shape_prototypes,
            texture_prototypes: TEXTURE_NAMES
                .into_iter()
                .map(|name| (name, OnceLock::new()))
                .collect(),
            attribute_prefix: String::new(),
        }
    }

    /// Prefixes every attribute name (e.g. `"Album"` serves
    /// `AlbumColor`/`AlbumShape`/`AlbumTexture`), letting multiple
    /// image repositories register in one catalog.
    pub fn with_attribute_prefix(mut self, prefix: impl Into<String>) -> QbicRepository {
        self.attribute_prefix = prefix.into();
        self
    }

    /// The underlying database.
    pub fn db(&self) -> &SyntheticDb {
        &self.db
    }

    /// Resolves a `#id` example reference to the object, if the target
    /// uses that syntax.
    fn example_object(
        &self,
        name: &str,
    ) -> Option<Result<&fmdb_media::synth::MediaObject, RepoError>> {
        let id_text = name.strip_prefix('#')?;
        Some(match id_text.parse::<usize>() {
            Ok(id) if id < self.db.len() => Ok(&self.db.objects[id]),
            _ => Err(RepoError::UnknownTarget(name.to_owned())),
        })
    }

    fn color_source(&self, query: &AtomicQuery) -> Result<VecSource, RepoError> {
        let target_hist = match &query.target {
            Target::Similar(name) => {
                if let Some(example) = self.example_object(name) {
                    example?.histogram.clone()
                } else {
                    let rgb =
                        named_color(name).ok_or_else(|| RepoError::UnknownTarget(name.clone()))?;
                    ColorHistogram::pure(&self.db.space, rgb)
                }
            }
            Target::Feature(bins) => ColorHistogram::from_masses(bins.clone())?,
            Target::Text(_) | Target::Int(_) => {
                return Err(RepoError::TargetMismatch {
                    attribute: query.attribute.clone(),
                    expected: "a similarity or feature target",
                })
            }
        };
        let distances = self.color_corpus.distances(&target_hist)?;
        Ok(self.source_from_distances(query, &distances))
    }

    fn texture_source(&self, query: &AtomicQuery) -> Result<VecSource, RepoError> {
        let prototype = match &query.target {
            Target::Similar(name) => {
                if let Some(example) = self.example_object(name) {
                    example?.texture
                } else {
                    self.texture_prototypes
                        .get(name.to_ascii_lowercase().as_str())
                        .and_then(|slot| *slot.get_or_init(|| named_texture(name)))
                        .ok_or_else(|| RepoError::UnknownTarget(name.clone()))?
                }
            }
            _ => {
                return Err(RepoError::TargetMismatch {
                    attribute: query.attribute.clone(),
                    expected: "a named texture target (coarse/fine/smooth/rough/directional)",
                })
            }
        };
        let distances: Vec<f64> = self
            .db
            .objects
            .iter()
            .map(|o| o.texture.distance(&prototype))
            .collect();
        Ok(self.source_from_distances(query, &distances))
    }

    /// The prepared prototype a `Shape` query's target names: a named
    /// shape's, kept from its first query, or a `#id` example's.
    fn shape_prototype(&self, query: &AtomicQuery) -> Result<Arc<Prototype>, RepoError> {
        match &query.target {
            Target::Similar(name) => {
                if let Some(example) = self.example_object(name) {
                    return Ok(Arc::new(self.shape_corpus.prototype(&example?.shape)));
                }
                let named = self
                    .shape_prototypes
                    .get(&name.to_ascii_lowercase())
                    .ok_or_else(|| RepoError::UnknownTarget(name.clone()))?;
                let prototype = named
                    .prepared
                    .get_or_init(|| Arc::new(self.shape_corpus.prototype(&named.outline)));
                Ok(Arc::clone(prototype))
            }
            _ => Err(RepoError::TargetMismatch {
                attribute: query.attribute.clone(),
                expected: "a named shape target (round/boxy/spiky)",
            }),
        }
    }

    fn shape_source(&self, query: &AtomicQuery) -> Result<VecSource, RepoError> {
        let prototype = self.shape_prototype(query)?;
        let distances = self.shape_corpus.distances_to(&prototype);
        Ok(self.source_from_distances(query, &distances))
    }

    /// A `Shape` query's list as a [`ShapeStream`]: the grades
    /// [`Repository::source_for`] lists, each computed when an access
    /// first needs it. [`Repository::bind_source`] serves every `Shape`
    /// atom this way; this door hands back the stream itself, so a
    /// caller can read [`ShapeStream::graded`].
    pub fn shape_stream(&self, query: &AtomicQuery) -> Result<ShapeStream, RepoError> {
        if self.unprefixed(query) != "Shape" {
            return Err(RepoError::UnknownAttribute {
                repository: self.name.clone(),
                attribute: query.attribute.clone(),
            });
        }
        let prototype = self.shape_prototype(query)?;
        Ok(ShapeStream::new(
            self.label(query),
            Arc::clone(&self.shape_corpus),
            prototype,
        ))
    }

    /// The attribute a query names, without this repository's prefix
    /// (`""` for another repository's attribute).
    fn unprefixed<'q>(&self, query: &'q AtomicQuery) -> &'q str {
        query
            .attribute
            .strip_prefix(&self.attribute_prefix)
            .unwrap_or("")
    }

    /// A list's label: the repository's name and the query.
    fn label(&self, query: &AtomicQuery) -> String {
        format!("{}:{}", self.name, query)
    }

    /// Distance → grade via linear cutoff at the observed maximum, so
    /// the farthest object grades 0 and identical objects grade 1.
    fn source_from_distances(&self, query: &AtomicQuery, distances: &[f64]) -> VecSource {
        let dmax = distances.iter().copied().fold(0.0_f64, f64::max).max(1e-12);
        VecSource::from_fn(self.label(query), distances.len(), |i| {
            Score::clamped(1.0 - distances[i] / dmax)
        })
    }
}

impl Repository for QbicRepository {
    fn name(&self) -> &str {
        &self.name
    }

    fn attributes(&self) -> Vec<(String, AttributeKind)> {
        ["Color", "Shape", "Texture"]
            .iter()
            .map(|a| {
                (
                    format!("{}{a}", self.attribute_prefix),
                    AttributeKind::Fuzzy,
                )
            })
            .collect()
    }

    fn universe_size(&self) -> usize {
        self.db.len()
    }

    fn source_for(&self, query: &AtomicQuery) -> Result<VecSource, RepoError> {
        match self.unprefixed(query) {
            "Color" => self.color_source(query),
            "Shape" => self.shape_source(query),
            "Texture" => self.texture_source(query),
            _ => Err(RepoError::UnknownAttribute {
                repository: self.name.clone(),
                attribute: query.attribute.clone(),
            }),
        }
    }

    /// A `Shape` atom is served as a [`ShapeStream`]; any other as its
    /// list.
    fn bind_source(&self, query: &AtomicQuery) -> Result<BoundSource, RepoError> {
        if self.unprefixed(query) == "Shape" {
            return Ok(Box::new(self.shape_stream(query)?));
        }
        Ok(Box::new(self.source_for(query)?))
    }

    fn crisp_matches(&self, _query: &AtomicQuery) -> Result<Option<Vec<Oid>>, RepoError> {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmdb_core::query::Query;
    use fmdb_media::synth::{ShapeFamily, SynthConfig};
    use fmdb_middleware::source::GradedSource;

    fn atom(attr: &str, target: Target) -> AtomicQuery {
        match Query::atomic(attr, target) {
            Query::Atomic(a) => a,
            _ => unreachable!(),
        }
    }

    #[test]
    fn table_grades_crisply() {
        let mut t = TableRepository::new("cds", 4);
        t.set(0, "Artist", Value::text("Beatles"));
        t.set(1, "Artist", Value::text("Kinks"));
        t.set(2, "Artist", Value::text("Beatles"));
        let q = atom("Artist", Target::Text("Beatles".into()));
        let mut src = t.source_for(&q).unwrap();
        assert_eq!(src.info().universe_size, 4);
        assert_eq!(src.random_access(0), Score::ONE);
        assert_eq!(src.random_access(1), Score::ZERO);
        assert_eq!(src.random_access(3), Score::ZERO); // no value set
        assert_eq!(t.crisp_matches(&q).unwrap(), Some(vec![0, 2]));
    }

    /// A value set outside the declared rows `0..n` declares its
    /// attribute and nothing else: no match, no streamed entry.
    #[test]
    fn a_value_set_outside_the_universe_belongs_to_no_row() {
        let mut t = TableRepository::new("cds", 2);
        t.set(1, "Artist", Value::text("Beatles"));
        t.set(2, "Artist", Value::text("Beatles"));
        t.set(u64::MAX, "Label", Value::text("Apple"));
        assert_eq!(
            t.attributes(),
            vec![
                ("Artist".to_owned(), AttributeKind::Crisp),
                ("Label".to_owned(), AttributeKind::Crisp)
            ]
        );
        let q = atom("Artist", Target::Text("Beatles".into()));
        assert_eq!(t.crisp_matches(&q).unwrap(), Some(vec![1]));
        let mut src = t.source_for(&q).unwrap();
        assert_eq!(src.info().universe_size, 2);
        assert_eq!(src.random_access(2), Score::ZERO);
        let apple = atom("Label", Target::Text("Apple".into()));
        assert_eq!(t.crisp_matches(&apple).unwrap(), Some(vec![]));
    }

    #[test]
    fn table_rejects_fuzzy_targets_and_unknown_attributes() {
        let t = TableRepository::new("cds", 2);
        assert!(matches!(
            t.source_for(&atom("Artist", Target::Text("x".into()))),
            Err(RepoError::UnknownAttribute { .. })
        ));
        let mut t2 = TableRepository::new("cds", 2);
        t2.set(0, "Artist", Value::text("Beatles"));
        assert!(matches!(
            t2.source_for(&atom("Artist", Target::Similar("red".into()))),
            Err(RepoError::TargetMismatch { .. })
        ));
    }

    fn small_qbic() -> QbicRepository {
        QbicRepository::new(
            "qbic",
            SyntheticDb::generate(&SynthConfig {
                count: 40,
                bins_per_channel: 3,
                seed: 11,
                ..SynthConfig::default()
            }),
        )
    }

    #[test]
    fn qbic_color_query_ranks_reddish_objects_first() {
        let repo = small_qbic();
        let mut src = repo
            .source_for(&atom("Color", Target::Similar("red".into())))
            .unwrap();
        // The top object under sorted access should be redder (in
        // dominant color) than the bottom one.
        let first = src.sorted_next().unwrap();
        let mut last = first;
        while let Some(so) = src.sorted_next() {
            last = so;
        }
        let dom_first = repo.db().objects[first.id as usize].dominant;
        let dom_last = repo.db().objects[last.id as usize].dominant;
        let redness = |c: Rgb| c.r - (c.g + c.b) / 2.0;
        assert!(
            redness(dom_first) > redness(dom_last),
            "first {:?} should be redder than last {:?}",
            dom_first,
            dom_last
        );
    }

    #[test]
    fn qbic_shape_query_prefers_matching_family() {
        let repo = small_qbic();
        let mut src = repo
            .source_for(&atom("Shape", Target::Similar("round".into())))
            .unwrap();
        let top = src.sorted_next().unwrap();
        assert_eq!(
            repo.db().objects[top.id as usize].family,
            ShapeFamily::Round,
            "top match for 'round' should be an ellipse"
        );
    }

    #[test]
    fn qbic_rejects_unknown_targets() {
        let repo = small_qbic();
        assert!(matches!(
            repo.source_for(&atom("Color", Target::Similar("chartreuse-ish".into()))),
            Err(RepoError::UnknownTarget(_))
        ));
        assert!(matches!(
            repo.source_for(&atom("Shape", Target::Similar("amorphous".into()))),
            Err(RepoError::UnknownTarget(_))
        ));
        assert!(matches!(
            repo.source_for(&atom("Texture", Target::Similar("velvety".into()))),
            Err(RepoError::UnknownTarget(_))
        ));
        assert!(matches!(
            repo.source_for(&atom("Luminance", Target::Similar("bright".into()))),
            Err(RepoError::UnknownAttribute { .. })
        ));
        assert_eq!(
            repo.crisp_matches(&atom("Color", Target::Similar("red".into())))
                .unwrap(),
            None
        );
    }

    #[test]
    fn query_by_example_ranks_the_example_first() {
        let repo = small_qbic();
        for attr in ["Color", "Shape", "Texture"] {
            let mut src = repo
                .source_for(&atom(attr, Target::Similar("#7".into())))
                .unwrap();
            let top = src.sorted_next().unwrap();
            assert_eq!(top.id, 7, "{attr}: the example must match itself best");
            assert_eq!(top.grade, Score::ONE, "{attr}");
        }
    }

    /// A named target is prepared on its first query and kept: every
    /// later query of it (in any case) grades as a fresh computation
    /// would, and an unknown name is still refused.
    #[test]
    fn named_targets_are_prepared_once_and_grade_as_fresh() {
        let repo = small_qbic();
        let drained = |attr: &str, name: &str| {
            let mut src = repo
                .source_for(&atom(attr, Target::Similar(name.into())))
                .unwrap();
            std::iter::from_fn(|| src.sorted_next())
                .map(|so| (so.id, so.grade.value().to_bits()))
                .collect::<Vec<_>>()
        };
        assert!(repo.shape_prototypes["round"].prepared.get().is_none());
        assert!(repo.texture_prototypes["coarse"].get().is_none());
        let (round, coarse) = (drained("Shape", "round"), drained("Texture", "coarse"));
        assert!(repo.shape_prototypes["round"].prepared.get().is_some());
        assert!(repo.shape_prototypes["boxy"].prepared.get().is_none());
        assert!(repo.texture_prototypes["coarse"].get().is_some());
        assert_eq!(drained("Shape", "ROUND"), round);
        assert_eq!(drained("Texture", "Coarse"), coarse);
        let outline = &repo.shape_prototypes["round"].outline;
        let fresh = repo.shape_corpus.distances(outline);
        let cached = repo
            .shape_corpus
            .distances_to(repo.shape_prototypes["round"].prepared.get().unwrap());
        assert_eq!(
            fresh.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            cached.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
        for (attr, name) in [("Shape", "blobby"), ("Texture", "fluffy")] {
            assert!(matches!(
                repo.source_for(&atom(attr, Target::Similar(name.into()))),
                Err(RepoError::UnknownTarget(_))
            ));
        }
    }

    #[test]
    fn query_by_example_rejects_bad_ids() {
        let repo = small_qbic();
        assert!(matches!(
            repo.source_for(&atom("Color", Target::Similar("#99999".into()))),
            Err(RepoError::UnknownTarget(_))
        ));
        assert!(matches!(
            repo.source_for(&atom("Color", Target::Similar("#notanid".into()))),
            Err(RepoError::UnknownTarget(_))
        ));
    }

    #[test]
    fn qbic_texture_query_orders_by_descriptor_distance() {
        let repo = small_qbic();
        let mut src = repo
            .source_for(&atom("Texture", Target::Similar("coarse".into())))
            .unwrap();
        let proto = fmdb_media::texture::named_texture("coarse").unwrap();
        let top = src.sorted_next().unwrap();
        let mut bottom = top;
        while let Some(so) = src.sorted_next() {
            bottom = so;
        }
        let d_top = repo.db().objects[top.id as usize].texture.distance(&proto);
        let d_bottom = repo.db().objects[bottom.id as usize]
            .texture
            .distance(&proto);
        assert!(
            d_top < d_bottom,
            "top {d_top} should be closer than bottom {d_bottom}"
        );
    }

    /// Scratch path under the workspace `target/` dir (tests must not
    /// write outside the repository).
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/store-tests");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(name)
    }

    #[test]
    fn persisted_repository_source_roundtrips_exactly() {
        use fmdb_middleware::store::{PagedStore, StoreOptions};
        let repo = small_qbic();
        let q = atom("Color", Target::Similar("red".into()));
        let path = scratch("garlic-color.fmdb");
        persist_source(&repo, &q, &path, &BuildConfig::DEFAULT).unwrap();
        let store = PagedStore::open(&path, StoreOptions::DEFAULT).unwrap();
        let mut paged = store.source();
        let mut live = repo.source_for(&q).unwrap();
        assert_eq!(paged.info().universe_size, live.info().universe_size);
        loop {
            let (a, b) = (paged.sorted_next(), live.sorted_next());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        for oid in 0..45u64 {
            assert_eq!(
                paged.random_access(oid),
                live.random_access(oid),
                "oid {oid}"
            );
        }
    }

    #[test]
    fn persist_source_propagates_grading_errors() {
        let repo = small_qbic();
        let q = atom("Color", Target::Similar("chartreuse-ish".into()));
        let path = scratch("garlic-bad.fmdb");
        assert!(matches!(
            persist_source(&repo, &q, &path, &BuildConfig::DEFAULT),
            Err(PersistError::Repo(RepoError::UnknownTarget(_)))
        ));
    }

    #[test]
    fn qbic_feature_targets_work() {
        let repo = small_qbic();
        let k = repo.db().space.k();
        let mut masses = vec![0.0; k];
        masses[0] = 1.0;
        let src = repo
            .source_for(&atom("Color", Target::Feature(masses)))
            .unwrap();
        assert_eq!(src.info().universe_size, 40);
    }

    #[test]
    fn attribute_prefixes_allow_multiple_image_repositories() {
        use crate::catalog::Catalog;
        let mk = |seed| {
            SyntheticDb::generate(&SynthConfig {
                count: 20,
                bins_per_channel: 3,
                seed,
                ..SynthConfig::default()
            })
        };
        let covers = QbicRepository::new("covers", mk(1)).with_attribute_prefix("Album");
        let booklets = QbicRepository::new("booklets", mk(2)).with_attribute_prefix("Booklet");
        assert_eq!(
            covers.attributes()[0].0,
            "AlbumColor",
            "the paper's attribute spelling"
        );
        let src = covers
            .source_for(&atom("AlbumColor", Target::Similar("red".into())))
            .unwrap();
        assert_eq!(src.info().universe_size, 20);
        assert!(matches!(
            covers.source_for(&atom("Color", Target::Similar("red".into()))),
            Err(RepoError::UnknownAttribute { .. })
        ));
        // Both register in one catalog without attribute collisions.
        let mut catalog = Catalog::new();
        catalog.register(Box::new(covers)).unwrap();
        catalog.register(Box::new(booklets)).unwrap();
        assert!(catalog.repository_for("AlbumShape").is_ok());
        assert!(catalog.repository_for("BookletTexture").is_ok());
    }

    #[test]
    fn named_colors_resolve() {
        assert!(named_color("red").is_some());
        assert!(named_color("RED").is_some());
        assert!(named_color("grey").is_some());
        assert!(named_color("mauve").is_none());
    }
}
