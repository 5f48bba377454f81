//! The catalog: attribute → repository routing plus id translation.
//!
//! Garlic knows which subsystem evaluates which attribute; the catalog
//! records that routing, owns the [`IdMapper`] (§4.2's one-to-one
//! requirement), and hands the executor *global-id* graded sources.
//!
//! Translation is the exception, not the rule: a repository registered
//! through [`Catalog::register`] maps `0..n` to itself, the mapper
//! records that as a range, and [`Catalog::source_for`] then returns
//! the repository's list as built — an atom is bound with one list
//! construction. Only a custom mapping pays a translation pass and a
//! second construction. [`Catalog::bind_source`] is the door a plan's
//! sources come through: under the identity mapping it is the
//! repository's own [`Repository::bind_source`], which may answer
//! without grading every object first.

use std::collections::HashMap;
use std::fmt;

use fmdb_core::query::AtomicQuery;
use fmdb_core::score::Score;
use fmdb_middleware::source::{GradedSource, VecSource};

use crate::idmap::{IdMapError, IdMapper};
use crate::object::Oid;
use crate::repository::{AttributeKind, BoundSource, RepoError, Repository};

/// Error raised by catalog operations.
#[derive(Debug)]
pub enum CatalogError {
    /// No repository serves this attribute.
    UnknownAttribute(String),
    /// Two repositories claimed the same attribute.
    DuplicateAttribute {
        /// The attribute.
        attribute: String,
        /// The repository that already owns it.
        owner: String,
    },
    /// Repository failure.
    Repo(RepoError),
    /// Id-mapping failure.
    IdMap(IdMapError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownAttribute(a) => {
                write!(f, "no repository serves attribute '{a}'")
            }
            CatalogError::DuplicateAttribute { attribute, owner } => {
                write!(f, "attribute '{attribute}' already served by '{owner}'")
            }
            CatalogError::Repo(e) => write!(f, "{e}"),
            CatalogError::IdMap(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<RepoError> for CatalogError {
    fn from(e: RepoError) -> Self {
        CatalogError::Repo(e)
    }
}

impl From<IdMapError> for CatalogError {
    fn from(e: IdMapError) -> Self {
        CatalogError::IdMap(e)
    }
}

/// The attribute routing table plus id mapping.
pub struct Catalog {
    repos: Vec<Box<dyn Repository>>,
    attr_to_repo: HashMap<String, usize>,
    attr_kind: HashMap<String, AttributeKind>,
    mapper: IdMapper,
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Catalog({} repositories, {} attributes)",
            self.repos.len(),
            self.attr_to_repo.len()
        )
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog {
            repos: Vec::new(),
            attr_to_repo: HashMap::new(),
            attr_kind: HashMap::new(),
            mapper: IdMapper::new(),
        }
    }

    /// Registers a repository whose local ids *are* global ids (the
    /// common in-process case): the identity mapping over its universe.
    pub fn register(&mut self, repo: Box<dyn Repository>) -> Result<(), CatalogError> {
        let n = repo.universe_size() as u64;
        let name = repo.name().to_owned();
        self.mapper.register_identity(&name, n)?;
        self.register_with_existing_mapping(repo)
    }

    /// Registers a repository whose local→global mapping has been (or
    /// will be) supplied through [`Catalog::mapper_mut`].
    pub fn register_with_existing_mapping(
        &mut self,
        repo: Box<dyn Repository>,
    ) -> Result<(), CatalogError> {
        let idx = self.repos.len();
        for (attr, kind) in repo.attributes() {
            if let Some(&owner) = self.attr_to_repo.get(&attr) {
                return Err(CatalogError::DuplicateAttribute {
                    attribute: attr,
                    owner: self.repos[owner].name().to_owned(),
                });
            }
            self.attr_to_repo.insert(attr.clone(), idx);
            self.attr_kind.insert(attr, kind);
        }
        self.repos.push(repo);
        Ok(())
    }

    /// Mutable access to the id mapper for custom registrations.
    pub fn mapper_mut(&mut self) -> &mut IdMapper {
        &mut self.mapper
    }

    /// The kind of an attribute, if known.
    pub fn attribute_kind(&self, attr: &str) -> Option<AttributeKind> {
        self.attr_kind.get(attr).copied()
    }

    /// The repository serving `attr`.
    pub fn repository_for(&self, attr: &str) -> Result<&dyn Repository, CatalogError> {
        let &idx = self
            .attr_to_repo
            .get(attr)
            .ok_or_else(|| CatalogError::UnknownAttribute(attr.to_owned()))?;
        Ok(self.repos[idx].as_ref())
    }

    /// Builds a **global-id** graded source for an atomic query: asks
    /// the owning repository, then translates every local id through
    /// the one-to-one mapping.
    ///
    /// When the mapper says the repository's whole mapping is the
    /// identity on `0..n` and the list holds no id beyond it, local
    /// ids *are* global ids and the repository's list is returned as
    /// built. Otherwise every id is translated once, in stream order —
    /// the first one the mapping does not cover fails the whole source
    /// — and the list is built once from the translated pairs.
    pub fn source_for(&self, query: &AtomicQuery) -> Result<VecSource, CatalogError> {
        let repo = self.repository_for(&query.attribute)?;
        let mut local = repo.source_for(query)?;
        local.rewind();
        let identity = self.mapper.identity_range(repo.name());
        if identity.is_some_and(|n| local.max_oid().is_none_or(|oid| oid < n)) {
            return Ok(local);
        }
        let to_global = self.mapper.translator(repo.name());
        let grades = local
            .sorted_batch(usize::MAX)
            .into_iter()
            .map(|so| Ok((to_global(so.id)?, so.grade)))
            .collect::<Result<Vec<(Oid, Score)>, IdMapError>>()?;
        Ok(VecSource::new(local.info().label, grades))
    }

    /// The source a plan reads for an atomic query, in global ids. When
    /// the mapper says the repository's whole universe maps to itself,
    /// it is the repository's [`Repository::bind_source`] as bound (by
    /// default its [`Repository::source_for`] list, boxed), which, as
    /// every list a repository builds, grades ids below its universe
    /// size only. Otherwise it is [`Catalog::source_for`]'s translated
    /// list.
    pub fn bind_source(&self, query: &AtomicQuery) -> Result<BoundSource, CatalogError> {
        let repo = self.repository_for(&query.attribute)?;
        let universe = repo.universe_size() as u64;
        if self
            .mapper
            .identity_range(repo.name())
            .is_some_and(|n| n >= universe)
        {
            return Ok(repo.bind_source(query)?);
        }
        Ok(Box::new(self.source_for(query)?))
    }

    /// The crisp match set (global ids) for a crisp atomic query, or
    /// `None` if the attribute is fuzzy.
    pub fn crisp_matches(&self, query: &AtomicQuery) -> Result<Option<Vec<Oid>>, CatalogError> {
        let repo = self.repository_for(&query.attribute)?;
        let Some(locals) = repo.crisp_matches(query)? else {
            return Ok(None);
        };
        let mut globals = locals
            .into_iter()
            .map(self.mapper.translator(repo.name()))
            .collect::<Result<Vec<_>, _>>()?;
        // A set: the executor relies on ascending and unique.
        globals.sort_unstable();
        globals.dedup();
        Ok(Some(globals))
    }

    /// The largest universe size among registered repositories — the
    /// `N` of the paper's cost bounds.
    pub fn universe_size(&self) -> usize {
        self.repos
            .iter()
            .map(|r| r.universe_size())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Value;
    use crate::repository::TableRepository;
    use fmdb_core::query::{Query, Target};

    fn atom(attr: &str, target: Target) -> AtomicQuery {
        match Query::atomic(attr, target) {
            Query::Atomic(a) => a,
            _ => unreachable!(),
        }
    }

    fn table(name: &str, n: u64) -> TableRepository {
        let mut t = TableRepository::new(name, n);
        t.set(0, "Artist", Value::text("Beatles"));
        t.set(1, "Artist", Value::text("Kinks"));
        t
    }

    #[test]
    fn register_and_route() {
        let mut c = Catalog::new();
        c.register(Box::new(table("cds", 3))).unwrap();
        assert_eq!(c.attribute_kind("Artist"), Some(AttributeKind::Crisp));
        assert_eq!(c.universe_size(), 3);
        assert!(c.repository_for("Artist").is_ok());
        assert!(matches!(
            c.repository_for("Color"),
            Err(CatalogError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn duplicate_attributes_rejected() {
        let mut c = Catalog::new();
        c.register(Box::new(table("cds", 3))).unwrap();
        let err = c.register(Box::new(table("cds2", 3))).unwrap_err();
        assert!(matches!(err, CatalogError::DuplicateAttribute { .. }));
    }

    #[test]
    fn source_ids_are_translated_to_global() {
        let mut c = Catalog::new();
        // Custom mapping: local 0 → global 100, local 1 → 101, 2 → 102.
        for l in 0..3 {
            c.mapper_mut().register("cds", l, 100 + l).unwrap();
        }
        c.register_with_existing_mapping(Box::new(table("cds", 3)))
            .unwrap();
        let mut src = c
            .source_for(&atom("Artist", Target::Text("Beatles".into())))
            .unwrap();
        assert_eq!(src.random_access(100), Score::ONE);
        assert_eq!(src.random_access(0), Score::ZERO); // untranslated id: unknown
        let matches = c
            .crisp_matches(&atom("Artist", Target::Text("Beatles".into())))
            .unwrap()
            .unwrap();
        assert_eq!(matches, vec![100]);
    }

    #[test]
    fn an_unmapped_local_id_fails_the_whole_source() {
        let mut c = Catalog::new();
        // Rows 0 and 1 are mapped; row 2 of the table is not.
        for l in 0..2 {
            c.mapper_mut().register("cds", l, 100 + l).unwrap();
        }
        c.register_with_existing_mapping(Box::new(table("cds", 3)))
            .unwrap();
        let beatles = atom("Artist", Target::Text("Beatles".into()));
        assert!(matches!(
            c.source_for(&beatles),
            Err(CatalogError::IdMap(IdMapError::Unmapped { id: 2, .. }))
        ));
        // The match set {0} only needs the mapped row.
        assert_eq!(c.crisp_matches(&beatles).unwrap(), Some(vec![100]));
    }

    /// The identity shortcut is the mapper's word *and* the list's: a
    /// list naming an id past the registered range is translated, and
    /// fails as any unmapped id does.
    #[test]
    fn an_id_beyond_the_identity_range_still_fails_the_source() {
        /// Claims two objects, grades three ids.
        struct Overreaching;
        impl Repository for Overreaching {
            fn name(&self) -> &str {
                "over"
            }
            fn attributes(&self) -> Vec<(String, AttributeKind)> {
                vec![("Hue".to_owned(), AttributeKind::Fuzzy)]
            }
            fn universe_size(&self) -> usize {
                2
            }
            fn source_for(&self, _: &AtomicQuery) -> Result<VecSource, RepoError> {
                let grades = vec![(0, Score::ONE), (1, Score::HALF), (5, Score::HALF)];
                Ok(VecSource::new("over:Hue", grades))
            }
            fn crisp_matches(&self, _: &AtomicQuery) -> Result<Option<Vec<Oid>>, RepoError> {
                Ok(None)
            }
        }
        let mut c = Catalog::new();
        c.register(Box::new(Overreaching)).unwrap();
        assert!(matches!(
            c.source_for(&atom("Hue", Target::Similar("red".into()))),
            Err(CatalogError::IdMap(IdMapError::Unmapped { id: 5, .. }))
        ));
    }

    #[test]
    fn identity_registration_is_transparent() {
        let mut c = Catalog::new();
        c.register(Box::new(table("cds", 3))).unwrap();
        let mut src = c
            .source_for(&atom("Artist", Target::Text("Kinks".into())))
            .unwrap();
        assert_eq!(src.random_access(1), Score::ONE);
    }
}
