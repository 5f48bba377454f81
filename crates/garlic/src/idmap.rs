//! Cross-subsystem object-id mapping (§4.2).
//!
//! "Since we are dealing with multiple subsystems, the 'same' object
//! might have different identities in different subsystems. Even if
//! there is some correspondence between object id's in different
//! subsystems, Garlic has to be sure that the mapping is one-to-one."
//!
//! [`IdMapper`] maintains, per subsystem, a bijection between that
//! subsystem's local ids and the middleware's global ids. Registration
//! *enforces* one-to-one-ness: mapping a local id to two globals, or a
//! global to two locals, is rejected — random access depends on it (a
//! many-to-one mapping would silently merge distinct objects' grades).

use std::collections::HashMap;
use std::fmt;

use crate::object::Oid;

/// A subsystem-local identifier.
pub type LocalId = u64;

/// Error raised by id registration or translation.
#[derive(Debug, Clone, PartialEq)]
pub enum IdMapError {
    /// The local id is already mapped to a different global id.
    LocalAlreadyMapped {
        /// Subsystem name.
        subsystem: String,
        /// The local id.
        local: LocalId,
        /// The global id it is already bound to.
        existing: Oid,
    },
    /// The global id is already mapped to a different local id.
    GlobalAlreadyMapped {
        /// Subsystem name.
        subsystem: String,
        /// The global id.
        global: Oid,
        /// The local id it is already bound to.
        existing: LocalId,
    },
    /// No mapping registered for this id.
    Unmapped {
        /// Subsystem name.
        subsystem: String,
        /// The id that failed to translate.
        id: u64,
    },
}

impl fmt::Display for IdMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdMapError::LocalAlreadyMapped {
                subsystem,
                local,
                existing,
            } => write!(
                f,
                "{subsystem}: local id {local} already mapped to global {existing}"
            ),
            IdMapError::GlobalAlreadyMapped {
                subsystem,
                global,
                existing,
            } => write!(
                f,
                "{subsystem}: global id {global} already mapped to local {existing}"
            ),
            IdMapError::Unmapped { subsystem, id } => {
                write!(f, "{subsystem}: id {id} has no mapping")
            }
        }
    }
}

impl std::error::Error for IdMapError {}

/// One subsystem's bijection: the identity on a dense range plus
/// explicit pairs outside it.
#[derive(Debug, Clone, Default)]
struct SubsystemMap {
    /// `0..identity ↦ 0..identity`, recorded as the range it is.
    identity: u64,
    /// Explicit pairs; none has a local or a global id below
    /// `identity` (the range owns those).
    to_global: HashMap<LocalId, Oid>,
    to_local: HashMap<Oid, LocalId>,
}

impl SubsystemMap {
    /// What `id` is bound to in one direction: itself inside the
    /// range, else what that direction's `explicit` pairs say.
    fn bound(&self, explicit: &HashMap<u64, u64>, id: u64) -> Option<u64> {
        if id < self.identity {
            Some(id)
        } else {
            explicit.get(&id).copied()
        }
    }
}

/// Per-subsystem bijections between local and global ids.
#[derive(Debug, Clone, Default)]
pub struct IdMapper {
    subsystems: HashMap<String, SubsystemMap>,
}

impl IdMapper {
    /// An empty mapper.
    pub fn new() -> IdMapper {
        IdMapper::default()
    }

    /// Registers `local ↔ global` for `subsystem`, enforcing the
    /// bijection. Re-registering the identical pair is a no-op.
    pub fn register(
        &mut self,
        subsystem: &str,
        local: LocalId,
        global: Oid,
    ) -> Result<(), IdMapError> {
        let map = self.subsystems.entry(subsystem.to_owned()).or_default();
        if let Some(existing) = map.bound(&map.to_global, local) {
            if existing != global {
                return Err(IdMapError::LocalAlreadyMapped {
                    subsystem: subsystem.to_owned(),
                    local,
                    existing,
                });
            }
            return Ok(());
        }
        if let Some(existing) = map.bound(&map.to_local, global) {
            // `existing == local` cannot happen: `local` has no
            // binding, or the branch above would have returned.
            return Err(IdMapError::GlobalAlreadyMapped {
                subsystem: subsystem.to_owned(),
                global,
                existing,
            });
        }
        map.to_global.insert(local, global);
        map.to_local.insert(global, local);
        Ok(())
    }

    /// Registers the identity mapping for a dense range `0..n` — the
    /// common case for in-process repositories. The range is recorded
    /// as a range: registration costs O(explicit pairs), not O(n), and
    /// translating an id inside it is a comparison.
    ///
    /// On a conflict with an explicit pair the error names the
    /// smallest id that cannot map to itself, and the ids below it are
    /// registered — what registering `0..n` one by one would do.
    pub fn register_identity(&mut self, subsystem: &str, n: u64) -> Result<(), IdMapError> {
        let map = self.subsystems.entry(subsystem.to_owned()).or_default();
        // An explicit pair `l ↔ g`, `l ≠ g`, stops the one-by-one
        // registration at `l` (local side, checked first) and at `g`
        // (global side): (id, global side?, what it is bound to).
        let conflict = map
            .to_global
            .iter()
            .filter(|&(&local, &global)| local != global)
            .flat_map(|(&local, &global)| [(local, false, global), (global, true, local)])
            .filter(|&(id, ..)| id < n)
            .min();
        let covered = conflict.map_or(n, |(id, ..)| id);
        if covered > map.identity {
            map.identity = covered;
            // The range now owns the explicit `i ↔ i` pairs inside it.
            map.to_global.retain(|&local, _| local >= covered);
            map.to_local.retain(|&global, _| global >= covered);
        }
        let Some((id, global_side, existing)) = conflict else {
            return Ok(());
        };
        let subsystem = subsystem.to_owned();
        Err(if global_side {
            IdMapError::GlobalAlreadyMapped {
                subsystem,
                global: id,
                existing,
            }
        } else {
            IdMapError::LocalAlreadyMapped {
                subsystem,
                local: id,
                existing,
            }
        })
    }

    /// The `n` for which `subsystem`'s *whole* mapping is the identity
    /// on `0..n`: ids below `n` translate to themselves and no other
    /// id is mapped at all. `None` when explicit pairs exist, or
    /// nothing was registered.
    pub(crate) fn identity_range(&self, subsystem: &str) -> Option<u64> {
        self.subsystems
            .get(subsystem)
            .filter(|map| map.to_global.is_empty())
            .map(|map| map.identity)
    }

    /// Translates a subsystem-local id to the global id.
    pub fn to_global(&self, subsystem: &str, local: LocalId) -> Result<Oid, IdMapError> {
        self.translator(subsystem)(local)
    }

    /// The local → global translation of one subsystem, with the
    /// subsystem's table looked up once: translating a whole graded
    /// list costs at most one id hash per entry, not a name hash as
    /// well.
    pub fn translator<'a>(
        &'a self,
        subsystem: &'a str,
    ) -> impl Fn(LocalId) -> Result<Oid, IdMapError> + 'a {
        let map = self.subsystems.get(subsystem);
        move |local| {
            map.and_then(|m| m.bound(&m.to_global, local))
                .ok_or_else(|| IdMapError::Unmapped {
                    subsystem: subsystem.to_owned(),
                    id: local,
                })
        }
    }

    /// Translates a global id to the subsystem-local id.
    pub fn to_local(&self, subsystem: &str, global: Oid) -> Result<LocalId, IdMapError> {
        self.subsystems
            .get(subsystem)
            .and_then(|m| m.bound(&m.to_local, global))
            .ok_or_else(|| IdMapError::Unmapped {
                subsystem: subsystem.to_owned(),
                id: global,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_translation() {
        let mut m = IdMapper::new();
        m.register("qbic", 100, 1).unwrap();
        m.register("qbic", 200, 2).unwrap();
        m.register("rdbms", 7, 1).unwrap();
        assert_eq!(m.to_global("qbic", 100).unwrap(), 1);
        assert_eq!(m.to_local("qbic", 1).unwrap(), 100);
        assert_eq!(m.to_local("rdbms", 1).unwrap(), 7);
    }

    #[test]
    fn one_to_one_is_enforced() {
        let mut m = IdMapper::new();
        m.register("qbic", 100, 1).unwrap();
        // Same pair again: fine.
        m.register("qbic", 100, 1).unwrap();
        // Local remapped: rejected.
        assert!(matches!(
            m.register("qbic", 100, 2),
            Err(IdMapError::LocalAlreadyMapped { existing: 1, .. })
        ));
        // Global remapped: rejected.
        assert!(matches!(
            m.register("qbic", 300, 1),
            Err(IdMapError::GlobalAlreadyMapped { existing: 100, .. })
        ));
        // Other subsystems are independent namespaces.
        m.register("rdbms", 100, 2).unwrap();
    }

    #[test]
    fn unmapped_ids_error() {
        let m = IdMapper::new();
        assert!(matches!(
            m.to_global("qbic", 5),
            Err(IdMapError::Unmapped { .. })
        ));
        assert!(matches!(
            m.to_local("qbic", 5),
            Err(IdMapError::Unmapped { .. })
        ));
    }

    #[test]
    fn identity_registration() {
        let mut m = IdMapper::new();
        m.register_identity("table", 5).unwrap();
        for i in 0..5 {
            assert_eq!(m.to_global("table", i).unwrap(), i);
        }
    }

    /// The range and the explicit pairs are one bijection: `register`
    /// is checked against both, whichever came first.
    #[test]
    fn identity_range_and_explicit_pairs_share_one_bijection() {
        let mut m = IdMapper::new();
        m.register_identity("t", 5).unwrap();
        assert_eq!(m.identity_range("t"), Some(5));

        // Inside the range: only the identity pair is acceptable.
        m.register("t", 3, 3).unwrap();
        assert_eq!(m.identity_range("t"), Some(5), "a no-op stays a range");
        assert!(matches!(
            m.register("t", 3, 9),
            Err(IdMapError::LocalAlreadyMapped { existing: 3, .. })
        ));
        // Across it: an outside local may not take an inside global.
        assert!(matches!(
            m.register("t", 9, 3),
            Err(IdMapError::GlobalAlreadyMapped { existing: 3, .. })
        ));
        // Beyond it: free, in both directions, and no longer a pure
        // identity.
        m.register("t", 9, 20).unwrap();
        m.register("t", 7, 7).unwrap();
        assert_eq!(m.identity_range("t"), None);
        assert_eq!(m.to_global("t", 9).unwrap(), 20);
        assert_eq!(m.to_local("t", 20).unwrap(), 9);
        assert_eq!(m.to_global("t", 4).unwrap(), 4);
        assert_eq!(m.to_local("t", 4).unwrap(), 4);
        assert!(m.to_global("t", 5).is_err());
        assert!(m.to_local("t", 9).is_err());

        // Growing the range over explicit pairs: `7 ↔ 7` is absorbed,
        // `9 ↔ 20` stops it at local 9 with 0..9 registered — what
        // registering 0..30 one id at a time does.
        assert!(matches!(
            m.register_identity("t", 30),
            Err(IdMapError::LocalAlreadyMapped {
                local: 9,
                existing: 20,
                ..
            })
        ));
        for id in 0..9 {
            assert_eq!(m.to_global("t", id).unwrap(), id);
            assert_eq!(m.to_local("t", id).unwrap(), id);
        }
        assert_eq!(m.to_global("t", 9).unwrap(), 20);
        assert!(m.to_global("t", 10).is_err());

        // The global side stops it too, and the smaller id wins.
        let mut g = IdMapper::new();
        g.register("t", 50, 2).unwrap();
        assert!(matches!(
            g.register_identity("t", 100),
            Err(IdMapError::GlobalAlreadyMapped {
                global: 2,
                existing: 50,
                ..
            })
        ));
        assert_eq!(g.to_global("t", 1).unwrap(), 1);
        assert!(g.to_global("t", 2).is_err());

        // Re-registering a shorter or equal range changes nothing.
        let mut r = IdMapper::new();
        r.register_identity("t", 8).unwrap();
        r.register_identity("t", 4).unwrap();
        assert_eq!(r.identity_range("t"), Some(8));
    }

    #[test]
    fn error_display() {
        let e = IdMapError::Unmapped {
            subsystem: "qbic".into(),
            id: 9,
        };
        assert!(e.to_string().contains("qbic"));
    }
}
