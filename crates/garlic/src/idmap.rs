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

/// Per-subsystem bijections between local and global ids.
#[derive(Debug, Clone, Default)]
pub struct IdMapper {
    to_global: HashMap<String, HashMap<LocalId, Oid>>,
    to_local: HashMap<String, HashMap<Oid, LocalId>>,
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
        let fwd = self.to_global.entry(subsystem.to_owned()).or_default();
        if let Some(&existing) = fwd.get(&local) {
            if existing != global {
                return Err(IdMapError::LocalAlreadyMapped {
                    subsystem: subsystem.to_owned(),
                    local,
                    existing,
                });
            }
            return Ok(());
        }
        let bwd = self.to_local.entry(subsystem.to_owned()).or_default();
        if let Some(&existing) = bwd.get(&global) {
            if existing != local {
                return Err(IdMapError::GlobalAlreadyMapped {
                    subsystem: subsystem.to_owned(),
                    global,
                    existing,
                });
            }
            return Ok(());
        }
        fwd.insert(local, global);
        bwd.insert(global, local);
        Ok(())
    }

    /// Registers the identity mapping for a dense range `0..n` — the
    /// common case for in-process repositories.
    pub fn register_identity(&mut self, subsystem: &str, n: u64) -> Result<(), IdMapError> {
        for id in 0..n {
            self.register(subsystem, id, id)?;
        }
        Ok(())
    }

    /// Translates a subsystem-local id to the global id.
    pub fn to_global(&self, subsystem: &str, local: LocalId) -> Result<Oid, IdMapError> {
        self.translator(subsystem)(local)
    }

    /// The local → global translation of one subsystem, with the
    /// subsystem's table looked up once: translating a whole graded
    /// list costs one id hash per entry, not a name hash as well.
    pub fn translator<'a>(
        &'a self,
        subsystem: &'a str,
    ) -> impl Fn(LocalId) -> Result<Oid, IdMapError> + 'a {
        let table = self.to_global.get(subsystem);
        move |local| {
            table
                .and_then(|m| m.get(&local))
                .copied()
                .ok_or_else(|| IdMapError::Unmapped {
                    subsystem: subsystem.to_owned(),
                    id: local,
                })
        }
    }

    /// Translates a global id to the subsystem-local id.
    pub fn to_local(&self, subsystem: &str, global: Oid) -> Result<LocalId, IdMapError> {
        self.to_local
            .get(subsystem)
            .and_then(|m| m.get(&global))
            .copied()
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

    #[test]
    fn error_display() {
        let e = IdMapError::Unmapped {
            subsystem: "qbic".into(),
            id: 9,
        };
        assert!(e.to_string().contains("qbic"));
    }
}
