//! The catalog registry: named schemas registered once, fingerprinted once.
//!
//! Clients register a (schema, constraints, value-factory) bundle under a
//! name and get back a [`CatalogId`]; every subsequent request references
//! the catalog by id, so the schema is never re-shipped, re-validated or
//! re-fingerprinted on the hot path. A catalog may also carry a *dataset*
//! (a [`rbqa_engine::ServiceSimulator`] over a hidden instance) enabling
//! `Execute`-mode requests.

use std::sync::Arc;

use rbqa_access::Schema;
use rbqa_common::{Instance, ValueFactory};
use rbqa_engine::ServiceSimulator;

use crate::fingerprint::{schema_fingerprint, Fingerprint};

/// Identifier of a registered catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CatalogId(u32);

impl CatalogId {
    /// Builds a `CatalogId` from a dense index.
    pub fn from_index(index: usize) -> Self {
        CatalogId(u32::try_from(index).expect("more than u32::MAX catalogs"))
    }

    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One registered catalog. Immutable after registration (attach a dataset
/// by replacing the entry, see [`crate::QueryService::attach_dataset`]),
/// so worker threads share it through a plain `Arc` without locking.
#[derive(Debug)]
pub struct CatalogEntry {
    /// Registration name.
    pub name: String,
    /// The schema (signature, constraints, access methods).
    pub schema: Schema,
    /// Factory that interned the schema's constants, frozen at
    /// registration: clients derive their query factories from clones of
    /// this, and a clone shares its constants instead of copying them.
    pub values: ValueFactory,
    /// Fingerprint of the schema, mixed into every request fingerprint.
    pub fingerprint: Fingerprint,
    /// Simulated services over a registered dataset, for `Execute`.
    pub simulator: Option<ServiceSimulator>,
}

impl CatalogEntry {
    /// Creates an entry, computing the schema fingerprint and freezing
    /// the factory (see [`ValueFactory::freeze`]).
    pub fn new(name: &str, schema: Schema, mut values: ValueFactory) -> Self {
        values.freeze();
        let fingerprint = schema_fingerprint(&schema, &|v| values.display(v));
        CatalogEntry {
            name: name.to_owned(),
            schema,
            values,
            fingerprint,
            simulator: None,
        }
    }

    /// Returns a copy of the entry with a dataset attached.
    pub fn with_dataset(&self, data: Instance) -> Self {
        CatalogEntry {
            name: self.name.clone(),
            schema: self.schema.clone(),
            values: self.values.clone(),
            fingerprint: self.fingerprint,
            simulator: Some(ServiceSimulator::new(self.schema.clone(), data)),
        }
    }
}

/// The registry: append-only list of catalogs plus a name index.
#[derive(Debug, Default)]
pub struct CatalogRegistry {
    entries: Vec<Arc<CatalogEntry>>,
}

impl CatalogRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a catalog; names must be unique.
    pub fn register(&mut self, entry: CatalogEntry) -> Result<CatalogId, String> {
        if self.entries.iter().any(|e| e.name == entry.name) {
            return Err(entry.name);
        }
        let id = CatalogId::from_index(self.entries.len());
        self.entries.push(Arc::new(entry));
        Ok(id)
    }

    /// Replaces the entry at `id` (used to attach datasets).
    pub fn replace(&mut self, id: CatalogId, entry: CatalogEntry) -> bool {
        match self.entries.get_mut(id.index()) {
            Some(slot) => {
                *slot = Arc::new(entry);
                true
            }
            None => false,
        }
    }

    /// The entry for `id`.
    pub fn get(&self, id: CatalogId) -> Option<Arc<CatalogEntry>> {
        self.entries.get(id.index()).map(Arc::clone)
    }

    /// Looks a catalog up by name.
    pub fn by_name(&self, name: &str) -> Option<(CatalogId, Arc<CatalogEntry>)> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|i| (CatalogId::from_index(i), Arc::clone(&self.entries[i])))
    }

    /// Number of registered catalogs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbqa_common::Signature;

    fn schema() -> Schema {
        let mut sig = Signature::new();
        sig.add_relation("R", 2).unwrap();
        Schema::new(sig)
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = CatalogRegistry::new();
        let id = reg
            .register(CatalogEntry::new("a", schema(), ValueFactory::new()))
            .unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(id).unwrap().name, "a");
        let (found, entry) = reg.by_name("a").unwrap();
        assert_eq!(found, id);
        assert_eq!(entry.fingerprint, reg.get(id).unwrap().fingerprint);
        assert!(reg.by_name("b").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut reg = CatalogRegistry::new();
        reg.register(CatalogEntry::new("a", schema(), ValueFactory::new()))
            .unwrap();
        let err = reg.register(CatalogEntry::new("a", schema(), ValueFactory::new()));
        assert_eq!(err.unwrap_err(), "a");
    }

    #[test]
    fn attach_dataset_via_replace() {
        let mut reg = CatalogRegistry::new();
        let entry = CatalogEntry::new("a", schema(), ValueFactory::new());
        let id = reg.register(entry).unwrap();
        let base = reg.get(id).unwrap();
        let sig = base.schema.signature().clone();
        let with_data = base.with_dataset(Instance::new(sig));
        assert!(reg.replace(id, with_data));
        assert!(reg.get(id).unwrap().simulator.is_some());
        assert!(!reg.replace(
            CatalogId::from_index(9),
            CatalogEntry::new("x", schema(), ValueFactory::new())
        ));
    }
}
