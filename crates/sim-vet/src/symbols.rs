//! Workspace-wide symbol table: every struct, enum, and fn extracted from
//! every scanned file, queryable by name. The cross-file cache-token rule
//! resolves types through it.

use crate::items::{EnumItem, FnItem, Items, StructItem};
use std::collections::BTreeMap;

/// A struct definition and where it lives.
#[derive(Clone, Debug)]
pub struct StructSym {
    pub path: String,
    pub item: StructItem,
}

#[derive(Clone, Debug)]
pub struct EnumSym {
    pub path: String,
    pub item: EnumItem,
}

#[derive(Clone, Debug)]
pub struct FnSym {
    pub path: String,
    pub item: FnItem,
}

/// Name-keyed view over every scanned file's items. Names are unqualified
/// (`CellConfig`, not `cell_be::CellConfig`); collisions keep every
/// definition — shipping (non-test) definitions are listed first so rules
/// that take "the" definition prefer real code over test scaffolding.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    structs: BTreeMap<String, Vec<StructSym>>,
    enums: BTreeMap<String, Vec<EnumSym>>,
    fns: BTreeMap<String, Vec<FnSym>>,
}

impl SymbolTable {
    pub fn add_file(&mut self, path: &str, items: &Items) {
        for s in &items.structs {
            self.structs
                .entry(s.name.clone())
                .or_default()
                .push(StructSym {
                    path: path.to_string(),
                    item: s.clone(),
                });
        }
        for e in &items.enums {
            self.enums.entry(e.name.clone()).or_default().push(EnumSym {
                path: path.to_string(),
                item: e.clone(),
            });
        }
        for f in &items.fns {
            self.fns.entry(f.name.clone()).or_default().push(FnSym {
                path: path.to_string(),
                item: f.clone(),
            });
        }
        // Shipping definitions first.
        for v in self.structs.values_mut() {
            v.sort_by_key(|s| s.item.in_test);
        }
    }

    /// The first shipping definition of a struct by unqualified name.
    pub fn structure(&self, name: &str) -> Option<&StructSym> {
        self.structs.get(name).and_then(|v| v.first())
    }

    pub fn enumeration(&self, name: &str) -> Option<&EnumSym> {
        self.enums.get(name).and_then(|v| v.first())
    }

    /// Every fn with this name (across impls and files).
    pub fn fns_named(&self, name: &str) -> &[FnSym] {
        self.fns.get(name).map_or(&[], Vec::as_slice)
    }

    /// All struct names, for membership tests.
    pub fn has_struct(&self, name: &str) -> bool {
        self.structs.contains_key(name)
    }

    /// Resolve a field type string to a struct in the table, looking through
    /// one layer of common wrappers (`Option<T>`, `Box<T>`, references).
    pub fn resolve_field_struct(&self, ty: &str) -> Option<&StructSym> {
        for word in ty.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if word.is_empty() || matches!(word, "Option" | "Box" | "Vec" | "mut") {
                continue;
            }
            if let Some(s) = self.structure(word) {
                return Some(s);
            }
            // Only look through wrappers; a first unknown concrete type ends
            // the search (e.g. `[f32; 3]`, `usize`).
            if word.chars().next().is_some_and(char::is_uppercase) {
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        let mut t = SymbolTable::default();
        for (path, src) in files {
            t.add_file(path, &extract(src, &lex(src)));
        }
        t
    }

    #[test]
    fn cross_file_struct_lookup() {
        let t = table(&[
            (
                "a.rs",
                "pub struct CellConfig { pub clock_hz: f64, pub costs: SpeCostModel }",
            ),
            ("b.rs", "pub struct SpeCostModel { pub lj_eval: f64 }"),
        ]);
        let c = t.structure("CellConfig").unwrap();
        assert_eq!(c.path, "a.rs");
        let nested = t.resolve_field_struct(&c.item.fields[1].ty).unwrap();
        assert_eq!(nested.item.name, "SpeCostModel");
    }

    #[test]
    fn wrappers_are_looked_through() {
        let t = table(&[(
            "m.rs",
            "pub struct RemoteMemoryModel { pub remote_fraction: f64 }",
        )]);
        assert!(t
            .resolve_field_struct("Option < RemoteMemoryModel >")
            .is_some());
        assert!(t.resolve_field_struct("f64").is_none());
        assert!(t.resolve_field_struct("Option < UnknownThing >").is_none());
    }

    #[test]
    fn shipping_definition_wins_over_test_double() {
        let t = table(&[
            (
                "t.rs",
                "#[cfg(test)]\nmod tests { pub struct Cfg { pub fake: u8 } }",
            ),
            ("s.rs", "pub struct Cfg { pub real: u8 }"),
        ]);
        assert_eq!(t.structure("Cfg").unwrap().item.fields[0].name, "real");
    }
}
