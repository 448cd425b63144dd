//! Seeded inputs: verdict-preserving variants of the bundled manifests and
//! the fig. 13 conflicting-packages pairs.

use crate::stats::Rng;
use rehearsal::benchmarks::{FIXED_SUITE, METADATA_SUITE, SUITE};
use rehearsal::fs::FsPath;
use rehearsal::pkgdb::{PackageDb, PackageSpec, Platform};

/// One bundled manifest with the verdict its suite pins.
#[derive(Clone, Copy)]
pub struct Base {
    pub name: &'static str,
    pub source: &'static str,
    pub deterministic: bool,
    /// Sent with `model_metadata: true` (the `benchmarks-metadata/` suite).
    pub metadata: bool,
}

/// The 19 distinct manifests of `benchmarks/` (13 deterministic, 6 not).
pub fn fleet_suite() -> Vec<Base> {
    let mut out: Vec<Base> = Vec::new();
    for b in SUITE.iter().chain(FIXED_SUITE) {
        if !out.iter().any(|o| o.name == b.name) {
            out.push(Base {
                name: b.name,
                source: b.source,
                deterministic: b.deterministic,
                metadata: false,
            });
        }
    }
    out
}

/// Both bundled suites: `benchmarks/` plus `benchmarks-metadata/`.
pub fn both_suites() -> Vec<Base> {
    let mut out = fleet_suite();
    out.extend(METADATA_SUITE.iter().map(|b| Base {
        name: b.name,
        source: b.source,
        deterministic: b.deterministic_with_metadata,
        metadata: true,
    }));
    out
}

/// A verdict-preserving variant of `base` carrying `tag`.
///
/// Every `content => '…'` literal gets the same ` tag` suffix, so contents
/// that were equal stay equal and contents that differed still differ: the
/// verdict is unchanged while the lowered graph (and so every digest-keyed
/// cache and memo) is new. Manifests without content literals rename their
/// one managed user instead, which is just as injective.
pub fn variant(base: &Base, tag: &str) -> String {
    const KEY: &str = "content => '";
    let src = base.source;
    if !src.contains(KEY) {
        return src.replace("deploy", &format!("deploy{tag}"));
    }
    let mut out = String::with_capacity(src.len() + 64);
    let mut rest = src;
    while let Some(at) = rest.find(KEY) {
        let open = at + KEY.len();
        let close = open + rest[open..].find('\'').expect("content literal is closed");
        out.push_str(&rest[..close]);
        out.push(' ');
        out.push_str(tag);
        rest = &rest[close..];
    }
    out.push_str(rest);
    out
}

/// Whether [`variant`] changes a content literal (edits need one).
pub fn has_content(base: &Base) -> bool {
    base.source.contains("content => '")
}

/// One fig. 13 op: the deterministic manifest, its non-deterministic twin,
/// and the seeded package database both are lowered against.
pub struct Fig13Pair {
    pub det: String,
    pub nondet: String,
    pub db: PackageDb,
}

/// `n` packages that all install one shared file plus two files of their
/// own, and a final `file` resource on the shared path. Ordered after every
/// package the manifest is deterministic (the solver must prove the final
/// content wins); the twin drops that ordering and is not. Names and paths
/// come from the seed, so no digest-keyed memo answers one op from another.
pub fn fig13_pair(rng: &mut Rng, n: usize) -> Fig13Pair {
    let prefix = format!("p{}", rng.tag());
    let root = FsPath::parse(&format!("/srv/{prefix}")).expect("generated path is valid");
    let shared = root.join("shared.conf");
    let mut db = PackageDb::new(Platform::Ubuntu);
    let mut det = String::new();
    let mut nondet = String::new();
    for i in 1..=n {
        let name = format!("{prefix}-pkg{i}");
        let files = vec![
            shared,
            root.join(&format!("{name}.bin")),
            root.join(&format!("{name}.dat")),
        ];
        db.insert(PackageSpec::new(name.clone(), files, vec![]));
        det.push_str(&format!(
            "package {{ '{name}': ensure => present, before => File['{shared}'] }}\n"
        ));
        nondet.push_str(&format!("package {{ '{name}': ensure => present }}\n"));
    }
    let file = format!("file {{ '{shared}': content => '{}' }}\n", rng.tag());
    det.push_str(&file);
    nondet.push_str(&file);
    Fig13Pair { det, nondet, db }
}
