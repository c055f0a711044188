//! Workspace consistency: declarations that live in one crate and are
//! used from others must not drift apart.
//!
//! - **Obs keys**: every [`sia_obs::Counter`] and [`sia_obs::Hist`]
//!   variant in the key taxonomy is referenced somewhere outside the
//!   declaration file — a key nobody emits or reads is dead weight and
//!   usually a sign of a lost call site.
//! - **Failpoints**: the site names passed to `sia_fault::fire` / `fired`
//!   in the source tree and the names in [`sia_fault::CATALOG`] agree in
//!   both directions: no undocumented sites, no catalog entries without a
//!   live `fire` call.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `.rs` file under `crates/` and the facade `src/`, as
/// (workspace-relative path, contents).
fn rust_sources() -> Vec<(String, String)> {
    fn collect(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    collect(&path, root, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("path under root");
                let text = std::fs::read_to_string(&path).expect("source file reads");
                out.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect(&root.join(top), root, &mut files);
    }
    assert!(files.len() > 50, "source walk found {} files", files.len());
    files
}

#[test]
fn every_obs_key_is_referenced_outside_its_declaration() {
    const KEY_FILE: &str = "crates/obs/src/key.rs";
    let sources = rust_sources();
    let counters = sia_obs::Counter::ALL.iter().map(|c| format!("{c:?}"));
    let hists = sia_obs::Hist::ALL.iter().map(|h| format!("{h:?}"));
    let orphans: Vec<String> = counters
        .chain(hists)
        .filter(|v| {
            let pattern = format!("::{v}");
            !sources
                .iter()
                .any(|(p, text)| p != KEY_FILE && text.contains(&pattern))
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "obs keys declared in {KEY_FILE} but never referenced elsewhere \
         (emit them or remove them): {orphans:?}"
    );
}

/// String literals passed to `fire` or `fired` calls in `text`, tagged
/// with whether the call was `fire` (an injection site) rather than
/// `fired` (a test-side probe).
fn failpoint_literals(text: &str) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for (needle, is_fire) in [("fire(\"", true), ("fired(\"", false)] {
        let mut rest = text;
        while let Some(at) = rest.find(needle) {
            let tail = &rest[at + needle.len()..];
            let Some(end) = tail.find('"') else { break };
            out.push((tail[..end].to_string(), is_fire));
            rest = &tail[end..];
        }
    }
    out
}

#[test]
fn failpoint_catalog_matches_the_fire_sites() {
    let catalog: BTreeSet<&str> = sia_fault::CATALOG.iter().map(|(n, _, _)| *n).collect();
    let mut uncatalogued = Vec::new();
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for (path, text) in rust_sources() {
        // The fault crate itself (docs, parser tests) may mention
        // arbitrary site names; the catalog governs the *users*.
        if path.starts_with("crates/fault/") {
            continue;
        }
        for (site, is_fire) in failpoint_literals(&text) {
            if !catalog.contains(site.as_str()) {
                uncatalogued.push(format!("{path}: {site:?}"));
            }
            if is_fire {
                fired.insert(site);
            }
        }
    }
    assert!(
        uncatalogued.is_empty(),
        "failpoints not in sia_fault::CATALOG (add them or fix the name): {uncatalogued:?}"
    );
    let dead: Vec<&str> = catalog
        .into_iter()
        .filter(|name| !fired.contains(*name))
        .collect();
    assert!(
        dead.is_empty(),
        "sia_fault::CATALOG entries with no fire(..) call site \
         (remove the entry or restore the site): {dead:?}"
    );
}
