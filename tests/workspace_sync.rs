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
//! - **Documents**: every `path::fn` test that DESIGN.md or README.md
//!   names exists; DESIGN.md has one `##` section per crate, whose
//!   `depends on:` list is that crate's `sia-*` `[dependencies]` and
//!   whose `pinned by:` names a test; README.md's crate table lists
//!   exactly the crates under `crates/`, and its `--example` lines name
//!   files in `examples/`. EXPERIMENTS.md's index of `sia-exp` views and
//!   gates is the `VIEWS` and `GATES` of `crates/bench/src/main.rs`.
//! - **`sia-tpch`**: the crate is one `lib.rs` of `pub use sia_gen::…`
//!   items and doc comments, so no logic grows back beside `sia_gen::tpch`.

use std::collections::{BTreeMap, BTreeSet};
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

// ---------------------------------------------------------------------
// Documents: DESIGN.md and README.md name tests, crates and examples
// that exist, and DESIGN.md's dependency lists are the manifests'.
// ---------------------------------------------------------------------

/// Every `path::fn` reference in backticks in `doc`, as (path, fn): a
/// workspace-relative `.rs` path, then the test's name as its last
/// `::` segment (`crates/x/src/a.rs::tests::name` names `name`).
fn test_refs(doc: &str) -> Vec<(String, String)> {
    doc.split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| {
            let (path, rest) = span.split_once(".rs::")?;
            let name = rest.rsplit("::").next()?;
            let word = |s: &str| {
                !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || "_-/.".contains(c))
            };
            (word(path) && word(name)).then(|| (format!("{path}.rs"), name.to_string()))
        })
        .collect()
}

/// The references in `doc` whose file `read` cannot find or whose file
/// defines no `fn` of that name.
fn missing_tests(doc: &str, read: &dyn Fn(&str) -> Option<String>) -> Vec<String> {
    test_refs(doc)
        .into_iter()
        .filter(|(path, name)| {
            !read(path).is_some_and(|text| text.contains(&format!("fn {name}(")))
        })
        .map(|(path, name)| format!("{path}::{name}"))
        .collect()
}

/// The `sia-*` names in `text`, backticks and punctuation stripped.
fn crate_names(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("sia-"))
        .map(str::to_string)
        .collect()
}

/// The `sia-*` packages under a manifest's `[dependencies]` table.
fn manifest_deps(manifest: &str) -> BTreeSet<String> {
    let mut in_deps = false;
    let mut deps = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && line.starts_with("sia-") {
            let key = line.split(['.', '=', ' ']).next().unwrap_or_default();
            deps.insert(key.to_string());
        }
    }
    deps
}

/// One `## crate` section of DESIGN.md: its crate, the paragraph after
/// `depends on:`, and the paragraph after `pinned by:`.
struct Section {
    name: String,
    depends_on: Option<String>,
    pinned_by: Option<String>,
}

/// DESIGN.md's `##` sections. A part is the paragraph (up to a blank
/// line) whose first line opens with its label.
fn sections(design: &str) -> Vec<Section> {
    let mut out: Vec<Section> = Vec::new();
    for para in design.split("\n\n") {
        for line in para.lines() {
            if let Some(heading) = line.strip_prefix("## ") {
                let name = heading.split_whitespace().next().unwrap_or_default();
                out.push(Section {
                    name: name.trim_matches('`').to_string(),
                    depends_on: None,
                    pinned_by: None,
                });
            }
        }
        let Some(section) = out.last_mut() else {
            continue;
        };
        if let Some(rest) = para.strip_prefix("depends on:") {
            section.depends_on = Some(rest.to_string());
        } else if let Some(rest) = para.strip_prefix("pinned by:") {
            section.pinned_by = Some(rest.to_string());
        }
    }
    out
}

/// Where DESIGN.md's crate sections disagree with the workspace, given
/// each crate's name and manifest text: a crate with no section or with
/// two, a section for no crate, a `depends on:` list that is not the
/// manifest's `sia-*` dependencies, or no test under `pinned by:`.
fn design_drift(design: &str, manifests: &BTreeMap<String, String>) -> Vec<String> {
    let sections = sections(design);
    let mut problems = Vec::new();
    for name in manifests.keys() {
        let count = sections.iter().filter(|s| &s.name == name).count();
        if count != 1 {
            problems.push(format!("{name}: {count} sections"));
        }
    }
    for section in &sections {
        let name = &section.name;
        let Some(manifest) = manifests.get(name) else {
            problems.push(format!("section {name:?} is not a crate under crates/"));
            continue;
        };
        let listed = section.depends_on.as_deref().map(crate_names);
        let declared = manifest_deps(manifest);
        if listed.as_ref() != Some(&declared) {
            problems.push(format!(
                "{name}: depends on {listed:?}, Cargo.toml says {declared:?}"
            ));
        }
        let pinned = section.pinned_by.as_deref().map(test_refs);
        if pinned.unwrap_or_default().is_empty() {
            problems.push(format!("{name}: no `path::fn` under pinned by:"));
        }
    }
    problems
}

/// Where README.md disagrees with the workspace: its crate table (rows
/// opening with a backticked `sia-*` name) must list exactly `crates`,
/// and every `--example NAME` must be one of `examples`.
fn readme_drift(
    readme: &str,
    crates: &BTreeSet<String>,
    examples: &BTreeSet<String>,
) -> Vec<String> {
    let table: BTreeSet<String> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .filter(|name| name.starts_with("sia-"))
        .map(str::to_string)
        .collect();
    let mut problems: Vec<String> = crates
        .symmetric_difference(&table)
        .map(|name| format!("crate table and crates/ disagree on {name}"))
        .collect();
    for tail in readme.split("--example ").skip(1) {
        let name = tail.split_whitespace().next().unwrap_or_default();
        if !examples.contains(name) {
            problems.push(format!("--example {name} is not in examples/"));
        }
    }
    problems
}

fn repo_file(path: &str) -> Option<String> {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path)).ok()
}

/// Each crate under `crates/`: package name → manifest text.
fn workspace_manifests() -> BTreeMap<String, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs = std::fs::read_dir(root.join("crates")).expect("crates/ reads");
    let manifests: BTreeMap<String, String> = dirs
        .flatten()
        .filter_map(|dir| std::fs::read_to_string(dir.path().join("Cargo.toml")).ok())
        .map(|text| {
            let name = text
                .lines()
                .find_map(|l| l.strip_prefix("name = \""))
                .and_then(|rest| rest.strip_suffix('"'))
                .expect("a [package] name")
                .to_string();
            (name, text)
        })
        .collect();
    assert!(manifests.len() > 10, "found {} crates", manifests.len());
    manifests
}

#[test]
fn every_test_design_and_readme_name_exists() {
    for doc in ["DESIGN.md", "README.md"] {
        let text = repo_file(doc).expect("document reads");
        let missing = missing_tests(&text, &repo_file);
        assert!(
            missing.is_empty(),
            "{doc} names tests that do not exist (rename the reference \
             or restore the test): {missing:?}"
        );
    }
}

#[test]
fn design_has_one_section_per_crate_listing_its_dependencies() {
    let design = repo_file("DESIGN.md").expect("DESIGN.md reads");
    let problems = design_drift(&design, &workspace_manifests());
    assert!(problems.is_empty(), "DESIGN.md drifted: {problems:#?}");
}

#[test]
fn readme_lists_the_crates_and_examples_that_exist() {
    let readme = repo_file("README.md").expect("README.md reads");
    let crates = workspace_manifests().into_keys().collect();
    let examples = std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("examples"))
        .expect("examples/ reads")
        .flatten()
        .filter_map(|e| Some(e.path().file_stem()?.to_str()?.to_string()))
        .collect();
    let problems = readme_drift(&readme, &crates, &examples);
    assert!(problems.is_empty(), "README.md drifted: {problems:#?}");
}

/// The first-column names of EXPERIMENTS.md's `sia-exp` index, as
/// (views, gates): a row whose content opens `— (gate)` is a gate, and
/// `all`, which names every view, is neither.
fn indexed_experiments(experiments: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let index = experiments
        .split("\n## ")
        .find(|section| section.starts_with("Index: `sia-exp` views and gates"))
        .unwrap_or_default();
    let (mut views, mut gates) = (BTreeSet::new(), BTreeSet::new());
    for row in index.lines().filter_map(|line| line.strip_prefix("| `")) {
        let Some((name, rest)) = row.split_once('`') else {
            continue;
        };
        if name == "all" || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            continue;
        }
        let content = rest.trim_start_matches([' ', '|']);
        let kind = if content.starts_with("— (gate)") {
            &mut gates
        } else {
            &mut views
        };
        kind.insert(name.to_string());
    }
    (views, gates)
}

/// The names in `const {array}: … = [ … ];` of a Rust source, one
/// `("name", …` entry a line.
fn declared_names(source: &str, array: &str) -> BTreeSet<String> {
    let body = source
        .split_once(&format!("const {array}:"))
        .and_then(|(_, rest)| rest.split_once("\n];"))
        .map_or("", |(body, _)| body);
    body.lines()
        .filter_map(|line| line.trim_start().strip_prefix("(\""))
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Where EXPERIMENTS.md's index and `sia-exp`'s `VIEWS` / `GATES` in
/// `main_rs` disagree: each name on one side only.
fn experiment_drift(experiments: &str, main_rs: &str) -> Vec<String> {
    let (views, gates) = indexed_experiments(experiments);
    let mut problems = Vec::new();
    for (kind, documented, array) in [("view", views, "VIEWS"), ("gate", gates, "GATES")] {
        let declared = declared_names(main_rs, array);
        for name in documented.symmetric_difference(&declared) {
            let side = if declared.contains(name) {
                "missing from EXPERIMENTS.md"
            } else {
                "not in sia-exp"
            };
            problems.push(format!("{kind} {name}: {side}"));
        }
    }
    problems
}

#[test]
fn experiments_index_lists_the_views_and_gates_sia_exp_runs() {
    let experiments = repo_file("EXPERIMENTS.md").expect("EXPERIMENTS.md reads");
    let main_rs = repo_file("crates/bench/src/main.rs").expect("sia-exp's main reads");
    let (views, gates) = indexed_experiments(&experiments);
    assert!(views.len() >= 8 && gates.len() >= 3, "{views:?} {gates:?}");
    let problems = experiment_drift(&experiments, &main_rs);
    assert!(problems.is_empty(), "EXPERIMENTS.md drifted: {problems:#?}");
}

/// The statements of `source` other than `pub use sia_gen::…;` items,
/// by their first line; `//!` and `///` doc comments are skipped.
fn non_reexports(source: &str) -> Vec<String> {
    let code: Vec<&str> = source
        .lines()
        .filter(|l| !l.trim_start().starts_with("//!") && !l.trim_start().starts_with("///"))
        .collect();
    code.join("\n")
        .split(';')
        .map(str::trim)
        .filter(|item| !item.is_empty() && !item.starts_with("pub use sia_gen::"))
        .map(|item| item.lines().next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn sia_tpch_only_re_exports_sia_gen() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/tpch/src");
    let files: Vec<String> = std::fs::read_dir(src)
        .expect("crates/tpch/src reads")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files, ["lib.rs"], "sia-tpch holds more than its lib.rs");
    let lib = repo_file("crates/tpch/src/lib.rs").expect("sia-tpch's lib.rs reads");
    let extra = non_reexports(&lib);
    assert!(
        extra.is_empty(),
        "crates/tpch/src/lib.rs holds more than `pub use sia_gen::…` items \
         (the code belongs in sia_gen::tpch): {extra:?}"
    );
}

/// The parsers on synthetic text: a clean document passes, and each
/// drift a check exists for fails it.
mod drift {
    use super::*;

    const DESIGN: &str = "# Design\n\n| paper | here |\n\n\
        ## sia-a — the bottom\n\ndepends on: nothing\n\nIt holds.\n\n\
        pinned by: `crates/a/tests/t.rs::a_holds`\n\n\
        ## sia-b — on top\n\ndepends on: `sia-a`\n\nIt holds too.\n\n\
        pinned by: `crates/b/src/lib.rs::tests::b_holds`, and\n\
        `crates/a/tests/t.rs::a_holds`.\n\nbacked by: the audit.\n";

    fn manifests(b_deps: &str) -> BTreeMap<String, String> {
        let a = "[package]\nname = \"sia-a\"\n\n[dependencies]\n\n[dev-dependencies]\nsia-b.workspace = true\n";
        let b = format!(
            "[package]\nname = \"sia-b\"\n\n[dependencies]\n{b_deps}\n[features]\nx = []\n"
        );
        BTreeMap::from([
            ("sia-a".to_string(), a.to_string()),
            ("sia-b".to_string(), b),
        ])
    }

    fn files(path: &str) -> Option<String> {
        match path {
            "crates/a/tests/t.rs" => Some("#[test]\nfn a_holds() {}\n".into()),
            "crates/b/src/lib.rs" => Some("mod tests {\n    fn b_holds() {}\n}\n".into()),
            _ => None,
        }
    }

    #[test]
    fn a_renamed_test_is_reported() {
        assert_eq!(missing_tests(DESIGN, &files), Vec::<String>::new());
        let renamed = DESIGN.replace("b_holds`", "b_still_holds`");
        assert_eq!(
            missing_tests(&renamed, &files),
            ["crates/b/src/lib.rs::b_still_holds"]
        );
        let moved = DESIGN.replace("crates/a/tests/t.rs", "crates/a/tests/u.rs");
        assert_eq!(missing_tests(&moved, &files).len(), 2);
    }

    #[test]
    fn a_crate_missing_from_the_readme_table_is_reported() {
        let crates = BTreeSet::from(["sia-a".to_string(), "sia-b".to_string()]);
        let examples = BTreeSet::from(["tour".to_string()]);
        let readme = "| Crate | Role |\n|---|---|\n| `sia-a` | bottom |\n| `sia-b` | top |\n\n\
            cargo run --example tour\n";
        assert_eq!(
            readme_drift(readme, &crates, &examples),
            Vec::<String>::new()
        );
        let short = readme.replace("| `sia-b` | top |\n", "");
        assert_eq!(
            readme_drift(&short, &crates, &examples),
            ["crate table and crates/ disagree on sia-b"]
        );
        let extra = readme.replace("| `sia-b`", "| `sia-c` | gone |\n| `sia-b`");
        assert_eq!(readme_drift(&extra, &crates, &examples).len(), 1);
        let example = readme.replace("tour", "trip");
        assert_eq!(
            readme_drift(&example, &crates, &examples),
            ["--example trip is not in examples/"]
        );
    }

    #[test]
    fn an_experiment_missing_from_the_index_is_reported() {
        let index = "# Experiments\n\n## Index: `sia-exp` views and gates\n\n\
            | `sia-exp …` | Paper content |\n|---|---|\n\
            | `fig7` | Fig 7 |\n| `fig9` | Fig 9 |\n| `all` | every view |\n\
            | `soak` | — (gate) no violations |\n\n## Next\n\n| `fig1` | elsewhere |\n";
        let main_rs = "const VIEWS: [(&str, View); 2] = [\n    (\"fig7\", |_| {\n        \
            report::fig7()\n    }),\n    (\"fig9\", |_| runtime::report()),\n];\n\n\
            const GATES: [(&str, Gate); 1] = [\n    (\"soak\", soak::run),\n];\n";
        assert_eq!(experiment_drift(index, main_rs), Vec::<String>::new());
        let renamed = main_rs.replace("\"fig9\"", "\"fig10\"");
        assert_eq!(
            experiment_drift(index, &renamed),
            [
                "view fig10: missing from EXPERIMENTS.md",
                "view fig9: not in sia-exp"
            ]
        );
        let gated = main_rs.replace(
            "(\"soak\", soak::run),",
            "(\"soak\", soak::run),\n    (\"serve\", serve::run),",
        );
        assert_eq!(
            experiment_drift(index, &gated),
            ["gate serve: missing from EXPERIMENTS.md"]
        );
        let as_view = index.replace("| `soak` | — (gate)", "| `soak` |");
        assert_eq!(experiment_drift(&as_view, main_rs).len(), 2);
    }

    #[test]
    fn logic_in_the_re_export_crate_is_reported() {
        let lib = "//! Former names.\n\n/// The builder.\n\
            pub use sia_gen::tpch::{\n    generate, TpchConfig,\n};\n\
            pub use sia_gen::tpch::generate_workload;\n";
        assert_eq!(non_reexports(lib), Vec::<String>::new());
        let grown = format!(
            "{lib}\n/// Orders at a scale.\npub fn orders_at(sf: f64) -> usize {{\n    \
             (150_000.0 * sf) as usize\n}}\n"
        );
        assert_eq!(
            non_reexports(&grown),
            ["pub fn orders_at(sf: f64) -> usize {"]
        );
        let other = lib.replace("pub use sia_gen::tpch::generate_workload", "use std::fmt");
        assert_eq!(non_reexports(&other), ["use std::fmt"]);
    }

    #[test]
    fn a_depends_on_list_that_disagrees_with_cargo_is_reported() {
        let cargo = manifests("sia-a.workspace = true");
        assert_eq!(design_drift(DESIGN, &cargo), Vec::<String>::new());
        // The manifest gained a dependency the section does not list.
        let grown = manifests("sia-a.workspace = true\nsia-c = { path = \"../c\" }");
        assert_eq!(
            design_drift(DESIGN, &grown).len(),
            1,
            "{:?}",
            design_drift(DESIGN, &grown)
        );
        // The section lists one the manifest lost.
        assert_eq!(design_drift(DESIGN, &manifests("")).len(), 1);
        // A section without its list, or without a pinning test.
        let unlisted = DESIGN.replace("depends on: `sia-a`", "It depends on `sia-a`.");
        assert_eq!(design_drift(&unlisted, &cargo).len(), 1);
        let unpinned = DESIGN.replace(
            "pinned by: `crates/a/tests/t.rs::a_holds`",
            "pinned by: nothing",
        );
        assert_eq!(design_drift(&unpinned, &cargo).len(), 1);
        // A crate with no section, and a section for no crate.
        let renamed = DESIGN.replace("## sia-b", "## sia-z");
        assert_eq!(design_drift(&renamed, &cargo).len(), 2);
    }
}
