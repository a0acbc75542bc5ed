//! Comments and messages that send the reader to an upper-case markdown
//! file must name one that exists: every `[A-Z_]+` name followed by the
//! markdown extension under `crates/`, `src/`, `examples/` and `tests/`
//! is looked up at the repository root, under `dppr_bench/` and in the
//! verify skill's directory.

use std::collections::BTreeSet;
use std::path::Path;

const EXT: &str = ".md";
const SCANNED: [&str; 4] = ["crates", "src", "examples", "tests"];
const HOMES: [&str; 3] = ["", "dppr_bench", ".claude/skills/verify"];

/// Collects `(file, name)` for every reference in the tree under `dir`.
fn scan(dir: &Path, found: &mut BTreeSet<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, found);
            continue;
        }
        // Non-UTF-8 files hold no comments.
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (at, _) in text.match_indices(EXT) {
            let stem_len = text[..at]
                .bytes()
                .rev()
                .take_while(|b| b.is_ascii_uppercase() || *b == b'_')
                .count();
            if stem_len > 0 {
                let name = format!("{}{EXT}", &text[at - stem_len..at]);
                found.insert((path.display().to_string(), name));
            }
        }
    }
}

#[test]
fn referenced_markdown_files_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    for dir in SCANNED {
        scan(&root.join(dir), &mut found);
    }
    assert!(found.len() >= 3, "the scan found too little: {found:?}");
    let dangling: Vec<_> = found
        .iter()
        .filter(|(_, name)| {
            !HOMES
                .iter()
                .any(|home| root.join(home).join(name).is_file())
        })
        .collect();
    assert!(
        dangling.is_empty(),
        "references to files that do not exist: {dangling:#?}"
    );
}
