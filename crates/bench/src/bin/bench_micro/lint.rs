//! Lint: the linter's cost per source line. The scope-aware pipeline
//! must stay cheap enough to run on every `check.sh` invocation and in
//! the editor loop. The corpus is every committed rule fixture, so the
//! timing covers comment stripping, string literals, pragmas, guard
//! tracking and every rule's hot path.

use std::hint::black_box;
use std::path::Path;

use relia_lint::{analyze_source, lexer, FileKind, FileOpts};

use crate::record::{Gate, Record, Value};
use crate::{ns_per_call, Section};

/// Full-corpus passes per repetition.
const PASSES: usize = 40;
/// How many times the fixture set is concatenated into the corpus.
const CORPUS_REPEAT: usize = 8;

/// Full analysis (lex + scopes + pragmas + all rules) stays under 20 µs
/// per source line.
pub(crate) const SECTION: Section = Section {
    name: "lint",
    gates: &[
        Gate::Ceiling("analyze_ns_per_line", 20_000.0),
        Gate::Drift("lex_ns_per_line"),
        Gate::Drift("analyze_ns_per_line"),
    ],
    measure,
};

/// Exercise every rule family: library-kind with handler and job context.
const OPTS: FileOpts = FileOpts {
    kind: FileKind::Library,
    crate_root: false,
    handler: true,
    job: true,
};

/// `(name, source)` of every `*.rs` file in the lint crate's fixture
/// directory, sorted by name.
fn fixtures() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../lint/tests/fixtures");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("the lint fixture directory is readable")
        .map(|entry| entry.expect("the lint fixture directory lists").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            let name = path.file_name().expect("a listed file has a name");
            let source = std::fs::read_to_string(&path).expect("a lint fixture reads");
            (name.to_string_lossy().into_owned(), source)
        })
        .collect();
    files.sort();
    files
}

fn measure() -> Record {
    let fixtures = fixtures();
    let files: Vec<_> = (0..CORPUS_REPEAT).flat_map(|_| &fixtures).collect();
    let lines: usize = files.iter().map(|(_, src)| src.lines().count()).sum();
    assert!(lines > 0, "fixture corpus is empty");

    // Lexing alone: the floor every analysis pays per file.
    let lex_ns = ns_per_call(PASSES * lines, |_| {
        for _ in 0..PASSES {
            for (_, src) in &files {
                black_box(lexer::lex(black_box(src)));
            }
        }
    });

    // Full per-file pipeline: lex, scope tracking, pragmas, all rules.
    let analyze_ns = ns_per_call(PASSES * lines, |_| {
        for _ in 0..PASSES {
            for (name, src) in &files {
                black_box(analyze_source(name, black_box(src), &OPTS));
            }
        }
    });

    Record::new(&[
        ("lines", Value::Count(lines as u64)),
        ("lex_ns_per_line", Value::Fixed(lex_ns)),
        ("analyze_ns_per_line", Value::Fixed(analyze_ns)),
    ])
}
