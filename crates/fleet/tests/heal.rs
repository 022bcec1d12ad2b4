//! A fleet checkpoint whose last record lost only its `\n` is healed on
//! the first resume, so the record appended next gets a line of its own.

use relia_fleet::{run_fleet, FleetOptions, FleetSpec};
use std::fs;

#[test]
fn a_last_record_without_its_newline_does_not_swallow_the_next_append() {
    let path = std::env::temp_dir().join(format!("relia_fleet_heal_{}.ckpt", std::process::id()));
    let _ = fs::remove_file(&path);
    let mut spec = FleetSpec::paper_defaults().expect("defaults build");
    spec.samples = 1_000;
    let opts = FleetOptions {
        workers: 1,
        chunk: 128,
        checkpoint: Some(path.clone()),
        ..FleetOptions::default()
    };
    let first = run_fleet(&spec, &opts).expect("first run");

    // Delete one record and cut the final newline.
    let text = fs::read_to_string(&path).expect("read checkpoint");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(2);
    fs::write(&path, lines.join("\n")).expect("rewrite checkpoint");

    let second = run_fleet(&spec, &opts).expect("first resume");
    assert_eq!(
        second.metrics.salvaged_skips, 0,
        "the last record is intact"
    );
    assert_eq!(
        second.metrics.executed_chunks, 1,
        "the deleted record's chunk"
    );
    let third = run_fleet(&spec, &opts).expect("second resume");
    assert_eq!(
        third.metrics.salvaged_skips, 0,
        "the append got its own line"
    );
    assert_eq!(third.metrics.executed_chunks, 0);
    assert_eq!(first.summary, third.summary);
    let _ = fs::remove_file(&path);
}
