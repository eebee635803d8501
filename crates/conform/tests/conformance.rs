//! The conformance suite: every corpus script runs five ways (compiled
//! engine at 1/2/8 threads, shared worker pool, interpreter oracle) and
//! every record must be bit-identical across runs and match its expected
//! block. `UPDATE_CONFORM=1 cargo test -p swole-conform` regenerates the
//! expected blocks; `CONFORM_SUMMARY=<path>` writes the per-file summary
//! CI uploads as the failure artifact.

use swole_conform::{corpus_files, update_requested, write_summary, Harness};
use swole_plan::StatsMode;

#[test]
fn corpus_is_bit_identical_across_all_runners() {
    let harness = Harness::new();
    let outcomes = harness.run_corpus();

    assert!(
        outcomes.len() >= 30,
        "conformance corpus shrank below 30 files ({} found)",
        outcomes.len()
    );

    let mut failed = 0usize;
    for o in &outcomes {
        let name = o.path.file_name().unwrap().to_string_lossy();
        if o.failures.is_empty() {
            let note = if o.rewritten { " (rewritten)" } else { "" };
            println!("ok   {name} ({} records){note}", o.records);
        } else {
            failed += 1;
            println!("FAIL {name}");
            for f in &o.failures {
                println!("     {f}");
            }
        }
    }

    if let Ok(path) = std::env::var("CONFORM_SUMMARY") {
        write_summary(&outcomes, std::path::Path::new(&path)).expect("summary writes");
    }

    assert_eq!(
        failed,
        0,
        "{failed}/{} conformance files failed{}",
        outcomes.len(),
        if update_requested() {
            ""
        } else {
            " (UPDATE_CONFORM=1 regenerates expected blocks)"
        }
    );
}

/// The catalog, not an option, picks each grouped stage's table: with
/// statistics off an integer key has no known domain and stays on the hash
/// table, while FK and dictionary keys still go dense. Running the grouped
/// files of the corpus that way (the default harness above runs them with
/// statistics on) puts both representations under the same expected blocks.
/// The `bounds_budget_*` files are left out: their admit/reject verdicts
/// are about the statistics-tightened certificate.
#[test]
fn grouped_files_hold_on_the_hash_table_too() {
    let harness = Harness::with_stats(StatsMode::Off);
    let table_of = |sql: &str| {
        let decisions = harness.decisions(sql).expect("plans");
        let line = decisions.iter().find(|d| d.starts_with("group table: "));
        line.unwrap_or_else(|| panic!("no table decision for {sql}"))
            .clone()
    };
    assert!(table_of("select r_c, count(*) as n from R group by r_c").contains("hash (no fresh"));
    assert!(table_of("select tag, count(*) as n from T group by tag").contains("dense [0.."));
    assert!(table_of(
        "select R.r_fk, count(*) as n from R, S where R.r_fk = S.rowid and S.s_x < 80 \
         group by R.r_fk"
    )
    .contains("dense [0.."));
    let with_stats = Harness::new();
    assert!(
        with_stats
            .decisions("select r_c, count(*) as n from R group by r_c")
            .expect("plans")
            .iter()
            .any(|d| d.starts_with("group table: dense [")),
        "statistics give the integer key its domain"
    );

    let grouped: Vec<_> = corpus_files()
        .into_iter()
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            let text = std::fs::read_to_string(p).expect("corpus file reads");
            text.contains("group by") && !name.starts_with("bounds_budget_")
        })
        .collect();
    assert!(grouped.len() >= 12, "{} grouped files", grouped.len());
    for path in &grouped {
        let outcome = harness.run_file(path);
        assert!(
            outcome.failures.is_empty(),
            "{}: {:?}",
            path.display(),
            outcome.failures
        );
    }
}
