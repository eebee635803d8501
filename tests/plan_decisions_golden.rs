//! Golden snapshot of every planner decision over the conformance corpus:
//! the full `EXPLAIN` text — shape, strategy, each `cost[...]` term, each
//! `->` decision line, join order and edge estimates — of every `query`
//! record of every `tests/conformance/*.slt` file, planned against the
//! corpus's own fixture (tables, FK indexes, statistics) at one and at two
//! threads. Nothing runs, so every report reads `plan: fresh` and carries no
//! `last run`. A planner refactor that leaves this file alone moved no
//! decision.
//!
//! To regenerate after an intentional planner or cost-model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test plan_decisions_golden
//! ```

use swole::plan::parse_sql;
use swole::prelude::*;
use swole_conform::{corpus_files, fixture_db, parse_script, RecordKind};

#[test]
fn corpus_plan_decisions_match_the_golden() {
    let engines = [1usize, 2].map(|t| Engine::builder(fixture_db()).threads(t).build());
    let mut got = String::new();
    let mut queries = 0usize;
    for file in corpus_files() {
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let text = std::fs::read_to_string(&file).expect("corpus file readable");
        for rec in parse_script(&text).expect("corpus file parses") {
            let RecordKind::Query { sql, .. } = rec.kind else {
                continue;
            };
            queries += 1;
            let sql = sql.split_whitespace().collect::<Vec<_>>().join(" ");
            let plan = parse_sql(&sql)
                .unwrap_or_else(|e| panic!("{name}: {sql}: {e}"))
                .plan;
            got.push_str(&format!("-- {name}:{}: {sql}\n", rec.line));
            for engine in &engines {
                let report = engine
                    .explain(&plan)
                    .unwrap_or_else(|e| panic!("{name}: {sql}: {e}"));
                got.push_str(&format!("{report}\n"));
            }
            got.push('\n');
        }
    }
    assert!(queries >= 100, "corpus shrank to {queries} query records");
    let path = format!(
        "{}/tests/golden/plan_decisions.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        got, want,
        "a planner decision drifted from tests/golden/plan_decisions.txt; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
