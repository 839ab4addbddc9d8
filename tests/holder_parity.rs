//! Holder parity: a fresh `Workspace` answering `Query::All` and a
//! `DetectSession` answering `check_all` run the same detection over the
//! same artefact, so their reports must be byte-identical and their
//! canonical stats documents equal once the workspace's own `workspace.*`
//! family is removed. Only first runs are compared: on a repeat the
//! workspace replays cached outcomes (and their recorded verdict
//! counters) while the session consults its grown verdict table, so the
//! two are meant to differ there.

use pinpoint::core::export::reports_json;
use pinpoint::workload::{generate, GenConfig};
use pinpoint::{AnalysisBuilder, Query};
use std::path::PathBuf;

/// Removes the `"workspace":{…}` stage family (a flat object) from a
/// stats document.
fn without_workspace_family(doc: &str) -> String {
    let start = doc
        .find(",\"workspace\":{")
        .expect("workspace family present");
    let end = start + doc[start..].find('}').expect("family closes") + 1;
    format!("{}{}", &doc[..start], &doc[end..])
}

fn assert_holders_agree(name: &str, src: &str) {
    for threads in [1, 3] {
        let builder = AnalysisBuilder::new().threads(threads);
        let analysis = builder.clone().build_source(src).expect("source compiles");
        let mut session = analysis.session();
        let session_reports = session.check_all();
        assert!(!session_reports.is_empty(), "{name}: nothing to compare");
        let session_json = reports_json(&analysis.module, &session_reports);

        let mut ws = builder.open_workspace(src).expect("source compiles");
        let ws_reports = ws.query(&Query::All).into_reports();
        let ws_json = reports_json(&ws.analysis().module, &ws_reports);

        assert_eq!(
            session_json, ws_json,
            "{name} threads={threads}: reports differ between holders"
        );
        assert_eq!(
            session.stats_json(true),
            without_workspace_family(&ws.stats_json(true)),
            "{name} threads={threads}: canonical stats differ between holders"
        );
    }
}

#[test]
fn corpus_program_holders_agree() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/callee_pair.pp");
    let src = std::fs::read_to_string(&path).expect("corpus file readable");
    assert_holders_agree("callee_pair.pp", &src);
}

#[test]
fn generated_program_holders_agree() {
    let project = generate(&GenConfig {
        seed: 29,
        ..GenConfig::default().with_target_kloc(1.0)
    });
    assert_holders_agree("gen_project 1 kLoC", &project.source);
}
