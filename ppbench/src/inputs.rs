//! Seeded workload inputs and the ground-truth check of report lists.

use crate::json::Json;
use pinpoint::workload::{fuzzgen, generate, GenConfig};
use std::collections::{BTreeMap, BTreeSet};

/// The reference project: `gen_project --kloc 50` defaults (2,530
/// functions; 2 real bugs and 2 infeasible decoys of each of the four
/// defect kinds).
pub fn reference(seed: u64, kloc: f64) -> (String, Truth) {
    let project = generate(
        &GenConfig {
            seed,
            real_bugs: 2,
            decoys: 2,
            taint: true,
            ..GenConfig::default()
        }
        .with_target_kloc(kloc),
    );
    let truth = Truth {
        real: project
            .bugs
            .iter()
            .filter(|b| b.real)
            .map(|b| b.marker.clone())
            .collect(),
    };
    (project.source, truth)
}

/// The source-dense project: `gen_project --fuzz` (grammar generator,
/// ~18 lines per function).
pub fn dense(seed: u64, kloc: f64) -> String {
    fuzzgen::generate(&fuzzgen::FuzzGenConfig {
        seed,
        functions: ((kloc * 1000.0) / 18.0).max(2.0) as usize,
        max_stmts: 10,
        globals: 4,
        recursion: true,
    })
}

/// The generator's labels: the markers (`bug{id}_`) of the feasible
/// injected defects. Decoys must stay silent.
#[derive(Debug, Clone)]
pub struct Truth {
    pub real: BTreeSet<String>,
}

impl Truth {
    /// Checks a report list (the analyzer's JSON) against the labels plus
    /// the use-after-free functions an edit script has added: every
    /// report lies in a real defect or an added function, every real
    /// defect is reported, and each added function is reported once.
    pub fn check(&self, reports: &Json, added: &[String]) -> Result<(), String> {
        let reports = reports.arr().ok_or("report list is not an array")?;
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for r in reports {
            let sink = r
                .get("sink_function")
                .and_then(Json::str)
                .ok_or("report without sink_function")?;
            let owner = if added.iter().any(|a| a == sink) {
                sink.to_string()
            } else {
                let marker = sink
                    .split_once('_')
                    .map(|(head, _)| format!("{head}_"))
                    .unwrap_or_default();
                if !self.real.contains(&marker) {
                    return Err(format!("report in `{sink}`, which is no real defect"));
                }
                marker
            };
            *seen.entry(owner).or_default() += 1;
        }
        if let Some(missed) = self.real.iter().find(|m| !seen.contains_key(*m)) {
            return Err(format!("real defect `{missed}` not reported"));
        }
        for a in added {
            if seen.get(a) != Some(&1) {
                return Err(format!("added function `{a}` not reported exactly once"));
            }
        }
        Ok(())
    }
}

/// FNV-1a over `bytes`: the digest pinned for report lists.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
