//! A seeded editor session over a generated project: one edit per step.
//!
//! A step adds or removes a self-contained use-after-free function with
//! probability [`UAF_RATE`]; otherwise it pads the body of one function
//! drawn uniformly from the base text's functions with a multi-line body.
//! The three edit shapes an incremental analyzer must handle therefore
//! occur at their natural shares of the program:
//!
//! * a pad on a filler function (nearly every target) dirties that
//!   function and its transitive callers;
//! * a pad on a shared pointer utility (`util_*`, four targets) dirties
//!   most of the program, since nearly every filler calls one;
//! * adding or removing a use-after-free function changes the function
//!   set, and the expected report count moves by one.
//!
//! Pads on the remaining targets (the injected defects' functions) are a
//! fourth, rare kind. No measured editor trace backs this mix; it is an
//! assumption, stated with its consequences in `ppbench/METRICS.md`.
//! Every step yields a text that parses; the same seed yields the same
//! texts.

use pinpoint::workload::rng::SmallRng;

/// Share of steps that add or remove a use-after-free function. Whole
/// functions are assumed to come and go far less often than bodies
/// change; one step in twenty still changes the function set a few times
/// in a run of about fifty edits.
pub const UAF_RATE: f64 = 0.05;

/// The shape of one edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    PadFiller,
    PadUtil,
    PadOther,
    AddUaf,
    RemoveUaf,
}

impl EditKind {
    pub const ALL: [EditKind; 5] = [
        EditKind::PadFiller,
        EditKind::PadUtil,
        EditKind::PadOther,
        EditKind::AddUaf,
        EditKind::RemoveUaf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EditKind::PadFiller => "pad_filler",
            EditKind::PadUtil => "pad_util",
            EditKind::PadOther => "pad_other",
            EditKind::AddUaf => "add_uaf",
            EditKind::RemoveUaf => "remove_uaf",
        }
    }

    fn of_pad(func: &str) -> EditKind {
        if func.starts_with("filler") {
            EditKind::PadFiller
        } else if func.starts_with("util_") {
            EditKind::PadUtil
        } else {
            EditKind::PadOther
        }
    }
}

/// The editor state: current text, the added functions still present.
#[derive(Debug, Clone)]
pub struct EditScript {
    text: String,
    rng: SmallRng,
    step: usize,
    /// The base text's functions with a multi-line body: the pad targets.
    targets: Vec<String>,
    added: Vec<String>,
}

impl EditScript {
    /// Starts a session on `base` (a `pinpoint_workload::generate` text).
    pub fn new(base: String, seed: u64) -> Self {
        let targets = pad_targets(&base);
        assert!(
            !targets.is_empty(),
            "the base text has no multi-line function"
        );
        EditScript {
            text: base,
            rng: SmallRng::seed_from_u64(seed ^ 0x6564_6974),
            step: 0,
            targets,
            added: Vec::new(),
        }
    }

    /// The current text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Names of the added use-after-free functions present in the text.
    pub fn added(&self) -> &[String] {
        &self.added
    }

    /// Applies the next edit and returns its kind.
    pub fn advance(&mut self) -> EditKind {
        self.step += 1;
        if self.rng.gen_bool(UAF_RATE) {
            if self.added.is_empty() || self.rng.gen_bool(0.5) {
                let name = format!("bench_uaf{}", self.step);
                self.text.push_str(&uaf_function(&name));
                self.added.push(name);
                return EditKind::AddUaf;
            }
            let name = self.added.remove(self.rng.gen_range(0..self.added.len()));
            let body = uaf_function(&name);
            let at = self.text.find(&body).expect("added function is present");
            self.text.replace_range(at..at + body.len(), "");
            return EditKind::RemoveUaf;
        }
        let func = &self.targets[self.rng.gen_range(0..self.targets.len())];
        let pad = format!(
            "    let bench_pad{}: int = {};\n",
            self.step,
            self.rng.gen_range(0..1000)
        );
        insert_after_header(&mut self.text, func, &pad);
        EditKind::of_pad(func)
    }
}

/// Names of the functions whose header line opens a multi-line body.
fn pad_targets(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| {
            let header = l.strip_prefix("fn ")?.strip_suffix(" {")?;
            Some(header.split_once('(')?.0.to_string())
        })
        .collect()
}

/// A function whose only defect is a use after free of its own cell.
fn uaf_function(name: &str) -> String {
    format!(
        "fn {name}() {{\n    let p: int* = malloc();\n    free(p);\n    let y: int = *p;\n    print(y);\n    return;\n}}\n"
    )
}

/// Inserts `line` as the first statement of function `func`.
fn insert_after_header(text: &mut String, func: &str, line: &str) {
    let header = format!("fn {func}(");
    let start = if text.starts_with(&header) {
        0
    } else {
        text.find(&format!("\n{header}"))
            .unwrap_or_else(|| panic!("no function `{func}`"))
            + 1
    };
    let body = start + text[start..].find("{\n").expect("function body") + 2;
    text.insert_str(body, line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    fn script(seed: u64) -> (EditScript, inputs::Truth) {
        let (base, truth) = inputs::reference(seed, 2.0);
        (EditScript::new(base, seed), truth)
    }

    fn check_truth(text: &str, truth: &inputs::Truth, added: &[String]) -> Result<(), String> {
        let analysis = pinpoint::AnalysisBuilder::new()
            .threads(1)
            .build_source(text)
            .unwrap();
        let reports = analysis.check_all();
        let json = pinpoint::core::export::reports_json(&analysis.module, &reports);
        truth.check(&crate::json::parse(&json).unwrap(), added)
    }

    #[test]
    fn same_seed_same_texts() {
        let (mut a, _) = script(3);
        let (mut b, _) = script(3);
        for _ in 0..25 {
            assert_eq!(a.advance(), b.advance());
            assert_eq!(a.text(), b.text());
        }
        let (mut c, _) = script(4);
        c.advance();
        assert_ne!(a.text(), c.text());
    }

    #[test]
    fn every_text_parses_and_every_kind_occurs() {
        let (mut s, _) = script(11);
        let base_funcs = pinpoint::compile(s.text()).unwrap().funcs.len();
        let mut kinds = Vec::new();
        for _ in 0..200 {
            kinds.push(s.advance());
            let module = pinpoint::compile(s.text()).expect("edited text parses");
            assert_eq!(module.funcs.len(), base_funcs + s.added().len());
        }
        for k in EditKind::ALL {
            assert!(kinds.contains(&k), "{k:?} never drawn");
        }
    }

    #[test]
    fn kinds_occur_at_their_natural_shares() {
        let (mut s, _) = script(8);
        let n = s.targets.len() as f64;
        let fillers = s.targets.iter().filter(|t| t.starts_with("filler")).count() as f64;
        let utils = s.targets.iter().filter(|t| t.starts_with("util_")).count();
        assert_eq!(utils, 4);
        let steps = 4000;
        let count = |k: EditKind, kinds: &[EditKind]| {
            kinds.iter().filter(|&&x| x == k).count() as f64 / steps as f64
        };
        let kinds: Vec<EditKind> = (0..steps).map(|_| s.advance()).collect();
        let uaf = count(EditKind::AddUaf, &kinds) + count(EditKind::RemoveUaf, &kinds);
        assert!((uaf - UAF_RATE).abs() < 0.015, "use-after-free share {uaf}");
        let want = (1.0 - UAF_RATE) * fillers / n;
        let got = count(EditKind::PadFiller, &kinds);
        assert!((got - want).abs() < 0.02, "filler share {got}, want {want}");
    }

    #[test]
    fn removing_every_added_function_restores_the_function_set() {
        let (mut s, _) = script(5);
        while s.added().len() < 2 {
            s.advance();
        }
        let pads = s.text().matches("bench_pad").count();
        while !s.added().is_empty() {
            s.advance();
        }
        assert!(!s.text().contains("fn bench_uaf"));
        assert!(s.text().matches("bench_pad").count() >= pads);
    }

    #[test]
    fn a_pad_on_every_target_keeps_the_ground_truth() {
        let (s, truth) = script(6);
        let mut text = s.text().to_string();
        for func in &s.targets {
            insert_after_header(&mut text, func, "    let bench_pad: int = 1;\n");
        }
        assert_eq!(text.matches("bench_pad").count(), s.targets.len());
        check_truth(&text, &truth, &[]).unwrap();
    }

    #[test]
    fn reports_follow_the_ground_truth_across_edits() {
        let (mut s, truth) = script(9);
        let mut kinds = Vec::new();
        for step in 0..60 {
            if step > 0 {
                kinds.push(s.advance());
            }
            check_truth(s.text(), &truth, s.added()).unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        assert!(kinds.contains(&EditKind::AddUaf));
        assert!(truth
            .check(&crate::json::parse("[]").unwrap(), &[])
            .is_err());
    }
}
