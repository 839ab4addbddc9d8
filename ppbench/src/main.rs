//! `ppbench`: the pinpoint benchmark. One run generates a workload's
//! inputs from `--seed`, drives the released `pinpoint` binary on them
//! for `--seconds`, checks every output, and prints one JSON result line
//! last on stdout.
//!
//! ```sh
//! bash ppbench/run.sh --workload check_ref --seed 7 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` measures the
//! CLI for half the time, then runs the traced in-process pass and
//! reports per-layer metrics (see `ppbench/METRICS.md`).

mod cli;
mod edits;
mod inputs;
mod json;
mod sys;
mod trace;

use cli::{CheckRun, Pinpoint, Serve};
use edits::{EditKind, EditScript};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sys::{median, quantile};
use trace::{Layers, Tracer};

const USAGE: &str = "usage: ppbench --pinpoint BIN --workload check_ref|check_dense|cache_edit|edit_loop --seed N --seconds S --trace 0|1";

/// Size of the reference project (kLoC), as in the ROADMAP's reference
/// workload.
const REF_KLOC: f64 = 50.0;
/// Size of the source-dense project (kLoC).
const DENSE_KLOC: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Traced passes per run; layer numbers come from the pass with the
/// median total.
const PASSES: usize = 3;
/// Edits replayed in-process by a traced `edit_loop` run.
const TRACED_EDITS: usize = 12;

/// Report-list digests of `check_dense` at its default and held-out
/// seeds. The fuzz grammar has no independent labels, so this pin (plus
/// engine agreement) is the dense workload's output check.
const DENSE_DIGESTS: [(u64, u64); 2] = [(7, 0xe4e1_df2e_67aa_7bac), (1009, 0xa5b3_2dcb_1211_f72a)];

struct Args {
    pinpoint: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut pinpoint = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--pinpoint" => pinpoint = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        pinpoint: pinpoint.ok_or("missing --pinpoint")?,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1.0),
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ppbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(work.join("cwd")) {
        eprintln!("ppbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let work_abs = std::fs::canonicalize(&work).unwrap_or(work.clone());
    let mut run = Run {
        pp: Pinpoint {
            // Absolute, since the analyzer runs in a directory of its own.
            bin: std::fs::canonicalize(&args.pinpoint).unwrap_or(args.pinpoint.clone()),
            cwd: work_abs.join("cwd"),
        },
        work: work_abs,
        seed: args.seed,
        budget: Duration::from_secs_f64(if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        }),
        trace: args.trace.then(Tracer::default),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let outcome = match args.workload.as_str() {
        "check_ref" => run.check_workload(false),
        "check_dense" => run.check_workload(true),
        "cache_edit" => run.cache_edit(),
        "edit_loop" => run.edit_loop(),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    if let Some(tr) = &run.trace {
        let out =
            Path::new(".bench_work").join(format!("spans-{}-{}.json", args.workload, args.seed));
        let _ = std::fs::write(out, tr.to_json());
    }
    let _ = std::fs::remove_dir_all(&work);
    sys::flush_writes();
    if let Err(e) = outcome {
        eprintln!("ppbench: {e}");
        return ExitCode::from(1);
    }
    println!("{}", run.result_line());
    ExitCode::SUCCESS
}

/// One benchmark run: its checks' tally and the metrics it reports.
struct Run {
    pp: Pinpoint,
    work: PathBuf,
    seed: u64,
    /// How long the timed CLI loop runs.
    budget: Duration,
    /// Present in `--trace 1` runs.
    trace: Option<Tracer>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The counters that must repeat exactly for the same input, read from a
/// stats document.
const DOC_COUNTERS: [&str; 5] = [
    "stages.frontend.insts",
    "stages.seg.vertices",
    "stages.summary.built",
    "stages.detect.visited",
    "stages.smt.queries",
];

fn doc_counters(stats: &Json) -> Vec<f64> {
    DOC_COUNTERS.iter().map(|p| stats.count(p)).collect()
}

/// `cache.load_ms`, `cache.store_ms` and `cache.hit_ratio` from a stats
/// document's `stages.cache` counters.
fn cache_io(stats: &Json) -> [f64; 3] {
    let hits = stats.count("stages.cache.hits");
    let misses = stats.count("stages.cache.misses");
    [
        stats.count("stages.cache.load_ns") / 1e6,
        stats.count("stages.cache.store_ns") / 1e6,
        hits / (hits + misses).max(1.0),
    ]
}

/// The five `cache.*` metrics: the medians of `io` (rows of [`cache_io`])
/// plus the files and bytes found under `dir`.
fn cache_layer(io: &[[f64; 3]], dir: &Path) -> [f64; 5] {
    let col = |i: usize| median(&io.iter().map(|r| r[i]).collect::<Vec<_>>());
    let (files, bytes) = walk(dir);
    [col(0), col(1), col(2), files as f64, bytes as f64]
}

/// Prints how many edits of each kind a run made with their median
/// latency, and the kind of the edit at each reported percentile.
fn print_edit_kinds(kinds: &[EditKind], lat_ms: &[f64]) {
    let mut parts = Vec::new();
    for k in EditKind::ALL {
        let ms: Vec<f64> = kinds
            .iter()
            .zip(lat_ms)
            .filter(|(x, _)| **x == k)
            .map(|(_, &l)| l)
            .collect();
        if !ms.is_empty() {
            parts.push(format!(
                "{} {} (median {:.1} ms)",
                k.name(),
                ms.len(),
                median(&ms)
            ));
        }
    }
    let mut order: Vec<usize> = (0..lat_ms.len()).collect();
    order.sort_by(|&a, &b| lat_ms[a].total_cmp(&lat_ms[b]));
    let at = |q: f64| {
        let rank = (q * order.len().saturating_sub(1) as f64).round() as usize;
        order.get(rank).map_or("none", |&i| kinds[i].name())
    };
    println!(
        "edits: {}; p50 on {}, p90 on {}",
        parts.join(", "),
        at(0.5),
        at(0.9)
    );
}

impl Run {
    /// Counts one operation; a failed one is logged and yields `None`.
    fn tally<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("ppbench: {what}: {e}");
                None
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    fn write(&self, name: &str, text: &str) -> Result<PathBuf, String> {
        let path = self.file(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// The end-to-end metrics shared by every workload.
    fn end_to_end(&mut self, latencies_ms: &[f64], setups_s: &[f64]) {
        let rate = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        println!(
            "samples {}  error_rate {} ({} of {} operations failed)",
            latencies_ms.len(),
            1.0 - rate,
            self.failed,
            self.attempted
        );
        // Wall time up with CPU time flat means the analyzer waited on a
        // busy machine, not that it did more work.
        println!(
            "analyzer cpu_s {} (user+sys of every analyzer process in the run)",
            sys::children_cpu_s()
        );
        self.metric("reports_p50_ms", median(latencies_ms), "ms");
        self.metric("reports_p90_ms", quantile(latencies_ms, 0.9), "ms");
        self.metric("setup_s", median(setups_s), "s");
        self.metric("peak_rss_mb", sys::children_peak_rss_mb(), "MiB");
        self.metric("success_rate", rate, "ratio");
    }

    /// Traced passes over `src`; per-layer medians, checking each pass's
    /// reports against the CLI's bytes and its counters against the CLI's
    /// stats document.
    fn traced_layers(
        &mut self,
        src: &str,
        cache: Option<&Path>,
        cli_reports: &str,
        cli_stats: &Json,
        passes: usize,
    ) -> Result<Layers, String> {
        let mut runs: Vec<Layers> = Vec::new();
        for _ in 0..passes {
            let tr = self.trace.as_mut().expect("traced run");
            let (l, reports) = trace::layer_pass(tr, src, cache)?;
            let same = if reports.trim() != cli_reports.trim() {
                Err("traced reports differ from the CLI's".to_string())
            } else {
                let ours = [
                    l.transformed_insts,
                    l.vertices,
                    l.summary_built,
                    l.visited,
                    l.smt_queries,
                ];
                let theirs = doc_counters(cli_stats);
                if ours.as_slice() == theirs.as_slice() {
                    Ok(())
                } else {
                    Err(format!(
                        "counter drift: traced {ours:?} vs CLI {theirs:?} ({DOC_COUNTERS:?})"
                    ))
                }
            };
            self.tally("traced pass", same);
            if let Some(first) = runs.first() {
                let a = [
                    first.tokens,
                    first.insts,
                    first.vertices,
                    first.summary_built,
                    first.visited,
                    first.smt_queries,
                ];
                let b = [
                    l.tokens,
                    l.insts,
                    l.vertices,
                    l.summary_built,
                    l.visited,
                    l.smt_queries,
                ];
                if a != b {
                    self.tally::<()>(
                        "traced pass",
                        Err(format!("counter drift between passes: {a:?} vs {b:?}")),
                    );
                }
            }
            runs.push(l);
        }
        // The pass with the median traced total, so its self times stay
        // one coherent breakdown.
        runs.sort_by(|a, b| a.traced_total_ms.total_cmp(&b.traced_total_ms));
        Ok(runs.swap_remove(runs.len() / 2))
    }

    /// The per-layer metrics. `e2e_ms` is the workload's end-to-end
    /// median and `attributed_ms` the layer self times under it; `cache`
    /// comes from the program's stats documents and a directory walk,
    /// and `ws` is zero where the workload does not use a workspace.
    fn per_layer(
        &mut self,
        l: &Layers,
        e2e_ms: f64,
        attributed_ms: f64,
        cache: [f64; 5],
        ws: [f64; 5],
    ) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let rows: [(&'static str, f64, &'static str); 35] = [
            ("ir.lex_ms", l.lex_ms, "ms"),
            ("ir.parse_ms", l.parse_ms, "ms"),
            ("ir.lower_ms", l.lower_ms, "ms"),
            ("ir.tokens", l.tokens, "count"),
            ("ir.insts", l.insts, "count"),
            ("keys.ms", l.keys_ms, "ms"),
            ("pta.ms", l.pta_ms, "ms"),
            ("pta.linear_checks", l.linear_checks, "count"),
            ("seg.ms", l.seg_ms, "ms"),
            ("seg.vertices", l.vertices, "count"),
            ("summary.build_ms", l.summary_build_ms, "ms"),
            ("summary.param_ms", l.summary_param_ms, "ms"),
            ("summary.built", l.summary_built, "count"),
            ("summary.gated", l.summary_gated, "count"),
            ("detect.demand_ms", l.demand_ms, "ms"),
            ("detect.summary_ms", l.summary_ms, "ms"),
            ("detect.sources", l.sources, "count"),
            ("detect.visited", l.visited, "count"),
            (
                "detect.gate_ratio",
                ratio(l.summary_gated, l.sources),
                "ratio",
            ),
            ("smt.solve_ms", l.smt_solve_ms, "ms"),
            ("smt.queries", l.smt_queries, "count"),
            (
                "smt.verdict_hit_ratio",
                ratio(l.verdict_hits, l.verdict_hits + l.verdict_misses),
                "ratio",
            ),
            ("cache.load_ms", cache[0], "ms"),
            ("cache.store_ms", cache[1], "ms"),
            ("cache.hit_ratio", cache[2], "ratio"),
            ("cache.files", cache[3], "count"),
            ("cache.bytes", cache[4], "bytes"),
            ("workspace.update_ms", ws[0], "ms"),
            ("workspace.query_ms", ws[1], "ms"),
            ("workspace.funcs_dirty", ws[2], "count"),
            ("workspace.query_reuse_ratio", ws[3], "ratio"),
            ("server.overhead_ms", ws[4], "ms"),
            ("e2e.ms", e2e_ms, "ms"),
            ("unattributed_ms", e2e_ms - attributed_ms, "ms"),
            (
                "trace.overhead_ms",
                l.traced_total_ms - l.untraced_total_ms,
                "ms",
            ),
        ];
        for (name, value, unit) in rows {
            self.metric(name, value, unit);
        }
    }

    /// `check_ref` / `check_dense`: repeated `pinpoint check` of one input.
    fn check_workload(&mut self, dense: bool) -> Result<(), String> {
        let (src, truth) = if dense {
            (inputs::dense(self.seed, DENSE_KLOC), None)
        } else {
            let (s, t) = inputs::reference(self.seed, REF_KLOC);
            (s, Some(t))
        };
        let input = self.write("input.pp", &src)?;
        let stats = self.file("stats.json");
        // The first run's bytes and counters: every later run must repeat
        // them exactly.
        let mut pin: Option<CheckRun> = None;
        let mut setups = Vec::new();
        for _ in 0..SETUPS {
            let r = self
                .pp
                .check(&input, &[], &stats)
                .and_then(|r| pin_check(&mut pin, truth.as_ref(), r));
            if let Some(wall) = self.tally("warm-up check", r) {
                setups.push(wall);
            }
        }
        let first = pin.ok_or("no warm-up check succeeded")?;
        if dense {
            let agree = self
                .pp
                .check(&input, &["--engine", "demand"], &stats)
                .and_then(|d| {
                    if d.stdout == first.stdout {
                        Ok(())
                    } else {
                        Err("demand and summary engines disagree".into())
                    }
                });
            self.tally("engine agreement", agree);
            let digest = inputs::digest(first.stdout.as_bytes());
            println!("report digest 0x{digest:016x}");
            if let Some(&(_, want)) = DENSE_DIGESTS.iter().find(|(s, _)| *s == self.seed) {
                let pin = if want == digest {
                    Ok(())
                } else {
                    Err(format!("digest 0x{digest:016x}, pinned 0x{want:016x}"))
                };
                self.tally("pinned report digest", pin);
            }
        }
        let mut lat = Vec::new();
        let mut io = vec![cache_io(&first.stats)];
        let t = Instant::now();
        while t.elapsed() < self.budget {
            let r = self
                .pp
                .check(&input, &[], &stats)
                .and_then(|r| repeat_of(&first, &r).map(|_| r));
            if let Some(r) = self.tally("check", r) {
                lat.push(r.wall.as_secs_f64() * 1e3);
                io.push(cache_io(&r.stats));
            }
        }
        if self.trace.is_none() {
            self.end_to_end(&lat, &setups);
            return Ok(());
        }
        let l = self.traced_layers(&src, None, &first.stdout, &first.stats, PASSES)?;
        let cache = cache_layer(&io, &self.pp.cwd);
        self.per_layer(&l, median(&lat), l.attributed_ms(), cache, [0.0; 5]);
        Ok(())
    }

    /// `cache_edit`: `check --cache-dir D` after each seeded edit, D primed
    /// by one cold run.
    fn cache_edit(&mut self) -> Result<(), String> {
        let (src, truth) = inputs::reference(self.seed, REF_KLOC);
        let input = self.write("input.pp", &src)?;
        let stats = self.file("stats.json");
        let mut setups = Vec::new();
        let mut footprint: Option<(u64, u64)> = None;
        let mut dir = PathBuf::new();
        for i in 0..SETUPS {
            dir = self.file(&format!("cache{i}"));
            let arg = dir.to_string_lossy().into_owned();
            sys::flush_writes();
            let r = self
                .pp
                .check(&input, &["--cache-dir", &arg], &stats)
                .and_then(|r| truth.check(&r.reports, &[]).map(|_| r));
            if let Some(r) = self.tally("cold check with cache", r) {
                setups.push(r.wall.as_secs_f64());
            }
            let f = walk(&dir);
            if let Some(prev) = footprint {
                if prev != f {
                    self.tally::<()>("cache footprint", Err(format!("drift: {prev:?} vs {f:?}")));
                }
            }
            footprint = Some(f);
        }
        println!("cache filesystem {}", sys::fs_name(&dir));
        sys::flush_writes();
        let arg = dir.to_string_lossy().into_owned();
        let mut script = EditScript::new(src, self.seed);
        let mut lat = Vec::new();
        let mut kinds = Vec::new();
        let mut io = Vec::new();
        let t = Instant::now();
        while t.elapsed() < self.budget {
            let kind = script.advance();
            let file = self.write("edit.pp", script.text())?;
            sys::flush_writes();
            let r = self
                .pp
                .check(&file, &["--cache-dir", &arg], &stats)
                .and_then(|r| truth.check(&r.reports, script.added()).map(|_| r));
            if let Some(r) = self.tally("warm check with cache", r) {
                lat.push(r.wall.as_secs_f64() * 1e3);
                kinds.push(kind);
                io.push(cache_io(&r.stats));
            }
        }
        print_edit_kinds(&kinds, &lat);
        if self.trace.is_none() {
            self.end_to_end(&lat, &setups);
            return Ok(());
        }
        // One more edit, analysed traced and in-process first (so it pays
        // the misses), then by the CLI for the report comparison.
        script.advance();
        let file = self.write("edit.pp", script.text())?;
        let mut tr = self.trace.take().expect("traced run");
        let pass = trace::layer_pass(&mut tr, script.text(), Some(&dir));
        self.trace = Some(tr);
        let (l, reports) = pass?;
        let cli = self.pp.check(&file, &["--cache-dir", &arg], &stats)?;
        let same = if cli.stdout.trim() == reports.trim() {
            truth.check(&cli.reports, script.added())
        } else {
            Err("traced reports differ from the CLI's".into())
        };
        self.tally("traced pass", same);
        let cache = cache_layer(&io, &dir);
        self.per_layer(&l, median(&lat), l.attributed_ms(), cache, [0.0; 5]);
        Ok(())
    }

    /// Spawns `serve`, opens the reference input and checks it.
    fn open_session(
        &mut self,
        input: &Path,
        truth: &inputs::Truth,
    ) -> Result<(Serve, Json), String> {
        let mut serve = Serve::spawn(&self.pp)?;
        serve.open(input)?;
        let reports = serve.check()?;
        truth.check(&reports, &[])?;
        Ok((serve, reports))
    }

    /// `edit_loop`: one closed-loop editor session against `serve`.
    fn edit_loop(&mut self) -> Result<(), String> {
        let (src, truth) = inputs::reference(self.seed, REF_KLOC);
        let input = self.write("input.pp", &src)?;
        let mut setups = Vec::new();
        let mut session: Option<(Serve, Json)> = None;
        for _ in 0..SETUPS {
            if let Some((serve, _)) = session.take() {
                let q = serve.quit();
                self.tally("serve quit", q);
            }
            let t = Instant::now();
            let s = self.open_session(&input, &truth);
            let wall = t.elapsed().as_secs_f64();
            if let Some(s) = self.tally("serve open", s) {
                setups.push(wall);
                session = Some(s);
            }
        }
        let (mut serve, _) = session.ok_or("no serve session could be opened")?;
        let mut script = EditScript::new(src.clone(), self.seed);
        let file = self.file("edit.pp");
        let mut lat = Vec::new();
        let mut kinds = Vec::new();
        let mut replies = Vec::new();
        let t = Instant::now();
        while t.elapsed() < self.budget {
            let kind = script.advance();
            self.write("edit.pp", script.text())?;
            let t0 = Instant::now();
            let r = serve.update_check(&file);
            let rt = t0.elapsed().as_secs_f64() * 1e3;
            let r = r.and_then(|reports| truth.check(&reports, script.added()).map(|_| reports));
            let Some(reports) = self.tally("edit", r) else {
                break;
            };
            lat.push(rt);
            kinds.push(kind);
            if replies.len() < TRACED_EDITS {
                replies.push(reports);
            }
        }
        let session = serve.stats().and_then(|doc| {
            let doc = doc.get("stats").cloned().unwrap_or(doc);
            cli::truncation(&doc).map(|_| doc)
        });
        let session = self.tally("session stats", session);
        let q = serve.quit();
        self.tally("serve quit", q);
        print_edit_kinds(&kinds, &lat);
        if self.trace.is_none() {
            self.end_to_end(&lat, &setups);
            return Ok(());
        }
        // Replay the first edits in-process on a workspace, pairing each
        // with its round trip. Like the served session, it checks once
        // before the first edit.
        let mut ws = pinpoint::AnalysisBuilder::new()
            .threads(1)
            .open_workspace(&src)
            .map_err(|e| e.to_string())?;
        ws.query(&pinpoint::Query::All);
        let mut script = EditScript::new(src.clone(), self.seed);
        let (mut upd, mut qry, mut dirty, mut overhead) = (vec![], vec![], vec![], vec![]);
        let mut mismatched = Vec::new();
        let tr = self.trace.as_mut().expect("traced run");
        let edits = tr.enter("edits");
        for (i, want) in replies.iter().enumerate() {
            script.advance();
            let (out, u) = tr.span("workspace.update", || ws.update_source(script.text()));
            let out = out.map_err(|e| e.to_string())?;
            let (resp, q) = tr.span("workspace.query", || ws.query(&pinpoint::Query::All));
            let got = pinpoint::core::export::reports_json(&ws.analysis().module, resp.reports());
            if json::parse(&got).ok().as_ref() != Some(want) {
                mismatched.push(i);
            }
            upd.push(u);
            qry.push(q);
            dirty.push(out.reanalyzed as f64);
            overhead.push(lat[i] - u - q);
        }
        tr.exit(edits);
        for i in 0..replies.len() {
            let same = match mismatched.contains(&i) {
                true => Err(format!("edit {i}: in-process reports differ from serve's")),
                false => Ok(()),
            };
            self.tally("in-process edit", same);
        }
        let c = ws.counters();
        let reuse = c.queries_reused as f64 / (c.queries_reused + c.queries_rerun).max(1) as f64;
        drop(ws);
        let cli_stats = self.file("stats.json");
        let cli = self.pp.check(&input, &[], &cli_stats)?;
        let l = self.traced_layers(&src, None, &cli.stdout, &cli.stats, 1)?;
        let ws = [
            median(&upd),
            median(&qry),
            median(&dirty),
            reuse,
            median(&overhead),
        ];
        let io: Vec<[f64; 3]> = session.iter().map(cache_io).collect();
        let cache = cache_layer(&io, &self.pp.cwd);
        // The layers under an edit's round trip are the workspace calls;
        // the rest is the server and its transport.
        self.per_layer(&l, median(&lat), ws[0] + ws[1], cache, ws);
        Ok(())
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json::quote(n),
                    num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks a set-up run: the first is checked against the labels (when
/// the workload has them) and pinned; later ones must repeat it. Returns
/// the run's wall time in seconds.
fn pin_check(
    pin: &mut Option<CheckRun>,
    truth: Option<&inputs::Truth>,
    run: CheckRun,
) -> Result<f64, String> {
    let wall = run.wall.as_secs_f64();
    match pin {
        Some(first) => repeat_of(first, &run)?,
        None => {
            if let Some(t) = truth {
                t.check(&run.reports, &[])?;
            }
            *pin = Some(run);
        }
    }
    Ok(wall)
}

/// A run of the same input must repeat the first run's report bytes and
/// work counters exactly.
fn repeat_of(first: &CheckRun, run: &CheckRun) -> Result<(), String> {
    if first.stdout != run.stdout {
        return Err("report list changed between runs".into());
    }
    let (a, b) = (doc_counters(&first.stats), doc_counters(&run.stats));
    if a != b {
        return Err(format!("counter drift: {a:?} vs {b:?} ({DOC_COUNTERS:?})"));
    }
    Ok(())
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Files and bytes under `dir`.
fn walk(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => {
                    files += 1;
                    bytes += m.len();
                }
                Err(_) => {}
            }
        }
    }
    (files, bytes)
}
