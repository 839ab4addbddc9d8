//! The traced run: calls each layer's public function in pipeline order
//! and records a span around every call, in memory.
//!
//! Spans are recorded here, around the calls; the analyzer itself is not
//! instrumented further. Where a layer's public function repeats work of
//! an earlier layer internally, its self time subtracts that work as
//! measured by the earlier layer's own call:
//!
//! * `parser::parse` lexes its input again, so `ir.parse` is parse − lex;
//! * a detection session rebuilds the call graph, interface summaries
//!   (`ModuleSummaries`) and descent summaries (`ParamSummaries`) per
//!   checker, and solves path conditions, so `detect.*` is the session
//!   span minus those builds and minus the solver time the session's own
//!   query records attribute.

use pinpoint::cache::{config_fp, module_keys, CacheStore, PtaArtifactStore};
use pinpoint::core::cache_io::SegCacheStore;
use pinpoint::core::export::reports_json;
use pinpoint::core::summary::ParamSummaries;
use pinpoint::core::{ModuleSeg, ModuleSummaries};
use pinpoint::ir::{lexer, lower, parser, CallGraph};
use pinpoint::obs::TraceBuf;
use pinpoint::pta::{analyze_module_cached, analyze_module_par, PtaConfig};
use pinpoint::{AnalysisBuilder, CheckerKind, Engine};
use std::fmt::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one); returns its length in ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's length in ms.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Spans as a JSON array, in opening order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Layer self times (ms) and work counters of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub lex_ms: f64,
    pub parse_ms: f64,
    pub lower_ms: f64,
    pub tokens: f64,
    pub insts: f64,
    /// Instructions after the PTA transform (what the stats document's
    /// `frontend.insts` counts).
    pub transformed_insts: f64,
    pub keys_ms: f64,
    pub pta_ms: f64,
    pub linear_checks: f64,
    pub seg_ms: f64,
    pub vertices: f64,
    pub summary_build_ms: f64,
    pub summary_param_ms: f64,
    pub summary_built: f64,
    pub summary_gated: f64,
    pub demand_ms: f64,
    pub summary_ms: f64,
    pub sources: f64,
    pub visited: f64,
    pub smt_solve_ms: f64,
    pub smt_queries: f64,
    pub verdict_hits: f64,
    pub verdict_misses: f64,
    /// Cache probing, loading and storing inside the build layers.
    pub cache_io_ms: f64,
    /// The CLI-equivalent path, traced: parse, lower, keys, PTA, SEG and
    /// the summary-engine detection session.
    pub traced_total_ms: f64,
    /// The same work as one untraced `build_source` + `check_all`.
    pub untraced_total_ms: f64,
}

impl Layers {
    /// Sum of every layer's self time.
    pub fn attributed_ms(&self) -> f64 {
        self.lex_ms
            + self.parse_ms
            + self.lower_ms
            + self.keys_ms
            + self.pta_ms
            + self.seg_ms
            + self.summary_build_ms
            + self.summary_param_ms
            + self.summary_ms
            + self.smt_solve_ms
            + self.cache_io_ms
    }
}

/// One traced pass over `src` — every built-in checker, one worker
/// thread, persisting through `cache` when given — and the report list
/// (the CLI's `--json` bytes) of its summary-engine session.
pub fn layer_pass(
    tr: &mut Tracer,
    src: &str,
    cache: Option<&Path>,
) -> Result<(Layers, String), String> {
    let mut l = Layers::default();
    let pass = tr.enter("pass");
    let (tokens, lex_ms) = tr.span("ir.lex", || lexer::lex(src));
    l.tokens = tokens.map_err(|e| e.to_string())?.len() as f64;
    let (program, parse_ms) = tr.span("ir.parse", || parser::parse(src));
    let program = program.map_err(|e| e.to_string())?;
    let (module, lower_ms) = tr.span("ir.lower", || lower::lower(&program));
    let module = module.map_err(|e| e.to_string())?;
    l.lex_ms = lex_ms;
    l.parse_ms = (parse_ms - lex_ms).max(0.0);
    l.lower_ms = lower_ms;
    l.insts = module.inst_count() as f64;

    let cfg = PtaConfig::default();
    let (keys, keys_ms) = tr.span("keys", || module_keys(&module, config_fp(&cfg)));
    l.keys_ms = keys_ms;
    let mut store = match cache {
        Some(dir) => Some(CacheStore::open(dir).map_err(|e| format!("cache: {e}"))?),
        None => None,
    };
    let io_ms = |s: &Option<CacheStore>| {
        s.as_ref().map_or(0.0, |s| {
            let st = s.stats();
            (st.load_ns + st.store_ns) as f64 / 1e6
        })
    };
    let mut m = module.clone();
    let mut tb = TraceBuf::off();
    let io0 = io_ms(&store);
    let (mut pta, pta_ms) = tr.span("pta", || match store.as_mut() {
        Some(st) => {
            let mut adapter = PtaArtifactStore::new(st);
            analyze_module_cached(&mut m, &cfg, 1, &mut tb, &keys, &mut adapter).0
        }
        None => analyze_module_par(&mut m, &cfg, 1, &mut tb),
    });
    let io1 = io_ms(&store);
    l.pta_ms = pta_ms - (io1 - io0);
    l.linear_checks = pta.total_stats().linear_checks as f64;
    l.transformed_insts = m.inst_count() as f64;
    let mut arena = std::mem::take(&mut pta.arena);
    let mut symbols = std::mem::take(&mut pta.symbols);
    let (segs, seg_ms) = tr.span("seg", || match store.as_mut() {
        Some(st) => ModuleSeg::build_par_cached(
            &m,
            &mut arena,
            &mut symbols,
            &pta.pta,
            1,
            &mut tb,
            &keys,
            &mut SegCacheStore::new(st),
        ),
        None => ModuleSeg::build_par(&m, &mut arena, &mut symbols, &pta.pta, 1, &mut tb),
    });
    let io2 = io_ms(&store);
    l.seg_ms = seg_ms - (io2 - io1);
    l.vertices = segs.vertex_count as f64;

    let (cg, cg_ms) = tr.span("summary.callgraph", || CallGraph::new(&m));
    let mut param_ms = [0.0; 4];
    let mut build_ms = [0.0; 4];
    for (i, kind) in CheckerKind::ALL.into_iter().enumerate() {
        let spec = kind.spec();
        param_ms[i] = tr
            .span("summary.param", || ParamSummaries::build(&m, &segs, &spec))
            .1;
        let persist = store.as_mut().map(|st| (st, keys.as_slice()));
        build_ms[i] = tr
            .span("summary.build", || {
                ModuleSummaries::build_with_graph(&m, &segs, &spec, 1, persist, &cg)
            })
            .1;
    }
    let io3 = io_ms(&store);
    l.summary_param_ms = param_ms.iter().sum();
    l.summary_build_ms = cg_ms + build_ms.iter().sum::<f64>() - (io3 - io2);
    l.cache_io_ms = io3 - io0;
    drop((cg, segs, arena, symbols, pta, m, store));

    let mut builder = AnalysisBuilder::new().threads(1);
    if let Some(dir) = cache {
        builder = builder.cache_dir(dir);
    }
    // The session API needs a built artefact; this rebuild repeats the
    // keys/PTA/SEG work timed above and is not a layer of its own.
    let (analysis, _) = tr.span("harness.artefact", || builder.clone().build_module(module));
    let analysis = analysis.map_err(|e| e.to_string())?;

    let mut demand = analysis.session().with_engine(Engine::Demand);
    let (demand_reports, demand_ms) = tr.span("detect.demand", || demand.check_all());
    let demand_smt: u64 = demand.queries().iter().map(|q| q.cost.solver_ns).sum();
    l.demand_ms = (demand_ms - l.summary_param_ms - demand_smt as f64 / 1e6).max(0.0);

    let mut session = analysis.session().with_engine(Engine::Summary);
    let mut reports = Vec::new();
    let mut detect_span_ms = 0.0;
    for (i, kind) in CheckerKind::ALL.into_iter().enumerate() {
        let before = session.stats().detect;
        let first_query = session.queries().len();
        let (r, ms) = tr.span("detect.summary", || session.check(kind));
        reports.extend(r);
        detect_span_ms += ms;
        let after = session.stats().detect;
        let smt_ms = session.queries()[first_query..]
            .iter()
            .map(|q| q.cost.solver_ns)
            .sum::<u64>() as f64
            / 1e6;
        // Descent summaries are built only when a source survives the gate.
        let searched = after.sources - before.sources > after.summary_gated - before.summary_gated;
        let rebuilt = build_ms[i] + if searched { param_ms[i] } else { 0.0 };
        let graph = if i == 0 { cg_ms } else { 0.0 };
        l.summary_ms += (ms - rebuilt - graph - smt_ms).max(0.0);
        l.smt_solve_ms += smt_ms;
    }
    let stats = session.stats().detect;
    l.summary_built = stats.summary_built as f64;
    l.summary_gated = stats.summary_gated as f64;
    l.sources = stats.sources as f64;
    l.visited = stats.visited as f64;
    l.smt_queries = session.queries().len() as f64;
    l.verdict_hits = stats.verdict_hits as f64;
    l.verdict_misses = stats.verdict_misses as f64;
    tr.exit(pass);

    let json = reports_json(&analysis.module, &reports);
    let agree = json == reports_json(&analysis.module, &demand_reports);
    // Free the pass's memory so the untraced run below starts from the
    // same allocator state the traced one did.
    drop((demand, session));
    drop(analysis);
    if !agree {
        return Err("demand and summary engines disagree in-process".into());
    }
    l.traced_total_ms = parse_ms + lower_ms + keys_ms + pta_ms + seg_ms + detect_span_ms;

    let t = Instant::now();
    let again = builder.build_source(src).map_err(|e| e.to_string())?;
    let _ = again.session().check_all();
    l.untraced_total_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((l, json))
}
