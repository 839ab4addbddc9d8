//! The detection state behind both query holders.
//!
//! [`DetectSession`](crate::DetectSession) borrows an immutable
//! [`Analysis`]; [`Workspace`](crate::Workspace) owns one and replaces it
//! across edits. Both answer checks through one [`DetectState`]: the
//! engine defaults, the accumulating statistics, trace, and per-query
//! attribution, the verdict table and its persistence, the whole-program
//! summary memo, the leak pass, and the stats exports. The workspace
//! alone adds a per-source [`QueryCache`]; every run goes through the one
//! [`run_spec`].

use crate::detect::{run_spec, DetectConfig, DetectStats, QueryCache, QueryReuse, Report};
use crate::driver::{build_metrics, Analysis, PipelineStats};
use crate::spec::{CheckerKind, Spec};
use crate::vfsummary::{keys_fingerprint, summary_fingerprint, Engine, ModuleSummaries};
use pinpoint_cache::CacheStore;
use pinpoint_ir::CallGraph;
use pinpoint_obs::{queries_json, MetricsRegistry, ProfileTable, QueryRecord, TraceBuf};
use pinpoint_smt::VerdictTable;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Per-holder detection state over some [`Analysis`] (passed to every
/// method, since one holder borrows it and the other owns it).
#[derive(Debug)]
pub(crate) struct DetectState {
    /// Worker count for detection runs.
    pub threads: usize,
    /// Engine override (`None` = per-query default: demand for single
    /// checks, summary for whole-program checks).
    pub engine: Option<Engine>,
    detect: DetectStats,
    detect_time: Duration,
    /// Build-stage spans (cloned from the artefact) extended with this
    /// holder's detection spans.
    pub trace: TraceBuf,
    /// Per-query solver attribution accumulated across runs, ids in
    /// deterministic replay order.
    queries: Vec<QueryRecord>,
    /// The accumulating verdict table, seeded from the artefact's
    /// persisted snapshot. Each run consults the table as it stood when
    /// the run started and merges what it learned afterwards, so later
    /// queries reuse earlier verdicts while each run stays thread-count
    /// invariant. Canonical fingerprints are arena-independent, so the
    /// table survives edits, full fallbacks included.
    verdicts: VerdictTable,
    /// Table size at the last persist — the already-durable prefix.
    persisted_len: usize,
    /// Verdicts newly written to the persistent store.
    verdicts_persisted: u64,
    /// Whole-program interface summaries per property fingerprint,
    /// stamped with the fingerprint of the artefact's per-function keys.
    /// An edit changes the keys of every function whose summary could
    /// differ, so a stamp match proves the memo is still exact; a stale
    /// entry rebuilds through the persistent store, where every clean
    /// function's summary is still a hit.
    summaries: HashMap<u128, (u128, ModuleSummaries)>,
    /// Call-graph condensation of the current artefact, built lazily by
    /// the first summary build and shared by every spec.
    callgraph: Option<CallGraph>,
    /// Detection-time handle on the artefact's cache directory (interface
    /// summaries and verdicts); its I/O time is folded into
    /// [`PipelineStats::cache`].
    store: Option<CacheStore>,
    /// Per-source query cache (the workspace's query layer).
    query_cache: Option<QueryCache>,
    /// Accumulated query-cache reuse split.
    pub reuse: QueryReuse,
}

impl DetectState {
    /// Fresh state over `analysis`, with a per-source query cache when
    /// `query_cache` is set.
    pub fn new(analysis: &Analysis, query_cache: bool) -> Self {
        let verdicts = analysis.verdicts.clone();
        DetectState {
            threads: analysis.threads(),
            engine: analysis.engine(),
            detect: DetectStats::default(),
            detect_time: Duration::ZERO,
            trace: analysis.trace().clone(),
            queries: Vec::new(),
            persisted_len: verdicts.len(),
            verdicts,
            verdicts_persisted: 0,
            summaries: HashMap::new(),
            callgraph: None,
            store: analysis
                .cache_dir
                .as_deref()
                .and_then(|dir| CacheStore::open(dir).ok()),
            query_cache: query_cache.then(QueryCache::default),
            reuse: QueryReuse::default(),
        }
    }

    /// Drops what the replaced artefact invalidated: the call graph
    /// always, the query cache on a full fallback (term ids are only
    /// comparable within one arena lineage).
    pub fn artefact_replaced(&mut self, fell_back: bool) {
        self.callgraph = None;
        if fell_back {
            if let Some(cache) = &mut self.query_cache {
                cache.clear();
            }
        }
    }

    /// Number of per-source outcomes currently cached.
    pub fn cached_queries(&self) -> usize {
        self.query_cache.as_ref().map_or(0, QueryCache::len)
    }

    /// Runs each of `kinds` as one whole-program query.
    pub fn run_all(
        &mut self,
        analysis: &Analysis,
        config: DetectConfig,
        kinds: &[CheckerKind],
    ) -> Vec<Report> {
        kinds
            .iter()
            .flat_map(|&k| self.run(analysis, config, &k.spec(), Some(k), true))
            .collect()
    }

    /// Runs one property. Without an engine override, `whole_program`
    /// queries use the summary engine and single checks the demand
    /// engine; reports are byte-identical either way.
    pub fn run(
        &mut self,
        analysis: &Analysis,
        config: DetectConfig,
        spec: &Spec,
        kind: Option<CheckerKind>,
        whole_program: bool,
    ) -> Vec<Report> {
        let engine = self.engine.unwrap_or(if whole_program {
            Engine::Summary
        } else {
            Engine::Demand
        });
        let t0 = Instant::now();
        let span = self.trace.open("detect", spec.name.clone());
        let gate = (engine == Engine::Summary).then(|| self.summaries_for(analysis, spec));
        let keys = analysis.func_keys.as_slice();
        let out = run_spec(
            analysis,
            &self.verdicts,
            spec,
            kind,
            config,
            self.threads,
            &mut self.trace,
            gate.as_ref().map(|(_, sums)| sums),
            self.query_cache.as_mut().map(|cache| (keys, cache)),
        );
        if let Some(memo) = gate {
            self.summaries.insert(summary_fingerprint(spec), memo);
        }
        self.trace.close(span);
        let base_id = u32::try_from(self.queries.len()).expect("query count fits u32");
        self.queries.extend(out.queries.into_iter().map(|mut q| {
            q.id += base_id;
            q
        }));
        self.detect_time += t0.elapsed();
        accumulate(&mut self.detect, &out.stats);
        self.reuse.reused += out.reuse.reused;
        self.reuse.rerun += out.reuse.rerun;
        for (fp, v) in out.new_verdicts {
            self.verdicts.insert(fp, v);
        }
        if let Some(store) = &mut self.store {
            if self.verdicts.len() > self.persisted_len {
                crate::cache_io::store_verdicts(store, &self.verdicts);
                self.verdicts_persisted += (self.verdicts.len() - self.persisted_len) as u64;
                self.persisted_len = self.verdicts.len();
            }
        }
        out.reports
    }

    /// The whole-program summaries for `spec` with their key stamp:
    /// replayed from the memo when the stamp matches the artefact's
    /// current keys (counted as a full reuse), otherwise built through
    /// the persistent store when one is configured.
    fn summaries_for(&mut self, analysis: &Analysis, spec: &Spec) -> (u128, ModuleSummaries) {
        let keys_fp = keys_fingerprint(&analysis.func_keys);
        if let Some((fp, mut sums)) = self.summaries.remove(&summary_fingerprint(spec)) {
            if fp == keys_fp {
                sums.reused = sums.len() as u64;
                sums.built = 0;
                sums.composed = 0;
                return (keys_fp, sums);
            }
        }
        let span = self.trace.open("summary.build", "");
        let cg = self
            .callgraph
            .get_or_insert_with(|| CallGraph::new(&analysis.module));
        let sums = ModuleSummaries::build_with_graph(
            &analysis.module,
            &analysis.segs,
            spec,
            self.threads,
            self.store
                .as_mut()
                .map(|st| (st, analysis.func_keys.as_slice())),
            cg,
        );
        self.trace.close(span);
        (keys_fp, sums)
    }

    /// The memory-leak pass on private scratch copies of the symbol
    /// cache and arena. Leak checking is a whole-module reachability
    /// pass without per-source structure, so it is never query-cached.
    pub fn leaks(&mut self, analysis: &Analysis) -> Vec<crate::leak::LeakReport> {
        let t0 = Instant::now();
        let span = self.trace.open("detect", "memory-leak");
        let mut symbols = analysis.pta.symbols.clone();
        let mut arena = (*analysis.arena).clone();
        let reports =
            crate::leak::check_leaks(&analysis.module, &analysis.segs, &mut symbols, &mut arena);
        self.trace.close(span);
        self.detect_time += t0.elapsed();
        reports
    }

    /// The artefact's build stages plus the accumulated detection
    /// counters, detection time, and detection-time cache I/O.
    pub fn stats(&self, analysis: &Analysis) -> PipelineStats {
        let mut s = analysis.stats;
        s.detect = self.detect;
        s.detect_time = self.detect_time;
        if let Some(store) = &self.store {
            // Only the times: hits/misses/invalidated stay the build
            // stages' artifact traffic.
            let io = store.stats();
            s.cache.load_ns += io.load_ns;
            s.cache.store_ns += io.store_ns;
        }
        s
    }

    /// Per-query solver attribution accumulated so far.
    pub fn queries(&self) -> &[QueryRecord] {
        &self.queries
    }

    /// The standard `pinpoint-stats-v1` stage families.
    pub fn metrics(&self, analysis: &Analysis) -> MetricsRegistry {
        build_metrics(
            analysis,
            &self.stats(analysis),
            &self.queries,
            self.verdicts_persisted,
        )
    }

    /// The stats document for `metrics` plus this state's query rows.
    /// `canonical` zeroes wall-clock values and omits run metadata.
    pub fn stats_json(&self, metrics: MetricsRegistry, canonical: bool) -> String {
        metrics.stats_json(
            &[("threads", self.threads as u64)],
            Some(&queries_json(&self.queries, canonical)),
            canonical,
        )
    }

    /// The top-`k` rows of the per-`(checker, function)` profile table.
    pub fn profile(&self, k: usize) -> String {
        ProfileTable::build(&self.queries).render(k)
    }
}

/// Field-by-field accumulation of detection counters across runs.
fn accumulate(total: &mut DetectStats, stats: &DetectStats) {
    total.sources += stats.sources;
    total.visited += stats.visited;
    total.candidates += stats.candidates;
    total.refuted += stats.refuted;
    total.linear_refuted += stats.linear_refuted;
    total.skipped_descents += stats.skipped_descents;
    total.budget_exhausted += stats.budget_exhausted;
    total.reports += stats.reports;
    total.verdict_hits += stats.verdict_hits;
    total.verdict_misses += stats.verdict_misses;
    total.reused_clauses += stats.reused_clauses;
    total.sessions += stats.sessions;
    total.summary_gated += stats.summary_gated;
    total.summary_built += stats.summary_built;
    total.summary_reused += stats.summary_reused;
    total.summary_composed += stats.summary_composed;
}
