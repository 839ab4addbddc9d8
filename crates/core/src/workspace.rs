//! A long-lived, incrementally-updatable analysis engine.
//!
//! [`Workspace`] owns an [`Analysis`] across edits and reuses work at two
//! layers when the program changes:
//!
//! 1. **Artefact layer** — [`Workspace::update_source`] diffs the new
//!    module's per-function transitive fingerprint keys
//!    ([`pinpoint_cache::module_keys`]) against the previous build's and
//!    re-analyses exactly the functions whose keys changed (the edited
//!    ones plus their transitive callers; keys fold callee fingerprints
//!    over the call-graph condensation, so the diff is caller-closed by
//!    construction). Clean functions' transformed bodies, points-to
//!    facts, SEGs, and hash-consed terms are spliced from the previous
//!    artefact.
//! 2. **Query layer** — each `check*` call caches every per-source
//!    search outcome keyed by `(spec fingerprint, source site)` together
//!    with a *cone fingerprint*: a hash of every artefact datum the
//!    search consulted (the keys of all functions it visited, the caller
//!    lists it ascended through, the global load lists it followed). On
//!    a warm check, a source whose recomputed cone fingerprint still
//!    matches is answered from the cache; only sources whose cone
//!    intersects the edit's dirty set re-run.
//!
//! # Determinism
//!
//! Warm results are byte-identical to a cold build at any thread count:
//!
//! * a cached outcome is replayed only when its cone fingerprint
//!   matches, i.e. when every input the search would read is unchanged —
//!   so the cached [`SourceOutcome`](crate::detect) equals what a
//!   re-search would produce;
//! * reports, statistics, and per-query attribution are produced by one
//!   canonical merge over per-source outcomes in source order — a pure
//!   function of those outcomes — so mixing cached and fresh outcomes
//!   cannot change the result;
//! * the only warm-vs-cold difference is the term arena's *length*
//!   (append-only splicing keeps dead terms alive), which affects no
//!   report, witness, or counter other than the `terms` gauge.
//!
//! On a full fallback (the function set changed shape) the artefact —
//! including the term arena — is rebuilt from scratch, so the query
//! cache is cleared: term ids are only comparable within one arena
//! lineage.
//!
//! # Examples
//!
//! ```
//! use pinpoint_core::{CheckerKind, Query, Workspace};
//!
//! let mut ws = Workspace::open(
//!     "fn main() {
//!         let p: int* = malloc();
//!         free(p);
//!         let x: int = *p;
//!         print(x);
//!         return;
//!     }",
//! )?;
//! let uaf = Query::Check(CheckerKind::UseAfterFree);
//! assert_eq!(ws.query(&uaf).len(), 1);
//! // Fix the bug; only the edited function re-runs.
//! ws.update_source(
//!     "fn main() {
//!         let p: int* = malloc();
//!         let x: int = *p;
//!         print(x);
//!         free(p);
//!         return;
//!     }",
//! )?;
//! assert_eq!(ws.query(&uaf).len(), 0);
//! # Ok::<(), pinpoint_core::PinpointError>(())
//! ```

use crate::detect::{DetectConfig, Report};
use crate::driver::{compile_typed, Analysis, AnalysisBuilder, PipelineStats, UpdateOutcome};
use crate::error::PinpointError;
use crate::seg::ModuleSeg;
use crate::spec::CheckerKind;
use crate::state::DetectState;
use pinpoint_cache::{config_fp, module_keys};
use pinpoint_ir::{FuncId, Module};
use pinpoint_obs::{MetricsRegistry, QueryRecord};
use pinpoint_pta::ModuleAnalysis;
use pinpoint_smt::TermArena;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Cumulative reuse counters across a workspace's lifetime.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkspaceCounters {
    /// Source queries answered from the query cache.
    pub queries_reused: u64,
    /// Source queries whose search was (re-)run.
    pub queries_rerun: u64,
    /// Functions re-analysed by [`Workspace::update_source`] calls.
    pub funcs_dirty: u64,
    /// Functions spliced from the previous artefact by
    /// [`Workspace::update_source`] calls.
    pub funcs_reused: u64,
}

/// A long-lived analysis engine: owns the artefact, accepts edits, and
/// answers checks incrementally (see the [module docs](self)).
#[derive(Debug)]
pub struct Workspace {
    analysis: Analysis,
    /// Detection configuration for this workspace's queries (starts from
    /// the artefact's build-time configuration; see
    /// [`Workspace::set_detect_config`]).
    config: DetectConfig,
    /// Detection state with the per-source query cache (layer 2).
    state: DetectState,
    /// Artefact-layer counters; the query-layer ones live in `state`.
    counters: WorkspaceCounters,
}

impl Workspace {
    /// Opens a workspace over `src` with default configuration.
    ///
    /// # Errors
    ///
    /// Returns typed parse or lowering errors from the front end.
    pub fn open(src: &str) -> Result<Self, PinpointError> {
        AnalysisBuilder::new().open_workspace(src)
    }

    /// Wraps an already-built artefact in a workspace.
    pub fn from_analysis(analysis: Analysis) -> Self {
        Workspace {
            config: analysis.config(),
            state: DetectState::new(&analysis, true),
            analysis,
            counters: WorkspaceCounters::default(),
        }
    }

    /// The current artefact (replaced in place by
    /// [`Workspace::update_source`]).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Cumulative reuse counters.
    pub fn counters(&self) -> WorkspaceCounters {
        WorkspaceCounters {
            queries_reused: self.state.reuse.reused,
            queries_rerun: self.state.reuse.rerun,
            ..self.counters
        }
    }

    /// Number of per-source outcomes currently cached.
    pub fn cached_queries(&self) -> usize {
        self.state.cached_queries()
    }

    /// Replaces the program with an edited version, reusing the previous
    /// artefact for everything the edit did not dirty (layer 1 of the
    /// [module docs](self)). The edit is detected automatically: the new
    /// module's per-function fingerprint keys are diffed against the
    /// previous build's, and exactly the functions whose keys changed —
    /// the edited ones plus, because keys are transitive over the call
    /// graph, their transitive callers — are re-analysed (see
    /// [`pinpoint_pta::incremental`]). The query cache survives — entries
    /// are validated per source on the next check — except on a full
    /// fallback, which rebuilds the term arena and therefore clears it.
    ///
    /// # Errors
    ///
    /// Returns typed front-end errors for the new source; the workspace
    /// is unchanged when it does.
    pub fn update_source(&mut self, new_source: &str) -> Result<UpdateOutcome, PinpointError> {
        let new_module = compile_typed(new_source)?;
        let outcome = self.update_module(new_module);
        self.state.artefact_replaced(outcome.fell_back);
        self.counters.funcs_dirty += outcome.reanalyzed as u64;
        self.counters.funcs_reused += outcome.reused as u64;
        Ok(outcome)
    }

    /// Splices the artefact for an already-compiled (pre-transform)
    /// module: re-analyses the key-dirty functions and reuses the rest.
    fn update_module(&mut self, mut new_module: Module) -> UpdateOutcome {
        let a = &mut self.analysis;
        let keys_span = self.state.trace.open("keys", "");
        let new_keys = module_keys(&new_module, config_fp(&a.pta_config));
        self.state.trace.close(keys_span);
        // Key diffs are caller-closed: an edit anywhere below a function
        // changes that function's transitive key, so the dirty set needs
        // no further closure. A shape change (different function count)
        // dirties everything; `analyze_module_incremental_dirty` then
        // falls back to a full run via its own shape check.
        let all = |n: usize| (0..n).map(|i| FuncId(i as u32)).collect::<HashSet<_>>();
        let key_dirty: HashSet<FuncId> = if new_keys.len() == a.func_keys.len() {
            new_keys
                .iter()
                .zip(&a.func_keys)
                .enumerate()
                .filter(|(_, (n, o))| n != o)
                .map(|(i, _)| FuncId(i as u32))
                .collect()
        } else {
            all(new_module.funcs.len())
        };
        // Reassemble the ModuleAnalysis (the artefact holds the arena
        // separately for detection-time term building).
        let mut old = std::mem::replace(&mut a.pta, blank_module_analysis());
        old.arena = take_arena(&mut a.arena);
        let outcome = pinpoint_pta::analyze_module_incremental_dirty(
            &mut new_module,
            &a.module,
            old,
            &key_dirty,
        );
        let reanalyzed = outcome.reanalyzed.len();
        let dirty: HashSet<FuncId> = if outcome.fell_back {
            all(new_module.funcs.len())
        } else {
            outcome.reanalyzed.iter().copied().collect()
        };
        a.module = new_module;
        a.pta = outcome.analysis;
        a.stats.pta = a.pta.total_stats();
        // Rebuild SEGs only for the re-analysed functions.
        let t1 = Instant::now();
        let mut arena = std::mem::take(&mut a.pta.arena);
        let mut symbols = std::mem::take(&mut a.pta.symbols);
        let old_segs = std::mem::replace(
            &mut a.segs,
            ModuleSeg {
                segs: Vec::new(),
                callers: std::collections::HashMap::new(),
                global_stores: std::collections::BTreeMap::new(),
                global_loads: std::collections::BTreeMap::new(),
                vertex_count: 0,
                edge_count: 0,
            },
        );
        a.segs = ModuleSeg::build_reusing(
            &a.module,
            &mut arena,
            &mut symbols,
            &a.pta.pta,
            Some((old_segs, &dirty)),
        );
        a.pta.symbols = symbols;
        a.arena = Arc::new(arena);
        a.stats.seg_time = t1.elapsed();
        a.stats.seg_vertices = a.segs.vertex_count;
        a.stats.seg_edges = a.segs.edge_count;
        a.stats.terms = a.arena.len();
        a.func_keys = new_keys;
        UpdateOutcome {
            reanalyzed,
            reused: a.module.funcs.len().saturating_sub(reanalyzed),
            fell_back: outcome.fell_back,
        }
    }

    /// Replaces the detection configuration for subsequent queries.
    /// Because the per-source query cache is keyed by the spec *and*
    /// configuration fingerprint (budgets included), outcomes computed
    /// under the old configuration — truncated searches in particular —
    /// are never replayed as answers for the new one; they simply stop
    /// being found and the affected sources re-run.
    pub fn set_detect_config(&mut self, config: DetectConfig) {
        self.config = config;
    }

    /// The detection configuration current queries run under.
    pub fn detect_config(&self) -> DetectConfig {
        self.config
    }

    /// One property (the [`Query`](crate::query::Query) check arms);
    /// `whole_program` selects the [`Query::All`](crate::query::Query)
    /// engine default.
    pub(crate) fn run(
        &mut self,
        spec: &crate::spec::Spec,
        kind: Option<CheckerKind>,
        whole_program: bool,
    ) -> Vec<Report> {
        self.state
            .run(&self.analysis, self.config, spec, kind, whole_program)
    }

    /// Every built-in checker as one whole-program query (the
    /// [`Query::All`](crate::query::Query) arm).
    pub(crate) fn run_all(&mut self) -> Vec<Report> {
        self.state
            .run_all(&self.analysis, self.config, &CheckerKind::ALL)
    }

    /// The memory-leak pass (the [`Query::Leaks`](crate::query::Query)
    /// arm). Not query-cached, but still incremental through layer 1 (it
    /// reads the spliced SEGs).
    pub(crate) fn run_leaks(&mut self) -> Vec<crate::leak::LeakReport> {
        self.state.leaks(&self.analysis)
    }

    /// Combined statistics: the artefact's build stages plus the
    /// workspace's accumulated detection counters, time, and cache I/O.
    pub fn stats(&self) -> PipelineStats {
        self.state.stats(&self.analysis)
    }

    /// Per-query solver attribution accumulated so far. Cached sources
    /// replay their recorded events, so warm attribution is identical to
    /// a cold run's.
    pub fn queries(&self) -> &[QueryRecord] {
        self.state.queries()
    }

    /// The attribution rows recorded after the first `n` — the slice a
    /// caller that snapshotted `queries().len()` before an operation
    /// uses to attribute exactly that operation's solver work (the
    /// server's slow-query capture). `n` past the end yields an empty
    /// slice.
    pub fn queries_since(&self, n: usize) -> &[QueryRecord] {
        let queries = self.queries();
        &queries[n.min(queries.len())..]
    }

    /// The top-`k` most expensive queries so far, rendered as a
    /// "where did the time go" profile table.
    pub fn profile(&self, k: usize) -> String {
        self.state.profile(k)
    }

    /// The unified metrics registry: the standard five stage families
    /// plus the `workspace.*` reuse counters.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.state.metrics(&self.analysis);
        let c = self.counters();
        m.counter_add("workspace.queries.reused", c.queries_reused);
        m.counter_add("workspace.queries.rerun", c.queries_rerun);
        m.counter_add("workspace.funcs.dirty", c.funcs_dirty);
        m.counter_add("workspace.funcs.reused", c.funcs_reused);
        m
    }

    /// The unified stats document (`pinpoint-stats-v1`) including the
    /// `workspace` stage family. `canonical` zeroes wall-clock values
    /// and omits run metadata.
    pub fn stats_json(&self, canonical: bool) -> String {
        self.state.stats_json(self.metrics(), canonical)
    }
}

/// An empty placeholder `ModuleAnalysis` used while swapping state
/// during incremental updates.
fn blank_module_analysis() -> ModuleAnalysis {
    let mut empty = Module::new();
    pinpoint_pta::analyze_module(&mut empty)
}

/// Takes the interner out of its shared handle for mutation. The
/// workspace's `&mut` receiver guarantees no session borrows the
/// artefact; worker overlays only hold the `Arc` during a run, so this is
/// normally free (falls back to a deep clone if a stray handle survives).
fn take_arena(arena: &mut Arc<TermArena>) -> TermArena {
    let arc = std::mem::take(arena);
    Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone())
}

impl AnalysisBuilder {
    /// Builds the artefact for `src` and wraps it in a [`Workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisBuilder::build_source`].
    pub fn open_workspace(self, src: &str) -> Result<Workspace, PinpointError> {
        Ok(Workspace::from_analysis(self.build_source(src)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    const UAF: &str = "fn helper(q: int*) { free(q); return; }
        fn main() {
            let p: int* = malloc();
            helper(p);
            let x: int = *p;
            print(x);
            return;
        }";

    #[test]
    fn warm_check_reuses_untouched_queries() {
        let mut ws = Workspace::open(UAF).unwrap();
        let cold = ws.query(&Query::All).into_reports();
        assert!(!cold.is_empty());
        let rerun_cold = ws.counters().queries_rerun;
        assert!(rerun_cold > 0);
        assert_eq!(ws.counters().queries_reused, 0);
        // Unchanged program: every query replays from the cache.
        let warm = ws.query(&Query::All).into_reports();
        assert_eq!(
            cold.iter().map(ToString::to_string).collect::<Vec<_>>(),
            warm.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        assert_eq!(ws.counters().queries_rerun, rerun_cold);
        assert_eq!(ws.counters().queries_reused, rerun_cold);
    }

    #[test]
    fn edit_invalidates_only_affected_cones() {
        let base = "fn freer(q: int*) { free(q); return; }
            fn lone(c: bool) {
                let v: int* = malloc();
                if (c) { free(v); }
                let y: int = *v;
                print(y);
                return;
            }
            fn main() {
                let p: int* = malloc();
                freer(p);
                let x: int = *p;
                print(x);
                return;
            }";
        // Edit only `lone`; the freer/main cone stays clean.
        let edited = "fn freer(q: int*) { free(q); return; }
            fn lone(c: bool) {
                let v: int* = malloc();
                let pad: int = 7;
                print(pad);
                if (c) { free(v); }
                let y: int = *v;
                print(y);
                return;
            }
            fn main() {
                let p: int* = malloc();
                freer(p);
                let x: int = *p;
                print(x);
                return;
            }";
        let mut ws = Workspace::open(base).unwrap();
        let cold: Vec<String> = ws
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        let outcome = ws.update_source(edited).unwrap();
        assert!(!outcome.fell_back);
        assert!(outcome.reused > 0, "{outcome:?}");
        let before = ws.counters();
        let warm: Vec<String> = ws
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        let after = ws.counters();
        assert!(
            after.queries_reused > before.queries_reused,
            "clean cones must replay from cache: {after:?}"
        );
        // The edited function's sources re-ran.
        assert!(after.queries_rerun > before.queries_rerun, "{after:?}");
        // Warm reports equal a cold build of the edited program.
        let fresh = Workspace::open(edited)
            .unwrap()
            .query(&Query::All)
            .into_reports();
        let fresh: Vec<String> = fresh.iter().map(ToString::to_string).collect();
        assert_eq!(warm, fresh);
        let _ = cold;
    }

    #[test]
    fn shape_change_falls_back_and_clears_cache() {
        let mut ws = Workspace::open(UAF).unwrap();
        ws.query(&Query::All).into_reports();
        assert!(ws.cached_queries() > 0);
        let with_extra = format!("{UAF}\nfn extra() {{ return; }}");
        let outcome = ws.update_source(&with_extra).unwrap();
        assert!(outcome.fell_back);
        assert_eq!(ws.cached_queries(), 0, "stale arena lineage must drop");
        // Still correct after the fallback.
        let warm: Vec<String> = ws
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        let fresh: Vec<String> = Workspace::open(&with_extra)
            .unwrap()
            .query(&Query::All)
            .into_reports()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(warm, fresh);
    }

    #[test]
    fn raising_budget_reruns_truncated_sources() {
        let chain = "fn f3(r: int*) { free(r); return; }
            fn f2(q: int*) { f3(q); return; }
            fn f1(p: int*) { f2(p); return; }
            fn main() {
                let p: int* = malloc();
                f1(p);
                let x: int = *p;
                print(x);
                return;
            }";
        let mut ws = Workspace::open(chain).unwrap();
        let mut tight = ws.detect_config();
        tight.max_visited_per_source = 1;
        ws.set_detect_config(tight);
        let starved = ws
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        assert!(starved.is_empty(), "budget 1 must truncate before the sink");
        assert!(ws.stats().detect.budget_exhausted > 0);
        let rerun_before = ws.counters().queries_rerun;
        // Restore the default budget: the truncated outcome is keyed to
        // the old configuration fingerprint, so the source re-runs
        // instead of replaying its truncated (empty) answer.
        ws.set_detect_config(DetectConfig::default());
        let full = ws
            .query(&Query::Check(CheckerKind::UseAfterFree))
            .into_reports();
        assert_eq!(full.len(), 1, "{full:?}");
        assert!(ws.counters().queries_rerun > rerun_before);
    }

    #[test]
    fn stats_json_exports_workspace_family() {
        let mut ws = Workspace::open(UAF).unwrap();
        ws.query(&Query::All).into_reports();
        ws.query(&Query::All).into_reports();
        let json = ws.stats_json(true);
        // Families are nested by their first dot segment in the document.
        assert!(json.contains("\"workspace\":{"), "{json}");
        assert!(json.contains("\"queries.reused\""), "{json}");
        assert!(json.contains("\"queries.rerun\""), "{json}");
        assert!(json.contains("\"funcs.dirty\""), "{json}");
        assert!(json.contains("\"funcs.reused\""), "{json}");
        assert!(json.contains("\"budget_exhausted\""), "{json}");
    }
}
