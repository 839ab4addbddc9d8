//! Binary codec for persisted SEG artifacts, plus the adapter that backs
//! [`SegStore`](crate::seg::SegStore) with the on-disk
//! [`pinpoint_cache::CacheStore`].
//!
//! The artifact layout mirrors [`pinpoint_cache::codec`]: little-endian
//! fixed-width scalars, length-prefixed sequences, maps sorted by key so
//! encoding is deterministic. A [`SegArtifact`] frame is
//!
//! ```text
//! arena · cached_values · out_edges · in_edges · control_deps ·
//! arg_uses · receivers · ret_index · call_sites · edge_count
//! ```
//!
//! Both edge maps are persisted even though they hold the same edges:
//! `in_edges` groups them per *destination* in insertion order, which
//! cannot be reconstructed from the per-source `out_edges` without
//! changing per-vector order (and hence downstream iteration order).

use crate::seg::{ArgUse, EdgeKind, RecvDef, Seg, SegArtifact, SegEdge, SegStore};
use pinpoint_cache::codec::{get_arena, get_term_id, put_arena, put_term_id};
use pinpoint_cache::{ByteReader, ByteWriter, CacheStore, DecodeError};
use pinpoint_ir::{BlockId, InstId, ValueId};
use pinpoint_smt::{verdict_config_fp, SmtSession, Verdict, VerdictTable};
use std::collections::HashMap;
use std::path::Path;

type Result<T> = std::result::Result<T, DecodeError>;

fn put_value_id(w: &mut ByteWriter, v: ValueId) {
    w.u32(v.0);
}

fn get_value_id(r: &mut ByteReader) -> Result<ValueId> {
    Ok(ValueId(r.u32()?))
}

fn put_inst_id(w: &mut ByteWriter, i: InstId) {
    w.u32(i.block.0);
    w.u32(i.index);
}

fn get_inst_id(r: &mut ByteReader) -> Result<InstId> {
    let block = BlockId(r.u32()?);
    let index = r.u32()?;
    Ok(InstId { block, index })
}

fn put_edge(w: &mut ByteWriter, e: &SegEdge) {
    put_value_id(w, e.src);
    put_value_id(w, e.dst);
    put_term_id(w, e.cond);
    w.u8(match e.kind {
        EdgeKind::Direct => 0,
        EdgeKind::Memory => 1,
        EdgeKind::Transform => 2,
    });
}

fn get_edge(r: &mut ByteReader, arena_len: usize) -> Result<SegEdge> {
    let src = get_value_id(r)?;
    let dst = get_value_id(r)?;
    let cond = get_term_id(r, arena_len)?;
    let kind = match r.u8()? {
        0 => EdgeKind::Direct,
        1 => EdgeKind::Memory,
        2 => EdgeKind::Transform,
        _ => return Err(DecodeError("bad edge kind")),
    };
    Ok(SegEdge {
        src,
        dst,
        cond,
        kind,
    })
}

fn put_edge_map(w: &mut ByteWriter, map: &HashMap<ValueId, Vec<SegEdge>>) {
    let mut keys: Vec<ValueId> = map.keys().copied().collect();
    keys.sort_unstable();
    w.len(keys.len());
    for k in keys {
        put_value_id(w, k);
        let edges = &map[&k];
        w.len(edges.len());
        for e in edges {
            put_edge(w, e);
        }
    }
}

fn get_edge_map(r: &mut ByteReader, arena_len: usize) -> Result<HashMap<ValueId, Vec<SegEdge>>> {
    let n = r.len()?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = get_value_id(r)?;
        let m = r.len()?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push(get_edge(r, arena_len)?);
        }
        if map.insert(k, edges).is_some() {
            return Err(DecodeError("duplicate edge-map key"));
        }
    }
    Ok(map)
}

/// Encodes `artifact` into the payload bytes of a cache frame.
pub fn encode_seg_artifact(artifact: &SegArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_arena(&mut w, &artifact.arena);
    w.len(artifact.cached_values.len());
    for &v in &artifact.cached_values {
        put_value_id(&mut w, v);
    }
    let seg = &artifact.seg;
    put_edge_map(&mut w, &seg.out_edges);
    put_edge_map(&mut w, &seg.in_edges);
    w.len(seg.control_deps.len());
    for deps in &seg.control_deps {
        w.len(deps.len());
        for &(v, pol) in deps {
            put_value_id(&mut w, v);
            w.bool(pol);
        }
    }
    let mut arg_keys: Vec<ValueId> = seg.arg_uses.keys().copied().collect();
    arg_keys.sort_unstable();
    w.len(arg_keys.len());
    for k in arg_keys {
        put_value_id(&mut w, k);
        let uses = &seg.arg_uses[&k];
        w.len(uses.len());
        for u in uses {
            put_inst_id(&mut w, u.site);
            w.str(&u.callee);
            w.u64(u.index as u64);
        }
    }
    let mut recv_keys: Vec<ValueId> = seg.receivers.keys().copied().collect();
    recv_keys.sort_unstable();
    w.len(recv_keys.len());
    for k in recv_keys {
        put_value_id(&mut w, k);
        let d = &seg.receivers[&k];
        put_inst_id(&mut w, d.site);
        w.str(&d.callee);
        w.u64(d.index as u64);
    }
    let mut ret_keys: Vec<ValueId> = seg.ret_index.keys().copied().collect();
    ret_keys.sort_unstable();
    w.len(ret_keys.len());
    for k in ret_keys {
        put_value_id(&mut w, k);
        w.u64(seg.ret_index[&k] as u64);
    }
    let mut site_keys: Vec<InstId> = seg.call_sites.keys().copied().collect();
    site_keys.sort_unstable();
    w.len(site_keys.len());
    for k in site_keys {
        put_inst_id(&mut w, k);
        let (callee, args, recvs) = &seg.call_sites[&k];
        w.str(callee);
        w.len(args.len());
        for &a in args {
            put_value_id(&mut w, a);
        }
        w.len(recvs.len());
        for &v in recvs {
            put_value_id(&mut w, v);
        }
    }
    w.u64(seg.edge_count as u64);
    w.into_bytes()
}

/// Decodes a [`SegArtifact`] from cache-frame payload bytes, validating
/// every structural invariant the warm path relies on.
pub fn decode_seg_artifact(bytes: &[u8]) -> Result<SegArtifact> {
    let mut r = ByteReader::new(bytes);
    let arena = get_arena(&mut r)?;
    let arena_len = arena.len();
    let n = r.len()?;
    let mut cached_values = Vec::with_capacity(n);
    for _ in 0..n {
        cached_values.push(get_value_id(&mut r)?);
    }
    let out_edges = get_edge_map(&mut r, arena_len)?;
    let in_edges = get_edge_map(&mut r, arena_len)?;
    let n = r.len()?;
    let mut control_deps = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.len()?;
        let mut deps = Vec::with_capacity(m);
        for _ in 0..m {
            let v = get_value_id(&mut r)?;
            let pol = r.bool()?;
            deps.push((v, pol));
        }
        control_deps.push(deps);
    }
    let n = r.len()?;
    let mut arg_uses = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = get_value_id(&mut r)?;
        let m = r.len()?;
        let mut uses = Vec::with_capacity(m);
        for _ in 0..m {
            let site = get_inst_id(&mut r)?;
            let callee = r.str()?;
            let index = r.u64()? as usize;
            uses.push(ArgUse {
                site,
                callee,
                index,
            });
        }
        if arg_uses.insert(k, uses).is_some() {
            return Err(DecodeError("duplicate arg-use key"));
        }
    }
    let n = r.len()?;
    let mut receivers = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = get_value_id(&mut r)?;
        let site = get_inst_id(&mut r)?;
        let callee = r.str()?;
        let index = r.u64()? as usize;
        if receivers
            .insert(
                k,
                RecvDef {
                    site,
                    callee,
                    index,
                },
            )
            .is_some()
        {
            return Err(DecodeError("duplicate receiver key"));
        }
    }
    let n = r.len()?;
    let mut ret_index = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = get_value_id(&mut r)?;
        let idx = r.u64()? as usize;
        if ret_index.insert(k, idx).is_some() {
            return Err(DecodeError("duplicate ret-index key"));
        }
    }
    let n = r.len()?;
    let mut call_sites = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = get_inst_id(&mut r)?;
        let callee = r.str()?;
        let m = r.len()?;
        let mut args = Vec::with_capacity(m);
        for _ in 0..m {
            args.push(get_value_id(&mut r)?);
        }
        let m = r.len()?;
        let mut recvs = Vec::with_capacity(m);
        for _ in 0..m {
            recvs.push(get_value_id(&mut r)?);
        }
        if call_sites.insert(k, (callee, args, recvs)).is_some() {
            return Err(DecodeError("duplicate call-site key"));
        }
    }
    let edge_count = r.u64()? as usize;
    if !r.is_at_end() {
        return Err(DecodeError("trailing bytes in seg artifact"));
    }
    Ok(SegArtifact {
        seg: Seg {
            out_edges,
            in_edges,
            control_deps,
            arg_uses,
            receivers,
            ret_index,
            call_sites,
            edge_count,
        },
        arena,
        cached_values,
    })
}

/// Adapter implementing [`SegStore`] on top of the on-disk
/// [`CacheStore`], under the `"seg"` stage prefix.
#[derive(Debug)]
pub struct SegCacheStore<'a> {
    store: &'a mut CacheStore,
}

impl<'a> SegCacheStore<'a> {
    /// Wraps `store` for the SEG stage.
    pub fn new(store: &'a mut CacheStore) -> Self {
        Self { store }
    }
}

impl SegStore for SegCacheStore<'_> {
    fn load(&mut self, key: u128) -> Option<SegArtifact> {
        self.store
            .load_with("seg", key, |bytes| decode_seg_artifact(bytes).ok())
    }

    fn store(&mut self, key: u128, artifact: &SegArtifact) {
        self.store.store("seg", key, &encode_seg_artifact(artifact));
    }
}

/// Encodes a verdict table into cache-frame payload bytes: entries
/// sorted by fingerprint (so encoding is deterministic), each a
/// fingerprint plus its verdict. A SAT verdict carries its canonical
/// boolean witness, sorted by canonical variable index.
pub fn encode_verdicts(table: &VerdictTable) -> Vec<u8> {
    let mut entries: Vec<(u128, &Verdict)> = table.iter().map(|(fp, v)| (*fp, v)).collect();
    entries.sort_unstable_by_key(|&(fp, _)| fp);
    let mut w = ByteWriter::new();
    w.len(entries.len());
    for (fp, v) in entries {
        w.u128(fp);
        match v {
            Verdict::Unsat => w.u8(0),
            Verdict::Sat(vals) => {
                w.u8(1);
                w.len(vals.len());
                for &(idx, value) in vals {
                    w.u32(idx);
                    w.bool(value);
                }
            }
        }
    }
    w.into_bytes()
}

/// Decodes a verdict table from cache-frame payload bytes.
pub fn decode_verdicts(bytes: &[u8]) -> Result<VerdictTable> {
    let mut r = ByteReader::new(bytes);
    let n = r.len()?;
    let mut table = VerdictTable::new();
    for _ in 0..n {
        let fp = r.u128()?;
        let verdict = match r.u8()? {
            0 => Verdict::Unsat,
            1 => {
                let m = r.len()?;
                let mut vals = Vec::with_capacity(m);
                for _ in 0..m {
                    let idx = r.u32()?;
                    let value = r.bool()?;
                    vals.push((idx, value));
                }
                Verdict::Sat(vals)
            }
            _ => return Err(DecodeError("bad verdict tag")),
        };
        if !table.insert(fp, verdict) {
            return Err(DecodeError("duplicate verdict fingerprint"));
        }
    }
    if !r.is_at_end() {
        return Err(DecodeError("trailing bytes in verdict table"));
    }
    Ok(table)
}

/// The cache key persisted verdicts live under: the solver-configuration
/// fingerprint (canonicalisation version + round budget), widened to the
/// store's `u128` key space. A configuration change moves the key, so
/// stale tables simply stop being found.
fn verdict_store_key() -> u128 {
    u128::from(verdict_config_fp(SmtSession::default().max_rounds))
}

/// Loads the persisted verdict table from `dir`, or an empty table when
/// there is none — or when the stored record is truncated, corrupt, or
/// written under a different solver configuration. Any failure degrades
/// to a cold (empty) table, never a wrong one: the frame checksum and
/// decoder reject damaged bytes, and the key covers the configuration.
///
/// Uses a private [`CacheStore`] instance on the same directory so
/// verdict traffic never shows up in the artifact cache's hit/miss
/// counters.
pub fn load_verdicts(dir: &Path) -> VerdictTable {
    let Ok(mut store) = CacheStore::open(dir) else {
        return VerdictTable::new();
    };
    store
        .load_with("verdicts", verdict_store_key(), |bytes| {
            decode_verdicts(bytes).ok()
        })
        .unwrap_or_default()
}

/// Persists `table` to `dir` as one checksummed frame appended to the
/// `verdicts` pack; the last valid frame wins on load. Failures are
/// swallowed — the next run just starts cold.
pub fn persist_verdicts(dir: &Path, table: &VerdictTable) {
    if let Ok(mut store) = CacheStore::open(dir) {
        store_verdicts(&mut store, table);
    }
}

/// [`persist_verdicts`] through an already-open store, whose counters
/// then include the write.
pub(crate) fn store_verdicts(store: &mut CacheStore, table: &VerdictTable) {
    store.store("verdicts", verdict_store_key(), &encode_verdicts(table));
    store.flush();
}

// ---------------------------------------------------------------------
// Interface summaries (the "vfsum" cache stage)
// ---------------------------------------------------------------------

/// Encodes one function's interface summary (see `vfsummary`): per-value
/// class flags plus the return- and parameter-index bitsets. The layout
/// is purely structural — no [`TermId`]s — so records are stable across
/// processes.
pub fn encode_func_summary(s: &crate::vfsummary::FuncSummary) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(s.len());
    for i in 0..s.len() {
        w.u8(s.flags[i]);
        w.u64(s.rets[i]);
        w.u64(s.params[i]);
    }
    w.into_bytes()
}

/// Decodes [`encode_func_summary`] bytes. Callers must additionally
/// validate the value count against the live function before trusting
/// the record.
pub fn decode_func_summary(bytes: &[u8]) -> Result<crate::vfsummary::FuncSummary> {
    let mut r = ByteReader::new(bytes);
    let n = r.len()?;
    let mut s = crate::vfsummary::FuncSummary {
        flags: Vec::with_capacity(n),
        rets: Vec::with_capacity(n),
        params: Vec::with_capacity(n),
    };
    for _ in 0..n {
        s.flags.push(r.u8()?);
        s.rets.push(r.u64()?);
        s.params.push(r.u64()?);
    }
    if !r.is_at_end() {
        return Err(DecodeError("trailing bytes in func summary"));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_pta::analyze_module;

    fn build_artifact(src: &str, func: &str) -> SegArtifact {
        let mut module = pinpoint_ir::compile(src).unwrap();
        let analysis = analyze_module(&mut module);
        let fid = module.func_by_name(func).unwrap();
        let mut arena = pinpoint_smt::TermArena::new();
        let mut symbols = pinpoint_pta::Symbols::new();
        let f = &module.funcs[fid.0 as usize];
        let seg = Seg::build(
            &mut arena,
            &mut symbols,
            fid,
            f,
            &analysis.pta[fid.0 as usize],
        );
        SegArtifact {
            seg: seg.without_memory_edges(),
            arena,
            cached_values: symbols.cached_values(fid),
        }
    }

    #[test]
    fn seg_artifact_roundtrips() {
        let art = build_artifact(
            "fn f(p: int*, c: int) {
                let x: int = 1;
                if (c < 3) { *p = x; } else { *p = 2; }
                let y: int = *p;
                print(y);
                return;
             }",
            "f",
        );
        let bytes = encode_seg_artifact(&art);
        let back = decode_seg_artifact(&bytes).unwrap();
        assert_eq!(back.cached_values, art.cached_values);
        assert_eq!(back.seg.edge_count, art.seg.edge_count);
        assert_eq!(back.seg.control_deps, art.seg.control_deps);
        assert_eq!(back.seg.out_edges, art.seg.out_edges);
        assert_eq!(back.seg.in_edges, art.seg.in_edges);
        assert_eq!(back.seg.ret_index, art.seg.ret_index);
        assert_eq!(back.arena.len(), art.arena.len());
        // Deterministic: re-encoding the decoded artifact is byte-identical.
        assert_eq!(encode_seg_artifact(&back), bytes);
    }

    #[test]
    fn truncated_artifact_is_rejected() {
        let art = build_artifact("fn g(p: int*) { free(p); return; }", "g");
        let bytes = encode_seg_artifact(&art);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_seg_artifact(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_seg_artifact(&extended).is_err());
    }

    fn sample_verdicts() -> VerdictTable {
        let mut t = VerdictTable::new();
        t.insert(7, Verdict::Unsat);
        t.insert(3, Verdict::Sat(vec![(0, true), (2, false)]));
        t.insert(u128::MAX, Verdict::Sat(Vec::new()));
        t
    }

    #[test]
    fn verdict_table_roundtrips_deterministically() {
        let t = sample_verdicts();
        let bytes = encode_verdicts(&t);
        let back = decode_verdicts(&bytes).unwrap();
        assert_eq!(back.len(), t.len());
        for (fp, v) in t.iter() {
            assert_eq!(back.get(*fp), Some(v));
        }
        // Sorted-by-fingerprint encoding: re-encoding the decoded table
        // (whatever its hash-map iteration order) is byte-identical.
        assert_eq!(encode_verdicts(&back), bytes);
    }

    #[test]
    fn damaged_verdict_payloads_are_rejected() {
        let bytes = encode_verdicts(&sample_verdicts());
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_verdicts(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_verdicts(&extended).is_err(), "trailing bytes");
        let mut bad_tag = bytes.clone();
        bad_tag[8 + 16] = 9; // first entry's verdict tag
        assert!(decode_verdicts(&bad_tag).is_err(), "unknown verdict tag");
    }

    #[test]
    fn verdict_store_roundtrips_and_shrugs_off_corruption() {
        let dir =
            std::env::temp_dir().join(format!("pinpoint-verdict-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_verdicts(&dir).is_empty(), "no store yet");
        let t = sample_verdicts();
        persist_verdicts(&dir, &t);
        let back = load_verdicts(&dir);
        assert_eq!(back.len(), t.len());
        assert_eq!(back.get(7), Some(&Verdict::Unsat));
        // Flip one payload bit: the frame checksum rejects the record and
        // the table degrades to cold.
        let obj = dir.join("objects/verdicts.pack");
        let mut raw = std::fs::read(&obj).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 1;
        std::fs::write(&obj, &raw).unwrap();
        assert!(load_verdicts(&dir).is_empty(), "corrupt record reads cold");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
