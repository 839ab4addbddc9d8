//! `pinpoint-cache`: a dependency-free persistent analysis cache for the
//! Pinpoint reproduction (PLDI 2018).
//!
//! The paper's industrial requirement — checking millions of lines in
//! hours (§5) — demands that repeated runs not pay the whole-program
//! price. The bottom-up, per-function architecture makes that possible:
//! each function's analysis depends only on its own lowered body, the
//! summary shapes of its (transitive) callees, and the configuration.
//! This crate persists those per-function artifacts on disk, keyed by a
//! content hash of exactly those inputs, so a warm re-run re-analyzes
//! only the edited caller chain and splices everything else.
//!
//! * [`keys`] — derives the cache key per function: a 128-bit FNV hash
//!   of `(format version ⊕ config, transitive SCC fingerprint, own
//!   fingerprint, function id)`;
//! * [`codec`] — a hand-rolled binary codec (no serde) for the artifact
//!   types: transformed bodies, connector shapes, guarded points-to
//!   results, and private term arenas;
//! * [`store`] — the on-disk store: one append-only pack of checksummed,
//!   length-prefixed frames per stage (`objects/<stage>.pack`), indexed
//!   in one pass on a stage's first probe (the last valid frame of a key
//!   wins) and appended in one locked, key-ordered write per stage flush,
//!   with hit/miss/invalidation counters. A torn, truncated, stale,
//!   foreign or concurrently written pack degrades to a cold run, never
//!   a wrong one; a torn tail is cut by the next writer.
//!
//! Callers [`CacheStore::flush`] when the stage that produced the stores
//! ends, so at most one stage's frames are buffered in memory. The
//! [`PtaArtifactStore`] adapter plugs a [`CacheStore`] into
//! [`pinpoint_pta::analyze_module_cached`]; its caller flushes after the
//! points-to stage.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod keys;
pub mod store;

pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use keys::{config_fp, module_keys};
pub use store::{
    CacheInfo, CacheStats, CacheStore, CorruptFrame, VerifyOutcome, FORMAT_VERSION, HEADER_LEN,
};

use pinpoint_pta::{ArtifactStore, FuncArtifact};

/// Adapter implementing [`pinpoint_pta::ArtifactStore`] over a
/// [`CacheStore`], using the `"pta"` stage namespace.
#[derive(Debug)]
pub struct PtaArtifactStore<'a> {
    store: &'a mut CacheStore,
}

impl<'a> PtaArtifactStore<'a> {
    /// Wraps `store`.
    pub fn new(store: &'a mut CacheStore) -> Self {
        PtaArtifactStore { store }
    }
}

impl ArtifactStore for PtaArtifactStore<'_> {
    fn load(&mut self, key: u128) -> Option<FuncArtifact> {
        self.store
            .load_with("pta", key, |bytes| codec::decode_artifact(bytes).ok())
    }

    fn store(&mut self, key: u128, artifact: &FuncArtifact) {
        let payload = codec::encode_artifact(artifact);
        self.store.store("pta", key, &payload);
    }
}
