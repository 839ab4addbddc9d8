//! The on-disk object store: one append-only pack per stage.
//!
//! Layout: `<dir>/objects/<stage>.pack`, a concatenation of frames. A
//! frame is a 40-byte header — magic `PPCF`, little-endian format
//! version, an echo of the 128-bit key it was stored under, the payload
//! length, and an FNV-1a checksum of the version, key, length and
//! payload — followed by the payload. The length makes frames
//! self-delimiting; the checksum makes any torn, truncated, stale or
//! foreign frame detectable, so it is counted as an invalidation (and a
//! miss), never trusted.
//!
//! * **Loads.** The first probe of a stage opens its pack, validates
//!   every frame in one sequential pass through a bounded buffer, and
//!   indexes the valid ones in memory as key → offset. The pack stays
//!   open and each hit is read back with one positioned read, so no pack
//!   bytes stay in memory; later probes of the stage never reopen it.
//!   When a key occurs more than once, the last valid frame wins (any
//!   frame under a key is a correct artifact for it: keys are content
//!   hashes). A handle keeps one stage indexed at a time; probing another
//!   stage drops it. Damage — a frame failing validation, or bytes that
//!   are no frame at all — is skipped by resynchronising on the next
//!   valid frame. A miss in a pack that held damage counts as
//!   invalidated too, since the damage may have been its frame; a miss
//!   in a clean pack is a plain miss.
//! * **Stores.** Stores are buffered for one stage at a time and written
//!   by [`CacheStore::flush`] in one append, frames in key order, so the
//!   pack bytes do not depend on the order workers finished in. Callers
//!   flush when the stage that produced the frames ends; touching another
//!   stage, and dropping the handle, flush as a backstop.
//! * **Writers.** Each append runs under an exclusive lock on the pack
//!   ([`File::lock`]), so writers sharing a directory — threads or
//!   processes — never interleave frames. Before appending, the writer
//!   checks the bytes appended since it last saw the pack end cleanly;
//!   a torn tail left by a crashed writer is truncated, so it cannot hide
//!   later frames. Readers take no lock: a tail still being written reads
//!   as damage and degrades those keys to misses.
//!
//! Store failures are swallowed — the worst outcome of any filesystem
//! trouble is a cold run. Files other than packs (interrupted temp
//! files, version-1 `*.bin` objects) are never read.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, IoSlice, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version of the on-disk artifact format. Bump on any codec, framing or
/// key-derivation change; it participates both in every frame header and
/// in every cache key (via [`crate::keys::config_fp`]).
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"PPCF";
/// Size in bytes of a cache frame's header: magic, format version,
/// key echo, payload length, checksum.
pub const HEADER_LEN: usize = 4 + 4 + 16 + 8 + 8;
const PACK_SUFFIX: &str = ".pack";
const TEMP_PREFIX: &str = ".tmp-";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checksum of a frame: FNV-1a over the version, key and length header
/// fields (`fields`), then the payload.
fn frame_checksum(fields: &[u8], payload: &[u8]) -> u64 {
    fnv64(fnv64(FNV_OFFSET, fields), payload)
}

fn encode_frame(out: &mut Vec<u8>, key: u128, payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = frame_checksum(&out[start + 4..start + 32], payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(payload);
}

/// The fully validated frame starting at `at`: its key and payload range.
fn frame_at(bytes: &[u8], at: usize) -> Option<(u128, Range<usize>)> {
    let header = bytes.get(at..at.checked_add(HEADER_LEN)?)?;
    if header[0..4] != MAGIC {
        return None;
    }
    if u32::from_le_bytes(header[4..8].try_into().unwrap()) != FORMAT_VERSION {
        return None;
    }
    let key = u128::from_le_bytes(header[8..24].try_into().unwrap());
    let len = usize::try_from(u64::from_le_bytes(header[24..32].try_into().unwrap())).ok()?;
    let start = at + HEADER_LEN;
    let payload = start..start.checked_add(len)?;
    let sum = u64::from_le_bytes(header[32..40].try_into().unwrap());
    if sum != frame_checksum(&header[4..32], bytes.get(payload.clone())?) {
        return None;
    }
    Some((key, payload))
}

/// A region of a pack that is not a valid frame.
struct Damage {
    at: usize,
    end: usize,
    /// The key echo of the region's header, when it has a readable one.
    key: Option<u128>,
}

/// What a pack holds: its valid frames (key and whole-frame range) in
/// file order, its damaged regions, and where its last valid frame ends.
#[derive(Default)]
struct Scan {
    frames: Vec<(u128, Range<usize>)>,
    damage: Vec<Damage>,
    clean_end: usize,
}

/// Walks a pack's frames. A region that fails validation ends where its
/// header's length says when that lands on the end of the pack or on a
/// magic; otherwise it extends to the next valid frame (or the end).
fn scan(bytes: &[u8]) -> Scan {
    let mut out = Scan::default();
    let mut at = 0;
    while at < bytes.len() {
        if let Some((key, payload)) = frame_at(bytes, at) {
            out.frames.push((key, at..payload.end));
            at = payload.end;
            out.clean_end = at;
            continue;
        }
        let header = bytes
            .get(at..at.saturating_add(HEADER_LEN))
            .filter(|h| h[0..4] == MAGIC);
        let key = header.map(|h| u128::from_le_bytes(h[8..24].try_into().unwrap()));
        let claimed = header
            .and_then(|h| usize::try_from(u64::from_le_bytes(h[24..32].try_into().unwrap())).ok())
            .and_then(|len| (at + HEADER_LEN).checked_add(len))
            .filter(|&end| {
                bytes
                    .get(end..)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with(&MAGIC))
            });
        let end = claimed.unwrap_or_else(|| next_frame(bytes, at + 1));
        out.damage.push(Damage { at, end, key });
        at = end;
    }
    out
}

/// Offset of the first valid frame at or after `from`, or the pack's end.
fn next_frame(bytes: &[u8], from: usize) -> usize {
    (from..bytes.len().saturating_sub(HEADER_LEN - 1))
        .find(|&i| bytes[i..].starts_with(&MAGIC) && frame_at(bytes, i).is_some())
        .unwrap_or(bytes.len())
}

/// Counters describing a run's cache traffic, exported as the
/// `cache.*` metrics family.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifacts loaded and accepted.
    pub hits: u64,
    /// Keys with no usable stored artifact.
    pub misses: u64,
    /// Probes that may have lost their artifact to damage: the stored
    /// frame was rejected (bad checksum or undecodable payload), or the
    /// key was absent from a pack holding damaged frames. Each also
    /// counts as a miss.
    pub invalidated: u64,
    /// Wall-clock nanoseconds spent reading packs and probing.
    pub load_ns: u64,
    /// Wall-clock nanoseconds spent buffering, encoding and appending.
    pub store_ns: u64,
}

/// Summary returned by [`CacheStore::info`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// Valid frames across all packs (superseded ones included).
    pub entries: u64,
    /// Total bytes across packs.
    pub bytes: u64,
    /// Leftover temp files from interrupted writes.
    pub temp_files: u64,
    /// Other files loads never read, such as version-1 `*.bin` objects.
    pub legacy_files: u64,
}

/// A damaged region of a pack, as reported by [`CacheStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptFrame {
    /// Stage whose pack holds the region.
    pub stage: String,
    /// Byte offset of the region in the pack.
    pub offset: u64,
    /// Length of the region in bytes.
    pub len: u64,
    /// The key echo of the region's header, when it starts with a magic.
    pub key: Option<u128>,
}

impl fmt::Display for CorruptFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{PACK_SUFFIX} @ {} ({} bytes)",
            self.stage, self.offset, self.len
        )?;
        match self.key {
            Some(key) => write!(f, " key {key:032x}"),
            None => write!(f, " no readable header"),
        }
    }
}

/// Outcome of [`CacheStore::verify`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Frames whose header and checksum verified.
    pub ok: u64,
    /// Damaged regions, by pack name then offset.
    pub corrupt: Vec<CorruptFrame>,
}

/// A validated frame of a pack: where it is, and the checksum its header
/// carries.
#[derive(Clone, Copy)]
struct Entry {
    at: u64,
    len: usize,
    sum: u64,
}

impl Entry {
    fn of(frame: &[u8], at: u64) -> Entry {
        Entry {
            at,
            len: frame.len(),
            sum: u64::from_le_bytes(frame[32..40].try_into().unwrap()),
        }
    }
}

/// The one stage a handle has indexed: the open pack and its valid
/// frames. The pack bytes are not kept; hits are read back by offset.
struct Stage {
    name: String,
    file: Option<File>,
    index: HashMap<u128, Entry>,
    damaged: bool,
}

/// Stores buffered for the next append: each key's latest encoded
/// frame, in key order.
struct Pending {
    stage: String,
    frames: BTreeMap<u128, Vec<u8>>,
}

/// A directory-backed artifact store with hit/miss accounting.
pub struct CacheStore {
    objects: PathBuf,
    stats: CacheStats,
    stage: Option<Stage>,
    pending: Option<Pending>,
    /// Per stage, the pack length at which this handle last saw its final
    /// valid frame end: an append only re-checks the bytes after it.
    clean_len: HashMap<String, u64>,
}

impl fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheStore")
            .field("objects", &self.objects)
            .field("stats", &self.stats)
            .field("indexed", &self.stage.as_ref().map(|s| &s.name))
            .field(
                "pending",
                &self.pending.as_ref().map(|p| (&p.stage, p.frames.len())),
            )
            .finish()
    }
}

impl CacheStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the objects directory cannot
    /// be created.
    pub fn open(dir: &Path) -> io::Result<CacheStore> {
        let objects = dir.join("objects");
        fs::create_dir_all(&objects)?;
        Ok(CacheStore {
            objects,
            stats: CacheStats::default(),
            stage: None,
            pending: None,
            clean_len: HashMap::new(),
        })
    }

    /// The counters accumulated by this handle.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn pack_path(&self, stage: &str) -> PathBuf {
        self.objects.join(format!("{stage}{PACK_SUFFIX}"))
    }

    /// Loads the object stored under `(stage, key)` and decodes it with
    /// `decode`. Classifies the outcome into the stats counters: absent
    /// key → miss (also invalidated when the pack held damage); present
    /// but failing its frame or decode check → invalidated *and* miss;
    /// success → hit. The handle sees its own stores, pending or
    /// flushed, plus the pack as it was at the stage's first probe.
    pub fn load_with<T>(
        &mut self,
        stage: &str,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        if self.pending.as_ref().is_some_and(|p| p.stage != stage) {
            self.flush();
        }
        let start = Instant::now();
        let out = self.load_inner(stage, key, decode);
        self.stats.load_ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn load_inner<T>(
        &mut self,
        stage: &str,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        if let Some(frame) = self.pending.as_ref().and_then(|p| p.frames.get(&key)) {
            return self.classify(Some(decode(&frame[HEADER_LEN..])));
        }
        if self.stage.as_ref().is_none_or(|s| s.name != stage) {
            self.stage = Some(self.read_stage(stage));
        }
        let s = self.stage.as_ref().expect("stage just indexed");
        let found = match s.index.get(&key) {
            None if s.damaged => Some(None),
            None => None,
            Some(&entry) => Some(
                s.file
                    .as_ref()
                    .and_then(|f| read_frame(f, entry, key))
                    .and_then(|frame| decode(&frame[HEADER_LEN..])),
            ),
        };
        self.classify(found)
    }

    /// Counts a probe: `None` is a clean miss, `Some(None)` a rejected
    /// (invalidated) one.
    fn classify<T>(&mut self, found: Option<Option<T>>) -> Option<T> {
        match found {
            Some(Some(v)) => {
                self.stats.hits += 1;
                Some(v)
            }
            Some(None) => {
                self.stats.invalidated += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Validates and indexes `stage`'s pack, keeping it open for reading
    /// hits back. An unreadable pack indexes as empty and damaged.
    fn read_stage(&mut self, stage: &str) -> Stage {
        let (file, indexed) = match File::open(self.pack_path(stage)) {
            Ok(f) => {
                let indexed = index_pack(&f).ok();
                (Some(f), indexed)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (None, Some(Indexed::default())),
            Err(_) => (None, None),
        };
        let Some(indexed) = indexed else {
            return Stage {
                name: stage.to_owned(),
                file,
                index: HashMap::new(),
                damaged: true,
            };
        };
        self.clean_len.insert(stage.to_owned(), indexed.clean_end);
        Stage {
            name: stage.to_owned(),
            file,
            index: indexed.index,
            damaged: indexed.damaged,
        }
    }

    /// Buffers `payload` under `(stage, key)` for the next
    /// [`flush`](Self::flush); a later store of the same key replaces it.
    /// Buffered stores of another stage are flushed first.
    pub fn store(&mut self, stage: &str, key: u128, payload: &[u8]) {
        if self.pending.as_ref().is_some_and(|p| p.stage != stage) {
            self.flush();
        }
        let start = Instant::now();
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        encode_frame(&mut frame, key, payload);
        self.pending
            .get_or_insert_with(|| Pending {
                stage: stage.to_owned(),
                frames: BTreeMap::new(),
            })
            .frames
            .insert(key, frame);
        self.stats.store_ns += start.elapsed().as_nanos() as u64;
    }

    /// Appends the buffered stores to their stage's pack in one vectored
    /// write, frames in key order (a superseded store of the same key is
    /// dropped). Failures are swallowed: the next run just misses.
    pub fn flush(&mut self) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        let start = Instant::now();
        let mut slices: Vec<IoSlice> = pending.frames.values().map(|f| IoSlice::new(f)).collect();
        if let Ok(base) = self.append(&pending.stage, &mut slices) {
            let path = self.pack_path(&pending.stage);
            if let Some(s) = self.stage.as_mut().filter(|s| s.name == pending.stage) {
                if s.file.is_none() {
                    s.file = File::open(path).ok();
                }
                let mut at = base;
                for (&key, frame) in &pending.frames {
                    s.index.insert(key, Entry::of(frame, at));
                    at += frame.len() as u64;
                }
            }
        }
        self.stats.store_ns += start.elapsed().as_nanos() as u64;
    }

    /// Appends `frames` to `stage`'s pack under its lock, first cutting a
    /// torn tail. Returns the offset the frames start at.
    fn append(&mut self, stage: &str, frames: &mut [IoSlice]) -> io::Result<u64> {
        let len: usize = frames.iter().map(|f| f.len()).sum();
        let result = self.append_locked(stage, frames);
        match result {
            Ok(at) => self.clean_len.insert(stage.to_owned(), at + len as u64),
            Err(_) => self.clean_len.remove(stage),
        };
        result
    }

    fn append_locked(&self, stage: &str, mut frames: &mut [IoSlice]) -> io::Result<u64> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(self.pack_path(stage))?;
        match file.lock() {
            Err(e) if e.kind() != io::ErrorKind::Unsupported => return Err(e),
            _ => {}
        }
        // The lock is released when `file` closes.
        let len = file.metadata()?.len();
        let known = self
            .clean_len
            .get(stage)
            .copied()
            .filter(|&k| k <= len)
            .unwrap_or(0);
        let mut end = len;
        if known < len {
            let mut tail = Vec::new();
            file.seek(SeekFrom::Start(known))?;
            (&mut file).take(len - known).read_to_end(&mut tail)?;
            end = known + scan(&tail).clean_end as u64;
            if end < len {
                file.set_len(end)?;
            }
        }
        // `Write::write_all_vectored` is not stable yet.
        while !frames.is_empty() {
            match file.write_vectored(frames) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut frames, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(end)
    }

    /// Counts the store's frames and bytes without touching counters.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory is unreadable.
    /// A store that was never created reports zero entries.
    pub fn info(dir: &Path) -> io::Result<CacheInfo> {
        let mut out = CacheInfo::default();
        for entry in Self::read_objects(dir)? {
            let (path, name) = entry?;
            if name.starts_with(TEMP_PREFIX) {
                out.temp_files += 1;
            } else if name.ends_with(PACK_SUFFIX) {
                let bytes = fs::read(&path)?;
                out.entries += scan(&bytes).frames.len() as u64;
                out.bytes += bytes.len() as u64;
            } else {
                out.legacy_files += 1;
            }
        }
        Ok(out)
    }

    /// Removes every pack, temp file and legacy object, returning how
    /// many files were deleted.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn clear(dir: &Path) -> io::Result<u64> {
        let mut removed = 0;
        for entry in Self::read_objects(dir)? {
            let (path, _) = entry?;
            fs::remove_file(&path)?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Checks every frame of every pack and names each damaged region
    /// (temp and legacy files are skipped — loads never read them).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory is unreadable.
    pub fn verify(dir: &Path) -> io::Result<VerifyOutcome> {
        let mut packs = Vec::new();
        for entry in Self::read_objects(dir)? {
            let (path, name) = entry?;
            if let Some(stage) = name.strip_suffix(PACK_SUFFIX) {
                if !name.starts_with(TEMP_PREFIX) {
                    packs.push((stage.to_owned(), path));
                }
            }
        }
        packs.sort();
        let mut out = VerifyOutcome::default();
        for (stage, path) in packs {
            let scan = scan(&fs::read(&path)?);
            out.ok += scan.frames.len() as u64;
            out.corrupt
                .extend(scan.damage.into_iter().map(|d| CorruptFrame {
                    stage: stage.clone(),
                    offset: d.at as u64,
                    len: (d.end - d.at) as u64,
                    key: d.key,
                }));
        }
        Ok(out)
    }

    /// Iterates `<dir>/objects` as `(path, file name)`, treating a
    /// missing directory as empty.
    fn read_objects(dir: &Path) -> io::Result<Vec<io::Result<(PathBuf, String)>>> {
        match fs::read_dir(dir.join("objects")) {
            Ok(rd) => Ok(rd
                .map(|e| {
                    let e = e?;
                    let name = e.file_name().to_string_lossy().into_owned();
                    Ok((e.path(), name))
                })
                .collect()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }
}

impl Drop for CacheStore {
    /// Backstop for callers that did not flush at the end of a stage.
    fn drop(&mut self) {
        self.flush();
    }
}

/// The valid frames of a pack, where the last one ends, and whether
/// anything else was found.
#[derive(Default)]
struct Indexed {
    index: HashMap<u128, Entry>,
    clean_end: u64,
    damaged: bool,
}

/// Size of the buffer a pack is streamed through. Reading a whole pack
/// into one buffer would raise the peak memory by the pack's size: the
/// allocator keeps a freed block that large for reuse.
const READ_CHUNK: usize = 1 << 20;

/// Indexes a pack in one sequential pass. At the first region that is
/// not a valid frame, re-indexes from the whole pack, resynchronising
/// past every damaged region.
fn index_pack(file: &File) -> io::Result<Indexed> {
    if let Some(indexed) = stream_index(file)? {
        return Ok(indexed);
    }
    let mut bytes = Vec::new();
    let mut reader = file;
    reader.seek(SeekFrom::Start(0))?;
    reader.read_to_end(&mut bytes)?;
    let scan = scan(&bytes);
    let index = scan
        .frames
        .iter()
        .map(|(key, f)| (*key, Entry::of(&bytes[f.clone()], f.start as u64)))
        .collect();
    Ok(Indexed {
        index,
        clean_end: scan.clean_end as u64,
        damaged: !scan.damage.is_empty(),
    })
}

/// Indexes a pack frame by frame through a [`READ_CHUNK`] buffer, or
/// returns `None` at the first region that is not a valid frame.
fn stream_index(file: &File) -> io::Result<Option<Indexed>> {
    let len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(READ_CHUNK, file.take(len));
    let mut out = Indexed::default();
    let mut frame = Vec::new();
    while !reader.fill_buf()?.is_empty() {
        frame.resize(HEADER_LEN, 0);
        if reader.read_exact(&mut frame).is_err() {
            return Ok(None);
        }
        let payload = u64::from_le_bytes(frame[24..32].try_into().unwrap());
        let end = (out.clean_end + HEADER_LEN as u64).checked_add(payload);
        if end.is_none_or(|end| end > len) {
            return Ok(None);
        }
        frame.resize(HEADER_LEN + payload as usize, 0);
        if reader.read_exact(&mut frame[HEADER_LEN..]).is_err() {
            return Ok(None);
        }
        let Some((key, _)) = frame_at(&frame, 0) else {
            return Ok(None);
        };
        out.index.insert(key, Entry::of(&frame, out.clean_end));
        out.clean_end += frame.len() as u64;
    }
    Ok(Some(out))
}

/// Reads back the indexed frame `entry` of `key`. Its checksum was
/// verified when the pack was indexed (or computed when this handle
/// appended it), and writers only append or cut an invalid tail, so the
/// bytes at a validated offset do not change while the pack is open;
/// the header is still compared in full, so a pack rewritten in place by
/// anything else reads as a miss.
fn read_frame(file: &File, entry: Entry, key: u128) -> Option<Vec<u8>> {
    let mut frame = vec![0; entry.len];
    read_at(file, entry.at, &mut frame).ok()?;
    let intact = frame[0..4] == MAGIC
        && frame[4..8] == FORMAT_VERSION.to_le_bytes()
        && frame[8..24] == key.to_le_bytes()
        && frame[24..32] == ((entry.len - HEADER_LEN) as u64).to_le_bytes()
        && frame[32..40] == entry.sum.to_le_bytes();
    intact.then_some(frame)
}

fn read_at(file: &File, at: u64, buf: &mut [u8]) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, at)
    }
    #[cfg(not(unix))]
    {
        let mut file = file;
        file.seek(SeekFrom::Start(at))?;
        file.read_exact(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pinpoint-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn pack(dir: &Path, stage: &str) -> PathBuf {
        dir.join("objects").join(format!("{stage}.pack"))
    }

    fn load(store: &mut CacheStore, stage: &str, key: u128) -> Option<Vec<u8>> {
        store.load_with(stage, key, |b| Some(b.to_vec()))
    }

    #[test]
    fn roundtrip_hit_after_store() {
        let dir = tmp_dir("roundtrip");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("pta", 42, b"payload");
        assert_eq!(
            load(&mut store, "pta", 42).as_deref(),
            Some(&b"payload"[..])
        );
        store.flush();
        assert_eq!(
            load(&mut store, "pta", 42).as_deref(),
            Some(&b"payload"[..])
        );
        let mut fresh = CacheStore::open(&dir).unwrap();
        assert_eq!(
            load(&mut fresh, "pta", 42).as_deref(),
            Some(&b"payload"[..])
        );
        assert_eq!(store.stats().hits, 2);
        assert_eq!(store.stats().misses, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_key_is_a_plain_miss() {
        let dir = tmp_dir("miss");
        let mut store = CacheStore::open(&dir).unwrap();
        assert!(load(&mut store, "pta", 7).is_none());
        store.store("pta", 1, b"one");
        store.flush();
        let mut fresh = CacheStore::open(&dir).unwrap();
        assert!(load(&mut fresh, "pta", 7).is_none());
        for s in [store.stats(), fresh.stats()] {
            assert_eq!((s.misses, s.invalidated), (1, 0), "{s:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frames_invalidate() {
        let dir = tmp_dir("corrupt");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("pta", 1, b"data");
        store.flush();
        // Flip a payload byte: checksum fails.
        let mut bytes = fs::read(pack(&dir, "pta")).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(pack(&dir, "pta"), &bytes).unwrap();
        let mut fresh = CacheStore::open(&dir).unwrap();
        assert!(load(&mut fresh, "pta", 1).is_none());
        assert_eq!(fresh.stats().invalidated, 1);
        assert_eq!(fresh.stats().misses, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_valid_frame_wins() {
        let dir = tmp_dir("lastwins");
        let mut store = CacheStore::open(&dir).unwrap();
        for payload in [&b"old"[..], b"new", b"newest"] {
            store.store("verdicts", 9, payload);
            store.flush();
        }
        drop(store);
        let mut fresh = CacheStore::open(&dir).unwrap();
        assert_eq!(
            load(&mut fresh, "verdicts", 9).as_deref(),
            Some(&b"newest"[..])
        );
        // Damage the newest frame: the one before it wins.
        let mut bytes = fs::read(pack(&dir, "verdicts")).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        fs::write(pack(&dir, "verdicts"), &bytes).unwrap();
        let mut fresh = CacheStore::open(&dir).unwrap();
        assert_eq!(
            load(&mut fresh, "verdicts", 9).as_deref(),
            Some(&b"new"[..])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_writes_frames_in_key_order() {
        let (a, b) = (tmp_dir("order-a"), tmp_dir("order-b"));
        for (dir, keys) in [(&a, [3u128, 1, 2]), (&b, [2, 3, 1])] {
            let mut store = CacheStore::open(dir).unwrap();
            for k in keys {
                store.store("seg", k, &k.to_le_bytes());
            }
        }
        let bytes = fs::read(pack(&a, "seg")).unwrap();
        assert_eq!(bytes, fs::read(pack(&b, "seg")).unwrap());
        let keys: Vec<u128> = scan(&bytes).frames.iter().map(|f| f.0).collect();
        assert_eq!(keys, [1, 2, 3]);
        let _ = (fs::remove_dir_all(&a), fs::remove_dir_all(&b));
    }

    #[test]
    fn a_stage_is_opened_once_per_handle() {
        let dir = tmp_dir("once");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("vfsum", 1, b"one");
        store.store("vfsum", 2, b"two");
        drop(store);
        let mut warm = CacheStore::open(&dir).unwrap();
        assert!(load(&mut warm, "vfsum", 1).is_some());
        // The pack stays open: later probes never reopen it.
        fs::remove_file(pack(&dir, "vfsum")).unwrap();
        assert!(load(&mut warm, "vfsum", 2).is_some());
        assert_eq!(warm.stats().hits, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_one_stage_is_buffered() {
        let dir = tmp_dir("onestage");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("pta", 1, b"p");
        assert!(!pack(&dir, "pta").exists(), "stores are buffered");
        store.store("seg", 1, b"s");
        assert!(
            pack(&dir, "pta").exists(),
            "another stage flushes the first"
        );
        assert!(load(&mut store, "pta", 1).is_some());
        assert!(
            pack(&dir, "seg").exists(),
            "probing another stage flushes too"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_cut_before_the_next_append() {
        let dir = tmp_dir("torn");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("pta", 1, b"first");
        store.store("pta", 2, b"second");
        drop(store);
        let whole = fs::read(pack(&dir, "pta")).unwrap();
        fs::write(pack(&dir, "pta"), &whole[..whole.len() - 3]).unwrap();
        let mut next = CacheStore::open(&dir).unwrap();
        assert!(load(&mut next, "pta", 1).is_some());
        assert!(load(&mut next, "pta", 2).is_none());
        assert_eq!(next.stats().invalidated, 1);
        next.store("pta", 2, b"second");
        next.flush();
        let v = CacheStore::verify(&dir).unwrap();
        assert!(v.corrupt.is_empty(), "{v:?}");
        assert_eq!(v.ok, 2);
        let mut after = CacheStore::open(&dir).unwrap();
        assert!(load(&mut after, "pta", 2).is_some());
        assert_eq!(after.stats().invalidated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_after_mid_pack_damage_stay_reachable() {
        let dir = tmp_dir("resync");
        let mut store = CacheStore::open(&dir).unwrap();
        for k in 1..=3u128 {
            store.store("seg", k, &[k as u8; 50]);
        }
        drop(store);
        let mut bytes = fs::read(pack(&dir, "seg")).unwrap();
        bytes[24] ^= 0x40; // first frame's length: its end is lost
        fs::write(pack(&dir, "seg"), &bytes).unwrap();
        let mut fresh = CacheStore::open(&dir).unwrap();
        assert!(load(&mut fresh, "seg", 1).is_none());
        assert!(load(&mut fresh, "seg", 2).is_some());
        assert!(load(&mut fresh, "seg", 3).is_some());
        let v = CacheStore::verify(&dir).unwrap();
        assert_eq!(v.ok, 2);
        assert_eq!(v.corrupt.len(), 1);
        assert_eq!((v.corrupt[0].offset, v.corrupt[0].key), (0, Some(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintenance_info_clear_verify() {
        let dir = tmp_dir("maint");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("pta", 1, b"one");
        store.store("seg", 2, b"two");
        store.flush();
        fs::write(dir.join("objects").join(".tmp-dead-1"), b"partial").unwrap();
        fs::write(dir.join("objects").join("pta-01.bin"), b"v1 object").unwrap();
        let info = CacheStore::info(&dir).unwrap();
        assert_eq!(info.entries, 2);
        assert_eq!(info.temp_files, 1);
        assert_eq!(info.legacy_files, 1);
        assert_eq!(info.bytes, 2 * HEADER_LEN as u64 + 6);
        let v = CacheStore::verify(&dir).unwrap();
        assert_eq!(v.ok, 2);
        assert!(v.corrupt.is_empty());
        let removed = CacheStore::clear(&dir).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(CacheStore::info(&dir).unwrap(), CacheInfo::default());
        let _ = fs::remove_dir_all(&dir);
    }
}
