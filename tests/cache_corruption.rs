//! Crash-safety tests for the persistent analysis cache: every corrupted
//! or torn on-disk state must degrade to a correct cold run — identical
//! reports, bumped `invalidated`/`misses` counters, never a panic or a
//! wrong result.
//!
//! The cache keeps one append-only pack per stage under `objects/`; a
//! pack is a run of frames (a `HEADER_LEN`-byte header whose bytes
//! 24..32 hold the payload length, then the payload). Tests that damage
//! "everything" damage every frame of every pack: an undamaged earlier
//! frame would otherwise still hit.

use pinpoint::cache::{CacheStore, CorruptFrame, HEADER_LEN};
use pinpoint::{Analysis, AnalysisBuilder};
use std::ops::Range;
use std::path::{Path, PathBuf};

const SRC: &str = "fn release(x: int*) { free(x); return; }
fn main(c: bool) {
    let p: int* = malloc();
    if (c) { release(p); }
    let x: int = *p;
    print(x);
    return;
}";

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pinpoint-corrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(cache: Option<&Path>) -> Analysis {
    let mut b = AnalysisBuilder::new().threads(1);
    if let Some(dir) = cache {
        b = b.cache_dir(dir);
    }
    b.build_source(SRC).unwrap()
}

fn render(analysis: &Analysis) -> String {
    let mut out: Vec<String> = analysis
        .check_all()
        .iter()
        .map(ToString::to_string)
        .collect();
    out.push(format!("terms={}", analysis.arena.len()));
    out.join("\n")
}

/// Every stage pack under `dir`, sorted by name.
fn packs(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pack"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "cache must have been primed");
    files
}

/// The byte range of every frame of an undamaged pack.
fn frames(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 24..at + 32].try_into().unwrap());
        let end = at + HEADER_LEN + len as usize;
        out.push(at..end);
        at = end;
    }
    out
}

/// The key echo of the frame at `frame`.
fn key_of(bytes: &[u8], frame: &Range<usize>) -> u128 {
    u128::from_le_bytes(bytes[frame.start + 8..frame.start + 24].try_into().unwrap())
}

/// Applies `edit` to every frame of every pack.
fn each_frame(edit: impl Fn(&mut [u8])) -> impl Fn(&Path) {
    move |pack| {
        let mut bytes = std::fs::read(pack).unwrap();
        for f in frames(&bytes) {
            edit(&mut bytes[f]);
        }
        std::fs::write(pack, &bytes).unwrap();
    }
}

/// Primes a cache, corrupts each pack via `mutate`, and asserts the warm
/// run still matches the cold baseline while counting invalidations.
fn corruption_degrades_to_cold(tag: &str, mutate: impl Fn(&Path)) -> pinpoint::cache::CacheStats {
    let dir = temp_cache(tag);
    build(Some(&dir));
    for f in packs(&dir) {
        mutate(&f);
    }
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(
        render(&warm),
        render(&cold),
        "{tag}: reports must match cold run"
    );
    let stats = warm.stats.cache;
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

#[test]
fn truncated_files_fall_back_cold() {
    let stats = corruption_degrades_to_cold("truncate", |f| {
        let bytes = std::fs::read(f).unwrap();
        let first = frames(&bytes)[0].clone();
        // Cut inside the first frame's payload (the length no longer
        // fits) — and for tiny frames, inside the header.
        let keep = (first.len() * 2 / 3).min(first.len() - 1);
        std::fs::write(f, &bytes[..keep]).unwrap();
    });
    assert!(stats.invalidated > 0, "{stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn header_shorter_than_frame_falls_back_cold() {
    let stats = corruption_degrades_to_cold("tiny", |f| {
        std::fs::write(f, [0xAAu8; HEADER_LEN - 1]).unwrap();
    });
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn flipped_version_byte_falls_back_cold() {
    let stats = corruption_degrades_to_cold(
        "version",
        // First byte of the little-endian format version.
        each_frame(|frame| frame[4] ^= 0xFF),
    );
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn flipped_key_echo_falls_back_cold() {
    let stats = corruption_degrades_to_cold(
        "keyecho",
        // First byte of the key echo.
        each_frame(|frame| frame[8] ^= 0x01),
    );
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn flipped_payload_byte_falls_back_cold() {
    let stats = corruption_degrades_to_cold(
        "payload",
        each_frame(|frame| *frame.last_mut().unwrap() ^= 0x10),
    );
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

/// A pack cut mid-way keeps its valid prefix: those frames hit, the
/// rest miss (as invalidated — the cut may have taken them), and the
/// reports equal a cold run.
#[test]
fn pack_cut_midway_keeps_the_valid_prefix() {
    let dir = temp_cache("midway");
    build(Some(&dir));
    for pack in packs(&dir) {
        let bytes = std::fs::read(&pack).unwrap();
        assert!(frames(&bytes).len() > 1, "{}", pack.display());
        std::fs::write(&pack, &bytes[..bytes.len() / 2]).unwrap();
    }
    let warm = build(Some(&dir));
    assert_eq!(render(&warm), render(&build(None)));
    let stats = warm.stats.cache;
    assert!(stats.hits > 0, "{stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    assert!(stats.invalidated > 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn tail (a writer that crashed mid-append) costs one run: that
/// run recomputes the lost frames and appends them after cutting the
/// tail, and the run after it is fully warm.
#[test]
fn torn_tail_recovers_after_one_run() {
    let dir = temp_cache("recover");
    let cold = build(Some(&dir));
    let expected = render(&cold);
    for pack in packs(&dir) {
        let bytes = std::fs::read(&pack).unwrap();
        std::fs::write(&pack, &bytes[..bytes.len() - 5]).unwrap();
    }
    let torn = build(Some(&dir));
    assert_eq!(render(&torn), expected);
    assert!(torn.stats.cache.misses > 0, "{:?}", torn.stats.cache);
    assert!(torn.stats.cache.invalidated > 0, "{:?}", torn.stats.cache);
    let warm = build(Some(&dir));
    assert_eq!(render(&warm), expected);
    let stats = warm.stats.cache;
    assert_eq!((stats.misses, stats.invalidated), (0, 0), "{stats:?}");
    assert_eq!(stats.hits, torn.stats.cache.hits + torn.stats.cache.misses);
    let outcome = CacheStore::verify(&dir).unwrap();
    assert!(outcome.corrupt.is_empty(), "{outcome:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two handles in one process append to the same stage from two threads
/// (and store one key under two stages): no frame is torn or lost, and
/// concurrent analyses sharing the directory leave a cache the next run
/// loads fully warm.
#[test]
fn concurrent_writers_never_interleave_frames() {
    let dir = temp_cache("concurrent");
    std::thread::scope(|s| {
        for writer in 0..2u8 {
            let dir = &dir;
            s.spawn(move || {
                let mut store = CacheStore::open(dir).unwrap();
                for round in 0..20u128 {
                    for i in 0..10u128 {
                        let key = (round * 10 + i) * 2 + u128::from(writer);
                        store.store("pta", key, &[writer; 300]);
                    }
                    store.flush();
                }
                let other = if writer == 0 { "seg" } else { "vfsum" };
                store.store(other, 7, &[writer; 10]);
                store.flush();
            });
        }
    });
    let mut store = CacheStore::open(&dir).unwrap();
    for key in 0..400u128 {
        let want = vec![(key % 2) as u8; 300];
        assert_eq!(
            store.load_with("pta", key, |b| Some(b.to_vec())),
            Some(want)
        );
    }
    assert_eq!(
        store.load_with("seg", 7, |b| Some(b.to_vec())),
        Some(vec![0; 10])
    );
    assert_eq!(
        store.load_with("vfsum", 7, |b| Some(b.to_vec())),
        Some(vec![1; 10])
    );
    assert_eq!(store.stats().invalidated, 0, "{:?}", store.stats());
    assert!(CacheStore::verify(&dir).unwrap().corrupt.is_empty());
    CacheStore::clear(&dir).unwrap();

    let expected = render(&build(None));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| assert_eq!(render(&build(Some(&dir))), expected));
        }
    });
    let warm = build(Some(&dir));
    assert_eq!(render(&warm), expected);
    let stats = warm.stats.cache;
    assert_eq!((stats.misses, stats.invalidated), (0, 0), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Interrupted writes of the per-object layout left `.tmp-` files
/// behind. Loads never read them: the warm run hits normally, `info`
/// counts the debris, and `verify` reports the store healthy.
#[test]
fn interrupted_write_debris_is_ignored() {
    let dir = temp_cache("torn");
    build(Some(&dir));
    std::fs::write(dir.join("objects/.tmp-deadbeef-42"), b"partial write").unwrap();
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.stats.cache.misses, 0, "{:?}", warm.stats.cache);
    assert!(warm.stats.cache.hits > 0);
    let info = CacheStore::info(&dir).unwrap();
    assert_eq!(info.temp_files, 1);
    let outcome = CacheStore::verify(&dir).unwrap();
    assert!(outcome.corrupt.is_empty(), "{outcome:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Leftover version-1 `objects/<stage>-<key>.bin` files are ignored by
/// loads, counted by `info`, and removed by `clear`.
#[test]
fn legacy_v1_objects_are_ignored() {
    let dir = temp_cache("legacy");
    build(Some(&dir));
    // A well-formed version-1 frame under a plausible name.
    let mut v1 = b"PPCF".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&[0u8; 24]);
    v1.extend_from_slice(b"old payload");
    for stage in ["pta", "seg"] {
        std::fs::write(dir.join(format!("objects/{stage}-{:032x}.bin", 1)), &v1).unwrap();
    }
    let warm = build(Some(&dir));
    assert_eq!(render(&warm), render(&build(None)));
    let stats = warm.stats.cache;
    assert_eq!((stats.misses, stats.invalidated), (0, 0), "{stats:?}");
    assert!(stats.hits > 0);
    assert_eq!(CacheStore::info(&dir).unwrap().legacy_files, 2);
    assert!(CacheStore::verify(&dir).unwrap().corrupt.is_empty());
    let packs = packs(&dir).len() as u64;
    assert_eq!(CacheStore::clear(&dir).unwrap(), packs + 2);
    assert_eq!(CacheStore::info(&dir).unwrap(), Default::default());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `verify` pinpoints exactly the corrupted frames, by stage, offset and
/// key.
#[test]
fn verify_reports_corrupt_entries() {
    let dir = temp_cache("verify");
    build(Some(&dir));
    let mut victims = Vec::new();
    let mut total = 0;
    for pack in packs(&dir) {
        let mut bytes = std::fs::read(&pack).unwrap();
        let all = frames(&bytes);
        total += all.len();
        // The first frame of the first pack, the last of the others.
        let f = if victims.is_empty() {
            &all[0]
        } else {
            &all[all.len() - 1]
        };
        bytes[f.end - 1] ^= 0xFF;
        std::fs::write(&pack, &bytes).unwrap();
        let stage = pack.file_stem().unwrap().to_string_lossy().into_owned();
        victims.push(CorruptFrame {
            stage,
            offset: f.start as u64,
            len: f.len() as u64,
            key: Some(key_of(&bytes, f)),
        });
    }
    let outcome = CacheStore::verify(&dir).unwrap();
    assert_eq!(outcome.corrupt, victims);
    assert_eq!(outcome.ok as usize, total - victims.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache primed from *different* source shares no keys: every probe
/// is a clean miss (no invalidations — the entries are valid, just for
/// other fingerprints), and the run equals cold.
#[test]
fn stale_fingerprints_miss_cleanly() {
    let dir = temp_cache("stale");
    let other = "fn main() { let x: int = 1; print(x); return; }";
    AnalysisBuilder::new()
        .threads(1)
        .cache_dir(&dir)
        .build_source(other)
        .unwrap();
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.stats.cache.hits, 0, "{:?}", warm.stats.cache);
    assert_eq!(warm.stats.cache.invalidated, 0, "{:?}", warm.stats.cache);
    assert!(warm.stats.cache.misses > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable cache directory degrades the whole build to cold
/// without failing it.
#[test]
fn unopenable_cache_dir_degrades_to_cold() {
    let dir = temp_cache("unopenable");
    std::fs::create_dir_all(&dir).unwrap();
    // A *file* where the objects directory should be makes open() fail.
    std::fs::write(dir.join("objects"), b"not a directory").unwrap();
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.stats.cache, Default::default());
    let _ = std::fs::remove_dir_all(&dir);
}
