//! Loader robustness: every way a snapshot file can be damaged —
//! wrong magic, unknown version, foreign endianness, flipped bytes in
//! any CRC-protected region, truncation at **every** possible length,
//! and v2-specific tampering (bit flips in compressed payloads,
//! mid-varint truncation, encoding tags pointed at the wrong section,
//! over-declared decoded lengths) — must surface as a typed
//! [`SnapshotError`], never a panic, an over-allocation, or a silently
//! wrong index.

use std::path::PathBuf;

use hybrid_lsh::datagen::benchmark_mixture;
use hybrid_lsh::index::snapshot::format::{
    crc32, DirEntry, Header, SectionEncoding, DIR_ENTRY_LEN, HEADER_LEN,
};
use hybrid_lsh::prelude::*;
use hybrid_lsh::{LoadMode, SnapshotError};

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hlsh-snapshot-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("corrupt-{}-{}.hlsh", tag, std::process::id()))
}

fn builder(dim: usize, tables: usize, seed: u64) -> IndexBuilder<PStableL2, L2> {
    IndexBuilder::new(PStableL2::new(dim, 2.4), L2)
        .tables(tables)
        .hash_len(3)
        .seed(seed)
        .cost_model(CostModel::from_ratio(4.0))
}

/// A small but structurally complete snapshot: two shards, an rNNR
/// index and a two-level top-k ladder (so every section kind appears).
fn write_fixture(tag: &str) -> PathBuf {
    let (n, dim, seed) = (150usize, 6usize, 9u64);
    let (data, _) = benchmark_mixture(dim, n, 1.2, seed);
    let assignment = ShardAssignment::new(seed, 2);
    let rnnr = ShardedIndex::build_frozen(data.clone(), assignment, builder(dim, 3, seed));
    let topk =
        ShardedTopKIndex::build(data, assignment, RadiusSchedule::doubling(0.8, 2), |li, _| {
            builder(dim, 3, seed.wrapping_add(li as u64))
        })
        .freeze();
    let path = temp_path(tag);
    save_snapshot(&path, &rnnr, Some(&topk)).expect("save fixture");
    path
}

/// The smallest structurally valid snapshot we can make — one shard,
/// two tables, no ladder — so exhaustive per-byte sweeps stay cheap.
fn write_minimal_fixture(tag: &str) -> PathBuf {
    let (n, dim, seed) = (40usize, 4usize, 5u64);
    let (data, _) = benchmark_mixture(dim, n, 1.2, seed);
    let rnnr =
        ShardedIndex::build_frozen(data, ShardAssignment::new(seed, 1), builder(dim, 2, seed));
    let path = temp_path(tag);
    save_snapshot(&path, &rnnr, None).expect("save minimal fixture");
    path
}

fn load_all_modes(bytes: &[u8], path: &PathBuf) -> Vec<Result<(), SnapshotError>> {
    std::fs::write(path, bytes).expect("write corrupted copy");
    [LoadMode::Read, LoadMode::Mmap, LoadMode::MmapVerify, LoadMode::Auto]
        .into_iter()
        .map(|mode| load_snapshot::<PStableL2, L2>(path, mode).map(|_| ()))
        .collect()
}

/// Reads directory entry `i` of a pristine v2 file.
fn entry_at(bytes: &[u8], header: &Header, i: usize) -> DirEntry {
    let at = header.dir_off as usize + i * DIR_ENTRY_LEN;
    DirEntry::decode(&bytes[at..at + DIR_ENTRY_LEN], header.total_len).expect("pristine dir entry")
}

/// Overwrites directory entry `i` with `entry` and re-signs the
/// directory and header CRCs, so tampering with entry *fields* reaches
/// the section decoders instead of tripping the directory checksum.
fn patch_entry(bytes: &mut [u8], header: &Header, i: usize, entry: &DirEntry) {
    let at = header.dir_off as usize + i * DIR_ENTRY_LEN;
    bytes[at..at + DIR_ENTRY_LEN].copy_from_slice(&entry.encode());
    let dir_len = header.dir_count as usize * DIR_ENTRY_LEN;
    let dir_crc = crc32(&bytes[header.dir_off as usize..header.dir_off as usize + dir_len]);
    bytes[56..60].copy_from_slice(&dir_crc.to_le_bytes());
    let header_crc = crc32(&bytes[..60]);
    bytes[60..64].copy_from_slice(&header_crc.to_le_bytes());
}

#[test]
fn structural_corruption_yields_typed_errors_in_every_mode() {
    let fixture = write_fixture("structural");
    let pristine = std::fs::read(&fixture).expect("read fixture");
    let path = temp_path("structural-mutant");

    // Wrong magic.
    let mut bytes = pristine.clone();
    bytes[0] ^= 0xFF;
    for res in load_all_modes(&bytes, &path) {
        assert!(matches!(&res, Err(SnapshotError::BadMagic)), "{res:?}");
    }

    // Unknown format version (future file read by an old binary).
    let mut bytes = pristine.clone();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    for res in load_all_modes(&bytes, &path) {
        assert!(matches!(&res, Err(SnapshotError::BadVersion(99))), "{res:?}");
    }

    // Foreign endianness canary.
    let mut bytes = pristine.clone();
    bytes[12..16].reverse();
    for res in load_all_modes(&bytes, &path) {
        assert!(matches!(&res, Err(SnapshotError::BadEndian)), "{res:?}");
    }

    // A flipped bit anywhere else in the header trips the header CRC.
    for off in [16usize, 33, 47, 50, 55, 59] {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x40;
        for res in load_all_modes(&bytes, &path) {
            assert!(
                matches!(&res, Err(SnapshotError::ChecksumMismatch("header"))),
                "header byte {off}: {res:?}"
            );
        }
    }

    // Empty and header-only-prefix files are truncation, not panics.
    for len in [0usize, 1, 8, HEADER_LEN - 1] {
        for res in load_all_modes(&pristine[..len], &path) {
            assert!(res.is_err(), "prefix {len}: {res:?}");
        }
    }

    // Trailing garbage makes the file longer than the header declares.
    let mut bytes = pristine.clone();
    bytes.extend_from_slice(&[0xAB; 17]);
    for res in load_all_modes(&bytes, &path) {
        assert!(matches!(&res, Err(SnapshotError::Malformed(_))), "{res:?}");
    }

    std::fs::remove_file(&fixture).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn param_and_directory_corruption_is_caught_in_every_mode() {
    let fixture = write_fixture("params");
    let pristine = std::fs::read(&fixture).expect("read fixture");
    let header = Header::decode(&pristine).expect("fixture header");
    let path = temp_path("params-mutant");

    // Param block bytes are CRC-protected in all modes.
    let param_mid = (header.param_off + header.param_len / 2) as usize;
    for off in [header.param_off as usize, param_mid] {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x01;
        for res in load_all_modes(&bytes, &path) {
            assert!(
                matches!(&res, Err(SnapshotError::ChecksumMismatch(_))),
                "param byte {off}: {res:?}"
            );
        }
    }

    // Directory bytes likewise.
    let dir_len = header.dir_count as usize * DIR_ENTRY_LEN;
    for off in [header.dir_off as usize, header.dir_off as usize + dir_len - 1] {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x01;
        for res in load_all_modes(&bytes, &path) {
            assert!(
                matches!(&res, Err(SnapshotError::ChecksumMismatch(_))),
                "dir byte {off}: {res:?}"
            );
        }
    }

    std::fs::remove_file(&fixture).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn section_payload_corruption_is_caught_by_verifying_modes() {
    let fixture = write_fixture("sections");
    let pristine = std::fs::read(&fixture).expect("read fixture");
    let header = Header::decode(&pristine).expect("fixture header");
    let path = temp_path("sections-mutant");

    // Corrupt the first payload byte of every section. `Read` and
    // `MmapVerify` must reject each one; plain `Mmap` deliberately
    // skips payload CRCs (the documented lazy-paging trade-off), so it
    // is only required not to panic while loading.
    let dir_off = header.dir_off as usize;
    for i in 0..header.dir_count as usize {
        let at = dir_off + i * DIR_ENTRY_LEN;
        let entry = DirEntry::decode(&pristine[at..at + DIR_ENTRY_LEN], header.total_len)
            .expect("fixture dir entry");
        if entry.enc_len == 0 {
            continue;
        }
        let mut bytes = pristine.clone();
        bytes[entry.offset as usize] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write corrupted copy");
        for mode in [LoadMode::Read, LoadMode::MmapVerify] {
            let res = load_snapshot::<PStableL2, L2>(&path, mode).map(|_| ());
            assert!(
                matches!(
                    &res,
                    Err(SnapshotError::ChecksumMismatch(_)) | Err(SnapshotError::Malformed(_))
                ),
                "section {i} mode {mode:?}: {res:?}"
            );
        }
        // Must not panic; success or a typed error are both acceptable.
        let _ = load_snapshot::<PStableL2, L2>(&path, LoadMode::Mmap);
    }

    std::fs::remove_file(&fixture).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_at_every_length_is_a_typed_error_in_every_mode() {
    let fixture = write_minimal_fixture("truncate");
    let total = std::fs::metadata(&fixture).expect("fixture metadata").len();
    let file = std::fs::OpenOptions::new().write(true).open(&fixture).expect("open for truncate");

    // Shrink the same file one byte at a time from full length down to
    // empty; every proper prefix must load as an error (the header pins
    // the exact total length, so even cutting only trailing padding is
    // caught).
    for len in (0..total).rev() {
        file.set_len(len).expect("truncate");
        for mode in [LoadMode::Read, LoadMode::Mmap, LoadMode::MmapVerify] {
            // Any typed error is fine; panics and successes are not.
            if load_snapshot::<PStableL2, L2>(&fixture, mode).is_ok() {
                panic!("truncated to {len} bytes but load ({mode:?}) succeeded");
            }
        }
    }

    std::fs::remove_file(&fixture).ok();
}

#[test]
fn encoded_payload_corruption_is_caught_in_every_mode_including_plain_mmap() {
    let fixture = write_fixture("encoded-flip");
    let pristine = std::fs::read(&fixture).expect("read fixture");
    let header = Header::decode(&pristine).expect("fixture header");
    let path = temp_path("encoded-flip-mutant");

    // Encoded sections are decoded (hence checksummed) in every load
    // mode — unlike raw sections, a flipped bit in a varint stream must
    // be caught even under plain `Mmap`.
    let mut tested = 0;
    for i in 0..header.dir_count as usize {
        let entry = entry_at(&pristine, &header, i);
        if entry.encoding == SectionEncoding::Raw || entry.enc_len == 0 {
            continue;
        }
        tested += 1;
        for flip_at in
            [entry.offset, entry.offset + entry.enc_len / 2, entry.offset + entry.enc_len - 1]
        {
            let mut bytes = pristine.clone();
            bytes[flip_at as usize] ^= 0x10;
            for res in load_all_modes(&bytes, &path) {
                assert!(
                    matches!(
                        &res,
                        Err(SnapshotError::ChecksumMismatch(_)) | Err(SnapshotError::Malformed(_))
                    ),
                    "section {i} flip at {flip_at}: {res:?}"
                );
            }
        }
    }
    assert!(tested > 0, "fixture must contain encoded sections");

    std::fs::remove_file(&fixture).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_mid_varint_is_a_typed_error() {
    let fixture = write_fixture("mid-varint");
    let pristine = std::fs::read(&fixture).expect("read fixture");
    let header = Header::decode(&pristine).expect("fixture header");
    let path = temp_path("mid-varint-mutant");

    // Shorten an encoded section's declared length by one byte and
    // re-sign its CRC over the shortened payload, so the varint decoder
    // (not the checksum) sees a stream that ends mid-element.
    let mut tested = 0;
    for i in 0..header.dir_count as usize {
        let entry = entry_at(&pristine, &header, i);
        // Need strictly more encoded bytes than elements, or the
        // shortened entry fails the structural length bound instead.
        if entry.encoding == SectionEncoding::Raw || entry.enc_len <= entry.elem_count() {
            continue;
        }
        tested += 1;
        let mut bytes = pristine.clone();
        let cut = DirEntry {
            enc_len: entry.enc_len - 1,
            crc: crc32(
                &pristine[entry.offset as usize..(entry.offset + entry.enc_len - 1) as usize],
            ),
            ..entry
        };
        patch_entry(&mut bytes, &header, i, &cut);
        for res in load_all_modes(&bytes, &path) {
            assert!(
                matches!(&res, Err(SnapshotError::Truncated) | Err(SnapshotError::Malformed(_))),
                "section {i}: {res:?}"
            );
        }
    }
    assert!(tested > 0, "fixture must contain multi-byte varint sections");

    std::fs::remove_file(&fixture).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn encoding_tag_and_length_tampering_is_rejected() {
    let fixture = write_fixture("tamper");
    let pristine = std::fs::read(&fixture).expect("read fixture");
    let header = Header::decode(&pristine).expect("fixture header");
    let path = temp_path("tamper-mutant");

    let raw_f32 = (0..header.dir_count as usize)
        .map(|i| (i, entry_at(&pristine, &header, i)))
        .find(|(_, e)| e.encoding == SectionEncoding::Raw && e.elem_size == 4 && e.raw_len > 0)
        .expect("fixture has a raw f32/u32 section");
    let encoded = (0..header.dir_count as usize)
        .map(|i| (i, entry_at(&pristine, &header, i)))
        .find(|(_, e)| e.encoding != SectionEncoding::Raw && e.elem_count() > 1)
        .expect("fixture has an encoded section");

    // An encoding tag pointed at a section that was written raw: the
    // bytes cannot parse as the declared element count of varints.
    let (i, e) = raw_f32;
    let mut bytes = pristine.clone();
    patch_entry(&mut bytes, &header, i, &DirEntry { encoding: SectionEncoding::Varint, ..e });
    for res in load_all_modes(&bytes, &path) {
        assert!(
            matches!(&res, Err(SnapshotError::Malformed(_)) | Err(SnapshotError::Truncated)),
            "raw section retagged varint: {res:?}"
        );
    }

    // Over-declared decoded length: the structural bound (>= 1 encoded
    // byte per element) rejects the entry before any allocation.
    let (i, e) = encoded;
    let mut bytes = pristine.clone();
    let oversold = DirEntry { raw_len: (e.enc_len + 1) * e.elem_size as u64, ..e };
    patch_entry(&mut bytes, &header, i, &oversold);
    for res in load_all_modes(&bytes, &path) {
        assert!(matches!(&res, Err(SnapshotError::Malformed(_))), "oversold length: {res:?}");
    }

    // A length off by one element in either direction still decodes
    // structurally but must fail the exact-consumption check.
    for delta in [-1i64, 1] {
        let mut bytes = pristine.clone();
        let skewed =
            DirEntry { raw_len: (e.raw_len as i64 + delta * e.elem_size as i64) as u64, ..e };
        patch_entry(&mut bytes, &header, i, &skewed);
        for res in load_all_modes(&bytes, &path) {
            assert!(
                matches!(&res, Err(SnapshotError::Malformed(_)) | Err(SnapshotError::Truncated)),
                "length skew {delta}: {res:?}"
            );
        }
    }

    std::fs::remove_file(&fixture).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn family_and_distance_mismatches_are_rejected_before_any_decode() {
    let fixture = write_fixture("mismatch");

    for mode in [LoadMode::Read, LoadMode::Mmap, LoadMode::MmapVerify] {
        let res = load_snapshot::<SimHash, Cosine>(&fixture, mode).map(|_| ());
        assert!(
            matches!(
                &res,
                Err(SnapshotError::FamilyMismatch { .. })
                    | Err(SnapshotError::DistanceMismatch { .. })
            ),
            "{mode:?}: {res:?}"
        );
        // Same family, wrong metric: specifically a distance mismatch.
        let res = load_snapshot::<PStableL2, L1>(&fixture, mode).map(|_| ());
        assert!(matches!(&res, Err(SnapshotError::DistanceMismatch { .. })), "{mode:?}: {res:?}");
    }

    std::fs::remove_file(&fixture).ok();
}
