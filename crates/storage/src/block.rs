//! Checksummed block encoding.
//!
//! Partition files are written and read in blocks of roughly
//! [`TARGET_BLOCK_BYTES`]. Every block carries a CRC-32 so corruption is
//! detected on read rather than propagated into query answers.
//!
//! Two block formats share the CRC framing and are told apart by magic:
//!
//! * **V1** (`magic | nrec | raw records | crc`) — the seed format,
//!   written whenever compression is off; byte-identical to before the
//!   compression tier existed.
//! * **V2** (`magic2 | nrec | compressed records | crc`) — each record is
//!   `key | ncomp | per-plane (u32 length + self-describing codec
//!   payload)`; the codec id byte inside each plane payload makes blocks
//!   self-describing, so readers need no table-level configuration
//!   (DESIGN.md §10).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tdb_compress::{decode_plane, encode_plane, CompressionConfig};
use tdb_zorder::ATOM_POINTS;

use crate::error::{StorageError, StorageResult};
use crate::record::{AtomKey, AtomRecord};

/// Target on-disk block size. Atoms are ~6 KiB (3 components), so a block
/// holds on the order of ten records — large enough to amortise a seek,
/// small enough for selective range scans.
pub const TARGET_BLOCK_BYTES: usize = 64 * 1024;

const BLOCK_MAGIC: u32 = 0x7db1_0c0d;
/// Magic of compressed (V2) blocks.
const BLOCK_MAGIC_V2: u32 = 0x7db2_0c0d;

/// Reflected CRC-32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 lookup tables: `CRC32_TABLES[0]` is the classic byte
/// table, and `CRC32_TABLES[k][b]` is the CRC state of byte `b` followed
/// by `k` zero bytes, so eight input bytes fold in with eight independent
/// lookups. Built at compile time.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        // tdb-lint: allow(panic-path) — i < 256, compile-time only
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // tdb-lint: allow(panic-path) — k < 8 and i < 256, compile-time only
            let prev = tables[k - 1][i];
            // tdb-lint: allow(panic-path) — same bounds; the byte index is masked
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Table `k` at the low byte of `v`.
#[inline(always)]
fn crc32_lookup(k: usize, v: u32) -> u32 {
    // tdb-lint: allow(panic-path) — every caller passes a constant k < 8 and the index is masked to a byte
    CRC32_TABLES[k][(v & 0xff) as usize]
}

/// CRC-32 (IEEE 802.3, reflected) over `data`.
///
/// Every block is checksummed once per disk read and once per write, so
/// on a cold scan this runs over every stored byte; it is table-driven
/// (slicing-by-8) for that reason.
pub fn checksum(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = w else {
            continue; // chunks_exact(8) yields only 8-byte words
        };
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = crc32_lookup(7, lo)
            ^ crc32_lookup(6, lo >> 8)
            ^ crc32_lookup(5, lo >> 16)
            ^ crc32_lookup(4, lo >> 24)
            ^ crc32_lookup(3, hi)
            ^ crc32_lookup(2, hi >> 8)
            ^ crc32_lookup(1, hi >> 16)
            ^ crc32_lookup(0, hi >> 24);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ crc32_lookup(0, crc ^ u32::from(b));
    }
    !crc
}

/// Encoder-side stats of one block, aggregated into the `compress.*`
/// metrics by the partition writer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCodecStats {
    /// Bytes the records occupy decoded (the V1 encoding size).
    pub logical_bytes: u64,
    /// Bytes the block occupies on disk.
    pub stored_bytes: u64,
    /// Sparse corrections across all planes (lossy codec only).
    pub corrections: u64,
    /// Worst uncorrected reconstruction error across all planes.
    pub max_error: f64,
}

/// Decoder-side facts about a block, reported by
/// [`decode_block_meta`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockMeta {
    /// Whether the block was stored in the compressed (V2) format.
    pub compressed: bool,
    /// Bytes the decoded records occupy in memory (the buffer-pool
    /// weight of the block).
    pub logical_bytes: u64,
}

/// Serialises records into one V1 block: `magic | nrec | payload | crc`.
pub fn encode_block(records: &[AtomRecord]) -> Bytes {
    let mut payload = BytesMut::new();
    for r in records {
        r.encode(&mut payload);
    }
    let mut out = BytesMut::with_capacity(payload.len() + 12);
    out.put_u32(BLOCK_MAGIC);
    out.put_u32(records.len() as u32);
    out.extend_from_slice(&payload);
    let crc = checksum(&out);
    out.put_u32(crc);
    out.freeze()
}

/// Serialises records under `codec`. [`CompressionMode::Off`] delegates
/// to [`encode_block`], keeping the seed format byte-identical; active
/// codecs write a V2 block whose planes are self-describing compressed
/// payloads.
///
/// [`CompressionMode::Off`]: tdb_compress::CompressionMode::Off
pub fn encode_block_with(
    records: &[AtomRecord],
    codec: &CompressionConfig,
) -> (Bytes, BlockCodecStats) {
    let logical: u64 = records
        .iter()
        .map(|r| AtomRecord::encoded_len(r.ncomp) as u64)
        .sum();
    if !codec.is_active() {
        let blk = encode_block(records);
        let stats = BlockCodecStats {
            logical_bytes: logical,
            stored_bytes: blk.len() as u64,
            ..Default::default()
        };
        return (blk, stats);
    }
    let mut stats = BlockCodecStats {
        logical_bytes: logical,
        ..Default::default()
    };
    let mut out = BytesMut::new();
    out.put_u32(BLOCK_MAGIC_V2);
    out.put_u32(records.len() as u32);
    for r in records {
        r.key.encode(&mut out);
        out.put_u8(r.ncomp);
        for c in 0..usize::from(r.ncomp) {
            let enc = encode_plane(codec, r.plane(c));
            stats.corrections += enc.corrections as u64;
            stats.max_error = stats.max_error.max(enc.max_error);
            out.put_u32_le(enc.bytes.len() as u32);
            out.extend_from_slice(&enc.bytes);
        }
    }
    let crc = checksum(&out);
    out.put_u32(crc);
    let blk = out.freeze();
    stats.stored_bytes = blk.len() as u64;
    (blk, stats)
}

/// Decodes a block, validating magic and checksum.
pub fn decode_block(data: Bytes, file: &str) -> StorageResult<Vec<AtomRecord>> {
    decode_block_meta(data, file).map(|(records, _)| records)
}

/// Decodes a block (either format), also reporting which format it was
/// and its decoded footprint.
pub fn decode_block_meta(
    mut data: Bytes,
    file: &str,
) -> StorageResult<(Vec<AtomRecord>, BlockMeta)> {
    if data.len() < 12 {
        return Err(StorageError::Corrupt {
            file: file.into(),
            detail: "block shorter than header".into(),
        });
    }
    let body = data.slice(0..data.len() - 4);
    let mut tail = data.slice(data.len() - 4..);
    let stored_crc = tail.get_u32();
    if checksum(&body) != stored_crc {
        return Err(StorageError::Corrupt {
            file: file.into(),
            detail: "crc mismatch".into(),
        });
    }
    let magic = data.get_u32();
    let compressed = match magic {
        BLOCK_MAGIC => false,
        BLOCK_MAGIC_V2 => true,
        other => {
            return Err(StorageError::Corrupt {
                file: file.into(),
                detail: format!("bad magic {other:#x}"),
            })
        }
    };
    let nrec = data.get_u32() as usize;
    let mut payload = data.slice(0..data.len() - 4);
    let mut records = Vec::with_capacity(nrec);
    for _ in 0..nrec {
        let rec = if compressed {
            decode_compressed_record(&mut payload, file)?
        } else {
            AtomRecord::decode(&mut payload).map_err(|e| match e {
                StorageError::Corrupt { detail, .. } => StorageError::Corrupt {
                    file: file.into(),
                    detail,
                },
                other => other,
            })?
        };
        records.push(rec);
    }
    if payload.has_remaining() {
        return Err(StorageError::Corrupt {
            file: file.into(),
            detail: format!(
                "{} trailing bytes after {nrec} records",
                payload.remaining()
            ),
        });
    }
    let logical: u64 = records
        .iter()
        .map(|r| AtomRecord::encoded_len(r.ncomp) as u64)
        .sum();
    Ok((
        records,
        BlockMeta {
            compressed,
            logical_bytes: logical,
        },
    ))
}

/// One V2 record: `key | ncomp | ncomp × (u32 plane length + payload)`.
fn decode_compressed_record(payload: &mut Bytes, file: &str) -> StorageResult<AtomRecord> {
    let corrupt = |detail: String| StorageError::Corrupt {
        file: file.into(),
        detail,
    };
    if payload.remaining() < AtomKey::ENCODED_LEN + 1 {
        return Err(corrupt("truncated compressed record header".into()));
    }
    let key = AtomKey::decode(payload);
    let ncomp = payload.get_u8();
    let mut data = Vec::with_capacity(usize::from(ncomp) * ATOM_POINTS);
    for c in 0..ncomp {
        if payload.remaining() < 4 {
            return Err(corrupt(format!("truncated plane {c} length (key {key:?})")));
        }
        let len = payload.get_u32_le() as usize;
        if payload.remaining() < len {
            return Err(corrupt(format!(
                "truncated plane {c} payload (key {key:?})"
            )));
        }
        let plane = payload.slice(0..len);
        payload.advance(len);
        let samples = decode_plane(&plane, ATOM_POINTS)
            .map_err(|e| corrupt(format!("plane {c} of {key:?}: {e}")))?;
        data.extend_from_slice(&samples);
    }
    Ok(AtomRecord { key, ncomp, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AtomKey;
    use proptest::prelude::*;
    use tdb_zorder::ATOM_POINTS;

    fn rec(ts: u32, z: u64) -> AtomRecord {
        let data = (0..ATOM_POINTS).map(|i| (i as f32) + z as f32).collect();
        AtomRecord::new(AtomKey::new(ts, z), 1, data).unwrap()
    }

    /// The original table-less implementation: one shift/xor step per
    /// bit. The table-driven [`checksum`] must agree with it everywhere.
    fn checksum_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // standard check value for "123456789"
        assert_eq!(checksum(b"123456789"), 0xcbf4_3926);
        assert_eq!(checksum_bitwise(b"123456789"), 0xcbf4_3926);
        assert_eq!(checksum(b""), 0);
    }

    #[test]
    fn crc32_matches_bitwise_at_every_short_length_and_offset() {
        // every remainder length and every misalignment of the 8-byte
        // words relative to the buffer start
        let buf: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for end in start..buf.len() {
                let s = &buf[start..end];
                assert_eq!(checksum(s), checksum_bitwise(s), "bytes {start}..{end}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn crc32_matches_bitwise_reference(len in 0usize..=200 * 1024, seed in any::<u64>()) {
            let mut state = seed | 1;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    // xorshift64: cheap, full-byte-range filler
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 32) as u8
                })
                .collect();
            prop_assert_eq!(checksum(&data), checksum_bitwise(&data));
        }
    }

    /// Pins the on-disk bytes of one block: its length and the CRC it
    /// carries (which covers every byte before it), with golden values
    /// taken from the bitwise implementation.
    fn assert_golden_block(blk: &[u8], len: usize, crc: u32) {
        assert_eq!(blk.len(), len, "block length changed");
        let (body, tail) = blk.split_at(blk.len() - 4);
        assert_eq!(checksum_bitwise(body), crc, "block body bytes changed");
        assert_eq!(u32::from_be_bytes(tail.try_into().unwrap()), crc);
        assert_eq!(checksum(body), crc);
    }

    #[test]
    fn golden_v1_block() {
        let records: Vec<_> = (0..3).map(|i| rec(2, i * 3)).collect();
        let blk = encode_block(&records);
        assert_golden_block(&blk, 6195, 0x6460_f44a);
    }

    #[test]
    fn golden_v2_block() {
        let records: Vec<_> = (0..3).map(|i| smooth_rec(1, i * 5, 3)).collect();
        let (blk, _) = encode_block_with(&records, &CompressionConfig::lossless());
        assert_golden_block(&blk, 15_689, 0x877c_7164);
    }

    #[test]
    fn block_roundtrip() {
        let records: Vec<_> = (0..5).map(|i| rec(2, i * 3)).collect();
        let blk = encode_block(&records);
        let back = decode_block(blk, "t").unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_block_roundtrip() {
        let blk = encode_block(&[]);
        assert!(decode_block(blk, "t").unwrap().is_empty());
    }

    #[test]
    fn bit_flip_is_detected() {
        let records = vec![rec(0, 1), rec(0, 2)];
        let blk = encode_block(&records);
        for pos in [0usize, 5, 100, blk.len() - 1] {
            let mut bad = blk.to_vec();
            bad[pos] ^= 0x10;
            let err = decode_block(Bytes::from(bad), "f").unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "flip at {pos} not detected"
            );
        }
    }

    #[test]
    fn truncated_block_is_detected() {
        let blk = encode_block(&[rec(0, 1)]);
        let cut = blk.slice(0..blk.len() / 2);
        assert!(decode_block(cut, "f").is_err());
        assert!(decode_block(Bytes::from_static(&[1, 2, 3]), "f").is_err());
    }

    // Smooth in lattice coordinates (like a simulation field), not in the
    // flattened sample index — the spatial codec sub-samples per axis.
    fn smooth_rec(ts: u32, zidx: u64, ncomp: u8) -> AtomRecord {
        let data = (0..usize::from(ncomp) * ATOM_POINTS)
            .map(|i| {
                let (x, y, z) = (i % 8, (i / 8) % 8, (i / 64) % 8);
                let phase = zidx as f64 * 0.05 + (i / ATOM_POINTS) as f64;
                ((x as f64 * 0.25 + phase).sin() * (y as f64 * 0.2).cos() + 0.1 * z as f64) as f32
            })
            .collect();
        AtomRecord::new(AtomKey::new(ts, zidx), ncomp, data).unwrap()
    }

    #[test]
    fn codec_off_is_byte_identical_to_v1() {
        let records: Vec<_> = (0..4).map(|i| rec(1, i * 2)).collect();
        let (blk, stats) = encode_block_with(&records, &CompressionConfig::default());
        assert_eq!(&blk[..], &encode_block(&records)[..]);
        assert_eq!(stats.stored_bytes, blk.len() as u64);
        let (back, meta) = decode_block_meta(blk, "t").unwrap();
        assert_eq!(back, records);
        assert!(!meta.compressed);
    }

    #[test]
    fn lossless_block_roundtrips_bitwise_and_shrinks() {
        let mut records: Vec<_> = (0..6).map(|i| smooth_rec(3, i * 5, 3)).collect();
        records[2].data[17] = f32::NAN;
        records[4].data[900] = f32::NEG_INFINITY;
        let (blk, stats) = encode_block_with(&records, &CompressionConfig::lossless());
        assert!(stats.stored_bytes < stats.logical_bytes, "{stats:?}");
        assert_eq!(stats.corrections, 0);
        let (back, meta) = decode_block_meta(blk, "t").unwrap();
        assert!(meta.compressed);
        assert_eq!(meta.logical_bytes, stats.logical_bytes);
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn lossy_block_beats_4x_within_bound() {
        let records: Vec<_> = (0..8).map(|i| smooth_rec(0, i * 3, 3)).collect();
        let bound = 1e-3;
        let (blk, stats) = encode_block_with(&records, &CompressionConfig::lossy(2, bound));
        assert!(stats.max_error <= bound);
        assert!(
            stats.stored_bytes * 4 <= stats.logical_bytes,
            "ratio {:.2}",
            stats.logical_bytes as f64 / stats.stored_bytes as f64
        );
        let (back, meta) = decode_block_meta(blk, "t").unwrap();
        assert!(meta.compressed);
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert!((f64::from(*x) - f64::from(*y)).abs() <= bound);
            }
        }
    }

    #[test]
    fn compressed_bit_flip_is_detected() {
        let records: Vec<_> = (0..4).map(|i| smooth_rec(0, i, 1)).collect();
        let (blk, _) = encode_block_with(&records, &CompressionConfig::lossless());
        for pos in [0usize, 9, blk.len() / 2, blk.len() - 1] {
            let mut bad = blk.to_vec();
            bad[pos] ^= 0x04;
            assert!(
                decode_block(Bytes::from(bad), "f").is_err(),
                "flip at {pos} not detected"
            );
        }
    }
}
