//! Immutable sorted partition files.
//!
//! A partition file holds atom records sorted by clustered key
//! `(timestep, zindex)` in checksummed blocks, with an in-footer fence
//! index (first/last key per block). Range scans binary-search the fences
//! and read only overlapping blocks — the clustered-index range scan the
//! paper's queries compile to. The archive is append-once, so sorted runs
//! never need compaction.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tdb_compress::{CompressionConfig, CompressionMode};

use crate::block::{decode_block_meta, encode_block_with, TARGET_BLOCK_BYTES};
use crate::bufferpool::{BlockKey, BufferPool, PoolValue};
use crate::device::{DeviceId, IoSession};
use crate::error::{IoResultExt, StorageError, StorageResult};
use crate::faults::FaultPlan;
use crate::record::{AtomKey, AtomRecord};

const FOOTER_MAGIC: u32 = 0x7db1_f007;

/// Bounded retry budget for transient block-read failures.
const MAX_READ_ATTEMPTS: u32 = 3;
/// Modelled backoff charged before retry `n` (doubles per attempt), seconds.
const RETRY_BACKOFF_S: f64 = 2e-3;

/// A checksum-verified, parsed partition block as held by the buffer
/// pool. Decoding (including codec reconstruction) happens once, on the
/// miss path; the pool budget tracks the *decoded* footprint while the
/// device accounting charges the on-disk (possibly compressed) bytes.
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    pub records: Arc<Vec<AtomRecord>>,
    /// Bytes read from the device (compressed size for V2 blocks).
    pub disk_len: u32,
    /// Bytes the decoded records occupy in memory.
    pub logical_len: u64,
}

impl PoolValue for DecodedBlock {
    fn weight(&self) -> usize {
        self.logical_len as usize
    }
}

/// The buffer-pool type partition readers share.
pub type BlockCache = BufferPool<DecodedBlock>;

/// Fence-index entry: one block's key range and file location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fence {
    pub first: AtomKey,
    pub last: AtomKey,
    pub offset: u64,
    pub len: u32,
}

/// Streaming bulk-load writer. Records must arrive in strictly increasing
/// key order; blocks are cut near [`TARGET_BLOCK_BYTES`].
pub struct PartitionWriter {
    file: File,
    path: PathBuf,
    ncomp: u8,
    codec: CompressionConfig,
    fences: Vec<Fence>,
    pending: Vec<AtomRecord>,
    pending_bytes: usize,
    offset: u64,
    last_key: Option<AtomKey>,
}

impl PartitionWriter {
    /// Creates (truncates) the partition file in the seed (uncompressed)
    /// format.
    pub fn create(path: impl AsRef<Path>, ncomp: u8) -> StorageResult<Self> {
        Self::create_with(path, ncomp, CompressionConfig::default())
    }

    /// Creates (truncates) the partition file, writing blocks under
    /// `codec`. [`CompressionMode::Off`] keeps the seed format
    /// byte-identical.
    pub fn create_with(
        path: impl AsRef<Path>,
        ncomp: u8,
        codec: CompressionConfig,
    ) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).at_file(path.display().to_string())?;
        Ok(Self {
            file,
            path,
            ncomp,
            codec,
            fences: Vec::new(),
            pending: Vec::new(),
            pending_bytes: 0,
            offset: 0,
            last_key: None,
        })
    }

    /// Appends one record; keys must strictly increase.
    pub fn append(&mut self, rec: AtomRecord) -> StorageResult<()> {
        if rec.ncomp != self.ncomp {
            return Err(StorageError::SchemaMismatch {
                expected_ncomp: self.ncomp,
                got_ncomp: rec.ncomp,
            });
        }
        if let Some(last) = self.last_key {
            if rec.key <= last {
                return Err(StorageError::KeyOrder {
                    detail: format!("{:?} after {:?}", rec.key, last),
                });
            }
        }
        self.last_key = Some(rec.key);
        self.pending_bytes += AtomRecord::encoded_len(rec.ncomp);
        self.pending.push(rec);
        if self.pending_bytes >= TARGET_BLOCK_BYTES {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> StorageResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let (Some(first), Some(last)) = (self.pending.first(), self.pending.last()) else {
            return Ok(());
        };
        let (first, last) = (first.key, last.key);
        let (blk, stats) = encode_block_with(&self.pending, &self.codec);
        if self.codec.is_active() {
            let m = tdb_obs::global();
            match self.codec.mode {
                CompressionMode::Lossless => m.counter("compress.blocks.lossless").inc(),
                CompressionMode::Lossy => m.counter("compress.blocks.lossy").inc(),
                CompressionMode::Off => {}
            }
            m.counter("compress.bytes.logical").add(stats.logical_bytes);
            m.counter("compress.bytes.stored").add(stats.stored_bytes);
            m.counter("compress.corrections").add(stats.corrections);
            // worst uncorrected error ever written, in microns of value
            let micro = (stats.max_error * 1e6).ceil() as i64;
            let g = m.gauge("compress.max_error_micro");
            if micro > g.get() {
                g.set(micro);
            }
        }
        self.file
            .write_all(&blk)
            .at_file(self.path.display().to_string())?;
        self.fences.push(Fence {
            first,
            last,
            offset: self.offset,
            len: blk.len() as u32,
        });
        self.offset += blk.len() as u64;
        self.pending.clear();
        self.pending_bytes = 0;
        Ok(())
    }

    /// Flushes the tail block and writes the footer.
    pub fn finish(mut self) -> StorageResult<PathBuf> {
        self.flush_block()?;
        let mut footer = BytesMut::new();
        for f in &self.fences {
            f.first.encode(&mut footer);
            f.last.encode(&mut footer);
            footer.put_u64(f.offset);
            footer.put_u32(f.len);
        }
        footer.put_u32(self.fences.len() as u32);
        footer.put_u8(self.ncomp);
        footer.put_u64(self.offset); // start of footer
        footer.put_u32(FOOTER_MAGIC);
        let path_str = self.path.display().to_string();
        self.file.write_all(&footer).at_file(&path_str)?;
        self.file.sync_all().at_file(&path_str)?;
        Ok(self.path)
    }
}

/// Read handle over a finished partition file. Block reads go through the
/// node's shared [`BufferPool`]; misses charge the owning disk array in the
/// caller's [`IoSession`].
pub struct PartitionReader {
    file: File,
    path: String,
    file_id: u64,
    device: DeviceId,
    pool: Arc<BlockCache>,
    ncomp: u8,
    fences: Vec<Fence>,
}

impl PartitionReader {
    /// Opens a partition file and loads its fence index.
    pub fn open(
        path: impl AsRef<Path>,
        file_id: u64,
        device: DeviceId,
        pool: Arc<BlockCache>,
    ) -> StorageResult<Self> {
        let path_str = path.as_ref().display().to_string();
        let mut file = File::open(&path).at_file(&path_str)?;
        let total = file.seek(SeekFrom::End(0)).at_file(&path_str)?;
        if total < 17 {
            return Err(StorageError::Corrupt {
                file: path_str,
                detail: "file shorter than footer trailer".into(),
            });
        }
        let mut trailer = [0u8; 17];
        file.read_exact_at(&mut trailer, total - 17)
            .at_file(&path_str)?;
        let mut t = &trailer[..];
        let nfences = t.get_u32() as usize;
        let ncomp = t.get_u8();
        let footer_start = t.get_u64();
        let magic = t.get_u32();
        if magic != FOOTER_MAGIC {
            return Err(StorageError::Corrupt {
                file: path_str,
                detail: format!("bad footer magic {magic:#x}"),
            });
        }
        let fence_bytes = nfences
            .checked_mul(36)
            .filter(|&n| footer_start + n as u64 + 17 == total)
            .ok_or_else(|| StorageError::Corrupt {
                file: path_str.clone(),
                detail: "footer geometry inconsistent".into(),
            })?;
        let mut buf = vec![0u8; fence_bytes];
        file.read_exact_at(&mut buf, footer_start)
            .at_file(&path_str)?;
        let mut b = Bytes::from(buf);
        let mut fences = Vec::with_capacity(nfences);
        for _ in 0..nfences {
            let first = AtomKey::decode(&mut b);
            let last = AtomKey::decode(&mut b);
            let offset = b.get_u64();
            let len = b.get_u32();
            fences.push(Fence {
                first,
                last,
                offset,
                len,
            });
        }
        Ok(Self {
            file,
            path: path_str,
            file_id,
            device,
            pool,
            ncomp,
            fences,
        })
    }

    /// Component count of stored records.
    pub fn ncomp(&self) -> u8 {
        self.ncomp
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.fences.len()
    }

    /// Reads one block through the buffer pool; a miss charges the disk
    /// array one request plus the block's bytes. The per-request latency
    /// in the array profile is calibrated to the *effective* block-read
    /// rate of the paper's nodes (partial sequentiality and read-ahead
    /// included), so every miss pays it.
    ///
    /// Transient failures (injected or retryable I/O kinds) get a bounded
    /// retry with modelled exponential backoff; the retry happens inside
    /// the loader so the pool still counts a single miss. Permanent
    /// failures propagate immediately with the partition path attached.
    fn read_block(
        &self,
        idx: usize,
        fence: Fence,
        session: &mut IoSession,
    ) -> StorageResult<DecodedBlock> {
        let key = BlockKey {
            file_id: self.file_id,
            block_no: idx as u32,
        };
        let plan = self.pool.fault_plan().cloned();
        self.pool.get_or_load(key, session, |s| {
            let mut attempt = 1u32;
            loop {
                match self.load_block_once(fence, idx, plan.as_deref(), attempt, s) {
                    Ok(block) => {
                        if attempt > 1 {
                            tdb_obs::global()
                                .counter("storage.read.retry_success")
                                .inc();
                        }
                        return Ok(block);
                    }
                    Err(e) if e.is_transient() && attempt < MAX_READ_ATTEMPTS => {
                        tdb_obs::global().counter("storage.read.retries").inc();
                        s.injected_delay_s += RETRY_BACKOFF_S * f64::from(1u32 << (attempt - 1));
                        attempt += 1;
                    }
                    Err(e) => return Err(e.in_file(&self.path)),
                }
            }
        })
    }

    /// One attempt at reading block `idx` from disk: consults the fault
    /// plan first (a fired fault replaces the device access), then performs
    /// the real positioned read and decode.
    fn load_block_once(
        &self,
        fence: Fence,
        idx: usize,
        plan: Option<&FaultPlan>,
        attempt: u32,
        s: &mut IoSession,
    ) -> StorageResult<DecodedBlock> {
        if let Some(plan) = plan {
            let f = plan.block_read_fault(self.file_id, idx as u32, attempt);
            s.injected_delay_s += f.latency_s;
            if f.corrupt {
                return Err(StorageError::Corrupt {
                    file: self.path.clone(),
                    detail: format!("injected corruption in block {idx}"),
                });
            }
            if f.transient {
                // the request was issued and failed: charge the seek, no bytes
                s.charge(self.device, 1, 0);
                return Err(StorageError::Injected {
                    site: "block_read".into(),
                    detail: format!("transient read failure, block {idx} attempt {attempt}"),
                    transient: true,
                });
            }
        }
        let mut buf = vec![0u8; fence.len as usize];
        self.file
            .read_exact_at(&mut buf, fence.offset)
            .at_file(&self.path)?;
        s.charge(self.device, 1, u64::from(fence.len));
        let started = std::time::Instant::now();
        let (records, meta) = decode_block_meta(Bytes::from(buf), &self.path)?;
        if meta.compressed {
            tdb_obs::global()
                .histogram("compress.reconstruct_s")
                .observe(started.elapsed().as_secs_f64());
        }
        Ok(DecodedBlock {
            records: Arc::new(records),
            disk_len: fence.len,
            logical_len: meta.logical_bytes,
        })
    }

    /// All records with `lo <= key <= hi`, in key order.
    pub fn scan_range(
        &self,
        lo: AtomKey,
        hi: AtomKey,
        session: &mut IoSession,
    ) -> StorageResult<Vec<AtomRecord>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        // first block whose last key >= lo
        let start = self.fences.partition_point(|f| f.last < lo);
        let mut out = Vec::new();
        for (idx, fence) in self.fences.iter().enumerate().skip(start) {
            if fence.first > hi {
                break;
            }
            let block = self.read_block(idx, *fence, session)?;
            for r in block.records.iter() {
                if r.key >= lo && r.key <= hi {
                    out.push(r.clone());
                }
            }
        }
        Ok(out)
    }

    /// Point lookup.
    pub fn get(&self, key: AtomKey, session: &mut IoSession) -> StorageResult<Option<AtomRecord>> {
        let mut v = self.scan_range(key, key, session)?;
        Ok(v.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRule;
    use proptest::prelude::*;
    use tdb_zorder::ATOM_POINTS;

    fn rec(ts: u32, z: u64) -> AtomRecord {
        let data = (0..ATOM_POINTS)
            .map(|i| (i as f32) + (ts as f32) * 1000.0 + z as f32)
            .collect();
        AtomRecord::new(AtomKey::new(ts, z), 1, data).unwrap()
    }

    fn build(dir: &Path, keys: &[(u32, u64)]) -> PartitionReader {
        let path = dir.join("part_0.tdb");
        let mut w = PartitionWriter::create(&path, 1).unwrap();
        for &(ts, z) in keys {
            w.append(rec(ts, z)).unwrap();
        }
        w.finish().unwrap();
        let mut reg = crate::device::DeviceRegistry::new();
        let dev = reg.register(crate::device::DeviceProfile::hdd_array());
        PartitionReader::open(&path, 1, dev, Arc::new(BlockCache::new(1 << 20))).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tdb_sstable_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let keys: Vec<(u32, u64)> = (0u32..50)
            .map(|i| (i / 25, u64::from(i % 25) * 2))
            .collect();
        let r = build(&dir, &keys);
        assert!(r.num_blocks() >= 2, "multi-block file expected");
        let mut s = IoSession::new();
        let all = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(9, u64::MAX), &mut s)
            .unwrap();
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn range_scan_is_selective() {
        let dir = tmpdir("selective");
        let keys: Vec<(u32, u64)> = (0u32..200).map(|i| (0, u64::from(i) * 3)).collect();
        let r = build(&dir, &keys);
        let mut s = IoSession::new();
        let hit = r
            .scan_range(AtomKey::new(0, 30), AtomKey::new(0, 60), &mut s)
            .unwrap();
        assert_eq!(hit.len(), 11); // z = 30,33,...,60
                                   // selective scan touches few blocks
        assert!(s.pool_misses < r.num_blocks() as u64);
        let empty = r
            .scan_range(AtomKey::new(5, 0), AtomKey::new(5, 10), &mut s)
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn point_get() {
        let dir = tmpdir("get");
        let r = build(&dir, &[(0, 2), (0, 4), (1, 0)]);
        let mut s = IoSession::new();
        let g = r.get(AtomKey::new(0, 4), &mut s).unwrap().unwrap();
        assert_eq!(g.key, AtomKey::new(0, 4));
        assert!(r.get(AtomKey::new(0, 3), &mut s).unwrap().is_none());
    }

    #[test]
    fn buffer_pool_absorbs_repeat_scans() {
        let dir = tmpdir("pool");
        let keys: Vec<(u32, u64)> = (0u32..60).map(|i| (0, u64::from(i))).collect();
        let r = build(&dir, &keys);
        let mut s1 = IoSession::new();
        r.scan_range(AtomKey::new(0, 0), AtomKey::new(0, 59), &mut s1)
            .unwrap();
        assert!(s1.pool_misses > 0);
        let mut s2 = IoSession::new();
        r.scan_range(AtomKey::new(0, 0), AtomKey::new(0, 59), &mut s2)
            .unwrap();
        assert_eq!(s2.pool_misses, 0, "second scan should be all pool hits");
        assert_eq!(s2.total_bytes(), 0);
    }

    #[test]
    fn writer_rejects_out_of_order_and_schema() {
        let dir = tmpdir("order");
        let mut w = PartitionWriter::create(dir.join("p.tdb"), 1).unwrap();
        w.append(rec(0, 5)).unwrap();
        assert!(matches!(
            w.append(rec(0, 5)),
            Err(StorageError::KeyOrder { .. })
        ));
        assert!(matches!(
            w.append(rec(0, 3)),
            Err(StorageError::KeyOrder { .. })
        ));
        let bad = AtomRecord::new(AtomKey::new(0, 9), 3, vec![0.0; 3 * ATOM_POINTS]).unwrap();
        assert!(matches!(
            w.append(bad),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_footer_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("p.tdb");
        let mut w = PartitionWriter::create(&path, 1).unwrap();
        w.append(rec(0, 1)).unwrap();
        w.finish().unwrap();
        // flip a byte in the trailer
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 2] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let mut reg = crate::device::DeviceRegistry::new();
        let dev = reg.register(crate::device::DeviceProfile::hdd_array());
        let r = PartitionReader::open(&path, 1, dev, Arc::new(BlockCache::new(1024)));
        assert!(matches!(r, Err(StorageError::Corrupt { .. })));
    }

    fn build_faulted(dir: &Path, keys: &[(u32, u64)], plan: Arc<FaultPlan>) -> PartitionReader {
        let path = dir.join("part_f.tdb");
        let mut w = PartitionWriter::create(&path, 1).unwrap();
        for &(ts, z) in keys {
            w.append(rec(ts, z)).unwrap();
        }
        w.finish().unwrap();
        let mut reg = crate::device::DeviceRegistry::new();
        let dev = reg.register(crate::device::DeviceProfile::hdd_array());
        let pool = Arc::new(BlockCache::with_faults(1 << 20, Some(plan)));
        PartitionReader::open(&path, 1, dev, pool).unwrap()
    }

    #[test]
    fn transient_faults_retry_to_byte_identical_scan() {
        let dir = tmpdir("transient");
        let keys: Vec<(u32, u64)> = (0u32..200).map(|i| (0, u64::from(i))).collect();
        // p = 0.4 per attempt: a block only fails outright if three
        // consecutive rolls fire (6.4%); seed 66 clears every block here.
        let plan = FaultPlan::new(66)
            .with_rule(FaultRule::transient_reads(0.4))
            .shared();
        let faulted = build_faulted(&dir, &keys, plan.clone());
        let clean = build(&dir, &keys);
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 199);
        let mut sf = IoSession::new();
        let got = faulted.scan_range(lo, hi, &mut sf).unwrap();
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        assert_eq!(got, want, "retried scan must be byte-identical");
        assert!(plan.counts().transient > 0, "some faults must have fired");
        assert!(
            sf.injected_delay_s > 0.0,
            "retry backoff must show up in the modelled time"
        );
    }

    #[test]
    fn exhausted_retries_surface_a_transient_error() {
        let dir = tmpdir("exhausted");
        let keys: Vec<(u32, u64)> = (0u32..10).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::transient_reads(1.0))
            .shared();
        let r = build_faulted(&dir, &keys, plan);
        let mut s = IoSession::new();
        let e = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(0, 9), &mut s)
            .unwrap_err();
        assert!(e.is_transient(), "error class survives retry exhaustion");
        assert!(e.to_string().contains("block_read"), "{e}");
    }

    #[test]
    fn injected_corruption_names_the_file_and_block() {
        let dir = tmpdir("injcorrupt");
        let keys: Vec<(u32, u64)> = (0u32..10).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::corrupt_block(1, 0))
            .shared();
        let r = build_faulted(&dir, &keys, plan);
        let mut s = IoSession::new();
        let e = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(0, 9), &mut s)
            .unwrap_err();
        assert!(matches!(e, StorageError::Corrupt { .. }));
        let msg = e.to_string();
        assert!(
            msg.contains("part_f.tdb") && msg.contains("block 0"),
            "{msg}"
        );
    }

    #[test]
    fn latency_faults_charge_modelled_delay_only() {
        let dir = tmpdir("latency");
        let keys: Vec<(u32, u64)> = (0u32..50).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::slow_reads(1.0, 0.01))
            .shared();
        let r = build_faulted(&dir, &keys, plan);
        let mut s = IoSession::new();
        let got = r
            .scan_range(AtomKey::new(0, 0), AtomKey::new(0, 49), &mut s)
            .unwrap();
        assert_eq!(got.len(), 50, "latency faults never lose data");
        let expected = 0.01 * s.pool_misses as f64;
        assert!(
            (s.injected_delay_s - expected).abs() < 1e-9,
            "one delay per faulted miss: {} vs {expected}",
            s.injected_delay_s
        );
        // pool hits skip the plan entirely
        let mut s2 = IoSession::new();
        r.scan_range(AtomKey::new(0, 0), AtomKey::new(0, 49), &mut s2)
            .unwrap();
        assert_eq!(s2.injected_delay_s, 0.0);
    }

    // Smooth in lattice coordinates, matching the sub-sampled spatial codec.
    fn smooth_rec(ts: u32, zidx: u64) -> AtomRecord {
        let data = (0..ATOM_POINTS)
            .map(|i| {
                let (x, y, z) = (i % 8, (i / 8) % 8, i / 64);
                let phase = zidx as f64 * 0.05 + ts as f64 * 0.1;
                ((x as f64 * 0.25 + phase).sin() * (y as f64 * 0.2).cos() + 0.1 * z as f64) as f32
            })
            .collect();
        AtomRecord::new(AtomKey::new(ts, zidx), 1, data).unwrap()
    }

    fn build_codec(
        dir: &Path,
        name: &str,
        keys: &[(u32, u64)],
        codec: CompressionConfig,
    ) -> PartitionReader {
        let path = dir.join(format!("{name}.tdb"));
        let mut w = PartitionWriter::create_with(&path, 1, codec).unwrap();
        for &(ts, z) in keys {
            w.append(smooth_rec(ts, z)).unwrap();
        }
        w.finish().unwrap();
        let mut reg = crate::device::DeviceRegistry::new();
        let dev = reg.register(crate::device::DeviceProfile::hdd_array());
        PartitionReader::open(&path, 1, dev, Arc::new(BlockCache::new(1 << 22))).unwrap()
    }

    #[test]
    fn lossless_partition_scan_is_bitwise_identical_and_charges_fewer_bytes() {
        let dir = tmpdir("lossless");
        let keys: Vec<(u32, u64)> = (0u32..120).map(|i| (0, u64::from(i))).collect();
        let clean = build_codec(&dir, "clean", &keys, CompressionConfig::default());
        let comp = build_codec(&dir, "lossless", &keys, CompressionConfig::lossless());
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 119);
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        let mut sf = IoSession::new();
        let got = comp.scan_range(lo, hi, &mut sf).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.key, b.key);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(
            sf.total_bytes() < sc.total_bytes(),
            "compressed cold scan must move fewer device bytes: {} vs {}",
            sf.total_bytes(),
            sc.total_bytes()
        );
    }

    #[test]
    fn lossy_partition_scan_stays_within_bound_and_beats_4x() {
        let dir = tmpdir("lossy");
        let keys: Vec<(u32, u64)> = (0u32..120).map(|i| (0, u64::from(i))).collect();
        let bound = 1e-3;
        let clean = build_codec(&dir, "clean4x", &keys, CompressionConfig::default());
        let comp = build_codec(&dir, "lossy4x", &keys, CompressionConfig::lossy(2, bound));
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 119);
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        let mut sf = IoSession::new();
        let got = comp.scan_range(lo, hi, &mut sf).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            for (x, y) in a.data.iter().zip(&b.data) {
                assert!((f64::from(*x) - f64::from(*y)).abs() <= bound);
            }
        }
        assert!(
            sf.total_bytes() * 4 <= sc.total_bytes(),
            "lossy cold scan must move ≥4× fewer device bytes: {} vs {}",
            sf.total_bytes(),
            sc.total_bytes()
        );
    }

    #[test]
    fn transient_faults_on_compressed_partition_retry_byte_identical() {
        let dir = tmpdir("comp_transient");
        let keys: Vec<(u32, u64)> = (0u32..150).map(|i| (0, u64::from(i))).collect();
        let plan = FaultPlan::new(66)
            .with_rule(FaultRule::transient_reads(0.4))
            .shared();
        let path = dir.join("comp_f.tdb");
        let mut w = PartitionWriter::create_with(&path, 1, CompressionConfig::lossless()).unwrap();
        for &(ts, z) in &keys {
            w.append(smooth_rec(ts, z)).unwrap();
        }
        w.finish().unwrap();
        let mut reg = crate::device::DeviceRegistry::new();
        let dev = reg.register(crate::device::DeviceProfile::hdd_array());
        let pool = Arc::new(BlockCache::with_faults(1 << 22, Some(plan.clone())));
        let faulted = PartitionReader::open(&path, 1, dev, pool).unwrap();
        let clean = build_codec(&dir, "comp_c", &keys, CompressionConfig::lossless());
        let lo = AtomKey::new(0, 0);
        let hi = AtomKey::new(0, 149);
        let mut sf = IoSession::new();
        let got = faulted.scan_range(lo, hi, &mut sf).unwrap();
        let mut sc = IoSession::new();
        let want = clean.scan_range(lo, hi, &mut sc).unwrap();
        assert_eq!(got, want, "retried compressed scan must be byte-identical");
        assert!(plan.counts().transient > 0, "some faults must have fired");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn scan_matches_reference_model(
            zs in prop::collection::btree_set(0u64..500, 1..80),
            lo in 0u64..500, span in 0u64..500,
        ) {
            let dir = tmpdir("prop");
            let keys: Vec<(u32, u64)> = zs.iter().map(|&z| (0, z)).collect();
            let r = build(&dir, &keys);
            let hi = lo.saturating_add(span);
            let mut s = IoSession::new();
            let got: Vec<u64> = r
                .scan_range(AtomKey::new(0, lo), AtomKey::new(0, hi), &mut s)
                .unwrap()
                .into_iter()
                .map(|rec| rec.key.zindex)
                .collect();
            let expect: Vec<u64> = zs.iter().copied().filter(|&z| z >= lo && z <= hi).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
