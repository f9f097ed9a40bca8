//! Atomic daemon checkpoints.
//!
//! A checkpoint is everything a learner needs to resume mid-stream
//! **bit-identically**: the model bytes (the `ncl_snn::serialize`
//! format), the replay buffer with every latent entry RLE-encoded, the
//! stream cursor, the daemon version counter and the rolling digest of
//! the applied-event log. The file format is little-endian with a
//! versioned magic and a trailing CRC-32 over everything before it, so a
//! *single corrupted byte anywhere* fails the restore — a damaged
//! checkpoint can never load a wrong model or a wrong buffer silently.
//! Writes go through a uniquely named temp file plus rename (the
//! `serialize::to_file` discipline), so a crash mid-write leaves the
//! previous checkpoint intact.
//!
//! RLE is the right codec here: latent rasters are sparse, the encoding
//! is exact (unlike the lossy decimation codec the *store* uses for its
//! memory budget), and the strict [`RleRaster::decode`] turns any payload
//! damage that slips past the CRC into a hard error.

use bytes::{Buf, BufMut};
use ncl_snn::{serialize, Network};
use ncl_spike::codec::CompressionFactor;
use ncl_spike::memory::Alignment;
use ncl_spike::rle::RleRaster;
use replay4ncl::buffer::{LatentEntry, LatentReplayBuffer};

use crate::error::OnlineError;

/// Magic + version prefix of the checkpoint format.
pub const MAGIC: &[u8; 8] = b"NCLOLCK1";

/// The resumable daemon state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Daemon model version (1 = the pretrained model, +1 per increment).
    pub version: u64,
    /// Next stream sequence number to consume.
    pub cursor: u64,
    /// Rolling FNV-1a digest of the applied-event log.
    pub event_digest: u64,
    /// Digest of every determinism-relevant daemon config field (see
    /// `OnlineConfig::determinism_digest`). A resume with a drifted
    /// config — different seed, epochs, method, thresholds, budget —
    /// would silently break the bit-identical-resume contract, so the
    /// digest is stored and checked instead.
    pub config_digest: u64,
    /// Classes learned so far, sorted.
    pub known_classes: Vec<u16>,
    /// The serving network.
    pub network: Network,
    /// The latent replay store.
    pub buffer: LatentReplayBuffer,
    /// Captured novel-class latents still below the arrival threshold —
    /// persisted so a checkpoint taken mid-arrival resumes to exactly the
    /// same state an uninterrupted run reaches (the cursor has already
    /// passed these events; dropping them would change when the next
    /// increment fires).
    pub pending: Vec<(u16, ncl_spike::SpikeRaster)>,
}

/// Slicing-by-8 lookup tables for CRC-32 (IEEE, reflected polynomial
/// `0xEDB8_8320`): the first is the classic byte-at-a-time table, and
/// table `k` maps a byte to the CRC register after that byte is
/// followed by `k` zero bytes, so eight lookups fold one 8-byte word.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut base = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        base[i] = crc;
        i += 1;
    }
    let mut tables = [base; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE, reflected). Detects every single-byte corruption, which
/// is the guarantee the corrupt-one-byte restore tests pin down.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let byte = |word: u64, k: u32| ((word >> (8 * k)) & 0xFF) as usize;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for chunk in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let w = u64::from_le_bytes(word) ^ u64::from(crc);
        crc = t7[byte(w, 0)]
            ^ t6[byte(w, 1)]
            ^ t5[byte(w, 2)]
            ^ t4[byte(w, 3)]
            ^ t3[byte(w, 4)]
            ^ t2[byte(w, 5)]
            ^ t1[byte(w, 6)]
            ^ t0[byte(w, 7)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Splits a sealed encoding (a checkpoint or a delta) into its body and
/// the little-endian CRC-32 trailer it ends with; `None` when there are
/// fewer than 4 bytes.
pub(crate) fn split_crc(bytes: &[u8]) -> Option<(&[u8], u32)> {
    let (body, trailer) = bytes.split_at(bytes.len().checked_sub(4)?);
    let crc = trailer
        .iter()
        .rev()
        .fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
    Some((body, crc))
}

/// Checks a sealed encoding's trailer against the CRC of its body and
/// returns the body.
pub(crate) fn verify_crc(bytes: &[u8]) -> Result<&[u8], OnlineError> {
    let (body, stored_crc) = split_crc(bytes).ok_or_else(|| bad("shorter than its checksum"))?;
    let actual_crc = crc32(body);
    if stored_crc != actual_crc {
        return Err(bad(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    Ok(body)
}

fn alignment_tag(alignment: Alignment) -> u8 {
    match alignment {
        Alignment::Bit => 0,
        Alignment::Byte => 1,
        Alignment::Word32 => 2,
    }
}

fn alignment_from_tag(tag: u8) -> Result<Alignment, OnlineError> {
    match tag {
        0 => Ok(Alignment::Bit),
        1 => Ok(Alignment::Byte),
        2 => Ok(Alignment::Word32),
        other => Err(bad(format!("unknown alignment tag {other}"))),
    }
}

pub(crate) fn bad(detail: impl Into<String>) -> OnlineError {
    OnlineError::Checkpoint {
        detail: detail.into(),
    }
}

pub(crate) fn need(buf: &&[u8], n: usize, what: &str) -> Result<(), OnlineError> {
    if buf.remaining() < n {
        return Err(bad(format!("truncated while reading {what}")));
    }
    Ok(())
}

/// Encodes one latent entry (label, original steps, codec factor,
/// RLE-coded frames) — the per-entry wire format shared by the full
/// checkpoint and the checkpoint delta's store tail.
pub(crate) fn write_entry(buf: &mut Vec<u8>, entry: &LatentEntry) {
    buf.put_u32_le(u32::from(entry.label()));
    buf.put_u64_le(entry.original_steps() as u64);
    match entry.codec_factor() {
        Some(factor) => {
            buf.put_u8(1);
            buf.put_u32_le(factor.get());
        }
        None => {
            buf.put_u8(0);
            buf.put_u32_le(0);
        }
    }
    RleRaster::encode(entry.frames()).write_into(buf);
}

/// Decodes one latent entry written by [`write_entry`]; `i` labels the
/// entry in error messages.
pub(crate) fn read_entry(buf: &mut &[u8], i: u64) -> Result<LatentEntry, OnlineError> {
    need(buf, 4 + 8 + 1 + 4, "entry header")?;
    let raw_label = buf.get_u32_le();
    let label = u16::try_from(raw_label)
        .map_err(|_| bad(format!("entry {i}: label {raw_label} overflows u16")))?;
    let original_steps = buf.get_u64_le() as usize;
    let has_factor = buf.get_u8();
    let factor_raw = buf.get_u32_le();
    let codec_factor = match has_factor {
        0 => None,
        1 => Some(CompressionFactor::new(factor_raw).map_err(|e| bad(format!("entry {i}: {e}")))?),
        other => return Err(bad(format!("entry {i}: bad factor flag {other}"))),
    };
    let rle = RleRaster::read_from(buf).map_err(|e| bad(format!("entry {i} frames: {e}")))?;
    let frames = rle
        .decode()
        .map_err(|e| bad(format!("entry {i} frames: {e}")))?;
    LatentEntry::from_parts(frames, original_steps, codec_factor, label)
        .map_err(|e| bad(format!("entry {i}: {e}")))
}

/// Encodes one pending novel-class latent (label + RLE-coded raster).
pub(crate) fn write_pending(buf: &mut Vec<u8>, label: u16, raster: &ncl_spike::SpikeRaster) {
    buf.put_u32_le(u32::from(label));
    RleRaster::encode(raster).write_into(buf);
}

/// Decodes one pending latent written by [`write_pending`].
pub(crate) fn read_pending(
    buf: &mut &[u8],
    i: u64,
) -> Result<(u16, ncl_spike::SpikeRaster), OnlineError> {
    need(buf, 4, "pending label")?;
    let raw_label = buf.get_u32_le();
    let label = u16::try_from(raw_label)
        .map_err(|_| bad(format!("pending {i}: label {raw_label} overflows u16")))?;
    let rle = RleRaster::read_from(buf).map_err(|e| bad(format!("pending {i} frames: {e}")))?;
    let raster = rle
        .decode()
        .map_err(|e| bad(format!("pending {i} frames: {e}")))?;
    Ok((label, raster))
}

/// Borrowed view of the resumable state — what [`Checkpoint::to_bytes`]
/// encodes, without requiring the daemon to clone its model, store and
/// pending pool first. `OnlineLearner` encodes through this view on
/// every increment; the owned [`Checkpoint`] exists for restores and
/// tests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckpointView<'a> {
    /// See [`Checkpoint::version`].
    pub version: u64,
    /// See [`Checkpoint::cursor`].
    pub cursor: u64,
    /// See [`Checkpoint::event_digest`].
    pub event_digest: u64,
    /// See [`Checkpoint::config_digest`].
    pub config_digest: u64,
    /// See [`Checkpoint::known_classes`].
    pub known_classes: &'a [u16],
    /// See [`Checkpoint::network`].
    pub network: &'a Network,
    /// See [`Checkpoint::buffer`].
    pub buffer: &'a LatentReplayBuffer,
    /// See [`Checkpoint::pending`].
    pub pending: &'a [(u16, ncl_spike::SpikeRaster)],
}

impl CheckpointView<'_> {
    /// Serializes the viewed state (magic, body, trailing CRC-32).
    #[must_use]
    pub fn to_bytes(self) -> Vec<u8> {
        let model = serialize::to_bytes(self.network);
        let mut buf = Vec::with_capacity(128 + model.len());
        buf.put_slice(MAGIC);
        buf.put_u64_le(self.version);
        buf.put_u64_le(self.cursor);
        buf.put_u64_le(self.event_digest);
        buf.put_u64_le(self.config_digest);
        buf.put_u32_le(self.known_classes.len() as u32);
        for &c in self.known_classes {
            buf.put_u32_le(u32::from(c));
        }
        buf.put_u64_le(model.len() as u64);
        buf.put_slice(&model);

        // Replay buffer: policy, then each entry with RLE-coded frames.
        buf.put_u8(alignment_tag(self.buffer.alignment()));
        match self.buffer.capacity_bits() {
            Some(bits) => {
                buf.put_u8(1);
                buf.put_u64_le(bits);
            }
            None => {
                buf.put_u8(0);
                buf.put_u64_le(0);
            }
        }
        buf.put_u64_le(self.buffer.len() as u64);
        for entry in self.buffer {
            write_entry(&mut buf, entry);
        }

        // Pending novel-class latents (captured, below the threshold).
        buf.put_u64_le(self.pending.len() as u64);
        for (label, raster) in self.pending {
            write_pending(&mut buf, *label, raster);
        }

        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf
    }

    /// Writes the viewed state atomically — see [`Checkpoint::write`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_atomically(path, &self.to_bytes())
    }
}

impl Checkpoint {
    /// Borrowed view of this checkpoint (encodes without cloning).
    #[must_use]
    pub(crate) fn view(&self) -> CheckpointView<'_> {
        CheckpointView {
            version: self.version,
            cursor: self.cursor,
            event_digest: self.event_digest,
            config_digest: self.config_digest,
            known_classes: &self.known_classes,
            network: &self.network,
            buffer: &self.buffer,
            pending: &self.pending,
        }
    }

    /// Serializes the checkpoint (magic, body, trailing CRC-32).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.view().to_bytes()
    }

    /// Restores a checkpoint from [`to_bytes`] output.
    ///
    /// [`to_bytes`]: Checkpoint::to_bytes
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Checkpoint`] for any malformed input: wrong
    /// magic, failed CRC, truncation, undecodable model bytes, corrupt
    /// RLE frames, inconsistent entry parts or an over-budget buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, OnlineError> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(bad("shorter than magic + checksum"));
        }
        let mut buf = verify_crc(bytes)?;
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(bad("bad magic (not an NCLOLCK1 checkpoint)"));
        }

        need(&buf, 8 * 4 + 4, "header")?;
        let version = buf.get_u64_le();
        let cursor = buf.get_u64_le();
        let event_digest = buf.get_u64_le();
        let config_digest = buf.get_u64_le();
        let known_count = buf.get_u32_le() as usize;
        need(&buf, 4 * known_count, "known classes")?;
        let mut known_classes = Vec::with_capacity(known_count);
        for _ in 0..known_count {
            let raw = buf.get_u32_le();
            let label =
                u16::try_from(raw).map_err(|_| bad(format!("label {raw} overflows u16")))?;
            known_classes.push(label);
        }
        let mut pairs = known_classes.iter().zip(known_classes.iter().skip(1));
        if !pairs.all(|(a, b)| a < b) {
            return Err(bad("known classes not strictly sorted"));
        }

        need(&buf, 8, "model length")?;
        let model_len = buf.get_u64_le();
        if model_len > buf.remaining() as u64 {
            return Err(bad(format!(
                "model length {model_len} exceeds the {} remaining bytes",
                buf.remaining()
            )));
        }
        let model_len = model_len as usize;
        let network = serialize::from_bytes(&buf[..model_len])
            .map_err(|e| bad(format!("model bytes: {e}")))?;
        buf = &buf[model_len..];

        need(&buf, 1 + 1 + 8 + 8, "buffer header")?;
        let alignment = alignment_from_tag(buf.get_u8())?;
        let has_capacity = buf.get_u8();
        let capacity_raw = buf.get_u64_le();
        let capacity_bits = match has_capacity {
            0 => None,
            1 => Some(capacity_raw),
            other => return Err(bad(format!("bad capacity flag {other}"))),
        };
        let entry_count = buf.get_u64_le();
        // Each entry carries at least its fixed fields + an RLE header.
        if entry_count > buf.remaining() as u64 {
            return Err(bad(format!(
                "implausible entry count {entry_count} for {} remaining bytes",
                buf.remaining()
            )));
        }
        let mut entries = Vec::with_capacity(entry_count as usize);
        for i in 0..entry_count {
            entries.push(read_entry(&mut buf, i)?);
        }
        let buffer = LatentReplayBuffer::from_entries(alignment, capacity_bits, entries)
            .map_err(|e| bad(format!("buffer snapshot: {e}")))?;

        need(&buf, 8, "pending count")?;
        let pending_count = buf.get_u64_le();
        if pending_count > buf.remaining() as u64 {
            return Err(bad(format!(
                "implausible pending count {pending_count} for {} remaining bytes",
                buf.remaining()
            )));
        }
        let mut pending = Vec::with_capacity(pending_count as usize);
        for i in 0..pending_count {
            pending.push(read_pending(&mut buf, i)?);
        }
        if !buf.is_empty() {
            return Err(bad(format!(
                "{} trailing bytes after pending latents",
                buf.len()
            )));
        }

        Ok(Checkpoint {
            version,
            cursor,
            event_digest,
            config_digest,
            known_classes,
            network,
            buffer,
            pending,
        })
    }

    /// Writes the checkpoint atomically: a uniquely named sibling temp
    /// file, then a rename — a reader (or a crash) never observes a
    /// half-written checkpoint.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_atomically(path, &self.to_bytes())
    }

    /// Reads a checkpoint written by [`write`].
    ///
    /// [`write`]: Checkpoint::write
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Io`] for unreadable files and
    /// [`OnlineError::Checkpoint`] for malformed bytes.
    pub fn read(path: &std::path::Path) -> Result<Self, OnlineError> {
        let bytes = std::fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
    }
}

/// Durable atomic file replacement: a uniquely named sibling temp file,
/// fsync'd before the rename, with the directory fsync'd after it —
/// without both, a power loss shortly after an increment can surface the
/// renamed checkpoint with truncated contents (the CRC would catch it,
/// but the daemon's durable history would be gone, the exact crash this
/// module claims to survive). A failed write removes its temp sibling,
/// since ingest treats checkpoint failures as warnings and would
/// otherwise leak one .tmp per increment.
fn write_atomically(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(
        "{file_name}.{}.{}.tmp",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
        return result;
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::File::open(dir).and_then(|d| d.sync_all()).ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_snn::NetworkConfig;
    use ncl_spike::codec;
    use ncl_spike::SpikeRaster;

    fn sample_checkpoint() -> Checkpoint {
        let network = Network::new(NetworkConfig::tiny(8, 3)).unwrap();
        let mut buffer = LatentReplayBuffer::with_capacity_bits(Alignment::Byte, 8_192);
        for i in 0..5u16 {
            let act =
                SpikeRaster::from_fn(6, 10, |n, t| (n * 5 + t * 3 + i as usize).is_multiple_of(4));
            buffer.push(LatentEntry::reduced(act, 25, i % 3));
        }
        // One codec entry exercises the factor path.
        let act = SpikeRaster::from_fn(6, 20, |n, t| (n + t) % 3 == 0);
        buffer.push(LatentEntry::compressed(
            codec::compress(&act, CompressionFactor::new(2).unwrap()),
            2,
        ));
        // Two pending novel-class latents below the arrival threshold.
        let pending = vec![
            (
                9u16,
                SpikeRaster::from_fn(6, 10, |n, t| (n + 2 * t) % 5 == 0),
            ),
            (9u16, SpikeRaster::from_fn(6, 10, |n, t| (n * t) % 7 == 1)),
        ];
        Checkpoint {
            version: 3,
            cursor: 41,
            event_digest: 0xDEAD_BEEF_CAFE_F00D,
            config_digest: 0x5EED_C0DE_0051_7E57,
            known_classes: vec![0, 1, 2],
            network,
            buffer,
            pending,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let restored = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(restored, ckpt);
        // Re-encoding the restore is byte-identical (the checkpoint is a
        // canonical form).
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        // Exhaustive: flip one bit of every byte. The CRC (or, for the
        // trailing CRC field itself, the mismatch against the body) must
        // catch each one — never a silent wrong restore.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                Checkpoint::from_bytes(&corrupt).is_err(),
                "corruption at byte {i}/{} was accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [0, 5, 11, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        let mut extended = bytes;
        extended.extend_from_slice(&[0u8; 3]);
        assert!(Checkpoint::from_bytes(&extended).is_err());
        assert!(Checkpoint::from_bytes(b"NCLOLCK1 but nonsense").is_err());
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let dir = std::env::temp_dir().join("ncl-online-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.ckpt");
        let ckpt = sample_checkpoint();
        ckpt.write(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), ckpt);
        // No temp sibling lingers.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0);
        assert!(Checkpoint::read(&dir.join("missing.ckpt")).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// The bitwise CRC-32 (one shift per bit): the reference the
    /// table-driven [`crc32`] must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC-32 of "123456789".
        for crc in [crc32, crc32_bitwise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    proptest::proptest! {
        /// The table-driven CRC equals the bitwise reference. Every case
        /// also checks the prefixes that drop up to 8 trailing bytes, so
        /// each tail length 0-7 after the 8-byte words is covered.
        #[test]
        fn table_crc_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..1025),
        ) {
            for n in bytes.len().saturating_sub(8)..=bytes.len() {
                proptest::prop_assert_eq!(crc32(&bytes[..n]), crc32_bitwise(&bytes[..n]));
            }
        }
    }

    #[test]
    fn unbounded_buffer_round_trips_and_tight_budgets_reject() {
        // An unbounded-store checkpoint round-trips with the capacity
        // flag clear.
        let mut ckpt = sample_checkpoint();
        let entries: Vec<LatentEntry> = ckpt.buffer.iter().cloned().collect();
        ckpt.buffer =
            LatentReplayBuffer::from_entries(Alignment::Byte, None, entries.clone()).unwrap();
        let restored = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(restored.buffer.capacity_bits(), None);
        assert_eq!(restored, ckpt);
        // A snapshot claiming a capacity its entries exceed is rejected —
        // the decoder's strict path for capacity-carrying snapshots.
        assert!(LatentReplayBuffer::from_entries(Alignment::Byte, Some(1), entries).is_err());
    }
}
