//! Checkpoint deltas: the KB-scale replication unit between a learner
//! and its follower replicas.
//!
//! A Replay4NCL increment only touches the **learning-stage** weight
//! planes (insertion layer onward plus the readout), appends a handful
//! of new-class entries to the latent store (evicting a few old ones)
//! and drains the pending pool — the frozen backbone, which dominates
//! the model bytes, never moves. A [`CheckpointDelta`] encodes exactly
//! that difference between two consecutive [`Checkpoint`]s:
//!
//! * the changed weight planes, identified by their canonical
//!   visitation index (see [`ncl_snn::Network::visit_trainable`]);
//! * the store diff: a kept-bitmap over the base entries (eviction
//!   removes anywhere, push only appends, so the surviving base entries
//!   are a subsequence) plus the appended tail, entry-coded exactly as
//!   the full checkpoint codes them;
//! * the pending pool, replaced wholesale (it is tiny and usually
//!   empties on the very increment that published the delta);
//! * the scalar header (versions, cursor, digests, known classes).
//!
//! The format is sealed twice: a trailing CRC-32 over the delta bytes
//! (any single corrupted byte fails the decode) and a `target_crc` over
//! the **target checkpoint's full encoding** — [`CheckpointDelta::apply`]
//! re-encodes its result and refuses to return anything that is not
//! bit-identical to the checkpoint the learner published from. A
//! follower that applies a delta therefore holds *exactly* the
//! learner's bytes, or an error — never an approximation.
//!
//! Reconciliation contract: `apply` rejects a delta whose base version
//! is not the follower's current version with
//! [`OnlineError::DeltaMismatch`]; the replication layer reacts by
//! re-requesting a full checkpoint instead of guessing.

use bytes::{Buf, BufMut};
use ncl_snn::Network;
use replay4ncl::buffer::{LatentEntry, LatentReplayBuffer};

use crate::checkpoint::{bad, crc32, need, read_entry, read_pending, write_entry, write_pending};
use crate::checkpoint::{Checkpoint, MAGIC as CHECKPOINT_MAGIC};
use crate::error::OnlineError;

/// Magic + version prefix of the delta format.
pub const MAGIC: &[u8; 8] = b"NCLDLT01";

/// One changed trainable plane: its canonical visitation index (stage 0
/// order) and the full replacement values.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneUpdate {
    /// Index in the stage-0 visitation order.
    pub index: u32,
    /// Replacement parameter values for the whole plane.
    pub values: Vec<f32>,
}

/// The difference between two consecutive checkpoints. Built by
/// [`CheckpointDelta::between`], shipped as bytes, applied with
/// [`CheckpointDelta::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDelta {
    /// Version of the checkpoint this delta was built on.
    pub base_version: u64,
    /// Version of the checkpoint this delta produces (`> base_version`).
    pub version: u64,
    /// Target stream cursor.
    pub cursor: u64,
    /// Target rolling event digest.
    pub event_digest: u64,
    /// Config digest (must match the base's — a delta never crosses a
    /// configuration change).
    pub config_digest: u64,
    /// Target known-class list, sorted.
    pub known_classes: Vec<u16>,
    /// Changed weight planes, indices strictly increasing.
    pub planes: Vec<PlaneUpdate>,
    /// Number of entries in the base store (checked on apply).
    pub base_entry_count: u64,
    /// Which base entries survive, by position.
    pub kept: Vec<bool>,
    /// Entries appended after the kept base entries.
    pub tail: Vec<LatentEntry>,
    /// Target pending pool (full replacement).
    pub pending: Vec<(u16, ncl_spike::SpikeRaster)>,
    /// CRC-32 of the target checkpoint's full encoding — the
    /// bit-identity seal [`CheckpointDelta::apply`] verifies.
    pub target_crc: u32,
}

/// Collects every trainable plane of `network` (stage-0 visitation
/// order) as owned vectors. Stage 0 is valid for every network, but
/// the error is propagated rather than unwrapped — delta code runs on
/// the publish path, which must not panic.
fn collect_planes(network: &Network) -> Result<Vec<Vec<f32>>, OnlineError> {
    let mut planes = Vec::new();
    network
        .visit_trainable(0, |slice| planes.push(slice.to_vec()))
        .map_err(|e| bad(format!("visiting trainable planes: {e}")))?;
    Ok(planes)
}

/// Bitwise inequality over f32 planes (delta correctness is defined on
/// bytes, not on numeric equality semantics).
fn plane_differs(a: &[f32], b: &[f32]) -> bool {
    a.len() != b.len()
        || a.iter()
            .zip(b.iter())
            .any(|(x, y)| x.to_bits() != y.to_bits())
}

impl CheckpointDelta {
    /// Builds the delta turning `base` into `next`.
    ///
    /// The store diff matches `next`'s entries as a subsequence of
    /// `base`'s (the store's push-appends/evict-anywhere discipline
    /// guarantees this for real increments); if the subsequence match
    /// fails — the checkpoints are unrelated — the delta degrades to a
    /// full store replacement and stays correct, just not small.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Checkpoint`] if `next` does not advance
    /// `base` (version not increasing), the config digests differ, or
    /// the store policies (alignment, capacity) differ — none of which
    /// a consecutive-increment pair can produce.
    pub fn between(base: &Checkpoint, next: &Checkpoint) -> Result<Self, OnlineError> {
        if next.version <= base.version {
            return Err(bad(format!(
                "delta must advance the version: base v{}, next v{}",
                base.version, next.version
            )));
        }
        if next.config_digest != base.config_digest {
            return Err(bad(
                "delta across a config change: base and next disagree on the config digest",
            ));
        }
        if base.buffer.alignment() != next.buffer.alignment()
            || base.buffer.capacity_bits() != next.buffer.capacity_bits()
        {
            return Err(bad(
                "delta across a store-policy change: alignment or capacity differs",
            ));
        }

        let base_planes = collect_planes(&base.network)?;
        let next_planes = collect_planes(&next.network)?;
        if base_planes.len() != next_planes.len() {
            return Err(bad(
                "delta across an architecture change: plane counts differ",
            ));
        }
        let planes: Vec<PlaneUpdate> = base_planes
            .iter()
            .zip(next_planes.iter())
            .enumerate()
            .filter(|(_, (b, n))| plane_differs(b, n))
            .map(|(i, (_, n))| PlaneUpdate {
                index: i as u32,
                values: n.clone(),
            })
            .collect();

        // Greedy subsequence match of next's entries against base's.
        let base_entries: Vec<&LatentEntry> = base.buffer.iter().collect();
        let next_entries: Vec<&LatentEntry> = next.buffer.iter().collect();
        let mut kept = vec![false; base_entries.len()];
        let mut base_pos = 0usize;
        'outer: for entry in &next_entries {
            while base_pos < base_entries.len() {
                if base_entries[base_pos] == *entry {
                    kept[base_pos] = true;
                    base_pos += 1;
                    continue 'outer;
                }
                base_pos += 1;
            }
            break;
        }
        // Verify kept ++ tail reproduces next exactly; otherwise fall
        // back to a full replacement (kept = none, tail = everything).
        let kept_seq: Vec<&LatentEntry> = base_entries
            .iter()
            .zip(kept.iter())
            .filter(|(_, &k)| k)
            .map(|(e, _)| *e)
            .collect();
        let prefix_matches = kept_seq.len() <= next_entries.len()
            && kept_seq
                .iter()
                .zip(next_entries.iter())
                .all(|(a, b)| *a == *b);
        let (kept, tail_start) = if prefix_matches {
            (kept, kept_seq.len())
        } else {
            (vec![false; base_entries.len()], 0)
        };
        let tail: Vec<LatentEntry> = next_entries[tail_start..]
            .iter()
            .map(|e| (*e).clone())
            .collect();

        Ok(CheckpointDelta {
            base_version: base.version,
            version: next.version,
            cursor: next.cursor,
            event_digest: next.event_digest,
            config_digest: next.config_digest,
            known_classes: next.known_classes.clone(),
            planes,
            base_entry_count: base_entries.len() as u64,
            kept,
            tail,
            pending: next.pending.clone(),
            target_crc: crc32(&next.to_bytes()),
        })
    }

    /// Serializes the delta (magic, body, trailing CRC-32).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.put_slice(MAGIC);
        buf.put_u64_le(self.base_version);
        buf.put_u64_le(self.version);
        buf.put_u64_le(self.cursor);
        buf.put_u64_le(self.event_digest);
        buf.put_u64_le(self.config_digest);
        buf.put_u32_le(self.known_classes.len() as u32);
        for &c in &self.known_classes {
            buf.put_u32_le(u32::from(c));
        }
        buf.put_u32_le(self.planes.len() as u32);
        for plane in &self.planes {
            buf.put_u32_le(plane.index);
            buf.put_u64_le(plane.values.len() as u64);
            for &v in &plane.values {
                buf.put_f32_le(v);
            }
        }
        buf.put_u64_le(self.base_entry_count);
        // Kept-bitmap, LSB-first within each byte, padding bits zero.
        let mut byte = 0u8;
        for (i, &k) in self.kept.iter().enumerate() {
            if k {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                buf.put_u8(byte);
                byte = 0;
            }
        }
        if !self.kept.len().is_multiple_of(8) {
            buf.put_u8(byte);
        }
        buf.put_u64_le(self.tail.len() as u64);
        for entry in &self.tail {
            write_entry(&mut buf, entry);
        }
        buf.put_u64_le(self.pending.len() as u64);
        for (label, raster) in &self.pending {
            write_pending(&mut buf, *label, raster);
        }
        buf.put_u32_le(self.target_crc);
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf
    }

    /// Decodes a delta from [`to_bytes`] output. Strict: bad magic,
    /// failed CRC, truncation, non-increasing versions, unsorted
    /// classes, out-of-order planes, nonzero bitmap padding or trailing
    /// bytes all fail.
    ///
    /// [`to_bytes`]: CheckpointDelta::to_bytes
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Checkpoint`] describing the first problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, OnlineError> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(bad("shorter than magic + checksum"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        // split_at guarantees 4 trailing bytes; the fold keeps the
        // little-endian read panic-free all the same.
        let stored_crc = crc_bytes
            .iter()
            .rev()
            .fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            return Err(bad(format!(
                "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        let mut buf = body;
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(bad("bad magic (not an NCLDLT01 delta)"));
        }

        need(&buf, 8 * 5 + 4, "header")?;
        let base_version = buf.get_u64_le();
        let version = buf.get_u64_le();
        if version <= base_version {
            return Err(bad(format!(
                "delta does not advance the version: base v{base_version}, target v{version}"
            )));
        }
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

        need(&buf, 4, "plane count")?;
        let plane_count = buf.get_u32_le() as usize;
        let mut planes: Vec<PlaneUpdate> = Vec::with_capacity(plane_count.min(1024));
        for i in 0..plane_count {
            need(&buf, 4 + 8, "plane header")?;
            let index = buf.get_u32_le();
            if let Some(prev) = planes.last() {
                if index <= prev.index {
                    return Err(bad(format!(
                        "plane indices not strictly increasing: {} after {}",
                        index, prev.index
                    )));
                }
            }
            let len = buf.get_u64_le();
            if len
                .checked_mul(4)
                .is_none_or(|b| b > buf.remaining() as u64)
            {
                return Err(bad(format!(
                    "plane {i}: implausible length {len} for {} remaining bytes",
                    buf.remaining()
                )));
            }
            let mut values = Vec::with_capacity(len as usize);
            for _ in 0..len {
                values.push(buf.get_f32_le());
            }
            planes.push(PlaneUpdate { index, values });
        }

        need(&buf, 8, "base entry count")?;
        let base_entry_count = buf.get_u64_le();
        let bitmap_len = (base_entry_count as usize).div_ceil(8);
        need(&buf, bitmap_len, "kept bitmap")?;
        let mut kept = Vec::with_capacity(base_entry_count as usize);
        for i in 0..bitmap_len {
            let byte = buf.get_u8();
            let bits_here = (base_entry_count as usize - i * 8).min(8);
            if bits_here < 8 && byte >> bits_here != 0 {
                return Err(bad("nonzero padding bits in the kept bitmap"));
            }
            for b in 0..bits_here {
                kept.push(byte & (1 << b) != 0);
            }
        }

        need(&buf, 8, "tail count")?;
        let tail_count = buf.get_u64_le();
        if tail_count > buf.remaining() as u64 {
            return Err(bad(format!(
                "implausible tail count {tail_count} for {} remaining bytes",
                buf.remaining()
            )));
        }
        let mut tail = Vec::with_capacity(tail_count as usize);
        for i in 0..tail_count {
            tail.push(read_entry(&mut buf, i)?);
        }

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

        need(&buf, 4, "target crc")?;
        let target_crc = buf.get_u32_le();
        if !buf.is_empty() {
            return Err(bad(format!(
                "{} trailing bytes after target crc",
                buf.len()
            )));
        }

        Ok(CheckpointDelta {
            base_version,
            version,
            cursor,
            event_digest,
            config_digest,
            known_classes,
            planes,
            base_entry_count,
            kept,
            tail,
            pending,
            target_crc,
        })
    }

    /// Applies the delta to `base`, producing the target checkpoint.
    ///
    /// The result is verified against [`CheckpointDelta::target_crc`]:
    /// the returned checkpoint's encoding is **bit-identical** to the
    /// checkpoint the delta was built from, or this fails.
    ///
    /// # Errors
    ///
    /// * [`OnlineError::DeltaMismatch`] — `base.version` is not the
    ///   delta's base (out-of-order or cross-stream application); the
    ///   caller should fall back to fetching a full checkpoint.
    /// * [`OnlineError::Checkpoint`] — config-digest mismatch, bad plane
    ///   indices/shapes, inconsistent store diff, or a result that does
    ///   not reproduce the target bytes.
    pub fn apply(&self, base: &Checkpoint) -> Result<Checkpoint, OnlineError> {
        if base.version != self.base_version {
            return Err(OnlineError::DeltaMismatch {
                expected_base: base.version,
                got_base: self.base_version,
            });
        }
        if base.config_digest != self.config_digest {
            return Err(bad(format!(
                "config digest mismatch: base {:016x}, delta {:016x}",
                base.config_digest, self.config_digest
            )));
        }
        if base.buffer.len() as u64 != self.base_entry_count {
            return Err(bad(format!(
                "store mismatch: delta expects {} base entries, base holds {}",
                self.base_entry_count,
                base.buffer.len()
            )));
        }

        // Overwrite the changed planes on a copy of the base network.
        let mut plane_lens = Vec::new();
        base.network
            .visit_trainable(0, |slice| plane_lens.push(slice.len()))
            .map_err(|e| bad(format!("visiting trainable planes: {e}")))?;
        for plane in &self.planes {
            let Some(&len) = plane_lens.get(plane.index as usize) else {
                return Err(bad(format!(
                    "plane index {} out of range ({} planes)",
                    plane.index,
                    plane_lens.len()
                )));
            };
            if plane.values.len() != len {
                return Err(bad(format!(
                    "plane {}: {} values for a {}-parameter plane",
                    plane.index,
                    plane.values.len(),
                    len
                )));
            }
        }
        let mut network = base.network.clone();
        let mut plane_idx = 0u32;
        let mut updates = self.planes.iter().peekable();
        network
            .visit_trainable_mut(0, |slice| {
                if let Some(update) = updates.peek() {
                    if update.index == plane_idx {
                        slice.copy_from_slice(&update.values);
                        updates.next();
                    }
                }
                plane_idx += 1;
            })
            .map_err(|e| bad(format!("visiting trainable planes: {e}")))?;

        // Rebuild the store: surviving base entries in order + the tail,
        // through the strict constructor (budget re-checked).
        let mut entries: Vec<LatentEntry> = base
            .buffer
            .iter()
            .zip(self.kept.iter())
            .filter(|(_, &k)| k)
            .map(|(e, _)| e.clone())
            .collect();
        entries.extend(self.tail.iter().cloned());
        let buffer = LatentReplayBuffer::from_entries(
            base.buffer.alignment(),
            base.buffer.capacity_bits(),
            entries,
        )
        .map_err(|e| bad(format!("store diff: {e}")))?;

        let next = Checkpoint {
            version: self.version,
            cursor: self.cursor,
            event_digest: self.event_digest,
            config_digest: self.config_digest,
            known_classes: self.known_classes.clone(),
            network,
            buffer,
            pending: self.pending.clone(),
        };
        let encoded = next.to_bytes();
        debug_assert_eq!(&encoded[..8], &CHECKPOINT_MAGIC[..]);
        let actual = crc32(&encoded);
        if actual != self.target_crc {
            return Err(bad(format!(
                "applied delta does not reproduce the target checkpoint \
                 (crc {actual:#010x}, expected {:#010x})",
                self.target_crc
            )));
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_snn::NetworkConfig;
    use ncl_spike::memory::Alignment;
    use ncl_spike::SpikeRaster;
    use replay4ncl::buffer::LatentReplayBuffer;

    fn base_checkpoint() -> Checkpoint {
        let network = Network::new(NetworkConfig::tiny(8, 3)).unwrap();
        let mut buffer = LatentReplayBuffer::with_capacity_bits(Alignment::Byte, 16_384);
        for i in 0..6u16 {
            let act =
                SpikeRaster::from_fn(6, 10, |n, t| (n * 3 + t * 5 + i as usize).is_multiple_of(4));
            buffer.push(LatentEntry::reduced(act, 20, i % 3));
        }
        Checkpoint {
            version: 4,
            cursor: 100,
            event_digest: 0x1234_5678_9ABC_DEF0,
            config_digest: 0x0FED_CBA9_8765_4321,
            known_classes: vec![0, 1, 2],
            network,
            buffer,
            pending: vec![(7, SpikeRaster::from_fn(6, 10, |n, t| (n + t) % 5 == 0))],
        }
    }

    /// A plausible successor: learning-stage planes perturbed, one base
    /// entry evicted, two entries appended, pending drained, counters
    /// advanced.
    fn next_checkpoint(base: &Checkpoint) -> Checkpoint {
        let mut network = base.network.clone();
        network
            .visit_trainable_mut(1, |slice| {
                for v in slice.iter_mut() {
                    *v += 0.125;
                }
            })
            .unwrap();
        let mut entries: Vec<LatentEntry> = base.buffer.iter().cloned().collect();
        entries.remove(2);
        for i in 0..2u16 {
            let act =
                SpikeRaster::from_fn(6, 10, |n, t| (n * 7 + t + i as usize).is_multiple_of(3));
            entries.push(LatentEntry::reduced(act, 20, 7));
        }
        let buffer = LatentReplayBuffer::from_entries(
            base.buffer.alignment(),
            base.buffer.capacity_bits(),
            entries,
        )
        .unwrap();
        Checkpoint {
            version: base.version + 1,
            cursor: base.cursor + 9,
            event_digest: base.event_digest ^ 0xABCD,
            config_digest: base.config_digest,
            known_classes: vec![0, 1, 2, 7],
            network,
            buffer,
            pending: Vec::new(),
        }
    }

    #[test]
    fn between_apply_is_bit_identical() {
        let base = base_checkpoint();
        let next = next_checkpoint(&base);
        let delta = CheckpointDelta::between(&base, &next).unwrap();
        let applied = delta.apply(&base).unwrap();
        assert_eq!(applied, next);
        assert_eq!(applied.to_bytes(), next.to_bytes());
        // The diff really is partial: a frozen stage-0 plane exists, so
        // fewer planes ship than the network has.
        let mut total_planes = 0usize;
        base.network
            .visit_trainable(0, |_| total_planes += 1)
            .unwrap();
        assert!(delta.planes.len() < total_planes, "no plane was skipped");
        // And the delta is smaller than the full checkpoint.
        assert!(delta.to_bytes().len() < next.to_bytes().len());
    }

    #[test]
    fn round_trip_is_exact() {
        let base = base_checkpoint();
        let next = next_checkpoint(&base);
        let delta = CheckpointDelta::between(&base, &next).unwrap();
        let bytes = delta.to_bytes();
        let decoded = CheckpointDelta::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, delta);
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let base = base_checkpoint();
        let next = next_checkpoint(&base);
        let bytes = CheckpointDelta::between(&base, &next).unwrap().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                CheckpointDelta::from_bytes(&corrupt).is_err(),
                "corruption at byte {i}/{} was accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn base_version_mismatch_is_rejected() {
        let base = base_checkpoint();
        let next = next_checkpoint(&base);
        let delta = CheckpointDelta::between(&base, &next).unwrap();
        // A replica that already advanced past the base must not apply.
        let err = delta.apply(&next).unwrap_err();
        assert!(
            matches!(
                err,
                OnlineError::DeltaMismatch {
                    expected_base: 5,
                    got_base: 4
                }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn out_of_order_delta_is_rejected() {
        // Chain v4 -> v5 -> v6, then try applying the second delta to
        // the first base (skipping v5): the reconciliation layer must
        // see a hard DeltaMismatch and fall back to a full checkpoint.
        let base = base_checkpoint();
        let mid = next_checkpoint(&base);
        let tip = next_checkpoint(&mid);
        let second = CheckpointDelta::between(&mid, &tip).unwrap();
        let err = second.apply(&base).unwrap_err();
        assert!(matches!(
            err,
            OnlineError::DeltaMismatch {
                expected_base: 4,
                got_base: 5
            }
        ));
        // In order, the chain reproduces the tip bit-exactly.
        let first = CheckpointDelta::between(&base, &mid).unwrap();
        let applied = second.apply(&first.apply(&base).unwrap()).unwrap();
        assert_eq!(applied.to_bytes(), tip.to_bytes());
    }

    #[test]
    fn non_advancing_deltas_are_rejected() {
        let base = base_checkpoint();
        assert!(CheckpointDelta::between(&base, &base).is_err());
        let mut regressed = next_checkpoint(&base);
        regressed.version = base.version; // same version
        assert!(CheckpointDelta::between(&base, &regressed).is_err());
        // A decoded delta claiming version <= base_version fails too.
        let next = next_checkpoint(&base);
        let mut delta = CheckpointDelta::between(&base, &next).unwrap();
        delta.version = delta.base_version;
        assert!(CheckpointDelta::from_bytes(&delta.to_bytes()).is_err());
    }

    #[test]
    fn config_digest_mismatch_is_rejected() {
        let base = base_checkpoint();
        let mut next = next_checkpoint(&base);
        next.config_digest ^= 1;
        assert!(CheckpointDelta::between(&base, &next).is_err());
        // And a tampered (re-encoded) delta fails on apply.
        next.config_digest = base.config_digest;
        let mut delta = CheckpointDelta::between(&base, &next).unwrap();
        delta.config_digest ^= 1;
        let err = delta.apply(&base).unwrap_err();
        assert!(matches!(err, OnlineError::Checkpoint { .. }));
    }

    #[test]
    fn unrelated_stores_fall_back_to_full_replacement() {
        let base = base_checkpoint();
        let mut next = next_checkpoint(&base);
        // Replace the store with unrelated entries (not a subsequence).
        let entries: Vec<LatentEntry> = (0..3u16)
            .map(|i| {
                let act =
                    SpikeRaster::from_fn(6, 10, |n, t| (n + t * 2 + i as usize).is_multiple_of(2));
                LatentEntry::reduced(act, 20, i)
            })
            .collect();
        next.buffer = LatentReplayBuffer::from_entries(
            base.buffer.alignment(),
            base.buffer.capacity_bits(),
            entries,
        )
        .unwrap();
        let delta = CheckpointDelta::between(&base, &next).unwrap();
        assert!(delta.kept.iter().all(|&k| !k), "nothing should be kept");
        assert_eq!(delta.tail.len(), next.buffer.len());
        let applied = delta.apply(&base).unwrap();
        assert_eq!(applied.to_bytes(), next.to_bytes());
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let base = base_checkpoint();
        let next = next_checkpoint(&base);
        let bytes = CheckpointDelta::between(&base, &next).unwrap().to_bytes();
        for cut in [0, 7, 12, 44, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                CheckpointDelta::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        let mut extended = bytes;
        extended.extend_from_slice(&[0u8; 2]);
        assert!(CheckpointDelta::from_bytes(&extended).is_err());
    }
}
