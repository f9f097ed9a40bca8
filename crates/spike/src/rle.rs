//! Lossless run-length coding of spike trains — the natural comparison
//! point for the paper's lossy decimation codec.
//!
//! Sparse spike rasters compress well losslessly: per neuron, the gaps
//! between consecutive spikes are stored as variable-length integers.
//! This module exists to quantify the trade the paper makes: decimation
//! ([`crate::codec`]) achieves a *fixed, predictable* memory budget
//! (essential for embedded latent stores) at the cost of dropped frames,
//! while RLE is exact but content-dependent — a dense raster can even
//! expand. The Fig. 12 reproduction (`ncl-run --figure fig12`) can be
//! re-run against this codec to see why the paper chose decimation.

use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

use crate::error::SpikeError;
use crate::raster::SpikeRaster;

/// A losslessly run-length-coded raster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RleRaster {
    neurons: usize,
    steps: usize,
    /// Concatenated per-neuron gap streams, LEB128-style varints.
    payload: Vec<u8>,
    /// Byte offset of each neuron's stream in `payload`.
    offsets: Vec<u32>,
}

/// Encodes a value as a LEB128-style varint.
fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a varint; returns `(value, bytes_consumed)`.
///
/// Rejects payloads that cannot come from [`push_varint`]: truncated
/// streams, varints longer than 5 bytes, non-canonical overlong encodings
/// (a trailing zero continuation), and — the subtle one — a 5th byte
/// whose payload bits do not fit the 4 bits remaining in a `u32`. The
/// old decoder shifted that byte by 28 and silently discarded its top 3
/// bits, so an adversarial-but-terminated varint decoded to a *wrong
/// gap* instead of an error.
fn read_varint(buf: &[u8]) -> Result<(u32, usize), SpikeError> {
    let invalid = |detail: &str| SpikeError::InvalidParameter {
        what: "rle payload",
        detail: detail.into(),
    };
    let mut value = 0u32;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 32 {
            return Err(invalid("varint longer than 5 bytes"));
        }
        let payload = u32::from(byte & 0x7F);
        if shift > 32 - 7 && payload >> (32 - shift) != 0 {
            return Err(invalid("varint payload overflows 32 bits"));
        }
        if byte & 0x80 == 0 {
            if i > 0 && payload == 0 {
                return Err(invalid("overlong varint (trailing zero byte)"));
            }
            return Ok((value | (payload << shift), i + 1));
        }
        value |= payload << shift;
        shift += 7;
    }
    Err(invalid("truncated varint"))
}

impl RleRaster {
    /// Losslessly encodes a raster.
    #[must_use]
    pub fn encode(raster: &SpikeRaster) -> Self {
        let mut payload = Vec::new();
        let mut offsets = Vec::with_capacity(raster.neurons());
        for n in 0..raster.neurons() {
            offsets.push(payload.len() as u32);
            let mut last = 0usize; // gap is measured from the previous spike + 1
            let mut first = true;
            for t in 0..raster.steps() {
                if raster.get(n, t) {
                    let gap = if first { t } else { t - last - 1 };
                    push_varint(&mut payload, gap as u32);
                    last = t;
                    first = false;
                }
            }
            // Terminator: a gap that runs past the end marks stream end.
            push_varint(
                &mut payload,
                (raster.steps() - if first { 0 } else { last + 1 }) as u32 + 1,
            );
        }
        RleRaster {
            neurons: raster.neurons(),
            steps: raster.steps(),
            payload,
            offsets,
        }
    }

    /// Reassembles an encoded raster from its stored parts — the entry
    /// point for payloads read back from disk or a wire, which may be
    /// corrupt. Construction is cheap and unvalidated; [`decode`] performs
    /// the full strict validation and is the only way to get a raster
    /// back out, so a malformed reassembly can never produce a wrong
    /// raster silently.
    ///
    /// [`decode`]: RleRaster::decode
    #[must_use]
    pub fn from_parts(neurons: usize, steps: usize, payload: Vec<u8>, offsets: Vec<u32>) -> Self {
        RleRaster {
            neurons,
            steps,
            payload,
            offsets,
        }
    }

    /// The concatenated per-neuron gap streams.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Byte offset of each neuron's stream in the payload.
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of neurons.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Number of timesteps of the original raster.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Encoded payload size in bits (the latent-memory cost of this
    /// codec), including the per-neuron offset table.
    #[must_use]
    pub fn payload_bits(&self) -> u64 {
        (self.payload.len() as u64 + 4 * self.offsets.len() as u64) * 8
    }

    /// Appends the encoded raster to a byte stream (the persistence wire
    /// format): `u64 neurons`, `u64 steps`, `u64 payload length`, the
    /// per-neuron `u32` offsets, then the payload bytes — all
    /// little-endian. [`read_from`] is the strict inverse.
    ///
    /// [`read_from`]: RleRaster::read_from
    pub fn write_into(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.neurons as u64);
        buf.put_u64_le(self.steps as u64);
        buf.put_u64_le(self.payload.len() as u64);
        for &o in &self.offsets {
            buf.put_u32_le(o);
        }
        buf.put_slice(&self.payload);
    }

    /// The encoded raster as a standalone byte vector ([`write_into`] into
    /// a fresh buffer).
    ///
    /// [`write_into`]: RleRaster::write_into
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24 + 4 * self.offsets.len() + self.payload.len());
        self.write_into(&mut buf);
        buf
    }

    /// Reads one [`write_into`] frame from the front of `buf`, advancing it
    /// past the consumed bytes. The header is validated strictly
    /// (truncation, implausible dimensions, offsets outside the payload all
    /// fail) and the returned raster still goes through [`decode`]'s full
    /// payload validation — so corrupt persisted bytes surface as `Err`,
    /// never as a silently wrong raster.
    ///
    /// [`write_into`]: RleRaster::write_into
    /// [`decode`]: RleRaster::decode
    ///
    /// # Errors
    ///
    /// Returns [`SpikeError::InvalidParameter`] describing the first
    /// malformed field.
    pub fn read_from(buf: &mut &[u8]) -> Result<Self, SpikeError> {
        let invalid = |detail: String| SpikeError::InvalidParameter {
            what: "rle frame",
            detail,
        };
        let need = |buf: &&[u8], n: usize, what: &str| {
            if buf.remaining() < n {
                return Err(invalid(format!("truncated while reading {what}")));
            }
            Ok(())
        };
        need(buf, 24, "header")?;
        let neurons = buf.get_u64_le();
        let steps = buf.get_u64_le();
        let payload_len = buf.get_u64_le();
        // A terminator varint per neuron is at least one payload byte, so
        // any genuine encoding satisfies payload >= neurons; combined with
        // the remaining-bytes check this bounds every allocation below by
        // the input size.
        if neurons > buf.remaining() as u64 || steps > u64::from(u32::MAX) {
            return Err(invalid(format!(
                "implausible dimensions {neurons}x{steps} for {} remaining bytes",
                buf.remaining()
            )));
        }
        let neurons = neurons as usize;
        let steps = steps as usize;
        need(buf, 4 * neurons, "offset table")?;
        let mut offsets = Vec::with_capacity(neurons);
        for _ in 0..neurons {
            offsets.push(buf.get_u32_le());
        }
        if payload_len > buf.remaining() as u64 {
            return Err(invalid(format!(
                "payload length {payload_len} exceeds the {} remaining bytes",
                buf.remaining()
            )));
        }
        let payload_len = payload_len as usize;
        if let Some(&out) = offsets.iter().find(|&&o| o as usize > payload_len) {
            return Err(invalid(format!(
                "offset {out} outside the {payload_len}-byte payload"
            )));
        }
        let payload = buf[..payload_len].to_vec();
        *buf = &buf[payload_len..];
        Ok(RleRaster {
            neurons,
            steps,
            payload,
            offsets,
        })
    }

    /// Losslessly decodes back to the original raster.
    ///
    /// Decoding is strict: every neuron stream must consist of in-range
    /// gaps followed by exactly the canonical terminator [`encode`]
    /// writes, with no bytes left over. A corrupted payload therefore
    /// decodes to `Err`, never silently to a wrong raster — any byte
    /// change either breaks a varint, moves a spike out of range, or
    /// desynchronizes the terminator check.
    ///
    /// [`encode`]: RleRaster::encode
    ///
    /// # Errors
    ///
    /// Returns [`SpikeError::InvalidParameter`] if the payload or offset
    /// table is corrupted.
    pub fn decode(&self) -> Result<SpikeRaster, SpikeError> {
        let invalid = |detail: String| SpikeError::InvalidParameter {
            what: "rle payload",
            detail,
        };
        if self.offsets.len() != self.neurons {
            return Err(invalid(format!(
                "offset table has {} entries for {} neurons",
                self.offsets.len(),
                self.neurons
            )));
        }
        let mut raster = SpikeRaster::new(self.neurons, self.steps);
        for n in 0..self.neurons {
            let start = self.offsets[n] as usize;
            let end = self
                .offsets
                .get(n + 1)
                .map_or(self.payload.len(), |&o| o as usize);
            if start > end || end > self.payload.len() {
                return Err(invalid(format!(
                    "offset table entry {n} ({start}..{end}) outside payload"
                )));
            }
            let mut stream = &self.payload[start..end];
            let mut t = 0usize;
            let mut first = true;
            loop {
                if stream.is_empty() {
                    return Err(invalid(format!("neuron {n} stream missing terminator")));
                }
                let (gap, used) = read_varint(stream)?;
                stream = &stream[used..];
                let next = if first {
                    gap as usize
                } else {
                    t + 1 + gap as usize
                };
                if next == self.steps + 1 {
                    // The canonical terminator always lands exactly one
                    // past the raster end; a desynchronized stream cannot.
                    if !stream.is_empty() {
                        return Err(invalid(format!(
                            "neuron {n} has {} trailing bytes after terminator",
                            stream.len()
                        )));
                    }
                    break;
                }
                if next >= self.steps {
                    return Err(invalid(format!(
                        "neuron {n} spike at step {next} outside 0..{}",
                        self.steps
                    )));
                }
                raster.set(n, next, true);
                t = next;
                first = false;
            }
        }
        Ok(raster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_tensor::Rng;

    fn random_raster(neurons: usize, steps: usize, density: f64, seed: u64) -> SpikeRaster {
        let mut rng = Rng::seed_from_u64(seed);
        SpikeRaster::from_fn(neurons, steps, |_, _| rng.bernoulli(density))
    }

    #[test]
    fn wire_format_round_trips() {
        for (density, seed) in [(0.0, 11), (0.05, 12), (0.4, 13), (1.0, 14)] {
            let r = random_raster(19, 31, density, seed);
            let encoded = RleRaster::encode(&r);
            let bytes = encoded.to_bytes();
            let mut cursor = bytes.as_slice();
            let read = RleRaster::read_from(&mut cursor).unwrap();
            assert!(cursor.is_empty(), "frame fully consumed");
            assert_eq!(read, encoded);
            assert_eq!(read.decode().unwrap(), r, "density {density}");
        }
    }

    #[test]
    fn wire_format_frames_concatenate() {
        let a = RleRaster::encode(&random_raster(5, 9, 0.3, 1));
        let b = RleRaster::encode(&random_raster(7, 4, 0.6, 2));
        let mut buf = Vec::new();
        a.write_into(&mut buf);
        b.write_into(&mut buf);
        let mut cursor = buf.as_slice();
        assert_eq!(RleRaster::read_from(&mut cursor).unwrap(), a);
        assert_eq!(RleRaster::read_from(&mut cursor).unwrap(), b);
        assert!(cursor.is_empty());
    }

    #[test]
    fn wire_format_rejects_malformed_frames() {
        let r = random_raster(6, 12, 0.25, 3);
        let bytes = RleRaster::encode(&r).to_bytes();
        // Every strict prefix fails cleanly.
        for cut in [0, 7, 8, 16, 23, 24, bytes.len() - 1] {
            let mut cursor = &bytes[..cut];
            assert!(
                RleRaster::read_from(&mut cursor).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        // An offset pointing past the payload is rejected at read time
        // (not deferred to decode): byte 24 is the first offset's low
        // byte, and this raster's payload is well under 255 bytes.
        let mut bad_offset = bytes.clone();
        bad_offset[24] = 0xFF;
        assert!(RleRaster::read_from(&mut bad_offset.as_slice()).is_err());
        // Implausible dimensions are rejected before any allocation.
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(RleRaster::read_from(&mut huge.as_slice()).is_err());
        let mut long = bytes.clone();
        long[8..16].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert!(RleRaster::read_from(&mut long.as_slice()).is_err());
        // An oversold payload length is rejected.
        let mut oversold = bytes;
        oversold[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(RleRaster::read_from(&mut oversold.as_slice()).is_err());
    }

    #[test]
    fn round_trip_is_lossless() {
        for (density, seed) in [(0.0, 1), (0.02, 2), (0.2, 3), (0.9, 4), (1.0, 5)] {
            let r = random_raster(37, 53, density, seed);
            let decoded = RleRaster::encode(&r).decode().unwrap();
            assert_eq!(decoded, r, "density {density}");
        }
    }

    #[test]
    fn edge_patterns_round_trip() {
        // Spike at the very first and very last step.
        let mut r = SpikeRaster::new(3, 10);
        r.set(0, 0, true);
        r.set(1, 9, true);
        r.set(2, 0, true);
        r.set(2, 9, true);
        assert_eq!(RleRaster::encode(&r).decode().unwrap(), r);
        // All spikes.
        let full = SpikeRaster::from_fn(2, 8, |_, _| true);
        assert_eq!(RleRaster::encode(&full).decode().unwrap(), full);
        // Empty.
        let empty = SpikeRaster::new(4, 6);
        assert_eq!(RleRaster::encode(&empty).decode().unwrap(), empty);
    }

    #[test]
    fn sparse_rasters_compress_dense_rasters_expand() {
        let sparse = random_raster(100, 100, 0.01, 7);
        let rle = RleRaster::encode(&sparse);
        assert!(
            rle.payload_bits() < sparse.payload_bits(),
            "1% density must compress: {} vs {}",
            rle.payload_bits(),
            sparse.payload_bits()
        );

        let dense = random_raster(100, 100, 0.6, 8);
        let rle = RleRaster::encode(&dense);
        assert!(
            rle.payload_bits() > dense.payload_bits(),
            "60% density must expand: {} vs {}",
            rle.payload_bits(),
            dense.payload_bits()
        );
    }

    #[test]
    fn rle_is_content_dependent_decimation_is_not() {
        // The property that justifies the paper's choice: decimation's
        // footprint depends only on shape, RLE's on content.
        let a = random_raster(50, 100, 0.02, 9);
        let b = random_raster(50, 100, 0.3, 10);
        let dec = |r: &SpikeRaster| {
            crate::codec::compress(r, crate::codec::CompressionFactor::new(2).unwrap())
                .payload_bits()
        };
        assert_eq!(dec(&a), dec(&b), "decimation: fixed budget");
        assert_ne!(
            RleRaster::encode(&a).payload_bits(),
            RleRaster::encode(&b).payload_bits(),
            "rle: content-dependent"
        );
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let r = random_raster(4, 20, 0.3, 11);
        let mut rle = RleRaster::encode(&r);
        // Make every byte a continuation byte: the varint never terminates.
        rle.payload.iter_mut().for_each(|b| *b |= 0x80);
        assert!(rle.decode().is_err());
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        for v in [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
        assert!(read_varint(&[0x80]).is_err(), "truncated varint");
    }

    #[test]
    fn adversarial_varints_are_rejected() {
        // The regression: a terminated 5-byte varint whose 5th byte holds
        // payload bits beyond u32's remaining 4 bits. The old decoder
        // shifted by 28 and silently dropped the top 3 bits, decoding a
        // wrong value; now it must error.
        let overflowing = [0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(read_varint(&overflowing).is_err(), "5th-byte overflow");
        // Any non-zero bit in the 5th byte's upper nibble overflows.
        for fifth in [0x10u8, 0x20, 0x40, 0x70] {
            assert!(
                read_varint(&[0x80, 0x80, 0x80, 0x80, fifth]).is_err(),
                "payload bit {fifth:#x} beyond 32 bits accepted"
            );
        }
        // The largest canonical 5-byte varint still decodes.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        assert_eq!(read_varint(&max).unwrap(), (u32::MAX, 5));
        // Overlong encodings (trailing zero continuation) are rejected.
        assert!(read_varint(&[0x80, 0x00]).is_err(), "overlong zero");
        assert!(read_varint(&[0x81, 0x80, 0x00]).is_err(), "overlong tail");
        // More than 5 bytes of continuation is rejected, terminated or not.
        assert!(read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]).is_err());
        assert!(read_varint(&[]).is_err(), "empty stream");
    }

    #[test]
    fn structural_corruption_is_rejected_not_misdecoded() {
        let r = random_raster(6, 30, 0.25, 12);
        let clean = RleRaster::encode(&r);
        assert_eq!(clean.decode().unwrap(), r);

        // Chopping the final terminator byte: missing terminator.
        let mut truncated = clean.clone();
        truncated.payload.pop();
        assert!(truncated.decode().is_err(), "missing terminator accepted");

        // Appending garbage after the last neuron's terminator.
        let mut trailing = clean.clone();
        trailing.payload.push(0x00);
        assert!(trailing.decode().is_err(), "trailing byte accepted");

        // Corrupting a mid-stream gap desynchronizes the terminator and
        // must surface as an error — the old decoder treated the first
        // out-of-range position as a terminator and returned a wrong
        // raster.
        let mut skewed = clean.clone();
        skewed.payload[0] = skewed.payload[0].wrapping_add(1);
        let outcome = skewed.decode();
        assert!(
            outcome.is_err() || outcome.unwrap() == r,
            "corrupted gap silently decoded to a different raster"
        );

        // An offset table pointing outside the payload errors cleanly
        // instead of panicking.
        let mut bad_offsets = clean.clone();
        bad_offsets.offsets[2] = clean.payload.len() as u32 + 40;
        assert!(bad_offsets.decode().is_err(), "wild offset accepted");
        let mut short_table = clean;
        short_table.offsets.pop();
        assert!(short_table.decode().is_err(), "short offset table accepted");
    }

    #[test]
    fn empty_stream_for_neuron_is_rejected() {
        // A zero-length neuron stream (possible only through corruption:
        // even a spike-free neuron stores its terminator) must error.
        let r = SpikeRaster::new(2, 10);
        let mut rle = RleRaster::encode(&r);
        // Collapse neuron 1's stream to zero length.
        let cut = rle.offsets[1] as usize;
        rle.payload.truncate(cut);
        assert!(rle.decode().is_err());
    }
}
