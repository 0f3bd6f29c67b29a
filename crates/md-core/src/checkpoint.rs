//! Checkpoint snapshot/restore of [`ParticleSystem`] state.
//!
//! The harness supervisor (DESIGN.md §9) periodically captures the full
//! dynamic state of a run so a faulting segment can be rolled back and
//! retried without restarting from step 0. A checkpoint is *exact*: restore
//! followed by re-running a segment reproduces the uncheckpointed trajectory
//! bit for bit, because capture/restore round-trips every coordinate through
//! `f64` losslessly (both supported precisions embed exactly in `f64`).
//!
//! The byte format (for `encode`/`decode`) is deliberately trivial —
//! little-endian, fixed layout, no compression — so it can be written down
//! in one paragraph and parsed from anything:
//!
//! ```text
//! offset  size  field
//! 0       5     magic "MDCP1"
//! 5       8     step  (u64 LE)
//! 13      8     n     (u64 LE, atom count)
//! 21      8     box_len (f64 LE)
//! 29      8     mass    (f64 LE)
//! 37      24n   positions      (n × 3 × f64 LE)
//! 37+24n  24n   velocities     (n × 3 × f64 LE)
//! 37+48n  24n   accelerations  (n × 3 × f64 LE)
//! ```

use crate::system::ParticleSystem;
use vecmath::{Real, Vec3};

/// Magic prefix identifying the checkpoint byte format, version 1.
pub const MAGIC: &[u8; 5] = b"MDCP1";

/// Size in bytes of the fixed header that precedes the coordinate arrays.
pub const HEADER_BYTES: usize = 5 + 8 + 8 + 8 + 8;

/// A full snapshot of the dynamic state of one run at a step boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemCheckpoint {
    /// Completed integration steps at capture time.
    pub step: u64,
    pub positions: Vec<Vec3<f64>>,
    pub velocities: Vec<Vec3<f64>>,
    pub accelerations: Vec<Vec3<f64>>,
    pub box_len: f64,
    pub mass: f64,
}

impl SystemCheckpoint {
    /// Capture `sys` after `step` completed steps.
    pub fn capture<T: Real>(sys: &ParticleSystem<T>, step: u64) -> Self {
        let to_f64 = |vs: &[Vec3<T>]| vs.iter().map(|v| Vec3::from_f64(v.to_f64())).collect();
        Self {
            step,
            positions: to_f64(&sys.positions),
            velocities: to_f64(&sys.velocities),
            accelerations: to_f64(&sys.accelerations),
            box_len: sys.box_len.to_f64(),
            mass: sys.mass.to_f64(),
        }
    }

    pub fn n(&self) -> usize {
        self.positions.len()
    }

    /// Rebuild a particle system in precision `T` from this snapshot.
    pub fn restore<T: Real>(&self) -> ParticleSystem<T> {
        let from_f64 = |vs: &[Vec3<f64>]| vs.iter().map(|v| Vec3::from_f64(v.to_f64())).collect();
        ParticleSystem {
            positions: from_f64(&self.positions),
            velocities: from_f64(&self.velocities),
            accelerations: from_f64(&self.accelerations),
            box_len: T::from_f64(self.box_len),
            mass: T::from_f64(self.mass),
        }
    }

    /// Serialize to the MDCP1 byte format described in the module docs.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.n();
        let mut out = Vec::with_capacity(HEADER_BYTES + 3 * 24 * n);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&self.box_len.to_le_bytes());
        out.extend_from_slice(&self.mass.to_le_bytes());
        for array in [&self.positions, &self.velocities, &self.accelerations] {
            for v in array.iter() {
                out.extend_from_slice(&v.x.to_le_bytes());
                out.extend_from_slice(&v.y.to_le_bytes());
                out.extend_from_slice(&v.z.to_le_bytes());
            }
        }
        out
    }

    /// Serialize one contiguous atom range — a spatial domain under the
    /// cluster engine's slab decomposition — as raw coordinate bytes:
    /// `len × 24` bytes each of positions, velocities, accelerations, in
    /// MDCP1 field order and endianness but without the header (the owner
    /// of the full checkpoint already has it). This is the wire payload of
    /// one halo/migration message.
    pub fn encode_domain(&self, start: usize, len: usize) -> Vec<u8> {
        let end = (start + len).min(self.n());
        let start = start.min(end);
        let mut out = Vec::with_capacity(3 * 24 * (end - start));
        for array in [&self.positions, &self.velocities, &self.accelerations] {
            for v in &array[start..end] {
                out.extend_from_slice(&v.x.to_le_bytes());
                out.extend_from_slice(&v.y.to_le_bytes());
                out.extend_from_slice(&v.z.to_le_bytes());
            }
        }
        out
    }

    /// FNV-1a checksum of [`Self::encode_domain`]'s payload for the range.
    /// Receivers of a halo/migration message recompute this to detect
    /// in-flight corruption; bit-exact state implies equal checksums.
    pub fn domain_checksum(&self, start: usize, len: usize) -> u64 {
        fnv1a(&self.encode_domain(start, len))
    }

    /// Parse the MDCP1 byte format.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_BYTES {
            return Err(CheckpointError::Truncated {
                expected: HEADER_BYTES,
                got: bytes.len(),
            });
        }
        if &bytes[..5] != MAGIC {
            let mut found = [0u8; 5];
            found.copy_from_slice(&bytes[..5]);
            return Err(CheckpointError::BadMagic { found });
        }
        let read_u64 = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let read_f64 = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            f64::from_le_bytes(b)
        };
        let step = read_u64(5);
        // Checked arithmetic: a hostile atom count whose payload length does
        // not fit a usize can match no buffer.
        let n_u64 = read_u64(13);
        let sized = usize::try_from(n_u64).ok().and_then(|n| {
            let len = n.checked_mul(3 * 24)?.checked_add(HEADER_BYTES)?;
            Some((n, len))
        });
        let Some((n, expected)) = sized else {
            return Err(CheckpointError::Truncated {
                expected: usize::MAX,
                got: bytes.len(),
            });
        };
        if bytes.len() != expected {
            return Err(CheckpointError::Truncated {
                expected,
                got: bytes.len(),
            });
        }
        let box_len = read_f64(21);
        let mass = read_f64(29);
        let mut arrays = [Vec::new(), Vec::new(), Vec::new()];
        let mut at = HEADER_BYTES;
        for array in &mut arrays {
            array.reserve_exact(n);
            for _ in 0..n {
                array.push(Vec3::new(read_f64(at), read_f64(at + 8), read_f64(at + 16)));
                at += 24;
            }
        }
        let [positions, velocities, accelerations] = arrays;
        Ok(Self {
            step,
            positions,
            velocities,
            accelerations,
            box_len,
            mass,
        })
    }
}

/// 64-bit FNV-1a over `bytes` — the same hash family the sweep cache uses
/// for file naming, kept here so checkpoint payload checksums need no
/// extra dependency.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Decode failures for the MDCP1 byte format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with `MDCP1`.
    BadMagic { found: [u8; 5] },
    /// The buffer length does not match the header's atom count.
    Truncated { expected: usize, got: usize },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic { found } => {
                write!(f, "checkpoint magic mismatch: found {found:?}, want MDCP1")
            }
            CheckpointError::Truncated { expected, got } => {
                write!(f, "checkpoint buffer is {got} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::params::SimConfig;

    fn sample_system() -> ParticleSystem<f64> {
        let config = SimConfig::reduced_lj(256);
        init::initialize(&config)
    }

    #[test]
    fn capture_restore_is_identity_f64() {
        let sys = sample_system();
        let cp = SystemCheckpoint::capture(&sys, 17);
        assert_eq!(cp.step, 17);
        assert_eq!(cp.n(), 256);
        let back: ParticleSystem<f64> = cp.restore();
        assert_eq!(back.positions, sys.positions);
        assert_eq!(back.velocities, sys.velocities);
        assert_eq!(back.accelerations, sys.accelerations);
        assert_eq!(back.box_len, sys.box_len);
        assert_eq!(back.mass, sys.mass);
    }

    #[test]
    fn capture_restore_is_identity_f32() {
        let sys32: ParticleSystem<f32> = sample_system().convert();
        let cp = SystemCheckpoint::capture(&sys32, 3);
        let back: ParticleSystem<f32> = cp.restore();
        // f32 embeds exactly in f64, so the round trip is bit-exact.
        assert_eq!(back.positions, sys32.positions);
        assert_eq!(back.velocities, sys32.velocities);
        assert_eq!(back.accelerations, sys32.accelerations);
    }

    #[test]
    fn encode_decode_round_trip() {
        let cp = SystemCheckpoint::capture(&sample_system(), 42);
        let bytes = cp.encode();
        assert_eq!(bytes.len(), HEADER_BYTES + 3 * 24 * 256);
        assert_eq!(&bytes[..5], MAGIC);
        let parsed = SystemCheckpoint::decode(&bytes).expect("round trip decodes");
        assert_eq!(parsed, cp);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = SystemCheckpoint::capture(&sample_system(), 0).encode();
        bytes[0] = b'X';
        assert!(matches!(
            SystemCheckpoint::decode(&bytes),
            Err(CheckpointError::BadMagic { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = SystemCheckpoint::capture(&sample_system(), 0).encode();
        assert!(matches!(
            SystemCheckpoint::decode(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated { .. })
        ));
        assert!(matches!(
            SystemCheckpoint::decode(&bytes[..10]),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    /// A 37-byte header claiming 2⁶¹ atoms: `72 · 2⁶¹` wraps to 0 in u64,
    /// so unchecked arithmetic would expect exactly the header and then ask
    /// `reserve_exact` for 2⁶¹ atoms (a capacity-overflow panic).
    #[test]
    fn decode_rejects_an_overflowing_atom_count() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        bytes.extend_from_slice(&10.0f64.to_le_bytes());
        bytes.extend_from_slice(&1.0f64.to_le_bytes());
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert!(matches!(
            SystemCheckpoint::decode(&bytes),
            Err(CheckpointError::Truncated { got: 37, .. })
        ));
    }

    #[test]
    fn domain_slices_tile_the_full_payload() {
        let cp = SystemCheckpoint::capture(&sample_system(), 9);
        // Uneven split: 256 atoms over 3 domains leaves a remainder slab.
        let cuts = [(0usize, 86usize), (86, 86), (172, 84)];
        let mut stitched = Vec::new();
        let mut per_array: [Vec<u8>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (start, len) in cuts {
            let bytes = cp.encode_domain(start, len);
            assert_eq!(bytes.len(), 3 * 24 * len);
            assert_eq!(cp.domain_checksum(start, len), fnv1a(&bytes));
            for (i, chunk) in bytes.chunks(24 * len).enumerate() {
                per_array[i].extend_from_slice(chunk);
            }
        }
        for arr in per_array {
            stitched.extend_from_slice(&arr);
        }
        assert_eq!(stitched, cp.encode_domain(0, cp.n()));
        // Out-of-range requests clamp instead of panicking.
        assert!(cp.encode_domain(300, 10).is_empty());
        assert_eq!(cp.encode_domain(250, 100).len(), 3 * 24 * 6);
    }

    #[test]
    fn domain_checksum_detects_single_bit_corruption() {
        let cp = SystemCheckpoint::capture(&sample_system(), 0);
        let clean = cp.domain_checksum(0, 64);
        let mut corrupted = cp.clone();
        corrupted.positions[5].y = f64::from_bits(corrupted.positions[5].y.to_bits() ^ 1);
        assert_ne!(corrupted.domain_checksum(0, 64), clean);
        // The corruption is outside this domain, so its checksum is clean.
        assert_eq!(
            corrupted.domain_checksum(64, 64),
            cp.domain_checksum(64, 64)
        );
    }

    #[test]
    fn errors_display() {
        let e = CheckpointError::BadMagic { found: *b"XXXXX" };
        assert!(e.to_string().contains("MDCP1"));
        let e = CheckpointError::Truncated {
            expected: 100,
            got: 3,
        };
        assert!(e.to_string().contains("100"));
    }
}
