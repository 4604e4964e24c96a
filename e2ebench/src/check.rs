//! Self-checking values: every value a client writes carries its key and a
//! checksum, and every read verifies both.
//!
//! Layout (little endian): `[key u64][version u64][sum u64][sum u64]...`,
//! where `sum = mix(key, version)` is repeated to the end of the value (the
//! last copy truncated). A value torn between two writes, misplaced to
//! another key or zeroed fails the check, and verifying costs one pass of
//! word compares.

/// Smallest value that holds a key, a version and one checksum byte.
pub const MIN_LEN: usize = 17;

fn mix(key: u64, version: u64) -> u64 {
    // splitmix64 finaliser over both words.
    let mut z = key ^ version.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill `out` with the value `version` of `key`.
pub fn encode(key: u64, version: u64, out: &mut [u8]) {
    assert!(out.len() >= MIN_LEN, "value too short to carry a checksum");
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&version.to_le_bytes());
    let sum = mix(key, version).to_le_bytes();
    for chunk in out[16..].chunks_mut(8) {
        chunk.copy_from_slice(&sum[..chunk.len()]);
    }
}

/// Why a value failed its check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The value names another key.
    WrongKey(u64),
    /// The checksum does not match the key and version.
    BadChecksum,
    /// The value has the wrong length.
    BadLength(usize),
}

/// Check that `value` is some version of `key`; returns the version.
pub fn verify(key: u64, value: &[u8], expected_len: usize) -> Result<u64, Mismatch> {
    if value.len() != expected_len || value.len() < MIN_LEN {
        return Err(Mismatch::BadLength(value.len()));
    }
    let word = |i: usize| u64::from_le_bytes(value[i..i + 8].try_into().expect("8 bytes"));
    let found = word(0);
    if found != key {
        return Err(Mismatch::WrongKey(found));
    }
    let version = word(8);
    let sum = mix(key, version).to_le_bytes();
    let ok = value[16..]
        .chunks(8)
        .all(|chunk| chunk == &sum[..chunk.len()]);
    if ok {
        Ok(version)
    } else {
        Err(Mismatch::BadChecksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_detection() {
        for len in [MIN_LEN, 100, 1000] {
            let mut v = vec![0u8; len];
            encode(42, 7, &mut v);
            assert_eq!(verify(42, &v, len), Ok(7));
            assert_eq!(verify(43, &v, len), Err(Mismatch::WrongKey(42)));
            let mut torn = v.clone();
            let mut other = vec![0u8; len];
            encode(42, 8, &mut other);
            let cut = 16 + (len - 16) / 2;
            torn[cut..].copy_from_slice(&other[cut..]);
            assert_eq!(verify(42, &torn, len), Err(Mismatch::BadChecksum));
            assert_eq!(verify(0, &vec![0u8; len], len), Err(Mismatch::BadChecksum));
            assert_eq!(
                verify(42, &v[..len - 1], len),
                Err(Mismatch::BadLength(len - 1))
            );
        }
    }
}
