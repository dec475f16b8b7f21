//! Incremental CRC-32 (IEEE 802.3, reflected, as `cksum -o 3`/zlib).
//!
//! The load generator folds every reply byte of a connection into one
//! running checksum instead of decoding replies in the timed loop; the
//! set-up oracle folds the bytes an in-process service would have sent.
//! Equal checksums mean byte-identical reply streams.

const TABLE: [u32; 256] = table();

const fn table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// A running CRC-32 that can be fed in arbitrary chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(!0)
    }
}

impl Crc32 {
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of everything fed so far.
    pub fn value(self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        let mut crc = Crc32::default();
        crc.update(b"123456789");
        assert_eq!(crc.value(), 0xCBF4_3926);
        assert_eq!(Crc32::default().value(), 0);
    }

    #[test]
    fn folding_in_chunks_equals_folding_at_once() {
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut whole = Crc32::default();
        whole.update(&bytes);
        for chunk in [1, 7, 64, 4096] {
            let mut folded = Crc32::default();
            for part in bytes.chunks(chunk) {
                folded.update(part);
            }
            assert_eq!(folded, whole, "chunk size {chunk}");
        }
        // Same value the write-ahead log computes for its records.
        assert_eq!(whole.value(), spequlos::wal::crc32(&bytes));
    }
}
