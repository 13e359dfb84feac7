//! 64-byte-aligned packed storage for device-arena payloads.
//!
//! The paper's §V-A layout argument is that a node's child-volume block is one
//! contiguous SoA run the GPU streams with coalesced transactions. The host
//! arenas built on top of this module reproduce that layout literally: each
//! node's block starts on a 64-byte boundary (one L1 sector / cache line on
//! both the simulated K40 and typical hosts), so a sweep over the block walks
//! a single linear, aligned run.
//!
//! [`AlignedF32`] stays in safe Rust: it over-allocates by one alignment unit,
//! skips to the first 64-byte boundary inside its own buffer, and never grows
//! afterwards — so the payload address (and its alignment) is stable for the
//! life of the value. Cloning re-packs, which re-establishes alignment in the
//! clone's own allocation.

/// Alignment of every packed payload, in bytes.
pub const ALIGN_BYTES: usize = 64;

/// The same alignment measured in `f32` lanes.
pub(crate) const ALIGN_F32: usize = ALIGN_BYTES / 4;

/// Round an `f32` offset up to the next 64-byte boundary.
#[inline]
pub fn align_up_f32(off: usize) -> usize {
    off.div_ceil(ALIGN_F32) * ALIGN_F32
}

/// An immutable packed `f32` buffer whose payload starts on a 64-byte boundary.
pub struct AlignedF32 {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl AlignedF32 {
    /// Pack `data` into a fresh buffer with a 64-byte-aligned payload.
    pub fn from_slice(data: &[f32]) -> Self {
        let mut buf: Vec<f32> = Vec::with_capacity(data.len() + ALIGN_F32);
        // A `Vec<f32>` is at least 4-byte aligned, so the byte skip to the
        // next 64-byte boundary is a whole number of f32 lanes. The buffer
        // never exceeds its initial capacity, so it never reallocates and the
        // alignment established here holds for the life of the value.
        let start = ((buf.as_ptr() as usize).wrapping_neg() % ALIGN_BYTES) / 4;
        buf.resize(start, 0.0);
        buf.extend_from_slice(data);
        Self { buf, start, len: data.len() }
    }

    /// Payload length in `f32` lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed payload. Its first element sits on a 64-byte boundary.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl Clone for AlignedF32 {
    fn clone(&self) -> Self {
        // Re-pack rather than bit-copy: the clone's allocation has its own
        // address, so the padding prefix must be recomputed.
        Self::from_slice(self.as_slice())
    }
}

impl PartialEq for AlignedF32 {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// The payload only, like `PartialEq`: the padding in front of it depends on
/// where the allocator happened to put the buffer.
impl std::fmt::Debug for AlignedF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips() {
        let data: Vec<f32> = (0..131).map(|i| i as f32 * 0.25).collect();
        let a = AlignedF32::from_slice(&data);
        assert_eq!(a.as_slice(), &data[..]);
        assert_eq!(a.len(), data.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn payload_is_64_byte_aligned() {
        for n in [1usize, 5, 16, 33, 1000] {
            let data = vec![1.0f32; n];
            let a = AlignedF32::from_slice(&data);
            assert_eq!(a.as_slice().as_ptr() as usize % ALIGN_BYTES, 0, "n = {n}");
        }
    }

    #[test]
    fn clone_preserves_payload_and_alignment() {
        let data: Vec<f32> = (0..77).map(|i| (i * i) as f32).collect();
        let a = AlignedF32::from_slice(&data);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_slice().as_ptr() as usize % ALIGN_BYTES, 0);
    }

    #[test]
    fn empty_payload_is_fine() {
        let a = AlignedF32::from_slice(&[]);
        assert!(a.is_empty());
        assert_eq!(a.as_slice(), &[] as &[f32]);
    }

    #[test]
    fn align_up_rounds_to_lane_multiples() {
        assert_eq!(align_up_f32(0), 0);
        assert_eq!(align_up_f32(1), 16);
        assert_eq!(align_up_f32(16), 16);
        assert_eq!(align_up_f32(17), 32);
    }
}
