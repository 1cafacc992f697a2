//! Channel packing (paper Fig. 5).
//!
//! daBNN's key layout trick: instead of storing a kernel channel-by-channel,
//! the bit at one *spatial position* of many channels is packed into a
//! single machine word. Loading one word then brings position `(r, c)` of 64
//! channels into a register at once, and the xnor-popcount inner product
//! over channels becomes a loop over lanes with no bit shuffling.
//!
//! Two packed containers are provided:
//!
//! * [`PackedKernel`] — weights `[K, C, KH, KW]` packed as
//!   `kernel[k][position][lane]`,
//! * [`PackedActivations`] — activations `[N, C, H, W]` packed as
//!   `act[n][y][x][lane]`.
//!
//! Both store channels along the lane dimension so that a kernel position
//! word and an activation pixel word line up channel-for-channel.

use crate::bitword::mask;
use crate::error::{BitnnError, Result};
use crate::tensor::BitTensor;
use crate::{lanes_for, LANE_BITS};

/// Channel-packed binary convolution kernel.
///
/// Layout: `data[((k * positions) + p) * lanes + l]` holds the bits of
/// channels `l*64 .. l*64+64` at spatial position `p = r * kw + c` of output
/// filter `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedKernel {
    filters: usize,
    channels: usize,
    kh: usize,
    kw: usize,
    lanes: usize,
    data: Vec<u64>,
}

impl PackedKernel {
    /// Pack a binary weight tensor of shape `[K, C, KH, KW]`.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if `weights` is not 4-D.
    pub fn pack(weights: &BitTensor) -> Result<Self> {
        let shape = weights.shape();
        if shape.len() != 4 {
            return Err(BitnnError::ShapeMismatch {
                expected: "4-D kernel [K, C, KH, KW]".into(),
                got: format!("{shape:?}"),
            });
        }
        let (k, c, kh, kw) = (shape[0], shape[1], shape[2], shape[3]);
        let lanes = lanes_for(c);
        let src = weights.words();
        let data = match kh * kw {
            _ if lanes == 0 => Vec::new(),
            1 => pack_pointwise(src, k, c, lanes),
            SEQ_BITS => pack_3x3(src, k, c, lanes),
            positions => pack_bitwise(src, k, c, positions, lanes),
        };
        Ok(PackedKernel {
            filters: k,
            channels: c,
            kh,
            kw,
            lanes,
            data,
        })
    }

    /// Build directly from channel-packed lane words — the layout a
    /// streaming decoder's packing unit emits (paper Fig. 6): for each
    /// filter and spatial position, `lanes_for(channels)` 64-bit words
    /// whose bit `j` of lane `l` is channel `l*64 + j`. This is the
    /// constructor the compressed-container inference path uses so a
    /// kernel goes stream → lane words → engine without ever
    /// materializing a flat `[K, C, KH, KW]` tensor.
    ///
    /// Bits beyond `channels` in the final lane are masked off, so the
    /// xnor-popcount kernels (which assume zero lane padding) stay exact
    /// even for a sloppy producer.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if any dimension is zero or
    /// `data.len() != filters * kh * kw * lanes_for(channels)`.
    pub fn from_lane_words(
        filters: usize,
        channels: usize,
        kh: usize,
        kw: usize,
        mut data: Vec<u64>,
    ) -> Result<Self> {
        if filters == 0 || channels == 0 || kh == 0 || kw == 0 {
            return Err(BitnnError::ShapeMismatch {
                expected: "non-zero kernel dimensions".into(),
                got: format!("[{filters}, {channels}, {kh}, {kw}]"),
            });
        }
        let lanes = lanes_for(channels);
        let want = filters * kh * kw * lanes;
        if data.len() != want {
            return Err(BitnnError::ShapeMismatch {
                expected: format!("{want} lane words"),
                got: format!("{}", data.len()),
            });
        }
        let tail_bits = channels % LANE_BITS;
        if tail_bits != 0 {
            let mask = (1u64 << tail_bits) - 1;
            for (i, w) in data.iter_mut().enumerate() {
                if i % lanes == lanes - 1 {
                    *w &= mask;
                }
            }
        }
        Ok(PackedKernel {
            filters,
            channels,
            kh,
            kw,
            lanes,
            data,
        })
    }

    /// Number of output filters `K`.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Number of input channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Kernel height.
    pub fn kh(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kw(&self) -> usize {
        self.kw
    }

    /// Number of 64-bit lanes per position.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane words for filter `k` at position `p` (length = `lanes()`).
    #[inline]
    pub fn position_lanes(&self, k: usize, p: usize) -> &[u64] {
        let base = (k * self.kh * self.kw + p) * self.lanes;
        &self.data[base..base + self.lanes]
    }

    /// Raw packed words.
    pub fn words(&self) -> &[u64] {
        &self.data
    }

    /// Total packed storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Unpack back to a flat [`BitTensor`] of shape `[K, C, KH, KW]`.
    pub fn unpack(&self) -> BitTensor {
        let mut t = BitTensor::zeros(&[self.filters, self.channels, self.kh, self.kw]);
        for f in 0..self.filters {
            for r in 0..self.kh {
                for col in 0..self.kw {
                    let p = r * self.kw + col;
                    let lanes = self.position_lanes(f, p);
                    for ch in 0..self.channels {
                        if (lanes[ch / LANE_BITS] >> (ch % LANE_BITS)) & 1 == 1 {
                            let i = t.idx4(f, ch, r, col);
                            t.set(i, true);
                        }
                    }
                }
            }
        }
        t
    }
}

/// Bits per 3×3 kernel sequence — one per spatial position.
pub const SEQ_BITS: usize = 9;

/// The `n <= 64` bits of `src` starting at flat bit `off`, low bit first.
/// Reads past the last word never happen: a field that ends inside
/// `src`'s bit range touches at most the word holding its last bit.
#[inline(always)]
fn bit_field(src: &[u64], off: usize, n: usize) -> u64 {
    let (i, s) = (off / LANE_BITS, off % LANE_BITS);
    let mut v = src[i] >> s;
    if s + n > LANE_BITS {
        v |= src[i + 1] << (LANE_BITS - s);
    }
    v & mask(n)
}

/// 1×1 kernels: bit `(f, ch)` of the flat tensor is bit `f*C + ch`, so
/// each lane is one shifted 64-bit read of the source.
fn pack_pointwise(src: &[u64], k: usize, c: usize, lanes: usize) -> Vec<u64> {
    let mut data = vec![0u64; k * lanes];
    for (f, row) in data.chunks_exact_mut(lanes).enumerate() {
        for (l, word) in row.iter_mut().enumerate() {
            let c0 = l * LANE_BITS;
            *word = bit_field(src, f * c + c0, (c - c0).min(LANE_BITS));
        }
    }
    data
}

/// 9-position kernels: channel `ch` of filter `f` is the 9-bit field at
/// `(f*C + ch) * 9`, so each group of up to 64 channels is read as 9-bit
/// sequences and channel-packed by [`transpose_planes`].
fn pack_3x3(src: &[u64], k: usize, c: usize, lanes: usize) -> Vec<u64> {
    let mut data = vec![0u64; k * SEQ_BITS * lanes];
    let mut seqs = [0u16; LANE_BITS];
    for (f, filter) in data.chunks_exact_mut(SEQ_BITS * lanes).enumerate() {
        for l in 0..lanes {
            let c0 = l * LANE_BITS;
            let nb = (c - c0).min(LANE_BITS);
            let base = (f * c + c0) * SEQ_BITS;
            for (j, s) in seqs[..nb].iter_mut().enumerate() {
                *s = bit_field(src, base + j * SEQ_BITS, SEQ_BITS) as u16;
            }
            let planes = transpose_planes(&seqs[..nb]);
            for (p, &w) in planes.iter().enumerate() {
                filter[p * lanes + l] = w;
            }
        }
    }
    data
}

/// Any other kernel size: bit `(f, ch, p)` sits at flat index
/// `(f*C + ch)*positions + p`, i.e. stride `positions` per channel, and
/// each destination lane is gathered one bit at a time.
fn pack_bitwise(src: &[u64], k: usize, c: usize, positions: usize, lanes: usize) -> Vec<u64> {
    let mut data = vec![0u64; k * positions * lanes];
    for f in 0..k {
        for p in 0..positions {
            let base = f * c * positions + p;
            for (l, word) in data[(f * positions + p) * lanes..][..lanes]
                .iter_mut()
                .enumerate()
            {
                let c0 = l * LANE_BITS;
                let nb = (c - c0).min(LANE_BITS);
                let mut w = 0u64;
                for j in 0..nb {
                    let bit = base + (c0 + j) * positions;
                    w |= ((src[bit / 64] >> (bit % 64)) & 1) << j;
                }
                *word = w;
            }
        }
    }
    data
}

/// Gather bit `bit` of each of the 8 bytes of `x` into one byte (byte `i`
/// of `x` lands in bit `i`).
#[inline(always)]
fn gather_bit(x: u64, bit: u32) -> u64 {
    ((x >> bit) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Word-parallel 64×9 bit transpose: channel-pack up to 64 9-bit
/// sequences into nine lane words, bit `j` of word `b` being bit `b` of
/// `seqs[j]`. Channels past `seqs.len()` stay zero. Both
/// [`PackedKernel::pack`] (flat 3×3 weights, bit `b` = position `b`) and
/// the compressed-stream decoder (bit `8 - b` = position `b`) pack
/// through it.
///
/// Dispatched through [`crate::simd`] like the GEMM kernels, at the
/// effective [`crate::simd::level`] (after any `BITNN_SIMD` cap; `bnnkc
/// features` prints it as `simd level`, the perfsuite as `simd_level`):
/// AVX-512BW narrows the sequences to bytes and tests each plane's bit
/// across all 64 in one instruction (`vptestmb`), AVX2 reads each plane
/// off the byte sign bits (`vpmovmskb`), and the portable tier gathers
/// eight channels' bits at a time with one multiply (`(x >> b) &
/// 0x0101…01` times `0x0102040810204080`, top byte). All three are
/// bit-identical.
///
/// # Panics
///
/// Panics if `seqs` holds more than 64 sequences.
#[inline]
pub fn transpose_planes(seqs: &[u16]) -> [u64; SEQ_BITS] {
    assert!(seqs.len() <= LANE_BITS, "at most 64 sequences per lane");
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::avx512() {
            // SAFETY: avx512f + avx512bw were detected at runtime.
            return unsafe { transpose_planes_avx512(seqs) };
        }
        if crate::simd::avx2() {
            // SAFETY: avx2 was detected at runtime.
            return unsafe { transpose_planes_avx2(seqs) };
        }
    }
    transpose_planes_portable(seqs)
}

/// Portable tier of [`transpose_planes`] and the reference its SIMD
/// tiers are tested against: the multiply-gather over low-byte and
/// bit-8 byte arrays.
#[inline(always)]
fn transpose_planes_portable(seqs: &[u16]) -> [u64; SEQ_BITS] {
    let mut lo = [0u8; LANE_BITS];
    let mut hi = [0u8; LANE_BITS];
    for ((l, h), &s) in lo.iter_mut().zip(&mut hi).zip(seqs) {
        *l = s as u8;
        *h = (s >> 8) as u8;
    }
    let mut words = [0u64; SEQ_BITS];
    for (c, (l, h)) in lo.chunks_exact(8).zip(hi.chunks_exact(8)).enumerate() {
        let l = u64::from_le_bytes(l.try_into().expect("8 bytes"));
        let h = u64::from_le_bytes(h.try_into().expect("8 bytes"));
        let shift = 8 * c;
        for (b, word) in words[..8].iter_mut().enumerate() {
            *word |= gather_bit(l, b as u32) << shift;
        }
        words[8] |= gather_bit(h, 0) << shift;
    }
    words
}

/// AVX-512BW tier of [`transpose_planes`]: the sequences load as two
/// 32 × 16-bit vectors (masked, so lanes past the length read as zero and
/// touch no memory) and narrow (`vpmovwb`) to one 64-byte vector of low
/// bytes and one of high bytes; plane `b` is then one `vptestmb` against
/// `1 << b`, whose 64-bit mask is the lane word. (Testing the 16-bit lanes
/// directly takes two tests and a merge per plane, and ran ~1.6x slower.)
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW; `seqs.len() <= 64`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn transpose_planes_avx512(seqs: &[u16]) -> [u64; SEQ_BITS] {
    use std::arch::x86_64::*;
    let n = seqs.len();
    let at = seqs.as_ptr().cast::<i16>();
    let first = |k: usize| if k >= 32 { u32::MAX } else { (1u32 << k) - 1 };
    let v0 = _mm512_maskz_loadu_epi16(first(n), at);
    let v1 = if n > 32 {
        _mm512_maskz_loadu_epi16(first(n - 32), at.add(32))
    } else {
        _mm512_setzero_si512()
    };
    let narrow = |a: __m512i, b: __m512i| {
        _mm512_inserti64x4::<1>(
            _mm512_castsi256_si512(_mm512_cvtepi16_epi8(a)),
            _mm512_cvtepi16_epi8(b),
        )
    };
    let low = narrow(v0, v1);
    let high = narrow(_mm512_srli_epi16::<8>(v0), _mm512_srli_epi16::<8>(v1));
    std::array::from_fn(|b| match b {
        8 => _mm512_test_epi8_mask(high, _mm512_set1_epi8(1)),
        _ => _mm512_test_epi8_mask(low, _mm512_set1_epi8((1u8 << b) as i8)),
    })
}

/// AVX2 tier of [`transpose_planes`]: the sequences narrow to two 32-byte
/// vectors of low bytes (`vpackuswb`, lane order restored by
/// `vpermq`), and each of planes 7..0 is one `vpmovmskb` of the byte sign
/// bits, doubling the bytes between planes to bring the next bit up.
/// Plane 8 is the sign bit of each sequence shifted left by 7, narrowed
/// with signed saturation.
///
/// # Safety
///
/// The CPU must support AVX2; `seqs.len() <= 64`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_planes_avx2(seqs: &[u16]) -> [u64; SEQ_BITS] {
    use std::arch::x86_64::*;
    let mut padded = [0u16; LANE_BITS];
    let full: &[u16; LANE_BITS] = match seqs.try_into() {
        Ok(full) => full,
        Err(_) => {
            padded[..seqs.len()].copy_from_slice(seqs);
            &padded
        }
    };
    let at = full.as_ptr().cast::<__m256i>();
    let v: [__m256i; 4] = std::array::from_fn(|i| _mm256_loadu_si256(at.add(i)));
    // `vpack*` interleaves 128-bit halves; `vpermq` puts them back in
    // sequence order.
    let order = |x: __m256i| _mm256_permute4x64_epi64::<0b11_01_10_00>(x);
    let low = _mm256_set1_epi16(0xFF);
    let bytes = |a: __m256i, b: __m256i| {
        order(_mm256_packus_epi16(
            _mm256_and_si256(a, low),
            _mm256_and_si256(b, low),
        ))
    };
    let top = |a: __m256i, b: __m256i| {
        order(_mm256_packs_epi16(
            _mm256_slli_epi16::<7>(a),
            _mm256_slli_epi16::<7>(b),
        ))
    };
    let sign = |x: __m256i, y: __m256i| {
        u64::from(_mm256_movemask_epi8(x) as u32) | u64::from(_mm256_movemask_epi8(y) as u32) << 32
    };
    let (mut x, mut y) = (bytes(v[0], v[1]), bytes(v[2], v[3]));
    let mut words = [0u64; SEQ_BITS];
    for b in (0..8).rev() {
        words[b] = sign(x, y);
        x = _mm256_add_epi8(x, x);
        y = _mm256_add_epi8(y, y);
    }
    words[8] = sign(top(v[0], v[1]), top(v[2], v[3]));
    words
}

/// Channel-packed binary activations.
///
/// Layout: `data[(((n * h) + y) * w + x) * lanes + l]` holds channels
/// `l*64 .. l*64+64` of pixel `(y, x)` in image `n`.
///
/// Because pixels are row-major with `lanes` words each, the container
/// doubles as a packed matrix with one `channels()`-bit row per pixel —
/// the execution engine exploits this to run 1×1 convolutions as a GEMM
/// directly over [`Self::words`] with no re-packing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedActivations {
    n: usize,
    channels: usize,
    h: usize,
    w: usize,
    lanes: usize,
    data: Vec<u64>,
}

impl PackedActivations {
    /// Pack a binary activation tensor of shape `[N, C, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if `acts` is not 4-D.
    pub fn pack(acts: &BitTensor) -> Result<Self> {
        let mut out = PackedActivations::default();
        out.repack(acts)?;
        Ok(out)
    }

    /// Re-pack `acts` into this container, reusing its allocation.
    ///
    /// This is the scratch-buffer entry point used by the execution
    /// engine's forward pass so each layer stops allocating a fresh packed
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if `acts` is not 4-D.
    pub fn repack(&mut self, acts: &BitTensor) -> Result<()> {
        let shape = acts.shape();
        if shape.len() != 4 {
            return Err(BitnnError::ShapeMismatch {
                expected: "4-D activations [N, C, H, W]".into(),
                got: format!("{shape:?}"),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let lanes = lanes_for(c);
        let hw = h * w;
        let src = acts.words();
        self.data.clear();
        self.data.resize(n * hw * lanes, 0);
        // Word-at-a-time packing: bit (img, ch, y, x) sits at flat index
        // img*C*HW + ch*HW + (y*W + x), i.e. stride HW per channel for a
        // fixed pixel; each destination lane is gathered in a register and
        // stored once.
        for img in 0..n {
            for pix in 0..hw {
                let base = img * c * hw + pix;
                for (l, word) in self.data[(img * hw + pix) * lanes..][..lanes]
                    .iter_mut()
                    .enumerate()
                {
                    let c0 = l * LANE_BITS;
                    let nb = (c - c0).min(LANE_BITS);
                    let mut wd = 0u64;
                    for j in 0..nb {
                        let bit = base + (c0 + j) * hw;
                        wd |= ((src[bit / 64] >> (bit % 64)) & 1) << j;
                    }
                    *word = wd;
                }
            }
        }
        self.n = n;
        self.channels = c;
        self.h = h;
        self.w = w;
        self.lanes = lanes;
        Ok(())
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.n
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Lanes per pixel.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane words of pixel `(y, x)` in image `n`.
    #[inline]
    pub fn pixel_lanes(&self, n: usize, y: usize, x: usize) -> &[u64] {
        let base = (((n * self.h) + y) * self.w + x) * self.lanes;
        &self.data[base..base + self.lanes]
    }

    /// Raw packed words.
    pub fn words(&self) -> &[u64] {
        &self.data
    }

    /// Re-shape this container for `[n, c, h, w]` and zero every word,
    /// reusing the allocation — the direct-write seat for
    /// [`crate::layers::RSign::binarize_packed_into`], which assembles
    /// lane words with single-bit ORs and needs a zeroed start (this also
    /// preserves the clean-tail invariant: bits at and above `c` in the
    /// last lane stay zero).
    pub(crate) fn reset_zeroed(&mut self, n: usize, c: usize, h: usize, w: usize) {
        let lanes = lanes_for(c);
        self.data.clear();
        self.data.resize(n * h * w * lanes, 0);
        self.n = n;
        self.channels = c;
        self.h = h;
        self.w = w;
        self.lanes = lanes;
    }

    /// Mutable raw packed words, for the fused sign→pack writer.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Unpack back to a flat [`BitTensor`] of shape `[N, C, H, W]`.
    pub fn unpack(&self) -> BitTensor {
        let mut t = BitTensor::zeros(&[self.n, self.channels, self.h, self.w]);
        for img in 0..self.n {
            for y in 0..self.h {
                for x in 0..self.w {
                    let lanes = self.pixel_lanes(img, y, x);
                    for ch in 0..self.channels {
                        if (lanes[ch / LANE_BITS] >> (ch % LANE_BITS)) & 1 == 1 {
                            let i = t.idx4(img, ch, y, x);
                            t.set(i, true);
                        }
                    }
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_bits(shape: &[usize], seed: u64) -> BitTensor {
        // Simple deterministic LCG so tests don't need rand here.
        let mut t = BitTensor::zeros(shape);
        let mut s = seed | 1;
        for i in 0..t.len() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if s >> 63 == 1 {
                t.set(i, true);
            }
        }
        t
    }

    #[test]
    fn kernel_pack_unpack_roundtrip() {
        let w = random_bits(&[4, 70, 3, 3], 42);
        let pk = PackedKernel::pack(&w).unwrap();
        assert_eq!(pk.lanes(), 2); // 70 channels -> 2 lanes
        assert_eq!(pk.unpack(), w);
    }

    #[test]
    fn activation_pack_unpack_roundtrip() {
        let a = random_bits(&[2, 130, 5, 4], 7);
        let pa = PackedActivations::pack(&a).unwrap();
        assert_eq!(pa.lanes(), 3);
        assert_eq!(pa.unpack(), a);
    }

    #[test]
    fn pack_rejects_non_4d() {
        let t = BitTensor::zeros(&[4, 4]);
        assert!(PackedKernel::pack(&t).is_err());
        assert!(PackedActivations::pack(&t).is_err());
    }

    #[test]
    fn fig5_example_two_channels() {
        // Paper Fig. 5: a 2-channel 3x3 kernel is packed into nine 2-bit
        // registers, one per position, bit 0 = channel a, bit 1 = channel b.
        let mut w = BitTensor::zeros(&[1, 2, 3, 3]);
        // Channel 0: set position (0,0); channel 1: set positions (0,0),(2,2).
        let i = w.idx4(0, 0, 0, 0);
        w.set(i, true);
        let i = w.idx4(0, 1, 0, 0);
        w.set(i, true);
        let i = w.idx4(0, 1, 2, 2);
        w.set(i, true);
        let pk = PackedKernel::pack(&w).unwrap();
        assert_eq!(pk.lanes(), 1);
        assert_eq!(pk.position_lanes(0, 0)[0], 0b11); // both channels at (0,0)
        assert_eq!(pk.position_lanes(0, 8)[0], 0b10); // only channel 1 at (2,2)
        for p in 1..8 {
            assert_eq!(pk.position_lanes(0, p)[0], 0);
        }
    }

    #[test]
    fn lane_alignment_matches_between_kernel_and_activations() {
        // The same channel index must land in the same lane/bit in both
        // containers, otherwise xnor lanes would be misaligned.
        let c = 100;
        let mut w = BitTensor::zeros(&[1, c, 1, 1]);
        let mut a = BitTensor::zeros(&[1, c, 1, 1]);
        let ch = 77;
        let i = w.idx4(0, ch, 0, 0);
        w.set(i, true);
        let i = a.idx4(0, ch, 0, 0);
        a.set(i, true);
        let pk = PackedKernel::pack(&w).unwrap();
        let pa = PackedActivations::pack(&a).unwrap();
        assert_eq!(pk.position_lanes(0, 0), pa.pixel_lanes(0, 0, 0));
    }

    #[test]
    fn from_lane_words_matches_pack() {
        // Feeding pack()'s own words back through the streaming-side
        // constructor must reproduce the kernel exactly.
        for c in [1usize, 63, 64, 65, 130] {
            let w = random_bits(&[3, c, 3, 3], c as u64 ^ 0x5EED);
            let pk = PackedKernel::pack(&w).unwrap();
            let rebuilt = PackedKernel::from_lane_words(3, c, 3, 3, pk.words().to_vec()).unwrap();
            assert_eq!(rebuilt, pk, "c = {c}");
            assert_eq!(rebuilt.unpack(), w, "c = {c}");
        }
    }

    #[test]
    fn from_lane_words_masks_tail_lane_padding() {
        // 70 channels -> lane 1 holds 6 real bits; garbage above them must
        // be cleared so popcounts stay exact.
        let lanes = crate::lanes_for(70);
        let words = vec![u64::MAX; 9 * lanes];
        let pk = PackedKernel::from_lane_words(1, 70, 3, 3, words).unwrap();
        for p in 0..9 {
            assert_eq!(pk.position_lanes(0, p)[1], (1u64 << 6) - 1);
        }
        let t = pk.unpack();
        assert!((0..t.len()).all(|i| t.get(i)));
    }

    #[test]
    fn from_lane_words_rejects_bad_shapes() {
        assert!(PackedKernel::from_lane_words(0, 4, 3, 3, vec![]).is_err());
        assert!(PackedKernel::from_lane_words(1, 0, 3, 3, vec![]).is_err());
        assert!(PackedKernel::from_lane_words(1, 4, 3, 3, vec![0; 8]).is_err());
        assert!(PackedKernel::from_lane_words(1, 4, 3, 3, vec![0; 10]).is_err());
        assert!(PackedKernel::from_lane_words(1, 4, 3, 3, vec![0; 9]).is_ok());
    }

    #[test]
    fn storage_bytes_counts_lane_padding() {
        let w = BitTensor::zeros(&[2, 65, 3, 3]);
        let pk = PackedKernel::pack(&w).unwrap();
        // 65 channels -> 2 lanes; 2 filters * 9 positions * 2 lanes * 8 bytes.
        assert_eq!(pk.storage_bytes(), 2 * 9 * 2 * 8);
    }

    /// The per-bit gather over every position count — the reference the
    /// word-parallel packers are checked against.
    fn pack_reference(w: &BitTensor) -> Vec<u64> {
        let s = w.shape();
        pack_bitwise(w.words(), s[0], s[1], s[2] * s[3], lanes_for(s[1]))
    }

    /// `pack` agrees word for word with the per-bit reference, unpacks
    /// back to the source, and leaves lane bits past `C` zero.
    fn check_pack(w: &BitTensor) {
        let pk = PackedKernel::pack(w).unwrap();
        let shape = w.shape();
        assert_eq!(pk.words(), &pack_reference(w)[..], "{shape:?}");
        assert_eq!(&pk.unpack(), w, "{shape:?}");
        let (c, lanes) = (pk.channels(), pk.lanes());
        let tail = crate::bitword::mask(c - (lanes - 1) * LANE_BITS);
        for (i, &word) in pk.words().iter().enumerate() {
            if i % lanes == lanes - 1 {
                assert_eq!(word & !tail, 0, "{shape:?}: dirty tail in word {i}");
            }
        }
    }

    #[test]
    fn pack_matches_reference_at_lane_boundaries() {
        for c in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            for (kh, kw) in [(1, 1), (3, 3)] {
                for k in [1usize, 7, 40] {
                    let seed = (c * 131 + kh * 17 + k) as u64;
                    check_pack(&random_bits(&[k, c, kh, kw], seed));
                }
            }
        }
    }

    #[test]
    fn pack_of_all_ones_keeps_tails_clean() {
        for c in [1usize, 63, 65, 129] {
            for (kh, kw) in [(1, 1), (3, 3), (1, 9), (2, 2)] {
                let mut w = BitTensor::zeros(&[3, c, kh, kw]);
                for i in 0..w.len() {
                    w.set(i, true);
                }
                check_pack(&w);
            }
        }
    }

    type Transpose = fn(&[u16]) -> [u64; SEQ_BITS];

    /// Every instantiation of [`transpose_planes`] this CPU can run,
    /// whatever `BITNN_SIMD` caps the dispatcher to.
    fn transpose_tiers() -> Vec<(&'static str, Transpose)> {
        let mut tiers: Vec<(&'static str, Transpose)> =
            vec![("portable", |s| transpose_planes_portable(s))];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was just detected.
                tiers.push(("avx2", |s| unsafe { transpose_planes_avx2(s) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                // SAFETY: avx512f + avx512bw were just detected.
                tiers.push(("avx512", |s| unsafe { transpose_planes_avx512(s) }));
            }
        }
        tiers.push(("dispatched", transpose_planes));
        tiers
    }

    #[test]
    fn transpose_planes_matches_per_bit_scatter() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<u16> = (0..LANE_BITS)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 55) as u16
            })
            .collect();
        let mut inputs = vec![random, vec![0x1FF; LANE_BITS]];
        // One set bit: every plane against every lane position.
        for b in 0..SEQ_BITS {
            for j in [0usize, 1, 7, 8, 31, 32, 33, 63] {
                let mut one = vec![0u16; LANE_BITS];
                one[j] = 1 << b;
                inputs.push(one);
            }
        }
        for (name, tier) in transpose_tiers() {
            for seqs in &inputs {
                for n in 0..=LANE_BITS {
                    let mut expect = [0u64; SEQ_BITS];
                    for (j, &seq) in seqs[..n].iter().enumerate() {
                        for (b, word) in expect.iter_mut().enumerate() {
                            *word |= u64::from((seq >> b) & 1) << j;
                        }
                    }
                    let got = tier(&seqs[..n]);
                    assert_eq!(got, expect, "{name}: {n} sequences of {seqs:?}");
                    for (b, w) in got.iter().enumerate() {
                        assert_eq!(
                            w & !crate::bitword::mask(n),
                            0,
                            "{name}: lane past {n} in plane {b}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pack_matches_reference_any_shape(
            k in 1usize..=40, c in 1usize..=200, three in any::<bool>(), seed in any::<u64>()
        ) {
            let ks = if three { 3 } else { 1 };
            check_pack(&random_bits(&[k, c, ks, ks], seed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn kernel_roundtrip_any_shape(
            k in 1usize..4, c in 1usize..130, kh in 1usize..4, kw in 1usize..4, seed in any::<u64>()
        ) {
            let w = random_bits(&[k, c, kh, kw], seed);
            let pk = PackedKernel::pack(&w).unwrap();
            prop_assert_eq!(pk.unpack(), w);
        }

        #[test]
        fn activations_roundtrip_any_shape(
            n in 1usize..3, c in 1usize..130, h in 1usize..5, w in 1usize..5, seed in any::<u64>()
        ) {
            let a = random_bits(&[n, c, h, w], seed);
            let pa = PackedActivations::pack(&a).unwrap();
            prop_assert_eq!(pa.unpack(), a);
        }
    }
}
