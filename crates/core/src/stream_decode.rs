//! Streaming group decoder: the software analogue of the paper's decode
//! unit (Fig. 6, streaming unit + packing unit).
//!
//! The hardware walks the compressed stream front-to-back, decodes one
//! 9-bit sequence at a time against the banked uncompressed table, and
//! channel-packs each group of up to 64 decoded sequences into **nine
//! 64-bit lane words** (one per 3×3 position) that the xnor-popcount
//! pipeline consumes directly. This module does exactly that in software:
//! [`GroupDecoder`] yields [`PackedGroup`]s whose words drop straight into
//! [`bitnn::pack::PackedKernel`]'s layout, so a compressed container can
//! feed the execution engine without ever materializing the intermediate
//! `[K, C, 3, 3]` bit tensor ([`crate::container::Container::decode_packed`]).
//!
//! A *group* is one `(filter, lane)` pair: the sequences of channels
//! `lane*64 .. lane*64+64` (fewer for the tail lane) of one output filter.
//! Groups are emitted in stream order — filter-major, lanes ascending —
//! which is the exact order [`crate::codec::KernelCodec::compress`] wrote
//! the codewords, so decoding is a single forward pass over the stream.
//!
//! # Table-driven symbol core
//!
//! Like the hardware unit, the decoder resolves a whole codeword in one
//! step instead of one bit at a time. Per record it builds small tables
//! from the [`SimplifiedTree`]: per node the code length, index width,
//! table length and offset into one flat table of every node's sequences
//! (at most 512 entries — no `2^maxlen` lookup table, which at the
//! container's 23-bit maximum code length would be megabytes). One symbol
//! step is then:
//!
//! 1. load a 64-bit big-endian **window** at byte `pos / 8` and shift out
//!    the `pos % 8` bits already consumed, leaving at least 57 valid bits
//!    — more than any legal codeword;
//! 2. the **node** is the window's count of leading ones (the chain tree's
//!    prefix is `node` ones then a zero); a count at or past the node
//!    count is corrupt;
//! 3. the **index** is the next `index_bits[node]` bits; an index at or
//!    past the node's table length is corrupt;
//! 4. shift the codeword out of the window and advance `pos` by the
//!    node's code length.
//!
//! One window serves as many codewords as it always holds (`57 /` the
//! longest code length), and code lengths sit one byte per node in a
//! single `u64`, so the loop-carried chain — leading ones, length, shift
//! — never waits on a memory load.
//!
//! Bounds are checked once per group: when every codeword of the group
//! fits before the stream limit at the longest code length and the last
//! 8-byte load stays inside the slice, the group runs unchecked; groups
//! near the end of the stream take a checked path with a zero-padded load
//! and a per-symbol limit check. The final "no bits left over" check runs
//! once the last group is out.
//!
//! Each group of decoded sequences is channel-packed by the word-parallel
//! 64×9 bit transpose [`bitnn::pack::transpose_planes`] — the same one
//! [`PackedKernel::pack`] uses on flat weights: the sequences split into
//! low-byte and bit-8 byte arrays, and each of the nine lane words gathers
//! eight channels' bits at a time with one multiply
//! (`(x >> k) & 0x0101…01` times `0x0102040810204080`, top byte).
//!
//! The bit-serial [`SimplifiedTree::decode`] over a
//! [`crate::bitstream::BitReader`] stays separate and untouched: it is
//! the oracle path behind [`crate::container::Container::decode_kernel`]
//! and [`crate::codec::CompressedKernel::decompress`], so every check built on
//! those (`bnnkc verify`, `run --offline`) is independent of this core.

use crate::container::Container;
use crate::error::{KcError, Result};
use crate::huffman::SimplifiedTree;
use bitnn::bank::{BankBuilder, SequenceBank};
use bitnn::pack::{transpose_planes, PackedKernel, SEQ_BITS};
use bitnn::{lanes_for, LANE_BITS};

/// Sequences per full group — one 64-bit lane word's worth of channels.
pub const SEQS_PER_GROUP: usize = LANE_BITS;

/// Packed words per group: one per 3×3 kernel position.
pub const WORDS_PER_GROUP: usize = SEQ_BITS;

/// Most nodes a simplified tree can have ([`crate::huffman::TreeConfig`]).
const MAX_NODES: usize = 8;

/// Longest codeword [`crate::bitstream::BitWriter`] can emit; a 64-bit
/// window always holds one.
const MAX_CODE_LEN: u32 = 32;

/// One channel-packed group of decoded sequences: the nine lane words the
/// paper's packing unit hands the compute pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedGroup {
    /// Output filter this group belongs to.
    pub filter: usize,
    /// Lane index within the filter (channels `lane*64 ..`).
    pub lane: usize,
    /// Sequences packed into this group (64, or fewer for a tail lane).
    pub seqs: usize,
    /// The nine packed lane words; bit `j` of word `p` is bit `p` (under
    /// the natural mapping, MSB = position (0,0)) of channel
    /// `lane*64 + j`'s sequence.
    pub words: [u64; WORDS_PER_GROUP],
}

/// Decode parameters of one tree node — the hardware's uncompressed-table
/// bank base and bounds for that node.
#[derive(Debug, Clone, Copy, Default)]
struct NodeEntry {
    /// Mask of the index width (`(1 << index_bits) - 1`).
    index_mask: u32,
    /// Start of the node's sequences in the flat table.
    offset: u32,
    /// Sequences in the node's table; a larger index is corrupt.
    table_len: u32,
}

/// Per-record decode tables built once from a [`SimplifiedTree`].
#[derive(Debug, Clone)]
struct DecodeTables {
    /// Nodes in the tree; a prefix of this many ones is corrupt.
    nodes: u32,
    /// Longest code length over all nodes (the per-group bound).
    max_len: usize,
    /// Code length of node `i` in byte `i` — the hardware's length table,
    /// read with a shift so the loop-carried length never waits on a
    /// memory load.
    lens: u64,
    /// Codewords one window always holds: `57 / max_len`.
    per_window: usize,
    entries: [NodeEntry; MAX_NODES],
    /// Every node's sequences, node-major in index order.
    flat: Vec<u16>,
}

impl DecodeTables {
    fn new(tree: &SimplifiedTree) -> Self {
        let nodes = tree.config().nodes();
        let mut entries = [NodeEntry::default(); MAX_NODES];
        let mut flat = Vec::with_capacity(tree.assigned());
        let (mut lens, mut max_len) = (0u64, 0usize);
        for (node, e) in entries.iter_mut().enumerate().take(nodes) {
            let table = tree.table(node);
            // No writer emits a code longer than MAX_CODE_LEN: clamp its
            // length and give it no entries, so every hit is corrupt.
            let (len, table_len) = match u32::from(tree.code_len(node)) {
                len if len > MAX_CODE_LEN => (MAX_CODE_LEN, 0),
                len => (len, table.len() as u32),
            };
            *e = NodeEntry {
                index_mask: (1u32 << (len - node as u32 - 1)) - 1,
                offset: flat.len() as u32,
                table_len,
            };
            lens |= u64::from(len) << (8 * node);
            max_len = max_len.max(len as usize);
            flat.extend(table.iter().map(|s| s.value()));
        }
        DecodeTables {
            nodes: nodes as u32,
            max_len,
            lens,
            per_window: 57 / max_len,
            entries,
            flat,
        }
    }

    /// Decode the codeword at the top of `window`: `(sequence, length)`.
    #[inline(always)]
    fn symbol(&self, window: u64) -> Result<(u16, u32)> {
        let node = window.leading_ones();
        if node >= self.nodes {
            return Err(corrupt("prefix of all ones matches no node"));
        }
        let len = (self.lens >> (8 * node)) as u8 as u32;
        let e = self.entries[node as usize & (MAX_NODES - 1)];
        let idx = (window >> (64 - len)) as u32 & e.index_mask;
        if idx >= e.table_len {
            return Err(index_beyond(idx, node));
        }
        Ok((self.flat[(e.offset + idx) as usize], len))
    }
}

#[cold]
fn corrupt(msg: &str) -> KcError {
    KcError::CorruptStream(msg.into())
}

#[cold]
fn index_beyond(idx: u32, node: u32) -> KcError {
    KcError::CorruptStream(format!("index {idx} beyond node {node} table"))
}

/// The 64-bit big-endian window at bit `pos`: the 8 bytes from `pos / 8`
/// with the `pos % 8` already-consumed bits shifted out.
#[inline(always)]
fn window(stream: &[u8], pos: usize) -> u64 {
    let at = pos >> 3;
    let bytes: [u8; 8] = stream[at..at + 8].try_into().expect("8-byte window");
    u64::from_be_bytes(bytes) << (pos & 7)
}

/// [`window`] for the last bytes of a stream: bytes past the slice read
/// as zero.
fn window_padded(stream: &[u8], pos: usize) -> u64 {
    let tail = stream.get(pos >> 3..).unwrap_or(&[]);
    let n = tail.len().min(8);
    let mut bytes = [0u8; 8];
    bytes[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(bytes) << (pos & 7)
}

/// Channel-pack up to 64 decoded sequences into the nine lane words:
/// bit `j` of word `p` is bit `8 - p` of `seqs[j]` (natural mapping, MSB
/// = position (0,0)). Channels past `seqs.len()` stay zero. The
/// transpose itself is the one [`PackedKernel::pack`] uses, which yields
/// bit planes low bit first; the decoder takes them in reverse.
#[inline(always)]
fn transpose(seqs: &[u16]) -> [u64; WORDS_PER_GROUP] {
    let planes = transpose_planes(seqs);
    std::array::from_fn(|p| planes[WORDS_PER_GROUP - 1 - p])
}

/// A forward-only decoder that walks a container's Huffman stream and
/// emits channel-packed groups.
#[derive(Debug, Clone)]
pub struct GroupDecoder<'a> {
    tables: DecodeTables,
    stream: &'a [u8],
    /// Next bit position.
    pos: usize,
    /// Payload bits (`stream_bits`); the rest of the last byte is padding.
    limit: usize,
    filters: usize,
    channels: usize,
    lanes: usize,
    /// Next group index in `0 .. filters * lanes`.
    next: usize,
}

impl<'a> GroupDecoder<'a> {
    /// Decoder over a parsed container's stream.
    pub fn new(container: &'a Container) -> Self {
        Self::from_parts(
            &container.tree,
            &container.stream,
            container.stream_bits,
            container.filters,
            container.channels,
        )
    }

    /// Decoder over raw parts (tree + stream + kernel geometry).
    ///
    /// # Panics
    ///
    /// Panics if `stream_bits` exceeds the stream's length in bits.
    pub fn from_parts(
        tree: &SimplifiedTree,
        stream: &'a [u8],
        stream_bits: usize,
        filters: usize,
        channels: usize,
    ) -> Self {
        assert!(stream_bits <= stream.len() * 8, "limit beyond buffer");
        GroupDecoder {
            tables: DecodeTables::new(tree),
            stream,
            pos: 0,
            limit: stream_bits,
            filters,
            channels,
            lanes: lanes_for(channels),
            next: 0,
        }
    }

    /// Total groups the stream yields (`filters * lanes_for(channels)`).
    pub fn num_groups(&self) -> usize {
        self.filters * self.lanes
    }

    /// Groups decoded so far.
    pub fn groups_decoded(&self) -> usize {
        self.next
    }

    /// Sequences in the next group (64, or fewer for a tail lane).
    fn next_group_len(&self) -> usize {
        let lane = self.next % self.lanes;
        (self.channels - lane * LANE_BITS).min(SEQS_PER_GROUP)
    }

    /// Decode the next `out.len()` codewords into `out` — the one symbol
    /// loop every collector runs. The position only advances on success.
    fn decode_run(&mut self, out: &mut [u16]) -> Result<()> {
        let t = &self.tables;
        let stream = self.stream;
        let limit = self.limit;
        let mut pos = self.pos;
        let bound = pos + out.len() * t.max_len;
        if bound <= limit && bound / 8 + 8 <= stream.len() {
            // Every codeword ends before `bound`, so every load and every
            // consumed bit is in range: no per-symbol checks.
            for chunk in out.chunks_mut(t.per_window) {
                let mut bits = window(stream, pos);
                for s in chunk {
                    let (seq, len) = t.symbol(bits)?;
                    *s = seq;
                    bits <<= len;
                    pos += len as usize;
                }
            }
        } else {
            for s in out.iter_mut() {
                if pos >= limit {
                    return Err(corrupt("unexpected end of stream"));
                }
                let (seq, len) = t.symbol(window_padded(stream, pos))?;
                if len as usize > limit - pos {
                    return Err(KcError::CorruptStream(format!(
                        "wanted {len} bits, {} remaining",
                        limit - pos
                    )));
                }
                *s = seq;
                pos += len as usize;
            }
        }
        self.pos = pos;
        Ok(())
    }

    /// The completion check: the stream must be consumed exactly.
    fn finish(&self) -> Result<()> {
        let left = self.limit - self.pos;
        if left != 0 {
            return Err(KcError::CorruptStream(format!(
                "{left} bits left over after the final group"
            )));
        }
        Ok(())
    }

    /// Decode the next group, or `Ok(None)` once the kernel is complete.
    ///
    /// On completion the decoder verifies the stream was consumed exactly
    /// (no leftover payload bits — zero padding to the final byte boundary
    /// is checked by [`crate::container::read_container`]).
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] on a truncated stream, an
    /// invalid prefix, an index beyond a node table, or leftover bits
    /// after the final group.
    pub fn decode_next(&mut self) -> Result<Option<PackedGroup>> {
        if self.next == self.num_groups() {
            self.finish()?;
            return Ok(None);
        }
        let (filter, lane) = (self.next / self.lanes, self.next % self.lanes);
        let seqs = self.next_group_len();
        let mut buf = [0u16; SEQS_PER_GROUP];
        self.decode_run(&mut buf[..seqs])?;
        self.next += 1;
        Ok(Some(PackedGroup {
            filter,
            lane,
            seqs,
            words: transpose(&buf[..seqs]),
        }))
    }

    /// Drain the remaining groups into a channel-packed kernel. The words
    /// of each group are scattered to `PackedKernel`'s
    /// `[(filter * 9 + position) * lanes + lane]` layout — no intermediate
    /// flat tensor exists at any point.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream is damaged or
    /// decoding was already past the first group.
    pub fn collect_packed(mut self) -> Result<PackedKernel> {
        if self.next != 0 {
            return Err(KcError::CorruptStream(
                "collect_packed needs a fresh decoder".into(),
            ));
        }
        let lanes = self.lanes;
        let mut data = vec![0u64; self.filters * WORDS_PER_GROUP * lanes];
        while let Some(g) = self.decode_next()? {
            for (p, &w) in g.words.iter().enumerate() {
                data[(g.filter * WORDS_PER_GROUP + p) * lanes + g.lane] = w;
            }
        }
        PackedKernel::from_lane_words(self.filters, self.channels, 3, 3, data)
            .map_err(|e| KcError::CorruptStream(format!("packing decoded groups: {e}")))
    }

    /// Drain the stream into a deduplicated [`SequenceBank`]: unique
    /// 9-bit sequences (with Hamming-1 cluster references) plus
    /// per-filter index lists, instead of fully materialized per-kernel
    /// lane words.
    ///
    /// Stream order is filter-major with lanes ascending, i.e. exactly
    /// `(filter, channel)` row-major — the order [`BankBuilder`] expects —
    /// so deduplication happens on the fly during the single forward pass
    /// and no dense representation exists at any point.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream is damaged or
    /// decoding was already past the first group.
    pub fn collect_bank(mut self) -> Result<SequenceBank> {
        if self.next != 0 {
            return Err(KcError::CorruptStream(
                "collect_bank needs a fresh decoder".into(),
            ));
        }
        let mut builder = BankBuilder::new(self.filters, self.channels);
        let mut buf = [0u16; SEQS_PER_GROUP];
        while self.next < self.num_groups() {
            let seqs = self.next_group_len();
            self.decode_run(&mut buf[..seqs])?;
            for &seq in &buf[..seqs] {
                builder
                    .push(seq)
                    .map_err(|e| KcError::CorruptStream(format!("building bank: {e}")))?;
            }
            self.next += 1;
        }
        self.finish()?;
        builder
            .finish()
            .map_err(|e| KcError::CorruptStream(format!("building bank: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CompressedKernel, KernelCodec};
    use bitnn::weightgen::SeqDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed(filters: usize, channels: usize) -> CompressedKernel {
        let mut rng = StdRng::seed_from_u64((filters * 1000 + channels) as u64);
        let kernel = SeqDistribution::for_block(2, 0).sample_kernel(filters, channels, &mut rng);
        KernelCodec::paper().compress(&kernel).unwrap()
    }

    fn decoder_for(ck: &CompressedKernel) -> GroupDecoder<'_> {
        GroupDecoder::from_parts(
            ck.tree(),
            ck.stream(),
            ck.stream_bits(),
            ck.filters(),
            ck.channels(),
        )
    }

    #[test]
    fn groups_match_offline_packed_kernel() {
        // Streamed groups must be the exact words PackedKernel::pack
        // derives from the offline-decompressed tensor.
        for (f, c) in [(4usize, 16usize), (3, 64), (2, 70), (5, 130)] {
            let ck = compressed(f, c);
            let offline = bitnn::pack::PackedKernel::pack(&ck.decompress().unwrap()).unwrap();
            let mut dec = decoder_for(&ck);
            assert_eq!(dec.num_groups(), f * lanes_for(c));
            let mut seen = 0;
            while let Some(g) = dec.decode_next().unwrap() {
                for (p, &w) in g.words.iter().enumerate() {
                    let lanes = offline.position_lanes(g.filter, p);
                    assert_eq!(w, lanes[g.lane], "({f},{c}) group {seen} pos {p}");
                }
                seen += 1;
            }
            assert_eq!(seen, dec.num_groups());
        }
    }

    #[test]
    fn collect_packed_equals_pack_of_decompress() {
        for (f, c) in [(4usize, 16usize), (2, 70)] {
            let ck = compressed(f, c);
            let streamed = decoder_for(&ck).collect_packed().unwrap();
            let offline = bitnn::pack::PackedKernel::pack(&ck.decompress().unwrap()).unwrap();
            assert_eq!(streamed, offline);
        }
    }

    #[test]
    fn tail_lane_groups_are_partial() {
        let ck = compressed(2, 70);
        let mut dec = decoder_for(&ck);
        let g0 = dec.decode_next().unwrap().unwrap();
        assert_eq!((g0.filter, g0.lane, g0.seqs), (0, 0, 64));
        let g1 = dec.decode_next().unwrap().unwrap();
        assert_eq!((g1.filter, g1.lane, g1.seqs), (0, 1, 6));
        // Tail-lane words never set bits above the real channels.
        for w in g1.words {
            assert_eq!(w >> 6, 0);
        }
    }

    #[test]
    fn truncated_stream_errors_not_panics() {
        let ck = compressed(4, 16);
        let tree = ck.tree().clone();
        for cut_bits in [0usize, 1, 5, ck.stream_bits() / 2, ck.stream_bits() - 1] {
            let mut dec = GroupDecoder::from_parts(&tree, ck.stream(), cut_bits, 4, 16);
            let mut r = Ok(Some(PackedGroup {
                filter: 0,
                lane: 0,
                seqs: 0,
                words: [0; WORDS_PER_GROUP],
            }));
            while let Ok(Some(_)) = r {
                r = dec.decode_next();
            }
            assert!(r.is_err(), "cut at {cut_bits} bits must error");
        }
    }

    #[test]
    fn leftover_bits_after_final_group_error() {
        let ck = compressed(4, 16);
        // Claim fewer filters than the stream encodes: the final-group
        // check must notice the surplus payload.
        let mut dec = GroupDecoder::from_parts(ck.tree(), ck.stream(), ck.stream_bits(), 3, 16);
        let mut last = dec.decode_next();
        while let Ok(Some(_)) = last {
            last = dec.decode_next();
        }
        assert!(last.is_err(), "surplus bits must be rejected");
    }

    #[test]
    fn collect_packed_rejects_partially_drained_decoder() {
        let ck = compressed(4, 16);
        let mut dec = decoder_for(&ck);
        dec.decode_next().unwrap();
        assert!(dec.collect_packed().is_err());
    }

    #[test]
    fn collect_bank_matches_offline_sequences() {
        use bitnn::weightgen::read_sequence;
        for (f, c) in [(4usize, 16usize), (2, 70), (5, 130)] {
            let ck = compressed(f, c);
            let bank = decoder_for(&ck).collect_bank().unwrap();
            let offline = ck.decompress().unwrap();
            assert_eq!((bank.filters(), bank.channels()), (f, c));
            for fi in 0..f {
                for ch in 0..c {
                    assert_eq!(bank.sequence(fi, ch), read_sequence(&offline, fi, ch));
                }
            }
            // The bank's dense materialization equals the offline pack.
            assert_eq!(
                bank.to_packed(),
                bitnn::pack::PackedKernel::pack(&offline).unwrap()
            );
            assert!(bank.dedup_ratio() >= 1.0);
        }
    }

    #[test]
    fn collect_bank_rejects_partially_drained_decoder() {
        let ck = compressed(4, 16);
        let mut dec = decoder_for(&ck);
        dec.decode_next().unwrap();
        assert!(dec.collect_bank().is_err());
    }

    #[test]
    fn transpose_matches_per_bit_scatter() {
        let seqs: Vec<u16> = (0..64u16).map(|j| (j * 73 + 5) % 512).collect();
        for n in [0usize, 1, 7, 8, 63, 64] {
            let mut expect = [0u64; WORDS_PER_GROUP];
            for (j, &seq) in seqs[..n].iter().enumerate() {
                for (p, word) in expect.iter_mut().enumerate() {
                    *word |= u64::from((seq >> (WORDS_PER_GROUP - 1 - p)) & 1) << j;
                }
            }
            assert_eq!(transpose(&seqs[..n]), expect, "{n} sequences");
        }
    }

    #[test]
    fn codes_beyond_the_writer_limit_decode_as_corrupt() {
        use crate::huffman::TreeConfig;
        use crate::BitSeq;
        // A 2^40 capacity gives node 1 a 42-bit code no writer can emit.
        let config = TreeConfig::with_capacities(vec![1, 1 << 40]).unwrap();
        let ranked = [BitSeq::new(3).unwrap(), BitSeq::new(5).unwrap()];
        let tree = SimplifiedTree::from_ranked(&ranked, config);
        let stream = [0x80u8; 16];
        let r = GroupDecoder::from_parts(&tree, &stream, 128, 1, 2).collect_packed();
        assert!(matches!(r, Err(KcError::CorruptStream(_))), "{r:?}");
    }

    #[test]
    fn padded_window_reads_zeros_past_the_slice() {
        let stream = [0xA5u8, 0xFF, 0x01];
        assert_eq!(window_padded(&stream, 0), 0xA5FF_0100_0000_0000);
        assert_eq!(window_padded(&stream, 12), 0xF010_0000_0000_0000);
        assert_eq!(window_padded(&stream, 24), 0);
    }
}
