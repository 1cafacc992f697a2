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
//! Like the hardware unit, the decoder resolves whole codewords per step
//! instead of one bit at a time. Bits are read through a 64-bit
//! big-endian **window**: the 8 bytes at `pos / 8` with the `pos % 8`
//! bits already consumed shifted out, which leaves at least 57 valid
//! bits.
//!
//! Per record it builds a **12-bit two-symbol table** from the
//! [`SimplifiedTree`], after the double-symbol tables of zstd's
//! `HUF_decompress4X2`. Entry `w` of its 4096 `u32`s describes every
//! window whose top 12 bits are `w`: the first codeword's sequence and
//! length, and — when a second whole codeword fits in the bits left
//! over — the second's sequence, a count of 1 or 2, and the total length.
//! The table is filled by walking the codewords (each code of at most 12
//! bits owns the `2^(12 - len)` entries it prefixes), never by decoding
//! all 4096 windows. The paper's tree (6/8/9/12-bit codes) fits entirely:
//! every one-codeword step is one load, and a 6-bit code followed by
//! another takes both in that load.
//!
//! Entry `0` is the **escape**: the first codeword is longer than 12 bits
//! (a widened last node, or custom capacities) or the bits are corrupt.
//! It falls back to the per-node step, built from small per-node tables —
//! code length, index width, table length and offset into one flat table
//! of every node's sequences (at most 512 entries):
//!
//! 1. the **node** is the window's count of leading ones (the chain tree's
//!    prefix is `node` ones then a zero); a count at or past the node
//!    count is corrupt;
//! 2. the **index** is the next `index_bits[node]` bits; an index at or
//!    past the node's table length is corrupt;
//! 3. shift the codeword out of the window and advance `pos` by the
//!    node's code length.
//!
//! Corrupt bits are never resolved by the table, so they reach this step
//! and fail with exactly the errors a per-node decoder reports.
//!
//! **Why one window serves `57 / max(12, max_len)` lookups.** A table
//! lookup consumes at most 12 bits and reads 12; an escape consumes and
//! reads at most the longest code length `max_len`. So with
//! `M = max(12, max_len)`, lookup `k` (from 0) starts at most `k·M` bits
//! into the window and reads no further than `(k + 1)·M ≤ 57`, inside
//! the valid bits.
//!
//! The loop always writes both slots of an entry into a 65-slot buffer,
//! so a count-2 lookup at a group's last sequence writes one slot past
//! the group; it then steps `pos` back over that second codeword, which
//! the next group decodes again.
//!
//! Bounds are checked once per group: when every codeword of the group
//! fits before the stream limit at the longest code length and the last
//! 8-byte load stays inside the slice, the group runs unchecked (every
//! window starts at one of the group's codewords, so before that bound;
//! the bits a final overshooting lookup reads lie inside the same
//! window); groups near the end of the stream take a checked path with a
//! zero-padded load, a per-symbol limit check and the per-node step. The
//! final "no bits left over" check runs once the last group is out.
//!
//! Each group of decoded sequences is channel-packed by the 64×9 bit
//! transpose [`bitnn::pack::transpose_planes`] — the same one
//! [`PackedKernel::pack`] uses on flat weights, dispatched by
//! [`bitnn::simd`] to an AVX-512BW, AVX2 or portable multiply-gather
//! instantiation at the effective [`bitnn::simd::level`].
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

/// Window bits the two-symbol table is indexed by: the longest code the
/// table resolves, and the most two codes it resolves take together.
const TABLE_BITS: u32 = 12;

/// Valid bits a window holds after shifting out a partly consumed byte.
const WINDOW_BITS: u32 = 57;

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

/// One two-symbol table entry, packed in a `u32`:
///
/// | bits   | field                                           |
/// |--------|-------------------------------------------------|
/// | 0..6   | total length of the entry's codewords (≤ 12)    |
/// | 6..10  | length of the first codeword                    |
/// | 10..12 | codewords resolved: 1 or 2                      |
/// | 12..21 | first sequence                                  |
/// | 21..30 | second sequence (0 when only one)               |
///
/// The total sits in the low bits so shifting the window by the raw entry
/// shifts out exactly its codewords ([`Entry::shift_out`]). Entry
/// `0` resolves nothing: the window's first codeword is longer than 12
/// bits or corrupt, and [`DecodeTables::symbol`] takes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry(u32);

impl Entry {
    const ESCAPE: Entry = Entry(0);

    fn new(first: (u16, u32), second: Option<(u16, u32)>) -> Self {
        let (seq1, len1) = first;
        let (seq2, len2, count) = second.map_or((0, 0, 1), |(s, l)| (s, l, 2));
        Entry(
            (len1 + len2) | len1 << 6 | count << 10 | u32::from(seq1) << 12 | u32::from(seq2) << 21,
        )
    }

    /// Bits the entry's codewords take together.
    #[inline(always)]
    fn total(self) -> u32 {
        self.0 & 0x3F
    }

    /// `bits` with the entry's codewords shifted out: the total is the
    /// low six bits, which is all a 64-bit shift reads.
    #[inline(always)]
    fn shift_out(self, bits: u64) -> u64 {
        bits.wrapping_shl(self.0)
    }

    /// Bits of the second codeword (0 when there is none).
    #[inline(always)]
    fn second_len(self) -> u32 {
        self.total() - (self.0 >> 6 & 0xF)
    }

    #[inline(always)]
    fn count(self) -> usize {
        (self.0 >> 10 & 3) as usize
    }

    #[inline(always)]
    fn seqs(self) -> [u16; 2] {
        [(self.0 >> 12) as u16 & 0x1FF, (self.0 >> 21) as u16 & 0x1FF]
    }
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
    /// Code length of node `i` in byte `i` — the hardware's length table.
    lens: u64,
    /// Table lookups one window always serves:
    /// `57 / max(12, max_len)`.
    lookups: usize,
    entries: [NodeEntry; MAX_NODES],
    /// Every node's sequences, node-major in index order.
    flat: Vec<u16>,
    /// The two-symbol table, indexed by the window's top 12 bits.
    pairs: Box<[Entry; 1 << TABLE_BITS]>,
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
        // The codes that fit the table, per node: `(code, length,
        // sequences)`, the code of index 0 in the low `length` bits.
        let short: Vec<(u32, u32, &[u16])> = (0..nodes)
            .filter_map(|node| {
                let len = (lens >> (8 * node)) as u8 as u32;
                let e = entries[node];
                let prefix = ((1u32 << node) - 1) << 1;
                (len <= TABLE_BITS).then(|| {
                    let seqs = &flat[e.offset as usize..][..e.table_len as usize];
                    (prefix << (len - node as u32 - 1), len, seqs)
                })
            })
            .collect();
        let pairs = pair_table(&short);
        DecodeTables {
            nodes: nodes as u32,
            max_len,
            lens,
            lookups: (WINDOW_BITS / TABLE_BITS.max(max_len as u32)) as usize,
            entries,
            flat,
            pairs,
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

    /// The two-symbol table entry for the top 12 bits of `window`.
    #[inline(always)]
    fn lookup(&self, window: u64) -> Entry {
        self.pairs[(window >> (64 - TABLE_BITS)) as usize]
    }
}

/// Build the two-symbol table by walking the codewords of at most 12
/// bits (`(code, length, sequences)` per node): each code owns the
/// `2^(12 - length)` entries it prefixes, first as a one-symbol entry,
/// then, for every code that fits the bits left over, the sub-range that
/// code prefixes as a two-symbol entry. Codes form a prefix code, so no
/// two writes of one pass overlap; entries no code prefixes stay escapes.
fn pair_table(short: &[(u32, u32, &[u16])]) -> Box<[Entry; 1 << TABLE_BITS]> {
    let mut pairs: Box<[Entry; 1 << TABLE_BITS]> = vec![Entry::ESCAPE; 1 << TABLE_BITS]
        .into_boxed_slice()
        .try_into()
        .expect("table size");
    for &(base1, len1, seqs1) in short {
        let rest = TABLE_BITS - len1;
        for (i1, &seq1) in seqs1.iter().enumerate() {
            let at = ((base1 | i1 as u32) << rest) as usize;
            pairs[at..at + (1 << rest)].fill(Entry::new((seq1, len1), None));
            for &(base2, len2, seqs2) in short.iter().filter(|c| c.1 <= rest) {
                let tail = rest - len2;
                for (i2, &seq2) in seqs2.iter().enumerate() {
                    let sub = at + ((base2 | i2 as u32) << tail) as usize;
                    pairs[sub..sub + (1 << tail)]
                        .fill(Entry::new((seq1, len1), Some((seq2, len2))));
                }
            }
        }
    }
    pairs
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

/// A group's decode buffer: 64 sequences plus the spare slot a two-symbol
/// lookup may write past the group.
type GroupBuf = [u16; SEQS_PER_GROUP + 1];

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

    /// Decode the next `n` codewords into `buf[..n]` — the one symbol loop
    /// every collector runs. `buf[n]` may be overwritten. The position
    /// only advances on success.
    fn decode_run(&mut self, buf: &mut GroupBuf, n: usize) -> Result<()> {
        let t = &self.tables;
        let stream = self.stream;
        let limit = self.limit;
        let mut pos = self.pos;
        let bound = pos + n * t.max_len;
        if bound <= limit && bound / 8 + 8 <= stream.len() {
            // Every codeword of the group ends before `bound`, so every
            // window load is in range and no per-symbol checks are due.
            // A lookup starts at most `max(12, max_len)` bits after the
            // last, so `lookups` of them stay inside the window's 57
            // valid bits.
            let mut i = 0;
            while i < n {
                let mut bits = window(stream, pos);
                for _ in 0..t.lookups {
                    let e = t.lookup(bits);
                    if e == Entry::ESCAPE {
                        let (seq, len) = t.symbol(bits)?;
                        buf[i] = seq;
                        i += 1;
                        bits <<= len;
                        pos += len as usize;
                    } else {
                        // Both slots are written whatever the count;
                        // `buf` has one spare past the group.
                        let [seq1, seq2] = e.seqs();
                        buf[i] = seq1;
                        buf[i + 1] = seq2;
                        i += e.count();
                        bits = e.shift_out(bits);
                        pos += e.total() as usize;
                    }
                    if i >= n {
                        if i > n {
                            // The last lookup also took the next group's
                            // first codeword: give its bits back.
                            pos -= e.second_len() as usize;
                        }
                        break;
                    }
                }
            }
        } else {
            for s in &mut buf[..n] {
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
        let mut buf: GroupBuf = [0; SEQS_PER_GROUP + 1];
        self.decode_run(&mut buf, seqs)?;
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
        let mut buf: GroupBuf = [0; SEQS_PER_GROUP + 1];
        while self.next < self.num_groups() {
            let seqs = self.next_group_len();
            self.decode_run(&mut buf, seqs)?;
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

    /// Every entry of the two-symbol table must be what two successive
    /// bit-serial decodes of the same 12 bits give, and an escape exactly
    /// when the first code is over 12 bits or invalid (then the bit-serial
    /// decode of 12 bits fails too). Returns how many entries resolve no,
    /// one and two codewords.
    fn check_pair_table(tree: &SimplifiedTree, what: &str) -> [usize; 3] {
        use crate::bitstream::BitReader;
        let t = DecodeTables::new(tree);
        let mut kinds = [0usize; 3];
        for w in 0..1u32 << TABLE_BITS {
            let bytes = ((w << (16 - TABLE_BITS)) as u16).to_be_bytes();
            let mut r = BitReader::with_limit(&bytes, TABLE_BITS as usize);
            let e = t.pairs[w as usize];
            let Ok(first) = tree.decode(&mut r) else {
                assert_eq!(e, Entry::ESCAPE, "{what}: {w:012b} resolves no code");
                kinds[0] += 1;
                continue;
            };
            assert_ne!(e, Entry::ESCAPE, "{what}: {w:012b} escapes a short code");
            let len1 = r.position() as u32;
            assert_eq!(e.seqs()[0], first.value(), "{what}: {w:012b} first");
            assert_eq!(e.total() - e.second_len(), len1, "{what}: {w:012b} len1");
            match tree.decode(&mut r) {
                Ok(second) => {
                    assert_eq!(e.count(), 2, "{what}: {w:012b} count");
                    assert_eq!(e.seqs()[1], second.value(), "{what}: {w:012b} second");
                    assert_eq!(e.total() as usize, r.position(), "{what}: {w:012b} total");
                }
                Err(_) => {
                    assert_eq!(e.count(), 1, "{what}: {w:012b} count");
                    assert_eq!((e.total(), e.seqs()[1]), (len1, 0), "{what}: {w:012b}");
                }
            }
            kinds[e.count()] += 1;
        }
        kinds
    }

    /// 512 sequences in a seeded random ranking, the first `n` of them.
    fn ranked(n: usize, rng: &mut StdRng) -> Vec<crate::BitSeq> {
        use rand::Rng;
        let mut all: Vec<u16> = (0..512).collect();
        for i in 0..n {
            let j = rng.random_range(i..512);
            all.swap(i, j);
        }
        all[..n]
            .iter()
            .map(|&v| crate::BitSeq::new(v).unwrap())
            .collect()
    }

    #[test]
    fn pair_table_matches_two_bit_serial_decodes() {
        use crate::huffman::TreeConfig;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let mut seen = [0usize; 3];
        let mut add = |kinds: [usize; 3]| {
            for (s, k) in seen.iter_mut().zip(kinds) {
                *s += k;
            }
        };
        // The paper tree: full tables but the last node widened to 13-bit
        // codes, and partly filled tables with invalid indices.
        for n in [1usize, 32, 100, 416, 512] {
            let tree = SimplifiedTree::from_ranked(&ranked(n, &mut rng), TreeConfig::paper());
            add(check_pair_table(&tree, &format!("paper, {n} sequences")));
        }
        // The clustered codec's tree on a skewed kernel.
        let kernel = SeqDistribution::for_block(2, 0).sample_kernel(64, 64, &mut rng);
        let ck = KernelCodec::paper_clustered().compress(&kernel).unwrap();
        add(check_pair_table(ck.tree(), "clustered"));
        for case in 0..60 {
            let nodes = rng.random_range(2..=8usize);
            // Every other case keeps every code under 12 bits; the rest
            // reach 8 + 15 = 23.
            let short = case % 2 == 0;
            let caps: Vec<usize> = (0..nodes)
                .map(|i| {
                    let most = if short { 10 - i as u32 } else { 15 };
                    1usize << rng.random_range(0..=most)
                })
                .collect();
            let config = TreeConfig::with_capacities(caps.clone()).unwrap();
            let room = if short {
                config.total_capacity().min(512)
            } else {
                512
            };
            let n = rng.random_range(1..=room);
            let tree = SimplifiedTree::from_ranked(&ranked(n, &mut rng), config);
            if short {
                assert!(tree.length_table().iter().all(|&l| l < 12), "{caps:?}");
            }
            add(check_pair_table(
                &tree,
                &format!("capacities {caps:?}, {n} sequences"),
            ));
        }
        assert!(
            seen.iter().all(|&k| k > 0),
            "escape/one/two entries: {seen:?}"
        );
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
