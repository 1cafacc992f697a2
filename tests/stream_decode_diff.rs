//! Differential tests of the table-driven stream decoder against the
//! bit-serial oracle.
//!
//! `GroupDecoder` (window + leading-ones node lookup + word-parallel
//! transpose) backs `Container::decode_packed` and `decode_bank`; the
//! oracle is `Container::decode_kernel` (one `BitReader::read_bit` per
//! prefix and index bit) followed by `PackedKernel::pack`. On valid
//! streams every fast collector — `collect_packed`, the `decode_next`
//! group stream and `collect_bank` — must equal the oracle exactly; on
//! damaged streams (every single-byte flip, every truncation of
//! `stream_bits`, surplus and leftover bits) fast and oracle must return
//! the same value or both `KcError::CorruptStream`, and neither may panic.
//! v3 digests would reject the damage before any decode, so the sweeps
//! feed streams through `GroupDecoder::from_parts` and
//! `read_model_container_unverified`.

mod common;

use bitnn::weightgen::write_sequence;
use bnnkc::prelude::*;
use common::corrupt::{find, flip, sweep_single_byte, truncate};
use kc_core::KcError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A kernel of `filters x channels` sequences drawn from `distinct`
/// random sequences with a geometric skew (a few hot, a long tail).
fn skewed_kernel(filters: usize, channels: usize, distinct: usize, rng: &mut StdRng) -> BitTensor {
    let mut pool: Vec<u16> = (0..512).collect();
    for i in 0..distinct {
        let j = rng.random_range(i..512);
        pool.swap(i, j);
    }
    let mut kernel = BitTensor::zeros(&[filters, channels, 3, 3]);
    for f in 0..filters {
        for ch in 0..channels {
            let mut k = 0;
            while k + 1 < distinct && rng.random_range(0..4u32) != 0 {
                k += 1;
            }
            let pick = if rng.random_range(0..3u32) == 0 {
                rng.random_range(0..distinct)
            } else {
                k
            };
            write_sequence(&mut kernel, f, ch, pool[pick]);
        }
    }
    kernel
}

/// Every one of the 512 sequences at least once (channels permitting),
/// the rest random.
fn all_sequences_kernel(filters: usize, channels: usize, rng: &mut StdRng) -> BitTensor {
    let mut kernel = BitTensor::zeros(&[filters, channels, 3, 3]);
    for i in 0..filters * channels {
        let seq = if i < 512 {
            i as u16
        } else {
            rng.random_range(0..512u16)
        };
        write_sequence(&mut kernel, i / channels, i % channels, seq);
    }
    kernel
}

/// Random tree shape: 2..=8 nodes, power-of-two capacities up to 2^15
/// (the container stores u16 capacities), so codes reach 8 + 15 = 23 bits.
fn random_config(rng: &mut StdRng) -> TreeConfig {
    let nodes = rng.random_range(2..=8usize);
    let caps = (0..nodes)
        .map(|_| 1usize << rng.random_range(0..=15u32))
        .collect();
    TreeConfig::with_capacities(caps).unwrap()
}

/// The oracle: bit-serial decode to a flat tensor, then pack.
fn oracle(c: &Container) -> Result<PackedKernel, KcError> {
    c.decode_kernel()
        .map(|k| PackedKernel::pack(&k).expect("decoded tensor packs"))
}

/// A `PackedKernel` assembled from the `decode_next` group stream.
fn from_groups(
    mut dec: GroupDecoder<'_>,
    filters: usize,
    channels: usize,
) -> Result<PackedKernel, KcError> {
    let lanes = channels.div_ceil(64);
    let mut data = vec![0u64; filters * 9 * lanes];
    while let Some(g) = dec.decode_next()? {
        for (p, &w) in g.words.iter().enumerate() {
            data[(g.filter * 9 + p) * lanes + g.lane] = w;
        }
    }
    Ok(PackedKernel::from_lane_words(filters, channels, 3, 3, data).expect("group layout"))
}

/// Run the three fast collectors and the oracle over the same parts and
/// assert they agree: identical values, or `CorruptStream` from all four.
/// Returns the agreed result.
fn agree(
    tree: &SimplifiedTree,
    stream: &[u8],
    stream_bits: usize,
    filters: usize,
    channels: usize,
) -> Result<PackedKernel, KcError> {
    let dec = || GroupDecoder::from_parts(tree, stream, stream_bits, filters, channels);
    let reference = oracle(&Container {
        filters,
        channels,
        tree: tree.clone(),
        stream_bits,
        stream: stream.to_vec().into(),
    });
    let fast = [
        ("collect_packed", dec().collect_packed()),
        ("decode_next", from_groups(dec(), filters, channels)),
        ("collect_bank", dec().collect_bank().map(|b| b.to_packed())),
    ];
    for (what, got) in fast {
        match (&reference, &got) {
            (Ok(r), Ok(g)) => assert_eq!(r, g, "{what} differs from the oracle"),
            (Err(KcError::CorruptStream(_)), Err(KcError::CorruptStream(_))) => {}
            (r, g) => panic!(
                "{what} disagrees with the oracle ({filters}x{channels}, {stream_bits} bits): \
                 oracle {r:?}, fast {g:?}"
            ),
        }
    }
    reference
}

fn check_valid(ck: &CompressedKernel) {
    let got = agree(
        ck.tree(),
        ck.stream(),
        ck.stream_bits(),
        ck.filters(),
        ck.channels(),
    );
    let expect = PackedKernel::pack(&ck.decompress().unwrap()).unwrap();
    assert_eq!(got.expect("valid stream decodes"), expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random trees (2..=8 nodes, capacities up to 2^15, codes up to 23
    /// bits) over every lane geometry: channels below 64, channels with
    /// a tail lane, and whole multi-lane rows.
    #[test]
    fn fast_collectors_equal_oracle_on_random_trees(
        seed in any::<u64>(),
        filters in 1usize..5,
        channels in prop_channels(),
        distinct in 1usize..=512,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel = skewed_kernel(filters, channels, distinct, &mut rng);
        let ck = KernelCodec::new(random_config(&mut rng)).compress(&kernel).unwrap();
        check_valid(&ck);
    }
}

/// Channel counts covering the three lane shapes.
fn prop_channels() -> impl Strategy<Value = usize> {
    struct Channels;
    impl Strategy for Channels {
        type Value = usize;
        fn sample(&self, rng: &mut StdRng) -> usize {
            match rng.random_range(0..3u32) {
                0 => rng.random_range(1..64),
                1 => 64 * rng.random_range(1..4usize) + rng.random_range(1..64usize),
                _ => 64 * rng.random_range(1..5usize),
            }
        }
    }
    Channels
}

#[test]
fn longest_codes_decode_exactly() {
    // Seven singleton nodes then a 2^15 node: every tail sequence gets the
    // maximal 8 + 15 = 23-bit code, so one window holds only two codewords.
    let config = TreeConfig::with_capacities(vec![1, 1, 1, 1, 1, 1, 1, 1 << 15]).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    for (f, c) in [(3usize, 40usize), (2, 130), (4, 128)] {
        let kernel = skewed_kernel(f, c, 300, &mut rng);
        let ck = KernelCodec::new(config.clone()).compress(&kernel).unwrap();
        assert_eq!(ck.tree().code_len(7), 23);
        check_valid(&ck);
    }
}

#[test]
fn widened_last_node_with_all_512_sequences() {
    // Capacities total far below 512, so the last node absorbs the rest
    // and widens to a 9-bit index; every one of the 512 sequences occurs.
    let mut rng = StdRng::seed_from_u64(512);
    for caps in [
        vec![32, 64, 64, 256],
        vec![2, 4],
        vec![1, 1, 1, 1, 1, 1, 1, 2],
    ] {
        let config = TreeConfig::with_capacities(caps).unwrap();
        for (f, c) in [(8usize, 70usize), (2, 256), (9, 60)] {
            let kernel = all_sequences_kernel(f, c, &mut rng);
            let ck = KernelCodec::new(config.clone()).compress(&kernel).unwrap();
            assert_eq!(ck.tree().assigned(), 512);
            check_valid(&ck);
        }
    }
}

/// Corruption fixtures: the paper tree, a 23-bit-code tree and a widened
/// tree, each over a tail-lane geometry.
fn corruption_fixtures() -> Vec<CompressedKernel> {
    let mut rng = StdRng::seed_from_u64(0xC022);
    let configs = [
        TreeConfig::paper(),
        TreeConfig::with_capacities(vec![1, 1, 1, 1, 1, 1, 1, 1 << 15]).unwrap(),
        TreeConfig::with_capacities(vec![4, 8]).unwrap(),
    ];
    configs
        .into_iter()
        .map(|config| {
            let kernel = skewed_kernel(3, 70, 200, &mut rng);
            KernelCodec::new(config).compress(&kernel).unwrap()
        })
        .collect()
}

/// Single-bit masks plus a full-byte inversion.
const MASKS: [u8; 9] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF];

#[test]
fn every_stream_byte_flip_agrees_with_oracle() {
    for ck in corruption_fixtures() {
        let (tree, bits) = (ck.tree(), ck.stream_bits());
        let clean = agree(tree, ck.stream(), bits, ck.filters(), ck.channels()).unwrap();
        // Every byte, including the last 8 where the checked tail path
        // runs; `agree` panics on any disagreement.
        let report = sweep_single_byte(
            ck.stream(),
            &clean,
            |s| agree(tree, s, bits, ck.filters(), ck.channels()),
            &MASKS,
            false,
            false,
        );
        assert_eq!(report.mutations, ck.stream().len() * MASKS.len());
        assert!(report.detected > 0, "some flips must be rejected");
    }
}

#[test]
fn every_truncation_of_stream_bits_errors_in_both() {
    for ck in corruption_fixtures() {
        // The same cuts again with readable garbage after the slice's
        // payload: no group may decode past `stream_bits` just because the
        // bytes are there.
        let mut slack = ck.stream().to_vec();
        slack.extend([0xFF; 256]);
        for cut in 0..ck.stream_bits() {
            for s in [&ck.stream()[..], &slack] {
                let r = agree(ck.tree(), s, cut, ck.filters(), ck.channels());
                assert!(r.is_err(), "cut to {cut} bits must fail");
            }
        }
        // Byte-level truncation of the slice itself, limit clamped to it.
        for len in 0..ck.stream().len() {
            let s = truncate(ck.stream(), len);
            let r = agree(ck.tree(), &s, s.len() * 8, ck.filters(), ck.channels());
            assert!(r.is_err(), "stream cut to {len} bytes must fail");
        }
    }
}

#[test]
fn surplus_and_leftover_bits_error_in_both() {
    for ck in corruption_fixtures() {
        let (f, c, bits) = (ck.filters(), ck.channels(), ck.stream_bits());
        // Extra payload after the last codeword: zero bits in the padding,
        // then whole appended bytes of ones and of zeros.
        let room = ck.stream().len() * 8 - bits;
        for extra in 1..=room {
            assert!(agree(ck.tree(), ck.stream(), bits + extra, f, c).is_err());
        }
        for fill in [0x00u8, 0xFF, 0x5A] {
            for n in 1..=16 {
                let mut s = ck.stream().to_vec();
                s.extend(std::iter::repeat_n(fill, n));
                assert!(agree(ck.tree(), &s, s.len() * 8, f, c).is_err());
            }
        }
        // The geometry claims fewer filters (leftover bits) or more
        // (the stream runs out), and a narrower row (misaligned groups).
        assert!(agree(ck.tree(), ck.stream(), bits, f - 1, c).is_err());
        assert!(agree(ck.tree(), ck.stream(), bits, f + 1, c).is_err());
        assert!(agree(ck.tree(), ck.stream(), bits, f, c - 1).is_err());
    }
}

#[test]
fn flipped_records_in_unverified_containers_agree() {
    // A real v3 model image: flip bytes inside one record's stream and
    // read it back without digest checks, so the damage reaches decode.
    let spec = build_spec(Arch::ResNetLite, 0.0625, 16).unwrap();
    let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 0xD1FF)
        .unwrap()
        .iter()
        .map(|k| KernelCodec::paper_clustered().compress(k).unwrap())
        .collect();
    let image = write_model_container_v3(&spec, &kernels).unwrap().to_vec();
    let (rec, target) = kernels
        .iter()
        .enumerate()
        .max_by_key(|(_, k)| k.stream().len())
        .unwrap();
    let at = find(&image, target.stream()).expect("record stream in image");
    let mut decoded = 0;
    for i in at..at + target.stream().len() {
        let Ok(model) = read_model_container_unverified(&flip(&image, i, 0xFF)) else {
            continue; // structural checks (e.g. padding bits) caught it
        };
        let c = &model.kernels[rec];
        let bank = c.decode_bank().map(|b| b.to_packed());
        match (oracle(c), c.decode_packed(), bank) {
            (Ok(r), Ok(p), Ok(b)) => {
                assert_eq!(r, p);
                assert_eq!(r, b);
            }
            (
                Err(KcError::CorruptStream(_)),
                Err(KcError::CorruptStream(_)),
                Err(KcError::CorruptStream(_)),
            ) => {}
            (r, p, b) => panic!("stream byte {}: {r:?} / {p:?} / {b:?}", i - at),
        }
        decoded += 1;
    }
    assert!(decoded > 0);
}
