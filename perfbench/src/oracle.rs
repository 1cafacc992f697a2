//! The correctness oracle: logits from the offline decode path
//! (`decode_kernel` + `set_conv3_weights`, the path `bnnkc run --offline`
//! takes), compared bit for bit with what the measured path produced.

use bitnn::{Engine, ModelGraph, Tensor};
use kc_core::container::ModelContainer;

/// Whether two logit vectors are identical bit for bit.
pub fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Expected logits of `inputs` on `template` with `container`'s kernels
/// deployed through the offline decompress-then-pack path.
pub fn offline_logits(
    template: &ModelGraph,
    container: &ModelContainer,
    inputs: &[Tensor],
) -> Result<Vec<Vec<f32>>, String> {
    let mut model = template.clone();
    for (i, c) in container.kernels.iter().enumerate() {
        let weights = c
            .decode_kernel()
            .map_err(|e| format!("offline decode: {e}"))?;
        model
            .set_conv3_weights(i, weights)
            .map_err(|e| format!("offline deploy: {e}"))?;
    }
    let outs = model
        .forward_batch(inputs, &Engine::single_threaded())
        .map_err(|e| format!("offline forward: {e}"))?;
    Ok(outs.into_iter().map(Tensor::into_vec).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::graph::arch::{build_model, build_spec, sample_conv3_kernels, Arch};
    use bitnn::infer::synthetic_batch;
    use kc_core::codec::KernelCodec;
    use kc_core::container::{read_model_container, write_model_container_v3};

    #[test]
    fn single_flipped_logit_bit_is_rejected() {
        let spec = build_spec(Arch::VggSmall, 0.0625, 16).unwrap();
        let codec = KernelCodec::paper_clustered();
        let kernels: Vec<_> = sample_conv3_kernels(&spec, 5)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        let container =
            read_model_container(&write_model_container_v3(&spec, &kernels).unwrap()).unwrap();
        let template = build_model(Arch::VggSmall, 0.0625, 16, 9).unwrap();
        let inputs = synthetic_batch(2, 3, 16, 1);
        let want = offline_logits(&template, &container, &inputs).unwrap();

        // The streamed deploy path agrees with the oracle bit for bit.
        let mut model = template.clone();
        for (i, c) in container.kernels.iter().enumerate() {
            model
                .set_conv3_packed(i, c.decode_packed().unwrap())
                .unwrap();
        }
        let got = model
            .forward_batch(&inputs, &Engine::single_threaded())
            .unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!(same_bits(g.data(), w));
        }

        // Every single-bit flip of every logit is a mismatch, even the
        // lowest mantissa bit, which no tolerance-based compare would see.
        let mut bad = want[0].clone();
        for i in 0..bad.len() {
            for bit in [0, 22, 31] {
                let orig = bad[i];
                bad[i] = f32::from_bits(orig.to_bits() ^ (1 << bit));
                assert!(!same_bits(&bad, &want[0]), "flip of bit {bit} in logit {i}");
                bad[i] = orig;
            }
        }
        assert!(same_bits(&bad, &want[0]));
        assert!(!same_bits(&bad[1..], &want[0]));
    }
}
