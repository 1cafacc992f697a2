//! The `deploy` workload and the traced `infer` phase: ReActNet scale
//! 1.0 at image 32, clustered codec, v3 container, on a 1-thread engine.

use crate::oracle::{offline_logits, same_bits};
use crate::stats::median;
use crate::trace::Tracer;
use bitnn::engine::ConvScratch;
use bitnn::graph::arch::{build_model, build_spec, sample_conv3_kernels, Arch};
use bitnn::graph::{BatchScratch, NodeOp, ShapeInfo};
use bitnn::infer::{synthetic_batch, RUN_INPUT_SALT};
use bitnn::pack::{PackedActivations, PackedKernel};
use bitnn::simd::{self, ConvLowering};
use bitnn::weightgen::random_kernel;
use bitnn::{Engine, ModelGraph, Tensor};
use kc_core::codec::KernelCodec;
use kc_core::container::{
    read_model_container, read_model_container_unverified, write_model_container_v3,
};
use std::hint::black_box;
use std::time::Instant;

const SCALE: f64 = 1.0;
const IMAGE: usize = 32;
/// Batch size of the `infer` phase and of the standalone conv probe.
pub const INFER_BATCH: usize = 16;
/// Distinct images the `deploy` workload cycles through.
const DEPLOY_IMAGES: usize = 8;
/// Unmeasured deploys before the measured loop: the first ones pay the
/// process's lowering autotuner and allocator growth.
const DEPLOY_WARMUP: u64 = 3;

/// Everything a ReActNet workload needs, built from the seed during
/// set-up: the container bytes, the template graph the deploy clones,
/// the inputs, and the oracle's logits for each input.
pub struct Fixture {
    /// The v3 container image.
    pub bytes: Vec<u8>,
    /// Weighted graph whose 3×3 kernels every deploy replaces; never
    /// forwarded, so each clone pays the lazy set-up a fresh deploy pays.
    pub template: ModelGraph,
    /// Workload inputs.
    pub inputs: Vec<Tensor>,
    /// Offline-path logits of each input.
    pub oracle: Vec<Vec<f32>>,
    /// Time to compress the 13 kernels, ms.
    pub compress_ms: f64,
    /// Uncompressed over compressed kernel bits.
    pub ratio: f64,
    /// 9-bit sequences across all records.
    pub seqs: usize,
    /// Huffman stream bits across all records.
    pub stream_bits: usize,
}

/// Build the fixture for `seed` with `n_inputs` input images.
pub fn fixture(seed: u64, n_inputs: usize) -> Result<Fixture, String> {
    let mut fx = fixture_without_oracle(seed, n_inputs)?;
    add_oracle(&mut fx)?;
    Ok(fx)
}

/// Compute the oracle's logits of each input. This forwards the template,
/// so it runs the lowering autotuner if nothing ran it before.
fn add_oracle(fx: &mut Fixture) -> Result<(), String> {
    let container = read_model_container(&fx.bytes).map_err(|e| format!("read container: {e}"))?;
    fx.oracle = offline_logits(&fx.template, &container, &fx.inputs)?;
    Ok(())
}

/// [`fixture`] with an empty `oracle`.
fn fixture_without_oracle(seed: u64, n_inputs: usize) -> Result<Fixture, String> {
    let spec = build_spec(Arch::ReActNet, SCALE, IMAGE).map_err(|e| e.to_string())?;
    let kernels = sample_conv3_kernels(&spec, seed ^ 0xC0DE).map_err(|e| e.to_string())?;
    let codec = KernelCodec::paper_clustered();
    let t = Instant::now();
    let compressed = kernels
        .iter()
        .map(|k| codec.compress(k))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("compress: {e}"))?;
    let compress_ms = t.elapsed().as_secs_f64() * 1e3;
    let original: usize = compressed.iter().map(|c| c.original_bits()).sum();
    let stream_bits: usize = compressed.iter().map(|c| c.stream_bits()).sum();
    let bytes = write_model_container_v3(&spec, &compressed)
        .map_err(|e| format!("write container: {e}"))?
        .to_vec();
    let template =
        build_model(Arch::ReActNet, SCALE, IMAGE, seed ^ 0xA11C).map_err(|e| e.to_string())?;
    let inputs = synthetic_batch(n_inputs, 3, IMAGE, seed ^ RUN_INPUT_SALT);
    Ok(Fixture {
        bytes,
        template,
        inputs,
        oracle: Vec::new(),
        compress_ms,
        ratio: original as f64 / stream_bits as f64,
        seqs: original / 9,
        stream_bits,
    })
}

/// The `deploy` fixture.
pub fn deploy_fixture(seed: u64) -> Result<Fixture, String> {
    fixture(seed, DEPLOY_IMAGES)
}

/// One deploy: container bytes → verified read → 13 stream decodes →
/// template clone → packed kernels set → first logits of one image.
/// Returns the deployed graph (for traced follow-up probes), the logits
/// and the elapsed time in ms.
pub fn deploy_once(
    tr: &mut Tracer,
    fx: &Fixture,
    engine: &Engine,
    image: &Tensor,
) -> Result<(ModelGraph, Vec<f32>, f64), String> {
    let t0 = Instant::now();
    let (model, logits) = tr.span("deploy", |tr| -> Result<_, String> {
        let container = tr
            .span("container.read", |_| read_model_container(&fx.bytes))
            .map_err(|e| format!("read container: {e}"))?;
        let packed = container
            .kernels
            .iter()
            .map(|c| tr.span("decode", |_| c.decode_packed()))
            .collect::<Result<Vec<PackedKernel>, _>>()
            .map_err(|e| format!("stream decode: {e}"))?;
        let mut model = tr.span("graph.clone", |_| fx.template.clone());
        tr.span("graph.set_packed", |_| {
            packed
                .into_iter()
                .enumerate()
                .try_for_each(|(i, p)| model.set_conv3_packed(i, p))
        })
        .map_err(|e| format!("set packed: {e}"))?;
        let out = tr
            .span("graph.first_forward", |_| {
                model.forward_batch(std::slice::from_ref(image), engine)
            })
            .map_err(|e| format!("forward: {e}"))?;
        let logits = out.into_iter().next().ok_or("no logits")?.into_vec();
        Ok((model, logits))
    })?;
    Ok((model, logits, t0.elapsed().as_secs_f64() * 1e3))
}

/// The operations of one measured closed loop (deploys or batches).
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Per-op latency, ms.
    pub ms: Vec<f64>,
    /// Whether each op was traced.
    pub traced: Vec<bool>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or returned wrong logits.
    pub failed: u64,
    /// Wall time of the measured loop, s.
    pub wall_s: f64,
    /// First failure, if any.
    pub error: Option<String>,
}

/// Closed-loop deploys for at least `seconds` and `min_ops` ops (after
/// [`DEPLOY_WARMUP`] unmeasured ops). With `trace_every` = `Some(k)`, every k-th
/// op is traced and followed by the traced-only probes (a warm forward of
/// the deployed graph and an unverified container read).
pub fn run_deploy(
    tr: &mut Tracer,
    fx: &Fixture,
    seconds: f64,
    min_ops: usize,
    trace_every: Option<u64>,
) -> LoopRun {
    let engine = Engine::single_threaded();
    let mut run = LoopRun::default();
    let mut start = Instant::now();
    let mut i = 0u64;
    loop {
        if i == DEPLOY_WARMUP {
            start = Instant::now();
        }
        let measured = i >= DEPLOY_WARMUP;
        if measured && run.ms.len() >= min_ops && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = trace_every.is_some_and(|k| measured && i.is_multiple_of(k));
        tr.set_enabled(traced);
        tr.set_op(i);
        let img = i as usize % fx.inputs.len();
        run.attempted += 1;
        match deploy_once(tr, fx, &engine, &fx.inputs[img]) {
            Ok((model, logits, ms)) => {
                if !same_bits(&logits, &fx.oracle[img]) {
                    run.failed += 1;
                    run.error
                        .get_or_insert(format!("deploy {i}: logits differ from the oracle"));
                }
                if measured {
                    run.ms.push(ms);
                    run.traced.push(traced);
                }
                if traced {
                    tr.span("graph.warm_forward", |_| {
                        black_box(
                            model.forward_batch(std::slice::from_ref(&fx.inputs[img]), &engine),
                        )
                    })
                    .ok();
                    tr.span("container.read_unverified", |_| {
                        black_box(read_model_container_unverified(&fx.bytes))
                    })
                    .ok();
                }
            }
            Err(e) => {
                run.failed += 1;
                run.error.get_or_insert(format!("deploy {i}: {e}"));
            }
        }
        i += 1;
    }
    tr.set_enabled(false);
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// A ReActNet deployed once through the streamed path, ready for warm
/// batch forwards.
pub struct Warm {
    /// Fixture the model was deployed from (its inputs are one batch).
    pub fx: Fixture,
    /// The deployed graph.
    pub model: ModelGraph,
    /// Time the process's autotuners add to its first forward, ms: that
    /// forward minus the first forward of a second fresh deploy, which
    /// pays the same lazy graph set-up but finds every choice made.
    pub autotune_ms: f64,
}

/// Deploy the fixture's container onto a fresh clone of its template.
fn deploy_packed(fx: &Fixture) -> Result<ModelGraph, String> {
    let container = read_model_container(&fx.bytes).map_err(|e| e.to_string())?;
    let mut model = fx.template.clone();
    for (i, c) in container.kernels.iter().enumerate() {
        let p = c.decode_packed().map_err(|e| e.to_string())?;
        model.set_conv3_packed(i, p).map_err(|e| e.to_string())?;
    }
    Ok(model)
}

/// The `infer` set-up. It must hold the process's first forward: two
/// fresh deploys each forward one batch, the first of them tuning, and
/// only then is the oracle computed.
pub fn infer_setup(seed: u64) -> Result<Warm, String> {
    if !simd::conv_choices().is_empty() {
        return Err("engine.autotune_ms needs the process's first forward, \
                    but the lowering autotuner already ran"
            .into());
    }
    let mut fx = fixture_without_oracle(seed, INFER_BATCH)?;
    let engine = Engine::single_threaded();
    let first_forward = || -> Result<(ModelGraph, f64), String> {
        let model = deploy_packed(&fx)?;
        let t = Instant::now();
        black_box(
            model
                .forward_batch(&fx.inputs, &engine)
                .map_err(|e| e.to_string())?,
        );
        Ok((model, t.elapsed().as_secs_f64() * 1e3))
    };
    let (model, tuning_ms) = first_forward()?;
    let (_, tuned_ms) = first_forward()?;
    add_oracle(&mut fx)?;
    Ok(Warm {
        fx,
        model,
        autotune_ms: tuning_ms - tuned_ms,
    })
}

/// Closed-loop warm `forward_batch_into` at batch [`INFER_BATCH`] on a
/// 1-thread engine, every batch traced and its output checked against
/// the oracle.
pub fn run_infer(tr: &mut Tracer, w: &Warm, seconds: f64, min_ops: usize) -> LoopRun {
    let engine = Engine::single_threaded();
    let mut scratch = BatchScratch::default();
    let mut outs = Vec::new();
    let mut run = LoopRun::default();
    let start = Instant::now();
    let mut i = 0u64;
    while run.ms.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        tr.set_enabled(true);
        tr.set_op(i);
        run.attempted += 1;
        let t = Instant::now();
        let r = tr.span("infer", |_| {
            w.model
                .forward_batch_into(&w.fx.inputs, &engine, &mut scratch, &mut outs)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(()) => {
                let ok = outs.len() == w.fx.oracle.len()
                    && outs
                        .iter()
                        .zip(&w.fx.oracle)
                        .all(|(o, e)| same_bits(o.data(), e));
                if !ok {
                    run.failed += 1;
                    run.error
                        .get_or_insert(format!("batch {i}: logits differ from the oracle"));
                }
                run.ms.push(ms);
                run.traced.push(true);
            }
            Err(e) => {
                run.failed += 1;
                run.error.get_or_insert(format!("batch {i}: {e}"));
            }
        }
        i += 1;
    }
    tr.set_enabled(false);
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// The engine alone on the model's 3×3 convolutions: `Engine::conv2d_into`
/// over each of the 13 geometries at batch [`INFER_BATCH`], with the
/// layer's cached kernel forms. Also counts the lowerings the autotuner
/// chose for those geometries.
pub struct ConvProbe {
    /// Median over repetitions of the summed 13-conv time, ms.
    pub conv3x3_ms: f64,
    /// Geometries resolved to the streaming lowering.
    pub stream: usize,
    /// Geometries resolved to im2col.
    pub im2col: usize,
}

/// Run the standalone conv probe `reps` times on `model`.
pub fn conv_probe(model: &ModelGraph, seed: u64, reps: usize) -> Result<ConvProbe, String> {
    let engine = Engine::single_threaded();
    let shapes = model.spec().shapes().map_err(|e| e.to_string())?;
    let mut convs = Vec::new();
    for i in 0..model.num_conv3() {
        let node = &model.nodes()[model.conv3_node(i)];
        let NodeOp::BinConv(layer) = &node.op else {
            return Err(format!("conv3 node {i} is not a binary conv"));
        };
        let ShapeInfo::Map { ch, h, w } = shapes[node.inputs[0]] else {
            return Err(format!("conv3 node {i} has a flat input"));
        };
        let bits = random_kernel(&[INFER_BATCH, ch, h, w], seed ^ i as u64);
        let acts = PackedActivations::pack(&bits).map_err(|e| e.to_string())?;
        convs.push((layer, acts));
    }
    let mut scratch = ConvScratch::default();
    let mut out = Tensor::default();
    let mut run_all = || -> Result<f64, String> {
        let t = Instant::now();
        for (layer, acts) in &convs {
            engine
                .conv2d_into(
                    acts,
                    layer.forms_for(&engine),
                    layer.params(),
                    &mut scratch,
                    &mut out,
                )
                .map_err(|e| e.to_string())?;
            black_box(&out);
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    run_all()?;
    let times = (0..reps)
        .map(|_| run_all())
        .collect::<Result<Vec<_>, _>>()?;
    let geoms: Vec<(usize, usize, usize, usize)> = convs
        .iter()
        .map(|(l, a)| (a.channels(), l.filters(), a.height(), l.params().stride))
        .collect();
    let (mut stream, mut im2col) = (0, 0);
    for c in simd::conv_choices() {
        let g = c.geom;
        if geoms.contains(&(g.channels, g.filters, g.h, g.stride)) {
            match c.lowering {
                ConvLowering::Stream => stream += 1,
                ConvLowering::Im2col => im2col += 1,
            }
        }
    }
    Ok(ConvProbe {
        conv3x3_ms: median(&times),
        stream,
        im2col,
    })
}
