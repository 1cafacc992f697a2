//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deploy|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload with tracing off and prints the
//! end-to-end metrics; `--trace 1` runs every layer under spans, prints
//! the per-layer metrics, and writes the spans to
//! `perfbench/target/spans-<workload>-<seed>.jsonl`. Every output is
//! checked bit for bit against the offline-decode oracle. The last line
//! of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is nonzero when any output was wrong or any operation
//! failed. See README.md for the workloads and every metric.

mod host;
mod loadgen;
mod model;
mod oracle;
mod serve;
mod stats;
mod trace;

use stats::{median, min_samples, percentile};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Deploy,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Deploy => "deploy",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "deploy" => Workload::Deploy,
                    "serve" => Workload::Serve,
                    w => return Err(format!("unknown workload {w:?} (deploy, serve)")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, got {t:?}")),
                })
            }
            f => return Err(format!("unknown flag {f:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One run's result line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, attempted: u64, failed: u64, error: &Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(e) = error {
            self.errors.push(e.clone());
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `f` [`SETUPS`] times; keep the last result and the median time.
fn timed_setups<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), median(&times)))
}

fn ok_share(r: &Report) -> f64 {
    1.0 - r.failed as f64 / r.attempted.max(1) as f64
}

/// Print the tail percentile of the operation latencies. It is not an
/// end-to-end metric: on a shared host its run-to-run spread is wider
/// than any usable regression bound. The traced run reports it per layer.
fn print_tail(what: &str, ms: &[f64], p: f64) -> Result<(), String> {
    let v = percentile(ms, p)?;
    println!(
        "{what} p{:.0}: {v:.4} ms over {} samples",
        p * 100.0,
        ms.len()
    );
    Ok(())
}

/// Untraced run: the end-to-end metrics of one workload.
fn end_to_end(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let mut tr = Tracer::new(Instant::now());
    let (setup_s, model_bytes, p50, per_s) = match a.workload {
        Workload::Deploy => {
            let (fx, setup_s) = timed_setups(|| model::deploy_fixture(a.seed))?;
            let run = model::run_deploy(&mut tr, &fx, a.seconds, min_samples(0.90), None);
            r.count(run.attempted, run.failed, &run.error);
            print_tail("deploy", &run.ms, 0.90)?;
            let n = run.ms.len() as f64;
            (setup_s, fx.bytes.len(), median(&run.ms), n / run.wall_s)
        }
        Workload::Serve => {
            let plan = serve::Plan {
                low_s: (a.seconds * 0.6).max(min_samples(0.99) as f64 / serve::LOW_RATE),
                capacity_s: a.seconds * 0.3,
                ..serve::Plan::default()
            };
            let idle = serve::Plan::default();
            let mut setup = Vec::with_capacity(SETUPS);
            let mut last = None;
            for i in 0..SETUPS {
                let t = Instant::now();
                let fx = serve::fixture(a.seed)?;
                let fixture_s = t.elapsed().as_secs_f64();
                let run = serve::run(&fx, if i + 1 == SETUPS { plan } else { idle }, &mut tr);
                if let Some(e) = &run.error {
                    return Err(format!("serve: {e}"));
                }
                setup.push(fixture_s + run.start_s);
                last = Some((fx, run));
            }
            let (fx, run) = last.expect("SETUPS > 0");
            for p in [&run.low, &run.capacity] {
                r.count(p.sent, p.failed, &p.error);
            }
            r.count(
                run.swap_ms.len() as u64 + run.swap_failed,
                run.swap_failed,
                &None,
            );
            print_tail("low-rate request", &run.low.lat_ms, 0.99)?;
            println!(
                "closed-loop capacity: {:.0} req/s (median of {:.1} s slices)",
                run.capacity.goodput,
                serve::SLICE.as_secs_f64()
            );
            (
                median(&setup),
                fx.bytes[0].len(),
                median(&run.low.lat_ms),
                run.capacity.per_cpu_s,
            )
        }
    };
    r.metric("setup_s", setup_s, "s");
    r.metric("ok_share", ok_share(&r), "share");
    r.metric("peak_rss_mb", host::peak_rss_mb()?, "MB");
    r.metric("model_bytes", model_bytes as f64, "B");
    r.metric("op_ms.p50", p50, "ms");
    r.metric("ops_per_s", per_s, "1/s");
    Ok(r)
}

/// Median of the traced and of the untraced samples.
fn split_medians(ms: &[f64], traced: &[bool]) -> (f64, f64) {
    let pick = |want: bool| -> Vec<f64> {
        ms.iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(&m, _)| m)
            .collect()
    };
    (median(&pick(true)), median(&pick(false)))
}

/// Traced run: every layer's metrics. The named workload's phase gets
/// half the time and alternates traced and untraced operations, which
/// gives the tracing overhead; the other workload's phase and the `infer`
/// phase (warm batch forwards, where the engine layers are measured)
/// share the rest.
fn per_layer(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let epoch = Instant::now();
    let share = |w: Workload| a.seconds * if w == a.workload { 0.5 } else { 0.25 };
    let every = |w: Workload| Some(if w == a.workload { 2 } else { 1 });

    // Runs the process's first forward, which pays the autotuners.
    let warm = model::infer_setup(a.seed)?;

    let mut dtr = Tracer::new(epoch);
    let fx = model::deploy_fixture(a.seed)?;
    let dep = model::run_deploy(
        &mut dtr,
        &fx,
        share(Workload::Deploy),
        min_samples(0.90),
        every(Workload::Deploy),
    );
    r.count(dep.attempted, dep.failed, &dep.error);

    let mut itr = Tracer::new(epoch);
    let inf = model::run_infer(&mut itr, &warm, a.seconds * 0.25, min_samples(0.90));
    r.count(inf.attempted, inf.failed, &inf.error);
    let conv = model::conv_probe(&warm.model, a.seed, 10)?;

    let mut str_ = Tracer::new(epoch);
    let sfx = serve::fixture(a.seed)?;
    let s_share = share(Workload::Serve);
    let plan = serve::Plan {
        low_s: (s_share * 0.5).max(min_samples(0.99) as f64 / serve::LOW_RATE),
        high_s: (s_share * 0.3).max(min_samples(0.99) as f64 / serve::HIGH_RATE),
        capacity_s: s_share * 0.2,
        trace: true,
    };
    let srv = serve::run(&sfx, plan, &mut str_);
    if let Some(e) = &srv.error {
        return Err(format!("serve: {e}"));
    }
    for p in [&srv.low, &srv.high, &srv.capacity]
        .into_iter()
        .chain(&srv.ladder)
    {
        r.count(p.sent, p.failed, &p.error);
    }
    for p in &srv.ladder {
        let p99 = percentile(&p.lat_ms, 0.99).map_or("-".into(), |v| format!("{v:.3}"));
        println!(
            "ladder rung {:.0} req/s: p99 {p99} ms, pass {}",
            p.rate,
            p.meets_limit()
        );
    }
    r.count(
        srv.swap_ms.len() as u64 + srv.swap_failed,
        srv.swap_failed,
        &None,
    );

    // Deploy attribution: self time of each stage per traced deploy.
    let d_self = dtr.self_ms_by_name();
    let stage = |name: &str| d_self.get(name).map_or(0.0, |v| median(v));
    let deploy_ms = median(&dtr.total_ms("deploy"));
    let stages = [
        "container.read",
        "decode",
        "graph.clone",
        "graph.set_packed",
        "graph.first_forward",
    ];
    let stage_sum: f64 = stages.iter().map(|s| stage(s)).sum();
    let unspanned = stage("deploy");
    println!(
        "deploy attribution (median self ms over {} traced deploys, p50 {deploy_ms:.3} ms):",
        dtr.total_ms("deploy").len()
    );
    for s in stages {
        println!(
            "  {s:<22} {:>9.3} ms  {:>5.1}%",
            stage(s),
            100.0 * stage(s) / deploy_ms
        );
    }
    println!(
        "  {:<22} {unspanned:>9.3} ms  {:>5.1}%",
        "(unspanned)",
        100.0 * unspanned / deploy_ms
    );
    let coverage = stage_sum / deploy_ms;
    if (coverage - 1.0).abs() > 0.10 {
        r.errors.push(format!(
            "deploy stages sum to {stage_sum:.3} ms, {:.1}% of the {deploy_ms:.3} ms p50 (must be within 10%)",
            coverage * 100.0
        ));
    }
    let s_self = str_.self_ms_by_name();
    println!("serve attribution (median self ms over traced low-rate requests):");
    for (name, v) in &s_self {
        println!("  {name:<22} {:>9.4} ms", median(v));
    }
    println!("host {}", host::facts_json());

    let (traced, untraced) = match a.workload {
        Workload::Deploy => split_medians(&dep.ms, &dep.traced),
        Workload::Serve => (srv.traced_ms, srv.untraced_ms),
    };
    let decode_ms = stage("decode");
    let infer_ms = median(&inf.ms);
    let low_p50_us = median(&srv.low.lat_ms) * 1e3;
    let mut late = srv.low.late_ms.clone();
    late.extend(&srv.high.late_ms);
    let m = &mut r;
    m.metric("container.read_verify_ms", stage("container.read"), "ms");
    m.metric(
        "container.read_unverified_ms",
        stage("container.read_unverified"),
        "ms",
    );
    m.metric("decode.ms", decode_ms, "ms");
    m.metric("decode.share", decode_ms / deploy_ms, "share");
    m.metric("decode.ns_per_seq", decode_ms * 1e6 / fx.seqs as f64, "ns");
    m.metric(
        "decode.ns_per_stream_bit",
        decode_ms * 1e6 / fx.stream_bits as f64,
        "ns",
    );
    m.metric("decode.seqs", fx.seqs as f64, "count");
    m.metric("decode.stream_bits", fx.stream_bits as f64, "count");
    m.metric("codec.compress_ms", fx.compress_ms, "ms");
    m.metric("codec.ratio", fx.ratio, "x");
    m.metric("graph.clone_ms", stage("graph.clone"), "ms");
    m.metric("graph.set_packed_ms", stage("graph.set_packed"), "ms");
    m.metric("graph.first_forward_ms", stage("graph.first_forward"), "ms");
    m.metric("graph.warm_forward_ms", stage("graph.warm_forward"), "ms");
    m.metric("deploy.traced_ms.p50", deploy_ms, "ms");
    m.metric("deploy.stage_sum_ms", stage_sum, "ms");
    m.metric("deploy.unspanned_ms", unspanned, "ms");
    m.metric("deploy.coverage", coverage, "share");
    m.metric("engine.conv3x3_ms", conv.conv3x3_ms, "ms");
    m.metric("engine.conv_share", conv.conv3x3_ms / infer_ms, "share");
    m.metric("engine.other_ms", infer_ms - conv.conv3x3_ms, "ms");
    m.metric("engine.stream_lowerings", conv.stream as f64, "count");
    m.metric("engine.im2col_lowerings", conv.im2col as f64, "count");
    m.metric("engine.autotune_ms", warm.autotune_ms, "ms");
    m.metric("deploy.p90_ms", percentile(&dep.ms, 0.90)?, "ms");
    m.metric("infer.p90_ms", percentile(&inf.ms, 0.90)?, "ms");
    m.metric("serve.low_ms.p99", percentile(&srv.low.lat_ms, 0.99)?, "ms");
    m.metric("serve.in_process_us.p50", srv.in_process_us, "us");
    m.metric("serve.high_ms.p50", median(&srv.high.lat_ms), "ms");
    m.metric(
        "serve.high_ms.p99",
        percentile(&srv.high.lat_ms, 0.99)?,
        "ms",
    );
    m.metric(
        "serve.batch_mean",
        srv.high.served as f64 / srv.high.batches.max(1) as f64,
        "count",
    );
    m.metric("serve.batches", srv.high.batches as f64, "count");
    m.metric(
        "serve.rejected",
        (srv.low.rejected + srv.high.rejected) as f64,
        "count",
    );
    m.metric(
        "serve.queued_max",
        srv.low.queued_max.max(srv.high.queued_max) as f64,
        "count",
    );
    m.metric("serve.max_rps", srv.max_rps, "1/s");
    m.metric("serve.capacity_rps", srv.capacity.goodput, "1/s");
    m.metric("serve.swap_ms", median(&srv.swap_ms), "ms");
    m.metric("net.ping_us.p50", srv.ping_us, "us");
    m.metric("wire.codec_us", srv.wire_codec_us, "us");
    m.metric("wire.share", srv.wire_codec_us / low_p50_us, "share");
    m.metric("gen.late_ms.p99", percentile(&late, 0.99)?, "ms");
    m.metric("gen.sent", (srv.low.sent + srv.high.sent) as f64, "count");
    m.metric(
        "trace.overhead_share",
        (traced - untraced) / untraced,
        "share",
    );

    // Spans stay in memory during the run and are written once, here.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    let path = dir.join(format!("spans-{}-{}.jsonl", a.workload.name(), a.seed));
    let mut all = dtr;
    all.absorb(itr);
    all.absorb(str_);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = BufWriter::new(File::create(&path)?);
        all.write_jsonl(&mut f)?;
        f.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(r)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::ambient_knobs(std::env::vars());
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the library reads these and silently \
             ignores values it does not know; unset them",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, v, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a number ({v})");
        return ExitCode::FAILURE;
    }
    for e in &report.errors {
        eprintln!("perfbench: {e}");
    }
    if !args.trace {
        println!("host {}", host::facts_json());
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
