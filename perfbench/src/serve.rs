//! The `serve` workload: the daemon (`Server` + `serve_listener`) serving
//! VggSmall scale 0.0625 over loopback TCP. One generator thread drives
//! two connections, in an open loop at fixed rates (pipelining frames
//! when a reply is late) or in a closed loop that keeps a fixed number of
//! requests in flight; one reader thread per connection checks every
//! reply against the oracle of the model version that served it. A
//! swapper thread hot-swaps between two same-geometry containers at a
//! fixed interval.
//!
//! The generator sends request `seq` on connection `seq % CONNS`, and
//! sequence numbers run on without gaps across phases. The daemon answers
//! each connection in order, so the `k`-th reply on connection `c`
//! answers request `c + k * CONNS`, error replies (which carry no
//! sequence number) included.

use crate::loadgen::{drive, ms_between, Schedule, Sent};
use crate::oracle::{offline_logits, same_bits};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use bitnn::graph::arch::{attach_weights, build_spec, sample_conv3_kernels, Arch};
use bitnn::infer::{synthetic_batch, RUN_INPUT_SALT};
use bitnn::{ExecPolicy, Tensor};
use bnnkc_serve::{serve_listener, Client, InferSlot, ServeConfig, Server};
use kc_core::codec::KernelCodec;
use kc_core::container::{read_model_container, write_model_container_v3};
use kc_core::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    InferRequest, Request, Response, StatsReport,
};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const MODEL: &str = "m";
const SCALE: f64 = 0.0625;
const IMAGE: usize = 32;
/// Distinct request images.
const POOL: usize = 64;
/// Connections the generator drives.
const CONNS: usize = 2;
/// A rate where the daemon is mostly idle, req/s.
pub const LOW_RATE: f64 = 400.0;
/// A busy rate, req/s. On a 2-vCPU host the closed loop reached
/// 3000-4000 req/s while threads woke fast and ~1500 req/s while they
/// woke slowly, so this is between half of capacity and all of it.
pub const HIGH_RATE: f64 = 1500.0;
/// Hot-swap interval. At the low rate one request in forty arrives
/// during a swap, so the low-rate p99 measures how swaps disturb the read
/// path instead of flipping between the swap-delayed and the normal tail.
const SWAP_EVERY: Duration = Duration::from_millis(100);
/// The p99 latency limit a ladder rung must meet, ms. On a 2-vCPU
/// virtual machine the 400 req/s p99 alone read 4-22 ms over twenty
/// runs (swaps and thread wake-ups), and a 5 ms limit failed every rung.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Ladder rung `k` sends at `LADDER_BASE * LADDER_STEP^k` req/s.
const LADDER_BASE: f64 = 500.0;
const LADDER_STEP: f64 = 1.06;
/// The coarse pass of the ladder search visits every this-many rungs.
const LADDER_STRIDE: usize = 4;
const LADDER_RUNGS: usize = 64;
/// Requests per ladder rung: a p99 with twenty samples beyond it.
const RUNG_REQUESTS: u64 = 2000;
/// Requests a closed-loop phase keeps in flight on each connection, so
/// the daemon finds the next frame waiting whenever it finishes one.
const WINDOW_PER_CONN: u64 = 4;
/// A closed-loop phase reports the median throughput of slices this long.
pub const SLICE: Duration = Duration::from_millis(500);
/// Closed-loop requests that warm the daemon up during set-up: each
/// connection's slot and the deployed graph's lazy set-up. Few, because
/// at two connections their wall time is set by thread wake-ups, which
/// vary run to run on a virtual machine.
const WARMUP_REQUESTS: u64 = 2 * WINDOW_PER_CONN * CONNS as u64;

/// Two containers of identical geometry (different kernel seeds), the
/// request images, and each container's oracle logits per image.
pub struct Fixture {
    /// Container images; registry version `v` serves `bytes[(v + 1) % 2]`.
    pub bytes: [Vec<u8>; 2],
    /// Request inputs.
    pub inputs: Vec<Tensor>,
    /// `oracle[c][i]`: offline logits of input `i` under container `c`.
    pub oracle: [Vec<Vec<f32>>; 2],
    /// Seed the daemon regenerates the non-compressed weights from.
    pub weight_seed: u64,
}

/// Build the serve fixture for `seed`.
pub fn fixture(seed: u64) -> Result<Fixture, String> {
    let spec = build_spec(Arch::VggSmall, SCALE, IMAGE).map_err(|e| e.to_string())?;
    let codec = KernelCodec::paper_clustered();
    let weight_seed = seed ^ 0x5E4E;
    let template = attach_weights(&spec, weight_seed).map_err(|e| e.to_string())?;
    let inputs = synthetic_batch(POOL, 3, IMAGE, seed ^ RUN_INPUT_SALT);
    let mut bytes: [Vec<u8>; 2] = Default::default();
    let mut oracle: [Vec<Vec<f32>>; 2] = Default::default();
    for c in 0..2 {
        let kernels = sample_conv3_kernels(&spec, seed ^ (0xC0DE + c as u64))
            .map_err(|e| e.to_string())?
            .iter()
            .map(|k| codec.compress(k))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("compress: {e}"))?;
        bytes[c] = write_model_container_v3(&spec, &kernels)
            .map_err(|e| format!("write container: {e}"))?
            .to_vec();
        let container = read_model_container(&bytes[c]).map_err(|e| e.to_string())?;
        oracle[c] = offline_logits(&template, &container, &inputs)?;
    }
    Ok(Fixture {
        bytes,
        inputs,
        oracle,
        weight_seed,
    })
}

/// What the reader saw for one reply.
struct Reply {
    /// The request it answers (by its place on the connection).
    seq: u64,
    /// Whole reply frame read off the socket.
    frame_at: Instant,
    /// Reply decoded and checked.
    done_at: Instant,
    /// Logits matched the oracle of the serving version.
    ok: bool,
    error: Option<String>,
}

/// Read replies off connection `conn` until it closes.
fn reader(stream: TcpStream, conn: usize, fx: &Fixture, tx: mpsc::Sender<Reply>) {
    let mut r = &stream;
    let mut buf = Vec::new();
    let mut seq = conn as u64;
    while let Ok(true) = read_frame(&mut r, &mut buf) {
        let frame_at = Instant::now();
        let (ok, error) = match decode_response(&buf) {
            Ok(Response::Logits {
                seq: got,
                version,
                data,
            }) if got == seq => {
                let want = &fx.oracle[(version as usize + 1) % 2][seq as usize % POOL];
                let ok = same_bits(&data, want);
                let error = (!ok).then(|| {
                    format!("request {seq}: logits differ from the oracle of version {version}")
                });
                (ok, error)
            }
            Ok(Response::Logits { seq: got, .. }) => (
                false,
                Some(format!("request {seq}: answered with the reply to {got}")),
            ),
            Ok(Response::Err { code, message }) => {
                (false, Some(format!("request {seq}: {code}: {message}")))
            }
            Ok(other) => (
                false,
                Some(format!("request {seq}: unexpected reply {other:?}")),
            ),
            Err(e) => (false, Some(format!("request {seq}: bad reply frame: {e}"))),
        };
        let reply = Reply {
            seq,
            frame_at,
            done_at: Instant::now(),
            ok,
            error,
        };
        if tx.send(reply).is_err() {
            return;
        }
        seq += CONNS as u64;
    }
}

/// One phase of requests: open loop at a fixed rate, or closed loop.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Arrival rate, req/s (0 for a closed loop).
    pub rate: f64,
    /// Latency from the due time of each answered request, ms.
    pub lat_ms: Vec<f64>,
    /// Generator lateness per request, ms.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests not answered with correct logits (errors, rejections,
    /// wrong logits, no reply).
    pub failed: u64,
    /// Daemon batches during the phase.
    pub batches: u64,
    /// Daemon rejections during the phase.
    pub rejected: u64,
    /// Requests the daemon served during the phase.
    pub served: u64,
    /// Largest batch the daemon formed during the phase: the most
    /// requests queued at one flush.
    pub queued_max: u64,
    /// Closed loop only: median correct replies per second over
    /// [`SLICE`]-long slices.
    pub goodput: f64,
    /// Closed loop only: correct replies per CPU-second of the whole
    /// process (daemon, generator, readers and swapper).
    pub per_cpu_s: f64,
    /// First failure, if any.
    pub error: Option<String>,
}

impl Phase {
    /// Whether the phase meets the p99 limit without a growing backlog:
    /// everything answered, p99 within the limit, and the last quarter's
    /// median within half the limit.
    pub fn meets_limit(&self) -> bool {
        let n = self.lat_ms.len();
        self.failed == 0
            && percentile(&self.lat_ms, 0.99).is_ok_and(|p| p <= P99_LIMIT_MS)
            && median(&self.lat_ms[n - n / 4..]) <= P99_LIMIT_MS / 2.0
    }
}

/// Everything one daemon lifetime measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Set-up time: daemon start, registration, connections, warm-up, s.
    pub start_s: f64,
    /// The low-rate phase.
    pub low: Phase,
    /// The high-rate phase.
    pub high: Phase,
    /// The closed-loop capacity phase.
    pub capacity: Phase,
    /// Ladder rungs visited, in order.
    pub ladder: Vec<Phase>,
    /// Highest passing ladder rate, req/s (0 when none passes).
    pub max_rps: f64,
    /// Per-swap time, ms.
    pub swap_ms: Vec<f64>,
    /// Swap failures.
    pub swap_failed: u64,
    /// Median `Server::infer_blocking` round trip without a socket, µs.
    pub in_process_us: f64,
    /// Median `Client::call(Ping)` round trip, µs.
    pub ping_us: f64,
    /// Median encode + decode of one request and one reply frame, µs.
    pub wire_codec_us: f64,
    /// Median low-rate latency of traced and of untraced requests, ms.
    pub traced_ms: f64,
    /// See `traced_ms`.
    pub untraced_ms: f64,
    /// Fatal error, if the run could not complete.
    pub error: Option<String>,
}

/// What a daemon lifetime should measure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plan {
    /// Length of the low-rate phase, s (0 skips all measuring).
    pub low_s: f64,
    /// Length of the high-rate phase, s (0 skips it).
    pub high_s: f64,
    /// Length of the closed-loop capacity phase, s (0 skips it).
    pub capacity_s: f64,
    /// Trace every other low-rate request, then walk the max-rate
    /// ladder and run the layer probes.
    pub trace: bool,
}

fn request(fx: &Fixture, seq: u64) -> Request {
    let img = &fx.inputs[seq as usize % POOL];
    Request::Infer(InferRequest {
        model: MODEL.into(),
        seq,
        shape: [3, IMAGE as u32, IMAGE as u32],
        data: img.data().to_vec(),
    })
}

/// The generator's side of the open loop: connections, reply channel,
/// and the next free sequence number.
struct Gen<'a> {
    fx: &'a Fixture,
    server: &'a Server,
    conns: Vec<TcpStream>,
    rx: mpsc::Receiver<Reply>,
    next_seq: u64,
    buf: Vec<u8>,
}

/// The daemon counters a phase reports, as deltas of two `StatsReport`s.
fn stats_delta(before: &StatsReport, after: &StatsReport, phase: &mut Phase) {
    phase.batches = after.batches - before.batches;
    phase.rejected = after.rejected - before.rejected;
    phase.served = after.served - before.served;
    let count = |r: &StatsReport, size: u32| {
        r.batch_hist
            .iter()
            .find(|&&(s, _)| s == size)
            .map_or(0, |&(_, n)| n)
    };
    phase.queued_max = after
        .batch_hist
        .iter()
        .filter(|&&(size, n)| n > count(before, size))
        .map(|&(size, _)| u64::from(size))
        .max()
        .unwrap_or(0);
}

/// Wait at most this long for a reply before counting it as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

impl Gen<'_> {
    /// Send request `seq` on its connection.
    fn send(&mut self, seq: u64) -> Result<(), String> {
        encode_request(&request(self.fx, seq), &mut self.buf);
        let mut conn = &self.conns[seq as usize % CONNS];
        write_frame(&mut conn, &self.buf).map_err(|e| format!("send request {seq}: {e}"))
    }

    /// The next reply to a request of this phase (from `first` on), or
    /// `None` once `deadline` passes. Late replies to earlier phases
    /// were counted as missing there and are dropped here.
    fn reply(&self, first: u64, deadline: Instant) -> Option<Reply> {
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            let r = self.rx.recv_timeout(wait).ok()?;
            if r.seq >= first {
                return Some(r);
            }
        }
    }

    /// Send `count` requests at `rate` and collect their replies.
    fn phase(&mut self, rate: f64, count: u64, tr: Option<&mut Tracer>) -> Result<Phase, String> {
        let first = self.next_seq;
        self.next_seq += count;
        let before = self.server.stats_report();
        let sched = Schedule {
            start: Instant::now() + Duration::from_millis(2),
            rate,
        };
        let sent: Vec<Sent> = drive(&sched, count, |_| {}, |i| self.send(first + i))?;
        // Every reply is due within a few seconds of the last send.
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut replies: Vec<Option<Reply>> = (0..count).map(|_| None).collect();
        let mut got = 0;
        let mut phase = Phase {
            rate,
            sent: count,
            ..Phase::default()
        };
        while got < count {
            let Some(r) = self.reply(first, deadline) else {
                break;
            };
            if let Some(e) = &r.error {
                phase.error.get_or_insert_with(|| e.clone());
            }
            // Replies are attributed by their place on the connection,
            // so each request of the phase gets exactly one.
            let i = (r.seq - first) as usize;
            replies[i] = Some(r);
            got += 1;
        }
        stats_delta(&before, &self.server.stats_report(), &mut phase);
        let mut tr = tr;
        for (i, (s, r)) in sent.iter().zip(&replies).enumerate() {
            phase.late_ms.push(s.late_ms());
            match r {
                Some(r) if r.ok => {
                    phase.lat_ms.push(ms_between(s.due, r.done_at));
                    if let Some(tr) = tr.as_deref_mut().filter(|_| i % 2 == 0) {
                        let op = first + i as u64;
                        let root = tr.push(op, "request", None, s.due, r.done_at);
                        tr.push(op, "gen.late", Some(root), s.due, s.sent);
                        tr.push(op, "gen.send", Some(root), s.sent, s.written);
                        tr.push(op, "serve.wait", Some(root), s.written, r.frame_at);
                        tr.push(op, "wire.decode_check", Some(root), r.frame_at, r.done_at);
                    }
                }
                Some(_) => phase.failed += 1,
                None => {
                    phase.failed += 1;
                    phase.error.get_or_insert_with(|| {
                        format!("request {} got no reply", first + i as u64)
                    });
                }
            }
        }
        Ok(phase)
    }

    /// Closed loop: keep [`WINDOW_PER_CONN`] requests in flight on each
    /// connection, sending the next one as each reply arrives, until
    /// `count` requests are sent or `seconds` pass; then wait for the
    /// rest. Reports the median correct-reply rate over [`SLICE`]s and
    /// the correct replies per CPU-second.
    fn closed(&mut self, count: u64, seconds: f64) -> Result<Phase, String> {
        let first = self.next_seq;
        let before = self.server.stats_report();
        let cpu_before = crate::host::cpu_s()?;
        let start = Instant::now();
        let mut phase = Phase::default();
        let send = |gen: &mut Self, phase: &mut Phase| -> Result<(), String> {
            gen.send(first + phase.sent)?;
            phase.sent += 1;
            Ok(())
        };
        while phase.sent < count.min(WINDOW_PER_CONN * CONNS as u64) {
            send(self, &mut phase)?;
        }
        let (mut slice_start, mut slice_ok, mut rates) = (start, 0u64, Vec::new());
        let (mut got, mut ok) = (0, 0);
        while got < phase.sent {
            let Some(r) = self.reply(first, Instant::now() + REPLY_TIMEOUT) else {
                phase.failed += phase.sent - got;
                phase
                    .error
                    .get_or_insert_with(|| format!("request {} got no reply", first + got));
                break;
            };
            got += 1;
            if r.ok {
                ok += 1;
                slice_ok += 1;
            } else {
                phase.failed += 1;
                phase.error = phase.error.take().or(r.error);
            }
            let slice = r.done_at - slice_start;
            if slice >= SLICE {
                rates.push(slice_ok as f64 / slice.as_secs_f64());
                (slice_start, slice_ok) = (r.done_at, 0);
            }
            if phase.sent < count && start.elapsed().as_secs_f64() < seconds {
                send(self, &mut phase)?;
            }
        }
        self.next_seq = first + phase.sent;
        phase.per_cpu_s = ok as f64 / (crate::host::cpu_s()? - cpu_before);
        phase.goodput = median(&rates);
        stats_delta(&before, &self.server.stats_report(), &mut phase);
        Ok(phase)
    }
}

fn serve_config(fx: &Fixture) -> ServeConfig {
    ServeConfig {
        policy: ExecPolicy::default(),
        queue_depth: 4096,
        seed: fx.weight_seed,
        image: IMAGE,
        ..ServeConfig::default()
    }
}

/// Start a daemon on loopback, run `plan`, and shut it down.
pub fn run(fx: &Fixture, plan: Plan, tr: &mut Tracer) -> ServeRun {
    let mut out = ServeRun::default();
    if let Err(e) = run_inner(fx, plan, tr, &mut out) {
        out.error = Some(e);
    }
    out
}

fn run_inner(fx: &Fixture, plan: Plan, tr: &mut Tracer, out: &mut ServeRun) -> Result<(), String> {
    let t0 = Instant::now();
    let server = Server::new(serve_config(fx));
    server
        .register_bytes(MODEL, &fx.bytes[0])
        .map_err(|e| format!("register: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| -> Result<(), String> {
        let daemon = s.spawn(|| serve_listener(&server, &listener));
        let result = drive_daemon(s, fx, plan, tr, out, &server, addr, t0);
        // Shut the daemon down whatever happened, then wait for it.
        let stopped = Client::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call(&Request::Shutdown).map_err(|e| e.to_string()));
        let joined = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        result?;
        stopped.map_err(|e| format!("shutdown: {e}"))?;
        joined.map_err(|e| format!("daemon: {e}"))
    })
}

#[allow(clippy::too_many_arguments)]
fn drive_daemon<'s, 'e>(
    s: &'s std::thread::Scope<'s, 'e>,
    fx: &'e Fixture,
    plan: Plan,
    tr: &mut Tracer,
    out: &mut ServeRun,
    server: &'e Server,
    addr: SocketAddr,
    t0: Instant,
) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    let mut conns = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNS {
        let c = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_nodelay(true).map_err(|e| e.to_string())?;
        let r = c.try_clone().map_err(|e| e.to_string())?;
        let tx = tx.clone();
        let conn = conns.len();
        readers.push(s.spawn(move || reader(r, conn, fx, tx)));
        conns.push(c);
    }
    drop(tx);
    let mut gen = Gen {
        fx,
        server,
        conns,
        rx,
        next_seq: 0,
        buf: Vec::new(),
    };
    let result = (|| -> Result<(), String> {
        let warm = gen.closed(WARMUP_REQUESTS, f64::INFINITY)?;
        if warm.failed > 0 {
            return Err(warm.error.unwrap_or_else(|| "warm-up failed".into()));
        }
        out.start_s = t0.elapsed().as_secs_f64();
        if plan.low_s <= 0.0 {
            return Ok(());
        }
        let stop = AtomicBool::new(false);
        let swaps = Mutex::new((Vec::new(), 0u64));
        std::thread::scope(|ss| -> Result<(), String> {
            let swapper = ss.spawn(|| {
                // Version v serves bytes[(v + 1) % 2], so the next
                // version gets bytes[v % 2].
                let mut version = 1u32;
                loop {
                    let due = Instant::now() + SWAP_EVERY;
                    while !stop.load(Ordering::SeqCst) && Instant::now() < due {
                        std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let t = Instant::now();
                    let r = server.swap_bytes(MODEL, &fx.bytes[version as usize % 2]);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let mut g = swaps.lock().expect("swap log lock");
                    match r {
                        Ok(v) => {
                            version = v;
                            g.0.push(ms);
                        }
                        Err(_) => g.1 += 1,
                    }
                }
            });
            let r = (|| -> Result<(), String> {
                let n = (LOW_RATE * plan.low_s).ceil() as u64;
                out.low = gen.phase(LOW_RATE, n, plan.trace.then_some(&mut *tr))?;
                if plan.high_s > 0.0 {
                    let n = (HIGH_RATE * plan.high_s).ceil() as u64;
                    out.high = gen.phase(HIGH_RATE, n, None)?;
                }
                if plan.capacity_s > 0.0 {
                    out.capacity = gen.closed(u64::MAX, plan.capacity_s)?;
                }
                if plan.trace {
                    ladder(&mut gen, out)?;
                }
                Ok(())
            })();
            stop.store(true, Ordering::SeqCst);
            swapper.thread().unpark();
            r
        })?;
        let (swap_ms, swap_failed) = swaps.into_inner().expect("swap log lock");
        out.swap_ms = swap_ms;
        out.swap_failed = swap_failed;
        if plan.trace {
            // Traced requests are the even ones of the low phase.
            let traced: Vec<f64> = (0..out.low.lat_ms.len())
                .filter(|i| i % 2 == 0)
                .map(|i| out.low.lat_ms[i])
                .collect();
            let untraced: Vec<f64> = (0..out.low.lat_ms.len())
                .filter(|i| i % 2 == 1)
                .map(|i| out.low.lat_ms[i])
                .collect();
            out.traced_ms = median(&traced);
            out.untraced_ms = median(&untraced);
            probes(fx, server, addr, out)?;
        }
        Ok(())
    })();
    // Closing the connections ends the readers.
    for c in &gen.conns {
        let _ = c.shutdown(std::net::Shutdown::Both);
    }
    for r in readers {
        r.join().map_err(|_| "reader thread panicked".to_string())?;
    }
    result
}

/// Walk the fixed ladder: every `LADDER_STRIDE`-th rung until one fails,
/// then rung by rung up from the last coarse pass. A rung fails only if
/// it misses the limit twice in a row, so one host hiccup does not end
/// the walk.
fn ladder(gen: &mut Gen<'_>, out: &mut ServeRun) -> Result<(), String> {
    let rate = |k: usize| LADDER_BASE * LADDER_STEP.powi(k as i32);
    let mut rung = |k: usize, out: &mut ServeRun| -> Result<bool, String> {
        for _ in 0..2 {
            let p = gen.phase(rate(k), RUNG_REQUESTS, None)?;
            let pass = p.meets_limit();
            out.ladder.push(p);
            // Let a backlog left by a failing rung drain before the next.
            std::thread::sleep(Duration::from_millis(20));
            if pass {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let mut best: Option<usize> = None;
    let mut k = 0;
    while k < LADDER_RUNGS && rung(k, out)? {
        best = Some(k);
        k += LADDER_STRIDE;
    }
    if let Some(b) = best {
        let mut k = b + 1;
        while k < (b + LADDER_STRIDE).min(LADDER_RUNGS) && rung(k, out)? {
            best = Some(k);
            k += 1;
        }
    }
    out.max_rps = best.map_or(0.0, rate);
    Ok(())
}

/// Layer probes of the traced run: the serve core without a socket, a
/// ping round trip, and the wire codec alone.
fn probes(
    fx: &Fixture,
    server: &Server,
    addr: SocketAddr,
    out: &mut ServeRun,
) -> Result<(), String> {
    const N: usize = 1000;
    let mut slot = InferSlot::new();
    let mut logits = Tensor::default();
    let mut us = Vec::with_capacity(N);
    for i in 0..N {
        let t = Instant::now();
        server
            .infer_blocking(MODEL, &mut slot, &fx.inputs[i % POOL], &mut logits)
            .map_err(|e| format!("in-process infer: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.in_process_us = median(&us);

    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    us.clear();
    for _ in 0..N {
        let t = Instant::now();
        match client.call(&Request::Ping) {
            Ok(Response::Pong) => us.push(t.elapsed().as_secs_f64() * 1e6),
            other => return Err(format!("ping: {other:?}")),
        }
    }
    out.ping_us = median(&us);

    let req = request(fx, 7);
    let resp = Response::Logits {
        seq: 7,
        version: 1,
        data: fx.oracle[0][7].clone(),
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    us.clear();
    for _ in 0..N {
        let t = Instant::now();
        encode_request(black_box(&req), &mut a);
        black_box(decode_request(&a).map_err(|e| e.to_string())?);
        encode_response(black_box(&resp), &mut b);
        black_box(decode_response(&b).map_err(|e| e.to_string())?);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.wire_codec_us = median(&us);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_core::wire::ErrorCode;

    /// Replies are attributed by their place on the connection: an error
    /// reply, which carries no sequence number, counts once, against the
    /// request it answers, and a reply naming another request is wrong.
    #[test]
    fn replies_count_against_the_request_they_answer() {
        let fx = fixture(5).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut daemon, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        for resp in [
            Response::Err {
                code: ErrorCode::QueueFull,
                message: "full".into(),
            },
            Response::Logits {
                seq: 3,
                version: 1,
                data: fx.oracle[0][3].clone(),
            },
            Response::Logits {
                seq: 9,
                version: 1,
                data: fx.oracle[0][9].clone(),
            },
        ] {
            encode_response(&resp, &mut buf);
            write_frame(&mut daemon, &buf).unwrap();
        }
        drop(daemon);
        let (tx, rx) = mpsc::channel();
        reader(client, 1, &fx, tx);
        let got: Vec<(u64, bool)> = rx.iter().map(|r| (r.seq, r.ok)).collect();
        assert_eq!(got, [(1, false), (3, true), (5, false)]);
    }
}
