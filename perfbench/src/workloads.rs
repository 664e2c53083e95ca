//! The four workloads and the figures each one reports.
//!
//! | workload | traffic | model(s) |
//! |---|---|---|
//! | `wm_ingest` | one connection, 1024-example UPDATE frames, window 8, closed loop; then closed-loop reads | WM 128×14, heap 128 (8 KB) |
//! | `awm_ingest` | the same client | AWM \|S\|=512, width 1024, depth 1 (8 KB) |
//! | `wm_mixed` | open-loop writer at 25k examples/s beside a closed-loop PREDICT/TOPK reader | the `wm_ingest` model |
//! | `fleet` | zipf(1.1) 4-example UPDATEs across 1 000 small AWM models on a governed node; then zipf reads | AWM 2 KB each, budget 1.2× the hot sum |
//!
//! Ingest work is a fixed number of frames sized from `--seconds`, so the
//! final model depends only on the seed and the run length. The
//! single-model workloads run it as 4 rounds, each ingesting the same
//! frame sequence into a fresh model, so one twin checks every round; the
//! fleet cuts its one stream into 4 consecutive rounds. Each phase of a
//! round is cut into segments with a yardstick measurement between every
//! two (see `yardstick`), and the timings are rescaled segment by
//! segment to the yardstick's reference host speed. Every model is
//! created through CREATE from an untrained template and hosted
//! unsharded. A traced run repeats the workload on a fresh node with
//! per-frame write spans on, scrapes the node's STATS and METRICS, and
//! replays the update stages in process; its per-layer figures come from
//! that second pass, and `trace.overhead_ratio` compares the two.

use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::prelude::*;
use wmsketch_core::{AwmSketch, AwmSketchConfig, SnapshotCodec, WmSketch, WmSketchConfig};
use wmsketch_datagen::zipf::Zipf;
use wmsketch_hashing::codec::{Reader, Writer};
use wmsketch_learn::LabelDomain;
use wmsketch_serve::protocol::{put_examples, read_frame, take_examples_into, ExamplesScratch};
use wmsketch_serve::{MetricsReport, ServeClient, ServeStats, ServerHandle};

use crate::gate::{perturbed_gate, read_gate, snapshot_gate, Gate, Twin};
use crate::inputs::{encode_pool_frames, recall, update_frame, Example, Inputs, TOPK};
use crate::ledger::{self, Ledger, Shape};
use crate::node::{self, Evaluation, IngestLog, ReadLog};
use crate::report::Report;
use crate::stats::{median, ns, Summary};
use crate::yardstick::Pace;

/// Workload names; `BENCHMARK.json` lists all but `awm_ingest`.
pub const WORKLOADS: [&str; 4] = ["wm_ingest", "awm_ingest", "wm_mixed", "fleet"];

/// Nominal served rates, used only to size a run's fixed work from
/// `--seconds` (examples per second).
const WM_RATE: f64 = 60_000.0;
const AWM_RATE: f64 = 300_000.0;
/// `wm_mixed`'s offered write rate: about 40% of `wm_ingest`'s served
/// capacity with the node on one CPU, so a slow stretch of the host does
/// not tip it into an unbounded backlog.
const MIXED_RATE: f64 = 25_000.0;
/// Closed-loop reads after ingest, per second of `--seconds`.
const READS_PER_SECOND: f64 = 2_000.0;
/// UPDATE frames kept in flight by the closed-loop ingest client.
const WINDOW: usize = 8;
/// Node set-ups per pass; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Fleet shape: models, set-ups per pass, requests per second of
/// `--seconds`, examples per request, and spot-checked models.
const FLEET_MODELS: usize = 1_000;
const FLEET_SETUP_REPS: usize = 9;
const FLEET_RATE: f64 = 15_000.0;
const FLEET_BATCH: usize = 4;
const FLEET_SPOT_CHECKS: usize = 16;
/// Fleet budget as a share of the models' summed hot footprint. The
/// budget also pays a fixed registry charge per model, so 1.2 keeps
/// roughly 95% of the models resident: the governor still spills and
/// revives on every run, but under 1% of requests wait on the disk, so
/// the p99 is not a filesystem-sync measurement.
const FLEET_BUDGET_FRACTION: f64 = 1.2;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny work for the benchmark's own tests.
    pub smoke: bool,
    /// Directory under the working directory for checkpoints and spills.
    pub run_dir: PathBuf,
}

/// How much work one pass does.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    frame: usize,
    pool_frames: usize,
    holdout: usize,
    rounds: usize,
    /// Frames per round.
    frames: usize,
    /// Closed-loop reads per round.
    reads: usize,
    setup_reps: usize,
}

impl Sizing {
    fn new(spec: &RunSpec, rate: f64) -> Sizing {
        if spec.smoke {
            return Sizing {
                frame: 64,
                pool_frames: 4,
                holdout: 64,
                rounds: 2,
                frames: 12,
                reads: 60,
                setup_reps: 2,
            };
        }
        let frame = 1024;
        Sizing {
            frame,
            pool_frames: 64,
            holdout: 4096,
            rounds: ROUNDS,
            frames: ((spec.seconds * rate / (frame * ROUNDS) as f64).round() as usize).max(16),
            reads: ((spec.seconds * READS_PER_SECOND / ROUNDS as f64) as usize).max(200),
            setup_reps: SETUP_REPS,
        }
    }

    /// Examples of stream frame `k`.
    fn batch<'a>(&self, inputs: &'a Inputs, k: usize) -> &'a [Example] {
        let at = (k % self.pool_frames) * self.frame;
        &inputs.pool[at..at + self.frame]
    }
}

#[derive(Debug, Clone, Copy)]
enum Model {
    Wm(WmSketchConfig),
    Awm(AwmSketchConfig),
}

impl Model {
    fn template(&self) -> Vec<u8> {
        match self {
            Model::Wm(c) => WmSketch::new(*c).to_snapshot_bytes(),
            Model::Awm(c) => AwmSketch::new(*c).to_snapshot_bytes(),
        }
    }

    fn shape(&self) -> Shape {
        match self {
            Model::Wm(c) => c.into(),
            Model::Awm(c) => c.into(),
        }
    }

    fn describe(&self) -> String {
        let (kind, s) = match self {
            Model::Wm(c) => ("WM", Shape::from(c)),
            Model::Awm(c) => ("AWM", Shape::from(c)),
        };
        format!(
            "{{\"kind\": \"{kind}\", \"width\": {}, \"depth\": {}, \"heap_capacity\": {}, \"shards\": 0}}",
            s.width, s.depth, s.heap_capacity
        )
    }
}

/// The paper's 8 KB Figure-7 WM shape.
fn wm_8kb() -> Model {
    Model::Wm(WmSketchConfig::new(128, 14).heap_capacity(128).seed(7))
}

/// The paper's 8 KB Figure-7 AWM shape.
fn awm_8kb() -> Model {
    Model::Awm(AwmSketchConfig::new(512, 1024).seed(7))
}

/// Runs one workload and returns everything it measured.
///
/// # Panics
/// On an unknown workload name, or when the node misbehaves at the
/// socket level (a benchmark with a broken node has nothing to report).
pub fn run(spec: &RunSpec) -> Report {
    wmsketch_telemetry::set_enabled(true);
    // The whole process, node threads included, shares one CPU: on a
    // shared 2-vCPU host that kept runs far steadier than giving node and
    // load generator a CPU each, whose cross-CPU wakeups turned host
    // stalls into multi-millisecond tail outliers.
    node::host_cpus();
    let pinned = node::pin_current_thread(0);
    let mut report = match spec.workload.as_str() {
        "wm_ingest" => run_single(spec, wm_8kb(), Traffic::Closed),
        "awm_ingest" => run_single(spec, awm_8kb(), Traffic::Closed),
        "wm_mixed" => run_single(spec, wm_8kb(), Traffic::Mixed),
        "fleet" => run_fleet(spec),
        other => panic!("unknown workload {other:?}"),
    };
    report.e2e("peak_rss_mb", node::peak_rss_mb(), "MiB", 1);
    report.info("workload", crate::report::quote(&spec.workload));
    report.info("seed", spec.seed.to_string());
    report.info("seconds", crate::report::num(spec.seconds));
    report.info("trace", spec.traced.to_string());
    report.info("smoke", spec.smoke.to_string());
    report.info("pinned_to_cpu0", pinned.to_string());
    report.info("host_cpus", node::host_cpus().to_string());
    report
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// Closed-loop pipelined ingest, then closed-loop reads.
    Closed,
    /// Open-loop ingest with closed-loop reads alongside.
    Mixed,
}

/// What a traced pass scraped from the node before shutting it down.
struct Scrape {
    metrics: MetricsReport,
    checkpoint_ms: Vec<f64>,
}

/// Independent repetitions of a workload's timed phases within one pass.
/// Single-model workloads ingest the same frame sequence into a fresh
/// model per round; `fleet` cuts its one request stream into this many
/// consecutive rounds.
const ROUNDS: usize = 4;

/// Segments each phase of a round is cut into. A yardstick measurement
/// sits between every two, so each segment's timings can be rescaled to
/// the host speed around it.
const SEGMENTS: usize = 10;

/// One stretch of a round between two yardstick measurements.
struct Seg {
    /// Indices of the stretch's frames in the round's ingest log.
    ingest: Range<usize>,
    /// Indices of the stretch's reads in the round's read log.
    reads: Range<usize>,
    /// The host's slowness around the stretch (above 1: slower than the
    /// yardstick's reference).
    slowness: f64,
}

/// The logs of one round. Completion offsets in both logs are relative
/// to the start of their own segment.
#[derive(Default)]
struct Round {
    ingest: IngestLog,
    reads: ReadLog,
    segs: Vec<Seg>,
}

impl Round {
    fn push(&mut self, ingest: IngestLog, reads: ReadLog, slowness: f64) {
        let (i0, r0) = (self.ingest.acked.len(), self.reads.ops.len());
        self.ingest.append(ingest);
        self.reads.append(reads);
        self.segs.push(Seg {
            ingest: i0..self.ingest.acked.len(),
            reads: r0..self.reads.ops.len(),
            slowness,
        });
    }
}

/// One pass of a single-model workload.
struct Pass {
    /// Set-up times, each rescaled to the reference host speed.
    setup_s: Vec<f64>,
    /// Every yardstick measurement of the pass, in order.
    yard_ns: Vec<[f64; 2]>,
    rounds: Vec<Round>,
    /// Each round's model, as SNAPSHOT returned it after the round.
    served: Vec<Vec<u8>>,
    /// The last round's model, read back after its round.
    eval: Option<Evaluation>,
    before: ServeStats,
    after: ServeStats,
    scrape: Option<Scrape>,
}

/// Binds `reps` nodes, each with its model(s) created by `create`, and
/// keeps the last; returns it with the per-repetition set-up times, each
/// rescaled to the reference host speed.
fn setup_nodes<T>(
    reps: usize,
    pace: &mut Pace,
    mut bind: impl FnMut(usize) -> ServerHandle,
    mut create: impl FnMut(&mut ServeClient) -> T,
) -> (ServerHandle, ServeClient, T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for r in 0..reps.max(1) {
        let ((handle, client, made, secs), slowness) = pace.run(|| {
            let t = Instant::now();
            let handle = bind(r);
            let mut client = node::client(handle.addr());
            let made = create(&mut client);
            (handle, client, made, t.elapsed().as_secs_f64())
        });
        times.push(secs / slowness);
        if let Some((old, old_client, _)) = kept.replace((handle, client, made)) {
            drop(old_client);
            old.shutdown();
        }
    }
    let (handle, client, made) = kept.expect("at least one set-up");
    (handle, client, made, times)
}

/// Times a few CHECKPOINT ops of the client's current model and scrapes
/// METRICS afterwards.
fn scrape(client: &mut ServeClient, path: impl Fn(usize) -> String) -> Scrape {
    let checkpoint_ms = (0..5)
        .map(|k| {
            let t = Instant::now();
            client.checkpoint(&path(k)).expect("CHECKPOINT");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Scrape {
        metrics: client.metrics().expect("METRICS"),
        checkpoint_ms,
    }
}

/// The name of round `r`'s model.
fn round_model(r: usize) -> String {
    format!("bench-{r}")
}

fn single_pass(
    spec: &RunSpec,
    sz: &Sizing,
    inputs: &Inputs,
    template: &[u8],
    traffic: Traffic,
    traced: bool,
) -> Pass {
    let mut pace = Pace::start();
    let (handle, mut control, _, setup_s) = setup_nodes(
        sz.setup_reps,
        &mut pace,
        |_| node::bind(None),
        |c| c.create_model("setup", template, 0).expect("CREATE"),
    );
    let mut frames = encode_pool_frames(inputs, 0, sz.frame);
    let before = control.stats().expect("STATS");
    let mut writer = node::connect(handle.addr());
    let mut reader = node::connect(handle.addr());
    let (mut rounds, mut served, mut eval) = (Vec::new(), Vec::new(), None);
    for r in 0..sz.rounds {
        let id = control
            .create_model(&round_model(r), template, 0)
            .expect("CREATE");
        set_frames_model(&mut frames, id);
        let mut round = Round::default();
        match traffic {
            Traffic::Closed => {
                for s in segments(sz.frames) {
                    let (log, slow) = pace.run(|| {
                        node::ingest_closed(&mut writer, &frames, s.start, s.len(), WINDOW, traced)
                    });
                    round.push(log, ReadLog::default(), slow);
                }
                for s in segments(sz.reads) {
                    let (log, slow) = pace.run(|| {
                        node::read_closed(
                            &mut writer,
                            &inputs.holdout,
                            s.start,
                            s.len(),
                            None,
                            |_| id,
                        )
                    });
                    round.push(IngestLog::default(), log, slow);
                }
            }
            Traffic::Mixed => {
                let period = Duration::from_secs_f64(sz.frame as f64 / MIXED_RATE);
                for s in segments(sz.frames) {
                    let first_read = round.reads.attempted() as usize;
                    let ((ingest, reads), slow) = pace.run(|| {
                        let stop = AtomicBool::new(false);
                        std::thread::scope(|scope| {
                            let reads = scope.spawn(|| {
                                node::read_closed(
                                    &mut reader,
                                    &inputs.holdout,
                                    first_read,
                                    usize::MAX,
                                    Some(&stop),
                                    |_| id,
                                )
                            });
                            let ingest = node::ingest_open(
                                &mut writer,
                                &frames,
                                s.start,
                                s.len(),
                                period,
                                traced,
                            );
                            stop.store(true, Ordering::Relaxed);
                            (ingest, reads.join().expect("reader thread"))
                        })
                    });
                    round.push(ingest, reads, slow);
                }
            }
        }
        rounds.push(round);
        control.set_model(id).expect("address the model");
        served.push(control.snapshot().expect("SNAPSHOT"));
        if r + 1 == sz.rounds {
            eval = node::evaluate(&mut writer, id, &inputs.holdout);
        }
    }
    let after = control.stats().expect("STATS");
    let scrape = traced.then(|| {
        scrape(&mut control, |k| {
            spec.run_dir
                .join(format!("ckpt-{k}.wms"))
                .to_string_lossy()
                .into_owned()
        })
    });
    drop((writer, reader, control));
    handle.shutdown();
    Pass {
        setup_s,
        yard_ns: pace.measured,
        rounds,
        served,
        eval,
        before,
        after,
        scrape,
    }
}

/// Points pre-encoded UPDATE frames at another model: the id sits right
/// after the length prefix and the version-2 marker.
fn set_frames_model(frames: &mut [Vec<u8>], model: u32) {
    for f in frames {
        f[5..9].copy_from_slice(&model.to_le_bytes());
    }
}

/// Gates every round of a pass: each round's model must equal a twin fed
/// the frames that round acknowledged (`twin` when it acknowledged all).
fn gate_rounds(
    name: &str,
    pass: &Pass,
    sz: &Sizing,
    inputs: &Inputs,
    template: &[u8],
    twin: &mut Twin,
) -> Gate {
    let mut diverged = Vec::new();
    for (r, (round, served)) in pass.rounds.iter().zip(&pass.served).enumerate() {
        let ok = if round.ingest.failed() == 0 {
            snapshot_gate(name, served, twin).passed
        } else {
            let mut own = Twin::new(template);
            for k in (0..sz.frames).filter(|&k| round.ingest.acked[k]) {
                own.feed(sz.batch(inputs, k));
            }
            snapshot_gate(name, served, &mut own).passed
        };
        if !ok {
            diverged.push(r);
        }
    }
    Gate::new(
        name,
        diverged.is_empty(),
        format!(
            "{} rounds of {} bytes compared, diverged: {diverged:?}",
            pass.rounds.len(),
            pass.served.first().map_or(0, Vec::len)
        ),
    )
}

fn run_single(spec: &RunSpec, model: Model, traffic: Traffic) -> Report {
    let rate = match (traffic, model) {
        (Traffic::Mixed, _) => MIXED_RATE,
        (_, Model::Wm(_)) => WM_RATE,
        (_, Model::Awm(_)) => AWM_RATE,
    };
    let sz = Sizing::new(spec, rate);
    let inputs = Inputs::generate(spec.seed, sz.pool_frames * sz.frame, sz.holdout);
    let template = model.template();
    let p0 = single_pass(spec, &sz, &inputs, &template, traffic, false);
    let p1 = spec
        .traced
        .then(|| single_pass(spec, &sz, &inputs, &template, traffic, true));

    let mut twin = Twin::new(&template);
    for k in 0..sz.frames {
        twin.feed(sz.batch(&inputs, k));
    }
    let mut r = Report::default();
    r.gates.push(gate_rounds(
        "snapshot_matches_twin",
        &p0,
        &sz,
        &inputs,
        &template,
        &mut twin,
    ));
    let last = p0.served.last().expect("at least one round");
    r.gates.push(perturbed_gate(
        "perturbed_twin_rejected",
        last,
        &mut twin,
        &inputs.holdout[0],
    ));
    let all_acked = p0.rounds.last().is_some_and(|x| x.ingest.failed() == 0);
    match &p0.eval {
        Some(eval) if all_acked => {
            r.gates
                .push(read_gate("reads_match_twin", eval, &inputs.holdout, &twin));
        }
        _ => r.gates.push(Gate::new(
            "reads_match_twin",
            false,
            "evaluation reads failed",
        )),
    }
    if let Some(p1) = &p1 {
        r.gates.push(gate_rounds(
            "traced_snapshot_matches_twin",
            p1,
            &sz,
            &inputs,
            &template,
            &mut twin,
        ));
    }

    end_to_end(
        &mut r,
        &p0.setup_s,
        &p0.rounds,
        sz.frame as f64,
        p0.eval.as_ref(),
        &inputs,
        traffic == Traffic::Mixed,
    );
    r.info("yardstick_ns", format!("{:?}", p0.yard_ns));
    r.attempted = p0
        .rounds
        .iter()
        .map(|x| x.ingest.acked.len() as u64 + x.reads.attempted())
        .sum();
    r.failed = p0
        .rounds
        .iter()
        .map(|x| x.ingest.failed() + x.reads.failed)
        .sum();
    r.info(
        "shape",
        format!(
            "{{\"model\": {}, \"frame_examples\": {}, \"rounds\": {}, \"frames_per_round\": {}, \"reads_per_round\": {}, \"window\": {}, \"pool_examples\": {}, \"holdout_examples\": {}, \"avg_nnz\": {:.2}, \"setup_reps\": {}, \"loop\": \"{}\"}}",
            model.describe(),
            sz.frame,
            sz.rounds,
            sz.frames,
            if traffic == Traffic::Mixed { "\"concurrent\"".to_string() } else { sz.reads.to_string() },
            if traffic == Traffic::Mixed { 0 } else { WINDOW },
            inputs.pool.len(),
            inputs.holdout.len(),
            inputs.avg_nnz(),
            sz.setup_reps,
            if traffic == Traffic::Mixed { "open" } else { "closed" },
        ),
    );
    if traffic == Traffic::Mixed {
        r.info("offered_updates_per_s", crate::report::num(MIXED_RATE));
    }
    let frames = p0.after.update_frames - p0.before.update_frames;
    let locks = p0.after.update_lock_acquisitions - p0.before.update_lock_acquisitions;
    r.info(
        "coalesce_ratio",
        crate::report::num(frames as f64 / locks.max(1) as f64),
    );
    r.info(
        "failed_op_ratio",
        crate::report::num(r.failed as f64 / r.attempted.max(1) as f64),
    );

    if let Some(p1) = p1 {
        let batches: Vec<&[Example]> = (0..sz.frames).map(|k| sz.batch(&inputs, k)).collect();
        let ledger = ledger::replay(model.shape(), &template, &batches, sz.frame);
        let core_update_ns = ledger.update_ns();
        ledger_layers(&mut r, &ledger);
        if let Model::Wm(_) = model {
            let mut twin_heap: Vec<u32> = twin
                .learner
                .recover_top_k(usize::MAX)
                .iter()
                .map(|e| e.feature)
                .collect();
            twin_heap.sort_unstable();
            r.info(
                "ledger_heap_matches_twin",
                (twin_heap == ledger.heap_features).to_string(),
            );
        }
        twin_layers(&mut r, &mut twin, &inputs.holdout);
        let frames: Vec<&[Example]> = (0..sz.pool_frames).map(|k| sz.batch(&inputs, k)).collect();
        let decode_ns = protocol_layers(&mut r, &frames);
        let last = p1.rounds.last().expect("at least one round");
        serve_layers(
            &mut r,
            p1.scrape.as_ref().expect("traced pass scrapes"),
            &round_model(sz.rounds - 1),
            &last.ingest,
            &p1.before,
            &p1.after,
            seg_rate(&p1.rounds, sz.frame as f64, false),
            core_update_ns,
            decode_ns,
        );
        let requests = p1.rounds.iter().map(|x| x.ingest.acked.len() as u64).sum();
        governor_layers(&mut r, &p1.before, &p1.after, requests, p1.scrape.as_ref());
        overhead_layer(&mut r, &p0.rounds, &p1.rounds);
    }
    r
}

/// `trace.overhead_ratio`: traced ÷ untraced `update_p50_us`.
fn overhead_layer(r: &mut Report, untraced: &[Round], traced: &[Round]) {
    let p50 = |rounds: &[Round]| seg_latency(rounds, update_latency, true).p50_us;
    r.layer(
        "trace.overhead_ratio",
        p50(traced) / p50(untraced),
        "ratio",
        2,
    );
}

/// Index ranges of `k` contiguous, near-equal parts of `n` items (fewer
/// when `n` is small).
fn split(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.min(n).max(1);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// The [`SEGMENTS`] segments of a phase of `n` items.
fn segments(n: usize) -> Vec<Range<usize>> {
    split(n, SEGMENTS)
}

/// A segment's UPDATE completion offsets.
fn update_done(x: &Round, s: &Seg) -> Vec<u64> {
    x.ingest.done_ns[s.ingest.clone()].to_vec()
}

/// A segment's UPDATE latencies.
fn update_latency(x: &Round, s: &Seg) -> Vec<u64> {
    x.ingest.latency_ns[s.ingest.clone()].to_vec()
}

/// A segment's read completion offsets.
fn read_done(x: &Round, s: &Seg) -> Vec<u64> {
    x.reads.ops[s.reads.clone()]
        .iter()
        .map(|o| o.done_ns)
        .collect()
}

/// The rate of every segment that completed any of the items `done`
/// picks: items × `weight` per second of the segment's wall time,
/// multiplied by the segment's slowness when `rescale`.
fn seg_rates(
    rounds: &[Round],
    weight: f64,
    rescale: bool,
    done: impl Fn(&Round, &Seg) -> Vec<u64>,
) -> Vec<f64> {
    let mut rates = Vec::new();
    for x in rounds {
        for s in &x.segs {
            let d = done(x, s);
            let Some(&last) = d.iter().max() else {
                continue;
            };
            let rate = d.len() as f64 * weight / (last.max(1) as f64 / 1e9);
            rates.push(if rescale { rate * s.slowness } else { rate });
        }
    }
    rates
}

/// Median UPDATE rate over all segments of all rounds, rescaled to the
/// reference host speed when `rescale`.
fn seg_rate(rounds: &[Round], examples_per_frame: f64, rescale: bool) -> f64 {
    median(seg_rates(rounds, examples_per_frame, rescale, update_done))
}

/// A latency series summarised across rounds: the p50 is the median of
/// every segment's median, the tail the median of every round's tail
/// (the quantile the smallest round supports). With `rescale`, each
/// segment's median is divided by its slowness and each round's tail by
/// the median slowness of its segments.
fn seg_latency(
    rounds: &[Round],
    series: impl Fn(&Round, &Seg) -> Vec<u64>,
    rescale: bool,
) -> Summary {
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut tail_q: f64 = 0.99;
    let mut samples = 0;
    for round in rounds {
        let (mut all, mut slows) = (Vec::new(), Vec::new());
        for s in &round.segs {
            let ns = series(round, s);
            if ns.is_empty() {
                continue;
            }
            let slow = if rescale { s.slowness } else { 1.0 };
            p50s.push(Summary::of(ns.clone()).p50_us / slow);
            slows.push(slow);
            all.extend(ns);
        }
        if all.is_empty() {
            continue;
        }
        samples += all.len() as u64;
        let whole = Summary::of(all);
        tails.push(whole.tail_us / median(slows));
        tail_q = tail_q.min(whole.tail_q);
    }
    Summary {
        p50_us: median(p50s),
        tail_us: median(tails),
        tail_q,
        samples,
    }
}

/// The end-to-end figures of one (untraced) pass. Timings are rescaled
/// to the yardstick's reference host speed, segment by segment, except
/// an `open` loop's UPDATE rate: that is the achieved wall-clock rate,
/// which the schedule sets unless a backlog builds. The wall-clock
/// figures are printed too, unbounded.
fn end_to_end(
    r: &mut Report,
    setup_s: &[f64],
    rounds: &[Round],
    examples_per_frame: f64,
    eval: Option<&Evaluation>,
    inputs: &Inputs,
    open: bool,
) {
    let acked: u64 = rounds
        .iter()
        .map(|x| x.ingest.acked.len() as u64 - x.ingest.failed())
        .sum();
    let examples = (acked as f64 * examples_per_frame) as u64;
    r.e2e(
        "updates_per_s",
        seg_rate(rounds, examples_per_frame, !open),
        "examples/s",
        examples,
    );
    r.unbounded(
        "updates_per_s_wall",
        seg_rate(rounds, examples_per_frame, false),
        "examples/s",
        examples,
    );
    let update = seg_latency(rounds, update_latency, true);
    r.e2e("update_p50_us", update.p50_us, "us", update.samples);
    r.unbounded("update_p99_us", update.tail_us, "us", update.samples);
    let wall = seg_latency(rounds, update_latency, false);
    r.unbounded("update_p50_us_wall", wall.p50_us, "us", wall.samples);
    let reads_of = |topk: bool| {
        move |x: &Round, s: &Seg| -> Vec<u64> {
            x.reads.ops[s.reads.clone()]
                .iter()
                .filter(|o| o.topk == topk)
                .map(|o| o.latency_ns)
                .collect()
        }
    };
    let predict = seg_latency(rounds, reads_of(false), true);
    let topk = seg_latency(rounds, reads_of(true), true);
    r.e2e("predict_p50_us", predict.p50_us, "us", predict.samples);
    r.unbounded("predict_p99_us", predict.tail_us, "us", predict.samples);
    r.unbounded("topk_p50_us", topk.p50_us, "us", topk.samples);
    r.unbounded("topk_p99_us", topk.tail_us, "us", topk.samples);
    let reads: u64 = rounds.iter().map(|x| x.reads.ops.len() as u64).sum();
    r.unbounded(
        "reads_per_s",
        median(seg_rates(rounds, 1.0, true, read_done)),
        "ops/s",
        reads,
    );
    r.e2e(
        "setup_s",
        median(setup_s.to_vec()),
        "s",
        setup_s.len() as u64,
    );
    if let Some(eval) = eval {
        r.e2e(
            "topk_recall",
            recall(&eval.top, &inputs.planted_top),
            "ratio",
            TOPK as u64,
        );
        r.e2e(
            "holdout_accuracy",
            node::accuracy(eval, &inputs.holdout),
            "ratio",
            inputs.holdout.len() as u64,
        );
    }
    r.info(
        "tail_quantiles",
        format!(
            "{{\"update\": {}, \"predict\": {}, \"topk\": {}}}",
            update.tail_q, predict.tail_q, topk.tail_q
        ),
    );
    r.info("segments_per_phase", SEGMENTS.to_string());
    let slowness = median(
        rounds
            .iter()
            .flat_map(|x| x.segs.iter().map(|s| s.slowness))
            .collect(),
    );
    r.info("host_slowness", crate::report::num(slowness));
    let by_round: Vec<f64> = rounds
        .iter()
        .map(|x| seg_rate(std::slice::from_ref(x), examples_per_frame, false).round())
        .collect();
    r.info("wall_update_rate_by_round", format!("{by_round:?}"));
}

/// Stage-ledger figures (traced run).
fn ledger_layers(r: &mut Report, led: &Ledger) {
    let n = led.examples;
    r.layer("hashing.fill_plan_ns", led.fill_ns(), "ns", n);
    r.layer("core.gather_ns", led.gather_ns(), "ns", n);
    r.layer("core.scatter_ns", led.scatter_ns(), "ns", n);
    r.layer("sketch.median_ns", led.median_ns(), "ns", n);
    r.layer(
        "sketch.median_calls",
        led.per_update(led.median_calls),
        "count",
        n,
    );
    r.layer("heavyhitters.offer_ns", led.offer_ns(), "ns", n);
    r.layer(
        "heavyhitters.offers",
        led.per_update(led.offers),
        "count",
        n,
    );
    r.layer("core.update_ns", led.update_ns(), "ns", n);
    r.layer("core.ledger_coverage", led.coverage(), "ratio", n);
}

/// Read-path and snapshot costs measured on the twin (traced run).
fn twin_layers(r: &mut Report, twin: &mut Twin, holdout: &[Example]) {
    let margin: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0.0;
            for (x, _) in holdout {
                acc += twin.learner.margin(std::hint::black_box(x));
            }
            std::hint::black_box(acc);
            ns(t.elapsed()) as f64 / holdout.len() as f64
        })
        .collect();
    r.layer(
        "core.margin_ns",
        median(margin),
        "ns",
        5 * holdout.len() as u64,
    );
    let topk: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(twin.learner.recover_top_k(TOPK));
            ns(t.elapsed()) as f64
        })
        .collect();
    r.layer("core.topk_ns", median(topk), "ns", 201);
    let mut bytes = Vec::new();
    let encode: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            bytes = twin.snapshot();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let decode: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(wmsketch_core::decode_any_learner(&bytes).expect("decode"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    r.layer("core.snapshot_encode_us", median(encode), "us", 51);
    r.layer("core.snapshot_decode_us", median(decode), "us", 51);
    r.layer("core.snapshot_bytes", bytes.len() as f64, "bytes", 1);
}

/// UPDATE payload encode/decode costs per example; returns decode ns.
fn protocol_layers(r: &mut Report, frames: &[&[Example]]) -> f64 {
    let examples: usize = frames.iter().map(|f| f.len()).sum();
    let mut payloads = Vec::with_capacity(frames.len());
    let encode: Vec<f64> = (0..5)
        .map(|_| {
            payloads.clear();
            let t = Instant::now();
            for f in frames {
                let mut w = Writer::new();
                put_examples(&mut w, f);
                payloads.push(w.into_bytes());
            }
            ns(t.elapsed()) as f64 / examples as f64
        })
        .collect();
    let mut scratch = ExamplesScratch::new();
    let decode: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for p in &payloads {
                take_examples_into(&mut Reader::new(p), &mut scratch, LabelDomain::Binary)
                    .expect("payload decodes");
            }
            ns(t.elapsed()) as f64 / examples as f64
        })
        .collect();
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    let decode_ns = median(decode);
    r.layer(
        "protocol.encode_ns",
        median(encode),
        "ns",
        5 * examples as u64,
    );
    r.layer("protocol.decode_ns", decode_ns, "ns", 5 * examples as u64);
    r.layer(
        "protocol.bytes_per_example",
        bytes as f64 / examples as f64,
        "bytes",
        examples as u64,
    );
    decode_ns
}

/// Node-side figures scraped from STATS and METRICS (traced run).
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    r: &mut Report,
    scrape: &Scrape,
    model: &str,
    ingest: &IngestLog,
    before: &ServeStats,
    after: &ServeStats,
    updates_per_s: f64,
    core_update_ns: f64,
    decode_ns: f64,
) {
    let m = &scrape.metrics;
    let op = |op: &str, q: &str| {
        let count = m
            .value("op_latency_ns_count", &[("model", model), ("op", op)])
            .unwrap_or(0.0);
        let v = m
            .value(
                &format!("op_latency_ns_{q}"),
                &[("model", model), ("op", op)],
            )
            .unwrap_or(0.0);
        (v / 1e3, count as u64)
    };
    let (svc50, n) = op("update", "p50");
    let (svc99, _) = op("update", "p99");
    let (read50, nr) = op("predict", "p50");
    r.layer("serve.update_service_p50_us", svc50, "us", n);
    r.layer("serve.update_service_p99_us", svc99, "us", n);
    r.layer("serve.read_service_p50_us", read50, "us", nr);
    let client = Summary::of(ingest.latency_ns.clone());
    r.layer(
        "serve.queue_wait_p50_us",
        client.p50_us - svc50,
        "us",
        client.samples,
    );
    r.layer(
        "serve.wire_ns",
        1e9 / updates_per_s - core_update_ns - decode_ns,
        "ns",
        client.samples,
    );
    let frames = after.update_frames - before.update_frames;
    let locks = after.update_lock_acquisitions - before.update_lock_acquisitions;
    r.layer(
        "serve.coalesce_ratio",
        frames as f64 / locks.max(1) as f64,
        "ratio",
        frames,
    );
    let writes = Summary::of(ingest.write_ns.clone());
    r.layer("client.write_p50_us", writes.p50_us, "us", writes.samples);
    let lag = Summary::of(ingest.lag_ns.clone());
    r.layer("loadgen.lag_p99_us", lag.tail_us, "us", lag.samples);
    r.layer(
        "durability.checkpoint_ms",
        median(scrape.checkpoint_ms.clone()),
        "ms",
        scrape.checkpoint_ms.len() as u64,
    );
    r.layer(
        "durability.checkpoints_written",
        m.value("checkpoints_written_total", &[]).unwrap_or(0.0),
        "count",
        1,
    );
}

/// Memory-governor figures over the ingest phase (traced run).
fn governor_layers(
    r: &mut Report,
    before: &ServeStats,
    after: &ServeStats,
    requests: u64,
    scrape: Option<&Scrape>,
) {
    let revivals = after.revivals_total - before.revivals_total;
    let evictions = after.evictions_total - before.evictions_total;
    r.layer(
        "governor.hit_rate",
        1.0 - revivals as f64 / requests.max(1) as f64,
        "ratio",
        requests,
    );
    r.layer("governor.revivals", revivals as f64, "count", 1);
    r.layer("governor.evictions", evictions as f64, "count", 1);
    let p99 = scrape
        .and_then(|s| s.metrics.value("governor_revival_latency_ns_p99", &[]))
        .unwrap_or(0.0);
    r.layer(
        "governor.revival_p99_us",
        p99 / 1e3,
        "us",
        after.revivals_total,
    );
}

/// The fleet's traffic: which model each request and each read addresses.
struct FleetPlan {
    models: usize,
    budget: u64,
    hot_sum: u64,
    requests: Vec<u32>,
    reads: Vec<u32>,
}

impl FleetPlan {
    fn new(spec: &RunSpec, hot_bytes: u64) -> FleetPlan {
        let (models, requests, reads) = if spec.smoke {
            (40, 300, 60)
        } else {
            (
                FLEET_MODELS,
                ((spec.seconds * FLEET_RATE) as usize).max(1000),
                ((spec.seconds * READS_PER_SECOND / 2.0) as usize).max(200),
            )
        };
        let zipf = Zipf::new(models as u64, 1.1);
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xF1EE_7000);
        let mut draw =
            |n: usize| -> Vec<u32> { (0..n).map(|_| (zipf.sample(&mut rng) - 1) as u32).collect() };
        let requests = draw(requests);
        let reads = draw(reads);
        let hot_sum = hot_bytes * models as u64;
        // A tiny fleet's fixed per-model registry overhead would not fit
        // in a quarter of its hot sum.
        let fraction = if spec.smoke {
            0.6
        } else {
            FLEET_BUDGET_FRACTION
        };
        FleetPlan {
            models,
            budget: (hot_sum as f64 * fraction) as u64,
            hot_sum,
            requests,
            reads,
        }
    }

    /// Examples of request `j`: the next slice of the shared stream.
    fn batch<'a>(&self, inputs: &'a Inputs, j: usize) -> &'a [Example] {
        let at = (j * FLEET_BATCH) % inputs.pool.len();
        &inputs.pool[at..at + FLEET_BATCH]
    }

    /// Models compared with their twins: spread across the zipf rank
    /// range, so always-hot and spilled-and-revived models are covered.
    fn spot_checks(&self, n: usize) -> Vec<usize> {
        let n = n.min(self.models).max(1);
        (0..n).map(|j| j * self.models / n).collect()
    }
}

/// One pass of the fleet workload.
struct FleetPass {
    /// Set-up times on nodes without a data directory, each rescaled to
    /// the reference host speed.
    setup_s: Vec<f64>,
    /// The governed node's set-up time, rescaled likewise.
    durable_setup_s: f64,
    /// Every yardstick measurement of the pass, in order.
    yard_ns: Vec<[f64; 2]>,
    /// The request stream cut into consecutive rounds, each followed (in
    /// its own segments) by its share of the zipf reads.
    rounds: Vec<Round>,
    eval: Option<Evaluation>,
    served: Vec<Vec<u8>>,
    /// Requests that found their (probed) model spilled and revived it.
    revived: Vec<bool>,
    before: ServeStats,
    after: ServeStats,
    scrape: Option<Scrape>,
}

impl FleetPass {
    /// Whether the node acknowledged each request, in stream order.
    fn acked(&self) -> Vec<bool> {
        self.rounds
            .iter()
            .flat_map(|x| x.ingest.acked.iter().copied())
            .collect()
    }
}

fn fleet_pass(
    spec: &RunSpec,
    plan: &FleetPlan,
    inputs: &Inputs,
    template: &[u8],
    checks: &[usize],
    traced: bool,
) -> FleetPass {
    let (reps, rounds) = if spec.smoke {
        (2, 2)
    } else {
        (FLEET_SETUP_REPS, ROUNDS)
    };
    let dir = spec.run_dir.join(format!("fleet-{}", u8::from(traced)));
    let create_all = |c: &mut ServeClient| -> Vec<u32> {
        (0..plan.models)
            .map(|i| {
                c.create_model(&format!("f{i}"), template, 0)
                    .expect("CREATE")
            })
            .collect()
    };
    let mut pace = Pace::start();
    // `setup_s` times the fleet's set-up on nodes without a data
    // directory: on a governed node every CREATE also syncs a spec file
    // to disk, and the host's sync latency swung that figure twofold
    // between runs. The governed node's own set-up is timed once and
    // printed unbounded.
    let (spare, spare_client, _, setup_s) =
        setup_nodes(reps, &mut pace, |_| node::bind(None), create_all);
    drop(spare_client);
    spare.shutdown();
    let (handle, mut control, ids, durable_setup_s) = setup_nodes(
        1,
        &mut pace,
        |_| node::bind(Some((&node::fresh_dir(dir.clone()), plan.budget))),
        create_all,
    );
    let before = control.stats().expect("STATS");
    let mut stream = node::connect(handle.addr());
    let mut probe = vec![false; plan.models];
    for &k in checks {
        probe[k] = true;
    }
    let mut track = FleetTrack {
        probe,
        // LRU only evicts the least recently used model, so a model
        // touched within the last `safe_gap` requests cannot have been
        // spilled while more than twice that many models stay resident;
        // only requests after a longer gap need a probe.
        safe_gap: (before.resident_models as usize / 4).max(1),
        last_touch: vec![None; ids.len()],
        revived: vec![false; plan.requests.len()],
    };
    let mut logs: Vec<Round> = (0..rounds).map(|_| Round::default()).collect();
    for (round, part) in logs.iter_mut().zip(split(plan.requests.len(), rounds)) {
        for s in segments(part.len()) {
            let requests = part.start + s.start..part.start + s.end;
            let (log, slow) = pace.run(|| {
                fleet_ingest(
                    &mut stream,
                    &mut control,
                    plan,
                    inputs,
                    &ids,
                    &mut track,
                    requests,
                    traced,
                )
            });
            round.push(log, ReadLog::default(), slow);
        }
    }
    let after = control.stats().expect("STATS");
    for (round, part) in logs.iter_mut().zip(split(plan.reads.len(), rounds)) {
        for s in segments(part.len()) {
            let (log, slow) = pace.run(|| {
                node::read_closed(
                    &mut stream,
                    &inputs.holdout,
                    part.start + s.start,
                    s.len(),
                    None,
                    |i| ids[plan.reads[i] as usize],
                )
            });
            round.push(IngestLog::default(), log, slow);
        }
    }
    let eval = node::evaluate(&mut stream, ids[0], &inputs.holdout);
    let served = checks
        .iter()
        .map(|&k| {
            control.set_model(ids[k]).expect("address the model");
            control.snapshot().expect("SNAPSHOT")
        })
        .collect();
    control.set_model(ids[0]).expect("address the model");
    let scrape = traced.then(|| scrape(&mut control, |k| format!("ckpt-{k}.wms")));
    drop(stream);
    drop(control);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    FleetPass {
        setup_s,
        durable_setup_s: durable_setup_s[0],
        yard_ns: pace.measured,
        rounds: logs,
        eval,
        served,
        revived: track.revived,
        before,
        after,
        scrape,
    }
}

/// What the fleet's ingest loop carries from one segment to the next.
struct FleetTrack {
    /// The spot-checked models.
    probe: Vec<bool>,
    /// Requests back within which a model cannot have been spilled.
    safe_gap: usize,
    /// Each model's latest request.
    last_touch: Vec<Option<usize>>,
    /// Per request: whether it found its (probed) model spilled and
    /// revived it.
    revived: Vec<bool>,
}

/// Closed-loop zipf traffic over stream requests `requests`, one request
/// in flight. A request to a probed model whose previous request lies
/// more than `safe_gap` requests back is bracketed by STATS calls on
/// `control` (which addresses the never-spilled default model), so the
/// run knows whether it revived its model. The probes are kept off the
/// clock: completion offsets advance only while requests are in flight.
#[allow(clippy::too_many_arguments)]
fn fleet_ingest(
    stream: &mut TcpStream,
    control: &mut ServeClient,
    plan: &FleetPlan,
    inputs: &Inputs,
    ids: &[u32],
    track: &mut FleetTrack,
    requests: Range<usize>,
    traced: bool,
) -> IngestLog {
    use std::io::Write;
    let n = requests.len();
    let mut log = IngestLog {
        latency_ns: Vec::with_capacity(n),
        acked: Vec::with_capacity(n),
        done_ns: Vec::with_capacity(n),
        elapsed: Duration::ZERO,
        lag_ns: Vec::new(),
        write_ns: Vec::with_capacity(if traced { n } else { 0 }),
    };
    let revivals = |c: &mut ServeClient| c.stats().expect("STATS").revivals_total;
    let start = Instant::now();
    let mut in_flight_ns = 0u64;
    for j in requests {
        let k = plan.requests[j] as usize;
        let frame = update_frame(ids[k], plan.batch(inputs, j));
        let since = track.last_touch[k].replace(j);
        let stale = since.is_none_or(|at| j - at > track.safe_gap);
        let probed = (track.probe[k] && stale).then(|| revivals(control));
        let t = Instant::now();
        stream.write_all(&frame).expect("write UPDATE frame");
        if traced {
            log.write_ns.push(ns(t.elapsed()));
        }
        let resp = read_frame(stream)
            .expect("read UPDATE response")
            .expect("node closed the connection mid-run");
        let latency = ns(t.elapsed());
        in_flight_ns += latency;
        log.latency_ns.push(latency);
        log.done_ns.push(in_flight_ns);
        log.acked
            .push(resp.first() == Some(&wmsketch_serve::protocol::STATUS_OK));
        if let Some(before) = probed {
            track.revived[j] = revivals(control) > before;
        }
    }
    log.elapsed = start.elapsed();
    log
}

/// One twin per spot-checked model, fed the requests the pass's node
/// acknowledged for it. Where the node revived the model from its spill
/// record, the twin takes the same snapshot round trip first: a restored
/// heap can break ties between equal weights differently from the one it
/// replaced, so only a twin that mirrors the revivals stays bit-exact.
fn fleet_twins(
    plan: &FleetPlan,
    inputs: &Inputs,
    template: &[u8],
    checks: &[usize],
    pass: &FleetPass,
) -> Vec<Twin> {
    let mut twins: Vec<Twin> = checks.iter().map(|_| Twin::new(template)).collect();
    let acked = pass.acked();
    for (j, &k) in plan.requests.iter().enumerate() {
        let Some(c) = checks.iter().position(|&m| m == k as usize) else {
            continue;
        };
        if acked[j] {
            if pass.revived[j] {
                twins[c].round_trip();
            }
            twins[c].feed(plan.batch(inputs, j));
        }
    }
    twins
}

fn run_fleet(spec: &RunSpec) -> Report {
    let cfg = AwmSketchConfig::with_budget_bytes(2048).seed(9);
    let model = Model::Awm(cfg);
    let template = model.template();
    let plan = FleetPlan::new(spec, AwmSketch::new(cfg).resident_bytes() as u64);
    let (pool, holdout) = if spec.smoke {
        (1024, 64)
    } else {
        (65_536, 4096)
    };
    let inputs = Inputs::generate(spec.seed, pool, holdout);
    let checks = plan.spot_checks(if spec.smoke { 4 } else { FLEET_SPOT_CHECKS });
    let p0 = fleet_pass(spec, &plan, &inputs, &template, &checks, false);
    let p1 = spec
        .traced
        .then(|| fleet_pass(spec, &plan, &inputs, &template, &checks, true));

    let mut twins = fleet_twins(&plan, &inputs, &template, &checks, &p0);
    let mut r = Report::default();
    let mut diverged = Vec::new();
    for (c, twin) in twins.iter_mut().enumerate() {
        if !snapshot_gate("fleet", &p0.served[c], twin).passed {
            diverged.push(checks[c]);
        }
    }
    if let Some(p1) = &p1 {
        let mut traced_twins = fleet_twins(&plan, &inputs, &template, &checks, p1);
        for (c, twin) in traced_twins.iter_mut().enumerate() {
            if !snapshot_gate("fleet", &p1.served[c], twin).passed {
                diverged.push(checks[c]);
            }
        }
    }
    r.gates.push(Gate::new(
        "spot_checks_match_twins",
        diverged.is_empty(),
        format!("{} models checked, diverged: {diverged:?}", checks.len()),
    ));
    r.gates.push(perturbed_gate(
        "perturbed_twin_rejected",
        &p0.served[0],
        &mut twins[0],
        &inputs.holdout[0],
    ));
    match &p0.eval {
        Some(eval) => r.gates.push(read_gate(
            "reads_match_twin",
            eval,
            &inputs.holdout,
            &twins[0],
        )),
        None => r.gates.push(Gate::new(
            "reads_match_twin",
            false,
            "evaluation reads failed",
        )),
    }

    let requests = plan.requests.len() as u64;
    end_to_end(
        &mut r,
        &p0.setup_s,
        &p0.rounds,
        FLEET_BATCH as f64,
        p0.eval.as_ref(),
        &inputs,
        false,
    );
    r.info("yardstick_ns", format!("{:?}", p0.yard_ns));
    r.unbounded("durable_setup_s", p0.durable_setup_s, "s", 1);
    r.attempted = plan.models as u64
        + p0.rounds
            .iter()
            .map(|x| x.ingest.acked.len() as u64 + x.reads.attempted())
            .sum::<u64>();
    r.failed = p0
        .rounds
        .iter()
        .map(|x| x.ingest.failed() + x.reads.failed)
        .sum();
    r.info(
        "shape",
        format!(
            "{{\"model\": {}, \"models\": {}, \"requests\": {}, \"examples_per_request\": {}, \"zipf_s\": 1.1, \"hot_sum_bytes\": {}, \"budget_bytes\": {}, \"spot_checks\": {}, \"setup_reps\": {}, \"loop\": \"closed\"}}",
            model.describe(),
            plan.models,
            requests,
            FLEET_BATCH,
            plan.hot_sum,
            plan.budget,
            checks.len(),
            if spec.smoke { 2 } else { FLEET_SETUP_REPS },
        ),
    );
    r.info(
        "failed_op_ratio",
        crate::report::num(r.failed as f64 / r.attempted.max(1) as f64),
    );
    r.info(
        "evictions",
        (p0.after.evictions_total - p0.before.evictions_total).to_string(),
    );
    r.info(
        "revivals",
        (p0.after.revivals_total - p0.before.revivals_total).to_string(),
    );

    if let Some(p1) = p1 {
        // The hottest model's own stream, replayed stage by stage.
        let hot: Vec<&[Example]> = (0..plan.requests.len())
            .filter(|&j| plan.requests[j] == 0)
            .map(|j| plan.batch(&inputs, j))
            .collect();
        let ledger = ledger::replay(model.shape(), &template, &hot, 256);
        let core_update_ns = ledger.update_ns();
        ledger_layers(&mut r, &ledger);
        twin_layers(&mut r, &mut twins[0], &inputs.holdout);
        let frames: Vec<&[Example]> = (0..plan.requests.len().min(4096))
            .map(|j| plan.batch(&inputs, j))
            .collect();
        let decode_ns = protocol_layers(&mut r, &frames);
        serve_layers(
            &mut r,
            p1.scrape.as_ref().expect("traced pass scrapes"),
            "f0",
            &p1.rounds.last().expect("at least one round").ingest,
            &p1.before,
            &p1.after,
            seg_rate(&p1.rounds, FLEET_BATCH as f64, false),
            core_update_ns,
            decode_ns,
        );
        governor_layers(&mut r, &p1.before, &p1.after, requests, p1.scrape.as_ref());
        overhead_layer(&mut r, &p0.rounds, &p1.rounds);
    }
    r
}
