//! Driving the sharded runtime: the open-loop answer workloads and the
//! closed-loop collaboration and churn streams.

use crate::gen::{churn_project, churn_registrations, AnswerGen, AnswerShape, ChurnShape};
use crate::serial::Op;
use crate::stats::{mean95, quantile, Hist, Samples};
use crowd4u_core::events::PlatformEvent;
use crowd4u_runtime::prelude::*;
use crowd4u_scenarios::mixed::{reports_from, splits_from};
use crowd4u_scenarios::stream::{
    platform_side, project_split, MergedStream, ScenarioTrace, StreamOp,
};
use crowd4u_telemetry::{stage, MetricsSnapshot, Registry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// An answer run alternates an open-loop phase and a closed saturation
/// phase this many times, so that both sample the whole run: the host's
/// speed drifts over seconds. The two phases drive twin runtimes set up
/// identically, so the open loop's runtime does not carry the journal and
/// ledger growth of the saturation phases (reallocating them stalls a
/// shard for milliseconds).
pub const BLOCKS: usize = 10;
/// Share of each block spent in the open loop; the closed phase takes the
/// rest.
const OPEN_SHARE: f64 = 2.0 / 3.0;
/// Set-up samples taken at one point of a run: at least `min`, and more
/// while they have taken less than `budget` seconds (up to `max`).
/// Samples are taken at several points spread over the run, because the
/// host's speed drifts within seconds; `setup_s` is their median.
pub struct Repeats {
    pub min: usize,
    pub max: usize,
    pub budget: f64,
}

/// Answer workloads (seed, drain, barrier), at each sampling point.
pub const ANSWER_SETUPS: Repeats = Repeats {
    min: 1,
    max: 20,
    budget: 0.1,
};
/// Closed workloads (runtime spawn), all before the first iteration:
/// after a pass has freed a large platform (`worker_churn`: ~760 MiB),
/// spawns take milliseconds for a while, and samples taken then made the
/// median jump 100-fold in some runs.
const SPAWNS: Repeats = Repeats {
    min: 200,
    max: 200,
    budget: 0.0,
};

impl Repeats {
    fn sample(&self, mut once: impl FnMut() -> f64) -> Vec<f64> {
        let mut times: Vec<f64> = Vec::new();
        while times.len() < self.min
            || (times.len() < self.max && times.iter().sum::<f64>() < self.budget)
        {
            times.push(once());
        }
        times
    }
}

// The shared host's speed flips between levels up to ~1.5× apart that
// last seconds (a spin loop's rate does the same), so a run's mean
// throughput follows how much of the run fell in slow spells more than it
// follows the program. Throughput therefore comes from the run's fast
// spells: a high percentile of many short windows, or the least time of
// each step of identical work repeated over several passes.

/// The 90th percentile of the closed windows' rates.
fn fast_rate(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.9)
}

/// The least of several measurements of the same work (`INFINITY` when
/// there are none).
fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Waves submitted between barriers in the closed saturation phase.
const CLOSED_WINDOW: usize = 8;
/// Mailbox bound of the closed workloads: within a step, backpressure
/// keeps at most this many events queued per shard.
pub const CLOSED_CAPACITY: usize = 256;

/// The one place a runtime is built: coordinated drains (byte-identical
/// journals), no recovery, and telemetry on only for traced runs. A
/// single shard gets a CPU of its own and the calling (generator) thread
/// keeps the first; more shards share every CPU with the generator.
pub fn spawn_runtime(shards: usize, mailbox_capacity: usize, traced: bool) -> ShardedRuntime {
    let telemetry = if traced {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let cpus = crate::pin::allowed_at_start();
    let split = shards == 1 && cpus.len() >= 2;
    crate::pin::restrict(if split { &cpus[1..2] } else { cpus });
    let rt = ShardedRuntime::new_instrumented(
        RuntimeConfig {
            shards,
            drain_every: 0,
            mailbox_capacity,
            recovery: false,
        },
        telemetry,
    );
    crate::pin::restrict(if split { &cpus[..1] } else { cpus });
    rt
}

/// Shard count of the multi-shard workloads: two, or fewer on a smaller
/// host.
fn host_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Client-side view of one generator thread: what it submitted, what the
/// gate refused and, when traced, how long each call took.
pub struct Client {
    gate: IngestGate,
    traced: bool,
    pub submitted: u64,
    pub refused: u64,
    pub submit: Samples,
    pub drain: Samples,
}

impl Client {
    fn new(rt: &ShardedRuntime, traced: bool) -> Client {
        Client {
            gate: rt.gate(),
            traced,
            submitted: 0,
            refused: 0,
            submit: Samples::default(),
            drain: Samples::default(),
        }
    }

    fn submit(&mut self, e: PlatformEvent) {
        self.submitted += 1;
        let start = self.traced.then(Instant::now);
        let refused = self.gate.submit(e).is_err();
        if let Some(t) = start {
            self.submit.push(t.elapsed());
        }
        self.refused += u64::from(refused);
    }

    fn absorb(&mut self, other: &Client) {
        self.submitted += other.submitted;
        self.refused += other.refused;
        self.submit.absorb(&other.submit);
        self.drain.absorb(&other.drain);
    }

    fn drain(&mut self, rt: &ShardedRuntime) {
        let start = self.traced.then(Instant::now);
        rt.drain();
        if let Some(t) = start {
            self.drain.push(t.elapsed());
        }
    }
}

/// Stage histograms over one phase of a traced run.
pub type Stages = BTreeMap<&'static str, Hist>;

fn stages(snap: &MetricsSnapshot) -> Stages {
    stage::ALL
        .iter()
        .map(|&s| (s, Hist::read(snap, s)))
        .collect()
}

fn stages_since(now: &Stages, before: &Stages) -> Stages {
    now.iter()
        .map(|(&k, h)| (k, h.since(before.get(k).expect("same stage set"))))
        .collect()
}

fn sum_stats(stats: &[ShardStats]) -> (u64, u64) {
    stats
        .iter()
        .fold((0, 0), |(a, d), s| (a + s.applied, d + s.dropped))
}

/// What one workload run measured on the runtime.
pub struct RuntimeRun {
    pub shards: usize,
    pub setup_s: Vec<f64>,
    /// The end-to-end latency: the mean of the fastest 95% of the
    /// answer→visible latencies of the waves (open loop), or of the
    /// request steps' least submit→visible times over the passes (closed
    /// loop).
    pub latency_mean95_ms: f64,
    /// Answer→visible (open loop, per wave) or submit→visible (closed
    /// loop, sampled events) latencies, in ms; a wave that saw a dropped
    /// event is `INFINITY`.
    pub latency_ms: Vec<f64>,
    /// Open loop: how late each wave was released. Closed loop (traced):
    /// the longest a single submission blocked.
    pub late_ms: Vec<f64>,
    /// Applied events per second in the closed phases: the 90th
    /// percentile of the windows' rates (answer workloads), or one pass
    /// over the fastest iteration of each segment (closed workloads).
    pub events_per_s: f64,
    /// Applied events over the wall time of all closed phases (or all
    /// iterations): the plain mean the fast-spell figure is read beside.
    pub events_per_s_wall: f64,
    /// Closed workloads: the fastest pass's request steps, other steps and
    /// `finish`, ms.
    pub fastest_pass_ms: Vec<f64>,
    /// Wall time of the closed phases (of the first iteration for the
    /// closed workloads, whose phase ends when `finish` returns), ms.
    pub phase_wall_ms: f64,
    pub phase_includes_finish: bool,
    pub submitted: u64,
    pub refused: u64,
    pub dropped: u64,
    pub peak_rss_mib: f64,
    pub client: Client,
    pub finish_ms: f64,
    /// Stage histograms over the closed phases (traced runs).
    pub phase_stages: Stages,
    pub failures: Vec<String>,
}

// ---- answer workloads ----

/// An answer workload's runtime run plus what the serial passes need to
/// regenerate the identical streams.
pub struct AnswerRun {
    pub run: RuntimeRun,
    /// Waves of the open-loop runtime and of the saturated twin.
    pub open_waves: usize,
    pub closed_waves: usize,
    /// Merged journals of the open-loop runtime and of the twin.
    pub journals: Vec<String>,
    pub good: usize,
    pub expected_good: usize,
    /// Applied events per second of each closed window.
    pub window_rates: Vec<f64>,
}

/// Seed the pool and wait until it is visible.
fn answer_setup(shape: AnswerShape, seed: u64, traced: bool) -> (ShardedRuntime, Client, Duration) {
    let start = Instant::now();
    let rt = spawn_runtime(1, 0, traced);
    let mut client = Client::new(&rt, traced);
    for e in AnswerGen::new(shape, seed).setup() {
        client.submit(e);
    }
    client.drain(&rt);
    rt.barrier();
    (rt, client, start.elapsed())
}

/// The observer: for each batch of waves the generator has drained, call
/// `barrier` once; its return is when those waves' answers are visible.
fn observe(rt: &ShardedRuntime, waves: mpsc::Receiver<Instant>) -> Vec<f64> {
    let mut latency = Vec::new();
    let mut dropped_before = 0;
    while let Ok(first) = waves.recv() {
        let mut due = vec![first];
        due.extend(waves.try_iter());
        let (_, dropped) = sum_stats(&rt.barrier());
        let visible = Instant::now();
        let lost = dropped > dropped_before;
        dropped_before = dropped;
        for d in due {
            latency.push(if lost {
                f64::INFINITY
            } else {
                crate::stats::ms(visible - d)
            });
        }
    }
    latency
}

/// Set-up samples of an answer workload (each runtime dropped untimed).
pub fn answer_setup_times(shape: AnswerShape, seed: u64) -> Vec<f64> {
    ANSWER_SETUPS.sample(|| answer_setup(shape, seed, false).2.as_secs_f64())
}

pub fn run_answers(shape: AnswerShape, seed: u64, seconds: f64, traced: bool) -> AnswerRun {
    let mut setup_s = answer_setup_times(shape, seed);
    let (open_rt, mut client, took) = answer_setup(shape, seed, traced);
    setup_s.push(took.as_secs_f64());
    let (closed_rt, mut closed_client, took) = answer_setup(shape, seed, traced);
    setup_s.push(took.as_secs_f64());
    let mut open_gen = AnswerGen::new(shape, seed);
    let mut closed_gen = AnswerGen::new(shape, seed);
    let interval = Duration::from_millis(shape.wave_ms);
    let block_secs = seconds / BLOCKS as f64;
    let block_waves = ((block_secs * OPEN_SHARE * 1000.0) as u64 / shape.wave_ms).max(1) as usize;
    let closed_for = Duration::from_secs_f64(block_secs * (1.0 - OPEN_SHARE));

    let mut latency_ms = Vec::with_capacity(block_waves * BLOCKS);
    let mut late_ms = Vec::with_capacity(block_waves * BLOCKS);
    let mut closed_waves = 0;
    let mut window_rates = Vec::new();
    let (mut applied_total, mut wall) = (0, Duration::ZERO);
    let mut phase_stages = Stages::new();
    let mut peak_rss_mib = 0.0;
    for block in 0..BLOCKS {
        // Open loop: waves leave on schedule whatever the runtime does;
        // the generator never waits for the observer.
        latency_ms.extend(std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let observer = s.spawn(|| observe(&open_rt, rx));
            let t0 = Instant::now() + interval;
            for k in 0..block_waves {
                let due = t0 + interval * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ms.push(crate::stats::ms(Instant::now() - due));
                for e in open_gen.wave() {
                    client.submit(e);
                }
                client.drain(&open_rt);
                tx.send(due).expect("observer alive");
            }
            drop(tx);
            observer.join().expect("observer thread")
        }));
        if block == 0 {
            // Fixed work so far, so this high-water mark repeats.
            peak_rss_mib = crate::stats::peak_rss_mib();
        }

        // Closed saturation phase on the twin runtime; each window of
        // waves, closed by a barrier, is one throughput sample.
        let before = stages(&closed_rt.metrics());
        let mut applied = sum_stats(&closed_rt.barrier()).0;
        let start = Instant::now();
        let mut window_start = start;
        while start.elapsed() < closed_for {
            for _ in 0..CLOSED_WINDOW {
                for e in closed_gen.wave() {
                    closed_client.submit(e);
                }
                closed_client.drain(&closed_rt);
            }
            closed_waves += CLOSED_WINDOW;
            let now_applied = sum_stats(&closed_rt.barrier()).0;
            let now = Instant::now();
            window_rates.push((now_applied - applied) as f64 / (now - window_start).as_secs_f64());
            applied_total += now_applied - applied;
            (applied, window_start) = (now_applied, now);
        }
        wall += start.elapsed();
        for (k, h) in stages_since(&stages(&closed_rt.metrics()), &before) {
            phase_stages.entry(k).or_default().add(&h);
        }
    }
    client.absorb(&closed_client);

    let mut dropped = 0;
    let mut good = 0;
    let mut journals = Vec::with_capacity(2);
    let mut finish_ms = 0.0;
    for rt in [open_rt, closed_rt] {
        dropped += sum_stats(&rt.barrier()).1;
        let t = Instant::now();
        let report = rt.finish().expect("runtime finish");
        finish_ms += crate::stats::ms(t.elapsed());
        good += (1..=shape.projects)
            .map(|p| {
                report.platforms[0]
                    .project(crowd4u_core::error::ProjectId(p))
                    .and_then(|pr| Ok(pr.engine.fact_count("good")?))
                    .unwrap_or(0)
            })
            .sum::<usize>();
        journals.push(report.journal.dump());
    }
    AnswerRun {
        run: RuntimeRun {
            shards: 1,
            setup_s,
            latency_mean95_ms: mean95(&latency_ms),
            latency_ms,
            late_ms,
            events_per_s: fast_rate(&window_rates),
            events_per_s_wall: applied_total as f64 / wall.as_secs_f64(),
            fastest_pass_ms: Vec::new(),
            phase_wall_ms: crate::stats::ms(wall),
            phase_includes_finish: false,
            submitted: client.submitted,
            refused: client.refused,
            dropped,
            peak_rss_mib,
            client,
            finish_ms,
            phase_stages,
            failures: Vec::new(),
        },
        open_waves: block_waves * BLOCKS,
        closed_waves,
        journals,
        good,
        expected_good: open_gen.good_closed_form() + closed_gen.good_closed_form(),
        window_rates,
    }
}

// ---- closed workloads ----

/// One closed-loop pass of a stream: spawn, submit it step by step (a
/// step is the ops up to and including a drain), waiting after each step
/// until it is visible, then finish.
struct Iteration {
    wall: Duration,
    /// Submit→visible time of each step, ms: from the step's first
    /// submission to the return of the barrier issued after its drain.
    step_ms: Vec<f64>,
    applied: u64,
    dropped: u64,
    client: Client,
    finish_ms: f64,
    stages: Stages,
    report: RunReport,
    owners: BTreeMap<crowd4u_core::error::ProjectId, usize>,
}

fn iterate(
    shards: usize,
    traced: bool,
    ops: &[Op],
    projects: &[crowd4u_core::error::ProjectId],
) -> Iteration {
    let rt = spawn_runtime(shards, CLOSED_CAPACITY, traced);
    let mut client = Client::new(&rt, traced);
    let mut step_ms = Vec::new();
    let start = Instant::now();
    let mut step_start = start;
    for op in ops {
        match op {
            Op::Event(e) => client.submit(e.clone()),
            Op::Drain => {
                client.drain(&rt);
                rt.barrier();
                let now = Instant::now();
                step_ms.push(crate::stats::ms(now - step_start));
                step_start = now;
            }
        }
    }
    let owners = projects.iter().map(|&p| (p, rt.owner_of(p))).collect();
    let registry = rt.telemetry().clone();
    let t = Instant::now();
    let report = rt.finish().expect("runtime finish");
    let finish_ms = crate::stats::ms(t.elapsed());
    Iteration {
        wall: start.elapsed(),
        step_ms,
        applied: report.stats.applied,
        dropped: report.stats.dropped,
        client,
        finish_ms,
        stages: stages(&registry.snapshot()),
        report,
        owners,
    }
}

/// Spawn-only set-up time of the closed workloads.
fn spawn_times(shards: usize, traced: bool) -> Vec<f64> {
    SPAWNS.sample(|| {
        let start = Instant::now();
        let rt = spawn_runtime(shards, CLOSED_CAPACITY, traced);
        let took = start.elapsed().as_secs_f64();
        drop(rt);
        took
    })
}

/// One stream of a closed workload: its ops and the projects it
/// registers (whose owner shards the checks read).
pub struct Stream {
    pub ops: Vec<Op>,
    pub projects: Vec<crowd4u_core::error::ProjectId>,
    /// The steps that carry the workload's requests (team formation,
    /// registrations): their submit→visible times are the latency samples.
    pub request_steps: Vec<usize>,
}

impl Stream {
    fn new(
        ops: Vec<Op>,
        projects: Vec<crowd4u_core::error::ProjectId>,
        is_request: fn(&PlatformEvent) -> bool,
    ) -> Stream {
        let mut request_steps = Vec::new();
        let mut step = 0;
        for op in &ops {
            match op {
                Op::Event(e) if is_request(e) && request_steps.last() != Some(&step) => {
                    request_steps.push(step);
                }
                Op::Event(_) => {}
                Op::Drain => step += 1,
            }
        }
        Stream {
            ops,
            projects,
            request_steps,
        }
    }
}

/// Passes a closed run makes at least: each step's least time needs
/// several passes to find one outside the host's slow spells.
const MIN_PASSES: usize = 3;

/// Repeat closed iterations for about `seconds` (at least `MIN_PASSES`).
/// An iteration streams every stream once, each on a fresh runtime, and
/// `check(stream index, iteration)` checks each. Every iteration's
/// journals must equal the first's, which are returned for the serial
/// comparison; the traced figures are those of the first iteration.
/// `events_per_s` is one pass's events over the sum of each step's (and
/// each `finish`'s) least time over the iterations; the latency samples
/// are the request steps' least times.
fn closed_run(
    shards: usize,
    seconds: f64,
    traced: bool,
    streams: &[Stream],
    mut check: impl FnMut(usize, &Iteration) -> Vec<String>,
) -> (RuntimeRun, Vec<String>) {
    let setup_s = spawn_times(shards, traced);
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Per stream: applied events of one pass, and every iteration's time
    // of each step and of `finish`.
    let mut applied = vec![0; streams.len()];
    let mut step_ms: Vec<Vec<Vec<f64>>> = vec![Vec::new(); streams.len()];
    let mut finishes_ms: Vec<Vec<f64>> = vec![Vec::new(); streams.len()];
    let mut busy = Duration::ZERO;
    let mut latency_ms = Vec::new();
    let mut failures = Vec::new();
    let (mut submitted, mut refused, mut dropped) = (0, 0, 0);
    let mut journals: Vec<String> = Vec::new();
    // Of the first iteration: client timings, wall, finish, stages.
    let mut client: Option<Client> = None;
    let (mut phase_wall_ms, mut finish_ms) = (0.0, 0.0);
    let mut phase_stages = Stages::new();
    let mut peak_rss_mib = 0.0;
    // After `MIN_PASSES`, another iteration starts only if one as long as
    // the longest so far still ends within the window, so a run lasts
    // about `seconds` unless the host is slow.
    let (mut passes, mut longest) = (0, Duration::ZERO);
    while passes < MIN_PASSES || start.elapsed() + longest <= window {
        let iteration_start = Instant::now();
        for (i, stream) in streams.iter().enumerate() {
            let it = iterate(shards, traced, &stream.ops, &stream.projects);
            step_ms[i].resize(it.step_ms.len(), Vec::new());
            for (times, &t) in step_ms[i].iter_mut().zip(&it.step_ms) {
                times.push(t);
            }
            finishes_ms[i].push(it.finish_ms);
            busy += it.wall;
            latency_ms.extend(
                stream
                    .request_steps
                    .iter()
                    .filter_map(|&k| it.step_ms.get(k)),
            );
            failures.extend(check(i, &it));
            submitted += it.client.submitted;
            refused += it.client.refused;
            dropped += it.dropped;
            let journal = it.report.journal.dump();
            if passes > 0 {
                if journal != journals[i] || it.applied != applied[i] {
                    failures.push(format!(
                        "stream {i}: journal or applied count differs between iterations"
                    ));
                }
                continue;
            }
            journals.push(journal);
            applied[i] = it.applied;
            phase_wall_ms += crate::stats::ms(it.wall);
            finish_ms += it.finish_ms;
            for (k, h) in &it.stages {
                phase_stages.entry(k).or_default().add(h);
            }
            match client.as_mut() {
                None => client = Some(it.client),
                Some(c) => c.absorb(&it.client),
            }
        }
        if passes == 0 {
            // Later iterations only add allocator reuse noise.
            peak_rss_mib = crate::stats::peak_rss_mib();
        }
        passes += 1;
        longest = longest.max(iteration_start.elapsed());
    }
    let client = client.expect("one iteration ran");
    // Each step as the fastest iteration ran it.
    let fastest: Vec<Vec<f64>> = step_ms
        .iter()
        .map(|steps| steps.iter().map(|t| least(t)).collect())
        .collect();
    let finish_ms_least: f64 = finishes_ms.iter().map(|f| least(f)).sum();
    let fastest_pass_ms = fastest.iter().flatten().sum::<f64>() + finish_ms_least;
    let request_ms: Vec<f64> = streams
        .iter()
        .zip(&fastest)
        .flat_map(|(s, steps)| {
            s.request_steps
                .iter()
                .filter_map(|&k| steps.get(k).copied())
        })
        .collect();
    let mut late = client.submit.clone();
    late.absorb(&client.drain);
    let run = RuntimeRun {
        shards,
        setup_s,
        fastest_pass_ms: vec![
            request_ms.iter().sum(),
            fastest_pass_ms - request_ms.iter().sum::<f64>() - finish_ms_least,
            finish_ms_least,
        ],
        latency_mean95_ms: mean95(&request_ms),
        latency_ms,
        late_ms: vec![late.quantile_us(1.0) / 1e3],
        events_per_s: applied.iter().sum::<u64>() as f64 * 1e3 / fastest_pass_ms,
        events_per_s_wall: (applied.iter().sum::<u64>() * finishes_ms[0].len() as u64) as f64
            / busy.as_secs_f64(),
        phase_wall_ms,
        phase_includes_finish: true,
        submitted,
        refused,
        dropped,
        peak_rss_mib,
        client,
        finish_ms,
        phase_stages,
        failures,
    };
    (run, journals)
}

/// One recorded `collab_market` realization: the three scenarios'
/// traces, their shared-crowd merge, and the serial platform's point
/// total the split ledgers must reproduce.
pub struct Realization {
    pub traces: Vec<ScenarioTrace>,
    pub merged: MergedStream,
    pub platform_points: i64,
}

impl Realization {
    pub fn stream(&self) -> Stream {
        let ops = self
            .merged
            .ops
            .iter()
            .map(|(_, op)| match op {
                StreamOp::Event(e) => Op::Event(e.clone()),
                StreamOp::Drain => Op::Drain,
            })
            .collect();
        let projects = self
            .traces
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                let remap = &self.merged.remaps[i];
                t.projects.iter().map(move |&p| remap.project(p))
            })
            .collect();
        Stream::new(ops, projects, |e| {
            matches!(e, PlatformEvent::AssignmentRun { .. })
        })
    }

    /// Each scenario's split ledger must equal its report's points, and
    /// the ledgers must sum to the platform total.
    fn check(&self, it: &Iteration) -> Vec<String> {
        let mut failures = Vec::new();
        let owner = |p| &it.report.platforms[it.owners[&p]];
        let splits = splits_from(&self.traces, &self.merged, |p| {
            Ok::<_, String>(project_split(owner(p), p))
        })
        .expect("infallible lookup");
        match reports_from(&self.traces, &self.merged, |p, c| {
            platform_side(owner(p), p, c)
        }) {
            Ok(reports) => {
                for (i, (split, rep)) in splits.iter().zip(&reports).enumerate() {
                    if split.total_points() != rep.points_awarded {
                        failures.push(format!("scenario {i}: split ledger != report points"));
                    }
                }
            }
            Err(e) => failures.push(format!("report assembly failed: {e}")),
        }
        let total: i64 = splits.iter().map(|s| s.total_points()).sum();
        if total != self.platform_points {
            failures.push(format!(
                "split ledgers sum to {total}, platform total is {}",
                self.platform_points
            ));
        }
        failures
    }
}

/// `collab_market`: every realization streamed closed-loop through the
/// gate, each on a fresh runtime. Returns the run and each realization's
/// merged journal.
pub fn run_collab(parts: &[Realization], seconds: f64, traced: bool) -> (RuntimeRun, Vec<String>) {
    let streams: Vec<Stream> = parts.iter().map(Realization::stream).collect();
    closed_run(1, seconds, traced, &streams, |i, it| parts[i].check(it))
}

/// Registrations per step of the `worker_churn` stream.
pub const CHURN_STEP: usize = 1_000;

/// The `worker_churn` stream: registrations and churn in steps of
/// `CHURN_STEP`, each closed by a drain; the project with its document,
/// a drain, the collaborative assignment and the answer, and a closing
/// drain.
pub fn churn_stream(shape: &ChurnShape, seed: u64) -> Stream {
    let (before, after) = churn_project(shape);
    let mut ops = Vec::new();
    for step in churn_registrations(shape, seed).chunks(CHURN_STEP) {
        ops.extend(step.iter().cloned().map(Op::Event));
        ops.push(Op::Drain);
    }
    ops.extend(before.into_iter().map(Op::Event));
    ops.push(Op::Drain);
    ops.extend(after.into_iter().map(Op::Event));
    ops.push(Op::Drain);
    Stream::new(ops, vec![crowd4u_core::error::ProjectId(1)], |e| {
        matches!(e, PlatformEvent::WorkerRegistered { .. })
    })
}

/// `worker_churn`. Returns the run, its merged journal, and every
/// `(workers, version)` any shard reported in any iteration (all must
/// equal the serial register's, which is computed after the runtime runs
/// so that its memory stays out of `peak_rss_mib`).
pub fn run_churn(
    stream: &Stream,
    seconds: f64,
    traced: bool,
) -> (RuntimeRun, Vec<String>, BTreeSet<(usize, u64)>) {
    let mut seen = BTreeSet::new();
    let (run, journals) = closed_run(
        host_shards(),
        seconds,
        traced,
        std::slice::from_ref(stream),
        |_, it| {
            seen.extend(
                it.report
                    .platforms
                    .iter()
                    .map(|p| (p.workers.len(), p.workers.version())),
            );
            Vec::new()
        },
    );
    (run, journals, seen)
}
