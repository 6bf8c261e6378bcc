//! Turning runs into the benchmark's metrics, checks and layer table.

use crate::gen::{AnswerGen, AnswerShape, ChurnShape};
use crate::runs::{self, RuntimeRun};
use crate::serial::{LayerReplays, Op, SerialPass};
use crate::stats::{median, quantile, Samples};
use crowd4u_collab::Scheme;
use crowd4u_scenarios::stream::{merge_traces_with, record_scheme, CrowdMode, ScenarioTrace};
use crowd4u_scenarios::ScenarioConfig;
use crowd4u_storage::journal::EventJournal;
use crowd4u_telemetry::stage;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_mean95_ms", "ms"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("runtime.gate.submit_us_p50", "us"),
    ("runtime.gate.submit_us_p99", "us"),
    ("telemetry.mailbox_dwell_ms_sum", "ms"),
    ("telemetry.mailbox_dwell_ms_p99", "ms"),
    ("telemetry.gate_admit_ms_sum", "ms"),
    ("telemetry.shard_apply_ms_sum", "ms"),
    ("telemetry.cylog_fixpoint_ms_sum", "ms"),
    ("telemetry.journal_append_ms_sum", "ms"),
    ("runtime.router.drain_us_p50", "us"),
    ("runtime.router.finish_ms", "ms"),
    ("runtime.overhead_ms", "ms"),
    ("core.platform.apply.answer_ms", "ms"),
    ("core.platform.apply.seed_ms", "ms"),
    ("core.platform.apply.worker_ms", "ms"),
    ("core.platform.apply.other_ms", "ms"),
    ("core.platform.drain_ms", "ms"),
    ("core.platform.events", "count"),
    ("core.relations.mark_eligible_us", "us"),
    ("core.relations.mark_eligible_count", "count"),
    ("core.relations.clear_task_us", "us"),
    ("core.relations.clear_task_count", "count"),
    ("core.relations.is_eligible_us", "us"),
    ("core.relations.is_eligible_count", "count"),
    ("cylog.engine.add_fact_us", "us"),
    ("cylog.engine.answer_us", "us"),
    ("cylog.engine.run_us", "us"),
    ("cylog.engine.rounds", "count"),
    ("cylog.engine.derived_rows", "count"),
    ("storage.journal.dump_ms", "ms"),
    ("storage.journal.load_ms", "ms"),
    ("storage.journal.bytes_per_event", "B"),
    ("bench.generator.late_ms_max", "ms"),
    ("bench.backlog_growth", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.failed_frac", "ratio"),
    ("bench.latency_samples", "count"),
    ("bench.latency_p50_ms", "ms"),
    ("bench.latency_p90_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("unaccounted_ms", "ms"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AnswersDeep,
    AnswersShallow,
    CollabMarket,
    WorkerChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AnswersDeep,
        Workload::AnswersShallow,
        Workload::CollabMarket,
        Workload::WorkerChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnswersDeep => "answers_deep",
            Workload::AnswersShallow => "answers_shallow",
            Workload::CollabMarket => "collab_market",
            Workload::WorkerChurn => "worker_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's, or a tiny one for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's printed result.
pub struct Record {
    pub correct: bool,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host and run metadata as `(key, JSON value)`.
    pub meta: Vec<(&'static str, String)>,
    pub table: String,
}

impl Record {
    /// The final result line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"record\": {{{}}}}}", fields.join(", "))
    }
}

/// JSON number (non-finite values, which JSON cannot hold, become -1).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Run one workload. `trace` selects the per-layer metrics: the workload
/// then runs twice, untraced and traced, and their difference is the
/// tracing overhead.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Record {
    let mut rec = match workload {
        Workload::AnswersDeep | Workload::AnswersShallow => {
            let shape = answer_shape(workload, scale);
            answers(shape, seed, seconds, trace)
        }
        Workload::CollabMarket => collab(seed, seconds, trace, scale),
        Workload::WorkerChurn => churn(seed, seconds, trace, scale),
    };
    let nproc = crate::pin::allowed_at_start().len();
    let env = |k: &str| quote(&std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut meta = vec![
        ("workload", quote(workload.name())),
        ("seed", seed.to_string()),
        ("seconds", num(seconds)),
        ("trace", trace.to_string()),
        ("nproc", nproc.to_string()),
        ("commit", env("PERFBENCH_COMMIT")),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("profile", quote(profile)),
    ];
    meta.append(&mut rec.meta);
    rec.meta = meta;
    rec.correct = rec.failures.is_empty();
    rec
}

pub fn answer_shape(workload: Workload, scale: Scale) -> AnswerShape {
    let shape = if workload == Workload::AnswersDeep {
        AnswerShape::deep()
    } else {
        AnswerShape::shallow()
    };
    match scale {
        Scale::Full => shape,
        Scale::Tiny => AnswerShape {
            pool: shape.pool.min(20),
            ..shape
        },
    }
}

/// Latency p50, p90 and p99. The record flags p99 when fewer than ten
/// samples lie beyond it.
fn latency(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.5), quantile(&v, 0.9), quantile(&v, 0.99))
}

/// min, quartiles, p90, p95, p99.5 and max of samples, as a JSON list.
fn tail(samples: &[f64]) -> String {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    list(&[0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.995, 1.0].map(|q| quantile(&v, q)))
}

fn list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|&x| num(x)).collect();
    format!("[{}]", v.join(", "))
}

/// Mean of the last decile over the mean of the first decile of samples
/// in submission order: above 1 means the backlog grew during the run.
fn backlog_growth(samples: &[f64]) -> f64 {
    let n = (samples.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    let first = mean(&samples[..n.min(samples.len())]);
    let last = mean(&samples[samples.len().saturating_sub(n)..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

fn end_to_end(run: &RuntimeRun) -> (Vec<(&'static str, f64, &'static str)>, bool) {
    let p99_valid = run.latency_ms.len() >= 1000;
    let values = [
        median(&run.setup_s),
        run.latency_mean95_ms,
        run.events_per_s,
        run.peak_rss_mib,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();
    (metrics, p99_valid)
}

fn run_checks(run: &RuntimeRun, failures: &mut Vec<String>) {
    failures.extend(run.failures.iter().cloned());
    if run.dropped + run.refused > 0 {
        failures.push(format!(
            "{} events dropped, {} refused by the gate",
            run.dropped, run.refused
        ));
    }
}

/// Everything the per-layer metrics and the table are computed from.
struct Layers<'a> {
    untraced: &'a RuntimeRun,
    traced: &'a RuntimeRun,
    /// Serial pass over the traced run's stream (with derivation).
    pass: &'a SerialPass,
    replays: &'a LayerReplays,
    /// Serial time of the ops of the untraced run's closed phases (ms).
    untraced_phase_serial_ms: f64,
    /// Serial drain time of the ops of the traced run's closed phases (ms).
    traced_phase_drain_ms: f64,
    /// The traced run's merged journals (one per stream).
    journals: &'a [String],
}

fn layer_metrics(l: &Layers, table: &mut String) -> Vec<(&'static str, f64, &'static str)> {
    let t = l.traced;
    let hist = |s: &str| l.traced.phase_stages.get(s).cloned().unwrap_or_default();
    let kind = |k: &str| l.pass.kinds.get(k).cloned().unwrap_or_default();
    let mut other = Samples::default();
    for (k, s) in &l.pass.kinds {
        if !["answer", "seed", "worker"].contains(k) {
            other.absorb(s);
        }
    }
    let rel = |op: &str| l.replays.relations.ops.get(op).cloned().unwrap_or_default();
    let cy = &l.replays.cylog;

    let (mut load_ms, mut dump_ms, mut bytes, mut entries) = (0.0, 0.0, 0, 0);
    for text in l.journals {
        let start = Instant::now();
        let loaded = EventJournal::load(text).expect("merged journal parses");
        load_ms += crate::stats::ms(start.elapsed());
        let start = Instant::now();
        let dumped = std::hint::black_box(loaded.dump());
        dump_ms += crate::stats::ms(start.elapsed());
        assert_eq!(&dumped, text, "journal text round-trips");
        bytes += text.len();
        entries += loaded.len();
    }

    // The shards' ledger of the phase: apply (traced histogram) and drain
    // (serial pass over the same ops), per shard; `finish` is its own row.
    let shard_side_ms = hist(stage::SHARD_APPLY).sum_ms() + l.traced_phase_drain_ms;
    let finish_ms = if t.phase_includes_finish {
        t.finish_ms
    } else {
        0.0
    };
    let unaccounted = t.phase_wall_ms - finish_ms - shard_side_ms / t.shards as f64;
    let mut late = t.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let failed = (t.dropped + t.refused) as f64 / t.submitted.max(1) as f64;
    let values = [
        t.client.submit.quantile_us(0.5),
        t.client.submit.quantile_us(0.99),
        hist(stage::MAILBOX_DWELL).sum_ms(),
        hist(stage::MAILBOX_DWELL).quantile_ns(0.99) / 1e6,
        hist(stage::GATE_ADMIT).sum_ms(),
        hist(stage::SHARD_APPLY).sum_ms(),
        hist(stage::CYLOG_FIXPOINT).sum_ms(),
        hist(stage::JOURNAL_APPEND).sum_ms(),
        t.client.drain.quantile_us(0.5),
        t.finish_ms,
        l.untraced.phase_wall_ms - l.untraced_phase_serial_ms,
        kind("answer").sum_ms(),
        kind("seed").sum_ms(),
        kind("worker").sum_ms(),
        other.sum_ms(),
        l.pass.drains.sum_ms(),
        l.pass.events as f64,
        rel("mark_eligible").sum_ms() * 1e3,
        rel("mark_eligible").count() as f64,
        rel("clear_task").sum_ms() * 1e3,
        rel("clear_task").count() as f64,
        rel("is_eligible").sum_ms() * 1e3,
        rel("is_eligible").count() as f64,
        cy.add_fact.sum_ms() * 1e3,
        cy.answer.sum_ms() * 1e3,
        cy.run.sum_ms() * 1e3,
        cy.rounds as f64,
        cy.derived as f64,
        dump_ms,
        load_ms,
        bytes as f64 / entries.max(1) as f64,
        late.last().copied().unwrap_or(0.0),
        backlog_growth(&t.latency_ms),
        (l.untraced.events_per_s / t.events_per_s - 1.0) * 100.0,
        failed,
        t.latency_ms.len() as f64,
        latency(&t.latency_ms).0,
        latency(&t.latency_ms).1,
        latency(&t.latency_ms).2,
        unaccounted,
    ];

    // The human-readable table: one section per source.
    let row = |out: &mut String, name: &str, count: u64, sum_ms: f64, p50: f64, p99: f64| {
        let _ = writeln!(
            out,
            "  {name:<34} {count:>9} {sum_ms:>12.3} {p50:>11.2} {p99:>11.2}"
        );
    };
    let samples_row = |out: &mut String, name: &str, s: &Samples| {
        row(
            out,
            name,
            s.count(),
            s.sum_ms(),
            s.quantile_us(0.5),
            s.quantile_us(0.99),
        );
    };
    let header = format!(
        "  {:<34} {:>9} {:>12} {:>11} {:>11}",
        "layer", "count", "sum_ms", "p50_us", "p99_us"
    );
    let _ = writeln!(
        table,
        "runtime, closed phases of the traced run ({} shard(s), wall {:.1} ms):\n{header}",
        t.shards, t.phase_wall_ms
    );
    samples_row(table, "runtime.gate.submit (client)", &t.client.submit);
    samples_row(table, "runtime.router.drain (client)", &t.client.drain);
    for s in stage::ALL {
        let h = hist(s);
        let short = s
            .trim_start_matches("crowd4u_stage_")
            .trim_end_matches("_ns");
        row(
            table,
            &format!("telemetry.{short}"),
            h.count,
            h.sum_ms(),
            h.quantile_ns(0.5) / 1e3,
            h.quantile_ns(0.99) / 1e3,
        );
    }
    row(table, "runtime.router.finish", 1, t.finish_ms, 0.0, 0.0);
    row(
        table,
        "core.platform.drain (serial)",
        0,
        l.traced_phase_drain_ms,
        0.0,
        0.0,
    );
    row(table, "unaccounted", 0, unaccounted, 0.0, 0.0);
    let _ = writeln!(
        table,
        "  (unaccounted = wall - finish - (shard_apply + serial drain) / shards)\n\
         serial pass over the traced run's stream ({} events, {:.1} ms):\n{header}",
        l.pass.events,
        l.pass.total_ms()
    );
    for (k, s) in &l.pass.kinds {
        samples_row(table, &format!("core.platform.apply.{k}"), s);
    }
    samples_row(table, "core.platform.drain", &l.pass.drains);
    let _ = writeln!(
        table,
        "standalone replays of the induced calls (relation store faithful: {}, engine errors: {}):\n{header}",
        l.replays.relations.faithful, cy.errors
    );
    for (op, s) in &l.replays.relations.ops {
        samples_row(table, &format!("core.relations.{op}"), s);
    }
    samples_row(table, "cylog.engine.add_fact", &cy.add_fact);
    samples_row(table, "cylog.engine.answer", &cy.answer);
    samples_row(table, "cylog.engine.run", &cy.run);
    let n = l.journals.len() as u64;
    row(table, "storage.journal.dump", n, dump_ms, 0.0, 0.0);
    row(table, "storage.journal.load", n, load_ms, 0.0, 0.0);

    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

fn replay_checks(replays: &LayerReplays, failures: &mut Vec<String>) {
    if !replays.relations.faithful {
        failures.push("relation-store replay diverged from the platform's store".into());
    }
    if replays.cylog.errors > 0 {
        failures.push(format!(
            "{} engine replay calls failed",
            replays.cylog.errors
        ));
    }
}

// ---- answer workloads ----

/// Serial pass over an answer stream of `waves` waves; returns it with
/// the serial time and drain time of the waves (ms), set-up excluded.
/// `checkpoint` runs at each quarter of the waves (outside the timed
/// calls).
fn answer_pass(
    shape: AnswerShape,
    seed: u64,
    waves: usize,
    derive: bool,
    mut checkpoint: impl FnMut(),
) -> (SerialPass, f64, f64) {
    let mut pass = SerialPass::new(derive);
    let mut gen = AnswerGen::new(shape, seed);
    pass.events(gen.setup());
    pass.apply(Op::Drain);
    let (total0, drain0) = (pass.total_ms(), pass.drains.sum_ms());
    for k in 0..waves {
        if k > 0 && (4 * k) % waves < 4 {
            checkpoint();
        }
        pass.events(gen.wave());
        pass.apply(Op::Drain);
    }
    let waves_ms = pass.total_ms() - total0;
    let drain_ms = pass.drains.sum_ms() - drain0;
    pass.release();
    (pass, waves_ms, drain_ms)
}

/// The two serial passes of an answer run (open-loop stream, saturated
/// twin's stream) folded into one, the twin's wave time and drain time,
/// and the failed checks.
fn answer_passes(
    shape: AnswerShape,
    seed: u64,
    a: &runs::AnswerRun,
    derive: bool,
    checkpoint: impl FnMut(),
) -> (SerialPass, f64, f64, Vec<String>) {
    let (mut pass, _, _) = answer_pass(shape, seed, a.open_waves, derive, checkpoint);
    let (twin, phase_ms, drain_ms) = answer_pass(shape, seed, a.closed_waves, derive, || {});
    let mut failures = Vec::new();
    run_checks(&a.run, &mut failures);
    if a.good != a.expected_good {
        failures.push(format!(
            "derived {} good facts, closed form says {}",
            a.good, a.expected_good
        ));
    }
    if [&pass.journal, &twin.journal] != [&a.journals[0], &a.journals[1]] {
        failures.push("merged journal differs from the serial pass".into());
    }
    pass.absorb(twin);
    if pass.dropped > 0 {
        failures.push(format!("serial pass dropped {} events", pass.dropped));
    }
    (pass, phase_ms, drain_ms, failures)
}

/// The checks of an answer run against fresh serial passes.
pub fn answer_failures(shape: AnswerShape, seed: u64, a: &runs::AnswerRun) -> Vec<String> {
    answer_passes(shape, seed, a, false, || {}).3
}

fn answers(shape: AnswerShape, seed: u64, seconds: f64, trace: bool) -> Record {
    let mut plain = runs::run_answers(shape, seed, seconds, false);
    // More set-up samples, spread over the serial pass: the host's speed
    // drifts within seconds, and one burst of samples sees one speed.
    let mut setups = Vec::new();
    let (_, phase_serial_ms, _, mut failures) = answer_passes(shape, seed, &plain, false, || {
        setups.extend(runs::answer_setup_times(shape, seed));
    });
    plain.run.setup_s.extend(setups);
    let (mut metrics, p99_valid) = end_to_end(&plain.run);
    let mut attempted = plain.run.submitted;
    let mut failed = plain.run.dropped + plain.run.refused;
    let mut table = String::new();
    if trace {
        let traced = runs::run_answers(shape, seed, seconds, true);
        let (pass, _, drain_ms, more) = answer_passes(shape, seed, &traced, true, || {});
        failures.extend(more);
        let replays = pass.replays.as_ref().expect("derived pass");
        replay_checks(replays, &mut failures);
        metrics = layer_metrics(
            &Layers {
                untraced: &plain.run,
                traced: &traced.run,
                pass: &pass,
                replays,
                untraced_phase_serial_ms: phase_serial_ms,
                traced_phase_drain_ms: drain_ms,
                journals: &traced.journals,
            },
            &mut table,
        );
        attempted += traced.run.submitted;
        failed += traced.run.dropped + traced.run.refused;
    }
    let late = plain.run.late_ms.iter().copied().fold(0.0, f64::max);
    Record {
        correct: false,
        failures,
        attempted,
        failed,
        metrics,
        meta: vec![
            ("shards", "1".into()),
            ("rate_answers_per_s", shape.rate.to_string()),
            ("wave_ms", shape.wave_ms.to_string()),
            ("pool_per_project", shape.pool.to_string()),
            ("blocks", runs::BLOCKS.to_string()),
            ("open_waves", plain.open_waves.to_string()),
            ("closed_waves", plain.closed_waves.to_string()),
            ("latency_samples", plain.run.latency_ms.len().to_string()),
            ("p99_valid", p99_valid.to_string()),
            ("latency_tail_ms", tail(&plain.run.latency_ms)),
            ("generator_late_ms_max", num(late)),
            ("backlog_growth", num(backlog_growth(&plain.run.latency_ms))),
            ("window_rate_tail", tail(&plain.window_rates)),
            ("events_per_s_wall", num(plain.run.events_per_s_wall)),
            ("setup_tail_s", tail(&plain.run.setup_s)),
        ],
        table,
    }
}

// ---- closed workloads ----

/// Shared tail of the closed workloads: end-to-end metrics of the plain
/// run and, when traced, the layer metrics of the traced run. `pass` is
/// the serial pass over every stream (released); `serial_journals` holds
/// each stream's serial journal, `journals` the runtime's.
fn closed_record(
    plain: &RuntimeRun,
    traced: Option<&RuntimeRun>,
    pass: &SerialPass,
    serial_journals: &[String],
    journals: &[String],
    mut failures: Vec<String>,
    mut meta: Vec<(&'static str, String)>,
) -> Record {
    run_checks(plain, &mut failures);
    if pass.dropped > 0 {
        failures.push(format!("serial pass dropped {} events", pass.dropped));
    }
    if journals != serial_journals {
        failures.push("merged journal differs from the serial pass".into());
    }
    let (mut metrics, p99_valid) = end_to_end(plain);
    let mut attempted = plain.submitted;
    let mut failed = plain.dropped + plain.refused;
    let mut table = String::new();
    if let Some(t) = traced {
        run_checks(t, &mut failures);
        let replays = pass.replays.as_ref().expect("derived pass");
        replay_checks(replays, &mut failures);
        metrics = layer_metrics(
            &Layers {
                untraced: plain,
                traced: t,
                pass,
                replays,
                untraced_phase_serial_ms: pass.total_ms(),
                traced_phase_drain_ms: pass.drains.sum_ms(),
                journals,
            },
            &mut table,
        );
        attempted += t.submitted;
        failed += t.dropped + t.refused;
    }
    meta.extend([
        ("shards", plain.shards.to_string()),
        ("mailbox_capacity", runs::CLOSED_CAPACITY.to_string()),
        ("events", pass.events.to_string()),
        ("latency_samples", plain.latency_ms.len().to_string()),
        ("p99_valid", p99_valid.to_string()),
        ("latency_tail_ms", tail(&plain.latency_ms)),
        ("backlog_growth", num(backlog_growth(&plain.latency_ms))),
        ("events_per_s_wall", num(plain.events_per_s_wall)),
        ("setup_tail_s", tail(&plain.setup_s)),
        ("fastest_pass_ms", list(&plain.fastest_pass_ms)),
    ]);
    Record {
        correct: false,
        failures,
        attempted,
        failed,
        metrics,
        meta,
        table,
    }
}

/// `collab_market` realizations per run. Scenario cost varies a lot from
/// one seed to the next; a run streams several smaller realizations so
/// that the run, not one realization, is the unit the seed varies.
pub const REALIZATIONS: u64 = 8;

/// The scenario config of realization `k` of a run with `seed`.
pub fn collab_config(seed: u64, k: u64, scale: Scale) -> ScenarioConfig {
    let (crowd, items) = match scale {
        Scale::Full => (300, 10),
        Scale::Tiny => (30, 2),
    };
    let mut rng = crate::gen::SplitMix::new(seed);
    let derived = (0..=k).map(|_| rng.next_u64()).last().expect("k + 1 draws");
    ScenarioConfig::default()
        .with_crowd(crowd)
        .with_items(items)
        .with_seed(derived)
}

/// Record one realization (input generation, outside every metric) and
/// run its serial pass.
fn collab_realization(cfg: &ScenarioConfig, derive: bool) -> (runs::Realization, SerialPass) {
    let traces: Vec<ScenarioTrace> = Scheme::all()
        .into_iter()
        .map(|s| record_scheme(s, cfg).expect("scenario records"))
        .collect();
    let merged = merge_traces_with(&traces, CrowdMode::Shared).expect("shared merge");
    let mut pass = SerialPass::new(derive);
    for (_, op) in &merged.ops {
        pass.apply(match op {
            crowd4u_scenarios::stream::StreamOp::Event(e) => Op::Event(e.clone()),
            crowd4u_scenarios::stream::StreamOp::Drain => Op::Drain,
        });
    }
    let p = &pass.platform;
    let platform_points = p.workers.iter_ids().map(|w| p.points_of(w)).sum();
    pass.release();
    let part = runs::Realization {
        traces,
        merged,
        platform_points,
    };
    (part, pass)
}

fn collab(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Record {
    let mut parts = Vec::new();
    let mut serial_journals = Vec::new();
    let mut total: Option<SerialPass> = None;
    for k in 0..REALIZATIONS {
        let (part, mut pass) = collab_realization(&collab_config(seed, k, scale), trace);
        parts.push(part);
        serial_journals.push(std::mem::take(&mut pass.journal));
        match total.as_mut() {
            None => total = Some(pass),
            Some(t) => t.absorb(pass),
        }
    }
    let pass = total.expect("at least one realization");
    let plain = runs::run_collab(&parts, seconds, false);
    let traced = trace.then(|| runs::run_collab(&parts, seconds, true));
    let mut failures = Vec::new();
    if traced.as_ref().is_some_and(|t| t.1 != plain.1) {
        failures.push("traced journal differs from the untraced one".into());
    }
    let cfg = collab_config(seed, 0, scale);
    let steps = parts
        .iter()
        .flat_map(|p| &p.merged.ops)
        .filter(|(_, op)| matches!(op, crowd4u_scenarios::stream::StreamOp::Drain))
        .count();
    closed_record(
        &plain.0,
        traced.as_ref().map(|t| &t.0),
        &pass,
        &serial_journals,
        &plain.1,
        failures,
        vec![
            ("crowd", cfg.crowd.to_string()),
            ("items", cfg.items.to_string()),
            ("realizations", REALIZATIONS.to_string()),
            ("steps", steps.to_string()),
        ],
    )
}

pub fn churn_shape(scale: Scale) -> ChurnShape {
    match scale {
        Scale::Full => ChurnShape::default(),
        Scale::Tiny => ChurnShape {
            workers: 2_000,
            ..ChurnShape::default()
        },
    }
}

fn churn(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Record {
    let shape = churn_shape(scale);
    let stream = runs::churn_stream(&shape, seed);
    let steps = stream
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Drain))
        .count();
    let plain = runs::run_churn(&stream, seconds, false);
    let traced = trace.then(|| runs::run_churn(&stream, seconds, true));
    let mut pass = SerialPass::new(trace);
    for op in &stream.ops {
        pass.apply(op.clone());
    }
    let w = &pass.platform.workers;
    let expected = (w.len(), w.version());
    pass.release();
    let mut failures = Vec::new();
    for run in std::iter::once(&plain).chain(&traced) {
        for got in run.2.iter().filter(|&&got| got != expected) {
            failures.push(format!(
                "a shard has (workers, version) {got:?}, the serial register {expected:?}"
            ));
        }
    }
    if traced.as_ref().is_some_and(|t| t.1 != plain.1) {
        failures.push("traced journal differs from the untraced one".into());
    }
    closed_record(
        &plain.0,
        traced.as_ref().map(|t| &t.0),
        &pass,
        std::slice::from_ref(&pass.journal),
        &plain.1,
        failures,
        vec![
            ("workers", shape.workers.to_string()),
            ("churn_percent", shape.churn_percent.to_string()),
            ("steps", steps.to_string()),
        ],
    )
}
