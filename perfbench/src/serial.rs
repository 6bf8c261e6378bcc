//! The serial reference pass and the standalone layer replays.
//!
//! Every workload's exact stream is applied once more to a single
//! `Crowd4U` through `apply_event`/`drain_events`. That pass is the
//! correctness reference (its journal must equal the runtime's merged
//! journal) and, timed per event kind, the `core.platform` layer. In a
//! traced run the pass also records which `RelationStore` operations and
//! which CyLog engine calls each event induces, read off the platform's
//! public state around the event; replaying those sequences on a
//! standalone `RelationStore` and standalone engines times the
//! `core.relations` and `cylog.engine` layers from outside the crates.

use crate::stats::Samples;
use crowd4u_core::error::{ProjectId, TaskId, WorkerId};
use crowd4u_core::events::PlatformEvent;
use crowd4u_core::platform::Crowd4U;
use crowd4u_core::relations::RelationStore;
use crowd4u_core::task::{TaskBody, TaskState};
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_storage::value::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One step of a stream: an event, or a coordinated drain.
#[derive(Debug, Clone)]
pub enum Op {
    Event(PlatformEvent),
    Drain,
}

/// A relation-store call the platform makes while applying an event.
#[derive(Debug, Clone, Copy)]
pub enum RelOp {
    MarkEligible(WorkerId, TaskId),
    ClearTask(TaskId),
    IsEligible(WorkerId, TaskId),
    ExpressInterest(WorkerId, TaskId),
    InterestedWorkers(TaskId),
    WithdrawInterest(WorkerId, TaskId),
    Undertake(WorkerId, TaskId),
}

impl RelOp {
    pub const NAMES: [&'static str; 7] = [
        "mark_eligible",
        "clear_task",
        "is_eligible",
        "express_interest",
        "interested_workers",
        "withdraw_interest",
        "undertake",
    ];

    fn name(&self) -> &'static str {
        let i = match self {
            RelOp::MarkEligible(..) => 0,
            RelOp::ClearTask(_) => 1,
            RelOp::IsEligible(..) => 2,
            RelOp::ExpressInterest(..) => 3,
            RelOp::InterestedWorkers(_) => 4,
            RelOp::WithdrawInterest(..) => 5,
            RelOp::Undertake(..) => 6,
        };
        RelOp::NAMES[i]
    }
}

/// A CyLog engine call the platform makes while applying an event.
#[derive(Debug, Clone)]
pub enum CyOp {
    Compile(ProjectId, String),
    AddFact(ProjectId, String, Vec<Value>),
    Answer(ProjectId, String, Vec<Value>, Vec<Value>, u64),
    Run(ProjectId),
}

/// What must be read before an event applies to know its induced calls.
enum Pre {
    None,
    Worker(WorkerId),
    Project(String),
    Seed(ProjectId, String, Vec<Value>),
    Answer(
        WorkerId,
        TaskId,
        Option<(ProjectId, String, Vec<Value>)>,
        Vec<Value>,
    ),
    Interest(WorkerId, TaskId),
    Assign(TaskId, Vec<WorkerId>),
    Undertake(WorkerId, TaskId),
    Complete(TaskId),
    Clock(Vec<(TaskId, Vec<WorkerId>)>),
    Sync(ProjectId),
    Drain(Vec<ProjectId>),
}

/// Induced-call recorder (traced runs only).
#[derive(Default)]
struct Derive {
    rel: Vec<RelOp>,
    cy: Vec<CyOp>,
    /// Per project: the highest task id seen so far (tasks are numbered
    /// per project in registration order).
    next_local: BTreeMap<ProjectId, u64>,
}

impl Derive {
    fn before(&self, p: &Crowd4U, op: &Op) -> Pre {
        let e = match op {
            Op::Drain => return Pre::Drain(p.dirty_projects()),
            Op::Event(e) => e,
        };
        match e {
            PlatformEvent::WorkerRegistered { profile } => Pre::Worker(profile.id),
            PlatformEvent::ProjectRegistered { source, .. } => Pre::Project(source.clone()),
            PlatformEvent::FactSeeded {
                project,
                pred,
                values,
            } => Pre::Seed(*project, pred.clone(), values.clone()),
            PlatformEvent::TasksSynced { project } => Pre::Sync(*project),
            PlatformEvent::AnswerSubmitted {
                worker,
                task,
                outputs,
            } => {
                let body = p.pool.get(*task).ok().and_then(|t| match &t.body {
                    TaskBody::Micro {
                        predicate, inputs, ..
                    } => Some((t.project, predicate.clone(), inputs.clone())),
                    _ => None,
                });
                Pre::Answer(*worker, *task, body, outputs.clone())
            }
            PlatformEvent::InterestExpressed { worker, task } => Pre::Interest(*worker, *task),
            PlatformEvent::AssignmentRun { task } => {
                Pre::Assign(*task, p.relations.interested_workers(*task))
            }
            PlatformEvent::Undertaken { worker, task } => Pre::Undertake(*worker, *task),
            PlatformEvent::TaskCompleted { task, .. } => Pre::Complete(*task),
            PlatformEvent::ClockAdvanced { to, owner } => {
                // The sweep `advance_owned` is about to run: suggested
                // tasks of this clock domain past their deadline with
                // part of the team missing.
                let expired = p
                    .pool
                    .expired_suggested(*to)
                    .into_iter()
                    .filter_map(|id| {
                        let t = p.pool.get(id).ok()?;
                        let owner_ok = p.project(t.project).is_ok_and(|pr| pr.owner == *owner);
                        match &t.state {
                            TaskState::Suggested {
                                team, undertaken, ..
                            } if owner_ok && undertaken.len() < team.len() => {
                                let missing = team
                                    .iter()
                                    .filter(|w| !undertaken.contains(w))
                                    .copied()
                                    .collect();
                                Some((id, missing))
                            }
                            _ => None,
                        }
                    })
                    .collect();
                Pre::Clock(expired)
            }
            PlatformEvent::CollabTaskCreated { .. } | PlatformEvent::ActivityRecorded { .. } => {
                Pre::None
            }
        }
    }

    fn after(&mut self, p: &Crowd4U, pre: Pre) {
        match pre {
            Pre::None => {}
            Pre::Worker(w) => {
                for t in p.relations.eligible_tasks(w) {
                    self.rel.push(RelOp::MarkEligible(w, t));
                }
            }
            Pre::Project(source) => {
                if let Some(&id) = p.project_ids().last() {
                    self.next_local.entry(id).or_insert(0);
                    self.cy.push(CyOp::Compile(id, source));
                }
            }
            Pre::Seed(project, pred, values) => {
                self.cy.push(CyOp::AddFact(project, pred, values));
            }
            Pre::Sync(project) => self.cy.push(CyOp::Run(project)),
            Pre::Drain(dirty) => {
                for project in dirty {
                    self.cy.push(CyOp::Run(project));
                }
            }
            Pre::Answer(w, t, body, outputs) => {
                self.rel.push(RelOp::IsEligible(w, t));
                self.rel.push(RelOp::ClearTask(t));
                if let Some((project, pred, inputs)) = body {
                    self.cy
                        .push(CyOp::Answer(project, pred, inputs, outputs, w.0));
                }
            }
            Pre::Interest(w, t) => self.rel.push(RelOp::ExpressInterest(w, t)),
            Pre::Assign(t, interested) => self.assignment_reads(t, interested),
            Pre::Undertake(w, t) => self.rel.push(RelOp::Undertake(w, t)),
            Pre::Complete(t) => self.rel.push(RelOp::ClearTask(t)),
            Pre::Clock(expired) => {
                for (t, missing) in expired {
                    for w in missing {
                        self.rel.push(RelOp::WithdrawInterest(w, t));
                    }
                    match p.pool.get(t).map(|t| &t.state) {
                        Ok(TaskState::Abandoned { .. }) => self.rel.push(RelOp::ClearTask(t)),
                        _ => self.assignment_reads(t, p.relations.interested_workers(t)),
                    }
                }
            }
        }
        // Tasks the event created get their Eligible rows.
        for (&project, next) in self.next_local.iter_mut() {
            while let Ok(task) = p.pool.get(TaskId::compose(project, *next + 1)) {
                *next += 1;
                for w in p.relations.eligible_workers(task.id) {
                    self.rel.push(RelOp::MarkEligible(w, task.id));
                }
            }
        }
    }

    /// `run_assignment`: eligible ∩ interested.
    fn assignment_reads(&mut self, t: TaskId, interested: Vec<WorkerId>) {
        self.rel.push(RelOp::InterestedWorkers(t));
        for w in interested {
            self.rel.push(RelOp::IsEligible(w, t));
        }
    }
}

/// Per-kind timings of a serial pass.
pub struct SerialPass {
    pub platform: Crowd4U,
    /// `apply_event` time per event kind.
    pub kinds: BTreeMap<&'static str, Samples>,
    /// `drain_events` time.
    pub drains: Samples,
    /// Events the platform rejected.
    pub dropped: u64,
    /// Events applied or rejected.
    pub events: u64,
    /// Set by [`SerialPass::release`]: the journal text and, for a
    /// deriving pass, the standalone layer replays.
    pub journal: String,
    pub replays: Option<LayerReplays>,
    total_ns: u128,
    derive: Option<Derive>,
}

impl SerialPass {
    /// `derive`: also record the induced relation-store and engine calls.
    pub fn new(derive: bool) -> SerialPass {
        SerialPass {
            platform: Crowd4U::new(),
            kinds: BTreeMap::new(),
            drains: Samples::default(),
            dropped: 0,
            events: 0,
            journal: String::new(),
            replays: None,
            total_ns: 0,
            derive: derive.then(Derive::default),
        }
    }

    pub fn apply(&mut self, op: Op) {
        let pre = self.derive.as_ref().map(|d| d.before(&self.platform, &op));
        let start = Instant::now();
        match op {
            Op::Drain => {
                self.platform
                    .drain_events()
                    .expect("serial drain: every project syncs");
                self.drains.push(start.elapsed());
            }
            Op::Event(e) => {
                let kind = e.kind();
                let ok = self.platform.apply_event(e).is_ok();
                self.kinds.entry(kind).or_default().push(start.elapsed());
                self.events += 1;
                if !ok {
                    self.dropped += 1;
                }
            }
        }
        self.total_ns += start.elapsed().as_nanos();
        if let (Some(d), Some(pre)) = (self.derive.as_mut(), pre) {
            d.after(&self.platform, pre);
        }
    }

    /// Fold another released pass's timings and replays into this one
    /// (the journal text stays this pass's own).
    pub fn absorb(&mut self, other: SerialPass) {
        for (k, s) in other.kinds {
            self.kinds.entry(k).or_default().absorb(&s);
        }
        self.drains.absorb(&other.drains);
        self.dropped += other.dropped;
        self.events += other.events;
        self.total_ns += other.total_ns;
        match (&mut self.replays, other.replays) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }

    pub fn events(&mut self, events: impl IntoIterator<Item = PlatformEvent>) {
        for e in events {
            self.apply(Op::Event(e));
        }
    }

    /// Time spent inside `apply_event`/`drain_events` so far, in ms.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// End the pass: keep the journal text, replay the induced calls
    /// standalone (deriving passes), and free the platform.
    pub fn release(&mut self) {
        self.journal = self.platform.journal().dump();
        if let Some(d) = self.derive.take() {
            self.replays = Some(LayerReplays {
                relations: replay_relations(&d.rel, &self.platform),
                cylog: replay_cylog(&d.cy),
            });
        }
        self.platform = Crowd4U::new();
    }
}

pub struct LayerReplays {
    pub relations: RelReplay,
    pub cylog: CyReplay,
}

impl LayerReplays {
    fn absorb(&mut self, other: LayerReplays) {
        for (k, s) in other.relations.ops {
            self.relations.ops.entry(k).or_default().absorb(&s);
        }
        self.relations.faithful &= other.relations.faithful;
        let (c, o) = (&mut self.cylog, other.cylog);
        c.add_fact.absorb(&o.add_fact);
        c.answer.absorb(&o.answer);
        c.run.absorb(&o.run);
        c.rounds += o.rounds;
        c.derived += o.derived;
        c.errors += o.errors;
    }
}

pub struct RelReplay {
    pub ops: BTreeMap<&'static str, Samples>,
    /// The standalone store ended byte-identical to the platform's.
    pub faithful: bool,
}

fn replay_relations(ops: &[RelOp], reference: &Crowd4U) -> RelReplay {
    let mut store = RelationStore::new();
    let mut times: BTreeMap<&'static str, Samples> = RelOp::NAMES
        .iter()
        .map(|&n| (n, Samples::default()))
        .collect();
    for op in ops {
        let start = Instant::now();
        // Errors mirror the platform's own (e.g. interest from an
        // ineligible worker): the call is timed either way.
        let _ = match *op {
            RelOp::MarkEligible(w, t) => store.mark_eligible(w, t).map(drop),
            RelOp::ClearTask(t) => store.clear_task(t),
            RelOp::IsEligible(w, t) => {
                std::hint::black_box(store.is_eligible(w, t));
                Ok(())
            }
            RelOp::ExpressInterest(w, t) => store.express_interest(w, t).map(drop),
            RelOp::InterestedWorkers(t) => {
                std::hint::black_box(store.interested_workers(t));
                Ok(())
            }
            RelOp::WithdrawInterest(w, t) => store.withdraw_interest(w, t),
            RelOp::Undertake(w, t) => store.undertake(w, t).map(drop),
        };
        let elapsed = start.elapsed();
        times.get_mut(op.name()).expect("named op").push(elapsed);
    }
    let dump = crowd4u_storage::snapshot::dump;
    RelReplay {
        ops: times,
        faithful: dump(store.database()) == dump(reference.relations.database()),
    }
}

pub struct CyReplay {
    pub add_fact: Samples,
    pub answer: Samples,
    pub run: Samples,
    pub rounds: u64,
    pub derived: u64,
    /// Calls the standalone engines rejected (0 when the replay is
    /// faithful to the platform).
    pub errors: u64,
}

fn replay_cylog(ops: &[CyOp]) -> CyReplay {
    let mut engines: BTreeMap<ProjectId, CylogEngine> = BTreeMap::new();
    let mut r = CyReplay {
        add_fact: Samples::default(),
        answer: Samples::default(),
        run: Samples::default(),
        rounds: 0,
        derived: 0,
        errors: 0,
    };
    for op in ops {
        match op {
            CyOp::Compile(p, src) => match CylogEngine::from_source(src) {
                Ok(e) => {
                    engines.insert(*p, e);
                }
                Err(_) => r.errors += 1,
            },
            CyOp::AddFact(p, pred, values) => {
                let Some(e) = engines.get_mut(p) else {
                    r.errors += 1;
                    continue;
                };
                let start = Instant::now();
                let ok = e.add_fact(pred, values.clone()).is_ok();
                r.add_fact.push(start.elapsed());
                r.errors += u64::from(!ok);
            }
            CyOp::Answer(p, pred, inputs, outputs, w) => {
                let Some(e) = engines.get_mut(p) else {
                    r.errors += 1;
                    continue;
                };
                let (inputs, outputs) = (inputs.clone(), outputs.clone());
                let start = Instant::now();
                let ok = e.answer(pred, inputs, outputs, Some(*w)).is_ok();
                r.answer.push(start.elapsed());
                r.errors += u64::from(!ok);
            }
            CyOp::Run(p) => {
                let Some(e) = engines.get_mut(p) else {
                    r.errors += 1;
                    continue;
                };
                let start = Instant::now();
                let stats = e.run();
                r.run.push(start.elapsed());
                match stats {
                    Ok(s) => {
                        r.rounds += s.rounds;
                        r.derived += s.derived;
                    }
                    Err(_) => r.errors += 1,
                }
            }
        }
    }
    r
}
