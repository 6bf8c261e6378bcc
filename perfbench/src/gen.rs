//! Input generation: every workload's event stream is a pure function of
//! its shape and the `--seed` argument.

use crowd4u_collab::Scheme;
use crowd4u_core::error::{ProjectId, TaskId, WorkerId};
use crowd4u_core::events::PlatformEvent;
use crowd4u_crowd::profile::{Region, WorkerProfile};
use crowd4u_forms::admin::DesiredFactors;

/// The E10 judge program: one open question per seeded item, one derived
/// relation consuming the answers. This and [`DRAFTING_SRC`] repeat the
/// `crowd4u-bench` constants so that the benchmark depends only on the
/// platform crates, not on the experiment harness.
pub const INGEST_SRC: &str = "rel item(i: id).\nopen judge(i: id) -> (ok: bool) points 1.\n\
     rel good(i: id).\ngood(I) :- item(I), judge(I, OK), OK = true.\n";

/// The E13 collaborative project: a rare required language keeps the
/// candidate pool at the fluent slice however large the crowd grows.
pub const DRAFTING_SRC: &str = "rel doc(d: id).\n\
     open draft(d: id) -> (t: str) points 2.\nrel drafted(d: id, t: str).\n\
     drafted(D, T) :- doc(D), draft(D, T).\n";

/// splitmix64: small, seedable, and good enough to pick projects/workers.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Shape of an answer workload: `projects` judge projects, `workers`
/// workers (every one eligible for every task), an open pool held at
/// `pool` tasks per project, and `rate` answers per second released in
/// waves every `wave_ms` milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerShape {
    pub projects: u64,
    pub workers: u64,
    pub pool: u64,
    pub rate: u64,
    pub wave_ms: u64,
}

impl AnswerShape {
    pub fn deep() -> AnswerShape {
        AnswerShape {
            projects: 8,
            workers: 8,
            pool: 400,
            rate: 100,
            wave_ms: 10,
        }
    }

    pub fn shallow() -> AnswerShape {
        AnswerShape {
            pool: 10,
            rate: 2000,
            ..AnswerShape::deep()
        }
    }

    /// Answers per wave (each paired with one new seed).
    pub fn per_wave(&self) -> u64 {
        (self.rate * self.wave_ms / 1000).max(1)
    }
}

/// Generates an answer workload wave by wave. Each wave answers the oldest
/// open item of `per_wave` projects (round-robin from a seeded offset, so
/// no project takes more than its share of a wave) and seeds one new item
/// in each, keeping every project's pool at `pool` open tasks. Items are
/// seeded in increasing order and each becomes its project's next
/// micro-task, so the answer's task id is predicted as
/// `TaskId::compose(project, item)` without reading the platform.
#[derive(Debug, Clone)]
pub struct AnswerGen {
    shape: AnswerShape,
    rng: SplitMix,
    /// Per project: highest item seeded so far.
    seeded: Vec<u64>,
    /// Per project: items answered so far (always the oldest first).
    answered: Vec<u64>,
}

impl AnswerGen {
    pub fn new(shape: AnswerShape, seed: u64) -> AnswerGen {
        assert!(
            shape.pool * shape.projects >= shape.per_wave(),
            "a wave may not answer items seeded in the same wave"
        );
        AnswerGen {
            shape,
            rng: SplitMix::new(seed),
            seeded: vec![shape.pool; shape.projects as usize],
            answered: vec![0; shape.projects as usize],
        }
    }

    /// Workers, projects and the initial pool (item-major, as E10 seeds).
    pub fn setup(&self) -> Vec<PlatformEvent> {
        let s = self.shape;
        let mut events = Vec::new();
        for i in 1..=s.workers {
            events.push(PlatformEvent::WorkerRegistered {
                profile: WorkerProfile::new(WorkerId(i), format!("w{i}")),
            });
        }
        for p in 0..s.projects {
            events.push(PlatformEvent::ProjectRegistered {
                name: format!("proj-{p}"),
                source: INGEST_SRC.into(),
                factors: DesiredFactors::default(),
                scheme: Scheme::Sequential,
                owner: 0,
            });
        }
        for item in 1..=s.pool {
            for p in 1..=s.projects {
                events.push(seed_event(p, item));
            }
        }
        events
    }

    /// The next wave: `per_wave` (answer, seed) pairs.
    pub fn wave(&mut self) -> Vec<PlatformEvent> {
        let s = self.shape;
        let offset = self.rng.below(s.projects);
        let mut events = Vec::with_capacity(2 * s.per_wave() as usize);
        for j in 0..s.per_wave() {
            let p = ((offset + j) % s.projects) as usize;
            self.answered[p] += 1;
            let item = self.answered[p];
            let project = ProjectId(p as u64 + 1);
            events.push(PlatformEvent::AnswerSubmitted {
                worker: WorkerId(1 + self.rng.below(s.workers)),
                task: TaskId::compose(project, item),
                outputs: vec![(!item.is_multiple_of(10)).into()],
            });
            self.seeded[p] += 1;
            events.push(seed_event(project.0, self.seeded[p]));
        }
        events
    }

    /// The `good` facts the answers so far must derive: items `1..=a` of a
    /// project were answered, and every item not divisible by ten was
    /// approved.
    pub fn good_closed_form(&self) -> usize {
        self.answered.iter().map(|&a| (a - a / 10) as usize).sum()
    }
}

fn seed_event(project: u64, item: u64) -> PlatformEvent {
    PlatformEvent::FactSeeded {
        project: ProjectId(project),
        pred: "item".into(),
        values: vec![item.into()],
    }
}

/// Shape of the worker-churn workload (the E13 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnShape {
    pub workers: u64,
    pub churn_percent: u64,
    /// Crowd slice fluent in the project's rare language.
    pub eligible: u64,
}

impl Default for ChurnShape {
    fn default() -> Self {
        ChurnShape {
            workers: 100_000,
            churn_percent: 10,
            eligible: 16,
        }
    }
}

/// Deterministic synthetic profile for worker `i` under `seed`: spread
/// over the unit square with a few languages and a skill; the first
/// `eligible` ids speak the rare language `"xh"`.
fn churn_profile(i: u64, eligible: u64, seed: u64) -> WorkerProfile {
    let mut h = (i ^ seed.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    let x = (h & 0xFFFF) as f64 / 65536.0;
    let y = ((h >> 16) & 0xFFFF) as f64 / 65536.0;
    let langs = ["en", "ja", "fr", "pt"];
    let mut p = WorkerProfile::new(WorkerId(i), format!("w{i}"))
        .with_region(Region::new(format!("r{}", h % 7), x, y))
        .with_native_lang(langs[(h % 4) as usize])
        .with_skill("survey", ((h >> 32) & 0xFF) as f64 / 255.0);
    if i <= eligible {
        p = p.with_fluency("xh", 1.0).with_skill("drafting", 0.9);
    }
    p
}

/// The E13 stream: registrations, then churn re-registrations (a seeded
/// stride over the crowd, each returning with a bumped skill).
pub fn churn_registrations(s: &ChurnShape, seed: u64) -> Vec<PlatformEvent> {
    let churn = s.workers * s.churn_percent / 100;
    let mut events = Vec::with_capacity((s.workers + churn) as usize);
    for i in 1..=s.workers {
        events.push(PlatformEvent::WorkerRegistered {
            profile: churn_profile(i, s.eligible, seed),
        });
    }
    let stride = (s.workers / churn.max(1)).max(1);
    let start = SplitMix::new(seed).below(s.workers);
    for k in 0..churn {
        let i = 1 + (start + k * stride) % s.workers;
        events.push(PlatformEvent::WorkerRegistered {
            profile: churn_profile(i, s.eligible, seed).with_skill("survey", 0.99),
        });
    }
    events
}

/// What follows the registrations: the drafting project with one seeded
/// document (a micro-task the next drain surfaces), one collaborative task
/// with the fluent slice interested, its assignment, and one answer to the
/// micro-task. Returned as `(before_drain, after_drain)`: a drain must sit
/// between the two so the micro-task exists when it is answered.
pub fn churn_project(s: &ChurnShape) -> (Vec<PlatformEvent>, Vec<PlatformEvent>) {
    let project = ProjectId(1);
    let before = vec![
        PlatformEvent::ProjectRegistered {
            name: "e13-drafting".into(),
            source: DRAFTING_SRC.into(),
            factors: DesiredFactors {
                required_language: Some("xh".into()),
                skill_name: Some("drafting".into()),
                min_quality: 0.6,
                min_team: 2,
                max_team: 4,
                recruitment_secs: 600,
                ..Default::default()
            },
            scheme: Scheme::Sequential,
            owner: 0,
        },
        PlatformEvent::FactSeeded {
            project,
            pred: "doc".into(),
            values: vec![1u64.into()],
        },
    ];
    // Task 1 is the micro-task the drain creates; the collab task is 2.
    let collab = TaskId::compose(project, 2);
    let mut after = vec![PlatformEvent::CollabTaskCreated {
        project,
        description: "draft 0".into(),
    }];
    for i in 1..=s.eligible {
        after.push(PlatformEvent::InterestExpressed {
            worker: WorkerId(i),
            task: collab,
        });
    }
    after.push(PlatformEvent::AssignmentRun { task: collab });
    after.push(PlatformEvent::AnswerSubmitted {
        worker: WorkerId(1),
        task: TaskId::compose(project, 1),
        outputs: vec!["first draft".into()],
    });
    (before, after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_waves() {
        let mut a = AnswerGen::new(AnswerShape::shallow(), 7);
        let mut b = AnswerGen::new(AnswerShape::shallow(), 7);
        for _ in 0..50 {
            assert_eq!(a.wave(), b.wave());
        }
        let mut c = AnswerGen::new(AnswerShape::shallow(), 8);
        let differs = (0..50).any(|_| a.wave() != c.wave());
        assert!(differs, "the seed must reach the inputs");
    }

    #[test]
    fn pool_stays_constant() {
        let shape = AnswerShape::shallow();
        let mut g = AnswerGen::new(shape, 3);
        for _ in 0..100 {
            g.wave();
        }
        for p in 0..shape.projects as usize {
            assert_eq!(g.seeded[p] - g.answered[p], shape.pool);
        }
        assert_eq!(g.answered.iter().sum::<u64>(), 100 * shape.per_wave());
    }
}
