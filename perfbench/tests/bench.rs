//! The benchmark's own tests: tiny runs of every workload, a negative
//! control for the journal check, and the metric names against
//! `BENCHMARK.json`.

use crowd4u_perfbench::report::{self, Scale, Workload, END_TO_END, PER_LAYER};
use crowd4u_perfbench::runs;

const TINY_SECONDS: f64 = 0.4;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    assert_eq!(benchmark_metrics("end_to_end"), declared(&END_TO_END));
    assert_eq!(benchmark_metrics("per_layer"), declared(&PER_LAYER));
}

/// Every workload at tiny size, untraced and traced: correct, nothing
/// dropped or refused (for the answer workloads this is the task-id
/// predictor's check), and exactly the declared metrics printed.
#[test]
fn tiny_runs_are_correct_and_print_the_declared_metrics() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let rec = report::run(workload, 11, TINY_SECONDS, trace, Scale::Tiny);
            let name = workload.name();
            assert!(rec.correct, "{name} trace={trace}: {:?}", rec.failures);
            assert!(rec.attempted > 0, "{name}: nothing submitted");
            assert_eq!(rec.failed, 0, "{name}: dropped or refused events");
            let printed: Vec<(String, String)> = rec
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            let expected = if trace {
                benchmark_metrics("per_layer")
            } else {
                benchmark_metrics("end_to_end")
            };
            assert_eq!(printed, expected, "{name} trace={trace}");
            let json = rec.result_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!json.contains('\n'));
        }
    }
}

/// Negative control: a journal that differs from the serial pass by one
/// entry must fail the check, as must a wrong derived count.
#[test]
fn corrupted_journal_fails_the_check() {
    let shape = report::answer_shape(Workload::AnswersShallow, Scale::Tiny);
    let mut run = runs::run_answers(shape, 5, TINY_SECONDS, false);
    assert!(report::answer_failures(shape, 5, &run).is_empty());

    let first_answer = run.journals[0].find("answer").expect("an answer entry");
    run.journals[0].replace_range(first_answer..first_answer + 6, "answeR");
    let failures = report::answer_failures(shape, 5, &run);
    assert!(
        failures.iter().any(|f| f.contains("journal")),
        "{failures:?}"
    );

    let mut run = runs::run_answers(shape, 5, TINY_SECONDS, false);
    run.good += 1;
    assert!(!report::answer_failures(shape, 5, &run).is_empty());
}
