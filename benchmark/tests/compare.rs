//! The marks `compare` gives, and the results record it reads.

use safara_benchmark::compare::{judge, load, Mark, Series};
use safara_benchmark::spec::Better;

fn series(values: &[f64], better: Better, bound: Option<f64>) -> Series {
    Series {
        values: values.to_vec(),
        unit: "ms".into(),
        better,
        bound,
    }
}

#[test]
fn marks_follow_the_bound_and_the_spread() {
    let lower = |v: &[f64]| series(v, Better::Lower, Some(0.10));
    let a = lower(&[100.0, 101.0, 99.0, 100.5]);
    assert_eq!(
        judge("pass_ms", &a, &lower(&[100.2, 100.9, 99.5, 100.1])),
        Mark::Within
    );
    assert_eq!(
        judge("pass_ms", &a, &lower(&[120.0, 121.0, 119.0, 120.5])),
        Mark::Worse
    );
    assert_eq!(
        judge("pass_ms", &a, &lower(&[80.0, 81.0, 79.0, 80.5])),
        Mark::Better
    );
    // 5% worse is inside a 10% bound.
    assert_eq!(
        judge("pass_ms", &a, &lower(&[105.0, 106.0, 104.0, 105.5])),
        Mark::Within
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
    let lower = |v: &[f64]| series(v, Better::Lower, Some(0.10));
    let noisy = lower(&[100.0, 140.0, 80.0, 120.0]);
    assert_eq!(
        judge("pass_ms", &noisy, &lower(&[105.0, 135.0, 85.0, 125.0])),
        Mark::Unresolved
    );
    assert_eq!(
        judge("pass_ms", &noisy, &lower(&[50.0, 70.0, 40.0, 60.0])),
        Mark::Better
    );
}

#[test]
fn setup_s_is_judged_by_its_medians_alone() {
    let lower = |v: &[f64]| series(v, Better::Lower, Some(0.25));
    let (a, b) = (lower(&[2.0, 2.8]), lower(&[2.3, 2.4]));
    assert_eq!(judge("pass_ms", &a, &b), Mark::Unresolved);
    assert_eq!(judge("setup_s", &a, &b), Mark::Within);
    assert_eq!(judge("setup_s", &a, &lower(&[3.4, 3.5])), Mark::Worse);
}

#[test]
fn higher_is_better_flips_the_direction() {
    let higher = |v: &[f64]| series(v, Better::Higher, Some(0.10));
    let a = higher(&[100.0, 101.0, 99.0, 100.5]);
    assert_eq!(
        judge("pass_ms", &a, &higher(&[80.0, 81.0, 79.0, 80.5])),
        Mark::Worse
    );
    assert_eq!(
        judge("pass_ms", &a, &higher(&[120.0, 121.0, 119.0, 120.5])),
        Mark::Better
    );
}

#[test]
fn a_per_layer_metric_has_no_bound_and_only_shows_direction() {
    let layer = |v: &[f64]| series(v, Better::Lower, None);
    let a = layer(&[10.0, 10.0]);
    assert_eq!(judge("pass_ms", &a, &layer(&[10.0, 10.0])), Mark::Within);
    assert_eq!(judge("pass_ms", &a, &layer(&[12.0, 12.0])), Mark::Worse);
    assert_eq!(judge("pass_ms", &a, &layer(&[8.0, 8.0])), Mark::Better);
}

#[test]
fn load_groups_runs_by_workload_and_metric() {
    let line = |w: &str, v: f64| {
        format!(
            "{{\"schema\":1,\"workload\":\"{w}\",\"metrics\":{{\"pass_ms\":\
             {{\"value\":{v:?},\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.1}}}}}}\n"
        )
    };
    let text = line("suite_cold", 1.5) + &line("suite_cold", 2.5) + "\n" + &line("suite_warm", 9.0);
    let runs = load(&text).unwrap();
    let cold = &runs[&("suite_cold".to_string(), "pass_ms".to_string())];
    assert_eq!(cold.values, [1.5, 2.5]);
    assert_eq!(
        (cold.unit.as_str(), cold.better, cold.bound),
        ("ms", Better::Lower, Some(0.1))
    );
    assert_eq!(
        runs[&("suite_warm".to_string(), "pass_ms".to_string())].values,
        [9.0]
    );
    assert!(load("{\"metrics\":{}}").is_err());
}
