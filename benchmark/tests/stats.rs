//! The order-statistic helpers every reported number goes through.

use safara_benchmark::stats::{
    geomean, median, percentile, quartiles, quiet, samples_beyond, shuffle, spread, tail_percentile,
};
use safara_core::SplitMix64;

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    assert!((spread(&v) - 1.0).abs() < 1e-12);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 50), 100.0);
    assert_eq!(percentile(&v, 95), 190.0);
    assert_eq!(percentile(&v, 100), 200.0);
    assert_eq!(percentile(&[5.0], 95), 5.0);
    assert_eq!(percentile(&[], 95), 0.0);
}

#[test]
fn quiet_is_the_first_decile_not_the_minimum() {
    // Ten samples: the first decile is the smallest one.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quiet(&ten), 1.0);
    // From eleven on, one freak fast sample no longer decides it.
    let mut eleven = ten.clone();
    eleven.push(0.1);
    assert_eq!(quiet(&eleven), 1.0);
    // A slow half does not move it.
    let disturbed: Vec<f64> = (1..=20).map(|i| if i > 10 { 100.0 } else { 5.0 }).collect();
    assert_eq!(quiet(&disturbed), 5.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(200, 95), 10);
    assert_eq!(samples_beyond(199, 95), 9);
    assert_eq!(tail_percentile(200, 95), 95);
    assert_eq!(tail_percentile(199, 95), 90);
    assert_eq!(tail_percentile(100, 95), 90);
    assert_eq!(tail_percentile(99, 95), 75);
    assert_eq!(tail_percentile(40, 95), 75);
    assert_eq!(tail_percentile(39, 95), 50);
    assert_eq!(tail_percentile(0, 95), 50);
    // The cap keeps a long run from drifting to p99.
    assert_eq!(tail_percentile(100_000, 95), 95);
    assert_eq!(tail_percentile(1000, 99), 99);
}

#[test]
fn geomean_weighs_every_value_the_same() {
    assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), 0.0);
}

#[test]
fn shuffle_is_a_permutation_decided_by_the_seed() {
    let order = |seed| {
        let mut v: Vec<usize> = (0..20).collect();
        shuffle(&mut v, &mut SplitMix64::new(seed));
        v
    };
    assert_eq!(order(1), order(1));
    assert_ne!(order(1), order(2));
    let mut sorted = order(3);
    sorted.sort_unstable();
    assert_eq!(sorted, (0..20).collect::<Vec<_>>());
}
