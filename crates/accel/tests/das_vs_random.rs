//! DAS (Eq. 9) against uniform random search at an equal evaluation
//! budget: the cost of DAS's argmax-φ design, median over seeds, must beat
//! the median of random search's best sample.
//!
//! The budget matters. DAS's answer is the argmax of φ, and that design
//! only beats the best random sample once φ has sharpened. On this network
//! the mean knob entropy is 1.10–1.20 nats after 400 evaluations and
//! 0.80–0.93 after 1,500; random search wins on 7 of 8 seeds at 400, DAS
//! on 7 of 8 at 1,500.

use a3cs_accel::{DasConfig, DasEngine, FpgaTarget, PerfModel, RandomSearch};
use a3cs_nn::resnet;

/// Predictor evaluations each search gets per seed.
const BUDGET: usize = 1_500;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

fn median(mut costs: Vec<f64>) -> f64 {
    costs.sort_by(f64::total_cmp);
    let mid = costs.len() / 2;
    (costs[mid - 1] + costs[mid]) / 2.0
}

#[test]
fn das_argmax_design_beats_random_search_at_equal_budget() {
    let layers = resnet(14, 4, 12, 12, 8, 32, 0).layer_descs();
    let target = FpgaTarget::zc706();
    let config = DasConfig::default();
    assert_eq!(config.num_chunks, 4);

    let mut das_costs = Vec::new();
    let mut random_costs = Vec::new();
    for seed in SEEDS {
        let mut das = DasEngine::new(config.clone(), seed);
        let best = das.run(&layers, &target, BUDGET);
        let report = PerfModel::evaluate(&best, &layers, &target);
        das_costs.push(PerfModel::cost(&report, &target, &config.cost));

        let mut random =
            RandomSearch::new(config.space.clone(), config.num_chunks, config.cost, seed);
        random_costs.push(random.run(&layers, &target, BUDGET).1);
    }

    let (das, random) = (median(das_costs.clone()), median(random_costs.clone()));
    assert!(
        das < random,
        "median cost after {BUDGET} evaluations: DAS {das:.0} vs random {random:.0}\n\
         DAS per seed {das_costs:.0?}\nrandom per seed {random_costs:.0?}"
    );
}
