//! Metric aggregation: average degradation-from-best and win counts, the
//! paper's two summary statistics (§4.3.2).

use serde::{Deserialize, Serialize};

/// Per-algorithm aggregate over all scenarios of an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoSummary {
    /// Algorithm name (paper spelling).
    pub name: String,
    /// Average percent degradation from the per-instance best.
    pub avg_degradation_pct: f64,
    /// Number of scenarios in which this algorithm was (tied-)best.
    pub wins: usize,
}

/// Accumulates one metric (e.g. turn-around time) across scenarios for a
/// fixed set of algorithms.
#[derive(Debug, Clone)]
pub struct DegradationTracker {
    names: Vec<String>,
    /// Sum of per-scenario average degradations.
    deg_sum: Vec<f64>,
    /// Win counts.
    wins: Vec<usize>,
    /// Number of scenarios absorbed.
    scenarios: usize,
}

impl DegradationTracker {
    /// A tracker for the given algorithm names.
    pub fn new(names: &[&str]) -> DegradationTracker {
        DegradationTracker {
            names: names.iter().map(|s| s.to_string()).collect(),
            deg_sum: vec![0.0; names.len()],
            wins: vec![0; names.len()],
            scenarios: 0,
        }
    }

    /// Absorb one scenario: `per_instance[i][a]` is the metric value of
    /// algorithm `a` on instance `i` (lower is better).
    ///
    /// Per instance, each algorithm's relative degradation from the
    /// instance's best value is computed; degradations are averaged over
    /// instances. The scenario's win goes to the algorithm(s) with the best
    /// scenario-average metric (ties share the win, like the paper's
    /// slightly-more-than-1440 total).
    pub fn absorb_scenario(&mut self, per_instance: &[Vec<f64>]) {
        let n_algos = self.names.len();
        assert!(per_instance.iter().all(|row| row.len() == n_algos));
        if per_instance.is_empty() {
            return;
        }
        let mut deg_acc = vec![0.0f64; n_algos];
        let mut mean = vec![0.0f64; n_algos];
        for row in per_instance {
            let best = row.iter().copied().fold(f64::INFINITY, f64::min);
            for (a, &v) in row.iter().enumerate() {
                let d = if best > 0.0 { (v - best) / best } else { 0.0 };
                deg_acc[a] += d;
                mean[a] += v;
            }
        }
        let n_inst = per_instance.len() as f64;
        for (sum, acc) in self.deg_sum.iter_mut().zip(&deg_acc) {
            *sum += acc / n_inst * 100.0;
        }
        for m in &mut mean {
            *m /= n_inst;
        }
        let best_mean = mean.iter().copied().fold(f64::INFINITY, f64::min);
        for (wins, m) in self.wins.iter_mut().zip(&mean) {
            if *m <= best_mean * (1.0 + 1e-12) {
                *wins += 1;
            }
        }
        self.scenarios += 1;
    }

    /// Number of scenarios absorbed so far.
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }

    /// Final per-algorithm summaries.
    pub fn summaries(&self) -> Vec<AlgoSummary> {
        let n = self.scenarios.max(1) as f64;
        self.names
            .iter()
            .enumerate()
            .map(|(a, name)| AlgoSummary {
                name: name.clone(),
                avg_degradation_pct: self.deg_sum[a] / n,
                wins: self.wins[a],
            })
            .collect()
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

// The assertions compare against exact constants (0.0), not computed values.
#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn tracker_computes_degradation_and_wins() {
        let mut t = DegradationTracker::new(&["A", "B"]);
        // Scenario 1: A best on both instances; B 10% and 30% worse.
        t.absorb_scenario(&[vec![100.0, 110.0], vec![100.0, 130.0]]);
        // Scenario 2: B best, A 50% worse.
        t.absorb_scenario(&[vec![150.0, 100.0]]);
        let s = t.summaries();
        assert_eq!(t.scenarios(), 2);
        // A: scenario1 deg 0, scenario2 deg 50 -> avg 25.
        assert!((s[0].avg_degradation_pct - 25.0).abs() < 1e-9);
        // B: scenario1 deg (10+30)/2=20, scenario2 0 -> avg 10.
        assert!((s[1].avg_degradation_pct - 10.0).abs() < 1e-9);
        assert_eq!(s[0].wins, 1);
        assert_eq!(s[1].wins, 1);
    }

    #[test]
    fn ties_share_wins() {
        let mut t = DegradationTracker::new(&["A", "B"]);
        t.absorb_scenario(&[vec![100.0, 100.0]]);
        let s = t.summaries();
        assert_eq!(s[0].wins, 1);
        assert_eq!(s[1].wins, 1);
        assert_eq!(s[0].avg_degradation_pct, 0.0);
    }

    #[test]
    fn empty_scenario_is_ignored() {
        let mut t = DegradationTracker::new(&["A"]);
        t.absorb_scenario(&[]);
        assert_eq!(t.scenarios(), 0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
