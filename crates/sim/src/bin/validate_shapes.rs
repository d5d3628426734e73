//! Executable regression of the paper's headline result *shapes* (the
//! claims EXPERIMENTS.md documents). Runs a reduced grid and asserts the
//! orderings and crossovers the reproduction must preserve; exits non-zero
//! on violation. A check whose premise the draw does not meet prints `n/a`
//! with its numbers instead of `ok`. Runs in CI (`check` job):
//!
//! ```sh
//! cargo run --release -p resched-sim --bin validate_shapes
//! ```

use resched_sim::exp::deadline::{run_table6, run_table7};
use resched_sim::exp::ressched::{run_table4, run_table5};
use resched_sim::scenario::{sweeps_with_stride, Scale, DEFAULT_ROOT_SEED};

#[derive(Default)]
struct Checker {
    passed: usize,
    not_applicable: usize,
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, ok: bool, claim: &str) {
        if ok {
            println!("ok      {claim}");
            self.passed += 1;
        } else {
            println!("FAILED  {claim}");
            self.failures.push(claim.to_string());
        }
    }

    /// A check whose claim presupposes something about the draw: when the
    /// premise does not hold there is nothing to check, which is reported
    /// as such — with the claim's numbers — and is neither `ok` nor a
    /// failure.
    fn check_if(&mut self, premise: bool, ok: bool, claim: &str) {
        if premise {
            self.check(ok, claim);
        } else {
            println!("n/a     {claim}");
            self.not_applicable += 1;
        }
    }
}

/// Tightest-deadline degradation from which `DL_RC_CPAR` counts as having
/// been "caught in a bind" on the drawn instances. Whether it is depends on
/// the draw at the default 4 instances per scenario (1.2 % today; the
/// paper's 1,000-instance average is 73 %), and a hybrid can only repair a
/// looseness that is there.
const RC_LOOSE_PCT: f64 = 5.0;

fn main() {
    // Every knob is read before any experiment runs, so a typo stops the
    // binary at once instead of minutes in.
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    let sweeps = sweeps_with_stride(5).unwrap_or_else(|e| e.exit());
    let seed = DEFAULT_ROOT_SEED;
    let mut c = Checker::default();

    // ---- Table 4 / 5 shapes ------------------------------------------
    for (label, r) in [
        ("Table4", run_table4(scale, seed)),
        ("Table5", run_table5(scale, seed)),
    ] {
        let get = |name: &str| {
            r.turnaround
                .iter()
                .zip(&r.cpu_hours)
                .find(|(t, _)| t.name == name)
                .map(|(t, h)| (t.avg_degradation_pct, h.avg_degradation_pct))
                .expect("algorithm present")
        };
        let (all_t, all_c) = get("BD_ALL");
        let (half_t, _half_c) = get("BD_HALF");
        let (cpa_t, cpa_c) = get("BD_CPA");
        let (cpar_t, cpar_c) = get("BD_CPAR");
        c.check(
            cpa_t < 5.0 && cpar_t < 5.0,
            &format!("{label}: CPA-family within 5% of best turn-around ({cpa_t:.2}, {cpar_t:.2})"),
        );
        c.check(
            all_t > 5.0 * cpar_t.max(0.5) && half_t > 2.0 * cpar_t.max(0.5),
            &format!("{label}: BD_ALL/BD_HALF far worse on turn-around ({all_t:.1}, {half_t:.1})"),
        );
        c.check(
            cpar_c <= cpa_c + 0.5 && all_c > 10.0 * cpar_c.max(1.0),
            &format!("{label}: BD_CPAR cheapest, BD_ALL wasteful on CPU-hours ({cpar_c:.2} vs {all_c:.1})"),
        );
    }

    // ---- Table 6 shapes ----------------------------------------------
    let t6 = run_table6(&sweeps, scale, seed);
    let col = |label: &str| t6.iter().find(|r| r.label == label).expect("column");
    let algo = |r: &resched_sim::exp::deadline::DeadlineResult, name: &str| {
        let i = r.tightest.iter().position(|a| a.name == name).unwrap();
        (
            r.tightest[i].avg_degradation_pct,
            r.cpu_hours[i].avg_degradation_pct,
        )
    };
    for label in ["phi=0.1", "phi=0.2", "phi=0.5", "Grid5000"] {
        let r = col(label);
        let (all_k, all_c) = algo(r, "DL_BD_ALL");
        let (_cpa_k, cpa_c) = algo(r, "DL_BD_CPA");
        let (rc_k, rc_c) = algo(r, "DL_RC_CPAR");
        c.check(
            all_k > 20.0 && all_c > 300.0,
            &format!(
                "Table6[{label}]: DL_BD_ALL far worst on both metrics ({all_k:.0}%, {all_c:.0}%)"
            ),
        );
        c.check(
            rc_c < cpa_c / 5.0 + 1.0,
            &format!("Table6[{label}]: RC orders-of-magnitude cheaper at loose deadlines ({rc_c:.2}% vs {cpa_c:.0}%)"),
        );
        if label == "phi=0.1" {
            c.check(
                rc_k < 5.0,
                &format!(
                    "Table6[{label}]: DL_RC_CPAR (near-)best tightness at low load ({rc_k:.2}%)"
                ),
            );
        }
        if label == "phi=0.5" {
            let (bd_k, _) = algo(r, "DL_BD_CPA");
            c.check(
                rc_k > bd_k,
                &format!("Table6[{label}]: crossover — aggressive tighter than RC at high load ({bd_k:.1}% vs {rc_k:.1}%)"),
            );
        }
    }

    // ---- Table 7 shapes ----------------------------------------------
    let t7 = run_table7(&sweeps, scale, seed);
    let (bd_k, bd_c) = algo(&t7, "DL_BD_CPA");
    let (rc_k, _) = algo(&t7, "DL_RC_CPAR");
    let (hy_k, hy_c) = algo(&t7, "DL_RC_CPAR-L");
    let (rcbd_k, _) = algo(&t7, "DL_RCBD_CPAR-L");
    c.check_if(
        rc_k >= RC_LOOSE_PCT,
        hy_k < rc_k / 2.0,
        &format!(
            "Table7: lambda-hybrid repairs RC's tightness ({rc_k:.1}% -> {hy_k:.1}%; \
             needs RC >= {RC_LOOSE_PCT}%)"
        ),
    );
    c.check(
        hy_c < bd_c,
        &format!("Table7: hybrid cheaper than aggressive ({hy_c:.1}% vs {bd_c:.1}%)"),
    );
    c.check(
        rcbd_k <= hy_k + 2.0 && rcbd_k <= bd_k + 5.0,
        &format!("Table7: RCBD hybrid at least as tight ({rcbd_k:.1}% vs hybrid {hy_k:.1}%, aggressive {bd_k:.1}%)"),
    );

    println!();
    if c.failures.is_empty() {
        println!(
            "{} shape checks passed, {} not applicable to this draw",
            c.passed, c.not_applicable
        );
    } else {
        println!("{} shape check(s) FAILED:", c.failures.len());
        for f in &c.failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
