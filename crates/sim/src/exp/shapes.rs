//! The paper's headline result *shapes* over Tables 4–7: the orderings and
//! crossovers the reproduction must preserve (the claims EXPERIMENTS.md
//! documents). `run_experiments` computes them from the table results it
//! already holds, emits them like every other table (key `shapes`), and
//! exits 1 if any check reads `FAILED`. A check whose premise the draw does
//! not meet reads `n/a`, with its numbers, which is not a failure.

use crate::exp::deadline::DeadlineResult;
use crate::exp::ressched::ResschedResult;
use crate::table::Table;
use serde::{Deserialize, Serialize};

/// Tightest-deadline degradation from which `DL_RC_CPAR` counts as having
/// been "caught in a bind" on the drawn instances. Whether it is depends on
/// the draw at the default 4 instances per scenario (1.2 % today; the
/// paper's 1,000-instance average is 73 %), and a hybrid can only repair a
/// looseness that is there.
pub const RC_LOOSE_PCT: f64 = 5.0;

/// The outcome of one shape check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The claim holds on this draw.
    Ok,
    /// The claim presupposes something the draw does not meet.
    NotApplicable,
    /// The claim is broken.
    Failed,
}

impl Verdict {
    /// The label the shapes table prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::NotApplicable => "n/a",
            Verdict::Failed => "FAILED",
        }
    }
}

/// One claim with its verdict; the claim text carries the numbers it was
/// judged on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeCheck {
    /// Whether the claim holds.
    pub verdict: Verdict,
    /// The claim and its numbers.
    pub claim: String,
}

impl ShapeCheck {
    fn new(ok: bool, claim: String) -> ShapeCheck {
        ShapeCheck::premised(true, ok, claim)
    }

    fn premised(premise: bool, ok: bool, claim: String) -> ShapeCheck {
        let verdict = match (premise, ok) {
            (false, _) => Verdict::NotApplicable,
            (true, true) => Verdict::Ok,
            (true, false) => Verdict::Failed,
        };
        ShapeCheck { verdict, claim }
    }
}

/// `(turn-around, CPU-hours)` average degradation of `name`.
fn ressched_pair(r: &ResschedResult, name: &str) -> (f64, f64) {
    r.turnaround
        .iter()
        .zip(&r.cpu_hours)
        .find(|(t, _)| t.name == name)
        .map(|(t, h)| (t.avg_degradation_pct, h.avg_degradation_pct))
        .unwrap_or_else(|| panic!("{name} missing from a RESSCHED result"))
}

/// `(tightest deadline, CPU-hours)` average degradation of `name`.
fn deadline_pair(r: &DeadlineResult, name: &str) -> (f64, f64) {
    r.tightest
        .iter()
        .zip(&r.cpu_hours)
        .find(|(k, _)| k.name == name)
        .map(|(k, h)| (k.avg_degradation_pct, h.avg_degradation_pct))
        .unwrap_or_else(|| panic!("{name} missing from deadline column {}", r.label))
}

/// Judge every shape claim on the results of Tables 4, 5, 6 and 7.
pub fn check_shapes(
    t4: &ResschedResult,
    t5: &ResschedResult,
    t6: &[DeadlineResult],
    t7: &DeadlineResult,
) -> Vec<ShapeCheck> {
    let mut out = Vec::new();

    // ---- Table 4 / 5 ---------------------------------------------------
    for (label, r) in [("Table4", t4), ("Table5", t5)] {
        let (all_t, all_c) = ressched_pair(r, "BD_ALL");
        let (half_t, _) = ressched_pair(r, "BD_HALF");
        let (cpa_t, cpa_c) = ressched_pair(r, "BD_CPA");
        let (cpar_t, cpar_c) = ressched_pair(r, "BD_CPAR");
        out.push(ShapeCheck::new(
            cpa_t < 5.0 && cpar_t < 5.0,
            format!("{label}: CPA-family within 5% of best turn-around ({cpa_t:.2}, {cpar_t:.2})"),
        ));
        out.push(ShapeCheck::new(
            all_t > 5.0 * cpar_t.max(0.5) && half_t > 2.0 * cpar_t.max(0.5),
            format!("{label}: BD_ALL/BD_HALF far worse on turn-around ({all_t:.1}, {half_t:.1})"),
        ));
        out.push(ShapeCheck::new(
            cpar_c <= cpa_c + 0.5 && all_c > 10.0 * cpar_c.max(1.0),
            format!("{label}: BD_CPAR cheapest, BD_ALL wasteful on CPU-hours ({cpar_c:.2} vs {all_c:.1})"),
        ));
    }

    // ---- Table 6 -------------------------------------------------------
    for label in ["phi=0.1", "phi=0.2", "phi=0.5", "Grid5000"] {
        let r = t6
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("Table 6 has no {label} column"));
        let (all_k, all_c) = deadline_pair(r, "DL_BD_ALL");
        let (bd_k, cpa_c) = deadline_pair(r, "DL_BD_CPA");
        let (rc_k, rc_c) = deadline_pair(r, "DL_RC_CPAR");
        out.push(ShapeCheck::new(
            all_k > 20.0 && all_c > 300.0,
            format!(
                "Table6[{label}]: DL_BD_ALL far worst on both metrics ({all_k:.0}%, {all_c:.0}%)"
            ),
        ));
        out.push(ShapeCheck::new(
            rc_c < cpa_c / 5.0 + 1.0,
            format!("Table6[{label}]: RC orders-of-magnitude cheaper at loose deadlines ({rc_c:.2}% vs {cpa_c:.0}%)"),
        ));
        if label == "phi=0.1" {
            out.push(ShapeCheck::new(
                rc_k < 5.0,
                format!(
                    "Table6[{label}]: DL_RC_CPAR (near-)best tightness at low load ({rc_k:.2}%)"
                ),
            ));
        }
        if label == "phi=0.5" {
            out.push(ShapeCheck::new(
                rc_k > bd_k,
                format!("Table6[{label}]: crossover — aggressive tighter than RC at high load ({bd_k:.1}% vs {rc_k:.1}%)"),
            ));
        }
    }

    // ---- Table 7 -------------------------------------------------------
    let (bd_k, bd_c) = deadline_pair(t7, "DL_BD_CPA");
    let (rc_k, _) = deadline_pair(t7, "DL_RC_CPAR");
    let (hy_k, hy_c) = deadline_pair(t7, "DL_RC_CPAR-L");
    let (rcbd_k, _) = deadline_pair(t7, "DL_RCBD_CPAR-L");
    out.push(ShapeCheck::premised(
        rc_k >= RC_LOOSE_PCT,
        hy_k < rc_k / 2.0,
        format!(
            "Table7: lambda-hybrid repairs RC's tightness ({rc_k:.1}% -> {hy_k:.1}%; \
             needs RC >= {RC_LOOSE_PCT}%)"
        ),
    ));
    out.push(ShapeCheck::new(
        hy_c < bd_c,
        format!("Table7: hybrid cheaper than aggressive ({hy_c:.1}% vs {bd_c:.1}%)"),
    ));
    out.push(ShapeCheck::new(
        rcbd_k <= hy_k + 2.0 && rcbd_k <= bd_k + 5.0,
        format!("Table7: RCBD hybrid at least as tight ({rcbd_k:.1}% vs hybrid {hy_k:.1}%, aggressive {bd_k:.1}%)"),
    ));
    out
}

/// Whether the run must fail: any `FAILED` verdict (`n/a` is not one).
pub fn any_failed(checks: &[ShapeCheck]) -> bool {
    checks.iter().any(|c| c.verdict == Verdict::Failed)
}

/// Render the checks, with the verdict counts in the title.
pub fn shapes_table(checks: &[ShapeCheck]) -> Table {
    let count = |v: Verdict| checks.iter().filter(|c| c.verdict == v).count();
    let mut t = Table::new(
        &format!(
            "Result shapes (EXPERIMENTS.md) - {} ok, {} n/a, {} FAILED",
            count(Verdict::Ok),
            count(Verdict::NotApplicable),
            count(Verdict::Failed)
        ),
        &["Verdict", "Claim"],
    );
    for c in checks {
        t.row(vec![c.verdict.label().to_string(), c.claim.clone()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AlgoSummary;

    fn summaries(rows: &[(&str, f64)]) -> Vec<AlgoSummary> {
        rows.iter()
            .map(|&(name, avg_degradation_pct)| AlgoSummary {
                name: name.to_string(),
                avg_degradation_pct,
                wins: 0,
            })
            .collect()
    }

    /// Turn-around and CPU-hours degradations shaped like the paper's
    /// Tables 4/5: the CPA family near-best and cheap, BD_ALL far off.
    fn ressched(all_t: f64) -> ResschedResult {
        ResschedResult {
            turnaround: summaries(&[
                ("BD_ALL", all_t),
                ("BD_HALF", 34.0),
                ("BD_CPA", 1.8),
                ("BD_CPAR", 0.3),
            ]),
            cpu_hours: summaries(&[
                ("BD_ALL", 260.0),
                ("BD_HALF", 120.0),
                ("BD_CPA", 0.4),
                ("BD_CPAR", 0.3),
            ]),
            scenarios: 1,
        }
    }

    /// One Table-6 column: `(tightest, CPU-hours)` per algorithm.
    fn column(label: &str, rows: &[(&str, f64, f64)]) -> DeadlineResult {
        DeadlineResult {
            label: label.to_string(),
            tightest: summaries(&rows.iter().map(|&(n, k, _)| (n, k)).collect::<Vec<_>>()),
            cpu_hours: summaries(&rows.iter().map(|&(n, _, c)| (n, c)).collect::<Vec<_>>()),
            scenarios: 1,
        }
    }

    fn table6() -> Vec<DeadlineResult> {
        let low = [
            ("DL_BD_ALL", 60.0, 900.0),
            ("DL_BD_CPA", 3.0, 55.0),
            ("DL_RC_CPAR", 0.0, 0.0),
        ];
        // At high load RC loses tightness to the aggressive rule.
        let high = [
            ("DL_BD_ALL", 57.0, 1100.0),
            ("DL_BD_CPA", 3.0, 120.0),
            ("DL_RC_CPAR", 88.0, 0.0),
        ];
        vec![
            column("phi=0.1", &low),
            column("phi=0.2", &low),
            column("phi=0.5", &high),
            column("Grid5000", &low),
        ]
    }

    /// Table 7 with `DL_RC_CPAR` at `rc_k` and the λ-hybrid at `hy_k`.
    fn table7(rc_k: f64, hy_k: f64) -> DeadlineResult {
        column(
            "Grid5000",
            &[
                ("DL_BD_CPA", 2.1, 29.5),
                ("DL_RC_CPAR", rc_k, 0.0),
                ("DL_RC_CPAR-L", hy_k, 0.0),
                ("DL_RCBD_CPAR-L", 0.4, 0.0),
            ],
        )
    }

    fn verdict_of(checks: &[ShapeCheck], prefix: &str) -> Verdict {
        checks
            .iter()
            .find(|c| c.claim.starts_with(prefix))
            .unwrap_or_else(|| panic!("no check starts with {prefix}"))
            .verdict
    }

    #[test]
    fn every_claim_reads_ok_on_a_shape_true_input() {
        let checks = check_shapes(
            &ressched(90.0),
            &ressched(99.0),
            &table6(),
            &table7(40.0, 1.0),
        );
        assert_eq!(checks.len(), 19);
        for c in &checks {
            assert_eq!(c.verdict, Verdict::Ok, "{}", c.claim);
        }
        assert!(!any_failed(&checks));
        assert!(shapes_table(&checks)
            .render()
            .contains("19 ok, 0 n/a, 0 FAILED"));
    }

    #[test]
    fn table7_hybrid_check_is_not_applicable_when_rc_is_tight() {
        let checks = check_shapes(
            &ressched(90.0),
            &ressched(99.0),
            &table6(),
            &table7(1.2, 1.1),
        );
        let hybrid = checks
            .iter()
            .find(|c| c.claim.starts_with("Table7: lambda-hybrid"))
            .expect("the hybrid check");
        assert_eq!(hybrid.verdict, Verdict::NotApplicable);
        assert!(hybrid.claim.contains("1.2% -> 1.1%"), "{}", hybrid.claim);
        assert!(!any_failed(&checks));
    }

    #[test]
    fn table7_hybrid_check_fails_when_it_does_not_halve_a_loose_rc() {
        // Exactly at the premise's threshold counts as loose.
        for rc_k in [RC_LOOSE_PCT, 40.0] {
            let checks = check_shapes(
                &ressched(90.0),
                &ressched(99.0),
                &table6(),
                &table7(rc_k, rc_k * 0.6),
            );
            assert_eq!(
                verdict_of(&checks, "Table7: lambda-hybrid"),
                Verdict::Failed,
                "RC at {rc_k}%"
            );
        }
    }

    #[test]
    fn bd_all_within_five_times_bd_cpar_fails() {
        // BD_CPAR at 0.3 % (floored at 0.5 by the check): 5× is 2.5 %.
        let checks = check_shapes(
            &ressched(2.4),
            &ressched(99.0),
            &table6(),
            &table7(40.0, 1.0),
        );
        assert_eq!(
            verdict_of(&checks, "Table4: BD_ALL/BD_HALF far worse"),
            Verdict::Failed
        );
        assert_eq!(
            verdict_of(&checks, "Table5: BD_ALL/BD_HALF far worse"),
            Verdict::Ok
        );
        assert!(shapes_table(&checks).render().contains("1 FAILED"));
    }

    #[test]
    fn only_a_failed_verdict_fails_the_run() {
        let check = |verdict| ShapeCheck {
            verdict,
            claim: String::new(),
        };
        assert!(!any_failed(&[]));
        assert!(!any_failed(&[
            check(Verdict::Ok),
            check(Verdict::NotApplicable)
        ]));
        assert!(any_failed(&[check(Verdict::Ok), check(Verdict::Failed)]));
        assert!(any_failed(&[
            check(Verdict::NotApplicable),
            check(Verdict::Failed)
        ]));
    }
}
