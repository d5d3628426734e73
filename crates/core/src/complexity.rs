//! Worst-case asymptotic computational complexities (paper §6.1, Table 8).
//!
//! Let `V` be the number of tasks, `E` the number of edges, `P` the platform
//! size, `P'` the historical average number of available processors, `R` the
//! number of existing reservations, and `R'` those before the deadline.
//!
//! All algorithms first compute BL_CPAR bottom levels, which costs
//! `O(V(V+E)P')` for the CPA allocation phase plus `O(V+E)` for the levels
//! and `O(V log V)` for the sort. The per-task slot search multiplies the
//! number of candidate processor counts (`P` or `P'`) by the reservation
//! count (each placement may scan the whole reservation schedule, and each
//! placed task adds one reservation).
//!
//! | Algorithm          | Complexity                              |
//! |--------------------|-----------------------------------------|
//! | `BD_ALL`           | `O(V²P' + V²P + VEP' + VRP)`            |
//! | `BD_CPA`           | `O(V²P' + V²P + VEP' + VEP + VRP)`      |
//! | `BD_CPAR`          | `O(V²P' + VEP' + VRP')`                 |
//! | `DL_BD_ALL`        | `O(V²P' + V²P + VEP' + VR'P)`           |
//! | `DL_BD_CPA`        | `O(V²P' + V²P + VEP' + VEP + VR'P)`     |
//! | `DL_BD_CPAR`       | `O(V²P' + VEP' + VR'P')`                |
//! | `DL_RC_CPA`        | `O(V²P' + V²P + VEP' + VEP + VR'P)`     |
//! | `DL_RC_CPAR`       | `O(V²P' + VEP' + VR'P')`                |
//! | `DL_RC_CPAR-λ`     | `O(V²P' + VEP' + VR'P')`                |
//! | `DL_RCBD_CPAR-λ`   | `O(V²P' + VEP' + VR'P')`                |
//!
//! The table is the paper's. What this implementation *measures* for the
//! forward rows' last term is smaller: the paper charges the slot search
//! `V·R·P'` — one scan of the reservation schedule per candidate width per
//! task — while [`forward`](crate::forward) sends all of a task's widths
//! down one calendar walk (`Calendar::earliest_finish`: a slot that blocks
//! width `m` blocks every wider one, so one pass carries every candidate's
//! start), i.e. `V·(R + P')`: `P'` execution-time evaluations to list the
//! candidates plus one walk over at most the reservations. The
//! `slot_queries` / `slot_steps` counters of `table8_scaling` show it —
//! one query per task, steps growing with `R` and not with `P'`.
//!
//! The same holds for the `DL_*` rows' last term. The paper charges
//! `V·R'·P` (or `P'`): one scan of the reservations before the deadline per
//! candidate width per task. [`backward`](crate::backward) places a task
//! with `Calendar::latest_start` — every width's window end carried down
//! one backward walk — after, for the resource-conservative rows, one
//! `Calendar::narrowest_start_from` walk per chunk of 1, 4, 16, … widths
//! the rule has to ask about (at most `log₄ P + 2` walks, one when a single
//! processor keeps the task on its guideline): `V·(R' + P)` per pass,
//! measured as a handful of queries per task where the per-width loop
//! issued one per width.
//!
//! The resource-conservative algorithms additionally run one CPA
//! list-scheduling mapping per task decision (`O(VP)` / `O(VP')` each,
//! `O(V²P)` / `O(V²P')` total), which does not change the dominated terms
//! but does dominate measured execution times in practice — the paper's
//! Tables 9 and 10 show a 10–90× constant-factor gap, which the
//! `table9_exec_time_n` / `table10_exec_time_d` criterion benches and the
//! `table8_scaling` bench reproduce empirically using the
//! [`ScheduleStats`](crate::schedule::ScheduleStats) counters.

/// Symbolic complexity of an algorithm as a human-readable string (used by
/// the Table 8 bench to print the paper's table alongside measured counter
/// growth).
pub fn complexity_of(algo_name: &str) -> &'static str {
    match algo_name {
        "BD_ALL" => "O(V^2 P' + V^2 P + V E P' + V R P)",
        "BD_CPA" => "O(V^2 P' + V^2 P + V E P' + V E P + V R P)",
        "BD_CPAR" => "O(V^2 P' + V E P' + V R P')",
        "DL_BD_ALL" => "O(V^2 P' + V^2 P + V E P' + V R' P)",
        "DL_BD_CPA" => "O(V^2 P' + V^2 P + V E P' + V E P + V R' P)",
        "DL_BD_CPAR" => "O(V^2 P' + V E P' + V R' P')",
        "DL_RC_CPA" => "O(V^2 P' + V^2 P + V E P' + V E P + V R' P)",
        "DL_RC_CPAR" => "O(V^2 P' + V E P' + V R' P')",
        "DL_RC_CPAR-L" => "O(V^2 P' + V E P' + V R' P')",
        "DL_RCBD_CPAR-L" => "O(V^2 P' + V E P' + V R' P')",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_algorithm_has_a_complexity() {
        for name in [
            "BD_ALL",
            "BD_CPA",
            "BD_CPAR",
            "DL_BD_ALL",
            "DL_BD_CPA",
            "DL_BD_CPAR",
            "DL_RC_CPA",
            "DL_RC_CPAR",
            "DL_RC_CPAR-L",
            "DL_RCBD_CPAR-L",
        ] {
            assert_ne!(complexity_of(name), "unknown", "{name} missing");
        }
        assert_eq!(complexity_of("bogus"), "unknown");
    }
}
