//! # resched-workloads — batch-workload substrate
//!
//! Everything the paper's experiments need around *workloads*:
//!
//! * [`swf`] / [`swf_write`] — Standard Workload Format parser and writer;
//! * [`synth`] — synthetic log generators calibrated to the paper's four
//!   archive logs (Table 2) and its Grid'5000 reservation log (Table 3);
//! * [`extract`] — reservation-schedule extraction: φ-tagging plus the
//!   `linear` / `expo` / `real` future-density decay methods (§3.2.1), and
//!   the historical-average availability `q`;
//! * [`stats`] — the Table 2 / Table 3 summary statistics.
//!
//! ```
//! use resched_workloads::prelude::*;
//!
//! let spec = LogSpec::sdsc_ds().with_duration(Dur::days(15));
//! let log = generate_log(&spec, 42);
//! let t = sample_start_times(&log, 1, 7)[0];
//! let rs = extract(&log, t, &ExtractSpec::new(0.2, ThinMethod::Expo), 3);
//! let calendar = rs.calendar(); // feed to resched-core schedulers
//! assert!(calendar.capacity() == 224);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod extract;
pub mod job;
pub mod queue;
pub mod stats;
pub mod swf;
pub mod swf_write;
pub mod synth;

/// One-stop imports.
pub mod prelude {
    pub use crate::extract::{
        extract, sample_start_times, ExtractSpec, ReservationSchedule, ThinMethod,
    };
    pub use crate::job::{Job, JobLog};
    pub use crate::stats::{log_stats, LogStats};
    pub use crate::swf::parse_swf;
    pub use crate::swf_write::write_swf;
    pub use crate::synth::{generate_log, LogSpec};
    pub use resched_resv::{Dur, Time};
}
