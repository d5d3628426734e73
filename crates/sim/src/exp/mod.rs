//! The experiment suite: one module per paper table (or text result).

pub mod deadline;
pub mod exec_time;
pub mod logs;
pub mod profile;
pub mod ressched;
pub mod scaling;
pub mod shapes;
pub mod stream;
pub mod trends;
pub mod validation;
