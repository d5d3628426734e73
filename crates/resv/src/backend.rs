//! Reporting stub, not a selection mechanism. The calendar has one query
//! engine — the slot walk of `slotset.rs` over `Calendar`'s breakpoints —
//! so there is nothing to select. The benchmark adapter
//! (`benchmark/src/layers.rs`, frozen while this was written) prints
//! `selected().name()` in its run header and is this module's only caller;
//! a later `benchmark` PR should drop the call and this file with it.

/// The one engine answering calendar queries.
#[derive(Debug, Clone, Copy)]
pub struct Engine;

impl Engine {
    /// Stable lower-case name: the walk is the slot-set algorithm.
    pub fn name(self) -> &'static str {
        "slotset"
    }
}

/// The engine answering calendar queries: a constant.
pub fn selected() -> Engine {
    Engine
}
