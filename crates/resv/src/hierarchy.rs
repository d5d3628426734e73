//! Hierarchical resource model: cluster → switch → node → core.
//!
//! The paper treats the platform as `p` anonymous processors; production
//! reservation systems (OAR among them) instead carve reservations out of
//! a *tree* of resources so a request claims switch/node-shaped holes. This
//! module is the tree plus the quantization rule that maps it back onto the
//! flat calendar the rest of the crate operates on:
//!
//! * a [`Hierarchy`] is `cluster → switches → nodes → cores`, serializable
//!   and order-preserving;
//! * a [`PlacementLevel`] names the granularity a request is placed at:
//!   individual cores, whole nodes, or whole switches;
//! * [`Hierarchy::quantize`] rounds a core count *up* to whole placement
//!   units, which is the entire coupling to the calendar: a node-level
//!   request for 3 cores on 2-core nodes becomes a 4-core reservation.
//!
//! ## Flat-degenerate equivalence contract
//!
//! [`Hierarchy::flat`] builds the degenerate tree — one switch holding
//! `capacity` single-core nodes. Its grain is 1 at every placement level,
//! so quantization is the identity and every hierarchical query answers
//! **byte-for-byte** what the flat query answers (same start, same
//! processor count, same `QueryCost`). The differential harness pins this
//! for the calendar and for its linear reference.
//!
//! ## Fragmentation-free packing assumption
//!
//! The calendar tracks only the *total* number of free cores over time, so
//! quantization models whole-unit placement under the assumption that `k`
//! free cores can always be arranged as `k / grain` whole units. That is
//! exact when every reservation in the calendar is itself quantized (the
//! hierarchical twins' regime, audited by `audit_calendar_with`) and
//! optimistic otherwise — the same abstraction level the paper's flat
//! model already commits to.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A hierarchical fit answer ([`crate::Calendar::earliest_fit_hier`]):
/// where the quantized request starts and how many cores it actually
/// claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierFit {
    /// Earliest admissible start.
    pub start: Time,
    /// Cores reserved after rounding up to whole placement units.
    pub procs: u32,
}

/// A compute node: the smallest unit that can be claimed whole.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Stable node name (unique within the hierarchy by convention).
    pub name: String,
    /// Schedulable cores on this node.
    pub cores: u32,
}

/// A switch grouping nodes (one network hop apart).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Switch {
    /// Stable switch name.
    pub name: String,
    /// Nodes attached to this switch, in port order.
    pub nodes: Vec<Node>,
}

/// The full resource tree: cluster → switch → node → core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hierarchy {
    /// Cluster name.
    pub cluster: String,
    /// Switches, in rack order.
    pub switches: Vec<Switch>,
}

/// The granularity a request is placed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PlacementLevel {
    /// Individual cores — the paper's flat model.
    #[default]
    Core,
    /// Whole nodes: allocations are multiples of the per-node core count.
    Node,
    /// Whole switches: allocations are multiples of the per-switch core
    /// count.
    Switch,
}

impl PlacementLevel {
    /// Stable lower-case name (diagnostics and knob values).
    pub fn name(self) -> &'static str {
        match self {
            PlacementLevel::Core => "core",
            PlacementLevel::Node => "node",
            PlacementLevel::Switch => "switch",
        }
    }
}

impl fmt::Display for PlacementLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from hierarchy construction and quantization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// The tree has no cores at all.
    Empty,
    /// A node declares zero cores.
    ZeroCoreNode {
        /// Name of the offending node.
        node: String,
    },
    /// Placement at this level needs equal-size units, but the tree's
    /// units differ in size.
    NonUniform {
        /// The level whose units are unequal.
        level: PlacementLevel,
    },
    /// Zero processors requested.
    ZeroRequest,
    /// The quantized request does not fit the hierarchy.
    ExceedsCapacity {
        /// Cores requested before quantization.
        requested: u32,
        /// Cores after rounding up to whole placement units.
        quantized: u32,
        /// Total cores in the hierarchy.
        capacity: u32,
    },
    /// The hierarchy's core count disagrees with the calendar it is being
    /// used against.
    CapacityMismatch {
        /// Total cores in the hierarchy.
        hierarchy: u32,
        /// The calendar's capacity.
        calendar: u32,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::Empty => write!(f, "hierarchy has no cores"),
            HierarchyError::ZeroCoreNode { node } => {
                write!(f, "node {node:?} declares zero cores")
            }
            HierarchyError::NonUniform { level } => write!(
                f,
                "{level}-level placement needs equal-size {level} units, but the hierarchy's \
                 units differ in size"
            ),
            HierarchyError::ZeroRequest => write!(f, "zero processors requested"),
            HierarchyError::ExceedsCapacity {
                requested,
                quantized,
                capacity,
            } => write!(
                f,
                "request for {requested} cores quantizes to {quantized}, exceeding the \
                 hierarchy's {capacity} cores"
            ),
            HierarchyError::CapacityMismatch {
                hierarchy,
                calendar,
            } => write!(
                f,
                "hierarchy has {hierarchy} cores but the calendar capacity is {calendar}"
            ),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl Hierarchy {
    /// The flat-cluster degenerate form: one switch holding `capacity`
    /// single-core nodes. Grain 1 at every level — hierarchical queries
    /// against it reproduce flat queries byte-for-byte (see the module
    /// docs' equivalence contract).
    pub fn flat(capacity: u32) -> Hierarchy {
        Hierarchy::uniform("flat", 1, capacity, 1)
    }

    /// A regular tree: `switches` switches × `nodes_per_switch` nodes ×
    /// `cores_per_node` cores, named `s<i>` / `s<i>n<j>`.
    pub fn uniform(
        cluster: &str,
        switches: u32,
        nodes_per_switch: u32,
        cores_per_node: u32,
    ) -> Hierarchy {
        let switches = (0..switches)
            .map(|i| Switch {
                name: format!("s{i}"),
                nodes: (0..nodes_per_switch)
                    .map(|j| Node {
                        name: format!("s{i}n{j}"),
                        cores: cores_per_node,
                    })
                    .collect(),
            })
            .collect();
        Hierarchy {
            cluster: cluster.to_string(),
            switches,
        }
    }

    /// Total schedulable cores in the tree — must equal the capacity of
    /// any calendar the hierarchy is used against.
    pub fn total_cores(&self) -> u32 {
        self.switches
            .iter()
            .flat_map(|s| s.nodes.iter())
            .map(|n| n.cores)
            .sum()
    }

    /// Is this the flat degenerate form (every node a single core)?
    pub fn is_flat(&self) -> bool {
        self.switches
            .iter()
            .flat_map(|s| s.nodes.iter())
            .all(|n| n.cores == 1)
    }

    /// Structural validation: at least one core, no zero-core nodes.
    pub fn check(&self) -> Result<(), HierarchyError> {
        for n in self.switches.iter().flat_map(|s| s.nodes.iter()) {
            if n.cores == 0 {
                return Err(HierarchyError::ZeroCoreNode {
                    node: n.name.clone(),
                });
            }
        }
        if self.total_cores() == 0 {
            return Err(HierarchyError::Empty);
        }
        Ok(())
    }

    /// The placement grain at `level`: 1 for cores, the (uniform) per-node
    /// core count for nodes, the (uniform) per-switch core count for
    /// switches. Errors if the units at that level are not equal-size —
    /// whole-unit quantization onto a flat calendar is only meaningful for
    /// a regular tree.
    pub fn grain(&self, level: PlacementLevel) -> Result<u32, HierarchyError> {
        self.check()?;
        match level {
            PlacementLevel::Core => Ok(1),
            PlacementLevel::Node => uniform_size(
                self.switches
                    .iter()
                    .flat_map(|s| s.nodes.iter())
                    .map(|n| n.cores),
            )
            .ok_or(HierarchyError::NonUniform { level }),
            PlacementLevel::Switch => uniform_size(
                self.switches
                    .iter()
                    .map(|s| s.nodes.iter().map(|n| n.cores).sum()),
            )
            .ok_or(HierarchyError::NonUniform { level }),
        }
    }

    /// Round `procs` up to whole placement units at `level`. This is the
    /// entire hierarchy → flat-calendar coupling: the returned count is
    /// what actually gets reserved.
    pub fn quantize(&self, procs: u32, level: PlacementLevel) -> Result<u32, HierarchyError> {
        if procs == 0 {
            return Err(HierarchyError::ZeroRequest);
        }
        let g = self.grain(level)?;
        let quantized = procs.div_ceil(g).saturating_mul(g);
        let capacity = self.total_cores();
        if quantized > capacity {
            return Err(HierarchyError::ExceedsCapacity {
                requested: procs,
                quantized,
                capacity,
            });
        }
        Ok(quantized)
    }

    /// [`Hierarchy::quantize`] plus the capacity-agreement check against
    /// the calendar the request will be placed in — the step before the
    /// flat search.
    pub fn quantized_request(
        &self,
        procs: u32,
        level: PlacementLevel,
        calendar_capacity: u32,
    ) -> Result<u32, HierarchyError> {
        let total = self.total_cores();
        if total != calendar_capacity {
            return Err(HierarchyError::CapacityMismatch {
                hierarchy: total,
                calendar: calendar_capacity,
            });
        }
        self.quantize(procs, level)
    }
}

/// `Some(size)` if every element of a non-empty iterator equals `size`.
fn uniform_size(mut sizes: impl Iterator<Item = u32>) -> Option<u32> {
    let first = sizes.find(|&s| s > 0)?;
    sizes.all(|s| s == first || s == 0).then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_identity_at_every_level() {
        let h = Hierarchy::flat(16);
        assert_eq!(h.total_cores(), 16);
        assert!(h.is_flat());
        for level in [PlacementLevel::Core, PlacementLevel::Node] {
            assert_eq!(h.grain(level).unwrap(), 1);
            for m in 1..=16 {
                assert_eq!(h.quantize(m, level).unwrap(), m);
            }
        }
        // Switch level on the flat form is the whole cluster.
        assert_eq!(h.grain(PlacementLevel::Switch).unwrap(), 16);
    }

    #[test]
    fn uniform_grains_and_rounding() {
        let h = Hierarchy::uniform("c", 2, 4, 2); // 2 switches × 4 nodes × 2 cores = 16
        assert_eq!(h.total_cores(), 16);
        assert!(!h.is_flat());
        assert_eq!(h.grain(PlacementLevel::Core).unwrap(), 1);
        assert_eq!(h.grain(PlacementLevel::Node).unwrap(), 2);
        assert_eq!(h.grain(PlacementLevel::Switch).unwrap(), 8);
        assert_eq!(h.quantize(3, PlacementLevel::Node).unwrap(), 4);
        assert_eq!(h.quantize(4, PlacementLevel::Node).unwrap(), 4);
        assert_eq!(h.quantize(1, PlacementLevel::Switch).unwrap(), 8);
        assert_eq!(h.quantize(9, PlacementLevel::Switch).unwrap(), 16);
    }

    #[test]
    fn quantize_rejects_zero_and_overflow() {
        let h = Hierarchy::uniform("c", 1, 3, 4); // 12 cores
        assert_eq!(
            h.quantize(0, PlacementLevel::Core),
            Err(HierarchyError::ZeroRequest)
        );
        assert_eq!(h.quantize(11, PlacementLevel::Switch), Ok(12));
        assert!(h.quantize(12, PlacementLevel::Switch).is_ok());
        assert_eq!(
            h.quantize(13, PlacementLevel::Switch),
            Err(HierarchyError::ExceedsCapacity {
                requested: 13,
                quantized: 24,
                capacity: 12
            })
        );
        assert_eq!(
            h.quantize(13, PlacementLevel::Core),
            Err(HierarchyError::ExceedsCapacity {
                requested: 13,
                quantized: 13,
                capacity: 12
            })
        );
    }

    #[test]
    fn irregular_trees_reject_whole_unit_placement() {
        let mut h = Hierarchy::uniform("c", 2, 2, 2);
        h.switches[1].nodes[0].cores = 3;
        assert_eq!(h.grain(PlacementLevel::Core).unwrap(), 1);
        assert_eq!(
            h.grain(PlacementLevel::Node),
            Err(HierarchyError::NonUniform {
                level: PlacementLevel::Node
            })
        );
        assert_eq!(
            h.grain(PlacementLevel::Switch),
            Err(HierarchyError::NonUniform {
                level: PlacementLevel::Switch
            })
        );
    }

    #[test]
    fn structural_validation() {
        let mut h = Hierarchy::uniform("c", 1, 2, 2);
        assert!(h.check().is_ok());
        h.switches[0].nodes[1].cores = 0;
        assert_eq!(
            h.check(),
            Err(HierarchyError::ZeroCoreNode {
                node: "s0n1".to_string()
            })
        );
        let empty = Hierarchy {
            cluster: "e".to_string(),
            switches: Vec::new(),
        };
        assert_eq!(empty.check(), Err(HierarchyError::Empty));
    }

    #[test]
    fn capacity_mismatch_is_surfaced() {
        let h = Hierarchy::uniform("c", 1, 4, 2); // 8 cores
        assert_eq!(
            h.quantized_request(2, PlacementLevel::Node, 16),
            Err(HierarchyError::CapacityMismatch {
                hierarchy: 8,
                calendar: 16
            })
        );
        assert_eq!(h.quantized_request(3, PlacementLevel::Node, 8), Ok(4));
    }

    #[test]
    fn serde_round_trip() {
        let h = Hierarchy::uniform("c", 2, 2, 4);
        let json = serde_json::to_string(&h).unwrap();
        let back: Hierarchy = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
