//! The object-safe topology abstraction the synthesis loop runs on.
//!
//! The paper's contribution is a *methodology* — sizing and layout
//! coupled in a loop — not a folded-cascode program. This module is the
//! contract that keeps the loop topology-generic: a [`Topology`] is one
//! description of a sized amplifier that the evaluator measures (specs,
//! netlist, cache fingerprint) and the layout planner draws (matched
//! stacks, placement rows, net currents); a [`TopologyPlan`] is the
//! knowledge-based sizing procedure that produces one. The flow
//! (`losac-core`), the evaluator, the layout planner and the batch
//! engine (`losac-engine`) all speak these two traits; adding a topology
//! is a data-only addition against them.
//!
//! The layout description ([`TopologyLayoutSpec`]) is deliberately plain
//! data — names, nets, polarities, row indices — so `losac-sizing` does
//! not depend on the layout crate. `losac-core` translates it into an
//! executable `LayoutPlan` (fold policies, finger widths, slicing tree).

use crate::eval::{FnvHasher, InputDrive};
use crate::feedback::{LayoutFeedback, ParasiticMode};
use crate::ota::folded_cascode::{SizedDevice, SizingError};
use crate::specs::OtaSpecs;
use losac_sim::netlist::Circuit;
use losac_tech::{Polarity, Technology};
use std::collections::HashMap;
use std::sync::Arc;

/// One member of a matched group: a device plus the nets that differ
/// between the group's members (drain and gate; source and bulk are
/// shared by the group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDevice {
    /// Device name (must exist in [`Topology::devices`]).
    pub name: String,
    /// Drain net.
    pub drain_net: String,
    /// Gate net.
    pub gate_net: String,
}

/// A set of devices that share a source net and must be laid out as one
/// interdigitated / common-centroid stack (input pair, mirror, matched
/// sinks). All members are sized identically by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedGroup {
    /// Stack name in the layout plan (`"pair"`, `"mirror"`, …).
    pub name: String,
    /// Polarity of every member.
    pub polarity: Polarity,
    /// The shared source net.
    pub source_net: String,
    /// The shared bulk net (well assignment).
    pub bulk_net: String,
    /// Whether this group is the input differential pair — the only
    /// group whose matching style is a user-facing layout option.
    pub is_input_pair: bool,
    /// The members, in layout order.
    pub devices: Vec<GroupDevice>,
}

/// A standalone device (tail source, cascode, output stage) that folds
/// individually instead of stacking with a partner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleDevice {
    /// Device name (must exist in [`Topology::devices`]).
    pub name: String,
    /// Polarity.
    pub polarity: Polarity,
    /// Drain net.
    pub d: String,
    /// Gate net.
    pub g: String,
    /// Source net.
    pub s: String,
    /// Bulk net (well assignment).
    pub b: String,
}

/// One layout module: a matched stack or an individually folded device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutModule {
    /// A matched group realised as one stack.
    Group(MatchedGroup),
    /// An individually folded device.
    Single(SingleDevice),
}

impl LayoutModule {
    /// Name of the module's first (or only) device — the one whose size
    /// decides the module's finger geometry.
    pub fn lead_device(&self) -> &str {
        match self {
            LayoutModule::Group(g) => &g.devices[0].name,
            LayoutModule::Single(s) => &s.name,
        }
    }
}

/// Everything the layout planner needs to know about a topology: its
/// modules (matched groups and standalone devices), their placement into
/// rows, and the current each net carries (for electromigration-aware
/// wire sizing).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyLayoutSpec {
    /// Cell name of the generated layout.
    pub cell_name: &'static str,
    /// Modules in a stable order; row indices below refer to positions
    /// in this list.
    pub modules: Vec<LayoutModule>,
    /// Placement rows from the *bottom* of the cell upwards, each row a
    /// list of module indices (NMOS rows conventionally at the bottom,
    /// PMOS rows sharing a well region at the top).
    pub placement_rows: Vec<Vec<usize>>,
    /// Current carried by each signal net (A). Gate/bias nets carry none
    /// and are omitted.
    pub net_currents: HashMap<String, f64>,
}

/// A sized amplifier: everything the evaluator and the sizing↔layout
/// loop need from one topology — the specification it was sized for,
/// its testbench netlist and cache fingerprint, the sized-device map,
/// the matched-group/placement metadata for the layout planner, feedback
/// application and a supply current estimate.
///
/// All methods are object-safe; the flow, the evaluator and the engine
/// hold topologies as `&dyn Topology` / `Box<dyn Topology>` /
/// `Arc<dyn Topology>`. The `Sync` bound also lets the evaluator run the
/// slew-rate transient concurrently with the small-signal pipeline
/// (both only read the amplifier).
pub trait Topology: std::fmt::Debug + Send + Sync {
    /// Stable topology name: the registry key, and the prefix of every
    /// evaluation cache key, written before
    /// [`write_fingerprint`](Topology::write_fingerprint) so two
    /// topologies emitting identical fingerprint byte streams can never
    /// alias in a shared cache.
    fn topology_name(&self) -> &'static str;

    /// The specification the amplifier was sized for.
    fn specs(&self) -> &OtaSpecs;

    /// Build the amplifier netlist in the requested testbench, with
    /// parasitics per `mode`. Sources must be named `vinp`/`vinn`, the
    /// supply `vdd`, and the output node `out`.
    fn netlist(&self, tech: &Technology, mode: &ParasiticMode, drive: InputDrive) -> Circuit;

    /// Rough slew-rate estimate (V/s), used only to choose the transient
    /// time scale.
    fn slew_estimate(&self) -> f64;

    /// Mix every field that influences [`netlist`](Topology::netlist)
    /// and [`slew_estimate`](Topology::slew_estimate) — geometries, bias
    /// points, passives and specs — into `h`, and return `true` to opt
    /// into [`EvalCache`](crate::eval::EvalCache) keying. The hasher
    /// records the exact byte stream alongside the hash, so the cache
    /// verifies the full key on lookup and a 64-bit hash collision can
    /// never alias two designs.
    ///
    /// The default (write nothing, return `false`) opts the topology out
    /// of caching entirely, so an implementor that forgets to cover a
    /// field can only ever be slower, never wrong *if* it hashes
    /// everything it exposes to the netlist. [`FnvHasher`] keeps float
    /// quantisation uniform across the whole key.
    fn write_fingerprint(&self, h: &mut FnvHasher) -> bool {
        let _ = h;
        false
    }

    /// The sized devices by name.
    fn devices(&self) -> &HashMap<String, SizedDevice>;

    /// Mutable access to the sized devices (used by
    /// [`apply_feedback`](Topology::apply_feedback)).
    fn devices_mut(&mut self) -> &mut HashMap<String, SizedDevice>;

    /// The layout description: matched groups, standalone devices,
    /// placement rows and net currents.
    fn layout_spec(&self) -> TopologyLayoutSpec;

    /// Total quiescent current drawn from the supply (A).
    fn supply_current_estimate(&self) -> f64;

    /// Drawn width of a device (m): the layout feedback's grid-snapped
    /// width when it corresponds to *this* sizing (within 5 %), the
    /// synthesised width otherwise. Feedback carried over from a
    /// previous sizing iteration describes the old geometry and must not
    /// override freshly computed widths — only the final snap of the
    /// same widths.
    fn drawn_w(&self, mode: &ParasiticMode, name: &str) -> f64 {
        let w = self.devices()[name].w;
        if let Some(fb) = mode.feedback() {
            if let Some(d) = fb.device(name) {
                let drawn = d.drawn_w as f64 * 1e-9;
                if (drawn - w).abs() <= 0.05 * w {
                    return drawn;
                }
            }
        }
        w
    }

    /// Absorb layout feedback into the stored sizing: snap each device's
    /// width to the drawn width reported by the layout tool, with the
    /// same 5 % guard as [`drawn_w`](Topology::drawn_w).
    fn apply_feedback(&mut self, fb: &LayoutFeedback) {
        for (name, dev) in self.devices_mut().iter_mut() {
            if let Some(f) = fb.devices.get(name) {
                let drawn = f.drawn_w as f64 * 1e-9;
                if (drawn - dev.w).abs() <= 0.05 * dev.w {
                    dev.w = drawn;
                }
            }
        }
    }
}

/// A knowledge-based sizing procedure that produces a [`Topology`] —
/// the object-safe face of `FoldedCascodePlan::size` and friends, which
/// is what lets the flow, the Table-1 cases and the batch engine take
/// the topology as an input instead of naming one.
pub trait TopologyPlan: std::fmt::Debug + Send + Sync {
    /// Stable name of the topology this plan sizes.
    fn topology_name(&self) -> &'static str;

    /// Size the topology for `specs` in `tech`, accounting for
    /// parasitics per `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`SizingError`] when the specs are invalid or a device
    /// cannot deliver its target.
    fn size_topology(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<Box<dyn Topology>, SizingError>;

    /// A specification this topology can actually meet — used as the
    /// per-topology base point of mixed-topology sweeps (the telescopic
    /// stack, for instance, rejects the paper's wide output swing).
    fn example_specs(&self) -> OtaSpecs {
        OtaSpecs::paper_example()
    }
}

/// Name → sizing-plan registry, so batch drivers can select topologies
/// by string (`batch_sweep --topology telescopic,two_stage`).
#[derive(Debug, Clone, Default)]
pub struct TopologyRegistry {
    entries: Vec<(String, Arc<dyn TopologyPlan>)>,
}

impl TopologyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of built-in topologies with their default plans:
    /// `folded_cascode`, `telescopic`, `two_stage`.
    pub fn builtin() -> Self {
        let mut r = Self::new();
        r.register(Arc::new(
            crate::ota::folded_cascode::FoldedCascodePlan::default(),
        ));
        r.register(Arc::new(crate::ota::telescopic::TelescopicPlan::default()));
        r.register(Arc::new(crate::ota::two_stage::TwoStagePlan::default()));
        r
    }

    /// Register a plan under its [`TopologyPlan::topology_name`],
    /// replacing any previous plan of the same name.
    pub fn register(&mut self, plan: Arc<dyn TopologyPlan>) {
        let name = plan.topology_name().to_owned();
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = plan;
        } else {
            self.entries.push((name, plan));
        }
    }

    /// The plan registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<dyn TopologyPlan>> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.clone())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::ParasiticMode;

    #[test]
    fn builtin_registry_has_all_three_topologies() {
        let r = TopologyRegistry::builtin();
        assert_eq!(r.names(), ["folded_cascode", "telescopic", "two_stage"]);
        for name in r.names() {
            let plan = r.get(name).unwrap();
            assert_eq!(plan.topology_name(), name);
        }
        assert!(r.get("nested_miller").is_none());
    }

    #[test]
    fn registry_sizes_each_topology_through_the_trait() {
        let tech = Technology::cmos06();
        let r = TopologyRegistry::builtin();
        for name in ["folded_cascode", "telescopic", "two_stage"] {
            let plan = r.get(name).unwrap();
            let topo = plan
                .size_topology(&tech, &plan.example_specs(), &ParasiticMode::None)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(topo.topology_name(), name);
            assert!(!topo.devices().is_empty());
            assert!(topo.supply_current_estimate() > 0.0, "{name}");
            let spec = topo.layout_spec();
            assert!(!spec.modules.is_empty());
            // Every module index in the rows refers to a real module, and
            // every module is placed exactly once.
            let placed: Vec<usize> = spec.placement_rows.iter().flatten().copied().collect();
            let mut sorted = placed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), spec.modules.len(), "{name}: placement");
            assert!(placed.iter().all(|&i| i < spec.modules.len()));
            // Every module device exists in the sized-device map.
            for m in &spec.modules {
                match m {
                    LayoutModule::Group(g) => {
                        assert!(g.devices.len() >= 2, "{name}/{}", g.name);
                        for d in &g.devices {
                            assert!(topo.devices().contains_key(&d.name), "{name}/{}", d.name);
                        }
                    }
                    LayoutModule::Single(s) => {
                        assert!(topo.devices().contains_key(&s.name), "{name}/{}", s.name);
                    }
                }
            }
        }
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = TopologyRegistry::new();
        r.register(Arc::new(crate::ota::telescopic::TelescopicPlan::default()));
        let replacement = crate::ota::telescopic::TelescopicPlan {
            l_in: 2.0e-6,
            ..Default::default()
        };
        r.register(Arc::new(replacement));
        assert_eq!(r.names().len(), 1);
        let got = r.get("telescopic").unwrap();
        let got = format!("{got:?}");
        assert!(got.contains("2e-6"), "{got}");
    }
}
