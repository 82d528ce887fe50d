//! The unified method registry — the single source of truth for the nine
//! compared methods of §VIII-A ("Methods Compared"): identity, paper
//! legend name, and whether the method is one of the paper's proposed
//! engines or a baseline.
//! Every legend string in the workspace ([`crate::Engine::name`], the
//! baselines, the bench harness) derives from here.

/// Identity of one compared method. The discriminant doubles as the
/// index into [`METHOD_REGISTRY`], which also fixes the paper's legend
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MethodId {
    /// Direct matrix multiplication greedy (ours, exact).
    Dm = 0,
    /// Random-walk greedy (ours, Algorithm 4).
    Rw = 1,
    /// Reverse sketching greedy (ours, Algorithm 5 — recommended).
    Rs = 2,
    /// IMM under the Independent Cascade model.
    Ic = 3,
    /// IMM under the Linear Threshold model.
    Lt = 4,
    /// Gionis et al. greedy at a finite horizon.
    Gedt = 5,
    /// PageRank centrality.
    Pr = 6,
    /// Random walk with restart.
    Rwr = 7,
    /// Degree centrality.
    Dc = 8,
}

/// Registry entry: everything the harness needs to present a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodDescriptor {
    /// The method's identity.
    pub id: MethodId,
    /// Display name matching the paper's figure legends.
    pub name: &'static str,
    /// Whether this is one of the paper's proposed methods (DM/RW/RS) as
    /// opposed to a §VIII baseline.
    pub ours: bool,
    /// One-line description (shown by tooling; mirrors §VIII-A).
    pub summary: &'static str,
}

/// All nine methods, in the paper's legend order.
pub const METHOD_REGISTRY: [MethodDescriptor; 9] = [
    MethodDescriptor {
        id: MethodId::Dm,
        name: "DM",
        ours: true,
        summary: "exact greedy by direct matrix-vector iteration",
    },
    MethodDescriptor {
        id: MethodId::Rw,
        name: "RW",
        ours: true,
        summary: "greedy on reverse random-walk estimates",
    },
    MethodDescriptor {
        id: MethodId::Rs,
        name: "RS",
        ours: true,
        summary: "greedy on reverse sketch estimates (recommended)",
    },
    MethodDescriptor {
        id: MethodId::Ic,
        name: "IC",
        ours: false,
        summary: "IMM seeds under the Independent Cascade model",
    },
    MethodDescriptor {
        id: MethodId::Lt,
        name: "LT",
        ours: false,
        summary: "IMM seeds under the Linear Threshold model",
    },
    MethodDescriptor {
        id: MethodId::Gedt,
        name: "GED-T",
        ours: false,
        summary: "Gionis et al. opinion greedy at a finite horizon",
    },
    MethodDescriptor {
        id: MethodId::Pr,
        name: "PR",
        ours: false,
        summary: "PageRank centrality",
    },
    MethodDescriptor {
        id: MethodId::Rwr,
        name: "RWR",
        ours: false,
        summary: "random walk with restart",
    },
    MethodDescriptor {
        id: MethodId::Dc,
        name: "DC",
        ours: false,
        summary: "degree centrality",
    },
];

impl MethodId {
    /// All nine methods, in the paper's legend order.
    pub fn all() -> [MethodId; 9] {
        [
            MethodId::Dm,
            MethodId::Rw,
            MethodId::Rs,
            MethodId::Ic,
            MethodId::Lt,
            MethodId::Gedt,
            MethodId::Pr,
            MethodId::Rwr,
            MethodId::Dc,
        ]
    }

    /// The paper's three proposed engines.
    pub fn proposed() -> [MethodId; 3] {
        [MethodId::Dm, MethodId::Rw, MethodId::Rs]
    }

    /// The fast subset used by wide sweeps when exact DM would dominate
    /// the wall clock.
    pub fn without_exact() -> [MethodId; 8] {
        [
            MethodId::Rw,
            MethodId::Rs,
            MethodId::Ic,
            MethodId::Lt,
            MethodId::Gedt,
            MethodId::Pr,
            MethodId::Rwr,
            MethodId::Dc,
        ]
    }

    /// The registry entry for this method.
    pub fn descriptor(self) -> &'static MethodDescriptor {
        &METHOD_REGISTRY[self as usize]
    }

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }

    /// Whether this is one of the paper's proposed methods.
    pub fn is_ours(self) -> bool {
        self.descriptor().ours
    }

    /// Looks a method up by its legend name (case-sensitive).
    pub fn from_name(name: &str) -> Option<MethodId> {
        METHOD_REGISTRY
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_indexing_matches_discriminants() {
        for (i, d) in METHOD_REGISTRY.iter().enumerate() {
            assert_eq!(d.id as usize, i, "{}", d.name);
            assert_eq!(d.id.descriptor(), d);
        }
        for (id, d) in MethodId::all().iter().zip(&METHOD_REGISTRY) {
            assert_eq!(*id, d.id);
        }
    }

    #[test]
    fn legend_names_are_unique_and_stable() {
        // The paper's legend strings are load-bearing across every figure
        // and table; any rename must be deliberate.
        let expected = ["DM", "RW", "RS", "IC", "LT", "GED-T", "PR", "RWR", "DC"];
        let names: Vec<&str> = MethodId::all().iter().map(|m| m.name()).collect();
        assert_eq!(names, expected);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate legend name");
    }

    #[test]
    fn ours_flags_match_the_paper() {
        let ours: Vec<MethodId> = MethodId::all()
            .into_iter()
            .filter(|m| m.is_ours())
            .collect();
        assert_eq!(ours, MethodId::proposed());
        assert!(MethodId::without_exact().iter().all(|m| *m != MethodId::Dm));
    }

    #[test]
    fn from_name_round_trips() {
        for id in MethodId::all() {
            assert_eq!(MethodId::from_name(id.name()), Some(id));
        }
        assert_eq!(MethodId::from_name("nope"), None);
    }
}
