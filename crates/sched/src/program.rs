//! Allocation programs (paper Section II-B).

use serde::Serialize;

/// An OLCF allocation program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Program {
    /// Innovative and Novel Computational Impact on Theory and Experiment:
    /// ≈60% of allocable hours, rigorous computational-readiness review.
    Incite,
    /// ASCR Leadership Computing Challenge: ≈20%.
    Alcc,
    /// Director's Discretionary: ≈20% (including ECP and much of COVID-19).
    DirectorsDiscretionary,
    /// Exascale Computing Project teams (allocated out of DD, up to half of
    /// it in the studied years).
    Ecp,
    /// COVID-19 HPC Consortium projects that were not DD projects.
    CovidConsortium,
    /// ACM Gordon Bell finalist runs (tracked separately in the paper).
    GordonBell,
}

impl Program {
    /// The three primary allocation programs.
    pub const PRIMARY: [Program; 3] = [
        Program::Incite,
        Program::Alcc,
        Program::DirectorsDiscretionary,
    ];

    /// All program categories used in the study.
    pub const ALL: [Program; 6] = [
        Program::Incite,
        Program::Alcc,
        Program::DirectorsDiscretionary,
        Program::Ecp,
        Program::CovidConsortium,
        Program::GordonBell,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Program::Incite => "INCITE",
            Program::Alcc => "ALCC",
            Program::DirectorsDiscretionary => "DD",
            Program::Ecp => "ECP",
            Program::CovidConsortium => "COVID",
            Program::GordonBell => "Gordon Bell",
        }
    }

    /// Target share of allocable hours for the primary programs (paper:
    /// "roughly 60% ... roughly 20% ... the remaining 20%"). ECP's share is
    /// carved out of DD ("up to half of the available time, i.e., 10% of
    /// the total"); COVID and Gordon Bell have no standing share.
    pub fn target_share(self) -> f64 {
        match self {
            Program::Incite => 0.60,
            Program::Alcc => 0.20,
            Program::DirectorsDiscretionary => 0.20,
            Program::Ecp => 0.10,
            Program::CovidConsortium | Program::GordonBell => 0.0,
        }
    }
}

/// A node-hour allocation to a project for one program year.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Allocation {
    /// The awarding program.
    pub program: Program,
    /// Allocation (calendar) year, e.g. 2019.
    pub year: u16,
    /// Node-hours granted at the onset of the project period (the paper's
    /// "allocation hours" metric).
    pub node_hours: f64,
}

impl Allocation {
    /// Create an allocation.
    ///
    /// # Panics
    /// Panics on non-positive node-hours or a year outside Summit's
    /// production life (2018–2025).
    pub fn new(program: Program, year: u16, node_hours: f64) -> Self {
        assert!(node_hours > 0.0, "allocations must be positive");
        assert!(
            (2018..=2025).contains(&year),
            "year outside Summit production"
        );
        Allocation {
            program,
            year,
            node_hours,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_shares_sum_to_one() {
        let sum: f64 = Program::PRIMARY.iter().map(|p| p.target_share()).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecp_is_half_of_dd() {
        assert!(
            (Program::Ecp.target_share() - Program::DirectorsDiscretionary.target_share() / 2.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "year outside Summit production")]
    fn prehistoric_allocation_rejected() {
        let _ = Allocation::new(Program::Incite, 2012, 1000.0);
    }
}
