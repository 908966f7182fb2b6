//! Projects and usage accounting.

use serde::Serialize;

use crate::program::Allocation;

/// A compute project holding an allocation for one program year.
#[derive(Debug, Clone, Serialize)]
pub struct Project {
    /// Stable project identifier (e.g. "AST145").
    pub id: String,
    /// The allocation backing this project year.
    pub allocation: Allocation,
    /// Node-hours consumed so far.
    pub used_node_hours: f64,
}

impl Project {
    /// Create a project with zero usage.
    pub fn new(id: impl Into<String>, allocation: Allocation) -> Self {
        Project {
            id: id.into(),
            allocation,
            used_node_hours: 0.0,
        }
    }

    /// Record usage of `node_hours`. Leadership centers allow overruns to
    /// be charged (projects can exceed allocation at reduced priority), so
    /// this never fails; check [`Project::utilization`].
    ///
    /// # Panics
    /// Panics on negative usage.
    pub fn charge(&mut self, node_hours: f64) {
        assert!(node_hours >= 0.0, "cannot charge negative hours");
        self.used_node_hours += node_hours;
    }

    /// Remaining allocation (clamped at zero).
    pub fn remaining(&self) -> f64 {
        (self.allocation.node_hours - self.used_node_hours).max(0.0)
    }

    /// Fraction of the allocation consumed (may exceed 1).
    pub fn utilization(&self) -> f64 {
        self.used_node_hours / self.allocation.node_hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn project(hours: f64) -> Project {
        Project::new("TST001", Allocation::new(Program::Incite, 2020, hours))
    }

    #[test]
    fn charging_accumulates() {
        let mut p = project(1000.0);
        p.charge(300.0);
        p.charge(200.0);
        assert!((p.used_node_hours - 500.0).abs() < 1e-12);
        assert!((p.remaining() - 500.0).abs() < 1e-12);
        assert!((p.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overrun_allowed_and_flagged() {
        let mut p = project(100.0);
        p.charge(150.0);
        assert!(p.utilization() > 1.0);
        assert_eq!(p.remaining(), 0.0);
        assert!((p.utilization() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_charge_rejected() {
        project(10.0).charge(-1.0);
    }
}
