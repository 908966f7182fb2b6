//! The classification taxonomies of the study: AI motifs (Table I),
//! science domains and subdomains (Table II), usage status, and ML method.

use serde::Serialize;

/// How a project uses AI/ML — the paper's "AI motifs" (Table I). The paper
/// treats machine-learned molecular-dynamics potentials as a special case
/// of the submodel motif but plots them separately in Figures 5–6; we give
/// them their own variant, which [`Motif::table1_rows`] folds into the
/// submodel row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Motif {
    /// Detect algorithmic or other failure in execution, signal remediation.
    FaultDetection,
    /// ML enhances a mathematical (non-science-proper) computation.
    MathCsAlgorithm,
    /// A proper subset of a science computation replaced by an ML model.
    Submodel,
    /// Machine-learned molecular-dynamics potentials (submodel special case).
    MdPotentials,
    /// Automatic steering of a computation's direction.
    Steering,
    /// Full science model replaced by an ML approximation.
    SurrogateModel,
    /// Mod-sim results analyzed by a human using ML methods.
    Analysis,
    /// ML and traditional mod-sim coupled in a loop.
    MlModsimLoop,
    /// "Pure" ML with little or no mod-sim (includes RL).
    Classification,
    /// Umbrella project with multiple unrelated AI/ML subprojects.
    Various,
    /// Manner of AI/ML use undetermined.
    Undetermined,
}

impl Motif {
    /// All motifs, in Table I order (MD potentials immediately after
    /// submodel, its parent motif).
    pub const ALL: [Motif; 11] = [
        Motif::FaultDetection,
        Motif::MathCsAlgorithm,
        Motif::Submodel,
        Motif::MdPotentials,
        Motif::Steering,
        Motif::SurrogateModel,
        Motif::Analysis,
        Motif::MlModsimLoop,
        Motif::Classification,
        Motif::Various,
        Motif::Undetermined,
    ];

    /// Display name as used in the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            Motif::FaultDetection => "fault detection",
            Motif::MathCsAlgorithm => "math/cs algorithm",
            Motif::Submodel => "submodel",
            Motif::MdPotentials => "MD potentials",
            Motif::Steering => "steering",
            Motif::SurrogateModel => "surrogate model",
            Motif::Analysis => "analysis",
            Motif::MlModsimLoop => "ML + modsim loop",
            Motif::Classification => "classification",
            Motif::Various => "various",
            Motif::Undetermined => "undetermined",
        }
    }

    /// Table I definition text.
    pub fn definition(self) -> &'static str {
        match self {
            Motif::FaultDetection => {
                "detect algorithmic or other failure in execution, send signal \
                 for automatic or manual remediation"
            }
            Motif::MathCsAlgorithm => {
                "ML is used to enhance some mathematical (non-science-proper) \
                 computation"
            }
            Motif::Submodel => {
                "a (proper) subset of a science computation is replaced by an \
                 ML model"
            }
            Motif::MdPotentials => {
                "molecular dynamics potentials trained with ML (special case \
                 of submodel)"
            }
            Motif::Steering => {
                "automatic steering of the direction of a computation for some \
                 internal process"
            }
            Motif::SurrogateModel => {
                "full science model replaced by ML approximation that captures \
                 important aspects, used for speed or science understanding"
            }
            Motif::Analysis => {
                "results from modeling and simulation runs are analyzed by a \
                 human using ML methods"
            }
            Motif::MlModsimLoop => "both ML and traditional modsim, coupled",
            Motif::Classification => {
                "\"pure\" ML with little or no modsim used to classify some \
                 phenomenon; includes some other methods like reinforcement \
                 learning"
            }
            Motif::Various => {
                "umbrella project with multiple unrelated subprojects using \
                 possibly different kinds of AI/ML"
            }
            Motif::Undetermined => "manner of AI/ML use is undetermined",
        }
    }

    /// Table I example text.
    pub fn example(self) -> &'static str {
        match self {
            Motif::FaultDetection => "detect simulation defect caused by execution error",
            Motif::MathCsAlgorithm => {
                "solver's linear system dimension is reduced based on \
                 machine-learned parameter"
            }
            Motif::Submodel => {
                "physics-based radiation model in a climate code replaced by ML model"
            }
            Motif::MdPotentials => "DeePMD/SNAP potentials driving MD simulation",
            Motif::Steering => {
                "ML method to guide Monte Carlo sampling to include \
                 undersampled regions"
            }
            Motif::SurrogateModel => {
                "data from tokamak simulation runs used to train surrogate model"
            }
            Motif::Analysis => "use graph neural networks to analyze results of MD simulation",
            Motif::MlModsimLoop => {
                "MD in loop used to refine deep learning model via active learning"
            }
            Motif::Classification => {
                "deep neural network inference to detect rare astrophysical event"
            }
            Motif::Various => "CAAR/ESP/NESAP application readiness",
            Motif::Undetermined => "project is exploring AI/ML use but gives no details",
        }
    }

    /// The ten canonical Table I rows (MD potentials folded into submodel).
    pub fn table1_rows() -> Vec<Motif> {
        Motif::ALL
            .iter()
            .copied()
            .filter(|m| *m != Motif::MdPotentials)
            .collect()
    }
}

/// Science domains (Table II, left column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Domain {
    /// Biology and life sciences.
    Biology,
    /// Chemistry.
    Chemistry,
    /// Computer science (including ML-proper projects).
    ComputerScience,
    /// Earth science.
    EarthScience,
    /// Engineering.
    Engineering,
    /// Fusion energy and plasma physics.
    FusionPlasma,
    /// Materials science.
    Materials,
    /// Nuclear energy.
    NuclearEnergy,
    /// Physics.
    Physics,
}

impl Domain {
    /// All nine domains in Table II order.
    pub const ALL: [Domain; 9] = [
        Domain::Biology,
        Domain::Chemistry,
        Domain::ComputerScience,
        Domain::EarthScience,
        Domain::Engineering,
        Domain::FusionPlasma,
        Domain::Materials,
        Domain::NuclearEnergy,
        Domain::Physics,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Biology => "Biology",
            Domain::Chemistry => "Chemistry",
            Domain::ComputerScience => "Computer Science",
            Domain::EarthScience => "Earth Science",
            Domain::Engineering => "Engineering",
            Domain::FusionPlasma => "Fusion and Plasma",
            Domain::Materials => "Materials",
            Domain::NuclearEnergy => "Nuclear Energy",
            Domain::Physics => "Physics",
        }
    }

    /// Table II subdomain list.
    pub fn subdomains(self) -> &'static [&'static str] {
        match self {
            Domain::Biology => &[
                "Bioinformatics",
                "Biophysics",
                "Life Sciences",
                "Medical Science",
                "Neuroscience",
                "Proteomics",
                "Systems Biology",
            ],
            Domain::Chemistry => &["Chemistry", "Physical Chemistry"],
            Domain::ComputerScience => &["Computer Science", "Machine Learning"],
            Domain::EarthScience => &[
                "Atmospheric Science",
                "Climate",
                "Geosciences",
                "Geographic Information Systems",
            ],
            Domain::Engineering => &[
                "Aerodynamics",
                "Bioenergy",
                "Combustion",
                "Engineering",
                "Fluid Dynamics",
                "Turbulence",
            ],
            Domain::FusionPlasma => &["Fusion Energy", "Plasma Physics"],
            Domain::Materials => &[
                "Materials Science",
                "Nanoelectronics",
                "Nanomechanics",
                "Nanophotonics",
                "Nanoscience",
            ],
            Domain::NuclearEnergy => &["Nuclear Fission", "Nuclear Fuel Cycle"],
            Domain::Physics => &[
                "Accelerator Physics",
                "Astrophysics",
                "Cosmology",
                "Atomic/Molecular Physics",
                "Condensed Matter Physics",
                "High Energy Physics",
                "Lattice Gauge Theory",
                "Nuclear Physics",
                "Physics",
                "Solar/Space Physics",
            ],
        }
    }
}

/// AI/ML usage or adoption status (paper Section II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum UsageStatus {
    /// Actual usage of AI/ML in the project year.
    Active,
    /// Previous/planned/possible/companion-project usage.
    Inactive,
    /// No serious mention of or interest in AI/ML.
    None,
}

impl UsageStatus {
    /// All statuses.
    pub const ALL: [UsageStatus; 3] = [
        UsageStatus::Active,
        UsageStatus::Inactive,
        UsageStatus::None,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            UsageStatus::Active => "active",
            UsageStatus::Inactive => "inactive",
            UsageStatus::None => "none",
        }
    }

    /// Whether the project counts as an AI/ML user (active or inactive).
    pub fn uses_ml(self) -> bool {
        !matches!(self, UsageStatus::None)
    }
}

/// ML method category (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum MlMethod {
    /// Deep learning or other neural-network methods.
    DeepLearningOrNn,
    /// Other ML (SVM, isolation forests, PCA, regressions, boosted trees…).
    OtherMl,
    /// Could not be determined from the proposal.
    Undetermined,
}

impl MlMethod {
    /// All method categories.
    pub const ALL: [MlMethod; 3] = [
        MlMethod::DeepLearningOrNn,
        MlMethod::OtherMl,
        MlMethod::Undetermined,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MlMethod::DeepLearningOrNn => "DL/NN",
            MlMethod::OtherMl => "other ML",
            MlMethod::Undetermined => "undetermined",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_ten_rows() {
        // Table I lists exactly ten motifs (MD potentials is a note inside
        // the submodel row).
        assert_eq!(Motif::table1_rows().len(), 10);
        assert!(!Motif::table1_rows().contains(&Motif::MdPotentials));
    }

    #[test]
    fn every_motif_documented() {
        for m in Motif::ALL {
            assert!(!m.name().is_empty());
            assert!(!m.definition().is_empty());
            assert!(!m.example().is_empty());
        }
    }

    #[test]
    fn table2_has_nine_domains() {
        assert_eq!(Domain::ALL.len(), 9);
    }

    #[test]
    fn subdomains_partition() {
        // No subdomain name may appear under two domains.
        let mut seen = std::collections::HashSet::new();
        for d in Domain::ALL {
            for s in d.subdomains() {
                assert!(seen.insert(*s), "duplicate subdomain {s}");
            }
        }
        // Table II lists 40 subdomains (the paper's raw 48 3-letter codes
        // collapse onto these rows).
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn usage_status_semantics() {
        assert!(UsageStatus::Active.uses_ml());
        assert!(UsageStatus::Inactive.uses_ml());
        assert!(!UsageStatus::None.uses_ml());
    }
}
