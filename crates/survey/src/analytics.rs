//! The figure-generating analytics (Figures 1–6).
//!
//! Every function takes the portfolio records and computes the aggregation
//! the corresponding paper figure plots. Nothing here knows how the
//! portfolio was synthesized — these are the honest computation paths a
//! survey over real proposals would use.

use std::collections::BTreeMap;

use serde::Serialize;
use summit_sched::program::Program;

use crate::portfolio::{
    iae_user_records, program_records, ProjectRecord, DOMAIN_ROWS, MOTIF_COLUMNS,
};
use crate::taxonomy::{Domain, MlMethod, Motif, UsageStatus};

/// Counts of projects by usage status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UsageCounts {
    /// Actively using AI/ML.
    pub active: u32,
    /// Inactive (planned/previous/indirect) usage.
    pub inactive: u32,
    /// No AI/ML usage.
    pub none: u32,
}

impl UsageCounts {
    /// Total projects.
    pub fn total(&self) -> u32 {
        self.active + self.inactive + self.none
    }

    /// Active fraction.
    pub fn active_pct(&self) -> f64 {
        f64::from(self.active) / f64::from(self.total().max(1))
    }

    /// Inactive fraction.
    fn inactive_pct(&self) -> f64 {
        f64::from(self.inactive) / f64::from(self.total().max(1))
    }

    /// Fraction with no usage.
    fn none_pct(&self) -> f64 {
        f64::from(self.none) / f64::from(self.total().max(1))
    }

    fn add(&mut self, status: UsageStatus) {
        match status {
            UsageStatus::Active => self.active += 1,
            UsageStatus::Inactive => self.inactive += 1,
            UsageStatus::None => self.none += 1,
        }
    }
}

/// Figure 1: overall AI/ML usage over all non-Gordon-Bell project-years.
pub fn overall_usage(records: &[ProjectRecord]) -> UsageCounts {
    let mut counts = UsageCounts::default();
    for r in program_records(records) {
        counts.add(r.status);
    }
    counts
}

/// Figure 2: usage by (program, year), percentage of projects. Keys are
/// sorted for stable iteration.
pub fn usage_by_program_year(records: &[ProjectRecord]) -> BTreeMap<(Program, u16), UsageCounts> {
    let mut map: BTreeMap<(Program, u16), UsageCounts> = BTreeMap::new();
    for r in program_records(records) {
        map.entry((r.program, r.year)).or_default().add(r.status);
    }
    map
}

/// Figure 3: ML method of AI/ML-using projects (active + inactive
/// aggregated, as the paper does).
pub fn usage_by_method(records: &[ProjectRecord]) -> BTreeMap<MlMethod, u32> {
    let mut map: BTreeMap<MlMethod, u32> = BTreeMap::new();
    for r in program_records(records) {
        if let Some(m) = r.method {
            *map.entry(m).or_insert(0) += 1;
        }
    }
    map
}

/// Figure 4: usage by science domain, project counts.
pub fn usage_by_domain(records: &[ProjectRecord]) -> BTreeMap<Domain, UsageCounts> {
    let mut map: BTreeMap<Domain, UsageCounts> = BTreeMap::new();
    for d in Domain::ALL {
        map.insert(d, UsageCounts::default());
    }
    for r in program_records(records) {
        map.entry(r.domain).or_default().add(r.status);
    }
    map
}

/// Figure 5: AI motif distribution over INCITE+ALCC+ECP users.
pub fn usage_by_motif(records: &[ProjectRecord]) -> BTreeMap<Motif, u32> {
    let mut map: BTreeMap<Motif, u32> = BTreeMap::new();
    for m in Motif::ALL {
        map.insert(m, 0);
    }
    for r in iae_user_records(records) {
        let m = r.motif.expect("users have motifs");
        *map.entry(m).or_insert(0) += 1;
    }
    map
}

/// Figure 6: motif × domain cross-tabulation over INCITE+ALCC+ECP users.
/// Rows follow [`DOMAIN_ROWS`], columns [`MOTIF_COLUMNS`].
pub fn motif_by_domain(records: &[ProjectRecord]) -> [[u32; 11]; 9] {
    let mut matrix = [[0u32; 11]; 9];
    for r in iae_user_records(records) {
        let motif = r.motif.expect("users have motifs");
        let row = DOMAIN_ROWS
            .iter()
            .position(|&d| d == r.domain)
            .expect("all domains in row order");
        let col = MOTIF_COLUMNS
            .iter()
            .position(|&m| m == motif)
            .expect("all motifs in column order");
        matrix[row][col] += 1;
    }
    matrix
}

/// Render a percentage bar (for the ASCII figure output).
fn bar(pct: f64, width: usize) -> String {
    let filled = (pct * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Render Figure 1 as ASCII.
pub fn render_fig1(counts: &UsageCounts) -> String {
    let mut out = String::from("Fig 1. Overall AI/ML usage, percentage of projects\n");
    for (label, pct) in [
        ("active", counts.active_pct()),
        ("inactive", counts.inactive_pct()),
        ("none", counts.none_pct()),
    ] {
        out.push_str(&format!(
            "{label:<9} {:>5.1}% |{}|\n",
            pct * 100.0,
            bar(pct, 40)
        ));
    }
    out
}

/// Render Figure 2 as ASCII.
pub fn render_fig2(map: &BTreeMap<(Program, u16), UsageCounts>) -> String {
    let mut out = String::from("Fig 2. AI/ML usage by program and year, percentage of projects\n");
    for ((program, year), counts) in map {
        out.push_str(&format!(
            "{:<7} {year}  active {:>5.1}%  inactive {:>5.1}%  (n={})\n",
            program.name(),
            counts.active_pct() * 100.0,
            counts.inactive_pct() * 100.0,
            counts.total()
        ));
    }
    out
}

/// Render Figure 3 as ASCII.
pub fn render_fig3(map: &BTreeMap<MlMethod, u32>) -> String {
    let total: u32 = map.values().sum();
    let mut out = String::from("Fig 3. Usage by AI/ML method, percentage of AI/ML projects\n");
    for (method, count) in map {
        let pct = f64::from(*count) / f64::from(total.max(1));
        out.push_str(&format!(
            "{:<13} {:>5.1}% |{}|\n",
            method.name(),
            pct * 100.0,
            bar(pct, 40)
        ));
    }
    out
}

/// Render Figure 4 as ASCII.
pub fn render_fig4(map: &BTreeMap<Domain, UsageCounts>) -> String {
    let mut out = String::from("Fig 4. AI/ML usage by science domain, project counts\n");
    for (domain, counts) in map {
        out.push_str(&format!(
            "{:<18} active {:>3}  inactive {:>3}  none {:>3}\n",
            domain.name(),
            counts.active,
            counts.inactive,
            counts.none
        ));
    }
    out
}

/// Render Figure 5 as ASCII.
pub fn render_fig5(map: &BTreeMap<Motif, u32>) -> String {
    let total: u32 = map.values().sum();
    let mut out =
        String::from("Fig 5. AI/ML usage by AI motif, percentage of INCITE/ALCC/ECP AI projects\n");
    // Sort by count descending for the classic bar-chart reading.
    let mut rows: Vec<(&Motif, &u32)> = map.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (motif, count) in rows {
        let pct = f64::from(*count) / f64::from(total.max(1));
        out.push_str(&format!(
            "{:<18} {:>5.1}% |{}|\n",
            motif.name(),
            pct * 100.0,
            bar(pct, 40)
        ));
    }
    out
}

/// Render Figure 6 as ASCII.
pub fn render_fig6(matrix: &[[u32; 11]; 9]) -> String {
    let mut out = String::from("Fig 6. AI motif vs. science domain, project counts\n");
    out.push_str(&format!("{:<18}", ""));
    for m in MOTIF_COLUMNS {
        let name = m.name();
        let short: String = name.chars().take(5).collect();
        out.push_str(&format!("{short:>6}"));
    }
    out.push('\n');
    for (d, row) in DOMAIN_ROWS.iter().zip(matrix.iter()) {
        out.push_str(&format!("{:<18}", d.name()));
        for v in row {
            out.push_str(&format!("{v:>6}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::build;

    #[test]
    fn fig1_matches_paper() {
        // "1/3 over Summit's lifespan have actively used AI/ML methods,
        // with another 8% indirect use."
        let counts = overall_usage(&build());
        assert_eq!(counts.total(), 645);
        assert!(
            (counts.active_pct() - 1.0 / 3.0).abs() < 0.01,
            "{}",
            counts.active_pct()
        );
        assert!(
            (counts.inactive_pct() - 0.08).abs() < 0.005,
            "{}",
            counts.inactive_pct()
        );
    }

    #[test]
    fn fig2_incite_grows_from_20_pct() {
        // "AI/ML adoption in INCITE ... has grown steadily from 20% in 2019"
        let map = usage_by_program_year(&build());
        let series: Vec<f64> = (2019..=2022)
            .map(|y| map[&(Program::Incite, y)].active_pct())
            .collect();
        assert!((series[0] - 0.20).abs() < 0.01, "2019 INCITE {series:?}");
        for w in series.windows(2) {
            assert!(w[1] > w[0], "INCITE active share must grow: {series:?}");
        }
        // Conclusions: "about 31% of INCITE projects actively using AI/ML
        // and another 28% ..." (the 2022 cohort).
        assert!((series[3] - 0.31).abs() < 0.01);
        let inactive_2022 = map[&(Program::Incite, 2022)].inactive_pct();
        assert!((inactive_2022 - 0.28).abs() < 0.02, "{inactive_2022}");
    }

    #[test]
    fn fig2_alcc_peak_and_covid_heavy() {
        let map = usage_by_program_year(&build());
        // "ALCC usage has been significant, especially in 2019-20".
        let alcc19 = map[&(Program::Alcc, 2019)].active_pct();
        let alcc21 = map[&(Program::Alcc, 2021)].active_pct();
        assert!(alcc19 > 0.45 && alcc19 > alcc21);
        // "COVID-19 projects use AI/ML heavily".
        let covid = map[&(Program::CovidConsortium, 2020)].active_pct();
        assert!(covid > 0.8);
        // "ECP projects understandably use AI/ML less".
        for y in 2019..=2021 {
            assert!(map[&(Program::Ecp, y)].active_pct() < 0.25);
        }
    }

    #[test]
    fn fig3_dl_dominates() {
        // "DL/NN methods are much more prevalent than others."
        let map = usage_by_method(&build());
        let total: u32 = map.values().sum();
        let dl = map[&MlMethod::DeepLearningOrNn];
        let other = map[&MlMethod::OtherMl];
        assert!(f64::from(dl) / f64::from(total) > 0.55, "DL {dl}/{total}");
        assert!(dl > 2 * other);
    }

    #[test]
    fn fig4_top_domains() {
        // "AI/ML adoption is highly differentiated by science domain, with
        // Biology, Computer Science and Materials being top categories."
        let map = usage_by_domain(&build());
        let users = |d: Domain| map[&d].active + map[&d].inactive;
        let mut by_users: Vec<(Domain, u32)> = Domain::ALL.iter().map(|&d| (d, users(d))).collect();
        by_users.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let top3: Vec<Domain> = by_users[..3].iter().map(|&(d, _)| d).collect();
        assert!(top3.contains(&Domain::Biology), "{by_users:?}");
        assert!(top3.contains(&Domain::ComputerScience), "{by_users:?}");
        assert!(
            top3.contains(&Domain::Materials) || by_users[3].0 == Domain::Materials,
            "{by_users:?}"
        );
    }

    #[test]
    fn fig5_submodel_family_structure() {
        // "The top motif is Submodels ... This with Classification,
        // Analysis, Surrogate Models and MD Potentials account for over 3/4
        // of usage."
        let map = usage_by_motif(&build());
        let total: u32 = map.values().sum();
        assert_eq!(total, 121);
        let submodel = map[&Motif::Submodel];
        for (m, &count) in &map {
            if *m != Motif::Submodel {
                assert!(submodel >= count, "{} beats submodel", m.name());
            }
        }
        let top5 = submodel
            + map[&Motif::Classification]
            + map[&Motif::Analysis]
            + map[&Motif::SurrogateModel]
            + map[&Motif::MdPotentials];
        assert!(
            f64::from(top5) / f64::from(total) > 0.75,
            "top-5 {top5}/{total}"
        );
    }

    #[test]
    fn fig6_structural_claims() {
        let matrix = motif_by_domain(&build());
        let row = |d: Domain| DOMAIN_ROWS.iter().position(|&x| x == d).unwrap();
        let col = |m: Motif| MOTIF_COLUMNS.iter().position(|&x| x == m).unwrap();
        // "The most prominent usage is Submodels by Engineering."
        let eng_sub = matrix[row(Domain::Engineering)][col(Motif::Submodel)];
        let max_cell = matrix.iter().flatten().copied().max().unwrap();
        assert_eq!(eng_sub, max_cell);
        // "Biology uses no Submodels (other than MD Potentials)" and its MD
        // potential users are otherwise classed.
        assert_eq!(matrix[row(Domain::Biology)][col(Motif::Submodel)], 0);
        assert_eq!(matrix[row(Domain::Biology)][col(Motif::MdPotentials)], 0);
        // "they have no Math/CS Algorithm components" (Computer Science).
        assert_eq!(
            matrix[row(Domain::ComputerScience)][col(Motif::MathCsAlgorithm)],
            0
        );
        // "Machine-learned MD Potentials are heavily used in Materials
        // projects; they are used in Fusion/Plasma".
        let md_col = col(Motif::MdPotentials);
        let md_total: u32 = matrix.iter().map(|r| r[md_col]).sum();
        assert!(matrix[row(Domain::Materials)][md_col] * 2 > md_total);
        assert!(matrix[row(Domain::FusionPlasma)][md_col] > 0);
        // "Computer Science contains many Classification projects."
        let cs_class = matrix[row(Domain::ComputerScience)][col(Motif::Classification)];
        let class_col: u32 = matrix.iter().map(|r| r[col(Motif::Classification)]).sum();
        assert!(f64::from(cs_class) / f64::from(class_col) > 0.4);
    }

    #[test]
    fn renders_are_nonempty_and_labelled() {
        let records = build();
        let f1 = render_fig1(&overall_usage(&records));
        assert!(f1.contains("active") && f1.contains('%'));
        let f2 = render_fig2(&usage_by_program_year(&records));
        assert!(f2.contains("INCITE") && f2.contains("2022"));
        let f3 = render_fig3(&usage_by_method(&records));
        assert!(f3.contains("DL/NN"));
        let f4 = render_fig4(&usage_by_domain(&records));
        assert!(f4.contains("Biology"));
        let f5 = render_fig5(&usage_by_motif(&records));
        assert!(f5.lines().nth(1).unwrap_or("").contains("submodel"));
        let f6 = render_fig6(&motif_by_domain(&records));
        assert!(f6.contains("Engineering"));
    }
}
