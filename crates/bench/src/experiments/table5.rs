//! Table V — hardware implementation cost (latency @ 10 ns, area % of an
//! OpenSPARC core) of the 2SMaRT detectors at 8 / 4 / 4-boosted HPCs.
//!
//! Costs are extracted from the *fitted* models via
//! [`hmd_hwmodel::extract_topology`] and priced by the calibrated
//! [`CostModel`]. Per classifier we report the mean over the four
//! per-class specialized detectors (the paper reports one row per
//! classifier).

use crate::grid::HpcConfig;
use crate::report::markdown_table;
use hmd_hpc_sim::workload::AppClass;
use hmd_hwmodel::{extract_topology, CostModel};
use hmd_ml::classifier::ClassifierKind;
use hmd_ml::data::Dataset;
use twosmart::features::COMMON_EVENTS;
use twosmart::pipeline::class_dataset_from;
use twosmart::stage1::Stage1Model;
use twosmart::stage2::SpecializedDetector;

/// Paper's published Table V `(latency, area %)` anchors.
pub fn paper_cell(kind: ClassifierKind, config: HpcConfig) -> Option<(u64, f64)> {
    use ClassifierKind::*;
    use HpcConfig::*;
    let v = match (kind, config) {
        (J48, Hpc8) => (9, 3.0),
        (J48, Hpc4) => (3, 0.93),
        (J48, Hpc4Boosted) => (67, 4.3),
        (JRip, Hpc8) => (4, 2.5),
        (JRip, Hpc4) => (2, 0.26),
        (JRip, Hpc4Boosted) => (56, 5.3),
        (Mlp, Hpc8) => (302, 61.1),
        (Mlp, Hpc4) => (102, 43.2),
        (Mlp, Hpc4Boosted) => (591, 61.7),
        (OneR, Hpc8) => (1, 2.1),
        (OneR, Hpc4) => (1, 0.49),
        (OneR, Hpc4Boosted) => (70, 5.1),
        _ => return None,
    };
    Some(v)
}

/// Mean `(latency, area %)` over the four per-class detectors for one
/// classifier/config cell.
///
/// # Panics
///
/// Panics if training or topology extraction fails.
pub fn measure_cell(
    train: &Dataset,
    kind: ClassifierKind,
    config: HpcConfig,
    seed: u64,
) -> (f64, f64) {
    let cost = CostModel::default();
    let mut lat_sum = 0.0;
    let mut area_sum = 0.0;
    for class in AppClass::MALWARE {
        let binary = class_dataset_from(train, class);
        let det = SpecializedDetector::train(&binary, class, &config.stage2_config(kind), seed)
            .expect("detector trains");
        let topo = extract_topology(det.model()).expect("known model kind");
        let (lat, area) = cost.table_v_cell(&topo);
        lat_sum += lat as f64;
        area_sum += area;
    }
    (lat_sum / 4.0, area_sum / 4.0)
}

/// Renders Table V, including the stage-1 MLR cost footnote.
///
/// # Panics
///
/// Panics if training fails.
pub fn run(train: &Dataset, seed: u64) -> String {
    let configs = [HpcConfig::Hpc8, HpcConfig::Hpc4, HpcConfig::Hpc4Boosted];
    let mut out = String::new();
    out.push_str("## Table V — hardware implementation cost of the detectors\n\n");
    out.push_str(
        "Each cell: mean over the four per-class detectors, as \
         `latency cycles / area %` — measured (paper).\n\n",
    );

    let header: Vec<String> = std::iter::once("Classifier".to_string())
        .chain(configs.iter().map(|c| format!("{} HPC", c.label())))
        .collect();
    let rows: Vec<Vec<String>> = ClassifierKind::ALL
        .iter()
        .map(|&kind| {
            std::iter::once(kind.name().to_string())
                .chain(configs.iter().map(|&config| {
                    let (lat, area) = measure_cell(train, kind, config, seed);
                    match paper_cell(kind, config) {
                        Some((pl, pa)) => {
                            format!("{lat:.0} / {area:.2}% ({pl} / {pa}%)")
                        }
                        None => format!("{lat:.0} / {area:.2}%"),
                    }
                }))
                .collect()
        })
        .collect();
    out.push_str(&markdown_table(&header, &rows));

    // Stage-1 routing cost (the paper folds it into the reported latency).
    // Train a bare MLR on the stage-1 problem to expose its topology
    // (Stage1Model wraps an identical one).
    let stage1 = Stage1Model::train(train, &COMMON_EVENTS).expect("stage-1 trains");
    let reduced = twosmart::pipeline::select_events(train, stage1.events());
    let mut mlr = hmd_ml::logistic::Mlr::new();
    hmd_ml::classifier::Classifier::fit(&mut mlr, &reduced).expect("MLR trains");
    let cost = CostModel::default();
    let topo = extract_topology(&mlr).expect("fitted MLR");
    let (lat, area) = cost.table_v_cell(&topo);
    out.push_str(&format!(
        "\nStage-1 MLR (4 common HPCs, shared by every configuration): \
         {lat} cycles, {area:.2} % area.\n"
    ));
    out.push_str(
        "Expected shape: MLP dominates both latency and area; boosting \
         multiplies the shallow models' latency by the ensemble size but adds \
         only parameter storage (a few % area); 4-HPC models are cheaper than \
         8-HPC ones.\n",
    );

    // ASIC projection of the extremes, since the paper notes the FPGA
    // numbers are proportional to an ASIC implementation.
    {
        use hmd_hwmodel::asic::{AsicProjection, ProcessNode};
        let binary = class_dataset_from(train, AppClass::Trojan);
        let project = |kind: ClassifierKind| -> f64 {
            let config = HpcConfig::Hpc4.stage2_config(kind);
            let det = SpecializedDetector::train(&binary, AppClass::Trojan, &config, seed)
                .expect("detector trains");
            let topo = extract_topology(det.model()).expect("known model");
            AsicProjection::project(&cost.resources(&topo), ProcessNode::N28).area_mm2()
        };
        out.push_str(&format!(
            "\nASIC projection at 28 nm (4-HPC Trojan detector): OneR \
             {:.4} mm², MLP {:.4} mm² — both far below a core's footprint, \
             as the paper's \"small hardware cost\" claim requires.\n",
            project(ClassifierKind::OneR),
            project(ClassifierKind::Mlp),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{Experiment, Scale};

    #[test]
    fn paper_anchors_match_publication() {
        assert_eq!(
            paper_cell(ClassifierKind::Mlp, HpcConfig::Hpc8),
            Some((302, 61.1))
        );
        assert_eq!(
            paper_cell(ClassifierKind::OneR, HpcConfig::Hpc4),
            Some((1, 0.49))
        );
        assert_eq!(paper_cell(ClassifierKind::J48, HpcConfig::Hpc16), None);
    }

    #[test]
    fn mlp_costs_dominate() {
        let exp = Experiment::prepare(Scale::Tiny);
        let (mlp_lat, mlp_area) = measure_cell(&exp.train, ClassifierKind::Mlp, HpcConfig::Hpc8, 0);
        let (tree_lat, tree_area) =
            measure_cell(&exp.train, ClassifierKind::J48, HpcConfig::Hpc8, 0);
        assert!(mlp_lat > tree_lat);
        assert!(mlp_area > tree_area);
    }

    #[test]
    fn boosting_increases_latency() {
        let exp = Experiment::prepare(Scale::Tiny);
        let (plain, _) = measure_cell(&exp.train, ClassifierKind::OneR, HpcConfig::Hpc4, 0);
        let (boosted, _) =
            measure_cell(&exp.train, ClassifierKind::OneR, HpcConfig::Hpc4Boosted, 0);
        assert!(boosted > plain, "boosted {boosted} vs plain {plain}");
    }

    #[test]
    fn report_renders_with_stage1_footnote() {
        let exp = Experiment::prepare(Scale::Tiny);
        let t = run(&exp.train, 0);
        assert!(t.contains("Stage-1 MLR"));
        assert!(t.contains("MLP"));
    }
}
