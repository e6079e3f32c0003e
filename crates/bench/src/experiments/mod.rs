//! The E1–E17 and E19 experiments (see DESIGN.md §2 for the paper
//! anchors; E18 compared two engines and retired with the second one).

pub mod e_chaos;
pub mod e_corpus;
pub mod e_dataflow;
pub mod e_durability;
pub mod e_feedback;
pub mod e_mangrove;
pub mod e_monitor;
pub mod e_obs;
pub mod e_pdms;
pub mod e_placement;
pub mod e_plancache;
pub mod e_views;

use crate::table::Table;

/// Run every experiment in order.
pub fn run_all() -> Vec<Table> {
    let mut tables = vec![
        e_pdms::e1_reachability(),
        e_pdms::e2_reformulation_pruning(),
        e_pdms::e3_xml_mapping(),
        e_mangrove::e4_instant_gratification(),
        e_mangrove::e5_cleaning_policies(),
        e_corpus::e6_matching_accuracy(),
        e_corpus::e7_design_advisor(),
        e_views::e8_updategrams(),
        e_corpus::e9_stats_scaling(),
        e_corpus::e10_join_effort(),
        e_placement::e11_placement(),
        e_chaos::e12_chaos(),
        e_plancache::e13_plan_cache(),
        e_obs::e14_calibration(),
        e_obs::e14_fetch_breakdown(),
    ];
    tables.extend(e_feedback::e15_tables());
    tables.push(e_durability::e16_durability());
    tables.extend(e_dataflow::e17_tables());
    tables.extend(e_monitor::e19_tables());
    tables
}

/// Run one experiment by id (`"E1"`..`"E17"`, `"E19"`). An experiment may
/// produce more than one table (E14 reports calibration and the fetch
/// breakdown; E15 reports calibration before/after feedback and the
/// loop's cost; E17 reports delta scaling and the subscriber-fan-out
/// shootout; E19 reports fault attribution and the telemetry-overhead
/// gate).
pub fn run_one(id: &str) -> Option<Vec<Table>> {
    let one = |t: Table| Some(vec![t]);
    match id.to_ascii_uppercase().as_str() {
        "E1" => one(e_pdms::e1_reachability()),
        "E2" => one(e_pdms::e2_reformulation_pruning()),
        "E3" => one(e_pdms::e3_xml_mapping()),
        "E4" => one(e_mangrove::e4_instant_gratification()),
        "E5" => one(e_mangrove::e5_cleaning_policies()),
        "E6" => one(e_corpus::e6_matching_accuracy()),
        "E7" => one(e_corpus::e7_design_advisor()),
        "E8" => one(e_views::e8_updategrams()),
        "E9" => one(e_corpus::e9_stats_scaling()),
        "E10" => one(e_corpus::e10_join_effort()),
        "E11" => one(e_placement::e11_placement()),
        "E12" => one(e_chaos::e12_chaos()),
        "E13" => one(e_plancache::e13_plan_cache()),
        "E14" => Some(vec![e_obs::e14_calibration(), e_obs::e14_fetch_breakdown()]),
        "E15" => Some(e_feedback::e15_tables()),
        "E16" => one(e_durability::e16_durability()),
        "E17" => Some(e_dataflow::e17_tables()),
        "E19" => Some(e_monitor::e19_tables()),
        _ => None,
    }
}
