//! Pins the sparse Jacobian pattern the engine records from `Device::stamp`
//! on every shipped fixture.
//!
//! The counts are the sorted, de-duplicated device-stamp positions before
//! the engine adds the diagonal. They equal the patterns the devices used to
//! declare by hand, so the CSR layout and the sparse LU's pivot order (and
//! with them every sparse-backend result) are unchanged. A device whose
//! stamp gains or loses a derivative call moves one of these numbers.

use energy_harvester::experiments::arrays::coupled_array;
use energy_harvester::mna::circuit::Circuit;
use energy_harvester::mna::netlist;
use energy_harvester::mna::transient::jacobian_pattern;
use energy_harvester::models::{BoosterConfig, GeneratorModel, HarvesterConfig};
use std::path::PathBuf;

fn netlist_file(name: &str) -> Circuit {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/netlists")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    netlist::build(&text).expect("shipped netlist must build")
}

fn harvester(model: GeneratorModel, booster: BoosterConfig) -> Circuit {
    HarvesterConfig {
        model,
        booster,
        ..HarvesterConfig::unoptimised()
    }
    .build()
    .0
}

#[test]
fn recorded_patterns_match_the_pinned_entry_counts() {
    let villard = HarvesterConfig::model_comparison(GeneratorModel::Analytical).booster;
    let transformer = HarvesterConfig::unoptimised().booster;
    let half_wave = BoosterConfig::HalfWaveRectifier;
    let fixtures: Vec<(&str, Circuit, usize)> = vec![
        ("villard.cir", netlist_file("villard.cir"), 49),
        (
            "transformer_booster.cir",
            netlist_file("transformer_booster.cir"),
            24,
        ),
        ("coupled_array4.cir", netlist_file("coupled_array4.cir"), 42),
        ("coupled_array(32)", coupled_array(32).circuit, 294),
        ("coupled_array(64)", coupled_array(64).circuit, 582),
        (
            "HarvesterConfig::unoptimised()",
            HarvesterConfig::unoptimised().build().0,
            35,
        ),
        (
            "analytical Villard harvester",
            harvester(GeneratorModel::Analytical, villard),
            60,
        ),
        (
            "half-wave harvester",
            harvester(GeneratorModel::Analytical, half_wave),
            17,
        ),
        (
            "ideal-source transformer",
            harvester(GeneratorModel::IdealSource, transformer),
            27,
        ),
        (
            "ideal-source half-wave",
            harvester(GeneratorModel::IdealSource, half_wave),
            9,
        ),
        (
            "ideal-source Villard",
            harvester(GeneratorModel::IdealSource, villard),
            52,
        ),
    ];
    for (name, circuit, expected) in fixtures {
        let pattern = jacobian_pattern(&circuit).expect("fixture must have a layout");
        assert_eq!(pattern.len(), expected, "{name}");
        assert!(
            pattern.windows(2).all(|w| w[0] < w[1]),
            "{name}: pattern must be sorted and de-duplicated"
        );
    }
}
