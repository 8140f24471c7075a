//! Quantitative checks against numbers stated in the paper that are exact
//! architecture arithmetic (not training outcomes): Table II/III model
//! costs, the `Ccode,max` bound of Eq. 2, and the Eyeriss model
//! configuration of §IV-B — plus one consistency check that the headline
//! table EXPERIMENTS.md prints is the committed `results/headline.json`.

use alf::core::models::geometry;
use alf::core::{ConvShape, NetworkCost};
use alf::hwmodel::Accelerator;

#[test]
fn table2_vanilla_row_exact_params() {
    // Conv-only parameter count of Plain-20/ResNet-20:
    // 432 + 6·2304 + 4608 + 5·9216 + 18432 + 5·36864 = 267,696.
    let layers = geometry::plain20_layers(32);
    let cost = NetworkCost::of_layers(&layers);
    assert_eq!(cost.params, 267_696);
}

#[test]
fn table2_vanilla_row_matches_paper_tolerances() {
    let layers = geometry::plain20_layers(32);
    let cost = NetworkCost::of_layers(&layers);
    let params_m = cost.params as f64 / 1e6;
    let mops = cost.ops() as f64 / 1e6;
    assert!(
        (params_m - 0.27).abs() < 0.005,
        "params {params_m} M vs 0.27 M"
    );
    assert!((mops - 81.1).abs() < 0.5, "{mops} MOPs vs 81.1 MOPs");
}

#[test]
fn table3_static_rows_match_paper_within_five_percent() {
    // (ours vs paper): SqueezeNet 1.23M/1722, GoogleNet 6.80M/3004,
    // ResNet-18 11.83M/3743 — architecture arithmetic conventions differ
    // slightly between papers, so allow 7%.
    let checks = [
        (geometry::squeezenet_layers(), 1.23e6, 1722e6),
        (geometry::googlenet_layers(), 6.80e6, 3004e6),
        (geometry::resnet18_layers(), 11.83e6, 3743e6),
    ];
    for (arch, paper_params, paper_ops) in checks {
        let dp = (arch.params() as f64 - paper_params).abs() / paper_params;
        let dops = (arch.ops() as f64 - paper_ops).abs() / paper_ops;
        assert!(dp < 0.07, "{}: params off by {:.1}%", arch.name, 100.0 * dp);
        assert!(
            dops < 0.07,
            "{}: OPs off by {:.1}%",
            arch.name,
            100.0 * dops
        );
    }
}

#[test]
fn eq2_bound_for_the_paper_example_layers() {
    // Stage-1 CIFAR layer (16→16, 3×3): the ALF block must save whenever
    // fewer than Ccode,max = 14 filters remain.
    let l = ConvShape::new("conv2x", 16, 16, 3, 1, 32, 32);
    assert_eq!(l.c_code_max(), 14);
    // Stage-3 layer (64→64, 3×3): 64·64·9/(64·9 + 64) = 57.6 → 57.
    let l = ConvShape::new("conv4x", 64, 64, 3, 1, 8, 8);
    assert_eq!(l.c_code_max(), 57);
    for c in 1..=l.c_code_max() {
        assert!(l.alf_ops(c) <= l.ops());
    }
    assert!(l.alf_ops(l.c_code_max() + 1) > l.ops());
}

#[test]
fn eyeriss_model_matches_section_4b() {
    // "16×16 array of PEs … combined RFs add up to 220 words … global
    // buffer 128 KB … word-width 16 bits".
    let acc = Accelerator::eyeriss();
    assert_eq!(acc.pe_count(), 256);
    assert_eq!(acc.rf_words_per_pe, 220);
    assert_eq!(acc.global_buffer_words * acc.word_bytes, 128 * 1024);
    assert_eq!(acc.word_bytes, 2);
}

#[test]
fn alf_headline_is_reachable_at_paper_remaining_ratio() {
    // Fig. 2c: ~38.6% filters remain at (lr=1e-3, t=1e-4). At that ratio
    // the theoretical Params/OPs reductions bracket the paper's −70%/−61%.
    let layers = geometry::plain20_layers(32);
    let baseline = NetworkCost::of_layers(&layers);
    let ratio = 0.386f32;
    let alf = NetworkCost::of_alf_layers(
        layers
            .iter()
            .map(|s| (s, ((s.c_out as f32 * ratio).round() as usize).max(1)))
            .collect::<Vec<_>>(),
    );
    let (dp, dm) = alf.reduction_vs(&baseline);
    assert!(
        (55.0..80.0).contains(&dp),
        "params reduction {dp:.0}% should bracket the paper's 70%"
    );
    assert!(
        (45.0..75.0).contains(&dm),
        "ops reduction {dm:.0}% should bracket the paper's 61%"
    );
}

#[test]
fn experiments_headline_table_matches_committed_results() {
    // EXPERIMENTS.md's "Headline claim" table is a hand copy of
    // `results/headline.json`; each rounded metric must appear in the
    // "measured" cell of its row.
    let json = include_str!("../results/headline.json");
    let doc = include_str!("../EXPERIMENTS.md");
    let metric = |key: &str| -> f64 {
        let tag = format!("\"{key}\":");
        let start = json.find(&tag).unwrap_or_else(|| panic!("no {key}")) + tag.len();
        let end = start + json[start..].find([',', '}']).unwrap();
        json[start..end].parse().unwrap()
    };
    let rows = [
        ("parameters", format!("−{:.0}%", metric("param_reduction"))),
        ("operations", format!("−{:.0}%", metric("ops_reduction"))),
        (
            "execution time",
            format!("−{:.0}%", metric("latency_reduction")),
        ),
        ("energy", format!("−{:.0}%", metric("energy_reduction"))),
        (
            "accuracy drop",
            format!("{:.1} pts", 100.0 * metric("accuracy_drop")),
        ),
        (
            "remaining filters",
            format!("{:.0}%", 100.0 * metric("remaining_filters")),
        ),
    ];
    let table = &doc[doc.find("## Headline claim").expect("headline section")..];
    for (name, want) in rows {
        let row = table
            .lines()
            .find(|l| l.starts_with(&format!("| {name} |")))
            .unwrap_or_else(|| panic!("no '{name}' row"));
        let measured = row.split('|').nth(2).unwrap().trim();
        assert_eq!(measured, want, "EXPERIMENTS.md row '{name}'");
    }
}
