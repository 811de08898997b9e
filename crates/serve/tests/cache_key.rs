//! Cache-key stability: the same logical request must hash to the same key
//! no matter how it was spelled, scheduled, or iterated — and different
//! logical requests must not collide.

use lvf2::cells::{CellType, SlewLoadGrid, TimingArcSpec};
use lvf2::fit::FitConfig;
use lvf2::flow::FlowOptions;
use lvf2::mc::{McMode, VariationSpace};
use lvf2::parallel::Parallelism;
use lvf2_obs::json;
use lvf2_serve::request::JobRequest;
use lvf2_serve::{arc_cache_key, tail_cache_key};

fn base_options() -> FlowOptions {
    FlowOptions::builder()
        .samples(400)
        .grid(SlewLoadGrid::small_3x3())
        .build()
        .unwrap()
}

#[test]
fn thread_count_and_chunk_size_never_change_the_key() {
    let spec = TimingArcSpec::of(CellType::Inv, 0);
    let serial = base_options();
    let mut wide = base_options();
    wide.parallelism = Parallelism::auto().with_threads(8).with_chunk_size(7);
    let mut one = base_options();
    one.parallelism = Parallelism::serial();
    assert_eq!(arc_cache_key(&spec, &serial), arc_cache_key(&spec, &wide));
    assert_eq!(arc_cache_key(&spec, &serial), arc_cache_key(&spec, &one));
    assert_eq!(tail_cache_key(&spec, &serial), tail_cache_key(&spec, &wide));
}

/// Persisted `lvf2-store-v1` stores are addressed by these keys, so a change
/// to the hashed field set or its encoding would silently turn every stored
/// arc into a miss. The values are pinned as literals.
#[test]
fn keys_are_pinned_literals() {
    let spec = TimingArcSpec::of(CellType::Nand2, 0);
    let opts = base_options();
    assert_eq!(arc_cache_key(&spec, &opts), 0xb396_06b4_b7eb_235b);
    assert_eq!(tail_cache_key(&spec, &opts), 0x4c21_5e27_547d_789f);
}

#[test]
fn json_field_order_never_changes_the_key() {
    let a = json::parse(
        r#"{"type":"characterize","cells":["INV"],
            "options":{"samples":400,"grid":"3x3","is_target_sigma":3.5,
                       "variation":{"scale":1.25,"sigma_mu":0.05}}}"#,
    )
    .unwrap();
    let b = json::parse(
        r#"{"options":{"variation":{"sigma_mu":0.05,"scale":1.25},
                       "is_target_sigma":3.5,"grid":"3x3","samples":400},
            "cells":["INV"],"type":"characterize"}"#,
    )
    .unwrap();
    let (a, b) = (
        JobRequest::from_json(&a).unwrap(),
        JobRequest::from_json(&b).unwrap(),
    );
    let (JobRequest::Characterize(a), JobRequest::Characterize(b)) = (a, b) else {
        panic!("wrong variants")
    };
    let spec = TimingArcSpec::of(CellType::Inv, 0);
    assert_eq!(
        arc_cache_key(&spec, &a.options_for(CellType::Inv)),
        arc_cache_key(&spec, &b.options_for(CellType::Inv)),
    );
}

#[test]
fn sigma_scale_map_order_never_changes_the_key() {
    // JSON objects (and the HashMaps a client might build them from) have
    // arbitrary member order; the decoder canonicalizes before hashing.
    let a = json::parse(
        r#"{"type":"characterize","cells":["INV","NAND2","XOR2"],
            "sigma_scale":{"XOR2":1.1,"INV":1.2,"NAND2":1.5}}"#,
    )
    .unwrap();
    let b = json::parse(
        r#"{"type":"characterize","cells":["INV","NAND2","XOR2"],
            "sigma_scale":{"INV":1.2,"NAND2":1.5,"XOR2":1.1}}"#,
    )
    .unwrap();
    let (JobRequest::Characterize(a), JobRequest::Characterize(b)) = (
        JobRequest::from_json(&a).unwrap(),
        JobRequest::from_json(&b).unwrap(),
    ) else {
        panic!("wrong variants")
    };
    assert_eq!(a, b);
    for cell in [CellType::Inv, CellType::Nand2, CellType::Xor2] {
        let spec = TimingArcSpec::of(cell, 0);
        assert_eq!(
            arc_cache_key(&spec, &a.options_for(cell)),
            arc_cache_key(&spec, &b.options_for(cell)),
        );
    }
}

#[test]
fn keys_are_repeatable_within_a_process() {
    let spec = TimingArcSpec::of(CellType::HalfAdder, 3);
    let opts = base_options();
    let first = arc_cache_key(&spec, &opts);
    for _ in 0..100 {
        assert_eq!(arc_cache_key(&spec, &opts), first);
    }
}

#[test]
fn every_result_changing_input_changes_the_key() {
    let spec = TimingArcSpec::of(CellType::Inv, 0);
    let opts = base_options();
    let base = arc_cache_key(&spec, &opts);

    let other_arc = TimingArcSpec::of(CellType::Inv, 1);
    assert_ne!(arc_cache_key(&other_arc, &opts), base);
    let other_cell = TimingArcSpec::of(CellType::Buff, 0);
    assert_ne!(arc_cache_key(&other_cell, &opts), base);

    let mut m = opts.clone();
    m.samples = 401;
    assert_ne!(arc_cache_key(&spec, &m), base);

    let mut m = opts.clone();
    m.grid = SlewLoadGrid::paper_8x8();
    assert_ne!(arc_cache_key(&spec, &m), base);

    let mut m = opts.clone();
    m.variation = VariationSpace::tt_22nm().scaled(1.0000001);
    assert_ne!(arc_cache_key(&spec, &m), base, "σ scaling dirties the arc");

    let mut m = opts.clone();
    m.fit = FitConfig::fast().with_seed(999);
    assert_ne!(arc_cache_key(&spec, &m), base);

    let mut m = opts.clone();
    m.fit = FitConfig::fast().with_max_iterations(41);
    assert_ne!(arc_cache_key(&spec, &m), base);
}

#[test]
fn characterize_and_tail_keys_live_in_disjoint_spaces() {
    let spec = TimingArcSpec::of(CellType::Inv, 0);
    let opts = base_options();
    assert_ne!(arc_cache_key(&spec, &opts), tail_cache_key(&spec, &opts));

    // Tail keys react to the tail knobs; characterize keys do not.
    let mut m = opts.clone();
    m.tail_samples = 4096;
    m.mc_mode = McMode::ImportanceSampling;
    m.is_target_sigma = 3.5;
    assert_eq!(arc_cache_key(&spec, &opts), arc_cache_key(&spec, &m));
    assert_ne!(tail_cache_key(&spec, &opts), tail_cache_key(&spec, &m));
}
