//! Time-varying non-ideality benchmark: the cost of physical realism and
//! the drift-resilience campaign.
//!
//! Three questions, one record:
//!
//! 1. **What does the ideal mode cost?** An engine configured with
//!    `NonIdealityStack::ideal()` must read through the same epoch-versioned
//!    conductance cache as one with no stack at all — the ideal read path is
//!    the product's hot loop, so its ns/inference is gated against the
//!    checked-in `ideal_ns_per_inference_budget` of `NOISE_BUDGET.json`.
//! 2. **What does realism cost?** The same workload runs with a full
//!    drift + read-disturb + IR-drop stack; the slowdown factor is recorded
//!    (not gated — it is allowed to cost more, it just has to be honest).
//! 3. **Does recalibration work?** A Monte-Carlo noise campaign
//!    (`febim_core::noise_campaign`) measures fresh/aged/recovered accuracy
//!    per severity scenario, and the run asserts the recalibrated array
//!    recovers its fresh accuracy exactly (σ_VTH = 0 reprogramming is
//!    bit-exact) while doing real refresh work.
//!
//! Everything lands in `BENCH_noise.json`: the measured throughputs, the
//! realism overhead factor and the drift-resilience comparison table (see
//! the crate docs for the command line).

use serde::Serialize;

use febim_bench::{measure_reads, remeasure, request_stream, write_record, Args};
use febim_compare::ResilienceComparison;
use febim_core::{noise_campaign, EngineConfig, FebimEngine, NoiseScenario};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;
use febim_device::{NonIdealityStack, ReadDisturb, RetentionDrift, WireResistance};
use febim_quant::QuantConfig;

/// The persisted record tracking the realism-cost trajectory.
#[derive(Debug, Serialize)]
struct NoiseRecord {
    /// Inferences timed per measurement pass.
    inferences: usize,
    /// ns/inference of the ideal-stack engine — the gated hot path.
    ideal_ns_per_inference: f64,
    /// The `ideal_ns_per_inference_budget` the ideal path was gated against.
    ideal_ns_per_inference_budget: f64,
    /// ns/inference with the full drift + disturb + IR-drop stack active.
    noisy_ns_per_inference: f64,
    /// `noisy / ideal` — what physical realism costs on the read path.
    realism_overhead: f64,
    /// Worst accuracy retention across the campaign without recalibration.
    worst_retention_without_refresh: f64,
    /// Worst accuracy retention across the campaign with recalibration
    /// (asserted to be exactly 1.0: σ_VTH = 0 refresh is bit-exact).
    worst_retention_with_refresh: f64,
    /// The drift-resilience campaign table.
    resilience: ResilienceComparison,
}

/// The full-severity stack: retention drift, tier-quantized read disturb and
/// wordline/bitline IR-drop together.
fn severe_stack() -> NonIdealityStack {
    NonIdealityStack::ideal()
        .with_drift(RetentionDrift::new(0.05, 100))
        .with_disturb(ReadDisturb::new(64, 0.002))
        .with_wire(WireResistance::uniform(2.0))
}

fn main() {
    let args = Args::parse("BENCH_noise.json", Some("NOISE_BUDGET.json"));
    let inferences = if args.quick { 4_000 } else { 20_000 };
    let passes = if args.quick { 3 } else { 5 };
    let epochs = if args.quick { 2 } else { 8 };

    println!(
        "noise: timing the ideal vs non-ideal read path over {inferences} inferences \
         and running a {epochs}-epoch drift-resilience campaign ({} mode)\n",
        args.mode()
    );

    let dataset = iris_like(42).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).expect("split");
    let samples = request_stream(&split.test, inferences);

    // 1. The gated hot path: an ideal-stack engine reads through the cached
    //    conductances with zero non-ideality bookkeeping on the hot loop.
    let ideal_config = EngineConfig::febim_default().with_non_idealities(NonIdealityStack::ideal());
    let ideal_engine = FebimEngine::fit(&split.train, ideal_config).expect("ideal engine");
    let ideal_ns = measure_reads(&ideal_engine, &samples, passes);

    // 2. The realism cost: the same reads with the full severity stack, aged
    //    far enough that drift, disturb tiers and IR-drop are all active.
    let noisy_config = EngineConfig::febim_default().with_non_idealities(severe_stack());
    let mut noisy_engine = FebimEngine::fit(&split.train, noisy_config).expect("noisy engine");
    noisy_engine.advance_time(100_000);
    let noisy_ns = measure_reads(&noisy_engine, &samples, passes);

    // 3. The drift-resilience campaign: fresh vs aged vs recovered accuracy
    //    per severity scenario, with the refresh work priced by the Preisach
    //    programming model.
    let scenarios = [
        NoiseScenario::new("ideal", NonIdealityStack::ideal(), 100_000),
        NoiseScenario::new(
            "drift-only",
            NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.05, 100)),
            100_000,
        ),
        NoiseScenario::new("drift+disturb+ir", severe_stack(), 100_000),
    ];
    let points = noise_campaign(
        &dataset,
        &EngineConfig::febim_default(),
        &[QuantConfig::febim_optimal()],
        &scenarios,
        1e-6,
        0.7,
        epochs,
        42,
    )
    .expect("noise campaign");
    let resilience = ResilienceComparison::from_points(&points);
    println!("{}", resilience.to_table().to_pretty());

    let worst_without = resilience
        .worst_retention_without_refresh()
        .expect("campaign rows");
    let worst_with = resilience
        .worst_retention_with_refresh()
        .expect("campaign rows");
    println!(
        "resilience: worst retention {worst_without:.4} unrefreshed, {worst_with:.4} recalibrated"
    );
    assert!(
        (worst_with - 1.0).abs() < 1e-12,
        "recalibration must restore the fresh accuracy exactly under sigma=0 reprogramming \
         (measured {worst_with})"
    );
    assert!(
        points
            .iter()
            .filter(|point| point.label != "ideal")
            .all(|point| point.refresh.cells_refreshed > 0),
        "every drifted scenario must do real refresh work"
    );

    // Throughput gate: the ideal read path is the product's hot loop, so it
    // must hold the checked-in ns/inference budget. Re-measure with fresh
    // passes before failing a noisy run on a loaded host.
    let budget = args.threshold("ideal_ns_per_inference_budget");
    let ideal_ns = remeasure(
        ideal_ns,
        |&ideal_ns| ideal_ns <= budget,
        f64::min,
        |attempt, &ideal_ns| {
            println!(
                "re-measuring the ideal read path (attempt {attempt}, {ideal_ns:.1} ns vs \
                 {budget:.1} ns budget)"
            );
            measure_reads(&ideal_engine, &samples, passes + 1)
        },
    );
    let realism_overhead = noisy_ns / ideal_ns;
    println!(
        "throughput: ideal {ideal_ns:.1} ns/inference (budget {budget:.1} ns), \
         full stack {noisy_ns:.1} ns/inference ({realism_overhead:.2}x)"
    );
    assert!(
        ideal_ns <= budget,
        "the ideal-mode read throughput regressed past the checked-in budget \
         ({ideal_ns:.1} ns > {budget:.1} ns); fix the regression or re-baseline NOISE_BUDGET.json"
    );

    write_record(
        &args.out,
        "noise",
        args.quick,
        &NoiseRecord {
            inferences,
            ideal_ns_per_inference: ideal_ns,
            ideal_ns_per_inference_budget: budget,
            noisy_ns_per_inference: noisy_ns,
            realism_overhead,
            worst_retention_without_refresh: worst_without,
            worst_retention_with_refresh: worst_with,
            resilience,
        },
    );
}
