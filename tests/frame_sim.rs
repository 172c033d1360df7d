//! Frame-simulation acceptance suite: the Monte-Carlo
//! aggregation (`simulate_frames`, the `mc_snr:<samples>` objective)
//! must be deterministic across thread counts and execution modes, and
//! a single-seed `simulate_frame` must be the batch engine run on a
//! batch of one. (The bit-exact scalar oracle of the engine is test
//! code inside camj-core: `functional::frame::tests`.)

use proptest::prelude::*;

use camj::core::energy::{CamJ, EstimateCache};
use camj::core::functional::{Spread, Stimulus};
use camj::explore::{Explorer, Objective, ParetoQuery, PointError, Sweep};
use camj::workloads::configs::SensorVariant;
use camj::workloads::{edgaze, quickstart};
use camj_tech::node::ProcessNode;

/// Forces the threaded rayon path (shared convention with
/// `tests/incremental.rs`: every test sets the same value).
fn force_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "8");
}

proptest! {
    /// `simulate_frames` is deterministic: the same seed list produces
    /// a byte-identical report on every call (the ziggurat streams are
    /// derived per seed × stage, never shared), whatever the thread
    /// count, and the batch decomposes seed-by-seed — each seed's
    /// digest is independent of which other seeds ride along. A single
    /// seed is a batch of one: `simulate_frame(s)` yields the frame and
    /// DAG digests of `simulate_frames(&[s])`, and every [`Spread`] of
    /// that batch has the frame's value as its mean and a zero std.
    #[test]
    fn monte_carlo_batches_are_deterministic(base in 0u64..1_000_000, count in 1usize..7) {
        force_threads();
        let model = quickstart::model(30.0).unwrap().into_validated();
        let stimulus = Stimulus::default();
        let seeds: Vec<u64> = (0..count as u64).map(|i| base + i).collect();
        let mc = model.simulate_frames(&seeds, &stimulus).unwrap();
        prop_assert_eq!(mc.seeds.as_slice(), seeds.as_slice());
        prop_assert_eq!(mc.digests.len(), count);
        let again = model.simulate_frames(&seeds, &stimulus).unwrap();
        prop_assert_eq!(&mc, &again, "replay must be byte-identical");
        for (i, &seed) in seeds.iter().enumerate() {
            let alone = model.simulate_frames(&[seed], &stimulus).unwrap();
            prop_assert_eq!(&mc.digests[i], &alone.digests[0], "seed {seed}");
            let single = model.simulate_frame(seed, &stimulus).unwrap();
            prop_assert_eq!(&single.digest, &alone.digests[0], "seed {seed}");
            let dag = single.dag.as_ref().expect("quickstart has a DAG");
            let batch_dag = alone.dag.as_ref().expect("quickstart has a DAG");
            prop_assert_eq!(&dag.digest, &batch_dag.digests[0], "seed {seed}");
            // A batch of one folds to exactly that frame's numbers:
            // every mean is the per-seed value, bit for bit, and every
            // spread is zero.
            let mut pairs: Vec<(Option<Spread>, Option<f64>)> = vec![
                (Some(alone.output.mean), Some(single.output.mean)),
                (Some(alone.output.min), Some(single.output.min)),
                (Some(alone.output.max), Some(single.output.max)),
                (Some(alone.output.noise_rms), Some(single.output.noise_rms)),
                (alone.output.snr_db, single.output.snr_db),
                (Some(batch_dag.metrics.mse), Some(dag.metrics.mse)),
                (Some(batch_dag.metrics.rmse), Some(dag.metrics.rmse)),
                (batch_dag.metrics.psnr_db, dag.metrics.psnr_db),
                (Some(batch_dag.metrics.centroid_err), Some(dag.metrics.centroid_err)),
            ];
            prop_assert_eq!(alone.stages.len(), single.stages.len());
            for (batch, one) in alone.stages.iter().zip(&single.stages) {
                prop_assert_eq!(&batch.unit, &one.unit);
                pairs.push((Some(batch.noise_rms), Some(one.noise_rms)));
                pairs.push((batch.snr_db, one.snr_db));
            }
            prop_assert_eq!(batch_dag.stages.len(), dag.stages.len());
            for (batch, one) in batch_dag.stages.iter().zip(&dag.stages) {
                prop_assert_eq!(&batch.stage, &one.stage);
                pairs.push((Some(batch.error_rms), Some(one.error_rms)));
                pairs.push((batch.snr_db, one.snr_db));
            }
            for (batch, one) in pairs {
                prop_assert_eq!(
                    batch.map(|s| (s.mean.to_bits(), s.std.to_bits())),
                    one.map(|v| (v.to_bits(), 0.0_f64.to_bits())),
                    "seed {}", seed
                );
            }
        }
    }
}

/// Monte-Carlo statistics behave like statistics: the spread is small
/// against the mean, the mean sits near the single-seed value, and the
/// mean SNR is present for a noisy chain.
#[test]
fn monte_carlo_aggregates_are_sane() {
    let model = edgaze::model(SensorVariant::TwoDIn, ProcessNode::N65)
        .unwrap()
        .into_validated();
    let seeds: Vec<u64> = (0..16).collect();
    let mc = model
        .simulate_frames(&seeds, &Stimulus::uniform(0.5))
        .unwrap();
    let rms = mc.output.noise_rms;
    assert!(rms.mean > 0.0);
    assert!(rms.std > 0.0, "16 seeds must show spread");
    assert!(
        rms.std < rms.mean / 2.0,
        "spread {} vs mean {}",
        rms.std,
        rms.mean
    );
    let snr = mc.output.snr_db.expect("noisy chain has an SNR").mean;
    let single = model
        .simulate_frame(0, &Stimulus::uniform(0.5))
        .unwrap()
        .output
        .snr_db
        .unwrap();
    assert!(
        (snr - single).abs() < 3.0,
        "mc {snr} dB vs seed-0 {single} dB"
    );
    for stage in &mc.stages {
        assert!(stage.noise_rms.mean >= 0.0);
        assert!(stage.noise_rms.std >= 0.0);
    }
}

/// The `mc_snr:<samples>` objective end-to-end: `Explorer::pareto`
/// accepts it, evaluates it deterministically, and serial and parallel
/// runs produce byte-identical frontiers.
#[test]
fn mc_snr_objective_is_deterministic_across_modes() {
    force_threads();
    let sweep = Sweep::new()
        .fps_targets([15.0, 30.0])
        .bit_widths([8, 10, 12]);
    let query = ParetoQuery::new(vec![
        Objective::TotalEnergy,
        "mc_snr:4".parse::<Objective>().unwrap(),
    ]);
    let build = |point: &camj::explore::DesignPoint| {
        edgaze::model_with(
            edgaze::EdGazeConfig::new(SensorVariant::TwoDIn, ProcessNode::N65)
                .with_adc_bits(point.u32("bit_width")),
        )
        .map(CamJ::into_validated)
        .map_err(PointError::new)
    };
    let serial_cache = EstimateCache::shared();
    let serial = Explorer::serial().pareto(&sweep, &serial_cache, &query, build);
    let parallel_cache = EstimateCache::shared();
    let parallel = Explorer::parallel().pareto(&sweep, &parallel_cache, &query, build);

    assert!(!serial.frontier().is_empty(), "some design must survive");
    assert_eq!(serial.frontier().len(), parallel.frontier().len());
    for (a, b) in serial.frontier().iter().zip(parallel.frontier().iter()) {
        assert_eq!(a.point, b.point);
        assert!(a.metrics.same_as(&b.metrics), "bitwise-equal frontiers");
    }
    // Fewer converter bits ⇒ more measured noise: the MC coordinate
    // orders designs the same way the physics does.
    let noise_at = |bits: u32| {
        serial
            .frontier()
            .iter()
            .find(|e| e.point.u32("bit_width") == bits)
            .map(|e| e.metrics.values()[1])
    };
    if let (Some(coarse), Some(fine)) = (noise_at(8), noise_at(12)) {
        assert!(coarse > fine, "8-bit {coarse} vs 12-bit {fine}");
    }
}

/// The objective grammar: round-trips, bounds-checks the sample count,
/// and rejects garbage.
#[test]
fn mc_snr_objective_grammar() {
    let o: Objective = "mc_snr:16".parse().unwrap();
    assert_eq!(o.to_string(), "mc_snr:16");
    assert_eq!(o.key(), "mc16_noise_rms");
    assert!("mc_snr:".parse::<Objective>().is_err());
    assert!("mc_snr:0".parse::<Objective>().is_err());
    assert!("mc_snr:100000".parse::<Objective>().is_err());
    assert!("mc_snr:x".parse::<Objective>().is_err());
}
