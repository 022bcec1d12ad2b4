//! Static assertions that the sweep-facing flow types cross thread
//! boundaries.
//!
//! The `relia-jobs` worker pool shares [`FlowConfig`] and [`AnalysisPrep`]
//! between workers via `Arc` and moves [`AgingReport`]s back over channels;
//! these bounds are part of the crate's public contract, so their loss (e.g.
//! by an `Rc` sneaking into a field) must fail compilation here rather than
//! in a downstream crate.

use std::sync::atomic::{AtomicUsize, Ordering};

use relia_flow::{
    AgingAnalysis, AgingReport, AnalysisPrep, DeltaVthCache, FlowConfig, NoCache, StandbyPolicy,
};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn sweep_types_are_send_and_sync() {
    assert_send_sync::<FlowConfig>();
    assert_send_sync::<AnalysisPrep>();
    assert_send_sync::<StandbyPolicy>();
    assert_send_sync::<AgingReport>();
    assert_send_sync::<NoCache>();
    assert_send_sync::<AgingAnalysis<'static>>();
    assert_send_sync::<relia_core::StressKey>();
    assert_send_sync::<relia_core::NbtiModel>();
    assert_send_sync::<relia_netlist::Circuit>();
}

#[test]
fn prep_reuse_matches_fresh_analysis() {
    let circuit = relia_netlist::iscas::c17();
    let base = FlowConfig::paper_defaults().unwrap();
    let prep = AgingAnalysis::prep(&base, &circuit).unwrap();

    // A config differing only in schedule/lifetime may reuse the prep.
    let mut swept = FlowConfig::with_schedule(
        relia_core::Ras::new(1.0, 5.0).unwrap(),
        relia_core::Kelvin(360.0),
    )
    .unwrap();
    swept.lifetime = relia_core::Seconds(3.0e7);

    let fresh = AgingAnalysis::new(&swept, &circuit).unwrap();
    let reused = AgingAnalysis::from_prep(&swept, &circuit, prep);
    let a = fresh.run(&StandbyPolicy::AllInternalZero).unwrap();
    let b = reused.run(&StandbyPolicy::AllInternalZero).unwrap();
    assert_eq!(a.gate_delta_vth, b.gate_delta_vth);
    assert_eq!(a.active_leakage, b.active_leakage);
}

#[test]
fn cache_trait_is_object_safe_through_references() {
    // `AgingAnalysis::with_cache` takes the shared table as a trait object.
    let model = relia_core::NbtiModel::ptm90().unwrap();
    let config = FlowConfig::paper_defaults().unwrap();
    let key = config
        .stress_key(
            &relia_core::PmosStress::worst_case(),
            relia_core::Seconds(1.0e8),
        )
        .unwrap();
    let cache = NoCache;
    let via_ref: &dyn DeltaVthCache = &cache;
    assert_eq!(
        via_ref.delta_vth(key, &model).unwrap(),
        key.evaluate(&model).unwrap()
    );
}

/// A memo table that cancels `token` whenever it is handed a batch, and
/// counts the batches.
struct CancelOnBatch<'a> {
    token: &'a relia_core::CancelToken,
    batches: AtomicUsize,
}

impl DeltaVthCache for CancelOnBatch<'_> {
    fn delta_vth(
        &self,
        key: relia_core::StressKey,
        model: &relia_core::NbtiModel,
    ) -> Result<f64, relia_core::ModelError> {
        key.evaluate(model)
    }

    fn delta_vth_many(
        &self,
        keys: &[relia_core::StressKey],
        model: &relia_core::NbtiModel,
    ) -> Vec<Result<f64, relia_core::ModelError>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.token.cancel();
        relia_core::StressKey::evaluate_many(keys, model)
    }
}

#[test]
fn cancellation_is_polled_between_gate_chunks() {
    let circuit = relia_netlist::iscas::circuit("c432").unwrap();
    let config = FlowConfig::paper_defaults().unwrap();
    let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
    let policy = StandbyPolicy::AllInternalZero;
    let token = relia_core::CancelToken::new();
    let cache = CancelOnBatch {
        token: &token,
        batches: AtomicUsize::new(0),
    };
    let got = analysis
        .clone()
        .with_cache(&cache, &token)
        .gate_delta_vth(&policy, config.lifetime);
    assert!(
        matches!(got, Err(relia_flow::FlowError::Cancelled)),
        "{got:?}"
    );
    assert_eq!(
        cache.batches.load(Ordering::Relaxed),
        1,
        "the loop stops after its first batch"
    );
    // Uncancelled, the same cache serves every gate, bit-equal to NoCache.
    let fresh = relia_core::CancelToken::new();
    let all = CancelOnBatch {
        token: &relia_core::CancelToken::new(),
        batches: AtomicUsize::new(0),
    };
    let served = analysis
        .clone()
        .with_cache(&all, &fresh)
        .gate_delta_vth(&policy, config.lifetime)
        .unwrap();
    let direct = analysis.gate_delta_vth(&policy, config.lifetime).unwrap();
    assert_eq!(served, direct);
    assert_eq!(served.len(), circuit.gates().len());
    assert!(
        all.batches.load(Ordering::Relaxed) > 1,
        "c432 spans several chunks"
    );
}
