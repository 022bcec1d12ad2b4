//! Static assertions that the sweep-facing flow types cross thread
//! boundaries.
//!
//! The `relia-jobs` worker pool shares [`FlowConfig`] and [`AnalysisPrep`]
//! between workers via `Arc` and moves [`AgingReport`]s back over channels;
//! these bounds are part of the crate's public contract, so their loss (e.g.
//! by an `Rc` sneaking into a field) must fail compilation here rather than
//! in a downstream crate.

#![allow(clippy::unwrap_used)]
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
fn cached_run_matches_uncached_run_closely() {
    let circuit = relia_netlist::iscas::c17();
    let config = FlowConfig::paper_defaults().unwrap();
    let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
    for policy in [
        StandbyPolicy::AllInternalZero,
        StandbyPolicy::AllInternalOne,
        StandbyPolicy::InputVector(vec![true, false, true, false, true]),
    ] {
        let direct = analysis.run(&policy).unwrap();
        let cached = analysis.run_with_cache(&policy, &NoCache).unwrap();
        for (a, b) in direct
            .gate_delta_vth
            .iter()
            .zip(cached.gate_delta_vth.iter())
        {
            // The cached path evaluates at the quantized canonical point;
            // the perturbation is parts in 1e10.
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1e-12), "{a} vs {b}");
        }
        assert_eq!(direct.standby_leakage, cached.standby_leakage);
        assert_eq!(direct.active_leakage, cached.active_leakage);
    }
}

#[test]
fn cached_and_uncached_paths_refuse_the_same_lifetimes() {
    let circuit = relia_netlist::iscas::c17();
    let config = FlowConfig::paper_defaults().unwrap();
    let analysis = AgingAnalysis::new(&config, &circuit).unwrap();
    let policy = StandbyPolicy::AllInternalZero;
    for t in [-1.0, f64::NAN, f64::INFINITY] {
        let t = relia_core::Seconds(t);
        let direct = analysis.gate_delta_vth_at(&policy, t).unwrap_err();
        let cached = analysis
            .gate_delta_vth_at_cached(&policy, t, &NoCache)
            .unwrap_err();
        assert_eq!(cached.to_string(), direct.to_string(), "{t:?}");
        assert!(direct.to_string().contains("total_time"), "{direct}");
    }
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
    // `&C` forwarding lets a shared cache be passed by reference through
    // the generic entry points.
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
    batches: std::cell::Cell<usize>,
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
        self.batches.set(self.batches.get() + 1);
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
        batches: std::cell::Cell::new(0),
    };
    let got =
        analysis.gate_delta_vth_at_cached_cancellable(&policy, config.lifetime, &cache, &token);
    assert!(
        matches!(got, Err(relia_flow::FlowError::Cancelled)),
        "{got:?}"
    );
    assert_eq!(
        cache.batches.get(),
        1,
        "the loop stops after its first batch"
    );
    // Uncancelled, the same cache serves every gate, bit-equal to NoCache.
    let fresh = relia_core::CancelToken::new();
    let all = CancelOnBatch {
        token: &relia_core::CancelToken::new(),
        batches: std::cell::Cell::new(0),
    };
    let served = analysis
        .gate_delta_vth_at_cached_cancellable(&policy, config.lifetime, &all, &fresh)
        .unwrap();
    let direct = analysis
        .gate_delta_vth_at_cached(&policy, config.lifetime, &NoCache)
        .unwrap();
    assert_eq!(served, direct);
    assert_eq!(served.len(), circuit.gates().len());
    assert!(all.batches.get() > 1, "c432 spans several chunks");
}
