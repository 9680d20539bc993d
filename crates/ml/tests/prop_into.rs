//! Property-based checks of the one scoring path every classifier
//! implements: `predict_proba_into` must overwrite every slot of `out`, so
//! no stale buffer contents leak into a result, must return the same bits
//! on a repeated call through the same scratch state, and the trait's
//! `predict_proba_batch_into` must match a per-lane `predict_proba_into`
//! bit-for-bit on any fitted model and any input — not merely approximately.
//! The determinism gates of this repo compare serialized probabilities, so
//! a single differing ULP anywhere in the hot path would be a regression.

use hmd_ml::prelude::*;
use proptest::prelude::*;

/// Arbitrary small binary dataset with at least 4 instances per class.
fn arb_binary_dataset() -> impl Strategy<Value = Dataset> {
    (4usize..=12, 1usize..=4).prop_flat_map(|(per_class, d)| {
        let n = per_class * 2;
        (
            proptest::collection::vec(proptest::collection::vec(-1e6f64..1e6, d), n),
            Just(per_class),
        )
            .prop_map(move |(features, per_class)| {
                let labels: Vec<usize> = (0..per_class * 2).map(|i| i % 2).collect();
                Dataset::new(features, labels, 2).expect("constructed valid")
            })
    })
}

/// Asserts `predict_proba_into` overwrites every slot of `out` on every
/// training row: a NaN-poisoned buffer must come back bit-identical to
/// `predict_proba`, whose fresh buffer starts at zero, so a slot left
/// unwritten would differ between the two.
fn assert_into_bit_identical(model: &dyn Classifier, data: &Dataset, label: &str) {
    let mut out = vec![f64::NAN; model.n_classes()];
    for i in 0..data.len() {
        let x = data.features_of(i);
        let zeroed = model.predict_proba(x);
        out.fill(f64::NAN);
        model.predict_proba_into(x, &mut out);
        let a: Vec<u64> = zeroed.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "{label}: row {i}: {zeroed:?} vs {out:?}");
        // Repeat once through the same scratch buffers: the reused
        // thread-local state must not drift between calls.
        model.predict_proba_into(x, &mut out);
        let c: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, c, "{label}: row {i} second call diverged");
    }
}

/// Asserts `predict_proba_batch_into` ≡ per-lane `predict_proba_into`
/// bit-for-bit, over a batch built from the training rows cycled to
/// `lanes` width (so duplicate lanes exercise shared-scratch reuse).
fn assert_batch_bit_identical(model: &dyn Classifier, data: &Dataset, lanes: usize, label: &str) {
    let k = model.n_classes();
    let mut batch = BatchScratch::new();
    batch.reset(data.n_features(), lanes);
    for lane in 0..lanes {
        for (feature, &v) in data.features_of(lane % data.len()).iter().enumerate() {
            batch.set(lane, feature, v);
        }
    }
    let mut out = vec![f64::NAN; lanes * k];
    model.predict_proba_batch_into(&batch, &mut out);
    let mut scalar = vec![f64::NAN; k];
    for lane in 0..lanes {
        let x = data.features_of(lane % data.len());
        scalar.fill(f64::NAN);
        model.predict_proba_into(x, &mut scalar);
        let a: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = out[lane * k..(lane + 1) * k]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            a,
            b,
            "{label}: lane {lane}/{lanes}: {scalar:?} vs {:?}",
            &out[lane * k..(lane + 1) * k]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn predict_proba_into_is_bit_identical_for_every_kind(
        data in arb_binary_dataset(),
        seed in any::<u64>(),
    ) {
        // MLP epochs trimmed: the property is bit-identity, not accuracy.
        let kinds = ClassifierKind::ALL.into_iter().map(|kind| match kind {
            ClassifierKind::Mlp => {
                Box::new(Mlp::new(seed).with_epochs(5)) as Box<dyn Classifier>
            }
            other => other.build(seed),
        });
        // Stage 1's MLR and the extended baselines, through the same
        // checks.
        let baselines: [Box<dyn Classifier>; 3] = [
            Box::new(Mlr::new()),
            Box::new(NaiveBayes::new()),
            Box::new(Knn::new(3)),
        ];
        for mut model in kinds.chain(baselines) {
            model.fit(&data).expect("fit succeeds on valid data");
            assert_into_bit_identical(model.as_ref(), &data, model.name());
            for lanes in [1, 3, 17] {
                assert_batch_bit_identical(model.as_ref(), &data, lanes, model.name());
            }
        }
    }

    #[test]
    fn predict_proba_into_is_bit_identical_for_ensembles(
        data in arb_binary_dataset(),
        seed in any::<u64>(),
    ) {
        let mut boosted = AdaBoost::new(ClassifierKind::OneR, 5, seed);
        boosted.fit(&data).expect("fit succeeds");
        assert_into_bit_identical(&boosted, &data, "AdaBoost");
        assert_batch_bit_identical(&boosted, &data, 9, "AdaBoost");

        // The AdaBoost a snapshot restores scores as the live one does.
        let restored = AnyModel::from_classifier(&boosted)
            .expect("snapshots")
            .into_classifier();
        for i in 0..data.len() {
            let x = data.features_of(i);
            prop_assert_eq!(restored.predict_proba(x), boosted.predict_proba(x));
        }
        assert_into_bit_identical(restored.as_ref(), &data, "restored AdaBoost");
        assert_batch_bit_identical(restored.as_ref(), &data, 9, "restored AdaBoost");

        let mut bagged = Bagging::new(ClassifierKind::J48, 5, seed);
        bagged.fit(&data).expect("fit succeeds");
        assert_into_bit_identical(&bagged, &data, "Bagging");
        assert_batch_bit_identical(&bagged, &data, 9, "Bagging");

        let mut voting = Voting::new(&[ClassifierKind::OneR, ClassifierKind::J48], seed);
        voting.fit(&data).expect("fit succeeds");
        assert_into_bit_identical(&voting, &data, "Voting");
        assert_batch_bit_identical(&voting, &data, 9, "Voting");

        // 2 folds: the arbitrary dataset guarantees only 4 instances per
        // class, fewer than the default 5 CV folds.
        let mut stacked =
            Stacking::new(&[ClassifierKind::OneR, ClassifierKind::J48], seed).with_folds(2);
        stacked.fit(&data).expect("fit succeeds");
        assert_into_bit_identical(&stacked, &data, "Stacking");
    }
}
