//! Cross-crate property tests: invariants that span the substrate, the ML
//! layer and the 2SMaRT core.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use twosmart_suite::hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use twosmart_suite::hpc_sim::event::Event;
use twosmart_suite::hpc_sim::workload::AppClass;
use twosmart_suite::ml::classifier::ClassifierKind;
use twosmart_suite::twosmart::detector::{TwoSmartDetector, Verdict};
use twosmart_suite::twosmart::features::FeatureSet;
use twosmart_suite::twosmart::pipeline::{class_dataset_from, full_dataset, select_events};
use twosmart_suite::twosmart::stage2::events_for_budget;

fn tiny_corpus(seed: u64) -> twosmart_suite::hpc_sim::corpus::Corpus {
    CorpusBuilder::new(CorpusSpec {
        benign: 8,
        backdoor: 5,
        rootkit: 5,
        virus: 5,
        trojan: 5,
        samples_per_run: 5,
        label_noise: 0.0,
        seed,
    })
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn detector_verdicts_are_always_well_formed(seed in 0u64..1000) {
        let corpus = tiny_corpus(seed);
        let detector = TwoSmartDetector::builder()
            .seed(seed)
            .classifier_for(AppClass::Backdoor, ClassifierKind::OneR)
            .classifier_for(AppClass::Rootkit, ClassifierKind::OneR)
            .classifier_for(AppClass::Virus, ClassifierKind::OneR)
            .classifier_for(AppClass::Trojan, ClassifierKind::OneR)
            .train(&corpus)
            .expect("detector trains");
        for record in corpus.records() {
            match detector.detect(&record.features) {
                Verdict::Benign => {}
                Verdict::Malware { class, confidence } => {
                    prop_assert!(class.is_malware());
                    prop_assert!((0.0..=1.0).contains(&confidence));
                }
            }
        }
    }

    #[test]
    fn stage1_probabilities_form_a_distribution(seed in 0u64..1000) {
        let corpus = tiny_corpus(seed);
        let data = full_dataset(&corpus);
        let stage1 = twosmart_suite::twosmart::stage1::Stage1Model::train(
            &data,
            &twosmart_suite::twosmart::features::COMMON_EVENTS,
        )
        .expect("stage 1 trains");
        for record in corpus.records() {
            let p = stage1.class_probabilities(&record.features);
            prop_assert_eq!(p.len(), 5);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            prop_assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn budget_events_nest_and_contain_common(class_idx in 0usize..4) {
        let class = AppClass::MALWARE[class_idx];
        let corpus = tiny_corpus(11);
        let binary = class_dataset_from(&full_dataset(&corpus), class);
        let e4 = events_for_budget(&binary, class, 4);
        let e8 = events_for_budget(&binary, class, 8);
        let e16 = events_for_budget(&binary, class, 16);
        prop_assert_eq!(&e8[..4], &e4[..]);
        prop_assert_eq!(&e16[..8], &e8[..]);
        let published = FeatureSet::published(class);
        prop_assert_eq!(e4, published.common().to_vec());
    }

    #[test]
    fn select_events_matches_manual_projection(n in 1usize..10, seed in 0u64..100) {
        let corpus = tiny_corpus(seed);
        let data = full_dataset(&corpus);
        let events: Vec<Event> = Event::ALL.iter().copied().take(n).collect();
        let selected = select_events(&data, &events);
        prop_assert_eq!(selected.n_features(), n);
        let mut rng = StdRng::seed_from_u64(seed);
        let i = (rng.next_u64() % data.len() as u64) as usize;
        for (j, e) in events.iter().enumerate() {
            prop_assert_eq!(
                selected.features_of(i)[j],
                data.features_of(i)[e.index()]
            );
        }
    }
}

use rand::RngCore;
