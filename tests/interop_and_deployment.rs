//! Integration tests of the interop and deployment paths: CSV round trips,
//! detector persistence, and online monitoring — the flows a downstream
//! adopter wires together.

use rand::rngs::StdRng;
use rand::SeedableRng;
use twosmart_suite::hpc_sim::corpus::{Corpus, CorpusBuilder, CorpusSpec};
use twosmart_suite::hpc_sim::io::corpus_to_csv;
use twosmart_suite::hpc_sim::perf::PerfSession;
use twosmart_suite::hpc_sim::workload::{AppClass, WorkloadSpec};
use twosmart_suite::hwmodel::topology::extract_topology;
use twosmart_suite::ml::classifier::ClassifierKind;
use twosmart_suite::ml::io::dataset_from_csv;
use twosmart_suite::twosmart::detector::TwoSmartDetector;
use twosmart_suite::twosmart::online::OnlineDetector;
use twosmart_suite::twosmart::persist::DetectorSnapshot;
use twosmart_suite::twosmart::pipeline::full_dataset;

fn corpus() -> Corpus {
    CorpusBuilder::new(CorpusSpec::tiny()).build()
}

#[test]
fn corpus_csv_round_trips_into_an_equivalent_dataset() {
    let corpus = corpus();
    let csv = corpus_to_csv(&corpus);
    // Strip the non-numeric family column, then parse with nominal labels.
    let projected: String = csv
        .lines()
        .map(|l| l.split_once(',').map(|x| x.1).expect("two columns minimum"))
        .collect::<Vec<_>>()
        .join("\n");
    let (parsed, names) = dataset_from_csv(&projected, "class", 5).expect("parses");
    let direct = full_dataset(&corpus);

    assert_eq!(parsed.len(), direct.len());
    assert_eq!(names.len(), 44);
    // Nominal labels map by first appearance; the corpus iterates classes
    // in canonical order, so the mapping is the identity.
    assert_eq!(parsed.labels(), direct.labels());
    for i in 0..parsed.len() {
        for (a, b) in parsed.features_of(i).iter().zip(direct.features_of(i)) {
            assert!((a - b).abs() <= b.abs() * 1e-12 + 1e-9, "{a} vs {b}");
        }
    }
}

#[test]
fn snapshot_file_round_trip_via_json() {
    let corpus = corpus();
    let detector = AppClass::MALWARE
        .iter()
        .fold(TwoSmartDetector::builder().seed(1), |b, &c| {
            b.classifier_for(c, ClassifierKind::JRip)
        })
        .train(&corpus)
        .expect("detector trains");
    let snapshot = DetectorSnapshot::capture(&detector).expect("snapshots");
    let json = serde_json::to_string(&snapshot).expect("serializes");
    let restored = serde_json::from_str::<DetectorSnapshot>(&json)
        .expect("deserializes")
        .restore();
    for r in corpus.records() {
        assert_eq!(restored.detect(&r.features), detector.detect(&r.features));
    }
}

/// A tiny detector with one specialist of each stage-2 kind.
fn one_of_each_kind(corpus: &Corpus, boosted: bool) -> TwoSmartDetector {
    AppClass::MALWARE
        .iter()
        .zip(ClassifierKind::ALL)
        .fold(
            TwoSmartDetector::builder().seed(3).boosted(boosted),
            |b, (&c, kind)| b.classifier_for(c, kind),
        )
        .train(corpus)
        .expect("detector trains")
}

#[test]
fn restored_detector_captures_back_to_its_snapshot() {
    let corpus = corpus();
    for boosted in [false, true] {
        let snapshot =
            DetectorSnapshot::capture(&one_of_each_kind(&corpus, boosted)).expect("snapshots");
        let restored = snapshot.try_restore().expect("restores");
        let recaptured = DetectorSnapshot::capture(&restored).expect("restored detector snapshots");
        assert!(recaptured == snapshot, "boosted={boosted}");
    }
}

#[test]
fn restored_specialists_keep_their_hardware_topology() {
    let corpus = corpus();
    for boosted in [false, true] {
        let live = one_of_each_kind(&corpus, boosted);
        let restored = DetectorSnapshot::capture(&live)
            .expect("snapshots")
            .try_restore()
            .expect("restores");
        for class in AppClass::MALWARE {
            let expected = extract_topology(live.stage2(class).model());
            assert!(
                expected.is_some(),
                "{class}: live specialist has a topology"
            );
            assert_eq!(
                extract_topology(restored.stage2(class).model()),
                expected,
                "{class}, boosted={boosted}"
            );
        }
    }
}

#[test]
fn online_monitor_flags_a_malware_stream() {
    let corpus = CorpusBuilder::new(CorpusSpec::small()).build();
    let detector = TwoSmartDetector::builder()
        .seed(3)
        .hpc_budget(4)
        .train(&corpus)
        .expect("detector trains");
    let events = detector.runtime_events().expect("deployable").to_vec();
    let session = PerfSession::open(&events).expect("4 events fit");
    let library = WorkloadSpec::library();
    let mut rng = StdRng::seed_from_u64(17);

    let flagged_frac = |class_filter: fn(AppClass) -> bool, rng: &mut StdRng| -> f64 {
        let mut flagged = 0;
        let mut total = 0;
        for spec in library.iter().filter(|w| class_filter(w.class)) {
            for _ in 0..4 {
                let mut online = OnlineDetector::new(detector.clone(), 15, 1).expect("deployable");
                let mut app = spec.spawn(rng);
                let mut verdict = None;
                for r in session.profile(&mut app, 15, rng) {
                    verdict = online.push(&r.counts);
                }
                total += 1;
                if verdict.expect("window filled").is_malware() {
                    flagged += 1;
                }
            }
        }
        flagged as f64 / total as f64
    };

    let malware_rate = flagged_frac(|c| c.is_malware(), &mut rng);
    let benign_rate = flagged_frac(|c| !c.is_malware(), &mut rng);
    assert!(
        malware_rate > 0.7,
        "malware detection rate {malware_rate} too low"
    );
    assert!(
        benign_rate < 0.4,
        "benign false-alarm rate {benign_rate} too high"
    );
    assert!(malware_rate > benign_rate + 0.3);
}

#[test]
fn threshold_tuning_integrates_with_the_pipeline() {
    let corpus = CorpusBuilder::new(CorpusSpec::small()).build();
    let data = full_dataset(&corpus);
    let mut rng = StdRng::seed_from_u64(5);
    let (train, test) = data.stratified_split(0.6, &mut rng);
    let detector = TwoSmartDetector::builder()
        .seed(5)
        .classifier_for(AppClass::Virus, ClassifierKind::J48)
        .classifier_for(AppClass::Trojan, ClassifierKind::J48)
        .classifier_for(AppClass::Rootkit, ClassifierKind::J48)
        .classifier_for(AppClass::Backdoor, ClassifierKind::J48)
        .train_on(&train)
        .expect("detector trains");

    // Tune one specialist's threshold on its validation view and confirm
    // the tuned detector still produces coherent verdicts end to end.
    let mut virus = detector.stage2(AppClass::Virus).clone();
    let val = twosmart_suite::twosmart::pipeline::class_dataset_from(&test, AppClass::Virus);
    let t = virus.tune_threshold(&val);
    assert!((0.0..=1.0).contains(&t));
    let f_default = detector.stage2(AppClass::Virus).evaluate(&val).f_measure;
    let f_tuned = virus.evaluate(&val).f_measure;
    assert!(f_tuned + 1e-9 >= f_default);
}
