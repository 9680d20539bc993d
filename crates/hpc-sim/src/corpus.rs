//! Corpus construction: the paper's data-collection methodology end to end.
//!
//! For every application the paper runs the program **11 times** — once per
//! 4-event batch — inside a fresh container each run, samples at 10 ms, and
//! aggregates the readings into one 44-feature vector. [`CorpusBuilder`]
//! reproduces exactly that: fresh [`Container`](crate::container::Container)
//! per run, a [`PerfSession`] per batch (so the 4-register constraint is
//! structurally enforced), and per-event mean rates as features. The
//! default [`CorpusSpec`] matches the paper's class counts:
//! 452 Backdoor, 350 Rootkit, 650 Virus, 1169 Trojan, plus benign programs
//! for a total above 3000.
//!
//! # Examples
//!
//! ```
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//!
//! let spec = CorpusSpec::tiny(); // small counts for tests/doc builds
//! let corpus = CorpusBuilder::new(spec).build();
//! assert!(corpus.len() > 0);
//! assert_eq!(corpus.records()[0].features.len(), 44);
//! ```

use crate::container::ContainerHost;
use crate::event::Event;
use crate::perf::{EventBatch, PerfSession};
use crate::workload::{AppClass, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How many applications of each class to profile, and how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Number of benign applications.
    pub benign: usize,
    /// Number of Backdoor samples (paper: 452).
    pub backdoor: usize,
    /// Number of Rootkit samples (paper: 350).
    pub rootkit: usize,
    /// Number of Virus samples (paper: 650).
    pub virus: usize,
    /// Number of Trojan samples (paper: 1169).
    pub trojan: usize,
    /// 10 ms samples recorded per run (per 4-event batch).
    pub samples_per_run: usize,
    /// Probability that a sample's class label is wrong — malware corpora
    /// are labelled by AV aggregators (virustotal/virusshare), whose family
    /// labels are known to be noisy. A flipped label gets a uniformly
    /// random *other* class.
    pub label_noise: f64,
    /// RNG seed; the whole corpus is deterministic given the spec.
    pub seed: u64,
}

impl CorpusSpec {
    /// The paper's corpus: 500 benign + 452/350/650/1169 malware = 3121 apps.
    pub fn paper() -> Self {
        CorpusSpec {
            benign: 500,
            backdoor: 452,
            rootkit: 350,
            virus: 650,
            trojan: 1169,
            samples_per_run: 20,
            label_noise: 0.03,
            seed: 0x25_AA_72,
        }
    }

    /// A miniature corpus for unit tests and doc examples.
    pub fn tiny() -> Self {
        CorpusSpec {
            benign: 8,
            backdoor: 4,
            rootkit: 4,
            virus: 4,
            trojan: 4,
            samples_per_run: 6,
            label_noise: 0.0,
            seed: 1,
        }
    }

    /// A mid-sized corpus: fast enough for integration tests, large enough
    /// for meaningful classifier training.
    pub fn small() -> Self {
        CorpusSpec {
            benign: 80,
            backdoor: 40,
            rootkit: 40,
            virus: 50,
            trojan: 70,
            samples_per_run: 12,
            label_noise: 0.03,
            seed: 7,
        }
    }

    /// Count for one class.
    pub fn count(&self, class: AppClass) -> usize {
        match class {
            AppClass::Benign => self.benign,
            AppClass::Backdoor => self.backdoor,
            AppClass::Rootkit => self.rootkit,
            AppClass::Virus => self.virus,
            AppClass::Trojan => self.trojan,
        }
    }

    /// Total number of applications.
    pub fn total(&self) -> usize {
        AppClass::ALL.iter().map(|&c| self.count(c)).sum()
    }
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec::paper()
    }
}

/// One profiled application: its label and 44-event feature vector.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AppRecord {
    /// Workload family the app came from.
    pub family: &'static str,
    /// Ground-truth class.
    pub class: AppClass,
    /// Mean rate of each of the 44 events (index = [`Event::index`]).
    pub features: Vec<f64>,
}

impl AppRecord {
    /// The feature value for one event.
    pub fn feature(&self, event: Event) -> f64 {
        self.features[event.index()]
    }
}

/// A profiled corpus of applications.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Corpus {
    records: Vec<AppRecord>,
    containers_destroyed: u64,
}

impl Corpus {
    /// All profiled applications.
    pub fn records(&self) -> &[AppRecord] {
        &self.records
    }

    /// Number of applications in the corpus.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no applications were profiled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records with the given class.
    pub fn class_count(&self, class: AppClass) -> usize {
        self.records.iter().filter(|r| r.class == class).count()
    }

    /// How many containers the collection destroyed — one per run, i.e.
    /// `11 × len()` under the full 44-event protocol.
    pub fn containers_destroyed(&self) -> u64 {
        self.containers_destroyed
    }
}

/// Builds a [`Corpus`] with the paper's 11-batch, fresh-container protocol.
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    spec: CorpusSpec,
}

impl CorpusBuilder {
    /// A builder for the given spec.
    pub fn new(spec: CorpusSpec) -> Self {
        CorpusBuilder { spec }
    }

    /// Profiles every application and returns the corpus.
    ///
    /// For each app: for each of the 11 event batches, create a fresh
    /// container, spawn a fresh instance of the app's family (the paper
    /// re-executes the application per batch), profile
    /// [`CorpusSpec::samples_per_run`] intervals through a 4-counter
    /// [`PerfSession`], destroy the container, and record the mean rates.
    pub fn build(&self) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.spec.seed);
        let library = WorkloadSpec::library();
        let schedule = EventBatch::full();
        let mut host = ContainerHost::new();
        let mut records = Vec::with_capacity(self.spec.total());

        for class in AppClass::ALL {
            let families: Vec<&WorkloadSpec> =
                library.iter().filter(|w| w.class == class).collect();
            assert!(!families.is_empty(), "no workload family for {class}");
            for i in 0..self.spec.count(class) {
                let family = families[i % families.len()];
                let mut record = self.profile_app(family, &schedule, &mut host, &mut rng);
                if self.spec.label_noise > 0.0 && rng.gen::<f64>() < self.spec.label_noise {
                    // AV mislabel: a uniformly random different class.
                    let offset = rng.gen_range(1..AppClass::ALL.len());
                    let wrong = (record.class.label() + offset) % AppClass::ALL.len();
                    record.class = AppClass::from_label(wrong).expect("label < 5");
                }
                records.push(record);
            }
        }

        Corpus {
            records,
            containers_destroyed: host.destroyed_count(),
        }
    }

    fn profile_app(
        &self,
        family: &WorkloadSpec,
        schedule: &EventBatch,
        host: &mut ContainerHost,
        rng: &mut StdRng,
    ) -> AppRecord {
        let mut features = vec![0.0; Event::COUNT];
        // Per-app identity: all 11 runs execute the *same* binary, so keep
        // one individualized profile and re-run it per batch.
        let prototype = family.spawn(rng);
        for batch in schedule.batches() {
            let session = PerfSession::open(batch).expect("batches are register-sized");
            let container = host.create();
            debug_assert!(!container.is_contaminated(), "fresh container per run");
            // Fresh execution of the same app: same profile, fresh phases.
            let mut app = prototype.clone();
            // Re-randomize the phase start so runs are independent.
            let skip = rng.gen_range(0..17);
            for _ in 0..skip {
                app.step(rng);
            }
            let readings = session.profile(&mut app, self.spec.samples_per_run, rng);
            host.destroy(container);
            let means = session.mean_counts(&readings);
            for (event, mean) in batch.iter().zip(means) {
                features[event.index()] = mean;
            }
        }
        AppRecord {
            family: family.name,
            class: family.class,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_corpus_has_spec_counts() {
        let spec = CorpusSpec::tiny();
        let corpus = CorpusBuilder::new(spec.clone()).build();
        assert_eq!(corpus.len(), spec.total());
        for class in AppClass::ALL {
            assert_eq!(corpus.class_count(class), spec.count(class));
        }
    }

    #[test]
    fn paper_spec_matches_published_counts() {
        let spec = CorpusSpec::paper();
        assert_eq!(spec.backdoor, 452);
        assert_eq!(spec.rootkit, 350);
        assert_eq!(spec.virus, 650);
        assert_eq!(spec.trojan, 1169);
        assert!(spec.total() > 3000, "paper profiles >3000 applications");
    }

    #[test]
    fn every_feature_is_finite_and_nonnegative() {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        for r in corpus.records() {
            assert_eq!(r.features.len(), Event::COUNT);
            for (i, f) in r.features.iter().enumerate() {
                assert!(f.is_finite() && *f >= 0.0, "{}: event {i} = {f}", r.family);
            }
            // The 11-batch protocol must populate every event.
            assert!(
                r.features.iter().filter(|f| **f > 0.0).count() > 35,
                "most events should be nonzero for {}",
                r.family
            );
        }
    }

    #[test]
    fn corpus_is_deterministic_for_a_seed() {
        let a = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let b = CorpusBuilder::new(CorpusSpec::tiny()).build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_corpora() {
        let mut spec = CorpusSpec::tiny();
        let a = CorpusBuilder::new(spec.clone()).build();
        spec.seed += 1;
        let b = CorpusBuilder::new(spec).build();
        assert_ne!(a, b);
    }

    #[test]
    fn container_is_destroyed_per_run() {
        let spec = CorpusSpec::tiny();
        let corpus = CorpusBuilder::new(spec.clone()).build();
        let runs = spec.total() as u64 * EventBatch::full().runs_required() as u64;
        assert_eq!(corpus.containers_destroyed(), runs);
    }

    #[test]
    fn record_feature_accessor_matches_index() {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let r = &corpus.records()[0];
        assert_eq!(
            r.feature(Event::Instructions),
            r.features[Event::Instructions.index()]
        );
    }
}
