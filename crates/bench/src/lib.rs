//! # bench — experiment harnesses reproducing the paper's tables and figures
//!
//! Every table and figure of the evaluation section has a dedicated binary
//! under `src/bin/` (see `DESIGN.md` for the index); this library holds the
//! shared plumbing:
//!
//! * [`ExperimentScale`] — one knob (`CROWDDB_SCALE=quick|default|full`)
//!   that controls domain size, embedding dimensionality, and repetition
//!   counts for all harnesses,
//! * [`MovieContext`] — the movie domain, its perceptual space, its LSI
//!   "metadata space", and the simulated expert panel, built once per run,
//! * [`small_sample_gmean`] — the Table 3 / 5 / 6 inner loop (draw a
//!   balanced sample of `n` positives + `n` negatives, train the SVM on a
//!   space, evaluate the g-mean on the remaining items),
//! * small table-formatting helpers.
//!
//! The binaries print the same rows/series the paper reports so that
//! `EXPERIMENTS.md` can list paper-vs-measured values side by side.

#![warn(missing_docs)]

use mlkit::{BinaryConfusion, LabeledDataset, LsiModel};
use perceptual::PerceptualSpace;

use crowddb_core::{extract_binary_attribute, ExtractionConfig};
use datagen::{DomainConfig, ExpertPanel, MetadataGenerator, SyntheticDomain};

/// Global knob for how big and how long the experiment harnesses run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Scale factor applied to the domain presets.
    pub domain_factor: f64,
    /// Number of random repetitions for sample-based experiments
    /// (the paper uses 20).
    pub repetitions: usize,
    /// Dimensionality of the perceptual space (the paper uses 100).
    pub space_dimensions: usize,
    /// SGD epochs for the factor model.
    pub space_epochs: usize,
    /// Dimensionality of the LSI metadata space (the paper uses 100).
    pub lsi_dimensions: usize,
}

impl ExperimentScale {
    /// The default scale: runs every harness in seconds-to-minutes on a
    /// laptop while preserving the paper's qualitative shapes.
    pub fn default_scale() -> Self {
        ExperimentScale {
            domain_factor: 0.5,
            repetitions: 5,
            space_dimensions: 24,
            space_epochs: 25,
            lsi_dimensions: 40,
        }
    }

    /// A fast smoke-test scale used by integration tests.
    pub fn quick() -> Self {
        ExperimentScale {
            domain_factor: 0.1,
            repetitions: 2,
            space_dimensions: 12,
            space_epochs: 15,
            lsi_dimensions: 20,
        }
    }

    /// The paper-sized scale (10,562 movies, d = 100, 20 repetitions).
    /// Expect multi-hour runtimes; only useful for full benchmark sessions.
    pub fn full() -> Self {
        ExperimentScale {
            domain_factor: 1.0,
            repetitions: 20,
            space_dimensions: 100,
            space_epochs: 30,
            lsi_dimensions: 100,
        }
    }

    /// Reads the scale from the `CROWDDB_SCALE` environment variable
    /// (`quick`, `default`, or `full`); unknown values fall back to the
    /// default scale.
    pub fn from_env() -> Self {
        match std::env::var("CROWDDB_SCALE").as_deref() {
            Ok("quick") => ExperimentScale::quick(),
            Ok("full") => ExperimentScale::full(),
            _ => ExperimentScale::default_scale(),
        }
    }
}

/// Everything the movie-domain harnesses need, built once.
pub struct MovieContext {
    /// The synthetic movie domain (items, ratings, ground-truth genres).
    pub domain: SyntheticDomain,
    /// The perceptual space built from the ratings.
    pub space: PerceptualSpace,
    /// The LSI "metadata space" baseline built from generated metadata text.
    pub metadata_space: PerceptualSpace,
    /// The simulated IMDb / Netflix / RT expert panel.
    pub experts: ExpertPanel,
    /// The scale the context was built at.
    pub scale: ExperimentScale,
}

impl MovieContext {
    /// Builds the movie context at the given scale.
    pub fn build(scale: ExperimentScale, seed: u64) -> Self {
        let config = DomainConfig::movies().scaled(scale.domain_factor);
        let domain = SyntheticDomain::generate(&config, seed).expect("domain generation");
        let space = crowddb_core::build_space_for_domain(
            &domain,
            scale.space_dimensions,
            scale.space_epochs,
        )
        .expect("perceptual space");
        let metadata_space = build_metadata_space(&domain, scale.lsi_dimensions, seed ^ 0x5151);
        let experts = ExpertPanel::standard(&domain, seed ^ 0xe59);
        MovieContext {
            domain,
            space,
            metadata_space,
            experts,
            scale,
        }
    }
}

/// Builds a context for an arbitrary domain preset (used by the restaurant
/// and board-game harnesses, which do not need the expert panel).
pub fn build_domain_and_space(
    config: &DomainConfig,
    scale: ExperimentScale,
    seed: u64,
) -> (SyntheticDomain, PerceptualSpace) {
    let domain = SyntheticDomain::generate(&config.scaled(scale.domain_factor), seed)
        .expect("domain generation");
    let space =
        crowddb_core::build_space_for_domain(&domain, scale.space_dimensions, scale.space_epochs)
            .expect("perceptual space");
    (domain, space)
}

/// Builds the LSI metadata space of a domain: metadata text → TF-IDF →
/// truncated SVD → per-item latent coordinates.
pub fn build_metadata_space(
    domain: &SyntheticDomain,
    dimensions: usize,
    seed: u64,
) -> PerceptualSpace {
    let docs = MetadataGenerator::default().generate(domain, seed);
    let lsi = LsiModel::fit(&docs, dimensions, 2, seed).expect("LSI model");
    PerceptualSpace::new(lsi.document_coordinates().to_vec()).expect("metadata space")
}

/// One measurement of the Table 3 / 5 / 6 protocol: draw `n` positive and
/// `n` negative training examples for `category`, train the extractor on the
/// given space, and return the g-mean over the remaining items.
///
/// Returns `None` when the domain does not contain `n` examples of each
/// class (rare categories at small scales).
pub fn small_sample_gmean(
    space: &PerceptualSpace,
    labels: &[bool],
    n_per_class: usize,
    seed: u64,
) -> Option<f64> {
    let features: Vec<Vec<f64>> = space.all_coordinates().to_vec();
    let dataset = LabeledDataset::new(features, labels.to_vec()).ok()?;
    let sample = dataset.balanced_sample(n_per_class, seed).ok()?;
    let labeled: Vec<(u32, bool)> = sample
        .train_indices
        .iter()
        .map(|&i| (i as u32, labels[i]))
        .collect();
    let predicted = extract_binary_attribute(space, &labeled, &ExtractionConfig::default()).ok()?;
    // Evaluate on the items outside the training sample.
    let eval_pred: Vec<bool> = sample.eval_indices.iter().map(|&i| predicted[i]).collect();
    let eval_truth: Vec<bool> = sample.eval_indices.iter().map(|&i| labels[i]).collect();
    Some(BinaryConfusion::from_predictions(&eval_pred, &eval_truth).gmean())
}

/// Mean of [`small_sample_gmean`] over `repetitions` random samples.
pub fn mean_small_sample_gmean(
    space: &PerceptualSpace,
    labels: &[bool],
    n_per_class: usize,
    repetitions: usize,
    seed: u64,
) -> Option<f64> {
    let mut values = Vec::new();
    for rep in 0..repetitions {
        if let Some(g) = small_sample_gmean(space, labels, n_per_class, seed + rep as u64) {
            values.push(g);
        }
    }
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// g-mean of one expert source (or any full labeling) against the reference
/// labels — the "Reference" columns of Table 3.
pub fn labeling_gmean(labeling: &[bool], reference: &[bool]) -> f64 {
    BinaryConfusion::from_predictions(labeling, reference).gmean()
}

/// Formats an optional g-mean for table output.
pub fn fmt_gmean(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.2}"),
        None => "  - ".to_string(),
    }
}

/// Prints a table header followed by a separator line of matching width.
pub fn print_header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().max(20)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve_and_order_sensibly() {
        let q = ExperimentScale::quick();
        let d = ExperimentScale::default_scale();
        let f = ExperimentScale::full();
        assert!(q.domain_factor < d.domain_factor);
        assert!(d.domain_factor < f.domain_factor);
        assert!(q.repetitions <= d.repetitions);
        assert_eq!(f.space_dimensions, 100);
        // Environment fallback: unknown values give the default scale.
        std::env::remove_var("CROWDDB_SCALE");
        assert_eq!(ExperimentScale::from_env(), d);
    }

    #[test]
    fn movie_context_and_gmean_pipeline_work_at_quick_scale() {
        let scale = ExperimentScale::quick();
        let ctx = MovieContext::build(scale, 123);
        assert_eq!(ctx.space.len(), ctx.domain.items().len());
        assert_eq!(ctx.metadata_space.len(), ctx.domain.items().len());
        assert_eq!(ctx.experts.sources().len(), 3);

        let labels = ctx.domain.labels_for_category(0);
        let g = small_sample_gmean(&ctx.space, &labels, 10, 7);
        assert!(g.is_some());
        let g = g.unwrap();
        assert!((0.0..=1.0).contains(&g));
        // The perceptual space must carry real signal even at quick scale.
        assert!(g > 0.5, "g-mean {g} too low for the perceptual space");

        let meta_g = small_sample_gmean(&ctx.metadata_space, &labels, 10, 7).unwrap();
        assert!(
            meta_g < g + 0.15,
            "metadata space ({meta_g}) should not outperform the perceptual space ({g})"
        );

        // Reference labels of a simulated expert source score very high.
        let reference = ctx.experts.majority(0);
        let source_g = labeling_gmean(ctx.experts.sources()[0].category_labels(0), &reference);
        assert!(source_g > 0.85);
    }

    /// Table 3's shape at quick scale, with the seeds `table3_small_samples`
    /// uses: the perceptual space's mean g-mean over the genres rises with
    /// the sample size and beats the metadata space at every size.
    #[test]
    fn table3_perceptual_space_learns_from_small_samples_and_beats_metadata() {
        let scale = ExperimentScale::quick();
        let ctx = MovieContext::build(scale, 7007);
        let genre_mean = |space: &PerceptualSpace, n: usize, seed: u64| {
            let values: Vec<f64> = (0..ctx.domain.category_names().len())
                .filter_map(|cat| {
                    let labels = ctx.domain.labels_for_category(cat);
                    mean_small_sample_gmean(space, &labels, n, scale.repetitions, seed + cat as u64)
                })
                .collect();
            assert!(!values.is_empty(), "no genre has {n} examples per class");
            values.iter().sum::<f64>() / values.len() as f64
        };
        let ns = [10, 20, 40];
        let perceptual: Vec<f64> = ns.iter().map(|&n| genre_mean(&ctx.space, n, 100)).collect();
        let metadata: Vec<f64> = ns
            .iter()
            .map(|&n| genre_mean(&ctx.metadata_space, n, 200))
            .collect();
        assert!(
            perceptual.windows(2).all(|w| w[0] < w[1]),
            "perceptual g-means {perceptual:?} do not rise with n"
        );
        for (p, m) in perceptual.iter().zip(&metadata) {
            assert!(p > m, "perceptual {perceptual:?} vs metadata {metadata:?}");
        }
    }

    #[test]
    fn mean_gmean_handles_impossible_sample_sizes() {
        let scale = ExperimentScale::quick();
        let ctx = MovieContext::build(scale, 5);
        let labels = ctx.domain.labels_for_category(0);
        // Asking for more positives than exist yields None.
        let impossible = mean_small_sample_gmean(&ctx.space, &labels, 10_000, 2, 1);
        assert!(impossible.is_none());
        let ok = mean_small_sample_gmean(&ctx.space, &labels, 5, 2, 1);
        assert!(ok.is_some());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_gmean(Some(0.755)), "0.76");
        assert_eq!(fmt_gmean(None), "  - ");
        // print_header only writes to stdout; just exercise it.
        print_header("Test", "a b c");
    }
}
