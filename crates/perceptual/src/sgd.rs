//! The stochastic-gradient-descent driver both factor models share; a model
//! supplies only its per-rating update.  Updates are bound by memory latency,
//! so the factors are contiguous `n × d` rows, the epoch order is a `Vec<u32>`
//! and each epoch gathers [`CHUNK`] shuffled ratings at a time into a reused
//! buffer before updating over it, with the RNG draws and updates of a plain
//! nested-`Vec` loop, bit for bit ("Perceptual-space training" in
//! `docs/architecture.md`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::PerceptualError;
use crate::ratings::{Rating, RatingDataset};
use crate::space::PerceptualSpace;
use crate::{ItemId, Result, UserId};

/// Ratings gathered per chunk: 512 KiB of records, large enough to keep many
/// misses in flight and small enough to stay in a core's L2 cache.
const CHUNK: usize = 1 << 15;

/// The hyper-parameters both model configurations carry.
pub(crate) struct Hyperparameters {
    pub(crate) dimensions: usize,
    pub(crate) lambda: f64,
    pub(crate) learning_rate: f64,
    pub(crate) learning_rate_decay: f64,
    pub(crate) epochs: usize,
    pub(crate) init_scale: f64,
    pub(crate) seed: u64,
}

impl Hyperparameters {
    fn validate(&self) -> Result<()> {
        let invalid = |msg: &str| Err(PerceptualError::InvalidConfig(msg.into()));
        if self.dimensions == 0 {
            return invalid("dimensions must be >= 1");
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return invalid("lambda must be finite and non-negative");
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return invalid("learning_rate must be finite and positive");
        }
        if !(self.learning_rate_decay > 0.0 && self.learning_rate_decay <= 1.0) {
            return invalid("learning_rate_decay must lie in (0, 1]");
        }
        if self.epochs == 0 {
            return invalid("epochs must be >= 1");
        }
        if !(self.init_scale > 0.0 && self.init_scale.is_finite()) {
            return invalid("init_scale must be finite and positive");
        }
        Ok(())
    }
}

/// Trained item and user rows, each stored as one contiguous `n × d` array.
#[derive(Debug, Clone)]
pub(crate) struct Factors {
    pub(crate) dimensions: usize,
    items: Vec<f64>,
    users: Vec<f64>,
}

impl Factors {
    pub(crate) fn item(&self, item: ItemId) -> Result<&[f64]> {
        row(&self.items, self.dimensions, item as usize)
            .ok_or_else(|| PerceptualError::UnknownId(format!("item {item}")))
    }

    pub(crate) fn user(&self, user: UserId) -> Result<&[f64]> {
        row(&self.users, self.dimensions, user as usize)
            .ok_or_else(|| PerceptualError::UnknownId(format!("user {user}")))
    }

    /// The item rows as a [`PerceptualSpace`].
    pub(crate) fn to_space(&self) -> PerceptualSpace {
        let rows = self
            .items
            .chunks_exact(self.dimensions)
            .map(<[f64]>::to_vec);
        PerceptualSpace::new(rows.collect())
            .expect("training rejects non-finite parameters, so the item rows form a space")
    }
}

fn row(data: &[f64], d: usize, index: usize) -> Option<&[f64]> {
    data.get(index * d..(index + 1) * d)
}

/// Fails with [`PerceptualError::Numerical`] unless every value is finite.
pub(crate) fn ensure_finite<'a>(values: impl IntoIterator<Item = &'a f64>) -> Result<()> {
    if values.into_iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(PerceptualError::Numerical(
            "SGD diverged: non-finite training error or parameters (reduce the learning rate)"
                .into(),
        ))
    }
}

/// Runs SGD over `dataset` and returns the trained rows and the training
/// RMSE after each epoch.
///
/// `update(lr, rating, a, b)` applies one step for `rating` to its item row
/// `a` and user row `b` and returns the residual `r − r̂` before the step.
pub(crate) fn train(
    dataset: &RatingDataset,
    hp: &Hyperparameters,
    mut update: impl FnMut(f64, &Rating, &mut [f64], &mut [f64]) -> f64,
) -> Result<(Factors, Vec<f64>)> {
    hp.validate()?;
    let d = hp.dimensions;
    let mut rng = StdRng::seed_from_u64(hp.seed);
    let mut init = |n: usize| -> Vec<f64> {
        (0..n * d)
            .map(|_| (rng.gen::<f64>() - 0.5) * hp.init_scale)
            .collect()
    };
    let mut items = init(dataset.n_items());
    let mut users = init(dataset.n_users());

    let ratings = dataset.ratings();
    let len = u32::try_from(ratings.len()).expect("a RatingDataset holds at most u32::MAX ratings");
    let mut order: Vec<u32> = (0..len).collect();
    let mut chunk: Vec<Rating> = Vec::with_capacity(CHUNK.min(ratings.len()));
    let mut lr = hp.learning_rate;
    let mut train_rmse = Vec::with_capacity(hp.epochs);

    for _ in 0..hp.epochs {
        order.shuffle(&mut rng);
        let mut sse = 0.0;
        for indexes in order.chunks(CHUNK) {
            chunk.clear();
            chunk.extend(indexes.iter().map(|&i| ratings[i as usize]));
            for r in &chunk {
                let (m, u) = (r.item as usize, r.user as usize);
                let a = &mut items[m * d..(m + 1) * d];
                let b = &mut users[u * d..(u + 1) * d];
                let err = update(lr, r, a, b);
                sse += err * err;
            }
        }
        let rmse = (sse / ratings.len() as f64).sqrt();
        ensure_finite([&rmse])?;
        train_rmse.push(rmse);
        lr *= hp.learning_rate_decay;
    }
    // Each residual is taken before its update, so the RMSE never sees the
    // last update's effect: the final parameters need a check of their own.
    ensure_finite(items.iter().chain(&users))?;

    Ok((
        Factors {
            dimensions: d,
            items,
            users,
        },
        train_rmse,
    ))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use super::CHUNK;
    use crate::ratings::{Rating, RatingDataset};
    use crate::{
        EuclideanEmbeddingConfig, EuclideanEmbeddingModel, ItemId, SvdConfig, SvdModel, UserId,
    };

    /// Everything a training run produces, as IEEE-754 bits.
    #[derive(Debug, PartialEq)]
    struct Trained {
        items: Vec<u64>,
        users: Vec<u64>,
        biases: Vec<u64>,
        train_rmse: Vec<u64>,
    }

    fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
        values.into_iter().map(|v| v.to_bits()).collect()
    }

    fn nested_init(rng: &mut StdRng, n: usize, d: usize, init_scale: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| (rng.gen::<f64>() - 0.5) * init_scale)
                    .collect()
            })
            .collect()
    }

    /// The Euclidean-embedding training loop as it stood before the shared
    /// driver: nested rows, a `usize` order, one rating read per update.
    /// `None` where it reported divergence.
    fn reference_euclidean(
        dataset: &RatingDataset,
        config: &EuclideanEmbeddingConfig,
    ) -> Option<Trained> {
        let d = config.dimensions;
        let mu = dataset.global_mean();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut item_coords = nested_init(&mut rng, dataset.n_items(), d, config.init_scale);
        let mut user_coords = nested_init(&mut rng, dataset.n_users(), d, config.init_scale);
        let mut item_bias: Vec<f64> = (0..dataset.n_items())
            .map(|i| dataset.item_mean(i as ItemId) - mu)
            .collect();
        let mut user_bias: Vec<f64> = (0..dataset.n_users())
            .map(|u| dataset.user_mean(u as UserId) - mu)
            .collect();

        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let mut lr = config.learning_rate;
        let ratings = dataset.ratings();
        let mut train_rmse = Vec::with_capacity(config.epochs);
        for _epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut sse = 0.0;
            for &idx in &order {
                let r = &ratings[idx];
                let (m, u) = (r.item as usize, r.user as usize);
                let (sq_dist, err) = {
                    let a = &item_coords[m];
                    let b = &user_coords[u];
                    let sq_dist: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
                    let pred = mu + item_bias[m] + user_bias[u] - sq_dist;
                    (sq_dist, r.score - pred)
                };
                sse += err * err;
                item_bias[m] += lr * 2.0 * (err - config.lambda * item_bias[m]);
                user_bias[u] += lr * 2.0 * (err - config.lambda * user_bias[u]);
                let step = lr * 4.0 * (err + config.lambda * sq_dist);
                let (a, b) = (&mut item_coords[m], &mut user_coords[u]);
                for k in 0..d {
                    let diff = a[k] - b[k];
                    a[k] -= step * diff;
                    b[k] += step * diff;
                }
            }
            let rmse = (sse / ratings.len() as f64).sqrt();
            if !rmse.is_finite() {
                return None;
            }
            train_rmse.push(rmse);
            lr *= config.learning_rate_decay;
        }
        Some(Trained {
            items: bits(item_coords.iter().flatten()),
            users: bits(user_coords.iter().flatten()),
            biases: bits(item_bias.iter().chain(&user_bias)),
            train_rmse: bits(&train_rmse),
        })
    }

    /// The SVD training loop as it stood before the shared driver.
    fn reference_svd(dataset: &RatingDataset, config: &SvdConfig) -> Option<Trained> {
        let d = config.dimensions;
        let mu = dataset.global_mean();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut item_factors = nested_init(&mut rng, dataset.n_items(), d, config.init_scale);
        let mut user_factors = nested_init(&mut rng, dataset.n_users(), d, config.init_scale);

        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let mut lr = config.learning_rate;
        let ratings = dataset.ratings();
        let mut train_rmse = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut sse = 0.0;
            for &idx in &order {
                let r = &ratings[idx];
                let (m, u) = (r.item as usize, r.user as usize);
                let pred = mu
                    + item_factors[m]
                        .iter()
                        .zip(user_factors[u].iter())
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                let err = r.score - pred;
                sse += err * err;
                for k in 0..d {
                    let a = item_factors[m][k];
                    let b = user_factors[u][k];
                    item_factors[m][k] += lr * (err * b - config.lambda * a);
                    user_factors[u][k] += lr * (err * a - config.lambda * b);
                }
            }
            let rmse = (sse / ratings.len() as f64).sqrt();
            if !rmse.is_finite() {
                return None;
            }
            train_rmse.push(rmse);
            lr *= config.learning_rate_decay;
        }
        Some(Trained {
            items: bits(item_factors.iter().flatten()),
            users: bits(user_factors.iter().flatten()),
            biases: Vec::new(),
            train_rmse: bits(&train_rmse),
        })
    }

    fn euclidean(dataset: &RatingDataset, config: &EuclideanEmbeddingConfig) -> Option<Trained> {
        let model = EuclideanEmbeddingModel::train(dataset, config).ok()?;
        let items = 0..dataset.n_items() as ItemId;
        let users = 0..dataset.n_users() as UserId;
        let item_bias: Vec<f64> = items.clone().map(|m| model.item_bias(m).unwrap()).collect();
        let user_bias: Vec<f64> = users.clone().map(|u| model.user_bias(u).unwrap()).collect();
        Some(Trained {
            items: bits(items.flat_map(|m| model.item_vector(m).unwrap())),
            users: bits(users.flat_map(|u| model.user_vector(u).unwrap())),
            biases: bits(item_bias.iter().chain(&user_bias)),
            train_rmse: bits(&model.trace().train_rmse),
        })
    }

    fn svd(dataset: &RatingDataset, config: &SvdConfig) -> Option<Trained> {
        let model = SvdModel::train(dataset, config).ok()?;
        let items = 0..dataset.n_items() as ItemId;
        let users = 0..dataset.n_users() as UserId;
        Some(Trained {
            items: bits(items.flat_map(|m| model.item_vector(m).unwrap())),
            users: bits(users.flat_map(|u| model.factors.user(u).unwrap())),
            biases: Vec::new(),
            train_rmse: bits(model.train_rmse()),
        })
    }

    /// Small random datasets.  Ratings land on `item % rated_items` and
    /// `user % rated_users`, and up to two further items and users are
    /// declared, so some items and users have no ratings.
    fn dataset() -> impl Strategy<Value = RatingDataset> {
        let ratings = prop::collection::vec((0u32..1000, 0u32..1000, 1u8..=10), 1..150);
        (1u32..10, 1u32..10, 0u32..3, 0u32..3, ratings).prop_map(
            |(rated_items, rated_users, extra_items, extra_users, raw)| {
                let ratings = raw
                    .into_iter()
                    .map(|(m, u, s)| Rating::new(m % rated_items, u % rated_users, s as f64 / 2.0))
                    .collect();
                let n_items = (rated_items + extra_items) as usize;
                let n_users = (rated_users + extra_users) as usize;
                RatingDataset::from_ratings(n_items, n_users, ratings).unwrap()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn euclidean_training_matches_the_reference_loop_bit_for_bit(
            data in dataset(),
            dimensions in 1usize..7,
            epochs in 1usize..6,
            seed in any::<u64>(),
            learning_rate in 0.001f64..0.05,
        ) {
            let config = EuclideanEmbeddingConfig {
                dimensions,
                epochs,
                learning_rate,
                seed,
                ..Default::default()
            };
            let trained = euclidean(&data, &config);
            prop_assert!(trained.is_some());
            prop_assert_eq!(trained, reference_euclidean(&data, &config));
        }

        #[test]
        fn svd_training_matches_the_reference_loop_bit_for_bit(
            data in dataset(),
            dimensions in 1usize..7,
            epochs in 1usize..6,
            seed in any::<u64>(),
            learning_rate in 0.001f64..0.05,
        ) {
            let config = SvdConfig {
                dimensions,
                epochs,
                learning_rate,
                seed,
                ..Default::default()
            };
            let trained = svd(&data, &config);
            prop_assert!(trained.is_some());
            prop_assert_eq!(trained, reference_svd(&data, &config));
        }
    }

    #[test]
    fn training_over_several_chunks_matches_the_reference_loop() {
        // Two full chunks and a partial third.
        let mut rng = StdRng::seed_from_u64(5);
        let ratings = (0..2 * CHUNK + 7)
            .map(|_| {
                let score = rng.gen_range(1u8..=5) as f64;
                Rating::new(rng.gen_range(0u32..50), rng.gen_range(0u32..400), score)
            })
            .collect();
        let data = RatingDataset::from_ratings(52, 401, ratings).unwrap();
        let euclidean_config = EuclideanEmbeddingConfig {
            dimensions: 3,
            epochs: 2,
            ..Default::default()
        };
        let svd_config = SvdConfig {
            dimensions: 3,
            epochs: 2,
            ..Default::default()
        };
        let trained = euclidean(&data, &euclidean_config);
        assert!(trained.is_some());
        assert_eq!(trained, reference_euclidean(&data, &euclidean_config));
        let trained = svd(&data, &svd_config);
        assert!(trained.is_some());
        assert_eq!(trained, reference_svd(&data, &svd_config));
    }
}
