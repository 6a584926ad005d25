//! Golden fingerprint of a trained perceptual space.
//!
//! Perceptual-space training is seeded, so its output is a fixed function of
//! the domain and the configuration.  Any change to the SGD loop that moves
//! one RNG draw or reorders one floating-point update changes the bits below.
//! The expected value was captured from the nested-`Vec` training loop that
//! preceded the contiguous, chunked one; a speed-up must leave it unchanged.

use crowddb::perceptual::{EuclideanEmbeddingConfig, EuclideanEmbeddingModel};
use crowddb::prelude::*;

/// 64-bit FNV-1a over the IEEE-754 bits of each value, in order.
fn fingerprint<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn movie_space_training_is_bit_identical_to_the_golden_fingerprint() {
    let domain = SyntheticDomain::generate(&DomainConfig::movies().scaled(0.1), 21).unwrap();
    let space = build_space_for_domain(&domain, 8, 15).unwrap();

    // The same configuration `build_space_for_domain` trains with, so the
    // user side, the biases and the RMSE trace are pinned too.
    let config = EuclideanEmbeddingConfig {
        dimensions: 8,
        epochs: 15,
        learning_rate: 0.02,
        ..Default::default()
    };
    let model = EuclideanEmbeddingModel::train(domain.ratings(), &config).unwrap();
    assert_eq!(space.all_coordinates(), model.to_space().all_coordinates());

    let items = (0..model.n_items() as u32).flat_map(|m| model.item_vector(m).unwrap());
    let users = (0..model.n_users() as u32).flat_map(|u| model.user_vector(u).unwrap());
    let item_bias: Vec<f64> = (0..model.n_items() as u32)
        .map(|m| model.item_bias(m).unwrap())
        .collect();
    let user_bias: Vec<f64> = (0..model.n_users() as u32)
        .map(|u| model.user_bias(u).unwrap())
        .collect();

    let space_hash = fingerprint(space.all_coordinates().iter().flatten());
    let model_hash = fingerprint(
        items
            .chain(users)
            .chain(&item_bias)
            .chain(&user_bias)
            .chain(&model.trace().train_rmse),
    );
    assert_eq!(
        space_hash, 0xaba8_992c_369f_cde8,
        "space {space_hash:#018x}"
    );
    assert_eq!(
        model_hash, 0xb116_2b4a_187b_c241,
        "model {model_hash:#018x}"
    );
}
