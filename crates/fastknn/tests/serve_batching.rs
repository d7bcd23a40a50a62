//! Serving-layer contract on the Fast kNN classifiers: how probe rows are
//! grouped into micro-batches must never show through in the results, and
//! the in-process kernel `dedup::serve` answers with must agree with the
//! distributed classifier bit for bit.
//!
//! The serve admission queue coalesces probes into whatever batch sizes the
//! arrival process produces, so [`fastknn::FastKnn::classify_batch`] must be
//! **bit-identical** (scores compared as `f64::to_bits`) across batch
//! compositions — the same rows classified one at a time, 16 at a time, or
//! all at once — and across engine parallelism. Every case also runs
//! [`fastknn::serial::classify_batch`] over a partition built by the same
//! `VoronoiPartition::build(train, b, seed)` call `FastKnn::fit` makes, at
//! the same batch sizes, and requires the same `(id, score bits, positive)`
//! triples: serving classifies in process and must not change an answer.
//!
//! The one requirement on the caller is stable row ids: the balanced
//! Voronoi assignment tie-breaks on the row id, so ids must belong to the
//! *row*, not its batch position (exactly what `dedup::serve` does by
//! hashing the probe–candidate pair).

use fastknn::serial::classify_batch;
use fastknn::{
    ClassifyScratch, FastKnn, FastKnnConfig, LabeledPair, ScoredPair, VecBatch, VoronoiPartition,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklet::Cluster;

const ROWS: usize = 1024;

fn training(seed: u64) -> Vec<LabeledPair<8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..900)
        .map(|i| {
            let positive = rng.gen_bool(0.05);
            let center = if positive { 0.25 } else { 0.75 };
            LabeledPair {
                id: i as u64,
                vector: std::array::from_fn(|_| center + rng.gen_range(-0.25..0.25)),
                positive,
            }
        })
        .collect()
}

/// A training set whose fit splits one oversized cell into sibling chunks
/// with coincident centres, as the lattice of exact-match field distances
/// does on real pairs. 600 negatives sit on one point, after 100 scattered
/// around it, so the sibling chunks hold different residents; the
/// positives are far away, so the all-negative shortcut scores each probe
/// from whichever sibling it was assigned. Picking the first tied centre
/// instead of the engine's id-tie-broken one changes those scores.
fn tied_sibling_training(seed: u64) -> Vec<LabeledPair<8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut push = |vector: [f64; 8], positive: bool| {
        let id = train.len() as u64;
        train.push(LabeledPair {
            id,
            vector,
            positive,
        });
    };
    for _ in 0..100 {
        push(
            std::array::from_fn(|_| 0.8 + rng.gen_range(-0.1..0.1)),
            false,
        );
    }
    for _ in 0..600 {
        push([0.8; 8], false);
    }
    for _ in 0..150 {
        push(std::array::from_fn(|_| rng.gen_range(0.0..1.0)), false);
    }
    for _ in 0..50 {
        push(
            std::array::from_fn(|_| 0.2 + rng.gen_range(-0.05..0.05)),
            true,
        );
    }
    train
}

/// `ROWS` probe rows with ids that are a property of the row itself (id =
/// row index here), so every batch split presents identical (id, vector)
/// pairs. Coordinates are drawn from `lo..hi`.
fn probes(seed: u64, lo: f64, hi: f64) -> VecBatch<8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = VecBatch::with_capacity(ROWS);
    for i in 0..ROWS {
        let vector: [f64; 8] = std::array::from_fn(|_| rng.gen_range(lo..hi));
        batch.push(i as u64, &vector, false);
    }
    batch
}

/// Classify the probe set in micro-batches of `size`, concatenating the
/// per-batch results in row order.
fn classify_in_batches(model: &FastKnn<8>, all: &VecBatch<8>, size: usize) -> Vec<ScoredPair> {
    let mut out = Vec::with_capacity(all.len());
    for chunk in all.chunk_rows(size) {
        out.extend(model.classify_batch(&chunk).unwrap());
    }
    out.sort_by_key(|s| s.id);
    out
}

/// The in-process kernel over the same micro-batches, with one scratch
/// reused across them as `dedup::serve` does.
fn serial_in_batches(
    partition: &VoronoiPartition<8>,
    config: &FastKnnConfig,
    all: &VecBatch<8>,
    size: usize,
) -> Vec<ScoredPair> {
    let mut scratch = ClassifyScratch::default();
    let mut scored = Vec::new();
    let mut out = Vec::with_capacity(all.len());
    for chunk in all.chunk_rows(size) {
        classify_batch(
            partition,
            &chunk,
            config.k,
            config.theta,
            &mut scratch,
            &mut scored,
        );
        out.extend_from_slice(&scored);
    }
    out.sort_by_key(|s| s.id);
    out
}

fn bits(results: &[ScoredPair]) -> Vec<(u64, u64, bool, bool)> {
    results
        .iter()
        .map(|s| (s.id, s.score.to_bits(), s.positive, s.shortcut))
        .collect()
}

/// The answer a served probe carries: `(id, score bits, positive)`.
fn answers(results: &[ScoredPair]) -> Vec<(u64, u64, bool)> {
    results
        .iter()
        .map(|s| (s.id, s.score.to_bits(), s.positive))
        .collect()
}

fn assert_serial_matches_engine(
    train: &[LabeledPair<8>],
    config: &FastKnnConfig,
    all: &VecBatch<8>,
    size: usize,
    engine: &[ScoredPair],
) {
    let partition = VoronoiPartition::build(train, config.b, config.seed);
    assert_eq!(
        answers(&serial_in_batches(&partition, config, all, size)),
        answers(engine),
        "in-process kernel diverged from the engine at batch size {size}"
    );
}

#[test]
fn results_are_bit_identical_across_batch_sizes_and_partitions() {
    let train = training(11);
    let all = probes(12, 0.0, 1.0);
    let config = FastKnnConfig {
        b: 8,
        theta: 0.4,
        ..FastKnnConfig::default()
    };
    let mut reference: Option<Vec<(u64, u64, bool, bool)>> = None;
    for workers in [1usize, 4, 16] {
        let cluster = Cluster::local(workers);
        let model = FastKnn::fit(&cluster, &train, config).unwrap();
        for size in [1usize, 16, 1024] {
            let engine = classify_in_batches(&model, &all, size);
            let got = bits(&engine);
            assert_eq!(got.len(), ROWS);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "classification diverged at {workers} workers, batch size {size}"
                ),
            }
            assert_serial_matches_engine(&train, &config, &all, size, &engine);
        }
    }
}

/// The theta shortcut is the most composition-suspicious path (it truncates
/// the neighbourhood search): pin bit-identity for it separately with an
/// aggressive threshold so many rows take the shortcut.
#[test]
fn shortcut_heavy_results_are_bit_identical_across_batch_sizes() {
    let train = training(31);
    let all = probes(32, 0.0, 1.0);
    let cluster = Cluster::local(4);
    let config = FastKnnConfig {
        b: 6,
        theta: 1.5,
        ..FastKnnConfig::default()
    };
    let model = FastKnn::fit(&cluster, &train, config).unwrap();
    let engine = classify_in_batches(&model, &all, 1024);
    let whole = bits(&engine);
    assert!(
        whole.iter().any(|&(_, _, _, shortcut)| shortcut),
        "theta 1.5 must exercise the shortcut path"
    );
    assert_serial_matches_engine(&train, &config, &all, 1024, &engine);
    for size in [1usize, 16] {
        assert_eq!(
            bits(&classify_in_batches(&model, &all, size)),
            whole,
            "shortcut path diverged at batch size {size}"
        );
        assert_serial_matches_engine(&train, &config, &all, size, &engine);
    }
}

/// Sibling chunks of a rebalanced cell share a centre, so every probe near
/// it ties between them. The in-process kernel must break the tie by row id
/// exactly as the engine's assignment stage does.
#[test]
fn tied_sibling_centres_pick_the_engines_cell() {
    let train = tied_sibling_training(41);
    let config = FastKnnConfig {
        b: 4,
        seed: 7,
        ..FastKnnConfig::default()
    };
    let partition = VoronoiPartition::build(&train, config.b, config.seed);
    let tied = (0..partition.b())
        .any(|i| (i + 1..partition.b()).any(|j| partition.centers[i] == partition.centers[j]));
    assert!(tied, "the fit must yield coincident sibling centres");

    let all = probes(42, 0.7, 0.9);
    let model = FastKnn::fit(&Cluster::local(4), &train, config).unwrap();
    for size in [1usize, 16, 1024] {
        let engine = classify_in_batches(&model, &all, size);
        assert_serial_matches_engine(&train, &config, &all, size, &engine);
    }
}
