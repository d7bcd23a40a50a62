//! Cross-crate algorithmic invariants: the distributed classifier against
//! serial references, under engine stress (fault injection, tiny memory).

use fastknn::serial::{classify_brute, classify_fast_serial};
use fastknn::voronoi::VoronoiPartition;
use fastknn::{FastKnn, FastKnnConfig, LabeledPair, UnlabeledPair};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklet::{Cluster, ClusterConfig, FaultConfig};

fn workload<const D: usize>(
    n_neg: usize,
    n_pos: usize,
    n_test: usize,
    seed: u64,
) -> (Vec<LabeledPair<D>>, Vec<UnlabeledPair<D>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    for i in 0..n_neg {
        let v: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
        train.push(LabeledPair::new(i as u64, v, false));
    }
    for i in 0..n_pos {
        let v: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..0.2));
        train.push(LabeledPair::new((n_neg + i) as u64, v, true));
    }
    let test = (0..n_test)
        .map(|i| {
            let v: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
            UnlabeledPair::new(i as u64, v)
        })
        .collect();
    (train, test)
}

#[test]
fn distributed_equals_serial_equals_brute_under_fault_injection() {
    let (train, test) = workload::<4>(600, 15, 60, 77);
    // A flaky cluster: 20% of task attempts fail and are retried.
    let mut config = ClusterConfig::local(4);
    config.fault = FaultConfig::with_probability(0.2, 9);
    config.max_task_attempts = 10;
    let cluster = Cluster::new(config);
    let knn_config = FastKnnConfig {
        k: 7,
        b: 10,
        c: 3,
        theta: 0.0,
        seed: 4,
        prune: true,
    };
    let model = FastKnn::fit(&cluster, &train, knn_config).expect("fit");
    let distributed = model.classify(&test).expect("classify");
    assert!(
        cluster.metrics().tasks_failed.get() > 0,
        "fault injection should have fired"
    );

    let vp = VoronoiPartition::build(&train, 10, 4);
    let serial = classify_fast_serial(&vp, &test, 7, 0.0);
    let brute = classify_brute(&train, &test, 7, 0.0);
    for ((d, s), b) in distributed.iter().zip(&serial).zip(&brute) {
        assert_eq!(d.id, s.id);
        assert_eq!(
            d.positive, b.positive,
            "distributed label must match brute force at id {} even with retries",
            d.id
        );
        assert_eq!(
            (d.score.to_bits(), d.positive),
            (s.score.to_bits(), s.positive),
            "distributed and in-process scores must be bit-identical at id {}",
            d.id
        );
        if !d.shortcut {
            assert!((d.score - b.score).abs() < 1e-9, "score at id {}", d.id);
        }
    }
}

#[test]
fn tiny_executor_memory_still_classifies_correctly() {
    let (train, test) = workload::<4>(2_000, 20, 40, 13);
    let mut config = ClusterConfig::local(2);
    // Budget far below one joined partition: every stage-1 task thrashes,
    // retries, and eventually completes (hold_memory's graduated model).
    config.memory_per_executor = 4 * 1024;
    let cluster = Cluster::new(config);
    let model = FastKnn::fit(
        &cluster,
        &train,
        FastKnnConfig {
            k: 5,
            b: 4,
            c: 2,
            theta: 0.0,
            seed: 2,
            prune: true,
        },
    )
    .expect("fit");
    let out = model.classify(&test).expect("classify despite thrash");
    assert!(cluster.metrics().memory_kills.get() > 0, "should thrash");
    let brute = classify_brute(&train, &test, 5, 0.0);
    for (d, b) in out.iter().zip(&brute) {
        assert_eq!(d.positive, b.positive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Label equivalence between distributed Fast kNN and brute force over
    /// randomised workload shapes and partitioning.
    #[test]
    fn distributed_label_equivalence(
        seed in 0u64..1000,
        b in 2usize..12,
        k in prop::sample::select(vec![3usize, 5, 7]),
    ) {
        let (train, test) = workload::<3>(300, 10, 25, seed);
        let cluster = Cluster::local(2);
        let model = FastKnn::fit(
            &cluster,
            &train,
            FastKnnConfig { k, b, c: 2, theta: 0.0, seed, prune: true },
        ).expect("fit");
        let fast = model.classify(&test).expect("classify");
        let brute = classify_brute(&train, &test, k, 0.0);
        for (f, g) in fast.iter().zip(&brute) {
            prop_assert_eq!(f.positive, g.positive, "id {}", f.id);
        }
    }
}
