//! The traced run's copy of the Fig. 1 loop.
//!
//! [`TracedSystem`] drives the same steps as `dedup::DedupSystem::bootstrap`
//! and `detect_new`, in the same order and through the same public calls,
//! with a span around each call into a layer. Its detections must be
//! bit-identical to the library's (the benchmark checks the digests), so
//! every step here mirrors the library line for line; if the library's
//! loop changes, this copy must change with it or the fidelity check fails.

use crate::trace::{Tracer, LOOP};
use adr_model::{AdrReport, DistVec, PairId, ReportId};
use dedup::pairing::{contiguous_partitions, pairwise_distance_batches, DistBatch};
use dedup::{
    pack_pairs, pairs_involving_new, pairwise_distances, BlockingIndex, CorpusIndex, DedupConfig,
    Detection, DistanceMemo, PairStore, ProcessedReport,
};
use fastknn::{counters, FastKnn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparklet::{stable_hash, Cluster, EventKind, Result};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use textprep::{Pipeline, TokenInterner};

/// Work counted at the layer boundaries of the traced loop.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    pub textprep_reports: u64,
    pub new_reports: u64,
    pub candidate_pairs: u64,
    pub memo_lookups: u64,
    pub memo_hits: u64,
    pub pairs_computed: u64,
    pub fit_calls: u64,
    pub train_pairs: u64,
    pub classify_rows: u64,
    pub comparisons: u64,
    pub evals_avoided: u64,
    pub store_adds: u64,
}

/// Order-sensitive digest of one batch's detections (the same fold the
/// ingest service applies before mixing a batch into its cumulative
/// digest).
pub fn detections_digest(detections: &[Detection]) -> u64 {
    let mut d = 0xD16Eu64;
    for det in detections {
        d = stable_hash(&(
            d,
            det.pair.lo,
            det.pair.hi,
            det.score.to_bits(),
            det.is_duplicate,
        ));
    }
    d
}

/// The ingest service's cumulative digest step for a committed batch.
pub fn fold_batch_digest(cumulative: u64, batch: u64, detections: &[Detection]) -> u64 {
    stable_hash(&(cumulative, batch, detections_digest(detections)))
}

fn comparison_total(cluster: &Cluster) -> (u64, u64) {
    let m = cluster.metrics();
    let done = [
        counters::CENTER_COMPARISONS,
        counters::INTRA_COMPARISONS,
        counters::POSITIVE_COMPARISONS,
        counters::CROSS_COMPARISONS,
    ]
    .iter()
    .map(|c| m.counter(c).get())
    .sum();
    (done, m.counter(counters::PRUNE_EVALS_AVOIDED).get())
}

/// Traced copy of `dedup::DedupSystem`.
pub struct TracedSystem {
    cluster: Cluster,
    config: DedupConfig,
    pipeline: Pipeline,
    interner: TokenInterner,
    processed: CorpusIndex,
    arrival_order: Vec<ReportId>,
    store: PairStore,
    blocking: BlockingIndex,
    memo: DistanceMemo,
    rng: StdRng,
    /// Work counted so far.
    pub counts: LayerCounts,
}

impl TracedSystem {
    /// Mirror of `DedupSystem::new`.
    pub fn new(cluster: Cluster, config: DedupConfig) -> Self {
        fastknn::register_spill_codecs::<{ fastknn::PAIR_DIMS }>(cluster.spill());
        TracedSystem {
            store: PairStore::new(config.max_negative_store, config.seed),
            rng: StdRng::seed_from_u64(config.seed ^ 0xD5DA),
            pipeline: Pipeline::paper(),
            interner: TokenInterner::new(),
            processed: Arc::new(HashMap::new()),
            arrival_order: Vec::new(),
            blocking: BlockingIndex::default(),
            memo: DistanceMemo::with_capacity(config.memo_pairs),
            cluster,
            config,
            counts: LayerCounts::default(),
        }
    }

    /// The engine cluster the loop runs on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The labelled-pair stores.
    pub fn store(&self) -> &PairStore {
        &self.store
    }

    fn add_report(&mut self, r: &AdrReport, tr: &mut Tracer, batch: u64) {
        let (pipeline, interner) = (&self.pipeline, &mut self.interner);
        let processed = tr.span("textprep", "ProcessedReport::from_report", batch, || {
            ProcessedReport::from_report(r, pipeline, interner)
        });
        self.counts.textprep_reports += 1;
        if self
            .processed
            .get(&r.id)
            .is_some_and(|old| *old != processed)
        {
            self.memo.purge_report(r.id);
        }
        let blocking = &mut self.blocking;
        tr.span("blocking", "BlockingIndex::insert", batch, || {
            blocking.insert(&processed)
        });
        Arc::make_mut(&mut self.processed).insert(r.id, processed);
        self.arrival_order.push(r.id);
    }

    fn store_feedback(&mut self, tr: &mut Tracer, batch: u64, rows: Vec<(PairId, DistVec, bool)>) {
        self.counts.store_adds += rows.len() as u64;
        let store = &mut self.store;
        tr.span("store", "PairStore::add", batch, || {
            for (pid, v, positive) in rows {
                store.add(pid, v, positive);
            }
        });
    }

    /// Mirror of `DedupSystem::bootstrap`.
    pub fn bootstrap(
        &mut self,
        reports: &[AdrReport],
        labelled_duplicates: &[PairId],
        tr: &mut Tracer,
    ) -> Result<()> {
        let span = tr.begin(LOOP, "DedupSystem::bootstrap", 0);
        for r in reports {
            self.add_report(r, tr, 0);
        }
        let dup_set: HashSet<PairId> = labelled_duplicates.iter().copied().collect();
        let mut wanted: Vec<PairId> = labelled_duplicates.to_vec();
        let n = self.arrival_order.len() as u64;
        let mut guard = 0;
        while wanted.len() < labelled_duplicates.len() + self.config.bootstrap_negatives {
            guard += 1;
            if guard > 100 * self.config.bootstrap_negatives + 1000 {
                break;
            }
            let a = self.rng.gen_range(0..n);
            let b = self.rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let pid = PairId::new(
                self.arrival_order[a as usize],
                self.arrival_order[b as usize],
            );
            if dup_set.contains(&pid) || wanted.contains(&pid) {
                continue;
            }
            wanted.push(pid);
        }
        self.counts.pairs_computed += wanted.len() as u64;
        let (cluster, processed, parts) =
            (&self.cluster, &self.processed, self.config.pair_partitions);
        let distances = tr.span("pairing", "pairwise_distances", 0, || {
            pairwise_distances(cluster, processed, wanted, parts)
        })?;
        let rows = distances
            .into_iter()
            .map(|(pid, v)| (pid, v, dup_set.contains(&pid)))
            .collect();
        self.store_feedback(tr, 0, rows);
        tr.end(span);
        Ok(())
    }

    /// Mirror of `DedupSystem::detect_new`; `batch` tags the spans.
    pub fn detect_new(
        &mut self,
        new_reports: &[AdrReport],
        tr: &mut Tracer,
        batch: u64,
    ) -> Result<Vec<Detection>> {
        if new_reports.is_empty() {
            return Ok(Vec::new());
        }
        let span = tr.begin(LOOP, "DedupSystem::detect_new", batch);
        let existing: Vec<ReportId> = self.arrival_order.clone();
        for r in new_reports {
            self.add_report(r, tr, batch);
        }
        self.counts.new_reports += new_reports.len() as u64;
        let new_ids: Vec<ReportId> = new_reports.iter().map(|r| r.id).collect();
        let parts = self.config.pair_partitions;
        let (pairs, vectors) = if self.config.use_blocking {
            let blocking = &self.blocking;
            let (groups, multi_key) = tr.span(
                "blocking",
                "BlockingIndex::candidate_pair_groups_counted",
                batch,
                || blocking.candidate_pair_groups_counted(&new_ids),
            );
            let candidates: u64 = groups.iter().map(|g| g.len() as u64).sum();
            self.counts.candidate_pairs += candidates;
            let memo = &mut self.memo;
            let (unknown, known) = tr.span("pairing", "DistanceMemo::split_known", batch, || {
                memo.split_known(groups)
            });
            let computed: u64 = unknown.iter().map(|g| g.len() as u64).sum();
            let memo_hits = known.len() as u64;
            self.counts.memo_lookups += candidates;
            self.counts.memo_hits += memo_hits;
            self.counts.pairs_computed += computed;
            let processed = &self.processed;
            let partitions = tr.span("pairing", "pack_pairs", batch, || {
                pack_pairs(processed, unknown, parts)
            });
            let cluster = &self.cluster;
            let (mut pairs, mut vectors) =
                tr.span("pairing", "pairwise_distance_batches", batch, || {
                    pairwise_distance_batches(cluster, processed, partitions)
                })?;
            let s = tr.begin("pairing", "DistanceMemo::insert+argsort", batch);
            for (row, pid) in pairs.iter().enumerate() {
                self.memo.insert(*pid, vectors.row(row));
            }
            for (pid, v) in known {
                pairs.push(pid);
                vectors.push(0, &v, false);
            }
            self.cluster.journal().record(EventKind::PruneApplied {
                scope: "detect-new-memo".into(),
                cells_skipped: 0,
                bound_rejected: 0,
                evals_done: computed,
                evals_avoided: memo_hits + multi_key,
                memo_hits,
            });
            let mut idx: Vec<usize> = (0..pairs.len()).collect();
            idx.sort_unstable_by_key(|&i| (pairs[i], i));
            let sorted: Vec<PairId> = idx.iter().map(|&i| pairs[i]).collect();
            let mut vectors: DistBatch = vectors.gather(&idx);
            for (row, id) in vectors.ids_mut().iter_mut().enumerate() {
                *id = row as u64;
            }
            tr.end(s);
            (sorted, vectors)
        } else {
            let candidates = tr.span("blocking", "pairs_involving_new", batch, || {
                pairs_involving_new(&new_ids, &existing)
            });
            self.counts.candidate_pairs += candidates.len() as u64;
            self.counts.pairs_computed += candidates.len() as u64;
            let partitions = tr.span("pairing", "contiguous_partitions", batch, || {
                contiguous_partitions(candidates, parts)
            });
            let (cluster, processed) = (&self.cluster, &self.processed);
            tr.span("pairing", "pairwise_distance_batches", batch, || {
                pairwise_distance_batches(cluster, processed, partitions)
            })?
        };

        let store = &self.store;
        let train = tr.span("store", "PairStore::training_pairs", batch, || {
            store.training_pairs()
        });
        self.counts.fit_calls += 1;
        self.counts.train_pairs += train.len() as u64;
        let (cluster, knn) = (&self.cluster, self.config.knn);
        let model = tr.span("fastknn.fit", "FastKnn::fit", batch, || {
            FastKnn::fit(cluster, &train, knn)
        })?;
        let (done0, avoided0) = comparison_total(&self.cluster);
        let scored = tr.span("fastknn.classify", "FastKnn::classify_batch", batch, || {
            model.classify_batch(&vectors)
        })?;
        let (done1, avoided1) = comparison_total(&self.cluster);
        self.counts.classify_rows += vectors.len() as u64;
        self.counts.comparisons += done1 - done0;
        self.counts.evals_avoided += avoided1 - avoided0;

        let rows: Vec<(PairId, DistVec, bool)> = scored
            .iter()
            .map(|s| {
                let row = s.id as usize;
                (pairs[row], vectors.row(row), s.positive)
            })
            .collect();
        let mut detections: Vec<Detection> = scored
            .iter()
            .zip(&rows)
            .map(|(s, (pid, _, _))| Detection {
                pair: *pid,
                score: s.score,
                is_duplicate: s.positive,
            })
            .collect();
        self.store_feedback(tr, batch, rows);
        detections.sort_by(|a, b| {
            b.is_duplicate.cmp(&a.is_duplicate).then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        tr.end(span);
        Ok(detections)
    }
}
