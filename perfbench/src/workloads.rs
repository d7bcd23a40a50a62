//! The four workloads, each in an untraced form (end-to-end metrics) and a
//! traced form (per-layer metrics).
//!
//! Every workload runs on a cluster of two single-core executors. Inputs
//! come from the seed alone; the generators run on the main thread
//! before any timer starts.
//!
//! An untraced run makes passes over a few independent corpora derived from
//! the seed, in whole cycles through them until the run has lasted
//! `--seconds` and made at least two cycles, so every corpus weighs the
//! same in every metric. Each pass builds a fresh system, so no state
//! carries from pass to pass. Pooling several corpora keeps the run-to-run
//! spread of the metrics low: with one corpus, how many false positives
//! feed back into the stores, and so how much work later batches do,
//! swings from seed to seed.
//!
//! Per-pass figures are averaged over the passes of a run, not taken as a
//! median. On a shared two-core virtual machine, the same single-threaded
//! work was measured at two speeds about 1.75× apart, switching every few
//! hundred milliseconds. A median over passes then jumps between the two
//! levels from run to run, while a mean moves only with the mix.

use crate::mirror::{fold_batch_digest, LayerCounts, TracedSystem};
use crate::stats::{mean, median, ms, peak_rss_mib, quantile, ratio, reset_peak_rss};
use crate::trace::{Tracer, LOOP};
use adr_model::{AdrReport, PairId};
use adr_synth::{
    generate_query_load, Dataset, QuarterlyReplay, QueryLoadConfig, QuerySpec, StreamingCorpus,
    SynthConfig,
};
use dedup::{
    answers_digest, DedupConfig, DedupSystem, IngestConfig, IngestService, PairStore, ServeAnswer,
    ServeConfig, ServeQuery, ServeRequest, ServeService,
};
use fastknn::FastKnnConfig;
use sparklet::{stable_hash, Cluster, ClusterConfig, JobReport};
use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Executors in every workload's cluster (one core each).
pub const EXECUTORS: usize = 2;
/// Store snapshot→restore round trips timed per pass.
const RESTORE_ROUNDS: usize = 5;

/// Corpus shape of the detect workloads: new reports arrive at a
/// bootstrapped database in quarters and are compared against all of it
/// (§3).
const DETECT_REPORTS: usize = 1_000;
const DETECT_DUPLICATES: usize = 100;
const DETECT_QUARTER: u64 = 100;
const DETECT_BOOTSTRAP_QUARTERS: u64 = 8;
const DETECT_CORPORA: u64 = 4;

/// Per-executor memory cap of `detect_spill`. A 16 MiB cap spills without
/// slowing the run. At 4 MiB the volume spilled and read back still swings
/// with the corpus (65–105 MB read back across seeds); at 1 MiB the disk
/// tier is saturated and its traffic is steady from seed to seed.
const SPILL_CAP: usize = 1 << 20;

/// Corpus shape of `ingest_quarterly`.
const INGEST_REPORTS: usize = 2_400;
const INGEST_DUPLICATES: usize = 120;
const INGEST_QUARTER: u64 = 200;
const INGEST_BOOTSTRAP_QUARTERS: u64 = 6;
const INGEST_CORPORA: u64 = 6;
/// Reopens from the final checkpoint timed per pass.
const INGEST_RECOVERIES: usize = 2;

/// Shape of `serve_open_loop`. Below ~400 requests/s the micro-batching
/// becomes bistable and p99 swings by 2×, so the rate stays here.
const SERVE_REPORTS: usize = 2_400;
const SERVE_DUPLICATES: usize = 120;
const SERVE_REQUESTS: usize = 1_000;
const SERVE_RATE_PER_S: u64 = 400;
const SERVE_SIGNAL_PER_MILLE: u32 = 300;
const SERVE_CLOSED_CALL: usize = 64;
const SERVE_CORPORA: u64 = 4;

/// Command-line settings of one run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Where the Chrome trace of a traced run is written.
    pub trace_dir: PathBuf,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the metric is on this workload.
    pub meaning: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, meaning: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        meaning,
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result (digests, simulated time, paths).
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn cluster(cap: Option<usize>) -> Cluster {
    let mut cfg = ClusterConfig::local(EXECUTORS);
    if let Some(bytes) = cap {
        cfg.memory_per_executor = bytes;
    }
    Cluster::new(cfg)
}

/// Eq. 6 at θ = 10, b = 8: the service's operating point (scores of true
/// duplicates land far above 1; a loose θ floods the duplicate store).
fn knn() -> FastKnnConfig {
    FastKnnConfig {
        theta: 10.0,
        b: 8,
        ..FastKnnConfig::default()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `f` and return its result with its wall time in ms.
fn timed<T>(f: impl FnOnce() -> Res<T>) -> Res<(T, f64)> {
    let t = Instant::now();
    let out = f()?;
    Ok((out, ms(t.elapsed())))
}

/// Wall time (ms) of the untraced passes around a traced one, averaged so
/// that warm-up and drift over the run cancel; fails unless both passes
/// gave `digest`.
fn untraced_ms(before: (u64, f64), after: (u64, f64), digest: u64, out: &mut Outcome) -> f64 {
    out.check(
        "traced digest equals the untraced passes' before and after it",
        before.0 == digest && after.0 == digest,
    );
    (before.1 + after.1) / 2.0
}

/// Seed of corpus `corpus` of a run.
fn corpus_seed(seed: u64, corpus: u64) -> u64 {
    stable_hash(&(seed, corpus))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Flagged pairs scored against the true pairs, pooled over corpora.
#[derive(Debug, Default, Clone, Copy)]
struct Hits {
    hit: u64,
    flagged: u64,
    truth: u64,
}

impl Hits {
    fn of(flagged: &HashSet<PairId>, truth: &HashSet<PairId>) -> Self {
        Hits {
            hit: flagged.intersection(truth).count() as u64,
            flagged: flagged.len() as u64,
            truth: truth.len() as u64,
        }
    }

    fn add(self, o: Hits) -> Hits {
        Hits {
            hit: self.hit + o.hit,
            flagged: self.flagged + o.flagged,
            truth: self.truth + o.truth,
        }
    }
}

/// What every pass reports, whatever the workload.
struct Pass {
    setup_s: f64,
    /// Per-operation wall times (detect calls, commits), ms.
    ops_ms: Vec<f64>,
    /// Units of work done by `ops_ms` (reports).
    units: u64,
    digest: u64,
    hits: Hits,
    /// Recovery samples, ms.
    recovery_ms: Vec<f64>,
    recovered_exactly: bool,
    virtual_s: f64,
}

/// The passes of a run, and the peak resident set size (MiB) of each.
struct Passes {
    passes: Vec<Pass>,
    /// `VmHWM` from the start to the end of each pass, with the memory the
    /// allocator kept from earlier passes handed back before it starts.
    rss_mib: Vec<f64>,
}

/// Run `pass(corpus)` over corpora `0..corpora` in whole cycles until the
/// run has lasted `seconds` and made at least two cycles. Every run of a
/// corpus must give the same digest.
fn cycle(
    args: &RunArgs,
    corpora: u64,
    out: &mut Outcome,
    mut pass: impl FnMut(u64) -> Res<Pass>,
) -> Res<Passes> {
    let start = Instant::now();
    let (mut passes, mut rss_mib) = (Vec::new(), Vec::new());
    let k = corpora as usize;
    while passes.len() < 2 * k
        || passes.len() % k != 0
        || start.elapsed().as_secs_f64() < args.seconds
    {
        reset_peak_rss();
        passes.push(pass(passes.len() as u64 % corpora)?);
        rss_mib.push(peak_rss_mib());
    }
    let repeats = passes.len().saturating_sub(k);
    out.check(
        format!("digests identical across passes of one corpus ({repeats} repeated)"),
        (k..passes.len()).all(|i| passes[i].digest == passes[i - k].digest),
    );
    out.notes.push(format!(
        "passes {} over {corpora} corpora in {:.3} s",
        passes.len(),
        secs(start.elapsed())
    ));
    Ok(Passes { passes, rss_mib })
}

/// Time `RESTORE_ROUNDS` snapshot→restore round trips of a labelled store
/// into `samples`; `exact` turns false if a restore differs.
fn store_round_trips(store: &PairStore, samples: &mut Vec<f64>, exact: &mut bool) {
    for _ in 0..RESTORE_ROUNDS {
        let t = Instant::now();
        let snapshot = store.snapshot();
        let restored = PairStore::restore(&snapshot);
        samples.push(ms(t.elapsed()));
        *exact &= restored.is_ok_and(|r| r.snapshot() == snapshot);
    }
}

/// Metrics every workload reports the same way.
fn push_common(out: &mut Outcome, run: &Passes, corpora: u64, recovery: &'static str) {
    let passes = &run.passes;
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let recoveries: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.recovery_ms.iter().copied())
        .collect();
    let hits = passes
        .iter()
        .take(corpora as usize)
        .fold(Hits::default(), |a, p| a.add(p.hits));
    out.metrics.extend([
        metric("setup_s", mean(&setups), "s", "set-up time, mean over passes"),
        metric("recovery_ms", mean(&recoveries), "ms", recovery),
        metric(
            "dup_recall",
            ratio(hits.hit as f64, hits.truth as f64),
            "ratio",
            "dup_recall",
        ),
        metric(
            "peak_rss_mib",
            median(&run.rss_mib),
            "MiB",
            "peak_rss_mib: VmHWM of a pass, median over passes",
        ),
    ]);
    out.check(
        "recovered state equals the state it was taken from",
        passes.iter().all(|p| p.recovered_exactly),
    );
    out.notes.push(format!(
        "quality: {} of {} flagged pairs true (dup_precision {:.4}), {} true pairs; \
         digest of corpus 0 {:016x}",
        hits.hit,
        hits.flagged,
        ratio(hits.hit as f64, hits.flagged as f64),
        hits.truth,
        passes[0].digest
    ));
    let wall: f64 = passes.iter().flat_map(|p| p.ops_ms.iter()).sum::<f64>() / 1e3;
    let virt: f64 = passes.iter().map(|p| p.virtual_s).sum();
    out.notes.push(format!(
        "clock: {wall:.3} s measured wall time in timed operations; \
         {virt:.3} s simulated by the virtual cost model over whole passes"
    ));
}

/// Throughput, median and tail of the timed operations of a pass, each
/// a mean over passes. The median operation is taken per pass because a
/// pass's operations grow with its database: pooled, the median would fall
/// in the gap between two sizes of operation.
fn push_ops(out: &mut Outcome, passes: &[Pass], meanings: [&'static str; 3]) {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| p.units as f64 / (p.ops_ms.iter().sum::<f64>() / 1e3))
        .collect();
    let p50: Vec<f64> = passes.iter().map(|p| median(&p.ops_ms)).collect();
    let slowest: Vec<f64> = passes
        .iter()
        .map(|p| p.ops_ms.iter().copied().fold(0.0, f64::max))
        .collect();
    out.metrics.extend([
        metric("throughput_per_s", mean(&per_pass), "1/s", meanings[0]),
        metric("latency_p50_ms", mean(&p50), "ms", meanings[1]),
        metric("latency_tail_ms", mean(&slowest), "ms", meanings[2]),
    ]);
}

// ---------------------------------------------------------------- detect

struct DetectInputs {
    bootstrap: Vec<AdrReport>,
    labelled: Vec<PairId>,
    quarters: Vec<Vec<AdrReport>>,
    truth: HashSet<PairId>,
}

impl DetectInputs {
    /// A quarterly replay, not a trailing hold-out: the generator appends
    /// duplicate partners last, so a hold-out would hold no labelled
    /// duplicates to find.
    fn generate(seed: u64) -> Self {
        let rp = QuarterlyReplay::new(
            StreamingCorpus::new(SynthConfig::small(DETECT_REPORTS, DETECT_DUPLICATES, seed)),
            DETECT_QUARTER,
        );
        let boot_q = DETECT_BOOTSTRAP_QUARTERS;
        let (labelled, truth) = split_truth(&rp, boot_q);
        DetectInputs {
            bootstrap: (0..boot_q).flat_map(|q| rp.quarter_reports(q)).collect(),
            quarters: (boot_q..rp.quarters())
                .map(|q| rp.quarter_reports(q))
                .collect(),
            labelled,
            truth,
        }
    }
}

/// The labelled pairs a bootstrap over the first `boot_q` quarters knows,
/// and the true pairs whose later member arrives after them.
fn split_truth(rp: &QuarterlyReplay, boot_q: u64) -> (Vec<PairId>, HashSet<PairId>) {
    let labelled = rp.labelled_pairs_within(rp.quarter_range(boot_q - 1).end);
    let known: HashSet<PairId> = labelled.iter().copied().collect();
    let all = rp.labelled_pairs_within(rp.quarter_range(rp.quarters() - 1).end);
    let truth = all.into_iter().filter(|p| !known.contains(p)).collect();
    (labelled, truth)
}

fn detect_config() -> DedupConfig {
    DedupConfig {
        use_blocking: false,
        knn: knn(),
        ..DedupConfig::default()
    }
}

/// Spill traffic of a pass: bytes written, bytes read back.
type SpillBytes = (u64, u64);

/// One black-box pass: set-up, then every arriving quarter through
/// `detect_new`, then store round trips.
fn detect_pass(inp: &DetectInputs, cap: Option<usize>) -> Res<(Pass, SpillBytes)> {
    let t = Instant::now();
    let mut sys = DedupSystem::new(cluster(cap), detect_config());
    sys.bootstrap(&inp.bootstrap, &inp.labelled)
        .map_err(err("bootstrap"))?;
    let setup_s = secs(t.elapsed());
    let mut ops_ms = Vec::new();
    let mut digest = 0u64;
    let mut flagged = HashSet::new();
    for (i, q) in inp.quarters.iter().enumerate() {
        let t = Instant::now();
        let dets = sys.detect_new(q).map_err(err("detect_new"))?;
        ops_ms.push(ms(t.elapsed()));
        digest = fold_batch_digest(digest, i as u64, &dets);
        flagged.extend(dets.iter().filter(|d| d.is_duplicate).map(|d| d.pair));
    }
    let (mut recovery_ms, mut exact) = (Vec::new(), true);
    store_round_trips(sys.store(), &mut recovery_ms, &mut exact);
    let report = sys.job_report();
    let pass = Pass {
        setup_s,
        ops_ms,
        units: inp.quarters.iter().map(|q| q.len() as u64).sum(),
        digest,
        hits: Hits::of(&flagged, &inp.truth),
        recovery_ms,
        recovered_exactly: exact,
        virtual_s: report.virtual_us as f64 / 1e6,
    };
    Ok((
        pass,
        (report.spill.bytes_spilled, report.spill.bytes_read_back),
    ))
}

/// `detect_exhaustive` (`spill = false`) and `detect_spill`.
pub fn detect(args: &RunArgs, spill: bool) -> Res<Outcome> {
    let inputs: Vec<DetectInputs> = (0..DETECT_CORPORA)
        .map(|c| DetectInputs::generate(corpus_seed(args.seed, c)))
        .collect();
    let cap = spill.then_some(SPILL_CAP);
    let mut out = Outcome::default();
    let mut spilled = Vec::new();
    let run = cycle(args, DETECT_CORPORA, &mut out, |c| {
        let (pass, bytes) = detect_pass(&inputs[c as usize], cap)?;
        spilled.push(bytes);
        Ok(pass)
    })?;
    let passes = &run.passes;
    out.attempted = passes.iter().map(|p| 1 + p.ops_ms.len() as u64).sum();
    push_ops(
        &mut out,
        passes,
        [
            "detect_reports_per_s, mean over passes",
            "detect_batch_p50_ms: median detect_new call of a pass, mean over passes",
            "slowest detect_new call of a pass, mean over passes",
        ],
    );
    push_common(
        &mut out,
        &run,
        DETECT_CORPORA,
        "labelled-store snapshot and restore, mean",
    );
    let flagged: u64 = passes.iter().map(|p| p.hits.flagged).sum();
    out.check("detections flag at least one pair", flagged > 0);
    if spill {
        let (written, read) = spilled.iter().fold((0, 0), |(w, r), (a, b)| (w + a, r + b));
        out.notes.push(format!(
            "spill: {written} B written, {read} B read back over all passes"
        ));
        out.check(
            "the memory cap spills in every pass",
            spilled.iter().all(|(w, _)| *w > 0),
        );
        // The same inputs on an uncapped cluster, after the peak-RSS
        // reading above so they do not count towards it.
        let (reference, _) = detect_pass(&inputs[0], None)?;
        out.attempted += 1 + reference.ops_ms.len() as u64;
        out.check(
            "spilled detections equal detect_exhaustive's",
            reference.digest == passes[0].digest,
        );
    }
    Ok(out)
}

/// Traced `detect_exhaustive` / `detect_spill` over corpus 0: the pass
/// through [`TracedSystem`], between two black-box passes.
pub fn detect_traced(args: &RunArgs, spill: bool, name: &str) -> Res<Outcome> {
    let inp = DetectInputs::generate(corpus_seed(args.seed, 0));
    let cap = spill.then_some(SPILL_CAP);
    let mut out = Outcome::default();
    let (before, before_ms) = timed(|| detect_pass(&inp, cap))?;

    let mut tr = Tracer::default();
    let root = tr.begin(LOOP, "run", 0);
    let setup = tr.begin(LOOP, "setup", 0);
    let mut sys = TracedSystem::new(cluster(cap), detect_config());
    sys.bootstrap(&inp.bootstrap, &inp.labelled, &mut tr)
        .map_err(err("bootstrap"))?;
    tr.end(setup);
    let mut digest = 0u64;
    let mut flagged = HashSet::new();
    for (i, q) in inp.quarters.iter().enumerate() {
        let dets = sys
            .detect_new(q, &mut tr, i as u64 + 1)
            .map_err(err("detect_new"))?;
        digest = fold_batch_digest(digest, i as u64, &dets);
        flagged.extend(dets.iter().filter(|d| d.is_duplicate).map(|d| d.pair));
    }
    let (mut samples, mut exact) = (Vec::new(), true);
    let span = tr.begin("store.snapshot", "PairStore::snapshot+restore", 0);
    store_round_trips(sys.store(), &mut samples, &mut exact);
    tr.end(span);
    tr.end(root);
    let (after, after_ms) = timed(|| detect_pass(&inp, cap))?;
    let plain_ms = untraced_ms(
        (before.0.digest, before_ms),
        (after.0.digest, after_ms),
        digest,
        &mut out,
    );
    out.attempted = 3 * (1 + inp.quarters.len() as u64);
    out.check("store snapshot restores exactly", exact);
    let report = sys.cluster().job_report();
    let layers = LayerInputs {
        report: &report,
        store: sys.store(),
        counts: &sys.counts,
        hits: Hits::of(&flagged, &inp.truth),
        plain_ms,
        checkpoint_bytes: 0,
        serve: None,
    };
    out.metrics = layer_metrics(&tr, &layers);
    write_trace(&tr, args, name, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------- ingest

fn ingest_replay(seed: u64) -> QuarterlyReplay {
    QuarterlyReplay::new(
        StreamingCorpus::new(SynthConfig::small(INGEST_REPORTS, INGEST_DUPLICATES, seed)),
        INGEST_QUARTER,
    )
}

fn ingest_dedup_config() -> DedupConfig {
    let boot = (INGEST_QUARTER * INGEST_BOOTSTRAP_QUARTERS) as usize;
    let defaults = DedupConfig::default();
    DedupConfig {
        // Fill the negative reservoir at bootstrap, as the first live
        // quarter would anyway.
        bootstrap_negatives: defaults.max_negative_store.min(boot * boot / 4),
        use_blocking: true,
        knn: knn(),
        ..defaults
    }
}

fn open_ingest(dir: &Path, rp: &QuarterlyReplay) -> Res<IngestService> {
    let mut cfg = IngestConfig::new(dir);
    cfg.bootstrap_quarters = INGEST_BOOTSTRAP_QUARTERS;
    IngestService::open(cluster(None), ingest_dedup_config(), cfg, rp)
        .map_err(err("IngestService::open"))
}

/// One black-box pass: open and bootstrap (set-up), commit every live
/// quarter (a checkpoint each), then reopen from the final checkpoint.
fn ingest_pass(rp: &QuarterlyReplay, dir: &Path) -> Res<Pass> {
    let (labelled, truth) = split_truth(rp, INGEST_BOOTSTRAP_QUARTERS);
    let labelled: HashSet<PairId> = labelled.into_iter().collect();
    let t = Instant::now();
    let mut svc = open_ingest(dir, rp)?;
    svc.run(rp, INGEST_BOOTSTRAP_QUARTERS)
        .map_err(err("bootstrap quarters"))?;
    let setup_s = secs(t.elapsed());
    let mut ops_ms = Vec::new();
    for q in INGEST_BOOTSTRAP_QUARTERS..rp.quarters() {
        let t = Instant::now();
        let committed = svc.run(rp, q + 1).map_err(err("IngestService::run"))?;
        ops_ms.push(ms(t.elapsed()));
        if committed != 1 {
            return Err(format!("quarter {q} did not commit"));
        }
    }
    let flagged: HashSet<PairId> = svc
        .system()
        .store()
        .duplicate_pairs()
        .filter(|p| !labelled.contains(p))
        .collect();
    let (mut recovery_ms, mut exact) = (Vec::new(), true);
    for _ in 0..INGEST_RECOVERIES {
        let t = Instant::now();
        let reopened = open_ingest(dir, rp)?;
        recovery_ms.push(ms(t.elapsed()));
        exact &= reopened.batch_high_water() == svc.batch_high_water()
            && reopened.cumulative_digest() == svc.cumulative_digest();
    }
    Ok(Pass {
        setup_s,
        units: (INGEST_BOOTSTRAP_QUARTERS..rp.quarters())
            .map(|q| rp.quarter_range(q).count() as u64)
            .sum(),
        ops_ms,
        digest: svc.cumulative_digest(),
        hits: Hits::of(&flagged, &truth),
        recovery_ms,
        recovered_exactly: exact,
        virtual_s: svc.job_report().virtual_us as f64 / 1e6,
    })
}

/// `ingest_quarterly`.
pub fn ingest(args: &RunArgs) -> Res<Outcome> {
    let replays: Vec<QuarterlyReplay> = (0..INGEST_CORPORA)
        .map(|c| ingest_replay(corpus_seed(args.seed, c)))
        .collect();
    let mut out = Outcome::default();
    let run = cycle(args, INGEST_CORPORA, &mut out, |c| {
        let dir = temp_dir("ingest");
        let pass = ingest_pass(&replays[c as usize], &dir);
        let _ = fs::remove_dir_all(&dir);
        pass
    })?;
    let passes = &run.passes;
    out.attempted = passes
        .iter()
        .map(|p| 1 + (p.ops_ms.len() + p.recovery_ms.len()) as u64)
        .sum();
    push_ops(
        &mut out,
        passes,
        [
            "ingest_reports_per_s, mean over passes",
            "commit_p50_ms: median quarter of a pass, mean over passes",
            "commit_max_ms: slowest quarter of a pass, mean over passes",
        ],
    );
    push_common(
        &mut out,
        &run,
        INGEST_CORPORA,
        "recovery: IngestService::open on the final checkpoint, mean",
    );
    Ok(out)
}

/// Traced `ingest_quarterly` over corpus 0, between two black-box passes:
/// the quarters through [`TracedSystem`] with a checkpoint (store snapshot
/// plus an fsynced write) after every commit, then recovery at the level
/// of `IngestService::open` on the first black-box pass's checkpoints.
pub fn ingest_traced(args: &RunArgs) -> Res<Outcome> {
    let rp = ingest_replay(corpus_seed(args.seed, 0));
    let mut out = Outcome::default();
    let dir = temp_dir("ingest-traced");
    let (plain, before_ms) = timed(|| ingest_pass(&rp, &dir))?;

    let ckpt_dir = temp_dir("ingest-traced-ckpt");
    fs::create_dir_all(&ckpt_dir).map_err(err("checkpoint dir"))?;
    let mut ckpt_bytes = 0u64;
    let mut tr = Tracer::default();
    let root = tr.begin(LOOP, "run", 0);
    let setup = tr.begin(LOOP, "setup", 0);
    let mut sys = TracedSystem::new(cluster(None), ingest_dedup_config());
    let boot_q = INGEST_BOOTSTRAP_QUARTERS;
    let (labelled, truth) = split_truth(&rp, boot_q);
    let boot: Vec<AdrReport> = (0..boot_q).flat_map(|q| rp.quarter_reports(q)).collect();
    sys.bootstrap(&boot, &labelled, &mut tr)
        .map_err(err("bootstrap"))?;
    ckpt_bytes += checkpoint(&sys, &ckpt_dir, 0, &mut tr)?;
    tr.end(setup);
    let mut digest = 0u64;
    for q in boot_q..rp.quarters() {
        let span = tr.begin(LOOP, "quarter", q);
        let reports = rp.quarter_reports(q);
        let dets = sys
            .detect_new(&reports, &mut tr, q)
            .map_err(err("detect_new"))?;
        digest = fold_batch_digest(digest, q, &dets);
        ckpt_bytes += checkpoint(&sys, &ckpt_dir, q, &mut tr)?;
        tr.end(span);
    }
    // As many reopens as the untraced pass makes, so the two wall times
    // cover the same work.
    let mut reopened_digests = Vec::new();
    for _ in 0..INGEST_RECOVERIES {
        let span = tr.begin("ingest.recovery", "IngestService::open", boot_q);
        let reopened = open_ingest(&dir, &rp);
        tr.end(span);
        reopened_digests.push(reopened?.cumulative_digest());
    }
    tr.end(root);
    let after_dir = temp_dir("ingest-traced-after");
    let (after, after_ms) = timed(|| ingest_pass(&rp, &after_dir))?;
    let plain_ms = untraced_ms(
        (plain.digest, before_ms),
        (after.digest, after_ms),
        digest,
        &mut out,
    );
    for d in [&dir, &after_dir, &ckpt_dir] {
        let _ = fs::remove_dir_all(d);
    }
    out.attempted = 3 * (1 + rp.quarters() - boot_q + INGEST_RECOVERIES as u64);
    out.check(
        "recovery reaches the same high-water mark and digest",
        plain.recovered_exactly && reopened_digests.iter().all(|d| *d == plain.digest),
    );
    let known: HashSet<PairId> = labelled.into_iter().collect();
    let flagged: HashSet<PairId> = sys
        .store()
        .duplicate_pairs()
        .filter(|p| !known.contains(p))
        .collect();
    let report = sys.cluster().job_report();
    let layers = LayerInputs {
        report: &report,
        store: sys.store(),
        counts: &sys.counts,
        hits: Hits::of(&flagged, &truth),
        plain_ms,
        checkpoint_bytes: ckpt_bytes,
        serve: None,
    };
    out.metrics = layer_metrics(&tr, &layers);
    write_trace(&tr, args, "ingest_quarterly", &mut out)?;
    Ok(out)
}

/// Checkpoint the traced loop's store: `PairStore::snapshot`, then an
/// fsynced temp-file write renamed into place. Returns the bytes written.
fn checkpoint(sys: &TracedSystem, dir: &Path, batch: u64, tr: &mut Tracer) -> Res<u64> {
    let span = tr.begin("ingest.checkpoint", "PairStore::snapshot+write", batch);
    let snapshot = sys.store().snapshot();
    let tmp = dir.join("ckpt.tmp");
    let mut f = fs::File::create(&tmp).map_err(err("checkpoint create"))?;
    f.write_all(snapshot.as_bytes())
        .map_err(err("checkpoint write"))?;
    f.sync_all().map_err(err("checkpoint fsync"))?;
    fs::rename(&tmp, dir.join(format!("ckpt-{batch:08}"))).map_err(err("checkpoint rename"))?;
    tr.end(span);
    Ok(snapshot.len() as u64)
}

// ----------------------------------------------------------------- serve

fn first_word(s: &str) -> String {
    s.split_whitespace().next().unwrap_or(s).to_lowercase()
}

struct ServeInputs {
    ds: Dataset,
    requests: Vec<ServeRequest>,
    /// Per request: the report a new-report duplicate probe copies.
    truth: Vec<Option<u64>>,
}

impl ServeInputs {
    /// Signal queries ask about a corpus report's leading drug and
    /// reaction words. A duplicate probe of a report that is a known
    /// duplicate member resubmits it under its own id (a follow-up,
    /// answered from the store's member index); any other probe is a new
    /// report copying a corpus report, which is then its true duplicate.
    fn generate(seed: u64) -> Self {
        let ds = Dataset::generate(&SynthConfig::small(SERVE_REPORTS, SERVE_DUPLICATES, seed));
        let members: HashSet<u64> = ds
            .duplicate_pairs
            .iter()
            .flat_map(|p| [p.lo, p.hi])
            .collect();
        let load = generate_query_load(&QueryLoadConfig {
            seed,
            requests: SERVE_REQUESTS,
            users: 2_000_000,
            mean_interarrival_us: 1_000_000 / SERVE_RATE_PER_S,
            signal_per_mille: SERVE_SIGNAL_PER_MILLE,
            probe_span: SERVE_REPORTS as u64,
        });
        let mut requests = Vec::with_capacity(load.len());
        let mut truth = Vec::with_capacity(load.len());
        for (i, q) in load.iter().enumerate() {
            let (query, copied) = match q.spec {
                QuerySpec::Duplicate { probe_id } => {
                    let mut report = ds.reports[probe_id as usize % ds.reports.len()].clone();
                    if members.contains(&report.id) {
                        (ServeQuery::Duplicate { report }, None)
                    } else {
                        let copied = report.id;
                        report.id = 1_000_000_000 + i as u64;
                        (ServeQuery::Duplicate { report }, Some(copied))
                    }
                }
                QuerySpec::Signal { probe_id } => {
                    let r = &ds.reports[probe_id as usize % ds.reports.len()];
                    let query = ServeQuery::Signal {
                        drug: first_word(r.drug_names().first().copied().unwrap_or("panadol")),
                        event: first_word(r.adr_names().first().copied().unwrap_or("rash")),
                    };
                    (query, None)
                }
            };
            requests.push(ServeRequest {
                arrival_us: q.arrival_us,
                query,
            });
            truth.push(copied);
        }
        ServeInputs {
            ds,
            requests,
            truth,
        }
    }

    /// Flagged matches of the new-report probes against the report each
    /// one copies.
    fn hits(&self, answers: &[ServeAnswer]) -> Hits {
        let mut h = Hits::default();
        for (a, copied) in answers.iter().zip(&self.truth) {
            let (ServeAnswer::Duplicate { matches, .. }, Some(copied)) = (a, copied) else {
                continue;
            };
            h.truth += 1;
            for m in matches.iter().filter(|m| m.is_duplicate) {
                h.flagged += 1;
                h.hit += u64::from(m.candidate == *copied);
            }
        }
        h
    }
}

fn serve_setup(inp: &ServeInputs) -> Res<(DedupSystem, ServeService)> {
    let mut sys = DedupSystem::new(
        cluster(None),
        DedupConfig {
            use_blocking: true,
            knn: knn(),
            ..DedupConfig::default()
        },
    );
    sys.bootstrap(&inp.ds.reports, &inp.ds.duplicate_pairs)
        .map_err(err("bootstrap"))?;
    let svc = ServeService::attach(&sys, ServeConfig::default()).map_err(err("attach"))?;
    Ok((sys, svc))
}

/// Results of phase (a), the open loop.
#[derive(Default)]
struct OpenLoop {
    answers: Vec<ServeAnswer>,
    /// Due time → answer, per request.
    latency_ms: Vec<f64>,
    /// Due time → hand-off to the service, per request.
    wait_ms: Vec<f64>,
    /// How late the generator handed over requests that fell due while
    /// the service was idle.
    lag_ms: Vec<f64>,
    shortcuts: u64,
    duplicate_probes: u64,
}

/// Run `f` in a span when a tracer is given.
fn traced<R>(
    tr: &mut Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.span(layer, name, id, f),
        None => f(),
    }
}

/// Phase (a): hand the service every request that is due, stamped with its
/// true due-time offset; time each request from its due time.
fn open_loop(
    svc: &mut ServeService,
    requests: &[ServeRequest],
    tr: &mut Option<&mut Tracer>,
) -> Res<OpenLoop> {
    let n = requests.len();
    let mut out = OpenLoop::default();
    let t0 = Instant::now();
    let now_us = || t0.elapsed().as_micros() as u64;
    let mut idle_since = 0u64;
    let mut i = 0;
    while i < n {
        let now = now_us();
        let due = requests[i].arrival_us;
        if due > now {
            std::thread::sleep(Duration::from_micros(due - now));
            continue;
        }
        let end = i + requests[i..].partition_point(|r| r.arrival_us <= now);
        for r in &requests[i..end] {
            out.wait_ms.push((now - r.arrival_us) as f64 / 1e3);
            if r.arrival_us >= idle_since {
                out.lag_ms.push((now - r.arrival_us) as f64 / 1e3);
            }
        }
        let summary = traced(tr, "serve", "ServeService::run_open_loop", i as u64, || {
            svc.run_open_loop(&requests[i..end])
        })
        .map_err(err("run_open_loop"))?;
        let done = now_us();
        out.latency_ms.extend(
            requests[i..end]
                .iter()
                .map(|r| (done - r.arrival_us) as f64 / 1e3),
        );
        out.answers.extend(summary.answers);
        idle_since = done;
        i = end;
    }
    for a in &out.answers {
        if let ServeAnswer::Duplicate {
            known_memberships, ..
        } = a
        {
            out.duplicate_probes += 1;
            out.shortcuts += u64::from(*known_memberships > 0);
        }
    }
    Ok(out)
}

/// Phase (b): the same requests in back-to-back calls. Returns the answers
/// and the wall time of each call in ms.
fn closed_loop(
    svc: &mut ServeService,
    requests: &[ServeRequest],
    tr: &mut Option<&mut Tracer>,
) -> Res<(Vec<ServeAnswer>, Vec<f64>)> {
    let mut answers = Vec::with_capacity(requests.len());
    let mut call_ms = Vec::new();
    for (c, chunk) in requests.chunks(SERVE_CLOSED_CALL).enumerate() {
        let id = (c * SERVE_CLOSED_CALL) as u64;
        let t = Instant::now();
        let summary = traced(tr, "serve", "ServeService::run_open_loop", id, || {
            svc.run_open_loop(chunk)
        })
        .map_err(err("run_open_loop"))?;
        call_ms.push(ms(t.elapsed()));
        answers.extend(summary.answers);
    }
    Ok((answers, call_ms))
}

/// One serve pass and what it leaves behind for the traced run's layer
/// metrics. The pass's timed operations are the calls of phase (b).
struct ServePass {
    pass: Pass,
    open: OpenLoop,
    phases_agree: bool,
    sys: DedupSystem,
    svc: ServeService,
}

/// Set-up, phase (a), a refresh that empties the signal memo so phase (b)
/// starts as (a) did, phase (b), then store round trips.
fn serve_pass(inp: &ServeInputs, tr: &mut Option<&mut Tracer>) -> Res<ServePass> {
    let t = Instant::now();
    let (sys, mut svc) = traced(
        tr,
        "dedup.system",
        "DedupSystem::new+bootstrap+ServeService::attach",
        0,
        || serve_setup(inp),
    )?;
    let setup_s = secs(t.elapsed());
    let open = open_loop(&mut svc, &inp.requests, tr)?;
    traced(tr, "serve.refresh", "ServeService::refresh", 0, || {
        svc.refresh(&sys)
    })
    .map_err(err("refresh"))?;
    let (closed, call_ms) = closed_loop(&mut svc, &inp.requests, tr)?;
    let digest = answers_digest(&open.answers);
    let (mut recovery_ms, mut exact) = (Vec::new(), true);
    store_round_trips(sys.store(), &mut recovery_ms, &mut exact);
    Ok(ServePass {
        pass: Pass {
            setup_s,
            ops_ms: call_ms,
            units: closed.len() as u64,
            digest,
            hits: inp.hits(&open.answers),
            recovery_ms,
            recovered_exactly: exact,
            virtual_s: sys.job_report().virtual_us as f64 / 1e6,
        },
        phases_agree: answers_digest(&closed) == digest,
        open,
        sys,
        svc,
    })
}

/// `serve_open_loop`.
pub fn serve(args: &RunArgs) -> Res<Outcome> {
    let inputs: Vec<ServeInputs> = (0..SERVE_CORPORA)
        .map(|c| ServeInputs::generate(corpus_seed(args.seed, c)))
        .collect();
    let mut out = Outcome::default();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut samples = 0;
    let (mut agree, mut answered) = (true, 0u64);
    let run = cycle(args, SERVE_CORPORA, &mut out, |c| {
        let sp = serve_pass(&inputs[c as usize], &mut None)?;
        p50.push(quantile(&sp.open.latency_ms, 0.5));
        p99.push(quantile(&sp.open.latency_ms, 0.99));
        samples += sp.open.latency_ms.len();
        agree &= sp.phases_agree;
        answered += sp.open.answers.len() as u64 + sp.pass.units;
        Ok(sp.pass)
    })?;
    let passes = &run.passes;
    let requests = 2 * SERVE_REQUESTS as u64 * passes.len() as u64;
    out.attempted = requests + passes.len() as u64;
    out.failed = requests - answered;
    // The gated latencies are phase (b)'s calls. Phase (a) keeps the
    // service busy most of the time, so its latencies amplify any slowdown
    // of the host (p50 spreads of 0.31-0.37 over ten runs while the host
    // ran a fifth slower than usual); they are printed below, not gated.
    push_ops(
        &mut out,
        passes,
        [
            "serve_rps: phase (b) requests per second, mean over passes",
            "median phase (b) call of 64 requests of a pass, mean over passes",
            "slowest phase (b) call of a pass, mean over passes",
        ],
    );
    push_common(
        &mut out,
        &run,
        SERVE_CORPORA,
        "labelled-store snapshot and restore, mean",
    );
    out.check("open-loop answers equal closed-loop answers", agree);
    out.check("every request answered", answered == requests);
    out.notes.push(format!(
        "open loop (not gated): serve_p50_ms {:.3}, serve_p99_ms {:.3}, from due time, \
         mean over passes; {samples} latency samples at {SERVE_RATE_PER_S} requests/s, \
         {SERVE_REQUESTS} per pass",
        mean(&p50),
        mean(&p99)
    ));
    Ok(out)
}

/// Traced `serve_open_loop` over corpus 0: a pass with a span around
/// set-up, the refresh and each `run_open_loop` call, between two
/// black-box passes.
pub fn serve_traced(args: &RunArgs) -> Res<Outcome> {
    let inp = ServeInputs::generate(corpus_seed(args.seed, 0));
    let mut out = Outcome::default();
    let (plain, before_ms) = timed(|| serve_pass(&inp, &mut None))?;
    let mut tr = Tracer::default();
    let root = tr.begin(LOOP, "run", 0);
    let traced_pass = serve_pass(&inp, &mut Some(&mut tr))?;
    tr.end(root);
    let (after, after_ms) = timed(|| serve_pass(&inp, &mut None))?;
    let plain_ms = untraced_ms(
        (plain.pass.digest, before_ms),
        (after.pass.digest, after_ms),
        traced_pass.pass.digest,
        &mut out,
    );
    out.attempted = 6 * inp.requests.len() as u64 + 3;
    out.check(
        "open-loop answers equal closed-loop answers",
        traced_pass.phases_agree && plain.phases_agree && after.phases_agree,
    );
    let (open, svc, sys) = (&traced_pass.open, &traced_pass.svc, &traced_pass.sys);
    let report = sys.job_report();
    let calls = tr.count("ServeService::run_open_loop") as f64;
    let counts = LayerCounts::default();
    let layers = LayerInputs {
        report: &report,
        store: sys.store(),
        counts: &counts,
        hits: traced_pass.pass.hits,
        plain_ms,
        checkpoint_bytes: 0,
        serve: Some(ServeLayer {
            calls,
            requests: 2.0 * inp.requests.len() as f64,
            queue_wait_p50_ms: median(&open.wait_ms),
            memo_hit_ratio: ratio(svc.memo().hits() as f64, svc.memo().lookups() as f64),
            shortcut_ratio: ratio(open.shortcuts as f64, open.duplicate_probes as f64),
            lag_p99_ms: quantile(&open.lag_ms, 0.99),
            open_p50_ms: quantile(&open.latency_ms, 0.5),
            open_p99_ms: quantile(&open.latency_ms, 0.99),
        }),
    };
    out.metrics = layer_metrics(&tr, &layers);
    write_trace(&tr, args, "serve_open_loop", &mut out)?;
    Ok(out)
}

// ------------------------------------------------------- per-layer metrics

struct ServeLayer {
    calls: f64,
    requests: f64,
    queue_wait_p50_ms: f64,
    memo_hit_ratio: f64,
    shortcut_ratio: f64,
    lag_p99_ms: f64,
    open_p50_ms: f64,
    open_p99_ms: f64,
}

struct LayerInputs<'a> {
    report: &'a JobReport,
    store: &'a PairStore,
    counts: &'a LayerCounts,
    /// Quality of the traced pass.
    hits: Hits,
    /// Wall time of the untraced pass the traced one repeats.
    plain_ms: f64,
    checkpoint_bytes: u64,
    serve: Option<ServeLayer>,
}

/// A per-layer metric; its meaning is its name.
fn lm(name: &'static str, value: f64, unit: &'static str) -> Metric {
    metric(name, value, unit, "")
}

/// Every per-layer metric, in a fixed order; a layer a workload does not
/// reach reads 0.
fn layer_metrics(tr: &Tracer, l: &LayerInputs) -> Vec<Metric> {
    let self_ms = tr.self_ms_by_layer();
    let layer_ms = |layer: &str| self_ms.get(layer).copied().unwrap_or(0.0);
    let per_s = |n: u64, layer: &str| ratio(n as f64, layer_ms(layer) / 1e3);
    let traced_ms = tr.root_ms();
    let covered: f64 = self_ms
        .iter()
        .filter(|(k, _)| **k != LOOP)
        .map(|(_, v)| v)
        .sum();
    let (c, r) = (l.counts, l.report);
    let sv = |f: fn(&ServeLayer) -> f64| l.serve.as_ref().map_or(0.0, f);
    vec![
        lm("textprep.ms", layer_ms("textprep"), "ms"),
        lm("textprep.reports", c.textprep_reports as f64, "count"),
        lm(
            "textprep.us_per_report",
            ratio(layer_ms("textprep") * 1e3, c.textprep_reports as f64),
            "us",
        ),
        lm("blocking.ms", layer_ms("blocking"), "ms"),
        lm(
            "blocking.candidate_pairs",
            c.candidate_pairs as f64,
            "count",
        ),
        lm(
            "blocking.pairs_per_report",
            ratio(c.candidate_pairs as f64, c.new_reports as f64),
            "ratio",
        ),
        lm("pairing.ms", layer_ms("pairing"), "ms"),
        lm("pairing.pairs", c.pairs_computed as f64, "count"),
        lm(
            "pairing.pairs_per_s",
            per_s(c.pairs_computed, "pairing"),
            "1/s",
        ),
        lm(
            "pairing.memo_hit_ratio",
            ratio(c.memo_hits as f64, c.memo_lookups as f64),
            "ratio",
        ),
        lm("fastknn.fit.ms", layer_ms("fastknn.fit"), "ms"),
        lm("fastknn.fit.calls", c.fit_calls as f64, "count"),
        lm("fastknn.fit.train_pairs", c.train_pairs as f64, "count"),
        lm("fastknn.classify.ms", layer_ms("fastknn.classify"), "ms"),
        lm("fastknn.classify.rows", c.classify_rows as f64, "count"),
        lm(
            "fastknn.classify.rows_per_s",
            per_s(c.classify_rows, "fastknn.classify"),
            "1/s",
        ),
        lm(
            "fastknn.classify.comparisons",
            c.comparisons as f64,
            "count",
        ),
        lm(
            "fastknn.classify.evals_avoided_ratio",
            ratio(
                c.evals_avoided as f64,
                (c.evals_avoided + c.comparisons) as f64,
            ),
            "ratio",
        ),
        lm("store.ms", layer_ms("store"), "ms"),
        lm("store.adds", c.store_adds as f64, "count"),
        lm(
            "store.duplicates",
            l.store.duplicate_count() as f64,
            "count",
        ),
        lm(
            "store.snapshot_restore_ms",
            layer_ms("store.snapshot"),
            "ms",
        ),
        lm(
            "store.negatives",
            l.store.non_duplicate_count() as f64,
            "count",
        ),
        lm("ingest.checkpoint.ms", layer_ms("ingest.checkpoint"), "ms"),
        lm("ingest.checkpoint.bytes", l.checkpoint_bytes as f64, "B"),
        lm("ingest.recovery.ms", layer_ms("ingest.recovery"), "ms"),
        lm("system.ms", layer_ms("dedup.system"), "ms"),
        lm("serve.ms", layer_ms("serve"), "ms"),
        lm("serve.refresh_ms", layer_ms("serve.refresh"), "ms"),
        lm("serve.calls", sv(|s| s.calls), "count"),
        lm(
            "serve.requests_per_call",
            sv(|s| ratio(s.requests, s.calls)),
            "ratio",
        ),
        lm("serve.queue_wait_p50_ms", sv(|s| s.queue_wait_p50_ms), "ms"),
        lm("serve.open_p50_ms", sv(|s| s.open_p50_ms), "ms"),
        lm("serve.open_p99_ms", sv(|s| s.open_p99_ms), "ms"),
        lm(
            "serve.signal_memo_hit_ratio",
            sv(|s| s.memo_hit_ratio),
            "ratio",
        ),
        lm(
            "serve.member_shortcut_ratio",
            sv(|s| s.shortcut_ratio),
            "ratio",
        ),
        lm("sparklet.jobs", r.totals.jobs_submitted as f64, "count"),
        lm("sparklet.tasks", r.totals.tasks_launched as f64, "count"),
        lm(
            "sparklet.tasks_failed",
            r.totals.tasks_failed as f64,
            "count",
        ),
        lm("sparklet.morsels", r.sched.morsels as f64, "count"),
        lm(
            "sparklet.shuffle_bytes",
            r.totals.shuffle_bytes_written as f64,
            "B",
        ),
        lm(
            "sparklet.journal_dropped",
            r.totals.events_dropped as f64,
            "count",
        ),
        metric(
            "sparklet.virtual_s",
            r.virtual_us as f64 / 1e6,
            "s",
            "simulated by the cost model, not measured",
        ),
        lm(
            "sparklet.spill.bytes_written",
            r.spill.bytes_spilled as f64,
            "B",
        ),
        lm(
            "sparklet.spill.bytes_read",
            r.spill.bytes_read_back as f64,
            "B",
        ),
        lm(
            "sparklet.spill.read_amplification",
            ratio(r.spill.bytes_read_back as f64, r.spill.bytes_spilled as f64),
            "ratio",
        ),
        lm(
            "sparklet.spill.evictions",
            r.totals.cache_evictions as f64,
            "count",
        ),
        lm("loadgen.lag_p99_ms", sv(|s| s.lag_p99_ms), "ms"),
        metric(
            "quality.dup_precision",
            ratio(l.hits.hit as f64, l.hits.flagged as f64),
            "ratio",
            "corpus 0",
        ),
        metric(
            "quality.dup_recall",
            ratio(l.hits.hit as f64, l.hits.truth as f64),
            "ratio",
            "corpus 0",
        ),
        lm("trace.wall_ms", traced_ms, "ms"),
        lm("trace.coverage", ratio(covered, traced_ms), "ratio"),
        lm(
            "trace.overhead_ratio",
            ratio(traced_ms, l.plain_ms),
            "ratio",
        ),
    ]
}

fn write_trace(tr: &Tracer, args: &RunArgs, name: &str, out: &mut Outcome) -> Res<()> {
    fs::create_dir_all(&args.trace_dir).map_err(err("trace dir"))?;
    let path = args
        .trace_dir
        .join(format!("trace-{name}-seed{}.json", args.seed));
    fs::write(&path, tr.chrome_json(name)).map_err(err("trace write"))?;
    out.notes.push(format!(
        "trace: {} spans written to {} (Chrome trace-event JSON)",
        tr.spans().len(),
        path.display()
    ));
    Ok(())
}
