//! Seeded inputs and the in-process reference execution shared by the
//! workloads. The program only ever sees what is generated here.

use std::path::Path;
use std::time::Instant;

use ssr_core::{
    FrameworkConfig, IndexBackend, QueryEngine, QuerySpec, QueryStats, Response, StageTimings,
    SubsequenceDatabase, SubsequenceMatch, WireOutcome,
};
use ssr_datagen::{
    generate_proteins, generate_songs, plant_query, ProteinConfig, QueryConfig, QueryMutator,
    SongsConfig,
};
use ssr_distance::SequenceDistance;
use ssr_sequence::{Element, Pitch, Sequence, SequenceDataset, SequenceId, Symbol};
use ssr_storage::StorableElement;

use crate::trace::Tracer;

/// Target window count of every workload's database.
pub const WINDOWS: usize = 400;
/// The range radii the workloads cycle through and the filter is split by.
pub const EPSILONS: [f64; 3] = [2.0, 4.0, 8.0];

/// `FrameworkConfig::new(40).with_max_shift(2)`: windows of 20 elements.
pub fn framework_config() -> FrameworkConfig {
    FrameworkConfig::new(40).with_max_shift(2)
}

/// Derives an independent sub-seed (splitmix64 of the mixed inputs), so
/// each input stream of a workload varies with `--seed` on its own.
pub fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of every workload's database. The database is the same on every
/// run, so the index under test keeps its shape; `--seed` varies the
/// query and operation streams. (Across generated databases the index
/// shape alone moved served latency by ±10%, more than the bounds.)
pub const DATABASE_SEED: u64 = 0x55_5242;

/// The proteins database (Levenshtein), ~[`WINDOWS`] windows.
pub fn proteins() -> SequenceDataset<Symbol> {
    let window_len = framework_config().window_len();
    generate_proteins(&ProteinConfig::sized_for_windows(
        WINDOWS,
        window_len,
        mix(DATABASE_SEED, 1, 0),
    ))
}

/// Generated songs (ERP), ~`windows` windows, from stream `stream` of
/// `seed`.
pub fn songs(seed: u64, stream: u64, windows: usize) -> SequenceDataset<Pitch> {
    let window_len = framework_config().window_len();
    generate_songs(&SongsConfig::sized_for_windows(
        windows,
        window_len,
        mix(seed, stream, 0),
    ))
}

/// A planted query: `planted` elements excised from `source` at an offset
/// fixed by `region`, perturbed at 5% and put between `context` random
/// elements on each side, both drawn from `seed`. Fixing the planted
/// region per stream position keeps the work per query alike across seeds
/// (the region decides how many windows a query matches); the seed still
/// changes every query.
pub fn planted<E: Element, M: QueryMutator<E>>(
    source: &Sequence<E>,
    region: u64,
    mutator: &M,
    planted: usize,
    context: usize,
    seed: u64,
) -> Sequence<E> {
    let offsets = (source.len() - planted + 1) as u64;
    let start = (mix(DATABASE_SEED, 9, region) % offsets) as usize;
    let excised = Sequence::new(source.elements()[start..start + planted].to_vec());
    plant_query(
        &SequenceDataset::from_sequences(vec![excised]),
        mutator,
        &QueryConfig {
            planted_len: planted,
            context_len: context,
            perturbation_rate: 0.05,
            seed,
        },
    )
    .expect("the excised region has the planted length")
    .query
}

/// The database sequence a planted region lies in, fixed by `region`.
pub fn region_source<E: Element>(dataset: &SequenceDataset<E>, region: u64) -> &Sequence<E> {
    let id = mix(DATABASE_SEED, 10, region) % dataset.len() as u64;
    dataset
        .get(SequenceId(id as usize))
        .expect("id below the dataset size")
}

pub fn build<E, D>(
    dataset: &SequenceDataset<E>,
    distance: D,
    backend: IndexBackend,
) -> SubsequenceDatabase<E, D>
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    SubsequenceDatabase::builder(framework_config().with_backend(backend), distance)
        .add_dataset(dataset)
        .build()
        .expect("generated databases build")
}

/// Saves `db` as a snapshot and loads it back, each in its own span;
/// returns the loaded copy, the load time in ms and the snapshot size in
/// bytes.
pub fn snapshot_round_trip<E, D>(
    tracer: &Tracer,
    db: &SubsequenceDatabase<E, D>,
    path: &Path,
    distance: D,
) -> (SubsequenceDatabase<E, D>, f64, u64)
where
    E: Element + StorableElement + Send + Sync,
    D: SequenceDistance<E>,
{
    tracer.span("ssr_core.SubsequenceDatabase::save_snapshot", 0, 0, |_| {
        db.save_snapshot(path).expect("snapshot saves")
    });
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let started = Instant::now();
    let loaded = tracer.span("ssr_core.SubsequenceDatabase::load_snapshot", 0, 0, |_| {
        SubsequenceDatabase::load_snapshot(path, distance).expect("snapshot loads")
    });
    (loaded, started.elapsed().as_secs_f64() * 1e3, bytes)
}

/// Windows of live (not removed) sequences.
fn live_windows<E, D>(db: &SubsequenceDatabase<E, D>) -> usize
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    db.windows()
        .windows()
        .iter()
        .filter(|w| db.is_live(w.sequence))
        .count()
}

/// `(resident window bytes + index bookkeeping bytes) / live windows`.
pub fn index_bytes_per_window<E, D>(db: &SubsequenceDatabase<E, D>) -> f64
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let bytes = db.resident_window_bytes() + db.index_space_stats().estimated_bytes;
    bytes as f64 / live_windows(db).max(1) as f64
}

/// The ε a spec's filter runs at (a Type III sweep's upper bound).
pub fn spec_epsilon(spec: &QuerySpec) -> f64 {
    match *spec {
        QuerySpec::Type1 { epsilon } | QuerySpec::Type2 { epsilon } => epsilon,
        QuerySpec::Type3 { epsilon_max, .. } => epsilon_max,
    }
}

/// One query executed in process through the batch engine.
pub struct Executed {
    pub matches: Vec<SubsequenceMatch>,
    pub stats: QueryStats,
    pub timings: StageTimings,
    pub wall_ns: u64,
    pub memo_entries: usize,
}

/// Executes `query` under `spec` exactly as a server worker does: a
/// single-threaded [`QueryEngine`] batch of one.
pub fn execute<E, D>(
    db: &SubsequenceDatabase<E, D>,
    spec: &QuerySpec,
    query: &Sequence<E>,
) -> Executed
where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let engine = QueryEngine::new(db).with_threads(1);
    let queries = std::slice::from_ref(query);
    macro_rules! executed {
        ($batch:expr, $to_vec:expr) => {{
            let batch = $batch;
            let (wall_ns, timings, memo_entries) =
                (batch.wall_ns, batch.timings, batch.memo_entries);
            let outcome = batch
                .outcomes
                .into_iter()
                .next()
                .expect("one outcome per query");
            Executed {
                matches: $to_vec(outcome.result),
                stats: outcome.stats,
                timings,
                wall_ns,
                memo_entries,
            }
        }};
    }
    match *spec {
        QuerySpec::Type1 { epsilon } => {
            executed!(engine.batch_type1(queries, epsilon), |r: Vec<
                SubsequenceMatch,
            >| r)
        }
        QuerySpec::Type2 { epsilon } => {
            executed!(engine.batch_type2(queries, epsilon), |r: Option<
                SubsequenceMatch,
            >| r
                .into_iter()
                .collect::<Vec<_>>())
        }
        QuerySpec::Type3 {
            epsilon_max,
            epsilon_increment,
        } => executed!(
            engine.batch_type3(queries, epsilon_max, epsilon_increment),
            |r: Option<SubsequenceMatch>| r.into_iter().collect::<Vec<_>>()
        ),
    }
}

/// Bit-identical comparison of two match lists (distances by bits).
pub fn same_matches(a: &[SubsequenceMatch], b: &[SubsequenceMatch]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.sequence == y.sequence
                && x.db_range == y.db_range
                && x.query_range == y.query_range
                && x.distance.to_bits() == y.distance.to_bits()
        })
}

/// Whether a served outcome equals an in-process execution, bit for bit.
pub fn served_matches_executed(served: &WireOutcome, executed: &Executed) -> bool {
    served.stats == executed.stats && same_matches(&served.matches, &executed.matches)
}

/// The single outcome of a one-query response, or why there is none.
pub fn single_outcome(response: Response) -> Result<WireOutcome, String> {
    match response {
        Response::Outcomes(mut outcomes) if outcomes.len() == 1 => Ok(outcomes.remove(0)),
        other => Err(format!("unexpected response {other:?}")),
    }
}
