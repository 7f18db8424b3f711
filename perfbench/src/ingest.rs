//! `ingest-songs`: a live ERP database under churn. Each step appends a new
//! song and removes the oldest live one; every 8th mutation runs a Type III
//! query and every 64th compacts. The only workload that runs index
//! insertion, WAL append + fsync, tombstones and compaction.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use ssr_core::{
    IndexBackend, LiveDatabase, QuerySpec, Request, Response, SubsequenceDatabase, WireOutcome,
};
use ssr_datagen::PitchMutator;
use ssr_distance::Erp;
use ssr_sequence::{Pitch, Sequence, SequenceDataset, SequenceId};

use crate::data::{self, mix, Executed};
use crate::layers;
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use crate::Args;

const SETUPS: usize = 15;
/// Steps (one append plus one removal each) per episode. Every episode
/// restarts from the set-up database, so each sees the same index growth
/// under churn; episode `e` appends its own songs, so a run measures many
/// distinct operations.
const STEPS: usize = 48;
const QUERY_EVERY: usize = 8;
const COMPACT_EVERY: usize = 64;
const MIN_QUERIES: usize = 100;
/// Queries of the last episode replayed layer by layer on a traced run.
const REPLAYED: usize = 6;
const SPEC: QuerySpec = QuerySpec::Type3 {
    epsilon_max: 8.0,
    epsilon_increment: 2.0,
};

/// What one episode observed.
#[derive(Default)]
struct Episode {
    append_ms: Vec<f64>,
    twin_append_ms: Vec<f64>,
    query_ms: Vec<(f64, bool)>,
    compact_ms: Vec<f64>,
    op_ns: u64,
    ids: Vec<SequenceId>,
    outcomes: Vec<Executed>,
    insert_calls: u64,
    wal_bytes: u64,
    /// `index_bytes_per_window` once the episode's churn is done.
    bytes_per_window: f64,
}

/// One episode's seeded operations: the songs to append and, per query,
/// the query planted (60 elements) in the song appended just before it.
struct Stream {
    songs: Vec<Sequence<Pitch>>,
    queries: Vec<Sequence<Pitch>>,
}

/// Episode `e` appends `STEPS` songs drawn from a fixed set of twice as
/// many, in a seeded order, so episodes differ while the work per episode
/// stays alike across seeds.
fn stream(universe: &SequenceDataset<Pitch>, seed: u64, episode: u64) -> Stream {
    let mut order: Vec<u64> = (0..universe.len() as u64).collect();
    order.sort_by_key(|&i| mix(seed, 6, episode * 1000 + i));
    order.truncate(STEPS);
    let song = |i: u64| {
        universe
            .get(SequenceId(i as usize))
            .expect("drawn from the set")
    };
    let songs: Vec<Sequence<Pitch>> = order.iter().map(|&i| song(i).clone()).collect();
    let queries = (1..=2 * STEPS / QUERY_EVERY)
        .map(|k| {
            let appended_before = order[k * QUERY_EVERY / 2 - 1];
            let noise = mix(seed, 7, episode * 1000 + k as u64);
            data::planted(
                song(appended_before),
                appended_before,
                &PitchMutator,
                60,
                0,
                noise,
            )
        })
        .collect();
    Stream { songs, queries }
}

/// Runs one episode from `base`, with `twin` (traced runs) mirroring every
/// append on an in-memory copy to split the append into index and WAL.
fn episode(
    path: &Path,
    base: &SubsequenceDatabase<Pitch, Erp>,
    stream: &Stream,
    tracer: &Tracer,
    run_started: Instant,
    op_index: &mut u64,
) -> (Episode, LiveDatabase<Pitch, Erp>) {
    let mut ep = Episode::default();
    let mut live = LiveDatabase::create(path, base.clone_replica()).expect("live database created");
    let mut twin = tracer.enabled().then(|| base.clone_replica());
    let mut oldest: VecDeque<SequenceId> = base.dataset().iter().map(|(id, _)| id).collect();
    let mut mutations = 0;
    // Times one operation in its own span; recording alternates in
    // one-second blocks on a traced run.
    let op = |ep: &mut Episode, index: &mut u64, name: &'static str, f: &mut dyn FnMut()| -> f64 {
        tracer.alternate(run_started.elapsed());
        let started = Instant::now();
        tracer.span(name, 0, *index, |_| f());
        let ns = started.elapsed().as_nanos() as u64;
        *index += 1;
        ep.op_ns += ns;
        ns as f64 / 1e6
    };
    for (step, song) in stream.songs.iter().enumerate() {
        let calls_before = live.database().build_distance_calls();
        let wal_before = live.wal_len_bytes();
        let mut id = None;
        let ms = op(
            &mut ep,
            op_index,
            "ssr_core.LiveDatabase::append_sequence",
            &mut || {
                id = Some(
                    live.append_sequence(song.clone())
                        .expect("append is logged"),
                );
            },
        );
        ep.append_ms.push(ms);
        ep.insert_calls += live.database().build_distance_calls() - calls_before;
        ep.wal_bytes += live.wal_len_bytes() - wal_before;
        let id = id.expect("append ran");
        ep.ids.push(id);
        oldest.push_back(id);
        if let Some(twin) = twin.as_mut() {
            let started = Instant::now();
            tracer.span(
                "ssr_core.SubsequenceDatabase::append_sequence",
                0,
                *op_index,
                |_| twin.append_sequence(song.clone()),
            );
            ep.twin_append_ms
                .push(started.elapsed().as_secs_f64() * 1e3);
        }
        let victim = oldest.pop_front().expect("live set is never empty");
        op(
            &mut ep,
            op_index,
            "ssr_core.LiveDatabase::remove_sequence",
            &mut || {
                let removed = live.remove_sequence(victim).expect("removal is logged");
                assert!(removed, "the oldest live sequence is live");
            },
        );
        mutations += 2;
        if mutations % QUERY_EVERY == 0 {
            let query = &stream.queries[(step + 1) * 2 / QUERY_EVERY - 1];
            let recording = tracer.recording();
            let mut executed = None;
            let ms = op(
                &mut ep,
                op_index,
                "ssr_core.QueryEngine::batch_type3",
                &mut || {
                    executed = Some(data::execute(live.database(), &SPEC, query));
                },
            );
            ep.query_ms.push((ms, recording));
            ep.outcomes.push(executed.expect("query ran"));
        }
        if mutations % COMPACT_EVERY == 0 {
            let ms = op(
                &mut ep,
                op_index,
                "ssr_core.LiveDatabase::compact",
                &mut || {
                    live.compact().expect("compaction succeeds");
                },
            );
            ep.compact_ms.push(ms);
        }
    }
    ep.bytes_per_window = data::index_bytes_per_window(live.database());
    (ep, live)
}

/// One observation list of every episode, concatenated.
fn gather(episodes: &[Episode], list: impl Fn(&Episode) -> &Vec<f64>) -> Vec<f64> {
    episodes
        .iter()
        .flat_map(|e| list(e).iter().copied())
        .collect()
}

fn same_executed(a: &Executed, b: &Executed) -> bool {
    a.stats == b.stats && data::same_matches(&a.matches, &b.matches)
}

pub fn run(args: &Args, dir: &Path, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let path = dir.join("ingest.ssr");
    let (mut setup_s, mut build_ms) = (Vec::new(), Vec::new());
    let mut base = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let dataset = data::songs(data::DATABASE_SEED, 1, data::WINDOWS);
        let build_started = Instant::now();
        let db = tracer.span("ssr_core.DatabaseBuilder::build", 0, 0, |_| {
            data::build(&dataset, Erp::new(), IndexBackend::ReferenceNet)
        });
        build_ms.push(build_started.elapsed().as_secs_f64() * 1e3);
        let live = LiveDatabase::create(&path, db).expect("live database created");
        setup_s.push(started.elapsed().as_secs_f64());
        base = Some(live.into_database());
    }
    let base = base.expect("SETUPS > 0");
    let universe = data::songs(data::DATABASE_SEED, 6, 2 * STEPS * 7);
    assert!(
        universe.len() >= 2 * STEPS,
        "the song set holds two episodes"
    );

    let run_started = Instant::now();
    let mut op_index = 0;
    let mut episodes: Vec<Episode> = Vec::new();
    let queries_per_episode = 2 * STEPS / QUERY_EVERY;
    let mut last = None;
    // Whole episodes run until `--seconds` have passed and p90 has at
    // least ten samples beyond it.
    while run_started.elapsed() < args.run || episodes.len() * queries_per_episode < MIN_QUERIES {
        // The previous episode's handle closes before its files are reused.
        drop(last.take());
        let ops = stream(&universe, args.seed, episodes.len() as u64);
        let (ep, live) = episode(&path, &base, &ops, tracer, run_started, &mut op_index);
        episodes.push(ep);
        last = Some((live, ops));
    }
    tracer.set_recording(true);
    let (live, stream) = last.expect("at least one episode runs");
    let first = &episodes[0];
    let ops_per_episode = 2 * STEPS + first.outcomes.len() + first.compact_ms.len();
    out.attempted = (episodes.len() * ops_per_episode) as u64;

    let last_ep = episodes.last().expect("at least one episode");

    let replayed: Vec<(QuerySpec, Sequence<Pitch>)> = stream.queries
        [stream.queries.len() - REPLAYED..]
        .iter()
        .map(|q| (SPEC, q.clone()))
        .collect();
    // The first episode is the same at every speed; later ones exist or
    // not depending on how many fit in `--seconds`.
    let bytes_per_window = first.bytes_per_window;
    if tracer.enabled() {
        let db = live.database();
        let mut scan = data::build(db.dataset(), Erp::new(), IndexBackend::LinearScan);
        for id in db.tombstoned_sequences() {
            scan.remove_sequence(id);
        }
        layers::replay_queries(&mut out, tracer, db, &scan, &replayed, op_index);
        let queries: Vec<Sequence<Pitch>> = replayed.iter().map(|(_, q)| q.clone()).collect();
        layers::measure_distance(&mut out, tracer, db, &queries);
        let frames: Vec<(Request<Pitch>, Response)> = stream
            .queries
            .iter()
            .zip(&last_ep.outcomes)
            .map(|(q, o)| {
                let request = Request::Query {
                    spec: SPEC,
                    queries: vec![q.elements().to_vec()],
                };
                let response = Response::Outcomes(vec![WireOutcome {
                    cached: false,
                    matches: o.matches.clone(),
                    stats: o.stats,
                }]);
                (request, response)
            })
            .collect();
        layers::measure_wire(&mut out, tracer, &frames);
    }

    // Reopen parity: snapshot + WAL must hold every acknowledged append and
    // answer the run's last queries bit for bit. The last measured query ran
    // on the final state; the one before it is re-run there for the
    // comparison.
    let last_queries = stream.queries.len() - 2..stream.queries.len();
    let mut expected: Vec<Executed> = last_queries
        .clone()
        .map(|k| data::execute(live.database(), &SPEC, &stream.queries[k]))
        .collect();
    out.check(
        same_executed(&expected[1], &last_ep.outcomes[stream.queries.len() - 1]),
        || "the last query answers differently when re-run".into(),
    );
    let window_count = live.database().window_count();
    drop(live);
    let open_started = Instant::now();
    let reopened = tracer.span("ssr_core.LiveDatabase::open", 0, op_index, |_| {
        LiveDatabase::<Pitch, Erp>::open(&path, Erp::new())
    });
    let open_ms = open_started.elapsed().as_secs_f64() * 1e3;
    match reopened {
        Ok(reopened) => {
            let db = reopened.database();
            let live_tail = &last_ep.ids[STEPS - base.dataset().len().min(STEPS)..];
            for (k, (id, song)) in last_ep.ids.iter().zip(&stream.songs).enumerate() {
                let should_live = live_tail.contains(id);
                let ok = if should_live {
                    db.sequence(*id)
                        .is_some_and(|s| s.elements() == song.elements())
                } else {
                    !db.is_live(*id)
                };
                out.check(ok, || {
                    format!("append {k} ({id:?}) did not survive reopening as acknowledged")
                });
            }
            for (k, want) in last_queries.zip(expected.drain(..)) {
                let again = data::execute(db, &SPEC, &stream.queries[k]);
                out.check(same_executed(&again, &want), || {
                    format!("query {k} answers differently after reopening")
                });
            }
        }
        Err(e) => out.problem(format!("reopening failed: {e}")),
    }

    let appends = gather(&episodes, |e| &e.append_ms);
    let queries = |traced: bool| -> Vec<f64> {
        episodes
            .iter()
            .flat_map(|e| e.query_ms.iter().filter(|q| q.1 == traced).map(|q| q.0))
            .collect()
    };
    out.note(
        "count.insert_calls",
        first.insert_calls as f64 / STEPS as f64,
        "count",
        STEPS,
    );
    out.note(
        "count.wal_bytes_per_append",
        first.wal_bytes as f64 / STEPS as f64,
        "B",
        STEPS,
    );
    out.counts(first.outcomes.iter().map(|o| &o.stats), bytes_per_window);
    out.note("episodes", episodes.len() as f64, "count", 1);

    if tracer.enabled() {
        out.metric("index.build_ms", median(&build_ms), "ms", build_ms.len());
        out.metric("storage.snapshot_load_ms", open_ms, "ms", 1);
        let snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        out.metric(
            "storage.snapshot_bytes_per_window",
            snapshot_bytes as f64 / window_count as f64,
            "B",
            1,
        );
        let twin = gather(&episodes, |e| &e.twin_append_ms);
        out.note("index.insert_ms", median(&twin), "ms", twin.len());
        out.note(
            "storage.wal_append_us",
            (median(&appends) - median(&twin)) * 1e3,
            "us",
            appends.len(),
        );
        let compacts = gather(&episodes, |e| &e.compact_ms);
        out.note(
            "storage.compact_ms",
            median(&compacts),
            "ms",
            compacts.len(),
        );
        out.trace_notes(tracer, &queries(true), &queries(false));
    } else {
        let lat = queries(false);
        let op_s = Duration::from_nanos(episodes.iter().map(|e| e.op_ns).sum()).as_secs_f64();
        let per_s = lat.len() as f64 / op_s;
        out.end_to_end(&lat, per_s, &appends, &setup_s, bytes_per_window);
    }
    out
}
