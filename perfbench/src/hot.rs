//! `hot-cluster`: two nodes behind one `ClusterClient`, cycling through a
//! small pool of requests that every node has already answered, so each
//! request is codec, framing, dispatch, cache lookup and routing only.

use std::path::Path;
use std::time::Instant;

use ssr_cluster::ClusterClient;
use ssr_core::{
    IndexBackend, QuerySpec, Request, Response, ServeConfig, Server, WireClient, WireOutcome,
};
use ssr_datagen::SymbolMutator;
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, SequenceDataset, Symbol};

use crate::data::{self, mix};
use crate::layers;
use crate::load::{closed_loop, latencies_ms};
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use crate::Args;

const SETUPS: usize = 3;
/// Distinct requests in the pool; far below the servers' cache capacity.
const POOL: usize = 32;
/// Pool entries replayed layer by layer on a traced run (both cycles of
/// the three query types).
const REPLAYED: usize = 6;
/// Alternated cluster/direct round trips behind `cluster.overhead_us`.
const OVERHEAD_PAIRS: usize = 2000;

/// Pool entry `j`: a short planted query (40 planted + 2×4 context) at
/// the smallest radius, so warming the pool stays cheap; the type cycles
/// I, II, III.
fn pool_entry(
    dataset: &SequenceDataset<Symbol>,
    seed: u64,
    j: usize,
) -> (QuerySpec, Sequence<Symbol>) {
    let spec = match j % 3 {
        0 => QuerySpec::Type1 { epsilon: 2.0 },
        1 => QuerySpec::Type2 { epsilon: 2.0 },
        _ => QuerySpec::Type3 {
            epsilon_max: 2.0,
            epsilon_increment: 1.0,
        },
    };
    let region = j as u64;
    let source = data::region_source(dataset, region);
    (
        spec,
        data::planted(source, region, &SymbolMutator, 40, 4, mix(seed, 4, region)),
    )
}

struct Cluster {
    servers: Vec<Server<Symbol, Levenshtein>>,
    /// Each pool entry's warm-up answer, identical on every node.
    expected: Vec<WireOutcome>,
}

/// Binds two one-worker nodes over `db` and warms every pool request on
/// every node directly (the nodes in parallel). Node answers must agree.
fn start_cluster(
    out: &mut Outcome,
    db: ssr_core::SubsequenceDatabase<Symbol, Levenshtein>,
    pool: &[Request<Symbol>],
) -> Cluster {
    let replica = db.clone_replica();
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let servers: Vec<Server<Symbol, Levenshtein>> = [db, replica]
        .into_iter()
        .map(|db| {
            Server::bind(db, "127.0.0.1:0", config.clone()).expect("server binds on loopback")
        })
        .collect();
    let warmed: Vec<Vec<Result<WireOutcome, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .iter()
            .map(|server| {
                let addr = server.local_addr();
                scope.spawn(move || {
                    let mut client = WireClient::<Symbol>::connect(addr).expect("client connects");
                    pool.iter()
                        .map(|r| {
                            client
                                .request(r)
                                .map_err(|e| e.to_string())
                                .and_then(data::single_outcome)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    let mut expected = Vec::with_capacity(pool.len());
    for (j, answers) in warmed[0].iter().zip(&warmed[1]).enumerate() {
        match answers {
            (Ok(a), Ok(b)) => {
                out.check(
                    a.stats == b.stats && data::same_matches(&a.matches, &b.matches),
                    || format!("pool entry {j}: the two nodes answer differently"),
                );
                expected.push(a.clone());
            }
            (a, b) => {
                out.problem(format!("pool entry {j}: warm-up failed: {a:?} / {b:?}"));
                expected.push(WireOutcome {
                    cached: false,
                    matches: Vec::new(),
                    stats: Default::default(),
                });
            }
        }
    }
    Cluster { servers, expected }
}

pub fn run(args: &Args, dir: &Path, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup_s, mut build_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    let mut snapshot_bytes = 0;
    for _ in 0..SETUPS {
        if let Some((cluster, _, _, _, _)) = kept.take() {
            let cluster: Cluster = cluster;
            cluster.servers.into_iter().for_each(Server::shutdown);
        }
        let started = Instant::now();
        let dataset = data::proteins();
        let pool: Vec<(QuerySpec, Sequence<Symbol>)> = (0..POOL)
            .map(|j| pool_entry(&dataset, args.seed, j))
            .collect();
        let requests: Vec<Request<Symbol>> = pool
            .iter()
            .map(|(spec, q)| Request::Query {
                spec: *spec,
                queries: vec![q.elements().to_vec()],
            })
            .collect();
        let build_started = Instant::now();
        let reference = tracer.span("ssr_core.DatabaseBuilder::build", 0, 0, |_| {
            data::build(&dataset, Levenshtein::new(), IndexBackend::ReferenceNet)
        });
        build_ms.push(build_started.elapsed().as_secs_f64() * 1e3);
        let (loaded, load, bytes) =
            data::snapshot_round_trip(tracer, &reference, &dir.join("hot.ssr"), Levenshtein::new());
        load_ms.push(load);
        snapshot_bytes = bytes;
        let cluster = start_cluster(&mut out, loaded, &requests);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((cluster, dataset, reference, pool, requests));
    }
    let (cluster, dataset, reference, pool, requests) = kept.expect("SETUPS > 0");
    let addrs: Vec<String> = cluster
        .servers
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    let client = ClusterClient::<Symbol>::connect(addrs).expect("cluster client starts");

    // Seeded visiting order of the pool.
    let mut order: Vec<usize> = (0..POOL).collect();
    order.sort_by_key(|&j| mix(args.seed, 5, j as u64));
    let before: Vec<_> = cluster.servers.iter().map(Server::stats).collect();
    let counters_before = client.counters();
    let (samples, wall) = closed_loop(
        vec![&client, &client],
        args.run,
        tracer,
        "client.ClusterClient::request",
        |i| order[(i % POOL as u64) as usize],
        |client: &mut &ClusterClient<Symbol>, &j| {
            let answered = client
                .request(&requests[j])
                .map_err(|e| e.to_string())
                .and_then(data::single_outcome);
            match answered {
                Ok(o)
                    if o.cached
                        && o.stats == cluster.expected[j].stats
                        && data::same_matches(&o.matches, &cluster.expected[j].matches) =>
                {
                    Ok(())
                }
                Ok(_) => Err(format!(
                    "pool entry {j}: answer differs from its warm-up answer"
                )),
                Err(e) => Err(e),
            }
        },
    );
    let after: Vec<_> = cluster.servers.iter().map(Server::stats).collect();
    let counters = client.counters();

    out.attempted = samples.len() as u64;
    for s in &samples {
        if let Err(e) = &s.result {
            out.problem(format!("request {}: {e}", s.index));
        }
    }
    // Workload premise: every answer from the cache, nothing refused,
    // rerouted or hedged.
    let hits: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.cache_hits - b.cache_hits)
        .sum();
    let misses: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.cache_misses - b.cache_misses)
        .sum();
    let rejected: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.rejected_overload - b.rejected_overload)
        .sum();
    out.check(misses == 0 && hits == samples.len() as u64, || {
        format!("cache hit rate is not 1: {hits} hits, {misses} misses")
    });
    out.check(rejected == 0, || {
        format!("{rejected} requests were refused as overloaded")
    });
    let failovers = counters.failovers - counters_before.failovers;
    let hedges = counters.hedges - counters_before.hedges;
    out.check(failovers == 0 && hedges == 0, || {
        format!("{failovers} failovers and {hedges} hedges during the run")
    });

    // Deterministic counts: the pool's warm-up work per request.
    let bytes_per_window = data::index_bytes_per_window(&reference);
    out.counts(cluster.expected.iter().map(|o| &o.stats), bytes_per_window);

    if tracer.enabled() {
        // Cluster layer: the same cached request through the cluster
        // client and straight to a node, alternated.
        let mut direct = WireClient::<Symbol>::connect(cluster.servers[0].local_addr())
            .expect("client connects");
        let (mut via_cluster, mut via_direct) = (Vec::new(), Vec::new());
        for k in 0..OVERHEAD_PAIRS {
            let request = &requests[order[k % POOL]];
            let started = Instant::now();
            let a = tracer.span("ssr_cluster.ClusterClient::request", 0, k as u64, |_| {
                client.request(request)
            });
            via_cluster.push(started.elapsed().as_nanos() as f64 / 1e3);
            let started = Instant::now();
            let b = tracer.span("ssr_core.WireClient::request", 0, k as u64, |_| {
                direct.request(request)
            });
            via_direct.push(started.elapsed().as_nanos() as f64 / 1e3);
            out.check(a.is_ok() && b.is_ok(), || {
                format!("overhead probe {k} failed")
            });
        }
        out.note(
            "cluster.overhead_us",
            median(&via_cluster) - median(&via_direct),
            "us",
            OVERHEAD_PAIRS,
        );
        out.note(
            "serve.overhead_ms",
            median(&via_direct) / 1e3,
            "ms",
            OVERHEAD_PAIRS,
        );
        out.note("serve.cache_hit_rate", 1.0, "ratio", samples.len());
        out.note("serve.rejected", rejected as f64, "count", 1);
        out.note("cluster.failovers", failovers as f64, "count", 1);
        out.note("cluster.hedges", hedges as f64, "count", 1);
        let scan = data::build(&dataset, Levenshtein::new(), IndexBackend::LinearScan);
        layers::replay_queries(&mut out, tracer, &reference, &scan, &pool[..REPLAYED], 0);
        let queries: Vec<Sequence<Symbol>> =
            pool[..REPLAYED].iter().map(|(_, q)| q.clone()).collect();
        layers::measure_distance(&mut out, tracer, &reference, &queries);
        let frames: Vec<(Request<Symbol>, Response)> = requests
            .iter()
            .zip(&cluster.expected)
            .map(|(r, o)| {
                let cached = WireOutcome {
                    cached: true,
                    ..o.clone()
                };
                (r.clone(), Response::Outcomes(vec![cached]))
            })
            .collect();
        layers::measure_wire(&mut out, tracer, &frames);
        out.metric("index.build_ms", median(&build_ms), "ms", build_ms.len());
        out.metric(
            "storage.snapshot_load_ms",
            median(&load_ms),
            "ms",
            load_ms.len(),
        );
        out.metric(
            "storage.snapshot_bytes_per_window",
            snapshot_bytes as f64 / reference.window_count() as f64,
            "B",
            1,
        );
        out.trace_notes(
            tracer,
            &latencies_ms(&samples, true),
            &latencies_ms(&samples, false),
        );
    } else {
        let lat = latencies_ms(&samples, false);
        let per_s = samples.len() as f64 / wall.as_secs_f64();
        out.end_to_end(&lat, per_s, &lat, &setup_s, bytes_per_window);
    }
    drop(client);
    cluster.servers.into_iter().for_each(Server::shutdown);
    out
}
