//! `cold-proteins`: the paper's string path, served, with every request
//! unique so the result cache never answers and the engine does the work.

use std::path::Path;
use std::time::Instant;

use ssr_core::{
    IndexBackend, QuerySpec, Request, Response, ServeConfig, Server, WireClient, WireOutcome,
};
use ssr_datagen::SymbolMutator;
use ssr_distance::Levenshtein;
use ssr_sequence::{Sequence, SequenceDataset, Symbol};

use crate::data::{self, mix, EPSILONS};
use crate::layers;
use crate::load::{closed_loop, latencies_ms};
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUPS: usize = 15;
/// Served queries re-run in process and compared bit for bit.
const CHECKS: usize = 6;
/// Stream prefix the deterministic counts are summed over (two full
/// cycles of the six type × ε combinations).
const COUNTED: u64 = 12;
/// Stream prefix replayed layer by layer on a traced run (one cycle).
const REPLAYED: u64 = 6;

/// Request `i`: Type II on even positions, Type I on odd ones, with ε
/// cycling 2, 4, 8; the query is planted afresh, so no two repeat.
fn request(dataset: &SequenceDataset<Symbol>, seed: u64, i: u64) -> (QuerySpec, Sequence<Symbol>) {
    let epsilon = EPSILONS[(i % 3) as usize];
    let spec = if i.is_multiple_of(2) {
        QuerySpec::Type2 { epsilon }
    } else {
        QuerySpec::Type1 { epsilon }
    };
    let source = data::region_source(dataset, i);
    (
        spec,
        data::planted(source, i, &SymbolMutator, 60, 20, mix(seed, 2, i)),
    )
}

fn wire_request(spec: QuerySpec, query: &Sequence<Symbol>) -> Request<Symbol> {
    Request::Query {
        spec,
        queries: vec![query.elements().to_vec()],
    }
}

pub fn run(args: &Args, dir: &Path, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup_s, mut build_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    let mut snapshot_bytes = 0;
    for _ in 0..SETUPS {
        // Drop the previous set-up's clients before stopping its server.
        if let Some((server, clients, _, _)) = kept.take() {
            drop(clients);
            Server::shutdown(server);
        }
        let started = Instant::now();
        let dataset = data::proteins();
        let build_started = Instant::now();
        let reference = tracer.span("ssr_core.DatabaseBuilder::build", 0, 0, |_| {
            data::build(&dataset, Levenshtein::new(), IndexBackend::ReferenceNet)
        });
        build_ms.push(build_started.elapsed().as_secs_f64() * 1e3);
        let (loaded, load, bytes) = data::snapshot_round_trip(
            tracer,
            &reference,
            &dir.join("cold.ssr"),
            Levenshtein::new(),
        );
        load_ms.push(load);
        snapshot_bytes = bytes;
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::bind(loaded, "127.0.0.1:0", config).expect("server binds on loopback");
        let mut clients = Vec::new();
        for _ in 0..2 {
            let mut client = WireClient::connect(server.local_addr()).expect("client connects");
            let pong = client.request(&Request::Ping);
            assert!(
                matches!(pong, Ok(Response::Pong)),
                "server answers a ping: {pong:?}"
            );
            clients.push(client);
        }
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((server, clients, dataset, reference));
    }
    let (server, clients, dataset, reference) = kept.expect("SETUPS > 0");

    let before = server.stats();
    let (samples, wall) = closed_loop(
        clients,
        args.run,
        tracer,
        "client.WireClient::request",
        |i| request(&dataset, args.seed, i),
        |client: &mut WireClient<Symbol>, (spec, query)| {
            let response = client.request(&wire_request(*spec, query));
            (client.retries(), response)
        },
    );
    let after = server.stats();
    Server::shutdown(server);

    out.attempted = samples.len() as u64;
    let mut outcomes: Vec<(u64, WireOutcome)> = Vec::new();
    for s in &samples {
        match &s.result.1 {
            Ok(response) => match data::single_outcome(response.clone()) {
                Ok(o) => {
                    out.check(!o.cached, || {
                        format!("request {} was answered by the cache", s.index)
                    });
                    outcomes.push((s.index, o));
                }
                Err(e) => out.problem(format!("request {}: {e}", s.index)),
            },
            Err(e) => out.problem(format!("request {}: {e}", s.index)),
        }
        out.check(s.result.0 == 0, || {
            format!("request {} was retried", s.index)
        });
    }

    // Workload premise: no answer from the cache, nothing refused.
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    out.check(hits == 0 && misses == samples.len() as u64, || {
        format!("cache hit rate is not 0: {hits} hits, {misses} misses")
    });
    out.check(after.rejected_overload == before.rejected_overload, || {
        "requests were refused as overloaded".into()
    });

    // Correctness: a seeded sample re-run in process, bit for bit.
    let mut overhead_ms = Vec::new();
    let mut sampled: Vec<&(u64, WireOutcome)> = outcomes.iter().collect();
    sampled.sort_by_key(|(i, _)| mix(args.seed, 3, *i));
    sampled.truncate(CHECKS);
    out.check(sampled.len() == CHECKS, || {
        format!(
            "only {} requests were sampled for the parity check",
            sampled.len()
        )
    });
    for (i, served) in sampled {
        let (spec, query) = request(&dataset, args.seed, *i);
        let executed = data::execute(&reference, &spec, &query);
        out.check(data::served_matches_executed(served, &executed), || {
            format!("request {i}: served outcome differs from the in-process engine")
        });
        let latency =
            samples[samples.iter().position(|s| s.index == *i).expect("sampled")].latency_ns;
        overhead_ms.push((latency as f64 - executed.wall_ns as f64) / 1e6);
    }

    // Deterministic counts over a fixed stream prefix.
    let counted: Vec<&WireOutcome> = outcomes
        .iter()
        .filter(|(i, _)| *i < COUNTED)
        .map(|(_, o)| o)
        .collect();
    out.check(counted.len() == COUNTED as usize, || {
        format!(
            "only {} of the first {COUNTED} requests completed",
            counted.len()
        )
    });
    let bytes_per_window = data::index_bytes_per_window(&reference);
    out.counts(counted.iter().map(|o| &o.stats), bytes_per_window);

    let windows = reference.window_count();
    if tracer.enabled() {
        let replayed: Vec<(QuerySpec, Sequence<Symbol>)> = (0..REPLAYED)
            .map(|i| request(&dataset, args.seed, i))
            .collect();
        let scan = data::build(&dataset, Levenshtein::new(), IndexBackend::LinearScan);
        layers::replay_queries(&mut out, tracer, &reference, &scan, &replayed, 0);
        let queries: Vec<Sequence<Symbol>> = replayed.iter().map(|(_, q)| q.clone()).collect();
        layers::measure_distance(&mut out, tracer, &reference, &queries);
        let frames: Vec<(Request<Symbol>, Response)> = samples
            .iter()
            .take(32)
            .filter_map(|s| {
                let (spec, query) = request(&dataset, args.seed, s.index);
                s.result
                    .1
                    .as_ref()
                    .ok()
                    .map(|r| (wire_request(spec, &query), r.clone()))
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
            snapshot_bytes as f64 / windows as f64,
            "B",
            1,
        );
        out.note(
            "serve.overhead_ms",
            median(&overhead_ms),
            "ms",
            overhead_ms.len(),
        );
        out.note("serve.cache_hit_rate", 0.0, "ratio", samples.len());
        out.note(
            "serve.rejected",
            (after.rejected_overload - before.rejected_overload) as f64,
            "count",
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
    out
}
