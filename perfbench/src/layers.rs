//! Per-layer measurements of a traced run, taken by timing calls into each
//! module's public functions on the workload's own inputs.

use std::time::Instant;

use ssr_core::{build_candidates, QuerySpec, Request, Response, SegmentMatch, SubsequenceDatabase};
use ssr_distance::SequenceDistance;
use ssr_sequence::{extract_segments, Element, Sequence};
use ssr_storage::StorableElement;

use crate::data::{execute, spec_epsilon, EPSILONS};
use crate::report::{ratio, Outcome};
use crate::trace::Tracer;

/// Span names of the filter probes, one per entry of [`EPSILONS`].
const FILTER_SPANS: [&str; 3] = [
    "ssr_index.matching_segments.eps2",
    "ssr_index.matching_segments.eps4",
    "ssr_index.matching_segments.eps8",
];
const SCAN_SPANS: [&str; 3] = [
    "ssr_index.scan_twin.eps2",
    "ssr_index.scan_twin.eps4",
    "ssr_index.scan_twin.eps8",
];

fn eps_tag(eps: f64) -> String {
    format!("eps{eps}")
}

/// Matches in a backend-independent order, for comparing two backends.
fn canonical(matches: &[SegmentMatch]) -> Vec<(usize, usize, usize, u64)> {
    let mut v: Vec<_> = matches
        .iter()
        .map(|m| (m.window.0, m.query_start, m.query_len, m.distance.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Replays `queries` in process through the filter (at every ε of
/// [`EPSILONS`], against the database and its linear-scan twin), the
/// chain step and the batch engine, with one span per call. Reports the
/// `index.*`, `candidates.*`, `query.*` and `batch.*` metrics, per query.
/// The twin must return the same segment matches: a mismatch is a failed
/// check.
pub fn replay_queries<E, D>(
    out: &mut Outcome,
    tracer: &Tracer,
    db: &SubsequenceDatabase<E, D>,
    scan: &SubsequenceDatabase<E, D>,
    queries: &[(QuerySpec, Sequence<E>)],
    first_request: u64,
) where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    let n = queries.len();
    let mut filter_ns = [0u64; 3];
    let mut calls = [0u64; 3];
    let mut cells = [0u64; 3];
    let mut found = [0u64; 3];
    let mut scan_calls = [0u64; 3];
    let mut scan_cells = [0u64; 3];
    let (mut chain_ns, mut candidates) = (0u64, 0u64);
    let (mut verify_ns, mut verify_calls, mut engine_verify_ns) = (0u64, 0u64, 0u64);
    let (mut memo_entries, mut overhead_frac) = (0u64, 0.0f64);
    let config = db.config().clone();
    for (k, (spec, query)) in queries.iter().enumerate() {
        let request = first_request + k as u64;
        tracer.span("replay", 0, request, |root| {
            let mut own = None;
            for (e, &eps) in EPSILONS.iter().enumerate() {
                let started = Instant::now();
                let found_here = tracer.span(FILTER_SPANS[e], root, request, |_| {
                    db.matching_segments(query, eps)
                });
                let took = started.elapsed().as_nanos() as u64;
                filter_ns[e] += took;
                calls[e] += found_here.distance_calls;
                cells[e] += found_here.dp_cells;
                found[e] += found_here.len() as u64;
                let twin = tracer.span(SCAN_SPANS[e], root, request, |_| {
                    scan.matching_segments(query, eps)
                });
                scan_calls[e] += twin.distance_calls;
                scan_cells[e] += twin.dp_cells;
                out.check(
                    canonical(&found_here.matches) == canonical(&twin.matches),
                    || {
                        format!(
                            "query {request}: index and linear scan disagree at {}",
                            eps_tag(eps)
                        )
                    },
                );
                if eps == spec_epsilon(spec) {
                    own = Some((found_here, took));
                }
            }
            let (own_scan, own_filter_ns) = own.expect("every spec radius is one of EPSILONS");
            let started = Instant::now();
            let chained = tracer.span("ssr_core.build_candidates", root, request, |_| {
                build_candidates(&own_scan.matches, config.window_len(), config.max_shift)
            });
            let own_chain_ns = started.elapsed().as_nanos() as u64;
            chain_ns += own_chain_ns;
            candidates += chained.len() as u64;
            let started = Instant::now();
            let executed = tracer.span("ssr_core.batch", root, request, |_| {
                execute(db, spec, query)
            });
            let batch_ns = started.elapsed().as_nanos() as u64;
            // Types I and II filter once at their radius, so the outside
            // spans account for the engine's filter and chain; a Type III
            // sweep filters at radii chosen inside, so its engine timings
            // stand in.
            let not_verify = match spec {
                QuerySpec::Type3 { .. } => {
                    executed.timings.segment_ns
                        + executed.timings.filter_ns
                        + executed.timings.chain_ns
                }
                _ => own_filter_ns + own_chain_ns,
            };
            verify_ns += batch_ns.saturating_sub(not_verify);
            engine_verify_ns += executed.timings.verify_ns;
            verify_calls += executed.stats.verification_calls;
            memo_entries += executed.memo_entries as u64;
            overhead_frac += ratio(
                executed.wall_ns.saturating_sub(executed.timings.total_ns()) as f64,
                executed.wall_ns as f64,
            );
        });
    }
    let per = |total: f64| total / n.max(1) as f64;
    for (e, &eps) in EPSILONS.iter().enumerate() {
        let tag = eps_tag(eps);
        out.metric(
            &format!("index.filter_ms.{tag}"),
            per(filter_ns[e] as f64 / 1e6),
            "ms",
            n,
        );
        out.metric(
            &format!("index.calls.{tag}"),
            per(calls[e] as f64),
            "count",
            n,
        );
        out.metric(
            &format!("index.cells.{tag}"),
            per(cells[e] as f64),
            "count",
            n,
        );
        out.metric(
            &format!("index.matches_per_call.{tag}"),
            ratio(found[e] as f64, calls[e] as f64),
            "ratio",
            n,
        );
        out.metric(
            &format!("index.calls_vs_scan.{tag}"),
            ratio(calls[e] as f64, scan_calls[e] as f64),
            "ratio",
            n,
        );
        out.metric(
            &format!("index.cells_vs_scan.{tag}"),
            ratio(cells[e] as f64, scan_cells[e] as f64),
            "ratio",
            n,
        );
    }
    out.metric("candidates.chain_us", per(chain_ns as f64 / 1e3), "us", n);
    out.metric("candidates.count", per(candidates as f64), "count", n);
    out.metric("query.verify_ms", per(verify_ns as f64 / 1e6), "ms", n);
    out.metric("query.verify_calls", per(verify_calls as f64), "count", n);
    out.metric(
        "query.verify_ns_per_call",
        ratio(verify_ns as f64, verify_calls as f64),
        "ns",
        n,
    );
    out.note(
        "query.verify_ms_engine",
        per(engine_verify_ns as f64 / 1e6),
        "ms",
        n,
    );
    out.metric("batch.memo_entries", per(memo_entries as f64), "count", n);
    out.metric("batch.overhead_frac", per(overhead_frac), "ratio", n);
}

/// Times `distance_within` on pairs of the queries' segments and the
/// database's windows, at every ε of [`EPSILONS`].
pub fn measure_distance<E, D>(
    out: &mut Outcome,
    tracer: &Tracer,
    db: &SubsequenceDatabase<E, D>,
    queries: &[Sequence<E>],
) where
    E: Element + Send + Sync,
    D: SequenceDistance<E>,
{
    const SEGMENTS_PER_QUERY: usize = 16;
    const WINDOWS_PER_SEGMENT: usize = 24;
    let store = db.windows();
    let windows: Vec<&[E]> = store
        .windows()
        .iter()
        .step_by((store.len() / WINDOWS_PER_SEGMENT).max(1))
        .take(WINDOWS_PER_SEGMENT)
        .map(|w| store.resolve(w).expect("store windows resolve"))
        .collect();
    let distance = db.distance();
    let (mut calls, mut cells, mut prunes, mut ns) = (0u64, 0u64, 0u64, 0u64);
    for (k, query) in queries.iter().enumerate() {
        let segments = extract_segments(query, db.config().segment_spec());
        let step = (segments.len() / SEGMENTS_PER_QUERY).max(1);
        let picked: Vec<&[E]> = segments
            .iter()
            .step_by(step)
            .take(SEGMENTS_PER_QUERY)
            .map(|s| s.data.as_slice())
            .collect();
        tracer.span("ssr_distance.distance_within", 0, k as u64, |_| {
            let cells_before = ssr_distance::dp_cells_thread_total();
            let prunes_before = ssr_distance::lower_bound_prunes_thread_total();
            let started = Instant::now();
            for segment in &picked {
                for window in &windows {
                    for &eps in &EPSILONS {
                        std::hint::black_box(distance.distance_within(
                            std::hint::black_box(segment),
                            window,
                            eps,
                        ));
                        calls += 1;
                    }
                }
            }
            ns += started.elapsed().as_nanos() as u64;
            cells += ssr_distance::dp_cells_thread_total() - cells_before;
            prunes += ssr_distance::lower_bound_prunes_thread_total() - prunes_before;
        });
    }
    let n = calls as usize;
    out.metric(
        "distance.ns_per_cell",
        ratio(ns as f64, cells as f64),
        "ns",
        n,
    );
    out.metric(
        "distance.cells_per_call",
        ratio(cells as f64, calls as f64),
        "count",
        n,
    );
    out.metric(
        "distance.lb_prune_frac",
        ratio(prunes as f64, calls as f64),
        "ratio",
        n,
    );
}

/// Times the wire codec on the workload's own request/response pairs:
/// encode and decode of both payloads, per request. A payload that does
/// not decode back to itself is a failed check.
pub fn measure_wire<E>(out: &mut Outcome, tracer: &Tracer, frames: &[(Request<E>, Response)])
where
    E: StorableElement + Clone + PartialEq + std::fmt::Debug,
{
    // Small payloads encode in well under a microsecond; repeat each so
    // the clock resolution does not dominate.
    const REPEAT: u32 = 20;
    let (mut encode_ns, mut decode_ns, mut req_bytes, mut resp_bytes) = (0u64, 0u64, 0u64, 0u64);
    for (k, (request, response)) in frames.iter().enumerate() {
        let (req_payload, resp_payload) = tracer.span("ssr_core.wire.encode", 0, k as u64, |_| {
            let started = Instant::now();
            let mut pair = (Vec::new(), Vec::new());
            for _ in 0..REPEAT {
                pair = (
                    std::hint::black_box(request).encode_payload(),
                    std::hint::black_box(response).encode_payload(),
                );
            }
            encode_ns += started.elapsed().as_nanos() as u64 / u64::from(REPEAT);
            pair
        });
        req_bytes += req_payload.len() as u64;
        resp_bytes += resp_payload.len() as u64;
        let decoded = tracer.span("ssr_core.wire.decode", 0, k as u64, |_| {
            let started = Instant::now();
            let mut pair = None;
            for _ in 0..REPEAT {
                pair = Some((
                    Request::<E>::decode_payload(std::hint::black_box(&req_payload)),
                    Response::decode_payload(std::hint::black_box(&resp_payload)),
                ));
            }
            decode_ns += started.elapsed().as_nanos() as u64 / u64::from(REPEAT);
            pair.expect("REPEAT > 0")
        });
        let round_trips = matches!(&decoded.0, Ok(r) if r == request)
            && matches!(&decoded.1, Ok(r) if r == response);
        out.check(round_trips, || {
            format!("wire frame {k} does not decode back to itself")
        });
    }
    let n = frames.len();
    let per = |total: u64| total as f64 / n.max(1) as f64;
    out.metric("wire.encode_us", per(encode_ns) / 1e3, "us", n);
    out.metric("wire.decode_us", per(decode_ns) / 1e3, "us", n);
    out.metric("wire.request_bytes", per(req_bytes), "B", n);
    out.metric("wire.response_bytes", per(resp_bytes), "B", n);
}
