//! Outside-in tracing: each query is replayed by calling the layers' public
//! functions in pipeline order, with a span recorded around every call.
//!
//! `infer_local_routes` builds the reference→segment index and runs TGI or
//! NNI itself, so its children cannot be timed inside it from out here. A
//! separate children replay re-runs `RefEdgeIndex::build` and the algorithm
//! the parent replay's statistics name, under a root span of its own; the
//! parent's self time is its own duration minus those children's.

use crate::inputs::K;
use hris::local::{infer_local_routes, nni, tgi, LocalInferenceResult, LocalStats, RefEdgeIndex};
use hris::reference::{search_references, RefSearchConfig, ReferenceSet};
use hris::{GlobalRoute, HrisParams, PaperScorer, RouteScorer, ScoringCtx};
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{CostModel, RoadNetwork};
use hris_traj::{GpsPoint, Trajectory, TrajectoryArchive};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::time::Instant;

/// One recorded span. Ids start at 1; `parent == 0` marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's id.
    pub id: u32,
    /// The enclosing span's id, or 0.
    pub parent: u32,
    /// Index of the query the span belongs to.
    pub query: u32,
    /// Layer name.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, query: u32) -> u32 {
        let id = u32::try_from(self.spans.len() + 1).expect("span count fits u32");
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the durations of its direct children (which never overlap — the
    /// replay is sequential).
    #[must_use]
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.duration_ns();
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.duration_ns() - child_ns[s.id as usize];
        }
        out
    }

    /// Total duration per span name, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    /// Whatever creating or writing the file returns.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Deterministic work counts of a replay, taken from the layers' return
/// values.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Query point pairs replayed.
    pub pairs: u64,
    /// References found, summed over pairs.
    pub refs: u64,
    /// Reference points, summed over pairs.
    pub ref_points: u64,
    /// Pairs that ran local inference.
    pub local_pairs: u64,
    /// Traverse edges (segments covered by some reference), summed.
    pub traverse_edges: u64,
    /// Pairs answered by TGI.
    pub tgi_pairs: u64,
    /// TGI traverse-graph nodes, summed.
    pub tgi_nodes: u64,
    /// TGI links before reduction, summed.
    pub tgi_links_initial: u64,
    /// TGI links after reduction, summed.
    pub tgi_links_final: u64,
    /// TGI augmentation links, summed.
    pub tgi_augmentation_links: u64,
    /// Pairs answered by NNI.
    pub nni_pairs: u64,
    /// NNI constrained-kNN searches, summed.
    pub nni_knn_searches: u64,
    /// Routes TGI/NNI proposed, summed over pairs that ran local inference.
    pub routes_proposed: u64,
    /// Routes `infer_local_routes` kept for those pairs.
    pub routes_kept: u64,
    /// Pairs answered by the shortest-path fallback.
    pub fallback_pairs: u64,
    /// Shortest-path oracle probes answered from cache.
    pub oracle_hits: u64,
    /// Shortest-path oracle probes that ran Dijkstra.
    pub oracle_misses: u64,
    /// Distinct segments that were TGI traverse-graph nodes — each is one
    /// entry of the network's λ-neighbourhood memo.
    pub tgi_node_segments: HashSet<u32>,
}

/// Candidate edges of a query point, with the nearest-segment fallback —
/// what the engine does before reference search.
fn query_candidates(
    net: &RoadNetwork,
    params: &HrisParams,
    p: hris_geo::Point,
) -> Vec<CandidateEdge> {
    let mut c = net.candidate_edges(p, params.candidate_eps_m);
    if c.is_empty() {
        if let Some(nearest) = net.nearest_segment(p) {
            c.push(nearest);
        }
    }
    c.truncate(params.max_query_candidates.max(1));
    c
}

/// Reference search for one query point pair, as the engine configures it.
fn references(
    net: &RoadNetwork,
    archive: &TrajectoryArchive,
    params: &HrisParams,
    qi: GpsPoint,
    qj: GpsPoint,
) -> ReferenceSet {
    let cfg = RefSearchConfig {
        phi: params.phi_m,
        splice_eps: params.splice_eps_m,
        splice_when_simple_below: params.splice_when_simple_below,
        max_refs: params.max_refs_per_pair,
        temporal: params.temporal_tolerance_s.map(|tol| (qi.t, tol)),
    };
    let dt = (qj.t - qi.t).max(1.0);
    search_references(archive, qi.pos, qj.pos, dt, net.max_speed(), &cfg)
}

/// The pipeline a replay calls into.
pub struct Replay<'a> {
    /// Road network.
    pub net: &'a RoadNetwork,
    /// Archive searched for references.
    pub archive: &'a TrajectoryArchive,
    /// Inference parameters.
    pub params: &'a HrisParams,
}

impl Replay<'_> {
    /// Replays query `qid` through the layers in pipeline order, recording
    /// spans into `log` and work counts into `counters`. Returns the composed
    /// top-K answer and, per pair, the local algorithm that ran (`"TGI"`,
    /// `"NNI"`, or `""` when local inference did not run).
    pub fn query(
        &self,
        query: &Trajectory,
        qid: u32,
        log: &mut SpanLog,
        counters: &mut Counters,
    ) -> (Vec<GlobalRoute>, Vec<&'static str>) {
        let (net, archive, params) = (self.net, self.archive, self.params);
        let oracle = net.sp_oracle();
        let (hits0, misses0) = (oracle.hits(), oracle.misses());
        let root = log.open("query", 0, qid);

        let span = log.open("roadnet.candidates", root, qid);
        let cands: Vec<Vec<CandidateEdge>> = query
            .points
            .iter()
            .map(|p| query_candidates(net, params, p.pos))
            .collect();
        log.close(span);

        let mut locals: Vec<LocalInferenceResult> = Vec::new();
        for (i, w) in query.points.windows(2).enumerate() {
            let span = log.open("core.reference", root, qid);
            let refs = references(net, archive, params, w[0], w[1]);
            log.close(span);
            counters.pairs += 1;
            counters.refs += refs.len() as u64;
            counters.ref_points += refs.num_points() as u64;

            let (ci, cj) = (&cands[i], &cands[i + 1]);
            let mut result = if refs.is_empty() || ci.is_empty() || cj.is_empty() {
                LocalInferenceResult {
                    routes: Vec::new(),
                    edge_index: RefEdgeIndex::default(),
                    refs,
                    stats: LocalStats::default(),
                }
            } else {
                let span = log.open("core.local", root, qid);
                let r = infer_local_routes(net, refs, ci, cj, params);
                log.close(span);
                r
            };
            if result.routes.is_empty() {
                let span = log.open("roadnet.oracle.fallback", root, qid);
                if let (Some(a), Some(b)) = (ci.first(), cj.first()) {
                    if let Some(r) = oracle.route_between(a.segment, b.segment, CostModel::Distance)
                    {
                        result.routes.push(r);
                    }
                }
                log.close(span);
                counters.fallback_pairs += 1;
            }
            locals.push(result);
        }

        let span = log.open("core.global", root, qid);
        let globals = PaperScorer::from_params(params).top_k(&ScoringCtx::new(net, &locals, K));
        log.close(span);
        log.close(root);
        counters.oracle_hits += oracle.hits() - hits0;
        counters.oracle_misses += oracle.misses() - misses0;

        let mut algorithms = Vec::with_capacity(locals.len());
        for (i, l) in locals.iter().enumerate() {
            let stats = &l.stats;
            match stats.algorithm {
                "TGI" => {
                    counters.tgi_pairs += 1;
                    counters.tgi_nodes += stats.traverse_nodes as u64;
                    counters.tgi_links_initial += stats.traverse_edges_initial as u64;
                    counters.tgi_links_final += stats.traverse_edges_final as u64;
                    counters.tgi_augmentation_links += stats.augmentation_links as u64;
                    counters.tgi_node_segments.extend(
                        l.edge_index
                            .traverse_edges()
                            .iter()
                            .chain(cands[i].iter().chain(&cands[i + 1]).map(|c| &c.segment))
                            .map(|s| s.0),
                    );
                }
                "NNI" => {
                    counters.nni_pairs += 1;
                    counters.nni_knn_searches += stats.knn_searches as u64;
                }
                _ => {}
            }
            if !stats.algorithm.is_empty() {
                counters.local_pairs += 1;
                counters.traverse_edges += l.edge_index.traverse_edges().len() as u64;
                counters.routes_kept += l.routes.len() as u64;
            }
            algorithms.push(stats.algorithm);
        }
        (globals, algorithms)
    }

    /// Replays the children of `infer_local_routes` for query `qid` under their
    /// own root span: `RefEdgeIndex::build`, then the algorithm the parent
    /// replay ran (`algorithms`, as [`Replay::query`] returned them). Candidates
    /// and references are recomputed outside any span.
    pub fn children(
        &self,
        query: &Trajectory,
        qid: u32,
        algorithms: &[&'static str],
        log: &mut SpanLog,
        counters: &mut Counters,
    ) {
        let (net, archive, params) = (self.net, self.archive, self.params);
        let cands: Vec<Vec<CandidateEdge>> = query
            .points
            .iter()
            .map(|p| query_candidates(net, params, p.pos))
            .collect();
        let root = log.open("replay.local_children", 0, qid);
        for (i, (w, &algorithm)) in query.points.windows(2).zip(algorithms).enumerate() {
            if algorithm.is_empty() {
                continue;
            }
            let refs = references(net, archive, params, w[0], w[1]);
            let (ci, cj) = (&cands[i], &cands[i + 1]);
            let span = log.open("core.local.index", root, qid);
            let index = RefEdgeIndex::build(net, &refs, params.candidate_eps_m);
            log.close(span);
            let proposed = if algorithm == "TGI" {
                let span = log.open("core.local.tgi", root, qid);
                let (routes, _) = tgi::tgi(net, &index, ci, cj, params);
                log.close(span);
                routes.len()
            } else {
                let span = log.open("core.local.nni", root, qid);
                let (routes, _) = nni::nni(net, &refs, ci, cj, params);
                log.close(span);
                routes.len()
            };
            counters.routes_proposed += proposed as u64;
        }
        log.close(root);
    }
}
