//! Spans recorded from the benchmark's own files, and the in-process
//! replay that times each layer's public functions on the same seeded
//! request stream the server was sent.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypre_core::algo::peps::PepsVariant;
use hypre_core::prelude::{
    BatchRequest, BatchScheduler, Executor, PairwiseCache, Peps, PrefAtom, ProfileCache,
};
use hypre_core::serve::wire::{self, Request, Response};
use relstore::Database;

use crate::corpus::{self, Req, WireProfile};
use crate::net::top_k;
use crate::stats;

/// One timed call: name, parent span, request (or batch) id, and start
/// and end in nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// An instant on this tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            req,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span at `start`; [`Tracer::close`] sets its end.
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: u64,
    ) -> u32 {
        self.record(name, parent, req, start, start)
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> u32 {
        let now = self.now();
        self.open_at(name, parent, req, now)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Durations in microseconds of every span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Writes every span as a tab-separated row.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Counts the replay takes at the layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct Replayed {
    pub requests: u64,
    pub batches: u64,
    pub groups: u64,
    pub atoms_in_groups: u64,
    pub snapshot_hits: u64,
    pub memo_hits: u64,
    pub sql: u64,
    /// Per batch: `BatchScheduler::run` minus its replayed children, ns
    /// (negative when the two timings' noise exceeds the self time).
    pub sched_self_ns: Vec<i64>,
}

impl Replayed {
    pub fn resolves(&self) -> u64 {
        self.snapshot_hits + self.memo_hits + self.sql
    }
}

/// The grouping key `BatchScheduler` uses: variant plus, per atom, the
/// tuple set's pointer and the intensity's bits.
type GroupKey = (u8, Vec<(usize, u64)>);

struct Group {
    atoms: Vec<PrefAtom>,
    variant: PepsVariant,
    ks: Vec<usize>,
}

/// Replays `reqs` in chunks of `batch` through the public calls the
/// server makes, until the stream or `budget` runs out. Each chunk is
/// decoded, parsed and run through `BatchScheduler::run`, its replies
/// encoded; the same chunk is also replayed through the scheduler's
/// children (`with_cache_pinned`, `tuple_set`, `PairwiseCache::build`,
/// `Peps::top_k_multi`) so the scheduler's self time can be taken.
pub fn replay(
    db: &Database,
    cache: &Arc<ProfileCache>,
    profiles: &[WireProfile],
    reqs: &[Req],
    batch: usize,
    budget: Duration,
    t: &mut Tracer,
) -> Result<Replayed, String> {
    let scheduler = BatchScheduler::sequential();
    let began = Instant::now();
    let mut out = Replayed::default();
    for (b, chunk) in reqs.chunks(batch.max(1)).enumerate() {
        if began.elapsed() > budget {
            break;
        }
        let first = (b * batch.max(1)) as u64;
        let payloads: Vec<Vec<u8>> = chunk
            .iter()
            .map(|r| wire::encode_request(&top_k(&profiles[r.profile as usize], r.tenant)))
            .collect();
        let mut requests = Vec::with_capacity(chunk.len());
        for (j, payload) in payloads.iter().enumerate() {
            let rid = first + j as u64;
            let s = t.now();
            let decoded = wire::decode_request(payload).map_err(|e| e.to_string())?;
            t.record("wire.decode_request", None, rid, s, t.now());
            let Request::TopK {
                k, variant, atoms, ..
            } = decoded
            else {
                return Err("replayed a frame that is not TopK".into());
            };
            let s = t.now();
            let atoms =
                corpus::admitted_atoms(atoms.iter().map(|a| (a.predicate.as_str(), a.intensity)))
                    .map_err(|e| e.to_string())?;
            t.record("relstore.parse_predicate", None, rid, s, t.now());
            requests.push(BatchRequest::new(atoms, k as usize).with_variant(variant));
        }

        // The children replay runs before the scheduler on even batches
        // and after it on odd ones, so warm caches favour neither side of
        // the self-time difference.
        let children_first = b % 2 == 0;
        let mut children = 0;
        if children_first {
            children = replay_children(db, cache, &requests, b as u64, &mut out, t)?;
        }
        let s = t.now();
        let outcome = scheduler
            .run(db, cache, &requests)
            .map_err(|e| e.to_string())?;
        let run_ns = t.now() - s;
        t.record("sched.run", None, b as u64, s, s + run_ns);
        for (j, result) in outcome.results.into_iter().enumerate() {
            let ranked = result.map_err(|e| e.to_string())?;
            let s = t.now();
            let bytes = wire::encode_response(&Response::TopK(ranked));
            t.record("wire.encode_response", None, first + j as u64, s, t.now());
            std::hint::black_box(bytes);
        }
        if !children_first {
            children = replay_children(db, cache, &requests, b as u64, &mut out, t)?;
        }
        out.sched_self_ns.push(run_ns as i64 - children as i64);
        out.requests += chunk.len() as u64;
        out.batches += 1;
    }
    Ok(out)
}

/// Replays one batch through the scheduler's children under a
/// `sched.children` span; returns the time the children cover.
fn replay_children(
    db: &Database,
    cache: &Arc<ProfileCache>,
    requests: &[BatchRequest],
    b: u64,
    out: &mut Replayed,
    t: &mut Tracer,
) -> Result<u64, String> {
    let parent = t.open("sched.children", None, b);
    let first_child = t.spans.len();
    let s = t.now();
    let exec = Executor::with_cache_pinned(db, Arc::clone(cache)).map_err(|e| e.to_string())?;
    t.record("exec.with_cache_pinned", Some(parent), b, s, t.now());
    let mut index: HashMap<GroupKey, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for req in requests {
        let mut key = Vec::with_capacity(req.atoms.len());
        for atom in &req.atoms {
            let before = (exec.shared_hits(), exec.cache_hits());
            let s = t.now();
            let set = exec.tuple_set(&atom.predicate).map_err(|e| e.to_string())?;
            let e = t.now();
            let name = if exec.shared_hits() > before.0 {
                out.snapshot_hits += 1;
                "exec.tuple_set.snapshot"
            } else if exec.cache_hits() > before.1 {
                out.memo_hits += 1;
                "exec.tuple_set.memo"
            } else {
                out.sql += 1;
                "exec.tuple_set.sql"
            };
            t.record(name, Some(parent), b, s, e);
            key.push((Arc::as_ptr(&set) as usize, atom.intensity.to_bits()));
        }
        let tag = match req.variant {
            PepsVariant::Complete => 0,
            PepsVariant::Approximate => 1,
        };
        let g = *index.entry((tag, key)).or_insert_with(|| {
            groups.push(Group {
                atoms: req.atoms.clone(),
                variant: req.variant,
                ks: Vec::new(),
            });
            groups.len() - 1
        });
        if let Err(slot) = groups[g].ks.binary_search(&req.k) {
            groups[g].ks.insert(slot, req.k);
        }
    }
    for g in &groups {
        let s = t.now();
        let pairs = PairwiseCache::build(&g.atoms, &exec).map_err(|e| e.to_string())?;
        t.record("exec.pairwise_build", Some(parent), b, s, t.now());
        let s = t.now();
        let ranked = Peps::new(&g.atoms, &exec, &pairs, g.variant)
            .top_k_multi(&g.ks)
            .map_err(|e| e.to_string())?;
        t.record("peps.top_k_multi", Some(parent), b, s, t.now());
        std::hint::black_box(ranked);
        out.groups += 1;
        out.atoms_in_groups += g.atoms.len() as u64;
    }
    t.close(parent);
    let p = t.spans[parent as usize];
    let kids: Vec<(u64, u64)> = t.spans[first_child..]
        .iter()
        .filter(|s| s.parent == Some(parent))
        .map(|s| (s.start, s.end))
        .collect();
    Ok((p.end - p.start) - stats::self_time((p.start, p.end), &kids))
}
