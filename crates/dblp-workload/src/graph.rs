//! The DBLP corpus as a property graph, with derived preference edges.
//!
//! This is the second end-to-end workload family: the corpus loads into
//! `graphstore` (author / venue / paper nodes, `WROTE` and `PUBLISHED_IN`
//! edges), co-occurrence derivation materialises `COAUTHOR` and
//! `CO_VENUE` edges, and [`PaperGraph::derived_catalog`] lowers the
//! derived neighbourhoods into relational predicates the preference DSL
//! names as `COAUTHOR_OF('…')` / `SAME_VENUE_AS('…')` atoms. The
//! predicates target `dblp_author.aid` and `dblp.venue`, both reachable
//! from the standard `BaseQuery::dblp()` join, so a graph-derived profile
//! drives the executor unchanged.

use std::collections::BTreeMap;

use graphstore::{
    co_neighbours, derive_co_occurrence, BatchInserter, DeriveReport, HubSide, NodeId, PropValue,
    PropertyGraph,
};
use hypre_core::dsl::DerivedCatalog;
use relstore::{ColRef, Predicate};

use crate::model::DblpDataset;

/// Edge label: author → paper authorship.
pub const WROTE: &str = "WROTE";
/// Edge label: author → venue, with a `papers` count property.
pub const PUBLISHED_IN: &str = "PUBLISHED_IN";
/// Derived edge label: authors sharing at least one paper.
pub const COAUTHOR: &str = "COAUTHOR";
/// Derived edge label: venues sharing at least one author.
pub const CO_VENUE: &str = "CO_VENUE";

/// The corpus as a property graph plus the node-id maps needed to read
/// derived neighbourhoods back out.
#[derive(Debug)]
pub struct PaperGraph {
    /// The underlying property graph.
    pub graph: PropertyGraph,
    author_nodes: BTreeMap<u64, NodeId>,
    venue_nodes: BTreeMap<String, NodeId>,
    /// Per-batch node insertion timings from the build.
    pub batch_stats: Vec<graphstore::BatchStat>,
}

impl PaperGraph {
    /// Loads `dataset` into a fresh graph: batched node insertion, then
    /// `WROTE` edges per authorship row and `PUBLISHED_IN` edges with a
    /// per-paper incremented `papers` count.
    pub fn build(dataset: &DblpDataset) -> graphstore::Result<Self> {
        let mut graph = PropertyGraph::with_capacity(
            dataset.authors.len() + dataset.papers.len() + dataset.venues().len(),
        );
        let mut batch_stats = Vec::new();

        let mut inserter = BatchInserter::new(&mut graph, 1024);
        for a in &dataset.authors {
            inserter.add_node(
                ["author"],
                [
                    ("aid", PropValue::Int(a.aid as i64)),
                    ("name", PropValue::str(&a.full_name)),
                ],
            );
        }
        let (author_ids, stats) = inserter.finish();
        batch_stats.extend(stats);
        let author_nodes: BTreeMap<u64, NodeId> = dataset
            .authors
            .iter()
            .zip(&author_ids)
            .map(|(a, id)| (a.aid, *id))
            .collect();

        let venues: Vec<String> = dataset.venues().iter().map(|v| v.to_string()).collect();
        let mut inserter = BatchInserter::new(&mut graph, 1024);
        for v in &venues {
            inserter.add_node(["venue"], [("name", PropValue::str(v))]);
        }
        let (venue_ids, stats) = inserter.finish();
        batch_stats.extend(stats);
        let venue_nodes: BTreeMap<String, NodeId> = venues.into_iter().zip(venue_ids).collect();

        let mut inserter = BatchInserter::new(&mut graph, 1024);
        for p in &dataset.papers {
            inserter.add_node(
                ["paper"],
                [
                    ("pid", PropValue::Int(p.pid as i64)),
                    ("year", PropValue::Int(p.year)),
                ],
            );
        }
        let (paper_ids, stats) = inserter.finish();
        batch_stats.extend(stats);
        let paper_nodes: BTreeMap<u64, NodeId> = dataset
            .papers
            .iter()
            .zip(&paper_ids)
            .map(|(p, id)| (p.pid, *id))
            .collect();

        let paper_venue: BTreeMap<u64, &str> = dataset
            .papers
            .iter()
            .map(|p| (p.pid, p.venue.as_str()))
            .collect();
        for pa in &dataset.paper_authors {
            let (Some(&author), Some(&paper)) =
                (author_nodes.get(&pa.aid), paper_nodes.get(&pa.pid))
            else {
                continue; // dangling authorship row — skip, as load.rs does
            };
            graph.create_edge(
                author,
                paper,
                WROTE,
                [("pid", PropValue::Int(pa.pid as i64))],
            )?;
            let Some(&venue) = paper_venue.get(&pa.pid).and_then(|v| venue_nodes.get(*v)) else {
                continue;
            };
            // The increment idiom: find the edge, bump its counter, or
            // create it with count 1.
            let existing = graph.find_edge(author, venue, Some(PUBLISHED_IN)).map(|e| {
                let n = match e.prop("papers") {
                    Some(PropValue::Int(n)) => *n,
                    _ => 0,
                };
                (e.id(), n)
            });
            match existing {
                Some((edge, n)) => graph.set_edge_prop(edge, "papers", PropValue::Int(n + 1))?,
                None => {
                    graph.create_edge(
                        author,
                        venue,
                        PUBLISHED_IN,
                        [("papers", PropValue::Int(1))],
                    )?;
                }
            }
        }

        Ok(PaperGraph {
            graph,
            author_nodes,
            venue_nodes,
            batch_stats,
        })
    }

    /// Materialises `COAUTHOR` and `CO_VENUE` edges with `workers`
    /// counting threads; the result is worker-count independent.
    pub fn derive_preference_edges(
        &mut self,
        workers: usize,
    ) -> graphstore::Result<(DeriveReport, DeriveReport)> {
        let coauthor =
            derive_co_occurrence(&mut self.graph, WROTE, HubSide::Target, COAUTHOR, workers)?;
        let co_venue = derive_co_occurrence(
            &mut self.graph,
            PUBLISHED_IN,
            HubSide::Source,
            CO_VENUE,
            workers,
        )?;
        Ok((coauthor, co_venue))
    }

    /// The graph node for an author id.
    pub fn author_node(&self, aid: u64) -> Option<NodeId> {
        self.author_nodes.get(&aid).copied()
    }

    /// The graph node for a venue name.
    pub fn venue_node(&self, venue: &str) -> Option<NodeId> {
        self.venue_nodes.get(venue).copied()
    }

    /// Co-author ids of `aid` over derived `COAUTHOR` edges, sorted.
    pub fn coauthor_aids(&self, aid: u64) -> Vec<u64> {
        let Some(node) = self.author_node(aid) else {
            return Vec::new();
        };
        let mut out: Vec<u64> = co_neighbours(&self.graph, node, COAUTHOR)
            .into_iter()
            .filter_map(|(n, _)| match self.graph.node(n).ok()?.prop("aid") {
                Some(PropValue::Int(aid)) => Some(*aid as u64),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Venue names co-occurring with `venue` over derived `CO_VENUE`
    /// edges, sorted.
    pub fn co_venues(&self, venue: &str) -> Vec<String> {
        let Some(node) = self.venue_node(venue) else {
            return Vec::new();
        };
        let mut out: Vec<String> = co_neighbours(&self.graph, node, CO_VENUE)
            .into_iter()
            .filter_map(|(n, _)| match self.graph.node(n).ok()?.prop("name") {
                Some(PropValue::Str(name)) => Some(name.clone()),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Lowers every author's and venue's derived neighbourhood into a DSL
    /// catalog: `COAUTHOR_OF(name)` → `dblp_author.aid IN (…)`,
    /// `SAME_VENUE_AS(v)` → `dblp.venue IN (…)` (self excluded). Entities
    /// with no derived edges lower to `FALSE` — a known name with an
    /// empty neighbourhood, as opposed to an unknown name, which stays a
    /// compile error.
    pub fn derived_catalog(&self, dataset: &DblpDataset) -> DerivedCatalog {
        let mut catalog = DerivedCatalog::new();
        for a in &dataset.authors {
            let coauthors = self.coauthor_aids(a.aid);
            let pred = if coauthors.is_empty() {
                Predicate::False
            } else {
                Predicate::in_list(
                    ColRef::qualified("dblp_author", "aid"),
                    coauthors.into_iter().map(|aid| aid as i64),
                )
            };
            catalog.insert_coauthor(&a.full_name, pred);
        }
        for venue in self.venue_nodes.keys() {
            let co = self.co_venues(venue);
            let pred = if co.is_empty() {
                Predicate::False
            } else {
                Predicate::in_list(ColRef::qualified("dblp", "venue"), co)
            };
            catalog.insert_same_venue(venue, pred);
        }
        catalog
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::gen::{generate, GeneratorConfig};

    fn corpus() -> DblpDataset {
        generate(&GeneratorConfig::tiny(42))
    }

    /// Brute-force co-author reference straight off the relation rows.
    fn brute_coauthors(dataset: &DblpDataset, aid: u64) -> Vec<u64> {
        let mut out = BTreeSet::new();
        for p in dataset.papers_of(aid) {
            for other in dataset.authors_of(p) {
                if other != aid {
                    out.insert(other);
                }
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn build_loads_every_row() {
        let dataset = corpus();
        let pg = PaperGraph::build(&dataset).unwrap();
        assert_eq!(
            pg.graph.node_count(),
            dataset.authors.len() + dataset.papers.len() + dataset.venues().len()
        );
        let wrote = pg.graph.edges().filter(|e| e.label() == WROTE).count();
        assert_eq!(wrote, dataset.paper_authors.len());
        // PUBLISHED_IN counts sum back to the authorship rows.
        let published: i64 = pg
            .graph
            .edges()
            .filter(|e| e.label() == PUBLISHED_IN)
            .map(|e| match e.prop("papers") {
                Some(PropValue::Int(n)) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(published, dataset.paper_authors.len() as i64);
        assert!(!pg.batch_stats.is_empty());
    }

    #[test]
    fn derived_coauthors_match_brute_force() {
        let dataset = corpus();
        let mut pg = PaperGraph::build(&dataset).unwrap();
        let (co, _) = pg.derive_preference_edges(2).unwrap();
        assert!(co.pairs > 0, "tiny corpus should have co-authorships");
        for a in &dataset.authors {
            assert_eq!(
                pg.coauthor_aids(a.aid),
                brute_coauthors(&dataset, a.aid),
                "aid {}",
                a.aid
            );
        }
    }

    #[test]
    fn derivation_is_worker_count_independent() {
        let dataset = corpus();
        let snapshot = |workers: usize| {
            let mut pg = PaperGraph::build(&dataset).unwrap();
            let reports = pg.derive_preference_edges(workers).unwrap();
            let mut edges: Vec<(u64, u64, String, i64)> = pg
                .graph
                .edges()
                .filter(|e| e.label() == COAUTHOR || e.label() == CO_VENUE)
                .map(|e| {
                    let w = match e.prop("weight") {
                        Some(PropValue::Int(w)) => *w,
                        _ => -1,
                    };
                    (e.from().0, e.to().0, e.label().to_owned(), w)
                })
                .collect();
            edges.sort();
            (reports, edges)
        };
        let one = snapshot(1);
        assert_eq!(one, snapshot(2));
        assert_eq!(one, snapshot(8));
    }

    #[test]
    fn catalog_lowered_predicates() {
        let dataset = corpus();
        let mut pg = PaperGraph::build(&dataset).unwrap();
        pg.derive_preference_edges(2).unwrap();
        let catalog = pg.derived_catalog(&dataset);
        assert_eq!(
            catalog.len(),
            dataset.authors.len() + dataset.venues().len()
        );

        // An author with co-authors lowers to an IN-list over the join
        // table; one without lowers to FALSE.
        let with = dataset
            .authors
            .iter()
            .find(|a| !brute_coauthors(&dataset, a.aid).is_empty())
            .expect("tiny corpus has co-authorships");
        let pred = catalog.coauthor(&with.full_name).unwrap();
        assert!(pred.canonical().starts_with("dblp_author.aid IN ("));

        let venues = dataset.venues();
        let co = pg.co_venues(venues[0]);
        let pred = catalog.same_venue(venues[0]).unwrap();
        if co.is_empty() {
            assert_eq!(pred.canonical(), "FALSE");
        } else {
            assert!(pred.canonical().starts_with("dblp.venue IN ("));
            assert!(!co.contains(&venues[0].to_string()), "self excluded");
        }
    }
}
