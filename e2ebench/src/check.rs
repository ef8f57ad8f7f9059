//! The answer check: every reply compared byte for byte with a cold
//! sequential `Executor` → `PairwiseCache::build` → `Peps::top_k` over
//! the corpus the server answered from, encoded as the server encodes.

use hypre_core::prelude::{BaseQuery, Executor, PairwiseCache, Peps, PepsVariant};
use hypre_core::serve::wire::{self, Response};
use relstore::Database;

use crate::corpus::{self, WireProfile, K};
use crate::net::Answers;

/// The reference reply payload for `profile`, computed on `exec`.
pub fn answer(exec: &Executor<'_>, profile: &WireProfile) -> Result<Vec<u8>, String> {
    let atoms = corpus::admitted_atoms(profile.iter().map(|(t, w)| (t.as_str(), *w)))
        .map_err(|e| e.to_string())?;
    let pairs = PairwiseCache::build(&atoms, exec).map_err(|e| e.to_string())?;
    let ranked = Peps::new(&atoms, exec, &pairs, PepsVariant::Complete)
        .top_k(K as usize)
        .map_err(|e| e.to_string())?;
    Ok(wire::encode_response(&Response::TopK(ranked)))
}

/// What the check found.
#[derive(Default, Debug)]
pub struct Verdict {
    /// Distinct (profile, payload) answers compared.
    pub distinct: usize,
    /// Of those, compared against a fresh executor of their own.
    pub fresh: usize,
    /// Replies that matched no reference.
    pub wrong: u64,
    pub first_mismatch: Option<String>,
}

impl Verdict {
    fn miss(&mut self, n: u64, what: String) {
        self.wrong += n;
        self.first_mismatch.get_or_insert(what);
    }
}

/// Checks answers over a corpus that did not change while serving.
/// Profiles for which `fresh` holds get a fresh executor each; the rest
/// share one cold executor (it memoises tuple sets, not answers).
pub fn fixed(
    db: &Database,
    profiles: &[WireProfile],
    answers: &Answers,
    fresh: impl Fn(u32) -> bool,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let shared = Executor::new(db, BaseQuery::dblp());
    let mut keys: Vec<&u32> = answers.by_profile.keys().collect();
    keys.sort_unstable();
    for &p in keys {
        let profile = &profiles[p as usize];
        let expected = if fresh(p) {
            verdict.fresh += 1;
            answer(&Executor::new(db, BaseQuery::dblp()), profile)?
        } else {
            answer(&shared, profile)?
        };
        for (payload, n) in &answers.by_profile[&p] {
            verdict.distinct += 1;
            if *payload != expected {
                verdict.miss(
                    *n,
                    format!("profile {p}: reply differs from the cold executor"),
                );
            }
        }
    }
    Ok(())
}
