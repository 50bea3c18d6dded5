//! Routing tagged arrivals to shards.
//!
//! The cluster frontend sees one merged arrival stream; a [`RouterPolicy`]
//! decides, per query and *before* the shard's serial frontend stamps it,
//! which shard serves it. All three policies are deterministic — two runs
//! of the same cluster over the same trace route identically.

/// Which shard-selection policy the cluster frontend runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Static hash partitioning: shard = `hash(arrival index) % shards`.
    /// Load-oblivious — the baseline every production gateway starts from.
    StaticHash,
    /// Join-shortest-queue: the shard with the fewest outstanding
    /// (offered-but-uncompleted) queries takes the arrival; ties go to the
    /// lowest shard index.
    JoinShortestQueue,
    /// Smooth weighted round-robin over each shard's *planned capacity*
    /// (its [`capacity_hint_qps`]) — load-oblivious like [`StaticHash`],
    /// but aware that a 6-GPU shard should take three times the traffic of
    /// a 2-GPU shard.
    ///
    /// [`capacity_hint_qps`]: inference_server::MultiModelServer::capacity_hint_qps
    /// [`StaticHash`]: Self::StaticHash
    WeightedByCapacity,
}

/// One run's mutable routing state.
#[derive(Debug, Clone)]
pub(crate) struct RouterState {
    policy: RouterPolicy,
    /// Arrival counter feeding the static hash.
    counter: u64,
    /// Smooth-WRR credit accumulators.
    credit: Vec<f64>,
    weights: Vec<f64>,
}

/// SplitMix64 — the same cheap deterministic mixer the treap priorities
/// use; avalanches the arrival counter so static hashing does not stripe.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RouterState {
    pub(crate) fn new(policy: RouterPolicy, capacity_weights: Vec<f64>) -> Self {
        debug_assert!(capacity_weights.iter().all(|w| w.is_finite() && *w > 0.0));
        RouterState {
            policy,
            counter: 0,
            credit: vec![0.0; capacity_weights.len()],
            weights: capacity_weights,
        }
    }

    /// Picks the shard for the next arrival. `outstanding[s]` is shard
    /// `s`'s offered-but-uncompleted query count at this instant;
    /// `alive[s]` is its liveness and `live` the number of live shards —
    /// failed shards are excluded from every policy. A fully dead fleet
    /// routes as if everyone were alive (the query must land somewhere; it
    /// waits out the outage in the shard). With every shard alive each
    /// policy is bit-for-bit its historical self.
    ///
    /// One pass over the shards at most: JSQ is a single strict-`<` scan
    /// (ties keep the lowest index), and a fully live (or fully dead)
    /// fleet hashes straight to `h % n`.
    pub(crate) fn pick(&mut self, outstanding: &[u64], alive: &[bool], live: usize) -> usize {
        let n = self.weights.len();
        debug_assert_eq!(outstanding.len(), n);
        debug_assert_eq!(alive.len(), n);
        debug_assert_eq!(alive.iter().filter(|&&a| a).count(), live);
        let everyone = live == 0 || live == n;
        let eligible = |s: usize| everyone || alive[s];
        match self.policy {
            RouterPolicy::StaticHash => {
                let h = splitmix64(self.counter);
                self.counter += 1;
                if everyone {
                    (h % n as u64) as usize
                } else {
                    let k = (h % live as u64) as usize;
                    (0..n).filter(|&s| alive[s]).nth(k).expect("k < live count")
                }
            }
            RouterPolicy::JoinShortestQueue => {
                let mut best: Option<(usize, u64)> = None;
                for (s, &load) in outstanding.iter().enumerate() {
                    if eligible(s) && best.is_none_or(|(_, b)| load < b) {
                        best = Some((s, load));
                    }
                }
                best.expect("at least one live shard").0
            }
            RouterPolicy::WeightedByCapacity => {
                // Smooth WRR: every live shard earns credit proportional
                // to its weight; the richest serves and pays the pot back.
                // Dead shards neither earn nor compete — their credit
                // freezes until repair.
                let mut winner: Option<usize> = None;
                let mut pot = 0.0;
                for s in 0..n {
                    if !eligible(s) {
                        continue;
                    }
                    self.credit[s] += self.weights[s];
                    pot += self.weights[s];
                    match winner {
                        Some(w) if self.credit[s] <= self.credit[w] => {}
                        _ => winner = Some(s),
                    }
                }
                let w = winner.expect("at least one live shard");
                self.credit[w] -= pot;
                w
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RouterState {
        /// The original iterator-chain form of [`pick`](RouterState::pick):
        /// liveness recomputed per call, a two-pass filtered hash, and a
        /// `min_by_key` JSQ. Kept as the reference the one-pass form must
        /// match decision for decision.
        fn pick_reference(&mut self, outstanding: &[u64], alive: &[bool]) -> usize {
            let n = self.weights.len();
            let any_alive = alive.iter().any(|&a| a);
            let live = |s: usize| !any_alive || alive[s];
            match self.policy {
                RouterPolicy::StaticHash => {
                    let h = splitmix64(self.counter);
                    self.counter += 1;
                    let count = (0..n).filter(|&s| live(s)).count() as u64;
                    let k = (h % count) as usize;
                    (0..n).filter(|&s| live(s)).nth(k).expect("k < live count")
                }
                RouterPolicy::JoinShortestQueue => outstanding
                    .iter()
                    .enumerate()
                    .filter(|&(s, _)| live(s))
                    .min_by_key(|&(s, &load)| (load, s))
                    .map(|(s, _)| s)
                    .expect("at least one live shard"),
                RouterPolicy::WeightedByCapacity => {
                    let mut winner: Option<usize> = None;
                    let mut pot = 0.0;
                    for s in 0..n {
                        if !live(s) {
                            continue;
                        }
                        self.credit[s] += self.weights[s];
                        pot += self.weights[s];
                        match winner {
                            Some(w) if self.credit[s] <= self.credit[w] => {}
                            _ => winner = Some(s),
                        }
                    }
                    let w = winner.expect("at least one live shard");
                    self.credit[w] -= pot;
                    w
                }
            }
        }
    }

    #[test]
    fn one_pass_pick_matches_the_reference_form() {
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng += 1;
            splitmix64(rng)
        };
        for n in 1..=64usize {
            for policy in [
                RouterPolicy::StaticHash,
                RouterPolicy::JoinShortestQueue,
                RouterPolicy::WeightedByCapacity,
            ] {
                let weights: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 8) as f64).collect();
                let mut fast = RouterState::new(policy, weights.clone());
                let mut reference = RouterState::new(policy, weights);
                for round in 0..200 {
                    // Loads from a tiny range so ties are the common case.
                    let outstanding: Vec<u64> = (0..n).map(|_| next() % 4).collect();
                    let alive: Vec<bool> = match round % 4 {
                        0 => vec![true; n],
                        1 => vec![false; n],
                        _ => (0..n).map(|_| next() % 3 != 0).collect(),
                    };
                    let live = alive.iter().filter(|&&a| a).count();
                    assert_eq!(
                        fast.pick(&outstanding, &alive, live),
                        reference.pick_reference(&outstanding, &alive),
                        "{policy:?} n={n} round={round} loads={outstanding:?} alive={alive:?}"
                    );
                }
                assert_eq!(fast.counter, reference.counter);
                assert_eq!(fast.credit, reference.credit, "{policy:?} n={n}");
            }
        }
    }

    #[test]
    fn static_hash_spreads_and_reproduces() {
        let mut a = RouterState::new(RouterPolicy::StaticHash, vec![1.0; 4]);
        let mut b = RouterState::new(RouterPolicy::StaticHash, vec![1.0; 4]);
        let outstanding = [0u64; 4];
        let alive = [true; 4];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let s = a.pick(&outstanding, &alive, 4);
            assert_eq!(s, b.pick(&outstanding, &alive, 4), "deterministic");
            counts[s] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "roughly uniform: {counts:?}");
        }
    }

    #[test]
    fn jsq_picks_least_loaded_lowest_index() {
        let mut r = RouterState::new(RouterPolicy::JoinShortestQueue, vec![1.0; 3]);
        let alive = [true; 3];
        assert_eq!(r.pick(&[5, 2, 9], &alive, 3), 1);
        assert_eq!(
            r.pick(&[4, 4, 9], &alive, 3),
            0,
            "ties go to the lowest index"
        );
        assert_eq!(r.pick(&[4, 3, 3], &alive, 3), 1);
    }

    #[test]
    fn weighted_round_robin_tracks_capacity_ratio() {
        let mut r = RouterState::new(RouterPolicy::WeightedByCapacity, vec![3.0, 1.0]);
        let outstanding = [0u64; 2];
        let alive = [true; 2];
        let picks: Vec<usize> = (0..8).map(|_| r.pick(&outstanding, &alive, 2)).collect();
        let to_heavy = picks.iter().filter(|&&s| s == 0).count();
        assert_eq!(to_heavy, 6, "3:1 weights give 6 of 8 to shard 0: {picks:?}");
        // Smooth: never more than a couple of consecutive repeats of the
        // light shard.
        assert!(picks.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn every_policy_excludes_dead_shards() {
        let dead_mid = [true, false, true];
        let mut hash = RouterState::new(RouterPolicy::StaticHash, vec![1.0; 3]);
        for _ in 0..100 {
            assert_ne!(hash.pick(&[0; 3], &dead_mid, 2), 1);
        }
        let mut jsq = RouterState::new(RouterPolicy::JoinShortestQueue, vec![1.0; 3]);
        // Shard 1 is emptiest but dead.
        assert_eq!(jsq.pick(&[5, 0, 3], &dead_mid, 2), 2);
        let mut wrr = RouterState::new(RouterPolicy::WeightedByCapacity, vec![1.0, 10.0, 1.0]);
        for _ in 0..20 {
            assert_ne!(wrr.pick(&[0; 3], &dead_mid, 2), 1);
        }
    }

    #[test]
    fn fully_dead_fleet_falls_back_to_all_shards() {
        let dead = [false, false];
        let mut jsq = RouterState::new(RouterPolicy::JoinShortestQueue, vec![1.0; 2]);
        assert_eq!(
            jsq.pick(&[3, 1], &dead, 0),
            1,
            "routes as if all were alive"
        );
        let mut hash = RouterState::new(RouterPolicy::StaticHash, vec![1.0; 2]);
        let mut seen = [false; 2];
        for _ in 0..50 {
            seen[hash.pick(&[0; 2], &dead, 0)] = true;
        }
        assert!(seen[0] && seen[1]);
    }
}
