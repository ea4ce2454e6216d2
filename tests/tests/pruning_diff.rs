//! Differential tests for the search's pruning: the answer never depends
//! on what Theorem 2 or canonical-tie pruning cut, nor on which conflict
//! kernel answered the distance questions.
//!
//! Canonical-tie pruning (DESIGN.md §12) skips a child whose bound ties
//! the local N-th best when no completion can beat the N-th's member
//! list. These suites check, on seeded small SBM and random networks
//! with few keywords (so coverage ties are everywhere):
//!
//! * KTG top-N equals the brute-force oracle — groups, masks and order —
//!   for every ordering × threads {1, 2, 8} × both kernels, and equals
//!   the unpruned search, also in the order-dependent `stop_at_coverage`
//!   mode;
//! * DKTG-Greedy's groups, diversity and score are the same under the
//!   default options, under `bitmap_threshold 0`, and under a reference
//!   greedy loop that shrinks the pool with `retain` and runs each round
//!   through the oracle-only public entry point — including rounds that
//!   miss the coverage bar and rounds that stop at it;
//! * `dktg::solve_with_candidates` leaves exactly the unselected
//!   candidates in the caller's pool, in their original order.

use ktg_common::SeededRng;
use ktg_core::dktg::{self, DktgQuery};
use ktg_core::{bb, brute, candidates, AttributedGraph, Group, KtgQuery, MemberOrdering};
use ktg_datasets::keywords::{assign_zipf, KeywordModel};
use ktg_datasets::sbm::{planted_partition, SbmParams};
use ktg_index::{DistanceOracle, NlrnlIndex};
use ktg_integration_tests::{random_network, random_query};
use ktg_keywords::{KeywordId, QueryKeywords};

const ORDERINGS: [MemberOrdering; 4] = [
    MemberOrdering::Qkc,
    MemberOrdering::Vkc,
    MemberOrdering::VkcDeg,
    MemberOrdering::VkcDegDesc,
];

/// A small SBM network whose vertices carry one or two keywords from a
/// vocabulary of `vocab`, so most groups tie on coverage.
fn tied_sbm(n: usize, blocks: usize, vocab: usize, seed: u64) -> AttributedGraph {
    let params = SbmParams { n, blocks, p_in: 0.25, p_out: 0.02 };
    let graph = planted_partition(&params, seed);
    let model =
        KeywordModel { vocab_size: vocab, min_per_vertex: 1, max_per_vertex: 2, zipf_exponent: 0.8 };
    let (vocab, vk) = assign_zipf(n, &model, seed ^ 0x7135);
    AttributedGraph::new(graph, vocab, vk)
}

/// The first `size` (most popular) terms of the vocabulary.
fn popular_terms(size: usize) -> QueryKeywords {
    QueryKeywords::new((0..size as u32).map(KeywordId)).expect("non-empty")
}

/// Seeded cases: SBM networks with heavy ties plus sparse random ones.
fn cases() -> Vec<(String, AttributedGraph, QueryKeywords, u64)> {
    let mut rng = SeededRng::seed_from_u64(0x71E5);
    let mut out = Vec::new();
    for case in 0..6 {
        let seed = rng.gen_range(0u64..10_000);
        let n = rng.gen_range(24..40usize);
        let vocab = rng.gen_range(4..7usize);
        let net = tied_sbm(n, rng.gen_range(2..5usize), vocab, seed);
        let terms = popular_terms(rng.gen_range(2..=vocab.min(4)));
        out.push((format!("sbm case {case} (seed {seed}, n {n})"), net, terms, seed));
    }
    for case in 0..4 {
        let seed = rng.gen_range(0u64..10_000);
        let n = rng.gen_range(16..36usize);
        let net = random_network(n, 0.12, 4, 2, seed);
        let terms = random_query(&net, 3, seed);
        out.push((format!("random case {case} (seed {seed}, n {n})"), net, terms, seed));
    }
    out
}

#[test]
fn ktg_matches_brute_force_for_every_configuration() {
    let mut rng = SeededRng::seed_from_u64(0xB2A7);
    let mut compared = 0;
    for (label, net, terms, _) in cases() {
        let oracle = NlrnlIndex::build(net.graph());
        for _ in 0..3 {
            let p = rng.gen_range(2..4usize);
            let k = rng.gen_range(1u32..3);
            // N = 1 is where ties bite hardest: one incumbent, many equals.
            let top_n = [1usize, 1, 2, 4][rng.gen_range(0..4usize)];
            let query = KtgQuery::new(terms.clone(), p, k, top_n).expect("valid");
            let expect = brute::solve(&net, &query, &oracle).groups;
            for ordering in ORDERINGS {
                for bitmap_threshold in [bb::DEFAULT_BITMAP_THRESHOLD, 0] {
                    for threads in [1usize, 2, 8] {
                        let opts = bb::BbOptions::vkc()
                            .with_ordering(ordering)
                            .with_bitmap_threshold(bitmap_threshold)
                            .with_threads(threads);
                        let got = bb::solve(&net, &query, &oracle, &opts);
                        assert_eq!(
                            got.groups, expect,
                            "{label}: p {p} k {k} N {top_n}, {ordering:?}, bitmap_threshold \
                             {bitmap_threshold}, {threads} threads diverged from brute force"
                        );
                    }
                }
            }
            compared += usize::from(!expect.is_empty());
        }
    }
    assert!(compared >= 10, "only {compared} queries had feasible groups to compare");
}

#[test]
fn pruned_and_unpruned_searches_agree_including_early_exit() {
    let mut rng = SeededRng::seed_from_u64(0x5709);
    let mut early_exits = 0;
    for (label, net, terms, _) in cases() {
        let oracle = NlrnlIndex::build(net.graph());
        let p = rng.gen_range(2..4usize);
        let query = KtgQuery::new(terms.clone(), p, 1, 1).expect("valid");
        let best = bb::solve(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
        let Some(top) = best.groups.first() else { continue };
        // Floors at and below the optimum: the search stops at the first
        // admitted group reaching the floor, in discovery order.
        for floor in 1..=top.coverage_count() {
            for bitmap_threshold in [bb::DEFAULT_BITMAP_THRESHOLD, 0] {
                let pruned = bb::BbOptions {
                    stop_at_coverage: Some(floor),
                    ..bb::BbOptions::vkc_deg().with_bitmap_threshold(bitmap_threshold)
                };
                let unpruned = bb::BbOptions { keyword_pruning: false, ..pruned };
                let a = bb::solve(&net, &query, &oracle, &pruned);
                let b = bb::solve(&net, &query, &oracle, &unpruned);
                assert_eq!(
                    a.groups, b.groups,
                    "{label}: stop_at_coverage {floor}, bitmap_threshold {bitmap_threshold}"
                );
                assert!(a.stats.nodes <= b.stats.nodes, "{label}: pruning explored more");
                early_exits += usize::from(floor < top.coverage_count());
            }
        }
    }
    assert!(early_exits > 0, "no case exercised an early exit below the optimum");
}

/// DKTG-Greedy as it ran before the live-mask loop: every round goes
/// through the oracle-only public entry point over a pool shrunk with
/// `retain`.
fn reference_greedy(
    query: &DktgQuery,
    oracle: &impl DistanceOracle,
    mut pool: Vec<ktg_core::Candidate>,
) -> Vec<Group> {
    let inner = query.base().with_n(1).expect("N = 1 is valid");
    let mut groups: Vec<Group> = Vec::new();
    let mut c_max = None;
    while groups.len() < query.base().n() && pool.len() >= query.base().p() {
        let opts = bb::BbOptions { stop_at_coverage: c_max, ..bb::BbOptions::vkc_deg() };
        let out = bb::solve_with_candidates(&inner, oracle, &pool, &opts);
        let Some(best) = out.groups.into_iter().next() else { break };
        c_max = Some(best.coverage_count());
        pool.retain(|c| !best.contains(c.v));
        groups.push(best);
    }
    groups
}

#[test]
fn dktg_kernels_and_reference_loop_agree() {
    let mut rng = SeededRng::seed_from_u64(0xD7C6);
    let (mut missed, mut met) = (0, 0);
    for (label, net, terms, _) in cases() {
        let oracle = NlrnlIndex::build(net.graph());
        for _ in 0..3 {
            let p = rng.gen_range(2..4usize);
            let k = rng.gen_range(1u32..3);
            let top_n = rng.gen_range(2..6usize);
            let gamma = [0.0, 0.5, 0.8][rng.gen_range(0..3usize)];
            let base = KtgQuery::new(terms.clone(), p, k, top_n).expect("valid");
            let query = DktgQuery::new(base, gamma).expect("valid gamma");

            let default = dktg::solve_with_options(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
            let probing = dktg::solve_with_options(
                &net,
                &query,
                &oracle,
                &bb::BbOptions::vkc_deg().with_bitmap_threshold(0),
            );
            let masks = net.compile(query.base().keywords());
            let reference =
                reference_greedy(&query, &oracle, candidates::collect_vec(net.graph(), &masks));
            let ctx = format!("{label}: p {p} k {k} N {top_n} gamma {gamma}");
            assert_eq!(default.groups, reference, "{ctx}: default options vs reference loop");
            assert_eq!(probing.groups, reference, "{ctx}: bitmap_threshold 0 vs reference loop");
            assert_eq!(default.diversity.to_bits(), probing.diversity.to_bits(), "{ctx}");
            assert_eq!(default.score.to_bits(), probing.score.to_bits(), "{ctx}");
            assert_eq!(default.min_qkc.to_bits(), probing.min_qkc.to_bits(), "{ctx}");
            assert_eq!(default.stats.distance_checks, 0, "{ctx}: bitmap rows answer everything");

            for pair in default.groups.windows(2) {
                if pair[1].coverage_count() < pair[0].coverage_count() {
                    missed += 1;
                } else {
                    met += 1;
                }
            }
        }
    }
    assert!(missed > 0, "no greedy round missed its coverage bar");
    assert!(met > 0, "no greedy round stopped at its coverage bar");
}

#[test]
fn solve_with_candidates_leaves_the_unselected_pool() {
    for (label, net, terms, seed) in cases() {
        let oracle = NlrnlIndex::build(net.graph());
        let base = KtgQuery::new(terms, 2 + (seed % 2) as usize, 1, 3).expect("valid");
        let query = DktgQuery::new(base, 0.5).expect("valid gamma");
        let masks = net.compile(query.base().keywords());
        let original = candidates::collect_vec(net.graph(), &masks);
        let mut pool = original.clone();
        let out = dktg::solve_with_candidates(&query, &oracle, &mut pool, &bb::BbOptions::vkc_deg());
        let expect: Vec<_> = original
            .iter()
            .filter(|c| !out.groups.iter().any(|g| g.contains(c.v)))
            .copied()
            .collect();
        assert_eq!(pool, expect, "{label}: pool must keep exactly the unselected candidates");
        let selected: usize = out.groups.iter().map(Group::len).sum();
        assert_eq!(pool.len() + selected, original.len(), "{label}: groups are disjoint");
        let full = dktg::solve_with_options(&net, &query, &oracle, &bb::BbOptions::vkc_deg());
        assert_eq!(out.groups, full.groups, "{label}: both entry points agree");
        assert_eq!(out.score.to_bits(), full.score.to_bits(), "{label}");
    }
}
