//! Property-based tests of the matcher, rewriter, and plan serialization
//! over randomly generated physical plans.

use proptest::prelude::*;
use restore_core::matcher::{pairwise_plan_traversal, subsumes};
use restore_core::plan_text::{decode_plan, encode_plan};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};

/// Strategy: a random linear-ish pipeline plan with occasional joins.
/// Returns (plan, interesting ops = everything except Load/Store).
fn arb_plan() -> impl Strategy<Value = PhysicalPlan> {
    // A recipe: for each step, an op choice (0..5) and parameters.
    (
        prop::collection::vec((0u8..6, 0usize..4, any::<i64>()), 1..8),
        prop::sample::select(vec!["/data/a", "/data/b", "/data/c"]),
        prop::option::of(prop::sample::select(vec!["/data/x", "/data/y"])),
    )
        .prop_map(|(steps, base, join_with)| {
            let mut p = PhysicalPlan::new();
            let mut cur = p.add(PhysicalOp::Load { path: base.to_string() }, vec![]);
            for (kind, col, lit) in steps {
                cur = match kind {
                    0 => p.add(PhysicalOp::Project { cols: vec![0, col] }, vec![cur]),
                    1 => p.add(PhysicalOp::Filter { pred: Expr::col_eq(col, lit) }, vec![cur]),
                    2 => p.add(PhysicalOp::Group { keys: vec![col] }, vec![cur]),
                    3 => p.add(PhysicalOp::Distinct, vec![cur]),
                    4 => p.add(
                        PhysicalOp::MapExpr { exprs: vec![Expr::Col(0), Expr::Lit(lit.into())] },
                        vec![cur],
                    ),
                    _ => p.add(PhysicalOp::Limit { n: (lit.unsigned_abs() % 100) + 1 }, vec![cur]),
                };
            }
            if let Some(other) = join_with {
                let l2 = p.add(PhysicalOp::Load { path: other.to_string() }, vec![]);
                cur = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![cur, l2]);
            }
            p.add(PhysicalOp::Store { path: "/out".to_string() }, vec![cur]);
            p
        })
}

/// `plan` with a transparent `Split` tee spliced in front of the first
/// input of one of its operators (`at` picks which).
fn with_tee(plan: &PhysicalPlan, at: prop::sample::Index) -> PhysicalPlan {
    let mut p = plan.clone();
    let nodes = op_nodes(&p);
    let n = nodes[at.index(nodes.len())];
    let input = p.inputs(n)[0];
    let tee = p.add(PhysicalOp::Split, vec![input]);
    p.node_mut(n).inputs[0] = tee;
    p
}

/// Non-plumbing nodes of a plan.
fn op_nodes(p: &PhysicalPlan) -> Vec<NodeId> {
    p.ids()
        .filter(|&id| {
            !matches!(
                p.op(id),
                PhysicalOp::Load { .. } | PhysicalOp::Store { .. } | PhysicalOp::Split
            )
        })
        .collect()
}

proptest! {
    /// Matching is reflexive: every plan matches itself, at its own tip.
    #[test]
    fn matching_is_reflexive(plan in arb_plan()) {
        let m = pairwise_plan_traversal(&plan, &plan);
        prop_assert!(m.is_some(), "plan must match itself:\n{}", plan.explain());
        // And subsumption is reflexive.
        prop_assert!(subsumes(&plan, &plan));
    }

    /// Every prefix of a plan (a candidate sub-job) is contained in it.
    #[test]
    fn prefixes_always_match(plan in arb_plan(), pick in any::<prop::sample::Index>()) {
        let nodes = op_nodes(&plan);
        let n = nodes[pick.index(nodes.len())];
        let prefix = plan.prefix_plan(n, "/repo/x");
        let m = pairwise_plan_traversal(&prefix, &plan);
        prop_assert!(
            m.is_some(),
            "prefix at {n:?} must match\nprefix:\n{}\nplan:\n{}",
            prefix.explain(),
            plan.explain()
        );
        // The prefix is subsumed by the full plan, never vice versa
        // (unless they are the same plan up to the Store).
        prop_assert!(subsumes(&plan, &prefix));
    }

    /// Rewriting with a matched prefix yields a plan that loads the
    /// stored path and no longer contains the prefix (next scan finds no
    /// second occurrence in linear pipelines).
    #[test]
    fn rewrite_splices_load(plan in arb_plan(), pick in any::<prop::sample::Index>()) {
        let nodes = op_nodes(&plan);
        let n = nodes[pick.index(nodes.len())];
        let prefix = plan.prefix_plan(n, "/repo/x");
        let m = pairwise_plan_traversal(&prefix, &plan).unwrap();
        let mut rewritten = plan.clone();
        restore_core::rewriter::rewrite(&mut rewritten, &m, "/repo/x");
        // The stored path is now loaded.
        let loads_repo = rewritten.loads().iter().any(|&l| {
            matches!(rewritten.op(l), PhysicalOp::Load { path } if path == "/repo/x")
        });
        prop_assert!(loads_repo, "rewritten plan must load the stored output");
        // Same number of Stores (outputs unchanged).
        prop_assert_eq!(rewritten.stores().len(), plan.stores().len());
    }

    /// Plan serialization round-trips: signature-identical plans.
    #[test]
    fn plan_text_round_trips(plan in arb_plan()) {
        let text = encode_plan(&plan);
        let back = decode_plan(&text).unwrap();
        prop_assert_eq!(back.signature(), plan.signature(), "text:\n{}", text);
        prop_assert_eq!(back.len(), plan.len());
    }

    /// The index-routed matcher and the paper's sequential scan return
    /// the same match (or the same miss) on random repositories,
    /// queries, shard counts, and exclude sets — also when a `Split`
    /// tee sits inside the query or a stored plan.
    #[test]
    fn index_agrees_with_scan(
        entries in prop::collection::vec(arb_plan(), 1..8),
        query in arb_plan(),
        pick in any::<prop::sample::Index>(),
        shards in prop::sample::select(vec![1usize, 3, 8]),
        exclude_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        query_tee in prop::option::of(any::<prop::sample::Index>()),
        entry_tee in prop::option::of(any::<prop::sample::Index>()),
    ) {
        use restore_core::{MatchProbe, RepoStats, Repository};
        let repo = Repository::with_shards(shards);
        for (i, plan) in entries.iter().enumerate() {
            // Register prefixes of random plans: realistic sub-job shapes.
            let nodes = op_nodes(plan);
            let n = nodes[pick.index(nodes.len())];
            let mut prefix = plan.prefix_plan(n, &format!("/r/{i}"));
            if let Some(at) = entry_tee {
                prefix = with_tee(&prefix, at);
            }
            let stats = RepoStats {
                input_bytes: 100 + i as u64,
                output_bytes: 10,
                job_time_s: i as f64,
                ..Default::default()
            };
            repo.insert(prefix, format!("/r/{i}"), stats);
        }
        let query = match query_tee {
            Some(at) => with_tee(&query, at),
            None => query,
        };
        let view = repo.view();
        let ids: Vec<u64> = view.entries().iter().map(|e| e.id).collect();
        let exclude: std::collections::HashSet<u64> =
            exclude_picks.iter().map(|p| ids[p.index(ids.len())]).collect();
        let a = view.scan_first_match(&query, &exclude).map(|(id, m)| (id, m.tip));
        let b = view
            .find_first_match(&query, &exclude, &mut MatchProbe::default())
            .map(|(id, m)| (id, m.tip));
        prop_assert_eq!(a, b);
    }

    /// Signatures are structural: a plan equals its own re-built copy and
    /// differs from a plan with one parameter changed.
    #[test]
    fn signatures_detect_single_param_change(plan in arb_plan()) {
        let mut altered = plan.clone();
        // Find a Filter/Project to tweak; skip plans without one.
        let target = altered.ids().find(|&id| {
            matches!(altered.op(id), PhysicalOp::Project { .. })
        });
        if let Some(t) = target {
            if let PhysicalOp::Project { cols } = altered.op(t).clone() {
                let mut cols = cols;
                cols.push(99);
                altered.node_mut(t).op = PhysicalOp::Project { cols };
                prop_assert_ne!(altered.signature(), plan.signature());
            }
        }
    }
}
