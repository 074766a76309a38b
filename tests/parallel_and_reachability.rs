//! Cross-crate equivalence for the reachability-index baseline (approach 3 of
//! the paper's introduction) against the automaton baseline.

use pathix::baselines::{evaluate_automaton, evaluate_reachability};
use pathix::datagen::{barabasi_albert, paper_example_graph};
use pathix::rpq::parse;
use pathix::{Graph, NodeId};

fn sorted(mut pairs: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[test]
fn reachability_baseline_agrees_with_the_automaton_on_supported_queries() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("paper_example", paper_example_graph()),
        ("barabasi_albert", barabasi_albert(120, 3, &["a", "b"], 13)),
    ];
    for (name, graph) in &graphs {
        let labels: Vec<String> = graph.label_names().iter().map(|s| s.to_string()).collect();
        let l0 = &labels[0];
        let l1 = labels.get(1).cloned().unwrap_or_else(|| l0.clone());
        let queries = [
            format!("{l0}*"),
            format!("{l0}+"),
            format!("({l0}|{l1})*"),
            format!("{l1}/{l0}*"),
        ];
        for query in &queries {
            let expr = parse(query).unwrap().bind(graph).unwrap();
            let via_reach = evaluate_reachability(graph, &expr)
                .unwrap_or_else(|| panic!("{query} should be in the restricted fragment"));
            let via_automaton = sorted(evaluate_automaton(graph, &expr));
            assert_eq!(
                sorted(via_reach),
                via_automaton,
                "dataset {name}, query {query}"
            );
        }
    }
}

#[test]
fn reachability_baseline_rejects_general_rpqs() {
    let graph = paper_example_graph();
    for query in [
        "knows{2,4}",
        "(knows/worksFor)*",
        "knows/(knows|worksFor/knows)*",
    ] {
        let expr = parse(query).unwrap().bind(&graph).unwrap();
        assert!(
            evaluate_reachability(&graph, &expr).is_none(),
            "query {query} is outside approach (3)'s fragment and must be rejected"
        );
    }
}
