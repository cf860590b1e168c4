"""R006 fixture: the same evaluator reading through a matcher, engine-free."""


def evaluate_general_rq(query, graph, matcher):
    sources = matcher.matching_nodes(query.source_predicate)
    targets = matcher.matching_nodes(query.target_predicate)
    return matcher.product_pairs(query.regex, sources, targets)
