"""R006 fixture: an evaluator that picks its own engine path by name."""


def evaluate_general_rq(query, graph, engine="auto"):
    if engine in ("auto", "csr"):
        return graph.compiled().product(query)
    return graph.walk(query)
