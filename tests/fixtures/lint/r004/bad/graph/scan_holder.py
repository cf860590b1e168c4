"""R004 fixture: a holder that keeps its predicate scans for ever, although
they index the attribute rows as they were when it was built."""


class Scans:
    def __init__(self, rows):
        self.rows = rows
        self.results = {}

    def scan(self, predicate):
        if predicate not in self.results:
            self.results[predicate] = [i for i, row in enumerate(self.rows) if predicate(row)]
        return self.results[predicate]


class ScanHolder:
    def __init__(self, graph):
        self.graph = graph
        self._scan_cache = Scans(graph.rows())

    def matching(self, predicate):
        # An attribute update since construction is invisible here.
        return self._scan_cache.scan(predicate)
