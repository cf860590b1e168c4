"""R004 fixture: predicate scans bound to one attribute-table version; the
holder replaces them — index, results and all — when ``attrs_version`` moves."""


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
        self._scanned_at = graph.attrs_version
        self._scan_cache = Scans(graph.rows())

    def matching(self, predicate):
        current = self.graph.attrs_version
        if current != self._scanned_at:
            self._scan_cache = Scans(self.graph.rows())
            self._scanned_at = current
        return self._scan_cache.scan(predicate)
