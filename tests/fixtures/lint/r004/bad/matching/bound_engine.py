"""R004 fixture: a memo bound to one snapshot whose owner never checks it."""


class SnapshotEngine:
    def __init__(self, compiled):
        self.compiled = compiled
        self._expansion_cache = {}

    def expand(self, index):
        if index not in self._expansion_cache:
            self._expansion_cache[index] = self.compiled.neighbors(index)
        return self._expansion_cache[index]


class Owner:
    def __init__(self, store):
        self.store = store
        self._engine = None

    def engine(self):
        # Built once and reused for ever: after the store swaps its base the
        # engine still answers from memos of the old one.
        if self._engine is None:
            self._engine = SnapshotEngine(self.store.base())
        return self._engine
