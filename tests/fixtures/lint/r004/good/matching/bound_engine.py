"""R004 fixture: a memo bound to one immutable snapshot; the owner replaces
the holder when the snapshot it was built over is no longer the current one."""


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
        base = self.store.base()
        engine = self._engine
        if engine is None or engine.compiled is not base:
            engine = self._engine = SnapshotEngine(base)
        return engine
