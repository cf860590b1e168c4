"""Sorted attribute columns: predicate scans answered from an index.

Every evaluator of the paper starts by selecting the nodes that satisfy a
node predicate ``f_u``, a conjunction of atoms ``A op a`` (Section 2: the
candidate lists of the RQ search, the initial ``mat(u)`` of JoinMatch).
:class:`AttributeColumns` answers that over one positional attribute table,
per attribute built on first use: an equality map ``value -> positions`` and,
per comparability class, the values sorted beside their positions, all
``array('q')``.  Each atom is one candidate bitmap (``=`` a map lookup, an
ordering atom one ``bisect``, ``!=`` "has the attribute" minus the equal rows)
and a conjunction their ``&`` (O'Neil & Quass, SIGMOD 1997).  What a column
cannot decide is checked by ``AtomicCondition.matches`` where its flag is still
set: results are the per-row reference's (``storage.base.scan_nodes``,
compared in ``tests/test_predicates_properties.py``).

An instance is *bound* to one attribute-table version: its holder
(``CompiledGraph``, ``StoreSnapshot``) replaces it — columns, result memo and
all — when ``attrs_version`` moves.  A memo entry is the bitmap of the rows.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.kernels import bitmap
from repro.lru import LruCache


class ScanTally:
    """Lifetime scan counters of one graph, and the lock its scans run under:
    a holder that replaces its :class:`AttributeColumns` hands the tally on,
    and pins of several versions read one object from different threads."""

    __slots__ = ("lock", "memo_hits", "memo_misses", "columns_built", "row_checks")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.memo_hits = self.memo_misses = self.columns_built = self.row_checks = 0


_NONE = array("q")  # no positions: shared, never appended to

#: Exact types whose ``==`` and ``hash`` agree with each other's: what is equal is found by a dict.
_HASH_AGREES = frozenset({bool, int, float, complex, str, bytes, type(None)})


def _regular(value: Any) -> bool:
    """Whether a dict lookup decides ``== value`` as ``==`` does: the value is
    equal to itself (a NaN is found by identity, not equality) and of a builtin
    type, or a tuple of such — another class may equal an ``int`` and hash apart."""
    kind = type(value)
    if kind is tuple:
        return all(map(_regular, value))
    return kind in _HASH_AGREES and value == value


def _bisectable(value: Any) -> bool:
    """Exact builtin types, NaN excepted: ``<`` is a total order (a subclass may override it)."""
    return type(value) in (bool, int, float, str, bytes) and value == value


class _Column:
    """One attribute's index; every position array ascends but ``ordered``'s."""

    __slots__ = ("present", "odd", "equal", "ordered", "loose", "order_class")

    def __init__(self, name: str, rows: Sequence[Mapping[str, Any]], order_class):
        self.order_class = order_class  # ``predicates.order_class``, imported once in ``_found``
        self.present = array("q")  # rows that have the attribute
        self.odd = array("q")  # of those, not ``_regular``: checked per row for every atom
        self.equal: Dict[Any, array] = defaultdict(partial(array, "q"))  # value -> positions
        self.ordered: Dict[type, Tuple[list, array]] = {}  # order class -> (sorted values, positions)
        self.loose: Dict[type, array] = defaultdict(partial(array, "q"))  # order class -> unbisectable
        pairs: Dict[type, List[Tuple[Any, int]]] = defaultdict(list)
        for position, row in enumerate(rows):
            if name not in row:
                continue
            value = row[name]
            self.present.append(position)
            kind = type(value)
            if kind is not str and kind is not int and not _regular(value):
                self.odd.append(position)
            else:
                self.equal[value].append(position)
                if _bisectable(value):
                    pairs[order_class(value)].append((value, position))
                else:
                    self.loose[order_class(value)].append(position)
        for kind, members in pairs.items():
            members.sort()
            self.ordered[kind] = ([v for v, _ in members], array("q", [p for _, p in members]))

    def candidates(self, op: str, value: Any, size: int) -> Tuple[Any, array]:
        """``(rows, unsure)``: a bitmap of rows that may satisfy ``attribute op value``; those unsure."""
        if op == "=" or op == "!=":
            if not _regular(value):
                return bitmap(size, self.present), self.present
            same = self.equal.get(value, _NONE)
            if op == "=":
                return bitmap(size, same + self.odd), self.odd
            return bitmap(size, self.present) - bitmap(size, same), self.odd  # no odd row is in ``equal``
        kind = self.order_class(value)
        values, positions = self.ordered.get(kind, ((), _NONE))
        unsure = self.loose.get(kind, _NONE) + self.odd
        if not _bisectable(value):
            return bitmap(size, positions + unsure), positions + unsure
        cut = (bisect_left if op in ("<", ">=") else bisect_right)(values, value)
        return bitmap(size, (positions[:cut] if op[0] == "<" else positions[cut:]) + unsure), unsure


class _Found:
    """A memo entry: the row bitmap and, once asked for, its tuple and ``(index, translated bitmap)``."""

    __slots__ = ("rows", "positions", "translated")

    def __init__(self, rows):
        self.rows, self.positions, self.translated = rows, None, None  # each published whole


class AttributeColumns:
    """The predicate scans of one attribute-table version: ``rows``, a
    positional sequence of attribute mappings, stands still while it answers."""

    __slots__ = ("_rows", "_columns", "_results", "tally")

    def __init__(self, rows: Sequence[Mapping[str, Any]], tally: Optional[ScanTally] = None):
        self._rows = rows
        self._columns: Dict[str, _Column] = {}
        self._results = LruCache(4096)
        self.tally = ScanTally() if tally is None else tally

    def scan(self, predicate: Any) -> Tuple[int, ...]:
        """Ascending positions of the rows satisfying ``predicate``.  Only
        genuine ``Predicate`` objects are indexed and memoised: ``None`` (every
        row), duck-typed ``matches`` objects and plain callables, of unknown
        semantics, walk the rows in :func:`~repro.storage.base.scan_nodes`."""
        found = self._found(predicate)
        with self.tally.lock:  # one tuple per entry: a memo hit answers the same object
            if found.positions is None:
                found.positions = tuple(found.rows)
        return found.positions

    def scan_bitmap(self, predicate: Any, num_nodes: int, index: Optional[Sequence[int]] = None):
        """:meth:`scan` as the read-only candidate bitmap over ``range(num_nodes)`` of a
        handle space in which position ``p`` is ``index[p]``: the memo's own bitmap for
        ``index=None`` (``p`` itself), else translated once while ``index`` is the same table."""
        found = self._found(predicate)
        if index is None:
            return found.rows
        held = found.translated
        if held is None or held[0] is not index:
            held = found.translated = (index, bitmap(num_nodes, map(index.__getitem__, found.rows)))
        return held[1]

    def _found(self, predicate: Any) -> _Found:
        # Deferred: repro.query pulls in the whole query package; repro.storage imports this module.
        from repro.query.predicates import Predicate, order_class
        from repro.storage.base import scan_nodes

        rows = self._rows
        if not isinstance(predicate, Predicate):
            return _Found(bitmap(len(rows), scan_nodes(predicate, range(len(rows)), rows.__getitem__)))
        with self.tally.lock:
            found = self._results.get(predicate)
            if found is None:
                self.tally.memo_misses += 1
                found = _Found(self._select(predicate.conditions, order_class))
                self._results.put(predicate, found)
            else:
                self.tally.memo_hits += 1
            return found

    def _select(self, conditions, order_class):
        rows, tally, size = self._rows, self.tally, len(self._rows)
        found, doubtful = None if conditions else bitmap(size, range(size)), []  # (atom, its undecided rows)
        for condition in conditions:
            column = self._columns.get(condition.attribute)
            if column is None:
                column = self._columns[condition.attribute] = _Column(condition.attribute, rows, order_class)
                tally.columns_built += 1
            maybe, unsure = column.candidates(condition.op, condition.value, size)
            found = maybe if found is None else found & maybe
            if unsure:
                doubtful.append((condition, unsure))
        # Atom by atom in the predicate's order, on rows every earlier atom accepted (a row that
        # fails is cleared): only comparisons the per-row reference makes, so it raises only where that does.
        flags = found.flags
        for condition, unsure in doubtful:
            for position in unsure:
                if flags[position]:
                    tally.row_checks += 1
                    flags[position] = condition.matches(rows[position])
        return found
