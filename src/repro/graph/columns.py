"""Sorted attribute columns: predicate scans answered from an index.

Every evaluator of the paper starts by selecting the nodes that satisfy a
node predicate ``f_u``, a conjunction of atoms ``A op a`` (Section 2: the
candidate lists of the RQ search, the initial ``mat(u)`` of JoinMatch).
:class:`AttributeColumns` answers that over one positional attribute table,
per attribute built on first use: per comparability class, the values
``<`` orders sorted beside their positions (``array('q')``), and a map
``value -> positions`` for the few regular values it cannot order (tuples,
``None``, complex numbers).  Each atom is one candidate bitmap (``=`` the
bisect range of the constant in every class that can hold an equal value,
an ordering atom one ``bisect``, ``!=`` "has the attribute" minus the equal
rows) and a conjunction their ``&`` (O'Neil & Quass, SIGMOD 1997).  What a column
cannot decide is checked by ``AtomicCondition.matches`` where its flag is still
set: results are the per-row reference's (``storage.base.scan_nodes``,
compared in ``tests/test_predicates_properties.py``).

An instance is *bound* to one attribute-table version: it is the scans of
one :class:`AttributeTable`, the graph's table of one ``attrs_version``
(``DataGraph.attribute_table``), which every reader of that version shares —
the CSR base, the live overlay store and each pin — and which the graph
replaces, columns, result memo and all, when ``attrs_version`` moves.  A memo
entry is the bitmap of the rows.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import partial
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.kernels import bitmap
from repro.lru import LruCache


class ScanTally:
    """Lifetime scan counters of one graph, and the lock its scans run under:
    each :class:`AttributeTable` hands the tally on to the next version's,
    and pins of several versions read one object from different threads."""

    __slots__ = ("lock", "memo_hits", "memo_misses", "columns_built", "row_checks", "tables_built")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.memo_hits = self.memo_misses = self.columns_built = self.row_checks = self.tables_built = 0


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


#: The order class (``predicates.order_class``) of each type whose values ``<`` orders totally.
_RUN_CLASS = {bool: bool, int: float, float: float, str: str, bytes: bytes}

#: Per such type, the order classes whose sorted runs can hold a value equal to one of it.
_EQUAL_RUNS = {bool: (float, bool), int: (float, bool), float: (float, bool), str: (str,), bytes: (bytes,)}


def _bisectable(value: Any) -> bool:
    """Exact builtin types, NaN excepted: ``<`` is a total order (a subclass may override it)."""
    return type(value) in _RUN_CLASS and value == value


class _Column:
    """One attribute's index; every position array ascends but ``ordered``'s."""

    __slots__ = ("present", "odd", "equal", "ordered", "loose", "order_class")

    def __init__(self, name: str, rows: Sequence[Mapping[str, Any]], order_class):
        self.order_class = order_class  # ``predicates.order_class``, imported once in ``_found``
        self.present = array("q")  # rows that have the attribute
        self.odd = array("q")  # of those, not ``_regular``: checked per row for every atom
        self.equal: Dict[Any, array] = defaultdict(partial(array, "q"))  # unbisectable value -> positions
        self.ordered: Dict[type, Tuple[tuple, array]] = {}  # order class -> (sorted values, positions)
        self.loose: Dict[type, array] = defaultdict(partial(array, "q"))  # order class -> unbisectable
        # Parallel value / position runs per order class, ordered by one key sort
        # over their indices: stable, so equal values keep ascending positions.
        # The values are kept as a tuple, which the collector stops tracking.
        runs: Dict[type, list] = defaultdict(list)
        run_positions: Dict[type, array] = defaultdict(partial(array, "q"))
        for position, row in enumerate(rows):
            if name not in row:
                continue
            value = row[name]
            self.present.append(position)
            kind = _RUN_CLASS.get(type(value))
            if kind is not None and value == value:
                runs[kind].append(value)
                run_positions[kind].append(position)
            elif _regular(value):
                self.equal[value].append(position)
                self.loose[order_class(value)].append(position)
            else:
                self.odd.append(position)
        for kind, values in runs.items():
            order = sorted(range(len(values)), key=values.__getitem__)
            self.ordered[kind] = (
                tuple(map(values.__getitem__, order)),
                array("q", map(run_positions[kind].__getitem__, order)),
            )

    def _equal_rows(self, value: Any) -> array:
        """Positions of the regular values ``== value``, a regular constant: its
        bisect range in every class that can hold an equal value (a number's
        equals are floats, ints and bools, and a complex number's with no
        imaginary part its real part's), and the unbisectable values equal to it."""
        same = self.equal.get(value, _NONE)
        if type(value) is complex and not value.imag:
            value = value.real
        for kind in _EQUAL_RUNS.get(type(value), ()):
            values, positions = self.ordered.get(kind, ((), _NONE))
            same = same + positions[bisect_left(values, value):bisect_right(values, value)]
        return same

    def candidates(self, op: str, value: Any, size: int) -> Tuple[Any, array]:
        """``(rows, unsure)``: a bitmap of rows that may satisfy ``attribute op value``; those unsure."""
        if op == "=" or op == "!=":
            if not _regular(value):
                return bitmap(size, self.present), self.present
            same = self._equal_rows(value)
            if op == "=":
                return bitmap(size, same + self.odd), self.odd
            return bitmap(size, self.present) - bitmap(size, same), self.odd  # no odd row is in ``same``
        kind = self.order_class(value)
        values, positions = self.ordered.get(kind, ((), _NONE))
        unsure = self.loose.get(kind, _NONE) + self.odd
        if not _bisectable(value):
            return bitmap(size, positions + unsure), positions + unsure
        cut = (bisect_left if op in ("<", ">=") else bisect_right)(values, value)
        return bitmap(size, (positions[:cut] if op[0] == "<" else positions[cut:]) + unsure), unsure


class _Found:
    """A memo entry: the row bitmap and, once asked for, its tuple."""

    __slots__ = ("rows", "positions")

    def __init__(self, rows):
        self.rows, self.positions = rows, None  # each published whole


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

    def scan_bitmap(self, predicate: Any):
        """:meth:`scan` as the read-only candidate bitmap of the row positions:
        the memo's own object."""
        return self._found(predicate).rows

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


class AttributeTable:
    """One version of a graph's attribute table ``f_A``: ``rows`` (node id ->
    read-only row, in node order), ``ids`` in that order, the graph's
    :class:`ScanTally`, and :attr:`scans` over the rows, built on first ask.

    Rows are copy-on-write (``DataGraph.add_node`` replaces a row and never
    edits it), so a table holds references only and stands still while the
    graph moves on: a pin reads its version's table as it is, with no copy.
    """

    __slots__ = ("version", "rows", "ids", "tally", "_scans")

    def __init__(self, version: int, rows: Mapping[Hashable, Mapping[str, Any]],
                 tally: Optional[ScanTally] = None):
        self.version = version
        self.rows = dict(rows)
        self.ids = tuple(self.rows)
        self.tally = ScanTally() if tally is None else tally
        self.tally.tables_built += 1
        self._scans = None

    @property
    def scans(self) -> AttributeColumns:
        """The predicate scans of this version (pins read them from several threads)."""
        scans = self._scans
        if scans is None:
            with self.tally.lock:
                if self._scans is None:
                    self._scans = AttributeColumns(tuple(self.rows.values()), self.tally)
                scans = self._scans
        return scans
