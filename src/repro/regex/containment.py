"""Language containment for F-class regular expressions.

Proposition 3.3 of the paper shows that for the restricted class ``F``,
containment ``L(f1) ⊆ L(f2)`` can be decided by a single linear scan of the
two expressions.  We provide:

* :func:`syntactic_contains` — the linear scan of the paper's proof.  It is
  *sound* (never claims containment that does not hold) and complete for the
  cases the proof enumerates (per-position colour compatibility plus bound
  comparison over runs of identically-coloured atoms).
* :func:`language_contains` — the decision used throughout the library.  It
  first runs the linear scan and, only when that scan cannot certify
  containment, falls back to an exact automaton-product check
  (:func:`repro.regex.nfa.nfa_language_contains`).  For query-sized
  expressions both paths are effectively instantaneous.
* :func:`language_equal` — mutual containment.

Decisions are memoised behind a bounded LRU: the containment tables of
``pq_contained_in``, ``minPQs`` and the semantic result cache re-decide the
same expression pairs over and over, and the answer for a pair never changes.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lru import LruCache
from repro.regex.fclass import FRegex
from repro.regex.nfa import nfa_language_contains
from repro.session.defaults import LANGUAGE_CONTAINMENT_CACHE_CAPACITY

_INF = float("inf")

_containment_memo = LruCache(LANGUAGE_CONTAINMENT_CACHE_CAPACITY)
_containment_lock = threading.Lock()


def language_containment_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the bounded ``language_contains`` memo."""
    with _containment_lock:
        return {
            "hits": _containment_memo.hits,
            "misses": _containment_memo.misses,
            "size": len(_containment_memo),
            "capacity": _containment_memo.capacity,
        }


def clear_language_containment_cache() -> None:
    """Drop every memoised containment decision (counters reset too)."""
    with _containment_lock:
        _containment_memo.clear()


def _bound(value: Optional[int]) -> float:
    """Numeric upper bound of an atom (``+`` is treated as infinity)."""
    return _INF if value is None else float(value)


def _runs(smaller: FRegex, larger: FRegex) -> List[Tuple[float, float]]:
    """Group consecutive positions whose (colour, colour) pair repeats.

    Within such a run the block boundaries are interchangeable, so the sound
    comparison is between the *sums* of the upper bounds (paper case (a));
    across runs the boundaries are forced and per-run comparison suffices.
    """
    runs: List[Tuple[float, float]] = []
    previous_key = None
    for small_atom, large_atom in zip(smaller.atoms, larger.atoms):
        key = (small_atom.color, large_atom.color)
        if key == previous_key:
            sum_small, sum_large = runs[-1]
            runs[-1] = (sum_small + _bound(small_atom.max_count),
                        sum_large + _bound(large_atom.max_count))
        else:
            runs.append((_bound(small_atom.max_count), _bound(large_atom.max_count)))
            previous_key = key
    return runs


def syntactic_contains(smaller: FRegex, larger: FRegex) -> bool:
    """Linear-time scan deciding ``L(smaller) ⊆ L(larger)`` (sound check).

    Requirements checked, following the proof of Proposition 3.3:

    1. both expressions have the same number of atoms;
    2. position by position, the colour of ``larger`` either equals the colour
       of ``smaller`` or is the wildcard;
    3. for every maximal run of positions with identical colour pairs, the sum
       of upper bounds in ``smaller`` does not exceed the sum in ``larger``
       (``+`` counts as infinity).
    """
    if smaller.num_atoms != larger.num_atoms:
        return False
    for small_atom, large_atom in zip(smaller.atoms, larger.atoms):
        if not large_atom.is_wildcard and large_atom.color != small_atom.color:
            return False
    for sum_small, sum_large in _runs(smaller, larger):
        if sum_small > sum_large:
            return False
    return True


def language_contains(
    smaller: FRegex, larger: FRegex, alphabet: Optional[Iterable[str]] = None
) -> bool:
    """Decide ``L(smaller) ⊆ L(larger)`` exactly (memoised).

    The fast syntactic scan is attempted first; a negative answer from the
    scan is re-checked with the exact automaton product, so the final answer
    is always exact.  Decisions are cached in a bounded LRU keyed on the two
    expressions (plus the alphabet, when one is supplied — wildcard
    containment can depend on it).
    """
    key = (
        smaller,
        larger,
        None if alphabet is None else frozenset(alphabet),
    )
    with _containment_lock:
        cached = _containment_memo.get(key)
    if cached is not None:
        return cached
    if syntactic_contains(smaller, larger):
        answer = True
    else:
        answer = nfa_language_contains(
            smaller, larger, None if key[2] is None else key[2]
        )
    with _containment_lock:
        _containment_memo.put(key, answer)
    return answer


def language_equal(
    first: FRegex, second: FRegex, alphabet: Optional[Iterable[str]] = None
) -> bool:
    """Decide ``L(first) = L(second)`` (mutual containment)."""
    return language_contains(first, second, alphabet) and language_contains(
        second, first, alphabet
    )
