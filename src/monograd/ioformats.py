"""JSON serialization for ideals and graphs.

Ideal documents: {"n": int, "gens": [...]} where each generator is either
an exponent list of length n or a string like "x1^2*x3" (1-based, '^' for
exponents, '*' between factors, exponent 1 omitted).  Graph documents:
{"n": int, "edges": [[i, j], ...]} with 1-based vertices.
"""

from __future__ import annotations

import json
import re
from typing import List, Tuple, Union

from .errors import DomainError
from .graphs import SimpleGraph
from .monomials import Monomial, MonomialIdeal

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _is_int(x) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def _check_n(n) -> int:
    if not _is_int(n) or n < 0:
        raise DomainError("'n' must be a nonnegative integer")
    return n


def _check_list(doc: dict, key: str) -> list:
    items = doc[key]
    if not isinstance(items, (list, tuple)):
        raise DomainError(f"'{key}' must be a list")
    return items


def parse_monomial_string(s: str, n: int) -> Monomial:
    s = s.strip()
    if s in ("1", ""):
        return (0,) * n
    exps = [0] * n
    for factor in s.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise DomainError(f"malformed monomial factor: {factor!r}")
        i = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if not 1 <= i <= n:
            raise DomainError(f"variable x{i} out of range 1..{n}")
        exps[i - 1] += e
    return tuple(exps)


def parse_generators(doc: Union[str, dict]) -> Tuple[int, List[Monomial]]:
    """(n, raw generators) of a JSON ideal document (string or parsed
    dict), validated but not minimalized."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "n" not in doc or "gens" not in doc:
        raise DomainError("ideal document must have 'n' and 'gens'")
    n = _check_n(doc["n"])
    gens = []
    for g in _check_list(doc, "gens"):
        if isinstance(g, str):
            gens.append(parse_monomial_string(g, n))
        elif isinstance(g, (list, tuple)):
            if len(g) != n:
                raise DomainError(f"exponent list {list(g)} has length "
                                  f"{len(g)}, expected {n}")
            if not all(_is_int(e) and e >= 0 for e in g):
                raise DomainError(f"negative or non-integer exponent in {list(g)}")
            gens.append(tuple(g))
        else:
            raise DomainError(f"generator {g!r} is neither an exponent list "
                              "nor a string")
    return n, gens


def parse_ideal(doc: Union[str, dict]) -> MonomialIdeal:
    """MonomialIdeal from a JSON document (string or parsed dict)."""
    return MonomialIdeal(*parse_generators(doc))


def serialize_ideal(I: MonomialIdeal) -> dict:
    return {"n": I.n, "gens": [list(u) for u in I.gens]}


def ideal_to_json(I: MonomialIdeal) -> str:
    return json.dumps(serialize_ideal(I), sort_keys=True)


def parse_graph(doc: Union[str, dict]) -> SimpleGraph:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise DomainError("graph document must have 'n' and 'edges'")
    n = _check_n(doc["n"])
    edges = []
    for e in _check_list(doc, "edges"):
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(_is_int(v) for v in e)):
            raise DomainError(f"edge {e!r} is not a pair of vertices")
        edges.append(tuple(e))
    return SimpleGraph(n, edges)


def serialize_graph(G: SimpleGraph) -> dict:
    return {"n": G.n, "edges": [list(e) for e in G.edge_pairs()]}
