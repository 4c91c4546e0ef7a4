"""Quantifier-prefix classification.

The decidable fragments are exists-only, forall-only, and exists-then-
forall.  A forall followed anywhere by an exists is flagged as such so
callers can refuse it; longer alternation chains starting with exists get
their own class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WellFormednessError
from .syntax import EXISTS, FORALL, HyperFormula


class FragmentClass:
    __slots__ = ()


@dataclass(frozen=True)
class ExistsStar(FragmentClass):
    n: int

    name = "exists-star"


@dataclass(frozen=True)
class ForallStar(FragmentClass):
    m: int

    name = "forall-star"


@dataclass(frozen=True)
class ExistsForall(FragmentClass):
    n: int
    m: int

    name = "exists-forall"


@dataclass(frozen=True)
class ForallExists(FragmentClass):
    """position: index in the prefix of the first forall with a later exists."""

    position: int

    name = "forall-exists"


@dataclass(frozen=True)
class MultiAlternation(FragmentClass):
    """position: index where the second quantifier alternation starts."""

    position: int

    name = "multi-alternation"


def classify(formula: HyperFormula) -> FragmentClass:
    prefix = formula.prefix
    if not prefix:
        raise WellFormednessError("cannot classify an empty quantifier prefix")

    runs = []  # condensed prefix: (quantifier, count) per maximal block
    for quant, _ in prefix:
        if runs and runs[-1][0] == quant:
            runs[-1][1] += 1
        else:
            runs.append([quant, 1])

    if prefix[0][0] == FORALL and len(runs) > 1:
        return ForallExists(0)  # the second run is an exists
    if len(runs) > 2:
        # starts with exists and alternates at least twice
        return MultiAlternation(runs[0][1] + runs[1][1])
    if len(runs) == 1:
        if runs[0][0] == EXISTS:
            return ExistsStar(runs[0][1])
        return ForallStar(runs[0][1])
    return ExistsForall(runs[0][1], runs[1][1])
