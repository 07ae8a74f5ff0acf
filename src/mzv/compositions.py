"""Exponent compositions for nested harmonic sums.

A composition (k1,...,km) stands for the sum over n1 > n2 > ... > nm >= 1 of
prod_i sigma_i^(n_i) / n_i^(k_i), with the outermost index first.  Signs are
optional; the unsigned case is the classical multiple zeta value.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Composition:
    """An ordered tuple of positive integer exponents with optional signs.

    ``signs`` is None for the all-plus case, otherwise a tuple of +-1 of the
    same length as ``parts``.  Instances are immutable and hashable so they
    can be used as factor keys in linear combinations.
    """

    parts: tuple[int, ...] = field(compare=False)
    signs: tuple[int, ...] | None = field(default=None, compare=False)
    sort_key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        parts = tuple(map(int, self.parts))
        if not parts:
            raise ValueError("empty composition")
        if min(parts) < 1:
            raise ValueError("parts must be positive integers: %r" % (parts,))
        signs = self.signs
        if signs is not None:
            signs = tuple(map(int, signs))
            if len(signs) != len(parts):
                raise ValueError("signs length mismatch")
            if not {1, -1}.issuperset(signs):
                raise ValueError("signs must be +-1")
            if -1 not in signs:
                signs = None
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "sort_key", sort_key(parts, signs))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def admissible(self) -> bool:
        """True when the defining sum converges.

        The unsigned sum diverges exactly when the leading exponent is 1; a
        leading sign of -1 makes the alternating sum converge for any k1 >= 1.
        """
        if self.parts[0] >= 2:
            return True
        return self.signs is not None and self.signs[0] == -1

    def sign(self, i: int) -> int:
        return 1 if self.signs is None else self.signs[i]

    def __str__(self):
        return ",".join(
            str(p * self.sign(i)) for i, p in enumerate(self.parts)
        )

    def zeta_str(self) -> str:
        return "ζ(%s)" % str(self)

    def to_json(self) -> list[int]:
        return [p * self.sign(i) for i, p in enumerate(self.parts)]


def sort_key(parts: tuple, signs: tuple | None = None) -> tuple:
    """Composition.sort_key, the canonical order: weight, depth, parts, then
    signs (all +1 when None); for parts known to be positive ints."""
    return (sum(parts), len(parts), parts, signs or (1,) * len(parts))


def composition(*parts: int) -> Composition:
    """Build a Composition from signed integers (-k means sign -1, exponent k)."""
    ps = []
    ss = []
    for p in parts:
        p = int(p)
        if p == 0:
            raise ValueError("parts must be nonzero")
        ps.append(abs(p))
        ss.append(1 if p > 0 else -1)
    return Composition(tuple(ps), tuple(ss))


def parse_composition(text: str) -> Composition:
    """Parse "3,1" or "2,-1" into a Composition."""
    items = [t.strip() for t in text.split(",")]
    if not items or any(not t for t in items):
        raise ValueError("malformed composition: %r" % text)
    try:
        return composition(*(int(t) for t in items))
    except ValueError as exc:
        raise ValueError("malformed composition: %r (%s)" % (text, exc)) from None


def as_composition(x) -> Composition:
    """A Composition as it is, a string parsed, or a sequence of signed ints."""
    if isinstance(x, Composition):
        return x
    if isinstance(x, str):
        return parse_composition(x)
    return composition(*x)


def json_ints(items) -> tuple[int, ...]:
    """The items of a JSON array, which must be integers: a float, a string
    or a bool raises TypeError instead of being read as an integer."""
    items = tuple(items)
    for x in items:
        if type(x) is not int:
            raise TypeError("expected an integer, got %r" % (x,))
    return items


def composition_from_json(obj) -> Composition:
    return composition(*json_ints(obj))


def to_word(c: Composition) -> tuple[int, ...]:
    """Word of a composition: part i becomes 0^(k_i - 1) b_i, with
    b_i = sigma_1 ... sigma_i, so the sum is the iterated integral over
    [0, 1] of the forms dt/t (letter 0) and dt/(b - t) (letter b)."""
    word = []
    b = 1
    for i, k in enumerate(c.parts):
        b *= c.sign(i)
        word.extend([0] * (k - 1))
        word.append(b)
    return tuple(word)


def iter_admissible(max_weight: int, min_depth: int = 1):
    """Yield all unsigned admissible compositions of weight <= max_weight.

    Compositions are produced in canonical order (by weight, then depth,
    then parts).  The first part is always >= 2; later parts are >= 1.
    """
    found = []
    for weight in range(2, max_weight + 1):
        stack = [((first,), weight - first) for first in range(2, weight + 1)]
        while stack:
            parts, rest = stack.pop()
            if rest == 0:
                found.append(Composition(parts))
                continue
            for nxt in range(1, rest + 1):
                stack.append((parts + (nxt,), rest - nxt))
    found.sort(key=lambda c: c.sort_key)
    for c in found:
        if c.depth >= min_depth:
            yield c
