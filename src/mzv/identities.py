"""Closed-form identity families for nested harmonic sums.

Every emitter returns an Identity holding two combinations of equal value.
The domain-splitting families (reflection, permutation) and the shuffle
families (shuffle, leftward partial integration and trailing-one, all the
shuffle product of the algebra module) take signed exponents.  The
rightward families (rightward partial integration, partial-int-2 and
partial-int-3) are the diagrams module's rightward sweep on the chord reading
of the seashell, or on reduce's reading for partial-int-3 rightward; these
take unsigned exponents.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from . import diagrams
from .algebra import (
    ZetaCombination,
    _add,
    _of,
    _shuffle,
    combination_from_json,
    eliminate_divergent,
    shuffle,
    stuffle,
    zeta,
)
from .compositions import Composition, as_composition, composition


@dataclass(frozen=True, eq=False)
class Identity:
    """An equation lhs = rhs between combinations of nested sums."""

    family: str
    parameters: dict
    lhs: ZetaCombination
    rhs: ZetaCombination
    # a divergent factor on a side; identity_from_json counts it as written
    regularized: bool = None

    def __post_init__(self):
        if self.regularized is None:
            object.__setattr__(self, "regularized",
                               self.lhs.regularized or self.rhs.regularized)

    @property
    def combination(self) -> ZetaCombination:
        """lhs - rhs; the combination a checker should find to be zero."""
        return self.lhs - self.rhs

    @property
    def weight(self):
        return self.lhs.weight

    def __str__(self):
        return "%s  =  %s" % (self.lhs, self.rhs)

    def to_json(self):
        return {
            "family": self.family,
            "parameters": self.parameters,
            "weight": self.weight,
            "regularized": self.regularized,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }


# --- domain-splitting families ---------------------------------------------

def reflection(a: int, b: int) -> Identity:
    """zeta(a) zeta(b) split by which of the two indices is larger: the
    depth-1 case of the permutation identity."""
    return dataclasses.replace(
        permutation_identity((a,), (b,)),
        family="reflection",
        parameters={"a": a, "b": b},
    )


def _product_identity(family, product, left, right) -> Identity:
    """zeta(left) zeta(right) = product(left, right), stuffle or shuffle."""
    left = as_composition(left)
    right = as_composition(right)
    return Identity(
        family=family,
        parameters={"left": left.to_json(), "right": right.to_json()},
        lhs=zeta(left) * zeta(right),
        rhs=product(left, right),
    )


def permutation_identity(left, right) -> Identity:
    """The quasi-shuffle product of two nested sums of any depth."""
    return _product_identity("permutation", stuffle, left, right)


def three_point_identity(a: int, b: int, c: int) -> Identity:
    """Weight-(a+b+c) relation from moving two ordering kernels off the root.

    Built by applying the three-point rewrite at the root of the depth-3
    ladder diagram and evaluating each structural piece exactly.
    """
    for v in (a, b, c):
        if v < 1:
            raise ValueError("exponents must be >= 1")
    d = diagrams.build_seashell((a, b, c))
    acc = {}
    for coeff, piece in diagrams.rewrite_three_point(d, d.root):
        val = diagrams.reduce(piece, strategy="structural")
        _add(acc, val._coeffs.items(), coeff)
    return Identity(
        family="three-point",
        parameters={"a": a, "b": b, "c": c},
        lhs=zeta(a, b, c),
        rhs=_of(acc),
    )


def shuffle_identity(left, right) -> Identity:
    """zeta(left) zeta(right) expanded into single nested sums by repeated
    partial integration of a double-branch diagram."""
    return _product_identity("shuffle", shuffle, left, right)


# --- partial integration, generic depth ------------------------------------

def _rightward_general_rhs(ks) -> ZetaCombination:
    """Expansion of zeta(ks) that trades the innermost exponent outward: the
    rightward diagram sweep on the chord reading of the seashell of ks, cycle
    (k_1..k_(m-1), 0) and chords (0, ..., 0, k_m)."""
    return diagrams._rightward_terms(
        ks[:-1] + (0,), (0,) * (len(ks) - 2) + (ks[-1],))


def partial_integration(ks, variant: str = "rightward") -> Identity:
    """Generic-depth partial integration, stated raw.

    rightward: zeta(ks) equals an expansion whose product block may carry
    zeta(1) factors; leftward: zeta(k1) zeta(k2..km) equals its shuffle
    product.  Divergent pieces are kept; eliminate_divergent takes the
    stuffle regularization, T^0 coefficient, of the combination for a finite
    statement (verify_identity refuses a term with two divergent factors).
    """
    c = as_composition(ks)
    ks = c.to_json()
    if len(ks) < 2:
        raise ValueError("partial integration needs depth >= 2")
    if variant == "rightward":
        if c.signs is not None:
            raise ValueError(
                "rightward partial integration takes unsigned exponents")
        lhs = zeta(c)
        rhs = _rightward_general_rhs(c.parts)
    elif variant == "leftward":
        head, tail = composition(ks[0]), composition(*ks[1:])
        lhs = zeta(head) * zeta(tail)
        rhs = shuffle(head, tail)
    else:
        raise ValueError("variant must be rightward or leftward")
    return Identity(
        family="partial-int",
        parameters={"exponents": ks, "variant": variant},
        lhs=lhs,
        rhs=rhs,
    )


def partial_integration_cross_check(ks) -> ZetaCombination:
    """Substitute leftward expansions into the rightward identity.

    Every two-factor product in the rightward expansion of zeta(ks) is an
    instance of the leftward left-hand side; replacing each by its shuffle
    product must cancel everything.  Returns the residual (empty when the
    rightward expansion and the shuffle recursion agree).
    """
    c = as_composition(ks)
    if c.depth < 2:
        raise ValueError("cross check needs depth >= 2")
    acc = {}
    for k, v in partial_integration(c, "rightward").combination._coeffs.items():
        if len(k) == 1:
            acc[k] = acc.get(k, 0) + v
            continue
        if len(k) != 2:
            raise ValueError("unexpected factor count in %s" % _of({k: v}))
        head, tail = k if k[0][1] == 1 else k[::-1]  # depth-1 factor first
        if head[1] != 1:
            raise ValueError("no single-sum factor in %s" % _of({k: v}))
        _add(acc, _shuffle(head, tail).items(), v)
    return _of(acc)


# --- partial integration, fixed depth, finite forms ------------------------

def partial_integration_length2(a: int, b: int) -> Identity:
    """zeta(a, b) expressed through depth-2 sums with swapped weight and
    single-zeta products; the divergent pieces cancel exactly."""
    if a < 2 or b < 1:
        raise ValueError("needs a >= 2, b >= 1")
    return Identity(
        family="partial-int-2",
        parameters={"a": a, "b": b},
        lhs=zeta(a, b),
        rhs=eliminate_divergent(_rightward_general_rhs((a, b))),
    )


def partial_integration_length3(a: int, b: int, c: int,
                                variant: str = "rightward") -> Identity:
    """zeta(a, b, c) through depth <= 3 sums and products: the rightward
    sweep on the seashell of (a, b, c), divergent pieces eliminated.
    "rightward" takes reduce's reading (c on the cycle), "alternative" the
    chord reading (c on the last chord); their right-hand sides differ.
    """
    if a < 2 or b < 1 or c < 1:
        raise ValueError("needs a >= 2, b >= 1, c >= 1")
    if variant == "rightward":
        rhs = diagrams._rightward_terms((a, b, c), (0, 0))
    elif variant == "alternative":
        rhs = _rightward_general_rhs((a, b, c))
    else:
        raise ValueError("variant must be rightward or alternative")
    return Identity(
        family="partial-int-3",
        parameters={"a": a, "b": b, "c": c, "variant": variant},
        lhs=zeta(a, b, c),
        rhs=eliminate_divergent(rhs),
    )


def trailing_one(x) -> Identity:
    """Finite form for a sum whose innermost exponent is 1.

    Hoffman's relation: the stuffle and the shuffle product of zeta(1) and
    zeta(x) agree, so their difference is solved for the trailing-one term;
    the single divergent piece cancels between them.
    """
    x = as_composition(x)
    if not x.admissible:
        raise ValueError("base composition must be admissible")
    target = composition(*x.to_json(), 1)
    z = stuffle(Composition((1,)), x) - shuffle((1,), x)
    rest = dict(z._coeffs)
    coeff = rest.pop((target.sort_key,), 0)
    if coeff == 0:
        raise ValueError("solve for the trailing-one term is degenerate")
    rhs = _of(rest).scaled(Fraction(-1) / coeff)
    return Identity(
        family="trailing-one",
        parameters={"exponents": x.to_json()},
        lhs=zeta(target),
        rhs=rhs,
    )


# --- family catalog ---------------------------------------------------------

# family -> (emitter, integer arguments?, argument count, variants); the
# first variant is the default, and a family without variants refuses one
FAMILIES = {
    "reflection": (reflection, True, 2, ()),
    "permutation": (permutation_identity, False, 2, ()),
    "three-point": (three_point_identity, True, 3, ()),
    "partial-int-2": (partial_integration_length2, True, 2, ()),
    "partial-int-3": (partial_integration_length3, True, 3,
                      ("rightward", "alternative")),
    "partial-int": (partial_integration, False, 1, ("rightward", "leftward")),
    "trailing-one": (trailing_one, False, 1, ()),
    "shuffle": (shuffle_identity, False, 2, ()),
}


def derive(family: str, args, variant: str = None) -> Identity:
    """Dispatch to an identity family by name with string arguments."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r (have: %s)"
                         % (family, ", ".join(sorted(FAMILIES))))
    emit, integers, count, variants = FAMILIES[family]
    args = list(args)
    if len(args) != count:
        what = ("%d integer arguments" % count if integers
                else ("one composition", "two compositions")[count - 1])
        raise ValueError("%s takes %s" % (family, what))
    if integers:
        args = [int(a) for a in args]
    if variants:
        args.append(variant or variants[0])
    elif variant:
        raise ValueError("%s takes no variant" % family)
    return emit(*args)


def identity_from_json(obj) -> Identity:
    """Rebuild an Identity from its to_json form."""
    missing = [k for k in ("family", "lhs", "rhs") if k not in obj]
    if missing and "diagram" in obj and "value" in obj:
        raise TypeError("a reduce output holds a diagram and its value, not "
                        "the lhs and rhs of an identity")
    if missing:
        raise TypeError("missing identity keys: %s" % ", ".join(missing))
    return Identity(
        family=obj["family"],
        parameters=obj.get("parameters", {}),
        lhs=combination_from_json(obj["lhs"]),
        rhs=combination_from_json(obj["rhs"]),
        # a factor written with a leading unsigned 1 diverges
        regularized=any(f[0] == 1 for side in ("lhs", "rhs")
                        for t in obj[side] for f in t["factors"]),
    )
