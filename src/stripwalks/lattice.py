"""Core geometric types: strips, lattice walks, and count tables.

A walk is stored as its explicit point sequence (not as step letters) because
every classification predicate in the package -- bridge-ness, half-space-ness,
span, decomposition cuts -- reads coordinates directly.  All types here are
immutable value types and safe to share between threads.

The value types of the whole package derive from the private base
``_Frozen``.  Each lists its fields in ``__slots__``, in order, and is built
in one of three ways:

* a plain record, which checks nothing, uses the base constructor: one value
  per field, in order, and a one-line ``TypeError`` for any other number;
* a checked type (``StripGeometry``, ``Walk``, ``CountTable``,
  ``IntPolynomial``, ``RationalGF``) has its own ``__init__``, which sets
  each field once with ``_set_field``;
* the two hot builds, ``decompose_bridge`` and ``hw_decompose``,
  ``_trusted_walk`` below and ``genfunc._trusted_poly``, through which the
  polynomial kernels build their ``int`` results, call no ``__init__``: they
  take ``_new_instance`` and set the fields with ``_set_field``.

The base gives field-wise equality and hashing, the ``Name(field=value,
...)`` repr, an ``AttributeError`` on assignment and deletion, and a
``__reduce__`` that calls the class again on the field values, so copies and
pickles are built and checked like any other instance.  The base is a few
plain methods rather than ``dataclasses``, whose import (it pulls in
``inspect``, ``ast`` and ``dis``) and code generation took most of
``import stripwalks``.

Which walks are validated: ``Walk(...)`` and ``Walk.from_steps`` run the
checks of ``Walk.__post_init__``, which ``Walk.__init__`` calls: the points
are tuples of two ``int`` (not ``bool``), start at the origin, move by unit
steps and never repeat.  So every walk built from outside data, and every
image of a map the paper defines (``hw_reflect`` and the width-4
transformation), passes that check.  The transformation's mirror step swaps
U and D in the factor's step string and builds no walk; only the image is
built, and validated.  Two kinds of walk are valid by construction and are
built by the private ``_trusted_walk`` without the check: the prefixes of the
depth-first search in ``iter_walks`` (unit steps from the origin, each point
tested against the set of visited points) and the translated contiguous
slices of an already valid walk (the factors of ``decompose_bridge``).
Factors are interned: each is built once per distinct segment and shared
between decompositions, which is safe since every type here is frozen.  The
test suite checks that rebuilding any of them with ``Walk(...)`` gives an
equal walk.

The package has one integer check, ``_check_int`` below.  It refuses a
non-``int``, ``bool`` included, with ``TypeError: {name} must be an int, got
{value!r}``, and, when it is given a least value, a smaller one with
``ValueError: {name} must be >= {least}, got {value}``.  Every public entry
point that takes an integer calls it on that argument once, before any cache
lookup or work: the count functions, ``count_irreducible``, ``iter_walks``,
``bridge_span_table`` and ``count_bridges_by_span`` of :mod:`enumeration`,
``IntPolynomial.unshift``, ``IntPolynomial.coefficient``,
``RationalGF.series``, the coefficients of ``IntPolynomial`` and its
``from_coefficients``, and the width of the bridge-code compositions of
:mod:`genfunc`, the integer parameters of
:mod:`bounds`, and here the rows of ``StripGeometry``, its ``shift_origin``
and ``mirror_line``, and the counts and index of ``CountTable``.

Conventions used throughout the package:

* every walk starts at the origin ``(0, 0)``;
* the *length* of a walk is its number of steps (points minus one);
* the single-point walk of length 0 counts as a self-avoiding walk, a bridge
  and a half-space walk (this makes the constant term of every counting
  series equal to 1);
* coordinates are machine integers, counts are exact unbounded integers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Point = tuple[int, int]

# Step alphabet for the canonical text encoding of walks, e.g. "RRU".
STEP_DELTAS: dict[str, Point] = {
    "R": (1, 0),
    "L": (-1, 0),
    "U": (0, 1),
    "D": (0, -1),
}
_DELTA_STEPS = {v: k for k, v in STEP_DELTAS.items()}

# Irreducible-bridge type labels: first letter = start line, second = end
# line, with O for an outer line of the strip and I for an inner one.
BRIDGE_TYPES = ("OO", "OI", "IO", "II")


_new_instance = object.__new__
_set_field = object.__setattr__


def _check_int(name: str, value: int, least: int | None = None) -> None:
    """Refuse a non-``int`` (``bool`` included) and, when ``least`` is given,
    a smaller value, naming the caller's parameter and the value.

    A cached entry point runs it before its cache lookup: ``True == 1`` with
    the same hash, so a ``bool`` would get the cached result for 1.
    """
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


class _Frozen:
    """Base of the package's immutable value types; see the module docstring.

    A subclass names its fields, in order, in ``__slots__``.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        """Set the fields named in ``__slots__`` to ``values``, in order."""
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, not {len(values)}")
        for name, value in zip(names, values):
            _set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values())


class StripGeometry(_Frozen):
    """The lattice strip Z x {y_min .. y_max}.

    The rows are integers (not ``bool``), and the origin row 0 must belong to
    the strip because all walks start there.
    """

    __slots__ = ("y_min", "y_max")

    def __init__(self, y_min: int, y_max: int) -> None:
        _check_int("y_min", y_min)
        _check_int("y_max", y_max)
        if not (y_min <= 0 <= y_max):
            raise ValueError(f"strip [{y_min}, {y_max}] must contain the origin row 0")
        _set_field(self, "y_min", y_min)
        _set_field(self, "y_max", y_max)

    @property
    def width(self) -> int:
        return self.y_max - self.y_min + 1

    @property
    def outer_lines(self) -> tuple[int, int]:
        """The two boundary rows of the strip."""
        return (self.y_min, self.y_max)

    def shift_origin(self, line: int) -> "StripGeometry":
        """The same strip in coordinates where row ``line`` becomes row 0.

        Used to enumerate walks that conceptually start on ``line`` while
        keeping the walk convention of starting at the origin.
        """
        _check_int("line", line)
        if not (self.y_min <= line <= self.y_max):
            raise ValueError(f"line {line} is not a row of the strip")
        return StripGeometry(self.y_min - line, self.y_max - line)

    def mirror_line(self, y: int) -> int:
        """The image of row ``y`` under the strip's vertical mirror symmetry."""
        _check_int("y", y)
        return self.y_min + self.y_max - y


class Walk(_Frozen):
    """A self-avoiding walk on the square lattice, starting at the origin.

    ``points`` is stored as a tuple, whatever iterable it was given as.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable[Point]) -> None:
        _set_field(self, "points", tuple(points))
        self.__post_init__()

    def __post_init__(self) -> None:
        """The walk checks, kept as their own method so that a wrapper set on
        it sees every validated walk."""
        pts = self.points
        if not pts:
            raise ValueError("a walk has at least one point")
        if pts[0] != (0, 0):
            raise ValueError(f"walks start at (0, 0), got {pts[0]}")
        # (0, -1) is one unit step from the origin, so point 0 passes the step
        # test and is checked as a pair of integers like every other point.
        px, py = 0, -1
        try:
            for i, p in enumerate(pts):
                x, y = p
                if type(p) is not tuple or type(x) is not int or type(y) is not int:
                    raise TypeError
                if abs(x - px) + abs(y - py) != 1:
                    break
                px, py = x, y
            else:
                i = 0
        except (TypeError, ValueError):
            raise ValueError(f"point {i} is {pts[i]!r}, not an (x, y) pair of integers") from None
        if i:
            raise ValueError(f"step {i} from {pts[i-1]} to {pts[i]} is not a unit step")
        if len(set(pts)) != len(pts):
            raise ValueError("walk visits a point twice")

    @classmethod
    def from_steps(cls, steps: str) -> "Walk":
        """Build a walk from its step string over the alphabet R/L/U/D."""
        x, y = 0, 0
        pts = [(0, 0)]
        for i, s in enumerate(steps):
            try:
                dx, dy = STEP_DELTAS[s]
            except KeyError:
                raise ValueError(f"unknown step letter {s!r} at position {i}") from None
            x, y = x + dx, y + dy
            pts.append((x, y))
        return cls(pts)

    def steps(self) -> str:
        """The canonical step-string encoding of the walk."""
        out = []
        for i in range(1, len(self.points)):
            dx = self.points[i][0] - self.points[i - 1][0]
            dy = self.points[i][1] - self.points[i - 1][1]
            out.append(_DELTA_STEPS[(dx, dy)])
        return "".join(out)

    @property
    def length(self) -> int:
        """Number of steps."""
        return len(self.points) - 1

    @property
    def end(self) -> Point:
        return self.points[-1]

    def span(self) -> int:
        xs = [p[0] for p in self.points]
        return max(xs) - min(xs)


def _trusted_walk(points: tuple[Point, ...]) -> Walk:
    """A ``Walk`` on ``points`` without ``Walk.__init__`` and its checks.

    Only for point sequences that are self-avoiding unit-step walks from the
    origin by construction; see the module docstring for the two callers.
    """
    walk = _new_instance(Walk)
    _set_field(walk, "points", points)
    return walk


def is_bridge(walk: Walk) -> bool:
    """True iff every point after the first satisfies x_0 < x_j <= x_n."""
    xs = [p[0] for p in walk.points]
    xn = xs[-1]
    return all(0 < x <= xn for x in xs[1:])


def is_half_space(walk: Walk) -> bool:
    """True iff every point after the first lies strictly right of column 0.

    The length-0 walk is a half-space walk by convention.
    """
    return all(p[0] > 0 for p in walk.points[1:])


class CountTable(_Frozen):
    """Exact counts indexed by walk length, for 0 <= n <= n_max.

    ``counts`` is stored as a tuple, whatever iterable it was given as.  Each
    count is an ``int`` (not ``bool``), as the rows of ``StripGeometry`` are.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Iterable[int]) -> None:
        counts = tuple(counts)
        if not counts:
            raise ValueError("a count table covers at least length 0")
        for n, c in enumerate(counts):
            if type(c) is not int or c < 0:
                _check_int(f"count {n}", c, 0)
        _set_field(self, "counts", counts)

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        _check_int("n", n)
        if not (0 <= n <= self.n_max):
            raise KeyError(f"length {n} outside table range 0..{self.n_max}")
        return self.counts[n]

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(enumerate(self.counts))

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines += [f"{n},{c}" for n, c in self.items()]
        return "\n".join(lines) + "\n"
