"""Permutations of [n], extremal block constructions, and closed forms.

Permutations are stored in one-line notation: ``values[i]`` is the image of
position ``i + 1``.  Positions and values are 1-based at the boundary (text
and JSON formats, reported results) and 0-based in internal loops.

The two families built here are the conjectured minimizers of the number of
monotone (k+1)-subsequences: stacked increasing blocks of near-equal size,
and the exceptional mixed-type family that, for sufficiently large k (the
paper's range), is needed only at n = k^2 + k + 1.  At small k other mixed
minimizers exist too: at k = 2 they appear at n = 8, 9 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from .errors import ValidationError


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {1, ..., n} in one-line notation."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n < 1:
            raise ValidationError("permutation must have length >= 1")
        seen = [False] * (n + 1)
        for v in self.values:
            # type(v) is int, unlike isinstance, rejects bool values.
            if type(v) is not int or not 1 <= v <= n or seen[v]:
                raise ValidationError(f"values are not a bijection on [{n}]: {self.values}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.values)

    def reverse(self) -> "Permutation":
        """Flip positions: position i takes the old value at n+1-i."""
        return Permutation(self.values[::-1])

    def complement(self) -> "Permutation":
        """Flip values: every value v becomes n+1-v."""
        n = self.n
        return Permutation(tuple(n + 1 - v for v in self.values))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.values):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.values)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "values": list(self.values)}

    def __str__(self) -> str:
        return self.to_line()


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def parse_permutation(text: str) -> Permutation:
    """Parse the one-line text format: space-separated values."""
    try:
        values = tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValidationError(f"not a permutation line: {text!r}") from exc
    return Permutation(values)


def permutation_from_json(data) -> Permutation:
    if not isinstance(data, dict) or not isinstance(data.get("values"), list):
        raise ValidationError('permutation JSON must be {"n": int, "values": [...]}')
    p = Permutation(tuple(data["values"]))
    if "n" in data and data["n"] != p.n:
        raise ValidationError(f'stated n={data["n"]} but values has length {p.n}')
    return p


def build_tau(k: int, n: int) -> Permutation:
    """Stacked increasing blocks, top block first.

    Block j (for j = k down to 1) is the increasing run
    floor((j-1)n/k)+1, ..., floor(jn/k).  The result has no decreasing
    subsequence of length k+1 and is the conjectured minimizer of the
    monotone (k+1)-subsequence count.

    >>> build_tau(3, 13).to_line()
    '9 10 11 12 13 5 6 7 8 1 2 3 4'
    """
    if k < 1 or n < 1:
        raise ValidationError("build_tau requires k >= 1 and n >= 1")
    k = min(k, n)  # for k >= n every block is one value or empty: n, ..., 1
    values: list[int] = []
    for j in range(k, 0, -1):
        values.extend(range((j - 1) * n // k + 1, j * n // k + 1))
    return Permutation(tuple(values))


def build_sigma_extremal(k: int, variant: int) -> Permutation:
    """The mixed-type extremal permutation of [k^2 + k + 1].

    Materializes the row template literally: a top row of k+2 values
    followed by k-1 rows of k+1 values, each row a small "head" value and
    an increasing run.  The middle-row arithmetic is the unique filling
    consistent with the published endpoints; the count signature
    (2k+1-variant increasing, variant decreasing) is enforced by tests
    rather than assumed.

    >>> build_sigma_extremal(3, 1).to_line()
    '10 6 11 12 13 2 7 8 9 1 3 4 5'
    >>> build_sigma_extremal(3, 2).to_line()
    '10 6 11 12 13 3 7 8 9 1 2 4 5'
    """
    if variant not in (1, 2):
        raise ValidationError("variant must be 1 or 2")
    if k < 2:
        raise ValidationError("build_sigma_extremal requires k >= 2")

    def run_start(m: int) -> int:
        # m-th middle row counted from the bottom, m = 1 .. k-1.
        return (m - 1) * (k + 1) + k + 4

    def head(m: int) -> int:
        return 1 + variant if m == 1 else run_start(m - 1) - 1

    rows: list[list[int]] = []
    top = [k * k + 1, head(k - 1)] + list(range(run_start(k - 1), run_start(k - 1) + k))
    rows.append(top)
    for m in range(k - 2, 0, -1):
        rows.append([head(m)] + list(range(run_start(m), run_start(m) + k)))
    rows.append([1, 4 - variant] + list(range(4, k + 3)))
    values = tuple(v for row in rows for v in row)
    return Permutation(values)


def m_tau_formula(k: int, n: int) -> int:
    """Exact monotone (k+1)-subsequence count of the stacked-block permutation.

    Equals r*C(ceil(n/k), k+1) + (k-r)*C(floor(n/k), k+1) with r = n mod k:
    the blocks are the only monotone runs, so only within-block increasing
    subsequences contribute.
    """
    if k < 1 or n < 1:
        raise ValidationError("m_tau_formula requires k >= 1 and n >= 1")
    r = n % k
    return r * comb(-(-n // k), k + 1) + (k - r) * comb(n // k, k + 1)


@dataclass(frozen=True)
class ParamSplit:
    """The unique split n = q*(k+ell+1) + (k-q)*(k+ell) with 0 < q <= k.

    ``subcritical`` flags n <= k^2, where ell goes negative and the
    supercritical formulas no longer apply.
    """

    k: int
    n: int
    ell: int
    q: int
    r: int
    subcritical: bool

    def __post_init__(self):
        if self.n != self.q * (self.k + self.ell + 1) + (self.k - self.q) * (self.k + self.ell):
            raise ValidationError("split identity violated")
        if not (0 < self.q <= self.k and 0 <= self.r < self.k and self.r == self.n % self.k):
            raise ValidationError("split ranges violated")


def param_split(k: int, n: int) -> ParamSplit:
    """Compute ell = ceil(n/k) - k - 1, q = n - k(k+ell), r = n mod k.

    For n <= k^2 the same algebra is returned with the subcritical flag set
    instead of erroring, so callers can degrade gracefully.
    """
    if k < 1 or n < 1:
        raise ValidationError("param_split requires k >= 1 and n >= 1")
    ell = -(-n // k) - k - 1
    q = n - k * (k + ell)
    return ParamSplit(k=k, n=n, ell=ell, q=q, r=n % k, subcritical=n <= k * k)


def delta_formula(k: int, n: int) -> int:
    """The one-step increment C(k+ell, k) of the block-count formula.

    Only stated in the supercritical regime, so n <= k^2 is rejected.
    """
    if k < 1 or n < 1:
        raise ValidationError("delta_formula requires k >= 1 and n >= 1")
    if n <= k * k:
        raise ValidationError(f"delta_formula needs n > k^2 (got n={n}, k={k})")
    split = param_split(k, n)
    return comb(k + split.ell, k)


def symmetries(p: Permutation) -> frozenset[Permutation]:
    """Orbit of p under reverse, complement, and inverse.

    The three generators commute up to exchange (inverse conjugates reverse
    into complement), so the group has order eight and every orbit size
    divides 8.
    """
    return frozenset(Permutation(w) for w in _orbit_words(p.values))


def _orbit_words(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(values)
    rev = values[::-1]
    comp = tuple(n + 1 - v for v in values)
    revcomp = comp[::-1]
    out = [values, rev, comp, revcomp]
    for w in list(out):
        inv = [0] * n
        for i, v in enumerate(w):
            inv[v - 1] = i + 1
        out.append(tuple(inv))
    return out


def canonical_form(values: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least member of the symmetry orbit."""
    return min(_orbit_words(values))


def mu(k: int, n: int, m: int) -> Fraction:
    """Normalized density m / C(n, k+1) as an exact rational."""
    if n < k + 1:
        raise ValidationError("mu requires n >= k+1")
    return Fraction(m, comb(n, k + 1))
