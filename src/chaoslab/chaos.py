"""Finite-dimensional isonormal Gaussian calculus.

The isonormal process is realized on R^d by mapping the i-th basis vector to
an independent standard Gaussian coordinate.  The order-n integral of a
symmetric tensor A evaluates as a Hermite-polynomial sum over multi-indices.
Products of such integrals expand into lower-order integrals by folding the
two-factor product formula

    W_p(f) W_q(g) = sum_r r! C(p, r) C(q, r) W_{p+q-2r}(f (x)~_r g)

(Nualart, *The Malliavin Calculus and Related Topics*, Prop. 1.1.3) over the
factors from left to right; the sum over admissible pair sets of the
contraction operator is the same expansion and serves as its test reference.
A brute-force Isserlis oracle, coded independently of the expansion path,
supplies exact expectations for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .tensors import SymTensor, contract, inner, symmetrize

__all__ = [
    "hermite_he",
    "hermite_he_coefficients",
    "philox_stream",
    "wick_eval",
    "wick_eval_batch",
    "wick_eval_rank_one_sum",
    "ChaosExpansion",
    "expand_product",
    "moment_oracle",
    "covariance_identity_residual",
    "hypercontractivity_check",
    "gebelein_bound_check",
]

DEFAULT_EXPANSION_CAP = 12
DEFAULT_ORACLE_CAP = 20
GEBELEIN_NORMALIZATION_TOL = 1e-9  # allowed |h_xi|^2, |h_eta|^4 deviation from 1/2


# -- Hermite polynomials (probabilists') ------------------------------------


def hermite_he(n, x):
    """He_n(x); vectorized in ``x``."""
    return _hermite_table(n, x)[n]


def _hermite_table(n_max, x):
    """Stacked He_0..He_n_max of ``x`` by the three-term recurrence; shape
    (n_max + 1,) + x.shape."""
    if n_max < 0:
        raise ValueError(f"n must be nonnegative, got {n_max}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = x
    for k in range(1, n_max):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


@lru_cache(maxsize=None)
def hermite_he_coefficients(n):
    """Monomial coefficients of He_n as exact integers, low degree first: x^(n-2k)
    has (-1)^k n! / (k! (n - 2k)! 2^k), the explicit sum, not the recurrence
    that ``_hermite_table`` runs."""
    f, coefficients = math.factorial, [0] * (n + 1)
    for k in range(n // 2 + 1):
        coefficients[n - 2 * k] = (-1) ** k * f(n) // (f(k) * f(n - 2 * k) * 2**k)
    return tuple(coefficients)


# -- seeds -------------------------------------------------------------------


def _philox_key(seed, stream):
    """Philox key of (seed, stream), one 64-bit word each; no two keys alias."""
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ValueError(f"Philox seed and stream must lie in [0, 2^64), got seed {seed}, stream {stream}")
    return np.array([seed, stream], dtype=np.uint64)


def philox_stream(seed, stream=0):
    """Counter-based generator; (seed, stream) fully determines the draw."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


# -- Wick evaluation ---------------------------------------------------------


@lru_cache(maxsize=512)
def _multiplicity_classes(order, dim):
    """Class labels of the d^n multi-indices and per-class coordinate counts.

    ``class_id[flat]`` groups multi-indices that are rearrangements of each
    other, numbered in the lexicographic order of the sorted multi-index;
    ``mult[c, coord]`` counts how often ``coord`` occurs in class c.
    """
    if order == 0:
        return np.zeros(1, dtype=np.intp), np.zeros((1, dim), dtype=np.intp)
    idx = np.indices((dim,) * order, dtype=np.min_scalar_type(dim - 1)).reshape(order, -1)
    idx.sort(axis=0)
    # each sorted multi-index as a base-dim integer (below d^n), so that one
    # 1-D unique numbers the classes in lexicographic order
    code = np.zeros(idx.shape[1], dtype=np.int64)
    for slot in idx:
        code *= dim
        code += slot
    uniq, class_id = np.unique(code, return_inverse=True)
    digits = uniq[:, None] // dim ** np.arange(order - 1, -1, -1, dtype=np.int64) % dim
    mult = np.stack([(digits == c).sum(axis=1) for c in range(dim)], axis=1)
    return class_id.astype(np.intp), mult.astype(np.intp)


def _class_sums(a):
    class_id, mult = _multiplicity_classes(a.order, a.dim)
    sums = np.bincount(class_id, weights=a.entries.ravel(order="C"), minlength=mult.shape[0])
    return sums, mult


def wick_eval(a, xi):
    """Evaluate the order-n integral of ``a`` at a coordinate realization.

    Sums A_i * prod_c He_{m_c(i)}(xi_c) over multi-indices i, with m_c(i) the
    multiplicity of coordinate c in i.  The rule depends only on the
    symmetrization of ``a``, matching the integral's invariance.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.size != a.dim:
        raise ValueError(f"seed dim {xi.size} != tensor dim {a.dim}")
    if a.order == 0:
        return a.item()
    sums, mult = _class_sums(a)
    table = _hermite_table(a.order, xi)  # (order+1, dim)
    prods = np.prod(table[mult, np.arange(a.dim)[None, :]], axis=1)
    return float(sums @ prods)


def wick_eval_batch(a, xis):
    """Vectorized ``wick_eval`` over rows of ``xis`` (shape (num, dim))."""
    xis = np.asarray(xis, dtype=float)
    if xis.ndim == 1:
        xis = xis[None, :]
    return _wick_eval_rows(a, xis, _hermite_table(a.order, xis))


def _wick_eval_rows(a, xis, table):
    """``wick_eval_batch`` of ``a`` at the rows of the 2-D ``xis``, reading
    He_k from ``table``, their ``_hermite_table`` at any degree >= a.order:
    rows 0..n of the recurrence are the same floats at every top degree."""
    if xis.shape[1] != a.dim:
        raise ValueError(f"seed dim {xis.shape[1]} != tensor dim {a.dim}")
    if a.order == 0:
        return np.full(xis.shape[0], a.item())
    sums, mult = _class_sums(a)
    prods = np.ones((mult.shape[0], xis.shape[0]))
    for coord in range(a.dim):
        prods *= table[mult[:, coord], :, coord]
    return sums @ prods


def wick_eval_rank_one_sum(weights, vectors, n, xi):
    """Evaluate the order-n integral of sum_u w_u v_u^{(x) n} directly.

    Uses W_n(v^{(x)n}) = |v|^n He_n(<v, xi>/|v|); zero vectors contribute 0.
    Matches ``wick_eval`` on the assembled dense tensor.
    """
    xi = np.asarray(xi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != weights.size:
        raise ValueError("vectors must be (len(weights), dim)")
    norms = np.linalg.norm(vectors, axis=1)
    live = norms > 0
    if not np.any(live):
        return 0.0
    z = (vectors[live] @ xi) / norms[live]
    return float(np.sum(weights[live] * norms[live] ** n * hermite_he(n, z)))


# -- product expansion -------------------------------------------------------


@dataclass
class ChaosExpansion:
    """Expansion of a product of integrals into per-degree tensors."""

    terms: dict
    lengths: tuple

    def __post_init__(self):
        n_total = sum(self.lengths)
        for degree in self.terms:
            if degree % 2 != n_total % 2:
                raise ValueError(f"degree {degree} has wrong parity for N = {n_total}")

    def degree0(self):
        """Constant (expectation) term; 0 when absent."""
        term = self.terms.get(0)
        return 0.0 if term is None else term.item()

    def evaluate_batch(self, xis):
        """Sum of the terms' ``wick_eval_batch``, in term order, from one
        Hermite table at the top degree."""
        xis = np.asarray(xis, dtype=float)
        out = np.zeros(xis.shape[0] if xis.ndim == 2 else 1)
        if xis.ndim == 1:
            xis = xis[None, :]
        table = _hermite_table(max((t.order for t in self.terms.values()), default=0), xis)
        for t in self.terms.values():
            out = out + _wick_eval_rows(t, xis, table)
        return out

    def to_dict(self):
        return {
            "lengths": list(self.lengths),
            "terms": {str(k): v.to_dict() for k, v in sorted(self.terms.items())},
        }

    @classmethod
    def from_dict(cls, obj):
        terms = {int(k): SymTensor.from_dict(v) for k, v in obj["terms"].items()}
        return cls(terms=terms, lengths=tuple(obj["lengths"]))


def expand_product(tensors):
    """Expand a product of multiple integrals into single integrals.

    Folds the factors from left to right with the two-factor product formula

        W_p(f) W_q(g) = sum_{r=0}^{min(p, q)} r! C(p, r) C(q, r) W_{p+q-2r}(f (x)~_r g)

    for symmetric f, g, where f (x)~_r g is the symmetrized contraction of r
    slots (Nualart, *The Malliavin Calculus and Related Topics*, Prop. 1.1.3).
    Each factor is symmetrized first, which leaves its integral unchanged.
    The result has one symmetric tensor per degree and equals the sum over
    admissible pair sets V of the V-contractions grouped by N - 2|V|, the
    reference the tests compare against.  The pointwise identity

        prod_i wick_eval(A_i, xi) == sum_m wick_eval(terms[m], xi)

    holds for every realization xi.  The total order is capped at
    DEFAULT_EXPANSION_CAP.
    """
    if len(tensors) < 2:
        raise ValueError("need at least two factors")
    dims = {t.dim for t in tensors}
    if len(dims) != 1:
        raise ValueError(f"mixed dims {sorted(dims)}")
    if any(t.order < 1 for t in tensors):
        raise ValueError("factors must have order >= 1")
    lengths = tuple(t.order for t in tensors)
    n_total = sum(lengths)
    if n_total > DEFAULT_EXPANSION_CAP:
        raise ValueError(f"total order {n_total} exceeds cap {DEFAULT_EXPANSION_CAP}")
    dim = tensors[0].dim
    first, *rest = [symmetrize(t) for t in tensors]
    terms = {first.order: first}
    for b in rest:
        q = b.order
        acc = {}
        for p, a in terms.items():
            for r in range(min(p, q) + 1):
                weight = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
                piece = weight * contract(a, b, r).entries
                degree = p + q - 2 * r
                acc[degree] = acc[degree] + piece if degree in acc else piece
        # the sums are fresh arrays (numpy scalars at degree 0) that nothing
        # else holds, so they are wrapped without SymTensor's copy
        terms = {m: symmetrize(SymTensor._wrap(np.asarray(e), dim, False)) for m, e in acc.items()}
    return ChaosExpansion(terms=terms, lengths=lengths)


# -- Isserlis oracle ----------------------------------------------------------
#
# Independent route: expand every integral into ordinary monomials of the
# Gaussian coordinates via exact Hermite coefficients, multiply the
# polynomials, and take expectations monomial-wise, prod_c (p_c - 1)!! (Isserlis).
# No pair-set enumeration or tensor contraction is involved.
#
# A monomial is keyed by one integer: the exponent of coordinate c is digit c
# in a base above the total order, so no digit carries and the key of a
# product of monomials is the sum of their keys.


# Monomials each of the two caches below keeps: far above a criterion-1 deck's
# working set (20 decks meet about 730 keys and 350 power tuples), and bounded,
# so that a long run does not keep every monomial it ever met.
MONOMIAL_CACHE_SIZE = 2**14


@lru_cache(maxsize=MONOMIAL_CACHE_SIZE)
def _gaussian_monomial_expectation(powers):
    """E prod_c xi_c^{p_c} for independent standard Gaussians: prod_c (p_c - 1)!!,
    or 0 if some p_c is odd.  The float product runs from the last coordinate's
    factor 1 up to the first's p_0 - 1, the order in which pairing the first
    factor recursively would multiply, so products past 2^53 round alike."""
    if any(p % 2 for p in powers):
        return 0.0
    product = 1.0
    for p in reversed(powers):
        for k in range(1, p, 2):
            product *= k
    return product


@lru_cache(maxsize=MONOMIAL_CACHE_SIZE)
def _monomial_key_expectation(key, base, dim):
    """``_gaussian_monomial_expectation`` of the monomial with this key."""
    return _gaussian_monomial_expectation(tuple(key // base**c % base for c in range(dim)))


@lru_cache(maxsize=None)
def _hermite_key_steps(m, place):
    """(key step, coefficient) of the nonzero monomials of He_m in the
    coordinate whose digit has value ``place``, low degree first."""
    return tuple((power * place, hc) for power, hc in enumerate(hermite_he_coefficients(m)) if hc != 0)


def _wick_polynomial(a, base):
    """Ordinary-monomial expansion of the integral of ``a``.

    Returns a dict mapping monomial keys in ``base`` to coefficients.
    """
    if a.order == 0:
        return {0: a.item()}
    sums, mult = _class_sums(a)
    places = [base**c for c in range(a.dim)]
    poly = {}
    for coeff, counts in zip(sums.tolist(), mult.tolist()):
        if coeff == 0.0:
            continue
        partial = {0: coeff}
        for place, m in zip(places, counts):
            if m == 0:
                continue
            steps = _hermite_key_steps(m, place)
            nxt = {}
            for expo, c in partial.items():
                for step, hc in steps:
                    key = expo + step
                    nxt[key] = nxt.get(key, 0.0) + c * hc
            partial = nxt
        for key, c in partial.items():
            poly[key] = poly.get(key, 0.0) + c
    return poly


def _poly_product(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = e1 + e2
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def moment_oracle(tensors, max_total_order=DEFAULT_ORACLE_CAP):
    """E of a product of multiple integrals, without the expansion formula.

    Exact up to float rounding; the monomial expansion is exponential in the
    total order, hence the cap.
    """
    tensors = list(tensors)
    if not tensors:
        raise ValueError("need at least one factor")
    dims = {t.dim for t in tensors}
    if len(dims) != 1:
        raise ValueError(f"mixed dims {sorted(dims)}")
    n_total = sum(t.order for t in tensors)
    if n_total > max_total_order:
        raise ValueError(f"total order {n_total} exceeds oracle cap {max_total_order}")
    base, dim = n_total + 1, tensors[0].dim
    poly = _wick_polynomial(tensors[0], base)
    for t in tensors[1:]:
        poly = _poly_product(poly, _wick_polynomial(t, base))
    return float(
        sum(c * _monomial_key_expectation(key, base, dim) for key, c in poly.items())
    )


def covariance_identity_residual(a, b):
    """|E[W_n(A) W_n(B)] - n! <sym A, sym B>| via the oracle."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    lhs = moment_oracle([a, b])
    rhs = math.factorial(a.order) * inner(symmetrize(a), symmetrize(b))
    return abs(lhs - rhs)


# -- statistical checks -------------------------------------------------------


@dataclass
class HypercontractivityReport:
    """Monte-Carlo check of the chaos moment-equivalence inequality."""

    q: float
    chaos_order: int
    samples: int
    seed: int
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    passed: bool
    generator: str = "philox"


def hypercontractivity_check(a, q, samples=100_000, seed=0):
    """Estimate both sides of E|Z|^q <= n^{q/2} (q-1)^{qn/2} (E Z^2)^{q/2}.

    Z is the integral of ``a``; both sides are Monte-Carlo estimates with
    standard errors (delta method on the right-hand side), and the contract
    is LHS <= RHS + 3 combined standard errors.
    """
    if q <= 2:
        raise ValueError(f"q must exceed 2, got {q}")
    n = a.order
    rng = philox_stream(seed)
    xis = rng.standard_normal((samples, a.dim))
    z = wick_eval_batch(a, xis)
    abs_q = np.abs(z) ** q
    lhs = float(abs_q.mean())
    lhs_se = float(abs_q.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    z2 = z**2
    m2 = float(z2.mean())
    m2_se = float(z2.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    const = n ** (q / 2) * (q - 1) ** (q * n / 2)
    if m2 > 0:
        rhs = const * m2 ** (q / 2)
        rhs_se = const * (q / 2) * m2 ** (q / 2 - 1) * m2_se
    else:
        rhs, rhs_se = 0.0, 0.0
    passed = lhs <= rhs + 3.0 * (lhs_se + rhs_se)
    return HypercontractivityReport(
        q=q,
        chaos_order=n,
        samples=samples,
        seed=seed,
        lhs=lhs,
        lhs_se=lhs_se,
        rhs=rhs,
        rhs_se=rhs_se,
        passed=passed,
    )


@dataclass
class GebeleinReport:
    """Oracle check of the conditional-correlation bound in chaos 2."""

    lhs: float
    rhs: float
    slack: float
    rho: float
    e_xi_sq: float
    e_eta_sq: float
    centered_coefficients: list = field(default_factory=list)


def gebelein_bound_check(h_xi, h_eta, g_coefficients):
    """Verify |E xi g(eta)| <= |rho| (E xi^2)^1/2 (E g(eta)^2)^1/2 exactly.

    xi is the order-2 integral of ``h_xi`` and eta the order-2 integral of
    the rank-one square of the vector ``h_eta``; g is a polynomial, centered
    here so that E g(eta) = 0.  Normalizations |h_xi|^2 = 1/2 and
    |h_eta|^4 = 1/2 (unit variances) are required.  All moments come from
    the Isserlis oracle.
    """
    if h_xi.order != 2:
        raise ValueError("h_xi must have order 2")
    h_eta = np.asarray(h_eta, dtype=float)
    if h_eta.ndim != 1 or h_eta.size != h_xi.dim:
        raise ValueError("h_eta must be a vector of the same dim as h_xi")
    nxi = float(np.vdot(h_xi.entries, h_xi.entries))
    neta = float(np.vdot(h_eta, h_eta)) ** 2
    if abs(nxi - 0.5) > GEBELEIN_NORMALIZATION_TOL or abs(neta - 0.5) > GEBELEIN_NORMALIZATION_TOL:
        raise ValueError(
            f"normalization violated: |h_xi|^2 = {nxi}, |h_eta|^4 = {neta} (need 1/2)"
        )
    coeffs = [float(c) for c in g_coefficients]
    dim = h_xi.dim
    hh = SymTensor(np.multiply.outer(h_eta, h_eta), dim=dim, symmetric=True)

    def e_eta_pow(k):
        return 1.0 if k == 0 else moment_oracle([hh] * k, max_total_order=64)

    def e_xi_eta_pow(k):
        return moment_oracle([h_xi] + [hh] * k, max_total_order=64)

    mean_g = sum(c * e_eta_pow(k) for k, c in enumerate(coeffs))
    centered = list(coeffs)
    centered[0] -= mean_g
    lhs = abs(sum(c * e_xi_eta_pow(k) for k, c in enumerate(centered)))
    e_g_sq = sum(
        c1 * c2 * e_eta_pow(k1 + k2)
        for k1, c1 in enumerate(centered)
        for k2, c2 in enumerate(centered)
    )
    e_g_sq = max(e_g_sq, 0.0)
    e_xi_sq = moment_oracle([h_xi, h_xi])
    e_eta_sq = moment_oracle([hh, hh])
    rho = e_xi_eta_pow(1) / math.sqrt(e_xi_sq * e_eta_sq)
    rhs = abs(rho) * math.sqrt(e_xi_sq) * math.sqrt(e_g_sq)
    return GebeleinReport(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        rho=rho,
        e_xi_sq=e_xi_sq,
        e_eta_sq=e_eta_sq,
        centered_coefficients=centered,
    )
