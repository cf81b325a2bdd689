"""Finite-dictionary field algebra with normal-ordered rewriting.

Generators Phi_i are smeared fields over a fixed list of compact test
sections; products are reduced to a unique normal form (non-decreasing
generator indices) through the commutation rule

    Phi_j Phi_i = Phi_i Phi_j + i G[j, i] 1        (j > i)

where G is the antisymmetric propagator pairing table of the dictionary.
Unique normal forms make equality decidable, so the quotient algebra is
represented constructively instead of via ideal membership.  States enter
as two-point tables with Wick-pairing n-point extension; the minimal
(pure) quasifree completion (|G| + iG)/2 plays the role of the lattice
ground state and is exactly compatible with the canonical commutators.
"""

from __future__ import annotations

import numpy as np

from .greenhyp import CausalPropagator, HyperbolicOperator
from .lattice import Section

__all__ = [
    "FieldDictionary",
    "AlgebraElement",
    "QuasifreeState",
    "field",
    "multiply",
    "on_shell_reduce",
    "star_isomorphism",
    "MollerStarIsomorphism",
    "quasifree_npoint",
    "state_eval",
    "pullback_state",
    "vacuum_state",
]


class FieldDictionary:
    """Test sections with their propagator pairing table.

    null_sections, when given, are appended to the dictionary as the image
    block N h of compact sections; the on-shell projection (dropping the
    component along that block in the volume pairing) is precomputed as a
    coefficient matrix over the dictionary span.
    """

    def __init__(self, sections, operator: HyperbolicOperator, null_sections=None):
        if not operator.self_adjoint:
            raise ValueError("the pairing table needs a formally self-adjoint operator")
        self.operator = operator
        self.grid = operator.grid
        self.sections = list(sections)
        self.null_start = len(self.sections)
        if null_sections:
            self.sections += list(null_sections)
        self.size = len(self.sections)
        F = np.array([f.values for f in self.sections])
        images = CausalPropagator(operator).apply(F)
        self.pairing = operator.pairing(F[:, None], images)
        asym = np.max(np.abs(self.pairing + self.pairing.T))
        if asym > 1e-10 * (1.0 + np.max(np.abs(self.pairing))):
            raise AssertionError(f"propagator pairing table is not antisymmetric ({asym:.2e})")
        self._projection = self._build_projection(F) if null_sections else None

    def _build_projection(self, F):
        # P f = f - (component along the null block in the V pairing),
        # expressed in dictionary coordinates: one Gram solve for all generators
        k = self.null_start
        null = F[k:]
        gram = self.operator.pairing(null[:, None], null)
        alpha = np.linalg.solve(gram, self.operator.pairing(null[:, None], F[:k]))
        C = np.zeros((self.size, self.size))
        C[np.arange(k), np.arange(k)] = 1.0
        C[k:, :k] = -alpha  # null generators project to zero
        return C

    @property
    def projection(self):
        if self._projection is None:
            raise ValueError("dictionary was built without a null block")
        return self._projection


class AlgebraElement:
    """Complex combination of normal-ordered generator words."""

    def __init__(self, dictionary: FieldDictionary, terms=None):
        self.dictionary = dictionary
        self.terms = dict(terms or {})

    @classmethod
    def identity(cls, dictionary, c=1.0):
        return cls(dictionary, {(): complex(c)})

    def _compatible(self, other):
        if self.dictionary is not other.dictionary:
            raise ValueError("elements live over different dictionaries")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            other = AlgebraElement.identity(self.dictionary, other)
        self._compatible(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return AlgebraElement(self.dictionary, _prune(out))

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(self.dictionary,
                              _prune({w: c * other for w, c in self.terms.items()}))

    def __rmul__(self, other):
        return self * other

    def star(self) -> "AlgebraElement":
        """Involution: antilinear, reverses words, then re-normal-orders."""
        out = AlgebraElement(self.dictionary, {})
        for w, c in self.terms.items():
            out = out + AlgebraElement(self.dictionary,
                                       _normal_order(self.dictionary, w[::-1], np.conj(c)))
        return out

    def coefficient(self, word) -> complex:
        return self.terms.get(tuple(word), 0.0)

    def sup_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_close(self, other, tol=1e-10) -> bool:
        diff = self - other
        return diff.sup_coeff() <= tol

    def to_json(self) -> str:
        import json
        payload = [{"word": list(w), "re": c.real, "im": c.imag}
                   for w, c in sorted(self.terms.items())]
        return json.dumps(payload)

    def __repr__(self):
        bits = [f"({c:.3g})*{w or '1'}" for w, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def _prune(terms, tol=0.0):
    return {w: c for w, c in terms.items() if abs(c) > tol}


def _normal_order(dictionary, word, coeff):
    """Rewrite one word into normal form; returns a terms dict."""
    G = dictionary.pairing
    out = {}
    stack = [(tuple(word), complex(coeff))]
    while stack:
        w, c = stack.pop()
        k = _first_descent(w)
        if k is None:
            out[w] = out.get(w, 0.0) + c
            continue
        a, b = w[k], w[k + 1]  # a > b
        swapped = w[:k] + (b, a) + w[k + 2:]
        dropped = w[:k] + w[k + 2:]
        stack.append((swapped, c))
        stack.append((dropped, c * 1j * G[a, b]))
    return _prune(out)


def _first_descent(w):
    for k in range(len(w) - 1):
        if w[k] > w[k + 1]:
            return k
    return None


def field(dictionary: FieldDictionary, i: int) -> AlgebraElement:
    if not (0 <= i < dictionary.size):
        raise IndexError("generator index out of range")
    return AlgebraElement(dictionary, {(i,): 1.0 + 0.0j})


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._compatible(b)
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            for w, c in _normal_order(a.dictionary, wa + wb, ca * cb).items():
                out[w] = out.get(w, 0.0) + c
    return AlgebraElement(a.dictionary, _prune(out))


def on_shell_reduce(dictionary: FieldDictionary, element: AlgebraElement) -> AlgebraElement:
    """Eliminate generator components along the null (N h) block.

    Each generator is replaced by its projection in dictionary coordinates
    and the result re-normal-ordered; requires the dictionary to carry a
    null block so the projection stays inside the span.
    """
    C = dictionary.projection
    out = AlgebraElement(dictionary, {})
    for w, c in element.terms.items():
        expanded = {(): complex(c)}
        for i in w:
            nxt = {}
            for wv, cv in expanded.items():
                for j in range(dictionary.size):
                    if C[j, i] != 0.0:
                        nxt[wv + (j,)] = nxt.get(wv + (j,), 0.0) + cv * C[j, i]
            expanded = nxt
        for wv, cv in expanded.items():
            for wn, cn in _normal_order(dictionary, wv, cv).items():
                out.terms[wn] = out.terms.get(wn, 0.0) + cn
    out.terms = _prune(out.terms, tol=0.0)
    return out


# -- quasifree states -----------------------------------------------------------

class QuasifreeState:
    """Two-point table with Wick n-point extension over one dictionary."""

    def __init__(self, dictionary: FieldDictionary, W, check=True, tol=1e-10):
        self.dictionary = dictionary
        self.W = np.asarray(W, dtype=complex)
        if check:
            self.validate(tol)

    def validate(self, tol=1e-10):
        W, G = self.W, self.dictionary.pairing
        scale = 1.0 + float(np.max(np.abs(W)))
        if np.max(np.abs(W - W.conj().T)) > tol * scale:
            raise AssertionError("two-point table is not Hermitian")
        ccr = np.max(np.abs((W - W.T) - 1j * G))
        if ccr > tol * scale:
            raise AssertionError(f"two-point table violates the commutator pairing ({ccr:.2e})")
        eigs = np.linalg.eigvalsh(W)
        if eigs.min() < -tol * scale:
            raise AssertionError(f"two-point table is not positive semidefinite ({eigs.min():.2e})")


def vacuum_state(dictionary: FieldDictionary) -> QuasifreeState:
    """Minimal pure quasifree completion of the commutator table.

    W = (|G| + iG)/2 with |G| the matrix absolute value of the real
    antisymmetric pairing: the unique quasifree two-point table with exact
    commutator compatibility that is positive semidefinite with minimal
    symmetric part, the lattice stand-in for the ground state.
    """
    G = dictionary.pairing
    H = 1j * G  # Hermitian
    eigs, U = np.linalg.eigh(H)
    absG = (U * np.abs(eigs)) @ U.conj().T
    return QuasifreeState(dictionary, (absG + H) / 2.0)


def quasifree_npoint(state: QuasifreeState, indices) -> complex:
    """Sum over ordered pair partitions of the two-point table."""
    idx = tuple(int(i) for i in indices)
    if len(idx) % 2 == 1:
        return 0.0 + 0.0j
    if not idx:
        return 1.0 + 0.0j
    W = state.W

    def rec(rest):
        if not rest:
            return 1.0 + 0.0j
        head, tail = rest[0], rest[1:]
        acc = 0.0 + 0.0j
        for k in range(len(tail)):
            acc += W[head, tail[k]] * rec(tail[:k] + tail[k + 1:])
        return acc

    return rec(idx)


def state_eval(state: QuasifreeState, element: AlgebraElement) -> complex:
    acc = 0.0 + 0.0j
    for w, c in element.terms.items():
        acc += c * quasifree_npoint(state, w)
    return acc


# -- transport along an intertwiner ----------------------------------------------

class MollerStarIsomorphism:
    """Generator substitution Phi'(f) -> Phi(R^dagger f) between dictionaries.

    The map is the index identity on words; its homomorphism property is
    exactly the match of the two commutator tables, which the constructor
    verifies against the transported sections.
    """

    def __init__(self, R, dict_prime: FieldDictionary, dict_image: FieldDictionary,
                 tol=1e-9):
        self.R = R
        self.dict_prime = dict_prime
        self.dict_image = dict_image
        mismatch = np.max(np.abs(dict_prime.pairing - dict_image.pairing))
        scale = 1.0 + np.max(np.abs(dict_prime.pairing))
        if mismatch > tol * scale:
            raise AssertionError(
                f"commutator tables disagree ({mismatch:.2e}); the intertwiner is broken")
        self.commutator_mismatch = float(mismatch)

    def map(self, element: AlgebraElement) -> AlgebraElement:
        if element.dictionary is not self.dict_prime:
            raise ValueError("element does not live over the source dictionary")
        out = AlgebraElement(self.dict_image, {})
        for w, c in element.terms.items():
            for wn, cn in _normal_order(self.dict_image, w, c).items():
                out.terms[wn] = out.terms.get(wn, 0.0) + cn
        out.terms = _prune(out.terms)
        return out


def star_isomorphism(R, dict_prime: FieldDictionary, tol=1e-9) -> MollerStarIsomorphism:
    """Build the generator map by transporting the primed dictionary.

    The image dictionary consists of the adjoint images R^dagger f'_i with
    the pairing table of the source-side operator; commutator matching is
    verified at the stated tolerance.
    """
    grid = R.op_start.grid
    block = R.adjoint_apply(np.array([f.values for f in dict_prime.sections]))
    images = [Section(grid, v) for v in block]
    dict_image = FieldDictionary(images, R.op_start)
    return MollerStarIsomorphism(R, dict_prime, dict_image, tol=tol)


def pullback_state(state: QuasifreeState, iso: MollerStarIsomorphism,
                   tol=1e-8) -> QuasifreeState:
    """omega' = omega after the generator map: same table, primed dictionary.

    The transported table is re-validated against the primed commutator
    pairing; failure signals a broken intertwiner rather than a state
    problem.
    """
    if state.dictionary is not iso.dict_image:
        raise ValueError("state must live over the transported image dictionary")
    return QuasifreeState(iso.dict_prime, state.W, check=True, tol=tol)
