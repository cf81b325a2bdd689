"""Finite-dictionary field algebra with normal forms built by insertion.

Generators Phi_i are smeared fields over a fixed list of compact test
sections; products are reduced to a unique normal form (non-decreasing
generator indices) through the commutation rule

    Phi_j Phi_i = Phi_i Phi_j + i G[j, i] 1        (j > i)

where G is the antisymmetric propagator pairing table of the dictionary.
A normal-ordered word w times one generator b is therefore insort(w, b)
plus, for each letter x > b of w, the term i G[x, b] times w without x,
which is normal-ordered already.  Every product and involution is that
one step, fed one letter at a time (:func:`_normal_order`).
Unique normal forms make equality decidable, so the quotient algebra is
represented constructively instead of via ideal membership.  States enter
as two-point tables with Wick-pairing n-point extension; the minimal
(pure) quasifree completion (|G| + iG)/2 plays the role of the lattice
ground state and is exactly compatible with the canonical commutators.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .greenhyp import GreenSystem, HyperbolicOperator

__all__ = [
    "FieldDictionary",
    "AlgebraElement",
    "QuasifreeState",
    "field",
    "multiply",
    "star_isomorphism",
    "MollerStarIsomorphism",
    "quasifree_npoint",
    "state_eval",
    "pullback_state",
    "vacuum_state",
]


class FieldDictionary:
    """Test sections with their propagator pairing table.

    sections is a (K, nt, nx) array of compact test sections; ``sections``
    keeps it as a read-only copy, so the table cannot go stale.
    """

    def __init__(self, sections, operator: HyperbolicOperator):
        if not operator.self_adjoint:
            raise ValueError("the pairing table needs a formally self-adjoint operator")
        self.operator = operator
        self.grid = operator.grid
        F = np.array(sections, dtype=float)
        F.flags.writeable = False
        self.sections = F
        self.size = len(F)
        images = GreenSystem(operator).propagator(F)
        self.pairing = operator.pairing(F[:, None], images)
        asym = np.max(np.abs(self.pairing + self.pairing.T))
        if asym > 1e-10 * (1.0 + np.max(np.abs(self.pairing))):
            raise AssertionError(f"propagator pairing table is not antisymmetric ({asym:.2e})")


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
        return AlgebraElement(self.dictionary, _summed([*self.terms.items(), *other.terms.items()]))

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
        return AlgebraElement(self.dictionary, _summed(
            term for w, c in self.terms.items()
            for term in _normal_order(self.dictionary, w[::-1], np.conj(c)).items()))

    def coefficient(self, word) -> complex:
        return self.terms.get(tuple(word), 0.0)

    def sup_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        bits = [f"({c:.3g})*{w or '1'}" for w, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def _prune(terms):
    return {w: c for w, c in terms.items() if abs(c) > 0.0}


def _summed(terms):
    """{word: its coefficients summed in order} over (word, coefficient) pairs, zeros dropped."""
    out = {}
    for w, c in terms:
        out[w] = out.get(w, 0.0) + c
    return _prune(out)


def _normal_order(dictionary, word, coeff, start=()):
    """Normal form of coeff times the normal-ordered word start followed by word.

    The letters of word are inserted one at a time: each term w times b
    becomes i G[x, b] times w without x for each letter x > b of w,
    rightmost first, then insort(w, b).  Terms are summed only at the end,
    in the order the contractions make them, so every coefficient is the
    sum, and every term the product, that rewriting one adjacent descent at
    a time gives.  Returns a terms dict without zeros.
    """
    G = dictionary.pairing
    terms = [(tuple(start), complex(coeff))]
    for b in word:
        grown = []
        for w, c in terms:
            k = bisect_right(w, b)
            for j in range(len(w) - 1, k - 1, -1):
                grown.append((w[:j] + w[j + 1:], c * 1j * G[w[j], b]))
            grown.append((w[:k] + (b,) + w[k:], c))
        terms = grown
    return _summed(terms)


def field(dictionary: FieldDictionary, i: int) -> AlgebraElement:
    if not (0 <= i < dictionary.size):
        raise IndexError("generator index out of range")
    return AlgebraElement(dictionary, {(i,): 1.0 + 0.0j})


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._compatible(b)

    def products():
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                if not wa or not wb or wa[-1] <= wb[0]:  # wa + wb is normal-ordered
                    yield wa + wb, ca * cb
                else:
                    yield from _normal_order(a.dictionary, wb, ca * cb, start=wa).items()

    return AlgebraElement(a.dictionary, _summed(products()))


# -- quasifree states -----------------------------------------------------------

class QuasifreeState:
    """Two-point table with Wick n-point extension over one dictionary."""

    def __init__(self, dictionary: FieldDictionary, W, check=True):
        self.dictionary = dictionary
        self.W = np.asarray(W, dtype=complex)
        if check:
            self.validate()

    def validate(self):
        W, G = self.W, self.dictionary.pairing
        tol, scale = 1e-10, 1.0 + float(np.max(np.abs(W)))
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

    The map is the index identity on words, so it relabels an element's
    terms, whose words are in normal form, onto the image dictionary; its
    homomorphism property is exactly the match of the two commutator
    tables, which the constructor measures as ``commutator_mismatch``
    (max |G' - G_image|); the ccr suite's ``commutator_table_transport``
    law judges it.
    """

    def __init__(self, dict_prime: FieldDictionary, dict_image: FieldDictionary):
        self.dict_prime = dict_prime
        self.dict_image = dict_image
        self.commutator_mismatch = float(np.max(np.abs(dict_prime.pairing - dict_image.pairing)))

    def map(self, element: AlgebraElement) -> AlgebraElement:
        if element.dictionary is not self.dict_prime:
            raise ValueError("element does not live over the source dictionary")
        return AlgebraElement(self.dict_image, element.terms)


def star_isomorphism(R, dict_prime: FieldDictionary) -> MollerStarIsomorphism:
    """Build the generator map by transporting the primed dictionary.

    The image dictionary consists of the adjoint images R^dagger f'_i with
    the pairing table of the source-side operator; the commutator mismatch
    is measured, not judged (:class:`MollerStarIsomorphism`).
    """
    dict_image = FieldDictionary(R.adjoint_apply(dict_prime.sections), R.op_start)
    return MollerStarIsomorphism(dict_prime, dict_image)


def pullback_state(state: QuasifreeState, iso: MollerStarIsomorphism) -> QuasifreeState:
    """omega' = omega after the generator map: same table, primed dictionary.

    The table is taken unchecked: it was validated with the image-side state,
    and the ccr suite's ``pullback_state_commutator_consistency`` law judges
    its commutator against the primed pairing.
    """
    if state.dictionary is not iso.dict_image:
        raise ValueError("state must live over the transported image dictionary")
    return QuasifreeState(iso.dict_prime, state.W, check=False)
