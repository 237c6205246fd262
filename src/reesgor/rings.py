"""Presented graded rings A = P/I and their ideals.

A ring is built from its ambient ring P and generators of I in P, or
`from_basis`.  An object's ring is read off it, an ideal's `owner` or a
polynomial's `ring`; one of another ring raises OwnerMismatch.
Ideals of A are stored as preimages in the ambient polynomial ring P:
every A-level operation becomes a P-level operation on generator lists
that always carry the defining ideal I along.
An ideal memoizes the basis of its preimage and its reducer, the
Hilbert numerator and dimension of its quotient and, for the oracle, the
ideal of its Rees algebra.  A ring keeps the first four on its zero
ideal, whose preimage is I: that one memo serves `gb`, `reduce`,
`hilbert_numerator`, `dim` and `zero_ideal()` alike.  A ring also
memoizes its resolution, its Ext modules and one `ColonGraph` per colon
(gens, I) : b by an element b, which holds its base, the Ideal (gens),
and gives the colon ideal, the regularity test of b and every division
by b in A (gens empty).  A ring built `from_basis` (the Rees
presentation) keeps the basis it was given, and its resolution starts
from that basis and reads its memoized numerator, so one Groebner basis
and one Hilbert numerator serve the ring's dimension, resolution and
exactness check.
"""

from collections import namedtuple
from types import MappingProxyType

from .errors import (NotDivisible, NotParameters, OwnerMismatch,
                     ResourceExceeded, crosscheck)
from .groebner import as_vecs, groebner_basis, reducer
from .hilbert import hilbert, hilbert_numerator
from . import idealops
from .modules import colon_basis, colon_from_basis, divider
from .resolutions import ext_dualizing, resolve_quotient_ring

# division by b and the colon Ideal base : b, both off the graph basis of
# the rows (b, 1) and (r, 0), r in base.preimage_gens()
ColonGraph = namedtuple("ColonGraph", "base divide ideal")


class PresentedGradedRing:
    """A = P/I for P = `ambient`, a weighted polynomial ring, and I the
    homogeneous ideal that ideal_gens, polynomials of P, generate (none
    for a free ring).  `checked` says the caller has already seen every
    generator to be homogeneous, as a document parser does."""

    def __init__(self, ambient, ideal_gens, label=None, checked=False):
        self.ambient = ambient
        self.label = label
        # the zero ideal checks the generators; the ring keeps them as I
        self.defining = list(Ideal(self, ideal_gens, checked).gens)
        self._zero = Ideal(self, ())
        self._resolution = None
        self._ext = {}
        self._colons = {}

    @classmethod
    def from_basis(cls, ambient, gb):
        """A = ambient/(gb) for gb the reduced Groebner basis of a
        homogeneous ideal under the ambient order, such as the Rees
        presentation's; gb is kept as `gb()`, the ring-level twin of
        `Ideal.from_basis`."""
        ring = cls(ambient, gb, checked=True)
        ring._zero._gb = tuple(ring.defining)
        return ring

    # -- cached invariants -------------------------------------------------

    def gb(self):
        """Reduced Groebner basis of I, as a tuple."""
        return self._zero.gb()

    def reduce(self, f):
        """Normal form of f modulo I."""
        return self._zero.reduce(f)

    def hilbert_numerator(self):
        """N(t) with H_A(t) = N(t) / prod_i (1 - t^w_i), as a read-only
        {degree: coefficient} mapping."""
        return self._zero.hilbert_numerator()

    def dim(self):
        return self._zero.quotient_dim()

    def resolution(self, length_cap=None):
        """Free resolution of A over its ambient ring, with the minimal
        Betti numbers.

        Its frame starts from `gb()`, and its exactness check reads
        `hilbert_numerator()`.  ResourceExceeded is raised when the
        minimal length exceeds the cap, whether the resolution is
        computed now or was memoized by an earlier call.
        """
        if self._resolution is None:
            self._resolution = resolve_quotient_ring(
                self.ambient, self.gb(), self.hilbert_numerator(),
                length_cap)
        elif length_cap is not None and self._resolution.pd > length_cap:
            raise ResourceExceeded("resolution length cap exceeded")
        return self._resolution

    def ext(self, i):
        """Ext^i_P(A, omega_P) as a ModulePresentation."""
        if i not in self._ext:
            self._ext[i] = ext_dualizing(self.resolution(), i)
        return self._ext[i]

    def colon_graph(self, gens, b):
        """The ColonGraph of (gens, I) : b, built once per (gens, b); its
        base is the zero ideal when gens is empty."""
        key = (tuple(gens), b)
        if key not in self._colons:
            base = Ideal(self, gens) if gens else self._zero
            bv, *rels = as_vecs([b] + base.preimage_gens())
            basis = tuple(colon_basis([bv], rels))
            ideal = Ideal.from_basis(self, colon_from_basis(basis, 1))
            self._colons[key] = ColonGraph(base, divider(basis), ideal)
        return self._colons[key]

    @property
    def names(self):
        return self.ambient.names

    @property
    def weights(self):
        return self.ambient.weights

    @property
    def field(self):
        return self.ambient.field

    def gen(self, i):
        return self.ambient.gen(i)

    def gens(self):
        return self.ambient.gens()

    # -- ideals ------------------------------------------------------------

    def ideal(self, gens):
        return Ideal(self, gens)

    def zero_ideal(self):
        return self._zero

    def unit_ideal(self):
        return Ideal.from_basis(self, [self.ambient.one])

    def maximal_ideal(self):
        return Ideal(self, self.ambient.gens())

    def is_zero_element(self, f):
        return self.reduce(f).is_zero()

    def is_regular_element(self, a):
        """True when a is a non-zerodivisor on A: (I : a) = I in P."""
        return self.colon_graph((), a).ideal.gb() == self.gb()

    def __eq__(self, other):
        return (isinstance(other, PresentedGradedRing)
                and other.ambient == self.ambient
                and [g.terms for g in other.defining]
                == [g.terms for g in self.defining])

    def __hash__(self):
        return hash((self.ambient, tuple(g.terms for g in self.defining)))

    def __repr__(self):
        base = repr(self.ambient)
        if not self.defining:
            return base
        return "%s/(%s)" % (base, ", ".join(str(g) for g in self.defining))


class Ideal:
    """Ideal of a presented ring, stored as a preimage generator tuple.

    `checked` says the caller has already seen every generator to be
    homogeneous, as a document parser does."""

    def __init__(self, owner, gens, checked=False):
        self.owner = owner
        gens = tuple(gens)
        for g in gens:
            if g.ring != owner.ambient:
                raise OwnerMismatch("generator from a different ring")
            if not checked and not g.is_homogeneous():
                raise ValueError("inhomogeneous ideal generator: %s" % g)
        # a tuple, because a ring's memoized colon ideals are shared
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = None
        self._nf = None
        self._numerator = None
        self._dim = None
        self._rees = None

    @classmethod
    def from_basis(cls, owner, gb):
        """The Ideal generated by gb, the reduced Groebner basis of an
        ideal of P containing I.  Then gb is also the reduced basis of
        the preimage, so it is kept as `gb()`."""
        ideal = cls(owner, gb)
        ideal._gb = tuple(gb)
        return ideal

    def preimage_gens(self):
        """Generators of the full preimage in P (defining ideal included)."""
        return list(self.gens) + list(self.owner.defining)

    def gb(self):
        """Reduced Groebner basis of the preimage, as a tuple."""
        if self._gb is None:
            self._gb = tuple(groebner_basis(self.preimage_gens()))
        return self._gb

    def rees_ideal(self):
        """The ideal of the Rees algebra A[a_0 t, .., a_s t] of this ideal,
        a_j its generators, in P[@T_0..@T_s] with @T_j -> a_j t and deg
        @T_j = deg a_j + 1, as its reduced grevlex basis, a tuple: t is
        eliminated from I + (@T_j - a_j t) once per ideal."""
        if self._rees is None:
            amb = self.owner.ambient
            names = tuple("@T%d" % j for j in range(len(self.gens)))
            big = amb.extend(names + ("@t",), tuple(
                g.degree() + 1 for g in self.gens) + (1,))
            t = big.gen(big.n - 1)
            work = [big.transfer(g) for g in self.owner.defining]
            for j, g in enumerate(self.gens):
                work.append(big.gen(amb.n + j) - big.transfer(g) * t)
            # the eliminated generators are the reduced basis under the
            # grevlex order of the rest block of the elimination order
            self._rees = tuple(idealops.eliminate(big, work, (big.n - 1,)))
        return self._rees

    def reduce(self, f):
        """Normal form of f modulo the preimage; `gb()` is indexed once
        per ideal.  f of another ring raises OwnerMismatch, also when
        the basis is empty."""
        if f.ring is not self.owner.ambient and f.ring != self.owner.ambient:
            raise OwnerMismatch("polynomial from a different ring")
        if self._nf is None:
            self._nf = reducer(self.gb())
        return self._nf(f)

    def contains(self, f):
        """f in the preimage."""
        return self.reduce(f).is_zero()

    def contains_ideal(self, other):
        check_owner(self.owner, other)
        return all(self.contains(g) for g in other.gens)

    def hilbert_numerator(self):
        """N(t) with H(t) = N(t) / prod_i (1 - t^w_i) the Hilbert series
        of A / this ideal, from the leads of `gb()`, as a read-only
        {degree: coefficient} mapping."""
        if self._numerator is None:
            self._numerator = MappingProxyType(hilbert_numerator(
                [g.lead_exp() for g in self.gb()], self.owner.weights))
        return self._numerator

    def quotient_dim(self):
        """Krull dimension of A / this ideal."""
        if self._dim is None:
            self._dim = hilbert(self.hilbert_numerator(),
                                self.owner.weights)[0]
        return self._dim

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)


def check_owner(A, ideal):
    """The ring of ideal, once it is seen to be A: the same object, or an
    equal ring, as one built twice from one document is; callers go on in
    it, so one set of memos serves.  OwnerMismatch otherwise."""
    if ideal.owner is not A and ideal.owner != A:
        raise OwnerMismatch("ideal of another ring")
    return ideal.owner


def intersect(ia, ib):
    check_owner(ia.owner, ib)
    A = ia.owner
    out = idealops.intersect(A.ambient, ia.preimage_gens(), ib.preimage_gens())
    return Ideal.from_basis(A, out)


def colon(ia, b):
    """ia : b for a single ring element b, off the ring's colon graph."""
    return ia.owner.colon_graph(ia.gens, b).ideal


def ideals_equal(ia, ib):
    check_owner(ia.owner, ib)
    return ia.gb() == ib.gb()


def check_parameters(q):
    """dim A for the ring A of q, once q is seen to be generated by a
    system of parameters of A; NotParameters otherwise."""
    d = q.owner.dim()
    if len(q.gens) != d or q.quotient_dim() != 0:
        raise NotParameters("q must be generated by a system of parameters")
    return d


def sigma_tilde(q):
    """The colon-sum ideal sum_i ((a_1,..,a_i-hat,..,a_d) : a_i) of A, for
    q = (a_1, .., a_d) generated by a system of parameters of A."""
    check_parameters(q)
    total = []
    for i, ai in enumerate(q.gens):
        rest = q.gens[:i] + q.gens[i + 1:]
        total.extend(q.owner.colon_graph(rest, ai).ideal.gb())
    return Ideal.from_basis(q.owner, groebner_basis(total))


def ring_division(f, a, A):
    """g with a*g = f in A, for a regular on A; NotDivisible otherwise.

    The ring's colon graph of I : a divides, reducing (f, 0) against its
    graph basis, indexed once per ring, so g is in normal form modulo
    I : a, whose leading terms contain those of I.
    """
    try:
        g = A.colon_graph((), a).divide(as_vecs([f])[0])
    except NotDivisible:
        raise NotDivisible("%s is not divisible by %s in the ring" % (f, a))
    crosscheck("re-expansion of a division", A.reduce(a * g), A.reduce(f))
    return g
