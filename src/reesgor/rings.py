"""Presented graded rings A = P/I and their ideals.

Ideals of A are stored as preimages in the ambient polynomial ring P:
every A-level operation becomes a P-level operation on generator lists
that always carry the defining ideal I along.
An ideal memoizes the basis of its preimage and its reducer, the
Hilbert numerator and dimension of its quotient and, for the oracle, the
ideal of its Rees algebra.  A ring keeps the first four on its zero
ideal, whose preimage is I: that one memo serves `gb`, `reduce`,
`hilbert_numerator`, `dim` and `zero_ideal()` alike.  A ring also
memoizes its resolution, its Ext modules and one `ColonGraph` per colon
(gens, I) : b by an element b, from which come the colon ideal, the
module ((gens, I) : b)/(gens, I), the regularity test of b and every
division by b in A (gens empty).  A ring built `from_basis` (the Rees
presentation) keeps the basis it was given, and its resolution starts
from that basis and reads its memoized numerator, so one Groebner basis
and one Hilbert numerator serve the ring's dimension, resolution and
exactness check.
"""

from collections import namedtuple
from types import MappingProxyType

from .errors import (NonPositiveWeight, NotDivisible, NotParameters,
                     OwnerMismatch, ResourceExceeded, crosscheck)
from .groebner import as_vecs, groebner_basis, reducer
from .hilbert import hilbert, hilbert_numerator
from . import idealops
from .modules import colon_basis, colon_from_basis, divider
from .polys import PolyRing
from .resolutions import (ModulePresentation, ext_dualizing,
                          resolve_quotient_ring)

# division by b, the colon Ideal and ((gens, I) : b)/(gens, I), all off the
# graph basis of the rows (b, 1) and (r, 0), r in gens + I
ColonGraph = namedtuple("ColonGraph", "divide ideal module")


class PresentedGradedRing:
    """A = P/I for a weighted polynomial ring P and homogeneous ideal I."""

    def __init__(self, names, weights, ideal_gens, field=None, label=None):
        self._setup(PolyRing(names, weights, field), ideal_gens, label)

    @classmethod
    def from_ambient(cls, ambient, ideal_gens, label=None, checked=False):
        """A = ambient/(ideal_gens); `checked` says the caller has already
        seen every generator to be homogeneous, as a document parser does
        where it knows each generator's position."""
        ring = cls.__new__(cls)
        ring._setup(ambient, ideal_gens, label, checked)
        return ring

    @classmethod
    def from_basis(cls, ambient, gb):
        """A = ambient/(gb) for gb the reduced Groebner basis of a
        homogeneous ideal under the ambient order, such as the Rees
        presentation's; gb is kept as `gb()`, the ring-level twin of
        `Ideal.from_basis`."""
        ring = cls.from_ambient(ambient, gb, checked=True)
        ring._zero._gb = tuple(ring.defining)
        return ring

    def _setup(self, ambient, ideal_gens, label, checked=False):
        self.ambient = ambient
        self.defining = []
        for g in ideal_gens:
            if g.ring != ambient:
                g = ambient.transfer(g)
            if g.is_zero():
                continue
            if not checked and not g.is_homogeneous():
                raise ValueError("inhomogeneous defining generator: %s" % g)
            self.defining.append(g)
        self.label = label
        self._zero = Ideal(self, ())
        self._resolution = None
        self._ext = {}
        self._colons = {}

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
        """The ColonGraph of (gens, I) : b, built once per (gens, b)."""
        key = (tuple(gens), b)
        if key not in self._colons:
            bv, *rels = as_vecs([b] + self._full(gens))
            basis = tuple(colon_basis([bv], rels))
            ideal = Ideal.from_basis(self, colon_from_basis(basis, 1))
            F = bv.module
            module = ModulePresentation(
                F, [F.basis_vec(0, g) for g in ideal.gb()], rels)
            self._colons[key] = ColonGraph(divider(basis), ideal, module)
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
        return Ideal(self, [self.ambient.one])

    def maximal_ideal(self):
        return Ideal(self, self.ambient.gens())

    def is_zero_element(self, f):
        return self.reduce(f).is_zero()

    def is_regular_element(self, a):
        """True when a is a non-zerodivisor on A: (I : a) = I in P."""
        return self.colon_graph((), a).ideal.gb() == self.gb()

    def _full(self, gens):
        return [g for g in gens if not g.is_zero()] + self.defining

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
            self._rees = tuple(idealops.eliminate(big, work, (big.n - 1,))[1])
        return self._rees

    def reduce(self, f):
        """Normal form of f modulo the preimage; `gb()` is indexed once
        per ideal."""
        if self._nf is None:
            self._nf = reducer(self.gb())
        return self._nf(f)

    def contains(self, f):
        """f in the preimage."""
        return self.reduce(f).is_zero()

    def contains_ideal(self, other):
        _check_owner(self, other)
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

    def is_zero(self):
        """True when the ideal is zero in A (preimage equals I)."""
        return all(self.owner.is_zero_element(g) for g in self.gens)

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)


def _check_owner(a, b):
    if a.owner != b.owner:
        raise OwnerMismatch("ideals from different rings")


def intersect(ia, ib):
    _check_owner(ia, ib)
    A = ia.owner
    out = idealops.intersect(A.ambient, ia.preimage_gens(), ib.preimage_gens())
    return Ideal.from_basis(A, out)


def colon(ia, b):
    """ia : b for a single ring element b, off the ring's colon graph."""
    return ia.owner.colon_graph(ia.gens, b).ideal


def ideals_equal(ia, ib):
    _check_owner(ia, ib)
    return ia.gb() == ib.gb()


def ring_map_kernel(targets, source_names, target_ring):
    """Kernel of k[source_names] -> target_ring, s_i |-> targets[i].

    Source weights are the weighted degrees of the targets.  Returns the
    kernel as an Ideal of the (freely presented) source ring.
    """
    amb = target_ring.ambient
    weights = []
    for t in targets:
        if t.is_zero() or not t.is_homogeneous():
            raise NonPositiveWeight("targets must be nonzero homogeneous")
        w = t.degree()
        if w <= 0:
            raise NonPositiveWeight("target of non-positive degree: %s" % t)
        weights.append(w)
    names = tuple(source_names)
    big = amb.extend(names, tuple(weights))
    gens = [g for g in (big.transfer(g) for g in target_ring.defining)]
    for i, t in enumerate(targets):
        gens.append(big.gen(amb.n + i) - big.transfer(t))
    sub, out = idealops.eliminate(big, gens, tuple(range(amb.n)))
    source = PresentedGradedRing.from_ambient(sub, [])
    return Ideal(source, out)


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
