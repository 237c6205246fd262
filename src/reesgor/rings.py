"""Presented graded rings A = P/I and their ideals.

Ideals of A are stored as preimages in the ambient polynomial ring P:
every A-level operation becomes a P-level operation on generator lists
that always carry the defining ideal I along.
A ring memoizes the basis of I and its reducer, its Hilbert numerator,
its resolution, its Ext modules and one `ColonGraph` per colon
(gens, I) : b by an element b, from which come the colon ideal, the
module ((gens, I) : b)/(gens, I), the regularity test of b and every
division by b in A (gens empty), once per ring.  A ring built
`from_basis` (the Rees presentation) keeps the basis it was given, and
its resolution starts from that basis and reads its memoized numerator,
so one Groebner basis and one Hilbert numerator serve the ring's
dimension, resolution and exactness check.
"""

from collections import namedtuple
from types import MappingProxyType

from .errors import (NonPositiveWeight, NotDivisible, NotParameters,
                     OwnerMismatch, ResourceExceeded, crosscheck)
from .groebner import as_vecs, groebner_basis, reducer
from .hilbert import dimension_from_numerator, hilbert_numerator
from . import idealops
from .modules import colon_basis, colon_from_basis, module_divide
from .polys import PolyRing
from .resolutions import (ModulePresentation, ext_dualizing,
                          resolve_quotient_ring)

# the graph basis of the rows (b, 1) and (r, 0), r in gens + I, the colon
# Ideal off its tail, and the ModulePresentation of ((gens, I) : b)/(gens, I)
ColonGraph = namedtuple("ColonGraph", "basis ideal module")


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
    def from_basis(cls, ambient, gb, label=None):
        """A = ambient/(gb) for gb the reduced Groebner basis of a
        homogeneous ideal under the ambient order, such as the output of
        `idealops.eliminate`; gb is kept as `gb()`, the ring-level twin of
        `Ideal.from_basis`."""
        ring = cls.from_ambient(ambient, gb, label, checked=True)
        ring._gb = tuple(ring.defining)
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
        self._gb = None
        self._nf = None
        self._numerator = None
        self._dim = None
        self._resolution = None
        self._ext = {}
        self._colons = {}

    # -- cached invariants -------------------------------------------------

    def gb(self):
        """Reduced Groebner basis of I, as a tuple."""
        if self._gb is None:
            self._gb = tuple(groebner_basis(self.defining))
        return self._gb

    def reduce(self, f):
        """Normal form of f modulo I; `gb()` is indexed once per ring."""
        if self._nf is None:
            self._nf = reducer(self.gb())
        return self._nf(f)

    def hilbert_numerator(self):
        """N(t) with H_A(t) = N(t) / prod_i (1 - t^w_i), from the leads of
        the basis of I, as a read-only {degree: coefficient} mapping."""
        if self._numerator is None:
            self._numerator = MappingProxyType(hilbert_numerator(
                [g.lead_exp() for g in self.gb()], self.ambient.weights))
        return self._numerator

    def dim(self):
        if self._dim is None:
            self._dim = dimension_from_numerator(self.hilbert_numerator(),
                                                 self.ambient.weights)
        return self._dim

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
                self.ambient, self.gb(), length_cap=length_cap,
                numerator=self.hilbert_numerator())
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
            self._colons[key] = ColonGraph(basis, ideal, module)
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
        return Ideal(self, [])

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
        self._dim = None

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

    def contains(self, f):
        """f in the preimage; `gb()` is indexed once per ideal."""
        if self._nf is None:
            self._nf = reducer(self.gb())
        return self._nf(f).is_zero()

    def contains_ideal(self, other):
        _check_owner(self, other)
        return all(self.contains(g) for g in other.gens)

    def quotient_dim(self):
        """Krull dimension of A / this ideal."""
        if self._dim is None:
            weights = self.owner.weights
            self._dim = dimension_from_numerator(hilbert_numerator(
                [g.lead_exp() for g in self.gb()], weights), weights)
        return self._dim

    def is_zero(self):
        """True when the ideal is zero in A (preimage equals I)."""
        return all(self.owner.is_zero_element(g) for g in self.gens)

    def is_unit(self):
        return self.contains(self.owner.ambient.one)

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


def colon(ia, by):
    """ia : by, where by is an Ideal or a single ring element."""
    A = ia.owner
    if not isinstance(by, Ideal):
        return A.colon_graph(ia.gens, by).ideal
    _check_owner(ia, by)
    return Ideal.from_basis(
        A, idealops.colon(A.ambient, ia.preimage_gens(), by.gens))


def saturate(ia, by, cap=64):
    """(stable iterated colon, first stabilization index)."""
    A = ia.owner
    if isinstance(by, Ideal):
        _check_owner(ia, by)
        divs = by.gens
    else:
        divs = [by]
    out, idx = idealops.saturate(A.ambient, ia.preimage_gens(), divs, cap=cap)
    return Ideal.from_basis(A, out), idx


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

    `module_divide` reduces (f, 0) against the ring's graph basis of
    I : a, so g is in normal form modulo I : a, whose leading terms
    contain those of I.
    """
    try:
        g = module_divide(as_vecs([f])[0], A.colon_graph((), a).basis)
    except NotDivisible:
        raise NotDivisible("%s is not divisible by %s in the ring" % (f, a))
    crosscheck("re-expansion of a division", A.reduce(a * g), A.reduce(f))
    return g
