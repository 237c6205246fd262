"""Gorensteinness of Rees algebras of powers of parameter ideals.

The package decides, for a positively graded ring A = P/I of dimension
d >= 2 over a field and a homogeneous parameter ideal q, whether the
Rees algebra R(q^d) is Gorenstein.  Two independent routes are
implemented: a criteria route built on the (S2)-ification of A, and a
direct free-resolution oracle on a presentation of R(q^n).
"""

from .errors import (DepthNotOne, EquivalenceViolation,
                     HypothesisNotVerified, InputError, NotApplicable,
                     NotArtinian, NotContained, NotDivisible, NotParameters,
                     OwnerMismatch, PairNotFound, ReesgorError,
                     ResourceExceeded, WrongDimension)
from .fields import GF, QQ, DEFAULT_PRIME
from .polys import PolyRing
from .rings import (Ideal, PresentedGradedRing, colon, ideals_equal,
                    intersect, ring_division, sigma_tilde)
from .invariants import (artinian_gorenstein, artinian_length,
                         depth_and_type, is_reduction)
from .s2 import (conductor_crosscheck, filter_regular_pair, h1_socle,
                 hypothesis_profile, is_standard_parameters, s2_construct)
from .decision import (buchsbaum_criterion, decide, decide_condition2,
                       decide_condition3, shimoda_check)
from .oracle import (graded_gorenstein_oracle, n_neq_d_suite,
                     rees_presentation)
from .corpus import (EXAMPLES, build_hochster_roberts, build_idealization,
                     build_regular_base, build_two_planes, example_document)
from .inputfmt import (InputDocument, format_report, parse_document,
                       parse_poly, parse_report, print_document)

__version__ = "0.1.0"
