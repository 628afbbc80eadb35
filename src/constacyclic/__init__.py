"""Constacyclic code construction and minimum-distance certification."""

from .codes import (ConstacyclicCode, DefiningSet, code_from_descriptor,
                    defining_set)
from .distance import (DistanceResult, WeightEnumerator, certify,
                       certify_pair, exhaustive_enumerator, low_weight_search,
                       macwilliams_transform)
from .families import (BchWitness, ClosedFormReport, FamilyParams, bch_search,
                       closed_form_bounds, family_code, family_defining_set)
from .galois import (ONE, ZERO, ExtensionTower, FieldSpec, build_tower,
                     tower_for)
from .polyring import Poly, minimal_polynomial, reciprocal, xn_minus_lambda
from .qadic import (CyclotomicCoset, IndexUniverse, cyclotomic_coset,
                    index_universe)

__version__ = "0.1.0"
