"""Exact intersection theory on compactified strata of abelian
differentials: boundary level graphs, prong-matching combinatorics, the
tautological-ring calculus, Chern classes and orbifold Euler
characteristics, all in exact rational arithmetic.
"""
from . import caches
from .exact import Rational, rational_str
from .strata import ResiduePart, SpecError, StratumSpec, dimension, validate
from .levelgraphs import (LevelGraph, ProngData, automorphism_order,
                          enumerate_LG1, enumerate_LGL, level_stratum,
                          prong_data, profile, undegenerate)
from .evaluate import Evaluator, FixtureRegistry, UnevaluatableError, default_registry
from .tautring import TautClass, integrate, multiply, normal_bundle, normal_bundle_via_edge, xi_as_psi
from .invariants import (ChernReport, EulerReport, c1_log_cotangent,
                         chern_character, chern_polynomial, cross_check,
                         euler_characteristic, hyperelliptic_chi)

__version__ = "0.1.0"
