"""Quasipositive factorizations of the full twist and certified torus
shadow diagrams of the bridge-trisected surfaces they bound."""

from .words import (
    BraidError,
    BraidWord,
    compose,
    exponent_sum,
    free_reduce,
    full_twist,
    identity,
    invert,
)
from .garside import NormalForm, equal, normal_form
from .handles import handle_reduce, words_equal
from .factorization import (
    BandFactor,
    Factorization,
    HurwitzOrbit,
    ValidationReport,
    expand,
    factorization_key,
    hurwitz_move,
    hurwitz_orbit,
    standard_factorization,
    validate,
)
from .diagram import (
    Arc,
    BridgeParams,
    BridgePoint,
    Certificate,
    DiagramError,
    TorusDiagram,
    assemble,
    bridge_params,
    certify,
    check_transverse,
)
from .invariants import (
    InvariantLedger,
    genus_expected,
    make_ledger,
    transverse_sl,
)
from .documents import (
    DocumentError,
    parse_diagram,
    parse_factorization,
    serialize_diagram,
    serialize_factorization,
)
from .svg import export_svg
from .cli import main, run_cli

__all__ = [
    "Arc",
    "BandFactor",
    "BraidError",
    "BraidWord",
    "BridgeParams",
    "BridgePoint",
    "Certificate",
    "DiagramError",
    "DocumentError",
    "Factorization",
    "HurwitzOrbit",
    "InvariantLedger",
    "NormalForm",
    "TorusDiagram",
    "ValidationReport",
    "assemble",
    "bridge_params",
    "certify",
    "check_transverse",
    "compose",
    "equal",
    "expand",
    "exponent_sum",
    "export_svg",
    "factorization_key",
    "free_reduce",
    "full_twist",
    "genus_expected",
    "handle_reduce",
    "hurwitz_move",
    "hurwitz_orbit",
    "identity",
    "invert",
    "main",
    "make_ledger",
    "normal_form",
    "parse_diagram",
    "parse_factorization",
    "run_cli",
    "serialize_diagram",
    "serialize_factorization",
    "standard_factorization",
    "transverse_sl",
    "validate",
    "words_equal",
]
