"""Divisor-class arithmetic and Hilbert-scheme bookkeeping for curves on a
smooth cubic surface.

The public surface is re-exported here; the CLI lives in ``cubiccurves.cli``.
A re-exported name imports its module on first use (PEP 562), so importing
the package, or a CLI command, loads only the modules it reads.
"""

import importlib

# The function cohomology shares its module's name, and importing a submodule
# binds the module on the package, so the function is bound here, eagerly.
from .cohomology import cohomology

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "census": "CensusRecord census_csv census_range enumerate_families",
        "cohomology": "CohomologyTriple ZariskiDecomposition cohomology euler_char fixed_part h0 is_effective is_nef",
        "curve": "abnormality has_smooth_member hodge_genus_bound invariants require_smooth_member",
        "errors": "DegeneratePoints DegreeTooSmall DprimeNotNef GenusOutOfHodgeRange InvalidK InvariantViolation"
        " NonPositiveDegree NotALine NotEffective NotSmoothMember OracleTooLarge PreconditionError",
        "lattice": "Cremona DivisorClass K Perm StandardReduction apply_generator apply_word conics27"
        " degree is_standard lines27 reduce_to_standard",
        "obstruction": "HilbertDimResult KleppeVerdict ObstructionVerdict classify gen_obstructed"
        " h0_normal hilbert_dim kleppe_verdict restriction_surjective",
        "oracle": "PointConfig exact_rank h0_interpolation modular_rank point_config",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
