"""repro.srcfi — source-level fault injection (the paper's missing tier).

Machine-level SWIFI covers assignment and checking faults; the paper's
§5 verdict is that algorithm and function faults — ~44% of the field
distribution — cannot be emulated at that level.  This package injects
those faults where they actually live: as ODC-typed mutations of the
MiniC statement trees, compiled into mutant binaries that run through the
unchanged campaign machinery.  :class:`SourceFault` is the
``tier="source"`` member of the :class:`repro.swifi.InjectionSpec`
hierarchy; ``CampaignConfig(tier="source")`` routes any campaign here,
and :mod:`repro.experiments.srcfi_compare` measures per-ODC-class
agreement between the two tiers.
"""

from .campaign import run_source_fault
from .locator import SourceErrorSet, SourceLocator, generate_source_error_set
from .mutator import (
    MutantCache,
    SourceMutant,
    SrcfiError,
    realize_source_fault,
    recompiled_identical,
)
from .operators import (
    ALGORITHM_CLASS,
    COUNTERPART_APPROXIMATE,
    COUNTERPART_EXACT,
    COUNTERPART_NONE,
    FUNCTION_CLASS,
    MUTATION_CLASSES,
    OPERATORS,
    OPERATORS_BY_NAME,
    MutationError,
    MutationOperator,
    MutationSite,
    get_operator,
    operators_for_class,
)
from .spec import SourceFault

__all__ = [
    "ALGORITHM_CLASS",
    "COUNTERPART_APPROXIMATE",
    "COUNTERPART_EXACT",
    "COUNTERPART_NONE",
    "FUNCTION_CLASS",
    "MUTATION_CLASSES",
    "MutantCache",
    "MutationError",
    "MutationOperator",
    "MutationSite",
    "OPERATORS",
    "OPERATORS_BY_NAME",
    "SourceErrorSet",
    "SourceFault",
    "SourceLocator",
    "SourceMutant",
    "SrcfiError",
    "generate_source_error_set",
    "get_operator",
    "operators_for_class",
    "realize_source_fault",
    "recompiled_identical",
    "run_source_fault",
]
