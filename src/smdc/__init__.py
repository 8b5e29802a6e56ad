"""Secure symmetrical multilevel diversity coding over small finite fields."""

from .coset import CosetCodeSpec
from .errors import (
    BudgetExceededError,
    DecodeFailureError,
    InsufficientSharesError,
    ParameterError,
    RegionViolationError,
    ShareFormatError,
    SmdcError,
)
from .fields import FieldSpec, binary8_field, prime_field
from .randomness import (
    RandomSymbolSource,
    SequenceSymbolSource,
    SystemSymbolSource,
    as_symbol_source,
)
from .multilevel import (
    SmdcParams,
    SmdcShareBundle,
    decode as smdc_decode,
    encode as smdc_encode,
    plan,
)
from .region import (
    InequalitySystem,
    LinExpr,
    corner_points,
    min_sum_rate,
    region,
    smdc_min_sum_rate,
    superposition_region,
    violated_subsets,
)
from .shareio import ShareFile, join_files, read_share, split_files, write_share
from .single_level import (
    SsdcShareBundle,
    encode_with_layout,
    rate_layout,
    symmetric_layout,
)
from .verify import (
    VerifierBudget,
    check_perfect_secrecy,
    check_prop2_inequality,
    check_reconstruction,
    code_for_layout,
    code_for_multilevel,
    conditional_entropy,
    enumerate_joint,
    verification_report,
)
from .wiretap import WiretapNetwork, secrecy_rate

__all__ = [
    "BudgetExceededError",
    "CosetCodeSpec",
    "DecodeFailureError",
    "FieldSpec",
    "InequalitySystem",
    "InsufficientSharesError",
    "LinExpr",
    "ParameterError",
    "RandomSymbolSource",
    "RegionViolationError",
    "SequenceSymbolSource",
    "ShareFile",
    "ShareFormatError",
    "SmdcError",
    "SmdcParams",
    "SmdcShareBundle",
    "SsdcShareBundle",
    "SystemSymbolSource",
    "VerifierBudget",
    "WiretapNetwork",
    "as_symbol_source",
    "binary8_field",
    "check_perfect_secrecy",
    "check_prop2_inequality",
    "check_reconstruction",
    "code_for_layout",
    "code_for_multilevel",
    "conditional_entropy",
    "corner_points",
    "encode_with_layout",
    "enumerate_joint",
    "join_files",
    "min_sum_rate",
    "plan",
    "prime_field",
    "rate_layout",
    "read_share",
    "region",
    "secrecy_rate",
    "smdc_decode",
    "smdc_encode",
    "smdc_min_sum_rate",
    "split_files",
    "superposition_region",
    "symmetric_layout",
    "verification_report",
    "violated_subsets",
    "write_share",
]
