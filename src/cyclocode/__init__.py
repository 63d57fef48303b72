"""Exact parameters, defining sets, and verifiable dual-distance certificates
for a family of affine-invariant extended cyclic codes and the narrow-sense
primitive BCH codes they contain."""

from .bounds import (
    audit,
    build_certificate,
    classify_case,
    max_zero_prefix,
    stated_bound,
    verify_certificate,
)
from .cosets import DefiningSet
from .counting import CodeParams, class_sizes, closed_size_T
from .defsets import build_T, dimension, dual_set, dual_set_pattern
from .errors import (
    ConsistencyError,
    CyclocodeError,
    ParameterError,
    ResourceLimitError,
    ZeroCodeError,
)
from .galois import field_make
from .oracle import dual_min_distance

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "ConsistencyError",
    "CyclocodeError",
    "DefiningSet",
    "ParameterError",
    "ResourceLimitError",
    "ZeroCodeError",
    "audit",
    "build_T",
    "build_certificate",
    "class_sizes",
    "classify_case",
    "closed_size_T",
    "dimension",
    "dual_min_distance",
    "dual_set",
    "dual_set_pattern",
    "field_make",
    "max_zero_prefix",
    "stated_bound",
    "verify_certificate",
]
