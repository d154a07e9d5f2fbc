"""Working precision for the floating outputs.

All geometry upstream is exact; floats appear only in final log and pi^2
evaluations and in decimal output columns, as the package's own binary
floats (`exactnum`).  Precision is in bits of mantissa, at least 64,
default 128, overridable through the FAREYCF_PRECISION environment
variable, which is read when a default precision is needed, never at
import.
"""

from __future__ import annotations

import os

MIN_PRECISION = 64
DEFAULT_PRECISION = 128  # without FAREYCF_PRECISION


def checked_precision(bits: int | None) -> int:
    """`bits`, or the default precision when it is None, checked against
    MIN_PRECISION; a malformed FAREYCF_PRECISION raises ValueError."""
    name = "precision_bits"
    if bits is None:
        name, text = "FAREYCF_PRECISION", os.environ.get("FAREYCF_PRECISION")
        if text is None:
            return DEFAULT_PRECISION
        try:
            bits = int(text)
        except ValueError:
            raise ValueError(f"{name} must be a whole number of bits, not {text!r}") from None
    if bits < MIN_PRECISION:
        raise ValueError(f"{name} must be >= {MIN_PRECISION}")
    return bits
