"""Fast independence certificates for the barrier analysis.

:func:`repro.codegen.barriers.has_cross_processor_overlap` decides
intra-clause overlap on vectors of the accessed elements and their
owners, O(n) NumPy work per clause.  The common case — the clause never
reads the array it writes — is decidable without building them: under
owner-computes a non-replicated write gives every element exactly one
writing processor, and reads of *other* arrays can never overlap those
writes.  The barrier pass consults this certificate first and builds
the vectors only when it abstains.
"""

from __future__ import annotations

from typing import Dict

from ..core.clause import Clause

__all__ = ["certified_independent"]


def certified_independent(clause: Clause, decomps: Dict[str, object]) -> bool:
    """``True`` only when the analyzer *proves* the clause free of
    cross-processor overlap without looking at an index; ``False`` means
    "unknown — test the accesses", never "overlap exists"."""
    dec = decomps.get(clause.lhs.name)
    if dec is None or getattr(dec, "is_replicated", False):
        return False
    if clause.domain.dim != 1:
        return False
    # guard refs are included in Clause.reads(); any read of the written
    # array (even same-index) leaves the decision to the access vectors
    return all(r.name != clause.lhs.name for r in clause.reads())
