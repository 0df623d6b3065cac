"""A scalar F*() written straight from the paper: the differential oracle.

Every dimension keeps an axial vector of expansion records
``(N*, M*, C[k], S)`` — first chunk index of the adjoined segment,
segment start address, multiplying coefficients, file displacement.
``F*(I)`` binary-searches each dimension's vector for its last record
with ``N* <= I_j``, keeps the candidate whose segment starts last (the
largest ``M*``; a never-extended dimension's sentinel has ``M* = -1``),
and evaluates Eq. (1) with that record's dimension ``l``::

    q* = M* + (I_l - N*_l) * C_l + sum_{j != l} I_j * C_j

Only the records' stored fields are read.  The search and the
arithmetic share no code with :mod:`repro.core`, so tests can hold the
library's plans and mappings against this.
"""

from __future__ import annotations

from typing import Sequence


def candidate(records: Sequence, i: int):
    """The last record whose first chunk index is ``<= i`` (binary
    search; records are sorted by first chunk index, the first is 0)."""
    lo, hi = 0, len(records)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if records[mid].start_index <= i:
            lo = mid
        else:
            hi = mid
    return records[lo]


def f_star(eci, index: Sequence[int]) -> int:
    """Linear address of chunk ``index``: the paper's F*()."""
    gov = None
    for vec, i in zip(eci.axial_vectors, index):
        rec = candidate(list(vec), i)
        if gov is None or rec.start_address > gov.start_address:
            gov = rec
    l = gov.dim
    q = gov.start_address + (index[l] - gov.start_index) * gov.coeffs[l]
    for j, (i, c) in enumerate(zip(index, gov.coeffs)):
        if j != l:
            q += i * c
    return q
