"""Byte-level determinism of ``solve`` over the whole census.

The digest below was recorded from the solver as it stood before child
graphs kept their parent's vertex ids.  Every change to reductions, lifts,
ids or tie-breaking must leave every decomposition of every connected graph
with n <= 8 and max degree <= 5 byte-identical, or update this digest on
purpose and say why.
"""

import hashlib

from gallai import enumerate_connected, format_decomposition, solve

CENSUS_DIGEST = "75dac0b84c18fc214ea0d6ff17c20a18181506e1143062d46245d54fd64e1962"


def test_census_decompositions_are_byte_identical():
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in enumerate_connected(n, 5):
            digest.update(format_decomposition(solve(g).decomposition).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == CENSUS_DIGEST
