"""The complexes of the homology constructors pinned by digest.

For kZ/2 over F_5 at truncation 4, kZ/3 over F_3 at 3 and kS3 over Q at 2,
each family below goes into one sha256 digest: every block of d and d'
(shape and entries), the ``bicomplex_report`` title and checks, and the
JSON of all six ``homology_report`` variants (``which`` x ``cohomology``).

* ``coefficient``: ``coefficient_complex`` on lines 1-4 for each (M, N)
  pair from {regular, unit};
* ``yd_bidifferential``: on the regular and on the unit module;
* ``generic``: ``generic_differentials`` with ``eps_characters`` on the
  system (H, M_regular, H*).

The digests were recorded before the constructors shared one block
builder and lost their check flags.  A second test checks that the ranks
d and d' take from their blocks equal the ranks of the assembled
total-degree matrices.
"""

import hashlib

import pytest

from braidalg import io as bio
from braidalg.homology import (
    COMPLEX_LINES,
    coefficient_complex,
    eps_characters,
    generic_differentials,
    yd_bidifferential,
)
from braidalg.hopf import cyclic_group_table, group_algebra, s3_table
from braidalg.linalg import GF, QQ, rank
from braidalg.systems import build_yd_system
from braidalg.yd import regular_yd_group_algebra, unit_yd

CASES = {
    "kZ2/F5": (cyclic_group_table(2), GF(5), 4),
    "kZ3/F3": (cyclic_group_table(3), GF(3), 3),
    "kS3/Q": (s3_table(), QQ, 2),
}


def _text(cx):
    lines = [f"{cx.field!r} K={cx.max_total} dims={sorted(cx.dims.items())}"]
    for which, blocks in (("d", cx.d_blocks), ("d_prime", cx.dprime_blocks)):
        for key, mat in sorted(blocks.items()):
            lines.append(f"{which} {key} {mat.n_rows}x{mat.n_cols}: {sorted(mat.entries.items())!r}")
    lines.append(str(cx.bicomplex_report))
    for which in ("d", "d_prime", "total"):
        for cohomology in (False, True):
            lines.append(bio.canonical_json(bio.homology_report(cx, which, cohomology)))
    return "\n".join(lines)


def _complexes(name, family):
    (table, names), field, top = CASES[name]
    b = group_algebra(table, names, field=field)
    mods = (regular_yd_group_algebra(b), unit_yd(b))
    if family == "coefficient":
        return [coefficient_complex(b, m, n, line, top) for m in mods for n in mods for line in COMPLEX_LINES]
    if family == "yd_bidifferential":
        return [yd_bidifferential(b, m, top) for m in mods]
    s = build_yd_system(b, [mods[0]], "yd")
    ch_h, ch_hs = eps_characters(s)
    return [generic_differentials(s, ch_hs, ch_h, top)]


PINS = {
    ("kZ2/F5", "coefficient"): "c61d253be1a5a6a512fe0092d7194b7c67906628df1fdd9f5e2675674967d621",
    ("kZ2/F5", "yd_bidifferential"): "2590ba339a4fd061502ec48607fc20358c6ca737b4b8916b6b95c385fd19bf05",
    ("kZ2/F5", "generic"): "958690ec7c61fa0aa9c8d640282da5524f21645d4a36d315ce69f927ef3ec274",
    ("kZ3/F3", "coefficient"): "84b12f77a7deccf782ac205219045ad842c28cec16b6f6e8dc4c3b337720ff4f",
    ("kZ3/F3", "yd_bidifferential"): "32fc8136e6f1a4ab5e06dd5258691690ef5686617d3d072ea07cbc5567e6d378",
    ("kZ3/F3", "generic"): "41426864e3edcc86fe75a96e87209549221f9543b8579424e18b09cd19fa58b2",
    ("kS3/Q", "coefficient"): "d16125b491552611f774266e262c916f55781ecb5aefaa52fa6fcf37caaabd54",
    ("kS3/Q", "yd_bidifferential"): "9e1ef8b83c16f125d44af474e52c411f7441d6566f482260125550ab5e9028da",
    ("kS3/Q", "generic"): "226bfd39b088506688e406a8ccc88a75574d83860c71b47461e941c6b7934229",
}


@pytest.mark.parametrize("name, family", sorted(PINS))
def test_complex_digest(name, family):
    cxs = _complexes(name, family)
    digest = hashlib.sha256("\n\n".join(_text(cx) for cx in cxs).encode()).hexdigest()
    assert digest == PINS[name, family]


@pytest.mark.parametrize("name, family", sorted(PINS))
def test_block_ranks_equal_the_assembled_ranks(name, family):
    for cx in _complexes(name, family):
        for which in ("d", "d_prime", "total"):
            for k in range(1, cx.max_total + 1):
                assert cx.rank(which, k) == rank(cx.assemble(which, k))
