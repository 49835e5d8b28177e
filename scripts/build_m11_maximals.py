#!/usr/bin/env python3
"""Regenerate the bundled M11 group and maximal-subgroup fixture files.

The five maximal classes are built deterministically from the group itself:
point stabilizer (index 11), a two-generator subgroup of order 660 (index 12),
the Sylow-3 normalizer (index 55), a two-generator subgroup of order 120
(index 66), and an involution centralizer (index 165). The package re-verifies
subgroup membership, index, class length and maximality on every ingest, so
this script only has to find correct generators once.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from covnum.groups import PermGroup, format_group_file, parse_group_file
from covnum.perms import format_cycles, parse_permutation
from covnum.subgroups import Subgroup, algebra, maximal_classes_from_file

DATA = Path(__file__).resolve().parents[1] / "src" / "covnum" / "data"


def build() -> tuple[str, str]:
    """The texts of ``m11.grp`` and ``m11.max``."""
    deg = 11
    gens = [parse_permutation("(1,2,3,4,5,6,7,8,9,10,11)", deg),
            parse_permutation("(3,7,11,8)(4,10,5,6)", deg)]
    m11 = PermGroup(deg, gens, name="M11")
    assert m11.order == 7920
    alg = algebra(m11)
    elems = alg.elems

    def two_generated(order, seed):
        for x in range(1, alg.n):
            ids = alg.closure([seed, x])
            if len(ids) == order:
                return ids
        raise AssertionError(f"no subgroup of order {order} found")

    # index 11: stabilizer of the last point
    stab = frozenset(i for i, p in enumerate(elems) if p(10) == 10)
    assert len(stab) == 720

    # index 12: order 660, generated by an 11-element and one more element
    t11 = next(i for i in range(1, alg.n) if elems[i].order == 11)
    l211 = two_generated(660, t11)

    # index 55: normalizer of a Sylow 3-subgroup (elementary abelian of order 9)
    t3 = next(i for i in range(1, alg.n) if elems[i].order == 3)
    syl3 = None
    for x in range(1, alg.n):
        if elems[x].order == 3:
            ids = alg.closure([t3, x])
            if len(ids) == 9:
                syl3 = ids
                break
    assert syl3 is not None
    norm = frozenset(
        g for g in range(alg.n)
        if frozenset(alg.index[elems[x].conjugated_by(elems[g]).images] for x in syl3) == syl3)
    assert len(norm) == 144, len(norm)

    # index 66: order 120, generated by a 5-element and one more element
    t5 = next(i for i in range(1, alg.n) if elems[i].order == 5)
    s5 = two_generated(120, t5)

    # index 165: centralizer of an involution
    t2 = next(i for i in range(1, alg.n) if elems[i].order == 2)
    cent = frozenset(g for g in range(alg.n)
                     if elems[g] * elems[t2] == elems[t2] * elems[g])
    assert len(cent) == 48, len(cent)

    subs = [Subgroup(m11, ids) for ids in (stab, l211, norm, s5, cent)]
    lines = []
    for i, sub in enumerate(subs, start=1):
        orbit = alg.set_orbit(sub.elements)
        lines.append(f"[class {i}]")
        lines.append(f"index {sub.index}")
        lines.append(f"length {len(orbit)}")
        lines += [format_cycles(g) for g in sub.generators]
        lines.append("")
    return format_group_file(m11), "\n".join(lines)


def main() -> None:
    group_text, maximals_text = build()
    (DATA / "m11.grp").write_text(group_text)
    (DATA / "m11.max").write_text(maximals_text)
    mx = maximal_classes_from_file(parse_group_file(group_text, name="M11"), maximals_text)
    print("ingest verification passed:",
          [(c.label, c.rep.order, c.index, c.class_length) for c in mx])


if __name__ == "__main__":
    main()
