#!/usr/bin/env python3
"""Regenerate the bundled M11 group and maximal-subgroup fixture files.

The maximal list is the package's own computed route, maximal_classes_computed,
run at a 10,000 lattice cap (M11 has order 7,920), and written with
format_maximal_file: five classes of indices 11, 12, 55, 66 and 165. It is
complete by construction, and ingesting the file gives the same classes back.
The walk takes about two seconds; the ingest each run does, a few hundredths.

Run: python3 scripts/build_m11_maximals.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from covnum.groups import PermGroup, format_group_file, parse_group_file
from covnum.perms import parse_permutation
from covnum.subgroups import format_maximal_file, maximal_classes_computed, \
    maximal_classes_from_file

DATA = Path(__file__).resolve().parents[1] / "src" / "covnum" / "data"


def build() -> tuple[str, str]:
    """The texts of ``m11.grp`` and ``m11.max``."""
    gens = [parse_permutation(c, 11) for c in ("(1,2,3,4,5,6,7,8,9,10,11)",
                                               "(3,7,11,8)(4,10,5,6)")]
    m11 = PermGroup(11, gens, name="M11")
    assert m11.order == 7920
    return format_group_file(m11), format_maximal_file(maximal_classes_computed(m11, 10_000))


def main() -> None:
    group_text, maximals_text = build()
    (DATA / "m11.grp").write_text(group_text)
    (DATA / "m11.max").write_text(maximals_text)
    mx = maximal_classes_from_file(parse_group_file(group_text, name="M11"), maximals_text)
    print("ingest verification passed:",
          [(c.label, c.rep.order, c.index, c.class_length) for c in mx])


if __name__ == "__main__":
    main()
