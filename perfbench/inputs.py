"""Seeded inputs: group-file texts derived from the library groups.

For each group the benchmark draws a random generating set from the library
group's elements, keeps it only if it generates a group of the same order,
and conjugates it by a random relabelling of the points. The program under
test then sees only the resulting text. Covering numbers, subgroup counts
and sigma-elementary verdicts are invariant under both steps, so the golden
values hold on every seed while element ids, class orders and the search
path change with it.
"""

from __future__ import annotations

import random
from importlib import resources

from covnum import library
from covnum.groups import PermGroup, parse_group_file
from covnum.perms import Permutation, format_cycles, parse_permutation

# Tries per generating-set size before allowing one more generator; the
# solvable suite holds groups (C2^3, D8xC2) that no two elements generate.
TRIES_PER_SIZE = 64


def _relabel(p: Permutation, pi: list[int], pi_inv: list[int]) -> Permutation:
    """pi^-1 p pi: the same permutation with every point x renamed pi[x]."""
    return Permutation(tuple(pi[p.images[pi_inv[y]]] for y in range(len(pi))))


def _generating_set(rng: random.Random, group: PermGroup) -> list[Permutation]:
    elems = group.elements()
    size = 2
    while True:
        for _ in range(TRIES_PER_SIZE):
            gens = [elems[rng.randrange(1, len(elems))] for _ in range(size)]
            if PermGroup(group.degree, gens).order == group.order:
                return gens
        size += 1


def group_text(group: PermGroup, seed: int, stream: str,
               maximals_text: str | None = None) -> tuple[str, str | None]:
    """Group-file text for a seeded presentation of ``group``; with
    ``maximals_text``, that maximal-subgroup file relabelled to match."""
    rng = random.Random(f"covnum-bench:{seed}:{stream}")
    gens = _generating_set(rng, group)
    pi = list(range(group.degree))
    rng.shuffle(pi)
    pi_inv = [0] * len(pi)
    for x, y in enumerate(pi):
        pi_inv[y] = x
    lines = [f"degree {group.degree}"]
    lines += [format_cycles(_relabel(g, pi, pi_inv)) for g in gens]
    text = "\n".join(lines) + "\n"
    built = parse_group_file(text).order
    if built != group.order:
        raise RuntimeError(f"{stream}: generated order {built} != {group.order}")
    if maximals_text is None:
        return text, None
    out = []
    for raw in maximals_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("("):
            p = parse_permutation(line, group.degree)
            line = format_cycles(_relabel(p, pi, pi_inv))
        out.append(line)
    return text, "\n".join(out) + "\n"


def library_text(key: str, seed: int, stream: str | None = None) -> tuple[str, str | None]:
    """Seeded texts for a library group, with its bundled maximals if any."""
    name = library.entry(key).maximals_file
    maximals = resources.files("covnum.data").joinpath(name).read_text() if name else None
    return group_text(library.group(key), seed, stream or key, maximals)


def solvable_texts(seed: int) -> list[tuple[str, str]]:
    """(name, text) for every group of ``library.solvable_suite()``."""
    return [(g.name, group_text(g, seed, f"solvable:{g.name}")[0])
            for g in library.solvable_suite()]
