"""Incidence profiles: how element classes meet maximal-subgroup classes.

The profile is the machine form of an element-distribution table. Entry
(j, i) holds a pair (n, k): one subgroup of class i contains n elements of
element class j, and one element of class j lies in k subgroups of class i.
Double counting forces n * class_length(i) == k * size(j) for every entry;
the constructor asserts it.

Table grammar (tab-separated, used by both the renderer and the fixture
loader): the header row is an empty cell followed by ``M<i>(<class length>)``
column labels; each body row is ``cl_<order>`` (with ``,<j>`` appended only
when several classes share an element order) followed by one cell per
subgroup class: ``0`` when n = 0, ``<n>,P`` when k = 1, else ``<n>_<k>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .groups import ConjClassTable, PermGroup, label_index
from .subgroups import MaxClassSet


@dataclass(frozen=True)
class ElementClassInfo:
    label: str
    element_order: int
    size: int


@dataclass(frozen=True)
class SubgroupClassInfo:
    label: str
    class_length: int
    index: int | None = None


@dataclass(frozen=True)
class IncidenceProfile:
    element_classes: tuple[ElementClassInfo, ...]
    subgroup_classes: tuple[SubgroupClassInfo, ...]
    entries: tuple[tuple[tuple[int, int], ...], ...]  # [element][subgroup] -> (n, k)

    def __post_init__(self):
        for row, ec in zip(self.entries, self.element_classes):
            for (n, k), sc in zip(row, self.subgroup_classes):
                if (n == 0) != (k == 0):
                    raise ValueError(f"n/k zero mismatch at ({ec.label}, {sc.label})")
                if n * sc.class_length != k * ec.size:
                    raise ValueError(
                        f"counting identity fails at ({ec.label}, {sc.label}): "
                        f"{n}*{sc.class_length} != {k}*{ec.size}")

    def n(self, j: int, i: int) -> int:
        return self.entries[j][i][0]

    def element_index(self, label: str) -> int:
        return label_index([ec.label for ec in self.element_classes], label,
                           "element class")

    def subgroup_index(self, label: str) -> int:
        return label_index([sc.label for sc in self.subgroup_classes], label,
                           "subgroup class")


def incidence_profile(group: PermGroup, cls: ConjClassTable,
                      mx: MaxClassSet) -> IncidenceProfile:
    """Build the profile by counting, for one representative H of each maximal
    class, the elements of H in each element class: n(j, i) = |H ∩ C_j|."""
    assignment = group.class_assignment()
    columns = []
    for mcls in mx.classes:
        counts = [0] * len(cls.classes)
        for x in mcls.rep.elements:
            j = assignment[x]
            if j >= 0:
                counts[j] += 1
        columns.append(counts)
    entries = []
    for j, ec in enumerate(cls.classes):
        row = []
        for i, mcls in enumerate(mx.classes):
            n = columns[i][j]
            if n == 0:
                row.append((0, 0))
            else:
                num = n * mcls.class_length
                if num % ec.size:
                    raise ValueError(
                        f"non-integral incidence multiplicity at ({ec.label}, {mcls.label})")
                row.append((n, num // ec.size))
        entries.append(tuple(row))
    return IncidenceProfile(
        element_classes=tuple(
            ElementClassInfo(c.label, c.element_order, c.size) for c in cls.classes),
        subgroup_classes=tuple(
            SubgroupClassInfo(m.label, m.class_length, m.index) for m in mx.classes),
        entries=tuple(entries),
    )


def render_profile(profile: IncidenceProfile) -> str:
    """Render per the table grammar in the module docstring."""
    header = [""] + [f"{sc.label}({sc.class_length})" for sc in profile.subgroup_classes]
    lines = ["\t".join(header)]
    for j, ec in enumerate(profile.element_classes):
        cells = [ec.label]
        for i in range(len(profile.subgroup_classes)):
            n, k = profile.entries[j][i]
            if n == 0:
                cells.append("0")
            elif k == 1:
                cells.append(f"{n},P")
            else:
                cells.append(f"{n}_{k}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _positive(text: str, lineno: int, what: str) -> int:
    """A table number that must be a positive integer; ``what`` names it in
    the ParseError otherwise."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(f"bad {what}", lineno)
    return value


def parse_profile(text: str) -> IncidenceProfile:
    """Load a profile from its rendered table form.

    Element-class sizes are reconstructed from the counting identity
    (size = n * class_length / k) and cross-checked over every nonzero entry.
    """
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise ParseError("empty profile table")
    header_line, header_text = lines[0]
    header = header_text.split("\t")
    if header[0].strip():
        raise ParseError("header must start with an empty cell", header_line)
    sub_classes = []
    for cell in header[1:]:
        cell = cell.strip()
        if not cell.endswith(")") or "(" not in cell:
            raise ParseError(f"bad subgroup-class header {cell!r}", header_line)
        label, paren = cell[:-1].split("(", 1)
        length = _positive(paren, header_line, f"class length in {cell!r}")
        sub_classes.append(SubgroupClassInfo(label=label, class_length=length))
    elem_classes = []
    entries = []
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(sub_classes) + 1:
            raise ParseError("wrong number of cells", lineno)
        label = cells[0].strip()
        if not label.startswith("cl_"):
            raise ParseError(f"bad element-class label {label!r}", lineno)
        order = _positive(label[3:].split(",")[0], lineno, f"element order in {label!r}")
        row_nk = []
        for cell in cells[1:]:
            cell = cell.strip()
            if cell == "0":
                row_nk.append((0, 0))
            elif cell.endswith(",P"):
                row_nk.append((_positive(cell[:-2], lineno, f"entry {cell!r}"), 1))
            elif "_" in cell:
                n, k = cell.split("_", 1)
                row_nk.append((_positive(n, lineno, f"entry {cell!r}"),
                               _positive(k, lineno, f"entry {cell!r}")))
            else:
                raise ParseError(f"bad entry {cell!r}", lineno)
        size = None
        for (n, k), sc in zip(row_nk, sub_classes):
            if n:
                cand, rem = divmod(n * sc.class_length, k)
                if rem:
                    raise ParseError(f"non-integral size for {label}", lineno)
                if size is None:
                    size = cand
                elif size != cand:
                    raise ParseError(f"inconsistent sizes for {label}", lineno)
        if size is None:
            raise ParseError(f"row {label} has no nonzero entry", lineno)
        elem_classes.append(ElementClassInfo(label=label, element_order=order, size=size))
        entries.append(tuple(row_nk))
    return IncidenceProfile(
        element_classes=tuple(elem_classes),
        subgroup_classes=tuple(sub_classes),
        entries=tuple(entries),
    )
