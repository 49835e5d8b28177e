import pytest

from covnum import library
from covnum.cover import SolveBudget, sigma_exact
from covnum.errors import BudgetExceeded, CyclicGroup, OutOfRange, Unknown
from covnum.groups import PermGroup
from covnum.perms import parse_permutation
from covnum.registry import KnownEntry, is_sigma_elementary, lookup_known, registry, \
    sigma_formula, sigma_solvable
from covnum.subgroups import LATTICE_MAX_ORDER, chief_series, complements, coset_action, \
    minimal_normal_subgroups


def test_lookup_examples():
    assert lookup_known("M11").exact == 23
    assert lookup_known("J2").bounds == (1063, 1121)
    assert lookup_known("A7 wr 2").bounds == (447, 667)
    with pytest.raises(Unknown):
        lookup_known("Monster")


def test_registry_rows_well_formed():
    rows = registry()
    assert len(rows) > 100
    for entry in rows.values():
        assert (entry.exact is None) != (entry.bounds is None)
        assert entry.citation
        if entry.bounds and entry.bounds[1] is not None:
            assert entry.bounds[0] <= entry.bounds[1]


def test_entry_matches():
    entry = KnownEntry("X", None, (10, 20), None, "c")
    assert entry.matches(15) and not entry.matches(9)
    open_entry = KnownEntry("Y", None, (10, None), None, "c")
    assert open_entry.matches(10**9) and not open_entry.matches(9)


def test_entry_meets_bracket():
    exact = KnownEntry("X", 10, None, None, "c")
    assert exact.meets(8, 10) and exact.meets(10, 12) and not exact.meets(11, 12)
    assert not exact.meets(8, 9)
    entry = KnownEntry("Y", None, (10, 20), None, "c")
    assert entry.meets(5, 10) and entry.meets(20, 30) and not entry.meets(21, 30)
    assert not entry.meets(5, 9)
    open_entry = KnownEntry("Z", None, (10, None), None, "c")
    assert open_entry.meets(10**9, 10**9 + 1) and not open_entry.meets(1, 9)


def test_formula_examples():
    assert sigma_formula("psl2", 11) == 67
    assert sigma_formula("pgl2", 11) == 67
    assert sigma_formula("psl2", 8) == 36
    assert sigma_formula("agl", 3, 2) == 15
    assert sigma_formula("asl", 3, 3) == 40
    assert sigma_formula("suzuki", 8) == 2080
    assert sigma_formula("symmetric", 5) == 16
    assert sigma_formula("symmetric", 7) == 64
    assert sigma_formula("alternating", 6) == 16
    assert sigma_formula("alternating", 10) == 256
    assert sigma_formula("solvable", 2, 3) == 9


def test_formula_out_of_range():
    for family, params in [
        ("psl2", (7,)),       # small q has its own exceptional values
        ("psl2", (9,)),
        ("psl2", (6,)),       # not a prime power
        ("psl2", (12,)),
        ("pgl2", (100,)),
        ("agl", (3, 1)),
        ("asl", (1, 6)),
        ("pgl2", (4,)),
        ("agl", (2, 5)),      # dimension 2 reduces to psl2
        ("suzuki", (4,)),
        ("suzuki", (16,)),
        ("symmetric", (9,)),  # excluded odd degree
        ("symmetric", (10,)),
        ("alternating", (8,)),
        ("solvable", (6, 1)),
        ("nonsense", (1,)),
    ]:
        with pytest.raises(OutOfRange):
            sigma_formula(family, *params)


def test_formula_agrees_with_registry():
    assert sigma_formula("psl2", 11) == lookup_known("PSL(2,11)").exact
    assert sigma_formula("psl2", 13) == lookup_known("PSL(2,13)").exact
    assert sigma_formula("suzuki", 8) == lookup_known("Sz(8)").exact
    for n, q, name in [(3, 2, "AGL(3,2)"), (4, 2, "AGL(4,2)"), (3, 3, "AGL(3,3)"),
                       (5, 2, "AGL(5,2)"), (3, 4, "AGL(3,4)"), (4, 3, "AGL(4,3)"),
                       (6, 2, "AGL(6,2)"), (7, 2, "AGL(7,2)"), (1, 5, "AGL(1,5)")]:
        assert sigma_formula("agl", n, q) == lookup_known(name).exact


def test_sigma_solvable_examples():
    assert sigma_solvable(library.group("S3")) == 4
    assert sigma_solvable(library.group("V4")) == 3
    d8 = library.group("D8")
    assert sigma_solvable(d8) == 3 == sigma_exact(d8).upper


def test_sigma_solvable_rejects():
    with pytest.raises(CyclicGroup):
        sigma_solvable(library.group("C6"))
    with pytest.raises(OutOfRange):
        sigma_solvable(library.group("A5"))
    # decided from the chief series before the maximal classes, which M11's
    # order puts over the lattice budget
    with pytest.raises(OutOfRange, match="group is not solvable"):
        sigma_solvable(library.group("M11"))


def test_sigma_solvable_when_tuples_outnumber_the_group():
    """A group of order 36 whose chief factor of order 9 at the bottom needs
    two generators modulo it, so 81 tuples of coset representatives: more
    than |G|, and the search still counts the 9 complements."""
    group = PermGroup(6, [parse_permutation("(1,6)(2,3)", 6),
                          parse_permutation("(1,3,4,2)(5,6)", 6)])
    assert chief_factors(group) == [(9, 9), (2, 0), (2, 1)]
    assert sigma_solvable(group) == 10 == sigma_exact(group).upper


def test_sigma_solvable_details():
    group = library.group("Q8")
    assert sigma_solvable(group) == 3
    factors = chief_factors(group)
    assert [order for order, _ in factors] == [2, 2, 2]
    assert factors[0][1] == 0  # the centre has no complement


def chief_factors(group):
    """(order, complement count) of each chief factor from the bottom: the
    facts sigma_solvable reads, through the two functions it composes."""
    chief = chief_series(group)
    return [(above.order // below.order, len(complements(below, above)))
            for below, above in zip(chief, chief[1:])]


def test_sigma_elementary_examples():
    assert is_sigma_elementary(library.group("A5")).value is True
    assert is_sigma_elementary(library.group("S5")).value is True
    report = is_sigma_elementary(library.group("D8"))
    assert report.value is False
    assert report.checks[0].quotient_sigma == 3 == report.sigma


def test_lattice_cap_reaches_every_computed_maximal_list():
    """The budget's lattice cap bounds G's own maximal list, and no other:
    with A5xC2's maximal classes given, its A5 quotient (order 60) is
    solved over a cap of 50 from them, and without them G's list is over
    the cap."""
    group = library.group("A5xC2")
    report = is_sigma_elementary(group, SolveBudget(lattice_max_order=50),
                                 mx=library.maximals("A5xC2"))
    assert [(c.normal_order, c.quotient_sigma, c.verdict) for c in report.checks] == [
        (2, 10, "not_greater"), (60, None, "cyclic")]
    with pytest.raises(BudgetExceeded, match="lattice budget: order 120 > 50"):
        is_sigma_elementary(group, SolveBudget(lattice_max_order=50))
    with pytest.raises(CyclicGroup):  # rejected before its list is computed
        is_sigma_elementary(library.group("C6"), SolveBudget(lattice_max_order=5))
    with pytest.raises(BudgetExceeded, match="lattice budget: order 360 > 100"):
        sigma_exact(library.group("A6"), SolveBudget(lattice_max_order=100))


def image_quotient_sigmas(group):
    """sigma(G/N) for each minimal normal N, in order, from the image group
    of the coset action on N and its own exact solve; None for a cyclic
    quotient."""
    values = []
    for sub in minimal_normal_subgroups(group):
        image, _ = coset_action(sub)
        if image.is_cyclic():
            values.append(None)
            continue
        result = sigma_exact(image)
        assert result.optimal
        values.append(result.upper)
    return values


def test_quotient_sigma_matches_the_image_group(sigma_of):
    """sigma(G/N) read off G's maximal classes that contain N is the image
    group's own, on the noncyclic library groups within the lattice cap and
    on the solvable suite."""
    groups = [(library.group(key), library.maximals(key), sigma_of(key))
              for key in library.names()
              if not library.group(key).is_cyclic()
              and library.group(key).order <= LATTICE_MAX_ORDER]
    groups += [(group, None, None) for group in library.solvable_suite()]
    noncyclic = 0
    for group, mx, sigma in groups:
        report = is_sigma_elementary(group, sigma=sigma, mx=mx)
        expected = image_quotient_sigmas(group)
        assert [c.quotient_sigma for c in report.checks] == expected, group.name
        noncyclic += sum(value is not None for value in expected)
    assert noncyclic >= 20


@pytest.mark.parametrize("key, value", [("S5", True), ("A5xC2", False), ("AGL32", False)])
def test_quotient_sigma_hook_gives_the_hook_free_report(key, value, monkeypatch):
    """With sigma(G) and the ``quotient_sigma`` hook given, each noncyclic
    quotient's sigma comes from its image group, and G's maximal list is
    never computed; the report is the hook-free one."""
    group = library.group(key)
    report = is_sigma_elementary(group)
    assert report.value is value
    images = []

    def image_sigma(image):
        images.append(image.order)
        return sigma_exact(image).upper

    def no_maximal_list(*args):
        raise AssertionError("G's maximal list was computed")

    monkeypatch.setattr("covnum.registry.maximal_classes_computed", no_maximal_list)
    assert is_sigma_elementary(group, sigma=report.sigma, quotient_sigma=image_sigma) == report
    assert images == [group.order // c.normal_order for c in report.checks
                      if c.verdict != "cyclic"]


@pytest.mark.parametrize("key", ["AGL32", "A5xC2"])
def test_default_route_builds_and_solves_no_quotient(key, monkeypatch):
    """Once sigma(G) is known, the default route neither builds a quotient
    group nor runs sigma_exact on one: both raise from then on."""
    group = library.group(key)
    solved = []

    def sigma_exact_of_g_only(target, *args, **kwargs):
        assert not solved, "sigma_exact called past sigma(G)"
        solved.append(target)
        return sigma_exact(target, *args, **kwargs)

    def no_coset_action(sub):
        raise AssertionError("a quotient group was built")

    monkeypatch.setattr("covnum.registry.sigma_exact", sigma_exact_of_g_only)
    monkeypatch.setattr("covnum.registry.coset_action", no_coset_action)
    report = is_sigma_elementary(group)
    assert solved == [group]
    assert report.value is False
    assert any(c.quotient_sigma is not None for c in report.checks)


def test_sigma_elementary_evidence_records_cyclic_quotients():
    report = is_sigma_elementary(library.group("S5"))
    assert any(c.verdict == "cyclic" for c in report.checks)


def test_registry_agrees_with_exact_solver_everywhere(sigma_of):
    """Master consistency property: every library group with a registry exact
    value gets the same number from the solver."""
    checked = 0
    for key in library.names():
        entry = library.entry(key)
        if entry.registry_name is None:
            continue
        known = lookup_known(entry.registry_name)
        if known.exact is None:
            continue
        assert sigma_of(key) == known.exact, key
        checked += 1
    assert checked >= 10
