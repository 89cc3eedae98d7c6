import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines import flow
from brokenlines.flow import (
    BirthField,
    BoundaryFlow,
    FlowField,
    check_conservation,
    extract,
    field_from_birth,
    field_from_dict,
    field_to_dict,
    sweep,
    total_crossing_flow,
)
from brokenlines.lattice import Edge, RectDomain
from brokenlines.lines import (
    compose,
    decompose,
    decomposition_from_csv_rows,
    decomposition_to_csv_rows,
)
from helpers import (
    add_fields,
    dict_sweep,
    max_edge_gap,
    plan_sweep,
    random_field,
    zero_field,
)

ONE = RectDomain(1, 1)


def test_single_birth_on_point_domain():
    f = field_from_birth(ONE, births=BirthField(ONE, {(0, 0): 2.5}))
    assert f.mass[Edge(0, 0, True)] == 2.5
    assert f.mass[Edge(0, 0, False)] == 2.5
    assert f.mass[Edge(-1, -1, True)] == 0.0
    assert f.mass[Edge(-1, 1, False)] == 0.0


def test_boundary_only_point_domain():
    f = field_from_birth(ONE, BoundaryFlow({(0, 0): 1.0}, {(0, 0): 0.4}))
    assert f.mass[Edge(0, 0, True)] == pytest.approx(0.6)
    assert f.mass[Edge(0, 0, False)] == 0.0
    # conservation: in 1.0 + 0.0 out = 0.4 + 0.6
    assert not check_conservation(f)


def test_zero_inputs_give_zero_field():
    d = RectDomain(3, 4)
    f = field_from_birth(d)
    assert all(v == 0 for v in f.mass.values())
    assert not check_conservation(f)
    assert total_crossing_flow(f) == 0


def test_conservation_flags_perturbed_edge():
    d = RectDomain(2, 2)
    f = random_field(d, seed=5)
    edge = Edge(0, 0, True)  # interior edge between (0,0) and (1,1)
    mass = dict(f.mass)
    mass[edge] += 1.0
    bad = check_conservation(FlowField(d, mass, "float"))
    assert sorted(y for y, _ in bad) == [(0, 0), (1, 1)]
    assert all(r == pytest.approx(1.0) for _, r in bad)


def test_extract_inverts_construction_examples():
    d = RectDomain(3, 3)
    f = field_from_birth(d, births=BirthField(d, {(2, 0): 1.5}))
    boundary, births, _ = extract(f)
    assert births.births == {(2, 0): 1.5}
    assert sum(boundary.up_in.values()) + sum(boundary.down_in.values()) == 0

    g = field_from_birth(ONE, BoundaryFlow({(0, 0): 1.0}, {(0, 0): 0.4}))
    boundary, births, exits = extract(g)
    assert boundary.up_in == {(0, 0): 1.0}
    assert boundary.down_in == {(0, 0): 0.4}
    assert births.births == {}
    assert exits.up_out[(0, 0)] == pytest.approx(0.6)
    assert exits.down_out[(0, 0)] == 0.0


@given(st.integers(0, 500), st.sampled_from(["float", "int"]))
@settings(max_examples=60, deadline=None)
def test_extract_roundtrip(seed, mode):
    d = RectDomain(4, 4)
    f = random_field(d, seed=seed, mode=mode)
    boundary, births, _ = extract(f)
    g = field_from_birth(d, boundary, births, mode=mode)
    assert max_edge_gap(f, g) <= (0 if mode == "int" else 1e-9)


def test_rebuilt_field_passes_conservation():
    for seed in range(30):
        f = random_field(RectDomain(5, 3), seed=seed)
        assert not check_conservation(f)


def test_crossing_flow_single_birth():
    d = RectDomain(4, 4)
    f = field_from_birth(d, births=BirthField(d, {(3, 1): 2.25}))
    assert total_crossing_flow(f) == pytest.approx(2.25)


def test_crossing_flow_detects_corruption():
    d = RectDomain(2, 2)
    f = random_field(d, seed=1)
    mass = dict(f.mass)
    mass[Edge(2, 0, True)] += 1.0  # exit edge: breaks the two-sided balance
    with pytest.raises(ValueError):
        total_crossing_flow(FlowField(d, mass, "float"))


def test_crossing_flow_additive():
    d = RectDomain(3, 3)
    f1 = random_field(d, seed=11)
    f2 = random_field(d, seed=12)
    total = total_crossing_flow(add_fields(f1, f2))
    assert total == pytest.approx(total_crossing_flow(f1) + total_crossing_flow(f2))


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_integer_mode_is_closed(seed):
    f = random_field(RectDomain(3, 4), seed=seed, mode="int")
    assert f.mode == "int"
    assert all(isinstance(v, int) for v in f.mass.values())
    assert isinstance(total_crossing_flow(f), int)


def test_mode_is_inferred_from_inputs():
    d = RectDomain(2, 2)
    ints = field_from_birth(d, births=BirthField(d, {(0, 0): 2}))
    floats = field_from_birth(d, births=BirthField(d, {(0, 0): 2.0}))
    assert ints.mode == "int"
    assert floats.mode == "float"


def test_mixing_modes_is_rejected():
    d = RectDomain(2, 2)
    with pytest.raises(ValueError):
        add_fields(random_field(d, 1, "int"), random_field(d, 1, "float"))


def test_input_validation():
    d = RectDomain(2, 2)
    with pytest.raises(ValueError):
        field_from_birth(d, births=BirthField(d, {(0, 0): -1.0}))
    with pytest.raises(ValueError):
        field_from_birth(d, BoundaryFlow({(1, 1): 1.0}, {}))  # (1,1) is northwest side
    with pytest.raises(ValueError):
        field_from_birth(d, births=BirthField(d, {(9, 9): 1.0}))
    with pytest.raises(ValueError):
        field_from_birth(d, births=BirthField(RectDomain(3, 3), {}))


def _birth_entry(mode, value):
    d = RectDomain(2, 2)
    return field_from_birth(d, births=BirthField(d, {(1, 1): value}), mode=mode)


def _inflow_entry(mode, value):
    return field_from_birth(RectDomain(2, 2), BoundaryFlow({(0, 0): value}, {}), mode=mode)


def _json_entry(mode, value):
    d = field_to_dict(zero_field(RectDomain(2, 2), mode))
    d["edges"][3]["mass"] = value
    return field_from_dict(json.loads(json.dumps(d)))


def _compose_entry(mode, value):
    d = RectDomain(2, 2)
    f = field_from_birth(d, births=BirthField(d, {(1, 1): 1}))
    rows = decomposition_to_csv_rows(decompose(f))
    rows[1][1] = str(value)
    return compose(d, decomposition_from_csv_rows(rows), mode=mode)


@pytest.mark.parametrize("entry", [_birth_entry, _inflow_entry, _json_entry, _compose_entry])
@pytest.mark.parametrize(
    "mode, value",
    [
        ("float", float("nan")),
        ("float", float("inf")),
        ("float", float("-inf")),
        ("float", -1.0),
        ("int", -1),
        ("int", 2.7),
        ("int", float("nan")),
        ("int", float("inf")),
        ("float", 10**400),
    ],
)
def test_bad_mass_is_rejected_where_it_enters(entry, mode, value):
    with pytest.raises(ValueError):
        entry(mode, value)


def test_unknown_mode_is_rejected():
    d = RectDomain(2, 2)
    payload = field_to_dict(zero_field(d, "int"))
    payload["mode"] = "integer"
    with pytest.raises(ValueError):
        field_from_dict(payload)
    with pytest.raises(ValueError):
        field_from_birth(d, births=BirthField(d, {(1, 1): 1}), mode="integer")


def test_tolerance_literals_live_in_flow_only():
    # the numeric policy has one home: a tolerance written anywhere else
    # would decide "equal" by a rule of its own
    literal = re.compile(r"\b\d+(?:\.\d*)?e-\d+", re.IGNORECASE)
    package = Path(flow.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "flow.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if literal.search(line)
    ]
    assert found == []


def test_negative_zero_reads_as_zero():
    d = RectDomain(2, 3)
    births = {y: 0.5 * k for k, y in enumerate(d.sites)}
    plain = field_from_birth(d, BoundaryFlow({(0, 0): 0.0}, {}), BirthField(d, births))
    births[(0, 0)] = -0.0
    signed = field_from_birth(d, BoundaryFlow({(0, 0): -0.0}, {}), BirthField(d, births))
    assert json.dumps(field_to_dict(signed)) == json.dumps(field_to_dict(plain))
    payload = field_to_dict(zero_field(d))
    payload["edges"][0]["mass"] = -0.0
    assert "-0.0" not in json.dumps(field_to_dict(field_from_dict(payload)))


def test_integral_float_masses_are_read_as_ints():
    d = RectDomain(2, 2)
    f = field_from_birth(d, births=BirthField(d, {(1, 1): 2.0}), mode="int")
    assert all(isinstance(v, int) for v in f.mass.values())
    assert f.mass[Edge(1, 1, True)] == 2


def test_json_roundtrip_is_stable():
    f = random_field(RectDomain(3, 2), seed=9, mode="int")
    payload = json.dumps(field_to_dict(f))
    g = field_from_dict(json.loads(payload))
    assert g == f
    assert json.dumps(field_to_dict(g)) == payload
    reverse = json.loads(payload)
    reverse["edges"].reverse()
    assert json.dumps(field_to_dict(field_from_dict(reverse))) == payload


def test_json_rejects_foreign_edges():
    f = zero_field(RectDomain(1, 1))
    d = field_to_dict(f)
    d["edges"].append({"t": 9, "x": 9, "slope": "up", "mass": 1.0})
    with pytest.raises(ValueError):
        field_from_dict(d)


def _row(payload):
    return next(r for r in payload["edges"] if (r["t"], r["x"], r["slope"]) == (0, 0, "up"))


# a 2x2 rectangle as the hexagon JSON of earlier versions, a domain type no longer read
HEX_2X2 = {"type": "hex", "t0": 0, "t1": 2, "t01": [1, 1], "xminus": [0, -1, 0], "xplus": [0, 1, 0]}

# Each edits the payload in place or returns one to read instead.  The first
# five were once read as a different field: a descending edge, coordinates
# truncated to the same edge, the last row of two winning, a 2x2 domain; the
# others escaped as a TypeError, AttributeError or IndexError.
MALFORMED = {
    "slope": lambda d: _row(d).update(slope="sideways"),
    "fractional t": lambda d: _row(d).update(t=0.5),
    "fractional x": lambda d: _row(d).update(x=0.5),
    "duplicate edge": lambda d: d["edges"].append(dict(_row(d), mass=7)),
    "fractional N": lambda d: d["domain"].update(N=2.5),
    "top-level list": lambda d: [d],
    "domain a string": lambda d: d.update(domain="rect"),
    "hex domain": lambda d: d.update(domain=HEX_2X2),
    "hex t01 of length 1": lambda d: d.update(domain=dict(HEX_2X2, t01=[1])),
    "hex xminus a number": lambda d: d.update(domain=dict(HEX_2X2, xminus=0)),
    "edge row a number": lambda d: d["edges"].append(5),
    "edges an object": lambda d: d.update(edges={"t": 0}),
    "slope a list": lambda d: _row(d).update(slope=["up"]),
    "null mass": lambda d: _row(d).update(mass=None),
    "string mass": lambda d: _row(d).update(mass="3"),
    "bool mass": lambda d: _row(d).update(mass=True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_json_rejects_malformed_fields(case, tmp_path):
    from brokenlines.cli import run
    from brokenlines.duality import evolve_chain

    payload = field_to_dict(evolve_chain(RectDomain(2, 2), 0.5, 3))
    payload = MALFORMED[case](payload) or payload
    with pytest.raises(ValueError):
        field_from_dict(payload)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(payload))
    assert run(["decompose", "--field", str(path), "--out", str(tmp_path / "lines.csv")]) == 1


@pytest.mark.parametrize("coordinate", ["t", "x"])
@pytest.mark.parametrize("far", [10**30, -(10**30)])
def test_json_names_a_far_coordinate_as_given(coordinate, far, tmp_path, capsys):
    # the lookup runs on int64 keys: such a row must not clip or wrap onto a real edge
    from brokenlines.cli import run

    payload = field_to_dict(random_field(RectDomain(3, 3), seed=2))
    _row(payload)[coordinate] = far
    with pytest.raises(ValueError, match=f"{coordinate}={far},"):
        field_from_dict(payload)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(payload))
    assert run(["decompose", "--field", str(path), "--out", str(tmp_path / "lines.csv")]) == 1
    assert f"{coordinate}={far}," in capsys.readouterr().err


DOMAINS = st.builds(RectDomain, st.integers(1, 6), st.integers(1, 6))
MASSES = {
    "int": st.integers(0, 9),
    "float": st.floats(0, 1e3),
    "beyond int64": st.integers(0, 2**64),  # sums pass 2**63: exact Python ints
}


@given(DOMAINS, st.sampled_from(sorted(MASSES)), st.data())
@settings(max_examples=150, deadline=None)
def test_array_sweep_equals_the_per_site_sweep(domain, kind, data):
    def draw(sites):
        return {y: data.draw(MASSES[kind]) for y in sites}

    up, down, born = draw(domain.southwest_side), draw(domain.northwest_side), draw(domain.sites)
    mode = "float" if kind == "float" else "int"
    field = field_from_birth(domain, BoundaryFlow(up, down), BirthField(domain, born), mode=mode)
    expected = dict_sweep(domain, up, down, born)
    assert field.mass == expected
    assert [type(v) for v in field.mass.values()] == [type(v) for v in expected.values()]
    assert json.dumps(field_to_dict(field)) == json.dumps(
        field_to_dict(FlowField(domain, expected, mode))
    )
    total = sum(up.values()) + sum(down.values()) + sum(born.values())
    if mode == "int":
        assert field.values.dtype == (np.int64 if total < 2**63 else object)


@given(DOMAINS, st.sampled_from(["int", "float"]), st.data())
@settings(max_examples=60, deadline=None)
def test_array_sweep_equals_the_per_site_sweep_on_a_replica_axis(domain, kind, data):
    values = st.lists(MASSES[kind], min_size=3, max_size=3)

    def draw(sites):
        return {y: np.array(data.draw(values)) for y in sites}

    up, down, born = draw(domain.southwest_side), draw(domain.northwest_side), draw(domain.sites)
    mass = sweep(domain, *(np.stack(list(v.values())) for v in (up, down, born)))
    expected = dict_sweep(domain, up, down, born)
    assert mass.shape == (len(domain.edges), 3)
    assert all(np.array_equal(row, expected[e]) for e, row in zip(domain.edges, mass))


# every rectangle to 12x12, and thin ones past it
SWEEP_SHAPES = [(n, m) for n in range(1, 13) for m in range(1, 13)]
SWEEP_SHAPES += [shape for k in (13, 31, 64, 127, 200) for shape in ((1, k), (k, 1))]


def _masses(rng, kind: str, shape: tuple) -> np.ndarray:
    """Masses of ``kind`` with many ties and zeros, so both branches of the site update run."""
    if kind == "float64":
        return np.where(rng.random(shape) < 0.3, 0.0, rng.exponential(2.0, shape).round(rng.integers(0, 3)))
    values = rng.integers(0, 4, shape)
    if kind == "object":  # Python ints whose sums pass 2**63
        return values.astype(object) * 2**62 + rng.integers(0, 2, shape).astype(object)
    return values


@pytest.mark.parametrize("kinds", [("int64",) * 3, ("float64",) * 3, ("object",) * 3,
                                   ("float64", "int64", "float64"), ("int64", "int64", "float64")],
                         ids=["int64", "float64", "object", "float inflow int down", "float births"])
@pytest.mark.parametrize("replicas", [(), (3,)], ids=["one field", "replica axis"])
def test_front_sweep_equals_the_plan_sweep_bit_for_bit(kinds, replicas):
    rng = np.random.default_rng(7)
    for n, m in SWEEP_SHAPES:
        domain = RectDomain(n, m)
        sizes = (n, m, n * m)
        up, down, born = (_masses(rng, k, (size, *replicas)) for k, size in zip(kinds, sizes))
        expected = plan_sweep(domain, up, down, born)
        mass = sweep(domain, up, down, born)
        assert (mass.dtype, mass.shape) == (expected.dtype, expected.shape), (n, m)
        if mass.dtype == object:
            assert [type(v) for v in mass.flat] == [type(v) for v in expected.flat]
            assert mass.tolist() == expected.tolist(), (n, m)
        else:
            assert mass.tobytes() == expected.tobytes(), (n, m)
        # the final front is the exits, in side order
        ups, downs = flow.front(domain, up, down, (born[c] for c in domain.columns))
        assert np.array_equal(ups, expected[domain.side_edges[2]]), (n, m)
        assert np.array_equal(downs, expected[domain.side_edges[3]]), (n, m)


@pytest.mark.parametrize("kinds", [("int64",) * 3, ("float64",) * 3, ("object",) * 3,
                                   ("float64", "float64", "int64")],
                         ids=["int64", "float64", "object", "int births"])
def test_the_site_update_in_place_has_the_bits_of_its_returning_form(kinds):
    rng = np.random.default_rng(11)
    up, down, born = (_masses(rng, k, (50, 3)) for k in kinds)
    expected = flow.site_outflows(up, down, born)
    a, b = up.copy(), down.copy()
    # into fresh arrays, and over the inflows themselves
    for in_up, in_down, out in ((up, down, (np.empty_like(up), np.empty_like(down))), (a, b, (a, b))):
        got = flow.site_outflows(in_up, in_down, born, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        for have, want in zip(out, expected):
            assert have.dtype == want.dtype
            if have.dtype == object:
                assert [type(v) for v in have.flat] == [type(v) for v in want.flat]
                assert have.tolist() == want.tolist()
            else:
                assert have.tobytes() == want.tobytes()


def test_a_replica_sweep_holds_its_masses_and_the_front():
    # a (2, sites, replicas) outflow array scattered into the masses peaked at 11.9 MiB;
    # the masses alone take 6.4 MiB and the front 0.9 MiB
    domain = RectDomain(6, 6)
    domain.columns, domain.side_edges  # the geometry is not counted
    rng = np.random.default_rng(3)
    up, down, born = (rng.integers(0, 5, (k, 10_000)) for k in (6, 6, 36))
    tracemalloc.start()
    try:
        sweep(domain, up, down, born)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def test_a_births_only_sweep_holds_no_site_sized_table():
    # the inflows and births were once scattered into one (3, sites) table and the inflows
    # gathered back out of it: 10.1 MiB here; the masses alone take 3.8 MiB
    domain = RectDomain(500, 500)
    domain.incident, domain.neighbours, domain.side_edges, domain.columns  # the geometry is not counted
    births = BirthField.from_values(domain, np.random.default_rng(4).random(500 * 500))
    tracemalloc.start()
    try:
        field_from_birth(domain, births=births)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "mode, masses, dtype",
    [("int", st.integers(0, 9), np.int64), ("float", st.floats(0, 1e3), np.float64),
     ("int", st.integers(2**62, 2**64), object)],
)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_max_mass_is_the_largest_mass(mode, masses, dtype, data):
    domain = RectDomain(2, 3)
    births = {y: data.draw(masses) for y in domain.sites}
    field = field_from_birth(domain, births=BirthField(domain, births), mode=mode)
    assert field.values.dtype == dtype
    expected = max(field.mass.values())
    assert field.max_mass == expected
    assert type(field.max_mass) is type(expected)


def test_a_field_from_a_dict_refuses_what_its_json_reload_refuses():
    # the dict was once read by mass_array alone: an int-mode field of 1.5s became an object
    # array, negative and NaN masses were kept, and a key that is no edge was dropped
    d = RectDomain(2, 2)
    zeros, edge = dict.fromkeys(d.edges, 0), d.edges[3]
    for mode, value in (("int", 1.5), ("int", -1), ("float", -0.5), ("float", float("nan"))):
        with pytest.raises(ValueError, match=re.escape(f"mass {value!r} at {edge!r} is not a finite")):
            FlowField(d, {**zeros, edge: value}, mode)
    with pytest.raises(ValueError, match=re.escape("keyed off the edges: [Edge(t=9, x=1, up=True)]")):
        FlowField(d, {**zeros, Edge(9, 1, True): 1}, "int")


def test_field_json_is_a_fixed_point_of_reload():
    # the float-mode dict holds the int 1: the field writes 1.0, as its reload does
    d = RectDomain(2, 2)
    cases = (("float", (0.0, 1), np.float64, 1.0), ("int", (0, 1, 3), np.int64, 3))
    for mode, masses, dtype, largest in cases:
        f = FlowField(d, {e: masses[k % len(masses)] for k, e in enumerate(d.edges)}, mode)
        j = field_to_dict(f)
        assert json.dumps(field_to_dict(field_from_dict(j))) == json.dumps(j)
        assert f.values.dtype == dtype
        assert f.max_mass == largest and type(f.max_mass) is type(largest)


def test_births_given_as_values_equal_births_given_as_a_dict():
    d = RectDomain(3, 4)
    values = np.arange(len(d.sites)) % 3
    as_values = BirthField.from_values(d, values)
    as_dict = BirthField(d, dict(zip(d.sites, values.tolist())))
    assert as_values.births == as_dict.births
    assert field_from_birth(d, births=as_values, mode="int") == field_from_birth(d, births=as_dict)


def test_a_births_or_inflow_array_of_the_wrong_shape_is_refused():
    # a one-value array once broadcast to every site, and five values for
    # four sites raised IndexError
    d = RectDomain(2, 2)
    for values in (np.array([1.0]), np.ones(5), np.ones((4, 1)), np.array(1.0), np.ones(0, np.int64)):
        with pytest.raises(ValueError, match=re.escape(f"{values.shape} for 4 sites")):
            BirthField.from_values(d, values).masses()
    with pytest.raises(ValueError, match=re.escape("(1,) for 2 sites")):
        field_from_birth(d, BoundaryFlow(np.array([1]), {}))
    with pytest.raises(ValueError, match=re.escape("(3,) for 2 sites")):
        field_from_birth(d, BoundaryFlow({}, np.ones(3)))


def test_the_births_view_refuses_what_masses_refuses():
    # five values for four sites once listed the first four as the births, and negative
    # and NaN values were listed as they were
    d = RectDomain(2, 2)
    negative, nan = np.array([1.0, -1.0, 0.0, 2.0]), np.array([0.0, 1.0, np.nan, 2.0])
    for values in (np.ones(5), np.ones(3), np.ones((4, 1)), np.array(1.0), negative, nan):
        field = BirthField.from_values(d, values)
        with pytest.raises(ValueError) as refused:
            field.masses()
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            field.births
    with pytest.raises(ValueError, match=re.escape("masses of shape (5,) for 4 sites")):
        BirthField.from_values(d, np.ones(5)).births


def test_as_masses_calls_where_for_the_offender_alone():
    # where(i), a site lookup, was once called for every value read one by
    # one, not only for the offender it names
    calls = []

    def where(i):
        calls.append(i)
        return f"value {i}"

    assert flow.as_masses([np.float64(0.5), np.float64(2.0)], "float", where).tolist() == [0.5, 2.0]
    assert flow.as_masses([1.0, np.float64(2.0), 3], "int", where).tolist() == [1, 2, 3]
    assert flow.as_masses(np.array([1.0, 2.0], np.float32), "float", where).tolist() == [1.0, 2.0]
    assert calls == []
    bad = [np.float64(0.5), np.float64(-1.0), np.float64(-2.0), 3.0]
    with pytest.raises(ValueError, match=re.escape(f"mass {bad[1]!r} at value 1 is not")):
        flow.as_masses(bad, "float", where)
    assert calls == [1]


def _array_of(dtype):
    """Arrays of ``dtype``, all masses or mixed with values no mass may take.

    Masses include negative zero, integral floats and int64 masses whose sum
    passes 2**63; the rest NaN, infinities and negatives."""
    floats = st.one_of(
        st.floats(0, 1e3), st.integers(0, 9).map(float), st.sampled_from([-0.0, 1e300, 5e-324])
    )
    masses, others = {
        np.int64: (st.one_of(st.integers(0, 9), st.integers(2**62, 2**63 - 1)), st.just(-1)),
        np.int32: (st.integers(0, 2**31 - 1), st.integers(-(2**31), -1)),
        np.uint64: (st.one_of(st.integers(0, 9), st.integers(2**63, 2**64 - 1)), st.nothing()),
        np.float64: (floats, st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.5])),
        np.float32: (floats, st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.5])),
        bool: (st.booleans(), st.nothing()),
        object: (st.one_of(st.integers(0, 2**70), floats), st.sampled_from([-1, float("nan"), True])),
    }[dtype]
    return lambda n: st.one_of(
        st.lists(masses, min_size=n, max_size=n), st.lists(masses | others, min_size=n, max_size=n)
    ).map(lambda v: np.array(v, dtype=dtype))


ARRAY_DTYPES = [np.int64, np.float64, np.int32, np.uint64, np.float32, bool, object]


def _read(read):
    """What ``read()`` gives, values, dtype and Python types, or its refusal."""
    try:
        values = read()
    except ValueError as refused:
        return "refused", str(refused)
    values = getattr(values, "values", values)
    return repr(values.tolist()), values.dtype, [type(v) for v in values.tolist()]


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")  # 1e300 as a float32 is inf
@given(DOMAINS, st.sampled_from(ARRAY_DTYPES), st.sampled_from([None, "int", "float"]), st.data())
@settings(max_examples=150, deadline=None)
def test_an_array_reads_exactly_as_its_tolist_dict_reads(domain, dtype, mode, data):
    values = data.draw(_array_of(dtype)(len(domain.sites)))
    as_array = BirthField.from_values(domain, values)
    as_dict = BirthField(domain, dict(zip(domain.sites, values.tolist())))
    assert _read(lambda: as_array.masses(mode)) == _read(lambda: as_dict.masses(mode))
    backwards = BirthField(domain, dict(zip(domain.sites[::-1], values.tolist()[::-1])))
    assert _read(lambda: as_array.masses(mode)) == _read(lambda: backwards.masses(mode))

    sides = domain.southwest_side, domain.northwest_side
    up, down = (data.draw(_array_of(data.draw(st.sampled_from(ARRAY_DTYPES)))(len(s))) for s in sides)
    keyed = BoundaryFlow(dict(zip(sides[0], up.tolist())), dict(zip(sides[1], down.tolist())))
    assert _read(lambda: field_from_birth(domain, BoundaryFlow(up, down), as_array, mode)) == _read(
        lambda: field_from_birth(domain, keyed, as_dict, mode)
    )


class _Unlisted(np.ndarray):
    """A mass array that refuses to become a list."""

    def tolist(self):
        raise AssertionError("tolist called")


def test_int64_and_float64_births_are_read_without_tolist():
    # array births once went through tolist() and back into an array
    d = RectDomain(3, 4)
    for values, mode in ((np.arange(len(d.sites)), "int"), (np.linspace(0, 1, len(d.sites)), "float")):
        xi = BirthField.from_values(d, values.view(_Unlisted))
        for read in (None, mode):
            assert np.array_equal(xi.masses(read), values) and xi.masses(read).dtype == values.dtype
        assert field_from_birth(d, births=xi).mode == mode


def test_evolve_chain_hands_over_its_draws_as_arrays(monkeypatch):
    # its side draws were once zipped into site-keyed dicts and looked up again
    from brokenlines.duality import evolve_chain

    field = evolve_chain(RectDomain(4, 3), 0.5, 2)

    def refuse(*args):
        raise AssertionError("a site-keyed dict was read")

    monkeypatch.setattr(flow, "_site_index", refuse)
    assert evolve_chain(RectDomain(4, 3), 0.5, 2) == field
