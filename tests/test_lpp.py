import ast
import hashlib
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines import experiments, lpp
from brokenlines.flow import (
    BirthField,
    BoundaryFlow,
    field_from_birth,
    tolerance,
    total_crossing_flow,
)
from brokenlines.lattice import HexDomain, RectDomain
from brokenlines.lines import decompose
from brokenlines.lpp import (
    LatticePath,
    birth_matrix,
    births_from_matrix,
    flow_identity_residual,
    lpp_bruteforce,
    lpp_dp,
    optimal_path_backward,
    passage_value,
    path_sum,
)
from brokenlines.streams import uniform
from helpers import births_to_csv_text, random_birth_field, random_inputs

XI_2X2 = births_from_matrix([[1.0, 2.0], [3.0, 4.0]])


def test_point_domain():
    xi = births_from_matrix([[7.5]])
    assert lpp_dp(xi).value == 7.5
    assert lpp_dp(xi).path.sites == ((0, 0),)


def test_two_by_two_example():
    result = lpp_dp(XI_2X2)
    assert result.value == 8.0
    # matrix path (1,1), (2,1), (2,2) in lattice coordinates
    assert result.path.sites == ((0, 0), (1, -1), (2, 0))
    assert lpp_bruteforce(XI_2X2) == 8.0
    assert path_sum(XI_2X2, result.path) == 8.0


def test_zero_births():
    xi = births_from_matrix(np.zeros((3, 4)))
    assert lpp_dp(xi).value == 0.0
    assert len(lpp_dp(xi).path.sites) == 6


def test_constant_births_brute_force():
    xi = births_from_matrix(np.ones((3, 3)))
    assert lpp_bruteforce(xi) == 5.0
    assert lpp_dp(xi).value == 5.0


def test_brute_force_guard():
    with pytest.raises(ValueError):
        lpp_bruteforce(births_from_matrix(np.zeros((8, 8))))


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_dp_matches_brute_force(seed):
    n = 1 + seed % 5
    m = 1 + (seed // 5) % 5
    matrix = np.array(
        [[int(uniform(seed, i, j) * 10) for j in range(m)] for i in range(n)], dtype=float
    )
    xi = births_from_matrix(matrix)
    assert lpp_dp(xi).value == lpp_bruteforce(xi)


def textbook_table(matrix):
    """``G[i][j] = x[i][j] + max(G[i-1][j], G[i][j-1])``, one python float at a time."""
    n, m = matrix.shape
    G = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            preds = ([G[i - 1][j]] if i else []) + ([G[i][j - 1]] if j else [])
            G[i][j] = float(matrix[i, j]) + (max(preds) if preds else 0.0)
    return G


def textbook_passage_value(matrix):
    return textbook_table(matrix)[-1][-1]


def textbook_path(matrix):
    """The 1-based cells of the path backtracked through the textbook table, ties going to ``(i - 1, j)``."""
    G = textbook_table(matrix)
    i, j = matrix.shape[0] - 1, matrix.shape[1] - 1
    cells = [(i + 1, j + 1)]
    while i or j:
        if j == 0 or i and G[i - 1][j] >= G[i][j - 1]:
            i -= 1
        else:
            j -= 1
        cells.append((i + 1, j + 1))
    return cells[::-1]


def random_float_matrix(seed):
    rng = np.random.default_rng(seed)
    return rng.exponential(size=(rng.integers(1, 31), rng.integers(1, 31)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_passage_value_equals_the_textbook_recurrence_bit_for_bit(seed):
    matrix = random_float_matrix(seed)
    assert passage_value(matrix) == textbook_passage_value(matrix)
    assert passage_value(matrix) == passage_value(matrix.T)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_float_dp_path_collects_exactly_the_dp_value(seed):
    xi = births_from_matrix(random_float_matrix(seed))
    result = lpp_dp(xi)
    assert path_sum(xi, result.path) == result.value
    assert lpp_dp(xi, with_path=False).value == result.value


@pytest.mark.parametrize("n", range(1, 13))
def test_dp_path_is_the_textbook_backtrack_on_tied_matrices(n):
    # 0/1 births tie at most cells, so the tie rule alone picks the path
    for m in range(1, 13):
        for k in range(3):
            matrix = np.array([[float(uniform(40, k, n, m, i, j) < 0.5) for j in range(m)] for i in range(n)])
            xi = births_from_matrix(matrix)
            result = lpp_dp(xi)
            assert result.value == textbook_passage_value(matrix)
            assert result.path.sites == tuple(xi.domain.cell_to_site(*cell) for cell in textbook_path(matrix))


@pytest.mark.parametrize(
    "matrix", [[[np.nan, 1.0]], [[-5.0, 1.0]], [[np.inf]], np.zeros((0, 3))], ids=["nan", "negative", "inf", "empty"]
)
def test_passage_value_refuses_what_births_from_matrix_refuses(matrix):
    for read in (births_from_matrix, passage_value):
        with pytest.raises(ValueError):
            read(matrix)


def test_integer_valued_passage_values_are_pinned():
    # integer sums are exact, so these values do not depend on the recurrence's order
    values = []
    for k in range(40):
        n, m = 1 + int(uniform(31, k, 0) * 30), 1 + int(uniform(31, k, 1) * 30)
        matrix = [[int(uniform(31, k, i, j) * 100) for j in range(m)] for i in range(n)]
        values.append(passage_value(np.array(matrix, dtype=float)))
    assert sum(values) == 75493.0
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    assert digest == "cbd5ef9928fde7c7481acafe034484ebcbf16089d2e3bab67e5d05c8e75f9c91"


def test_matrix_roundtrip_uses_cell_indexing():
    matrix = np.arange(6, dtype=float).reshape(2, 3) + 1
    xi = births_from_matrix(matrix)
    assert xi.domain == RectDomain(2, 3)
    assert np.array_equal(birth_matrix(xi), matrix)
    assert xi.births[(0, 0)] == 1.0  # cell (1, 1)
    assert xi.births[(1, -1)] == 4.0  # cell (2, 1)


def test_matrix_csv_text_roundtrip():
    from io import StringIO

    xi = random_birth_field(RectDomain(3, 2), seed=17)
    text = births_to_csv_text(xi)
    back = births_from_matrix(np.loadtxt(StringIO(text), delimiter=","))
    assert back == xi


def test_passage_value_matches_dp():
    matrix = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 1.0]])
    assert passage_value(matrix) == lpp_dp(births_from_matrix(matrix)).value


def test_flow_identity_on_example():
    assert flow_identity_residual(XI_2X2, lpp_dp(XI_2X2).value) <= 1e-12
    zero = births_from_matrix([[0.0]])
    assert flow_identity_residual(zero, lpp_dp(zero).value) == 0.0


@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 7), st.sampled_from(["int", "float"]))
@settings(max_examples=80, deadline=None)
def test_crossing_flow_with_inflow_is_augmented_passage_value(seed, n, m, mode):
    # inflows act as an extra row and column of births: up_in of the site in
    # cell (i, 1) sits at [i, 0], down_in of the site in cell (1, j) at [0, j]
    domain = RectDomain(n, m)
    inflow, births = random_inputs(domain, seed, mode)
    field = field_from_birth(domain, inflow, births, mode=mode)
    matrix = np.zeros((n + 1, m + 1))
    matrix[1:, 1:] = birth_matrix(births)
    cell = dict(zip(domain.sites, zip(*domain.cells)))
    for y, v in inflow.up_in.items():
        matrix[cell[y][0] + 1, 0] = v
    for y, v in inflow.down_in.items():
        matrix[0, cell[y][1] + 1] = v
    value = passage_value(matrix)
    assert abs(total_crossing_flow(field) - value) <= tolerance(value, mode)


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_flow_identity_random(seed):
    xi = random_birth_field(RectDomain(1 + seed % 6, 1 + (seed // 6) % 6), seed)
    value = lpp_dp(xi, with_path=False).value
    assert flow_identity_residual(xi, value) <= 1e-9 * max(1.0, value)


def test_backward_path_on_example():
    field = field_from_birth(XI_2X2.domain, births=XI_2X2)
    path = optimal_path_backward(field)
    assert path.sites == ((0, 0), (1, -1), (2, 0))
    assert path_sum(XI_2X2, path) == 8.0


def test_backward_ties_go_southwest():
    # constant births: every tie resolves down, giving the i-first staircase
    xi = births_from_matrix(np.ones((3, 4)))
    d = xi.domain
    field = field_from_birth(d, births=xi)
    path = optimal_path_backward(field)
    staircase = [d.cell_to_site(i, 1) for i in range(1, 4)]
    staircase += [d.cell_to_site(3, j) for j in range(2, 5)]
    assert path.sites == tuple(staircase)


@given(st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_backward_path_attains_optimum(seed):
    xi = random_birth_field(RectDomain(1 + seed % 6, 1 + (seed // 6) % 6), seed)
    field = field_from_birth(xi.domain, births=xi)
    value = lpp_dp(xi, with_path=False).value
    assert path_sum(xi, optimal_path_backward(field)) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_backward_path_on_every_zero_one_matrix(n, m):
    # 0/1 births tie at many sites: the walk must stay inside the rectangle on its west sides
    for bits in range(1 << (n * m)):
        matrix = [[(bits >> (i * m + j)) & 1 for j in range(m)] for i in range(n)]
        xi = births_from_matrix(matrix)
        path = optimal_path_backward(field_from_birth(xi.domain, births=xi))
        assert path.sites[0] == xi.domain.cell_to_site(1, 1)
        assert path.sites[-1] == xi.domain.cell_to_site(n, m)
        assert path_sum(xi, path) == lpp_dp(xi, with_path=False).value


def test_backward_path_rejects_boundary_inflow():
    d = RectDomain(2, 2)
    field = field_from_birth(d, BoundaryFlow({(0, 0): 1.0}, {}), BirthField(d, {}))
    with pytest.raises(ValueError):
        optimal_path_backward(field)


def test_backward_path_hits_left_corner_of_every_line():
    for seed in range(25):
        xi = random_birth_field(RectDomain(2 + seed % 4, 2 + (seed // 4) % 4), seed)
        field = field_from_birth(xi.domain, births=xi)
        path_sites = set(optimal_path_backward(field).sites)
        for trace, w in decompose(field):
            assert w > 0
            assert path_sites & set(trace.left_corners)


def test_path_validation():
    with pytest.raises(ValueError):
        LatticePath(((0, 0), (2, 0)))
    with pytest.raises(ValueError):
        LatticePath(((0, 0), (1, 2)))
    path = LatticePath(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        path_sum(births_from_matrix([[1.0]]), path)


BAD_BIRTHS = [
    ((-2, 0), 5.0), ((0, 1), 5.0), ((8, 0), 5.0), ((2, 0), -7.0), ((2, 0), np.nan), ((2, 0), np.inf)
]


@pytest.mark.parametrize("site, mass", BAD_BIRTHS)
def test_births_off_the_domain_or_not_masses_are_refused(site, mass):
    # a birth off the 3x3 domain once landed on a matrix cell (or raised
    # IndexError), and a negative or NaN mass ran: lpp reads births as
    # field_from_birth does, and refuses them with its message
    domain = RectDomain(3, 3)
    xi = BirthField(domain, {(0, 0): 1.0, site: mass})
    with pytest.raises(ValueError) as refused:
        field_from_birth(domain, births=xi)
    path = lpp_dp(births_from_matrix(np.ones((3, 3)))).path
    for read in (birth_matrix, lpp_dp, lpp_bruteforce, lambda xi: flow_identity_residual(xi, 0.0), lambda xi: path_sum(xi, path)):
        with pytest.raises(ValueError) as caught:
            read(xi)
        assert str(caught.value) == str(refused.value)


def test_path_sum_reads_births_in_their_own_mode():
    domain = RectDomain(2, 3)
    xi = BirthField(domain, {(0, 0): 2, (1, 1): 3, (3, 1): 2**70})
    path = LatticePath(((0, 0), (1, 1), (2, 2), (3, 1)))
    total = path_sum(xi, path)
    assert type(total) is int and total == 5 + 2**70
    assert path_sum(xi, LatticePath(())) == 0
    assert path_sum(xi, LatticePath(tuple(zip(*np.array(path.sites).T)))) == total  # numpy ints
    hexagon = HexDomain(0, 2, 1, 1, (-2, -3, -2), (2, 3, 2))
    assert path_sum(BirthField(hexagon, {(1, 1): 4, (2, 0): 1}), LatticePath(((0, 0), (1, 1), (2, 0)))) == 5
    with pytest.raises(ValueError, match=r"path leaves the domain at \(2, 2\)"):
        path_sum(BirthField(RectDomain(2, 2), {}), path)


def test_births_from_matrix_lists_every_cell():
    xi = births_from_matrix([[0.0, 2.0], [-0.0, 4.0]])
    assert xi.births == {(0, 0): 0.0, (1, -1): 0.0, (1, 1): 2.0, (2, 0): 4.0}
    assert all(math.copysign(1.0, v) == 1.0 for v in xi.births.values())  # no negative zero


def test_only_flow_reads_a_birth_fields_entries():
    # births have one reader, BirthField.masses, which checks what
    # field_from_birth checks: no other module reads a birth field's storage
    package = Path(lpp.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(package.glob("*.py"))
        if path.name != "flow.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("births", "_given")
    ]
    assert readers == []


# the JSON of `lpp --check-flow` (value, path, flow_residual) on n x m matrices
# of Exp(1) draws and of integers 0..9, each cell keyed (18, i, j): a 37x53
# matrix, a single row and column, and a tall 2100x2 one; the 53x1 digests
# are those of the 53x1 matrix, not of the 1x53 one its CSV was once read as
LPP_CHECK_FLOW_DIGESTS = {
    ("float", 37, 53): "8ac33217939b4fccf53d5c1236baf1a211f50357922b3dde646143bf9c8de267",
    ("int", 37, 53): "33e12dc93449275d692a689c5bda5fb58a93f4127e03087a5637bf10c6530bda",
    ("float", 1, 53): "753a88d4e683ddddc593cb2c162185f8246f0c0a2675f680aec717e620b5b820",
    ("int", 1, 53): "f50122f72c24f3494c3920397ea7b33a3d34abb2c7d7d78800dae20c557d7af2",
    ("float", 53, 1): "fad941dcd290dfeb0469f8f20c0f138ddc26898647d3cbc0eb0930bbbe275e38",
    ("int", 53, 1): "33ea2e584c44dbd26581ff2f3764b20c26cad554c7738522becdaa38b06a1937",
    ("float", 2100, 2): "27bd487a45a5a71f1eb3c6989ff78bcbd2f94115caeeb49198daff248abf4046",
    ("int", 2100, 2): "3e73f80d1efa27e635963838a5123c8319c23e8c2ed0b729a0b7127450bc1e21",
}


@pytest.mark.parametrize(
    "case", LPP_CHECK_FLOW_DIGESTS, ids=lambda c: c[0] if c[1:] == (37, 53) else "{}-{}x{}".format(*c)
)
def test_lpp_check_flow_output_is_pinned(case, tmp_path):
    from brokenlines.cli import run

    kind, n, m = case

    def draw(i, j):
        u = uniform(18, i, j)
        return -math.log1p(-u) if kind == "float" else int(u * 10)

    matrix = np.array([[draw(i, j) for j in range(m)] for i in range(n)])
    rows = [",".join(map(repr, row)) for row in matrix.tolist()]
    (tmp_path / "xi.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "lpp.json"
    assert run(["lpp", "--xi", str(tmp_path / "xi.csv"), "--check-flow", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["flow_residual", "path", "value"] and len(payload["path"]) == n + m - 1
    # the path of the matrix as the CSV holds it: a one-column file is n x 1
    assert payload["path"] == [[i + j - 2, j - i] for i, j in textbook_path(matrix)]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LPP_CHECK_FLOW_DIGESTS[case]


class _CountingValues(np.ndarray):
    """A mass array that counts the reads made by indexing it."""

    reads = 0

    def __getitem__(self, key):
        _CountingValues.reads += 1
        return super().__getitem__(key)


def test_backward_walk_reads_linearly_many_edges():
    from brokenlines.flow import FlowField

    xi = random_birth_field(RectDomain(12, 9), seed=4)
    field = field_from_birth(xi.domain, births=xi)
    fresh = RectDomain(12, 9)  # no per-site tuples built yet
    counted = FlowField.from_values(fresh, field.values.view(_CountingValues), field.mode)
    _CountingValues.reads = 0
    path = optimal_path_backward(counted)
    steps = 12 + 9 - 2
    assert len(path.sites) == steps + 1
    assert "sites" not in fresh.__dict__
    assert path == optimal_path_backward(field)
    # two reads per step for the walk, one boundary pass for the
    # zero-inflow precondition: linear in the perimeter, not the area
    assert 0 < _CountingValues.reads <= 2 * steps + (12 + 9) + 8


def test_one_lpp_recurrence_lives_in_lpp_diagonals():
    # passage values have one recurrence: a prefix-sum scan, or a second
    # elementwise maximum next to it, would round by an order of its own
    package = Path(lpp.__file__).parent
    scans = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\.accumulate\b", line)
    ]
    assert scans == []
    source = inspect.getsource(lpp) + inspect.getsource(experiments)
    assert re.findall(r"np\.(?:f?max(?:imum)?|cumsum)\b", source) == ["np.maximum"]
    assert "np.maximum" in inspect.getsource(lpp._diagonals)
