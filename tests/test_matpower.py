import re

import numpy as np
import pytest

from bpladmm import dcopf, matpower

CASE3 = """\
function mpc = case3
% three-bus fixture: two branches, one generator
mpc.version = '2';
mpc.baseMVA = 100;

%% bus data
%  bus_i  type  Pd  Qd  Gs  Bs  area  Vm  Va  baseKV  zone  Vmax  Vmin
mpc.bus = [
    1  3  50  10  0  0  1  1.0  0  135  1  1.05  0.95;
    2  1  30   5  0  0  1  1.0  0  135  1  1.05  0.95; % mid bus
    3  1  20   5  0  0  1  1.0  0  135  1  1.05  0.95;
];

mpc.gen = [
    1  40  0  30  -30  1.0  100  1  80  0;
];

mpc.branch = [
    1  2  0.01  0.5   0  250  250  250  0  0  1  -360  360;
    2  3  0.02  0.25  0  250  250  250  0  0  1  -360  360;
];

%%-----  OPF data  -----%%
mpc.gencost = [
    2  0  0  3  0.02  2.0  10;
];
"""


def with_table(name, assignment):
    """CASE3 with its matrix mpc.<name> replaced by ``assignment``."""
    return re.sub(rf"mpc\.{name} = \[.*?\];", lambda _: assignment, CASE3, count=1, flags=re.S)


# malformed cases: (text, what the MatpowerParseError must say)
MALFORMED = {
    "scalar-bus": (with_table("bus", "mpc.bus = 5;"), r"mpc\.bus is missing or not a matrix"),
    "self-loop": (CASE3.replace("2  3  0.02  0.25", "2  2  0.02  0.25"),
                  "branch row 1: bus 2 connects to itself"),
    "narrow-bus": (with_table("bus", "mpc.bus = [1 3; 2 1; 3 1];"), "mpc.bus has 2 columns"),
    "narrow-gen": (with_table("gen", "mpc.gen = [1 40 0];"), "mpc.gen has 3 columns"),
    "narrow-branch": (with_table("branch", "mpc.branch = [1 2 0.01 0.5 0 250 250 250 0 0;];"),
                      "mpc.branch has 10 columns, too few for column 11"),
    "short-gencost": (CASE3.replace("2  0  0  3  0.02  2.0  10;", "2  0  0  3  0.02  2.0;"),
                      "gencost row 0: 3 cost coefficients declared, 2 given"),
    "empty-gen": (with_table("gen", "mpc.gen = [];"), "line 14: matrix gen is empty"),
    "unknown-branch-bus": (CASE3.replace("2  3  0.02  0.25", "2  9  0.02  0.25"),
                           "branch row 1: endpoint 2-9 references an unknown bus"),
    "unknown-gen-bus": (CASE3.replace("1  40  0  30", "7  40  0  30"),
                        "gen row 0: bus 7 does not exist"),
    "infinite-base": (CASE3.replace("mpc.baseMVA = 100;", "mpc.baseMVA = Inf;"),
                      "baseMVA must be finite and positive, got inf"),
    "nan-base": (CASE3.replace("mpc.baseMVA = 100;", "mpc.baseMVA = NaN;"),
                 "baseMVA must be finite and positive, got nan"),
    # bus 3 renumbered 2 and its branch moved to 1-2: one bus 2 would have no line
    "repeated-bus": (CASE3.replace("    3  1  20", "    2  1  20").replace(
        "2  3  0.02  0.25", "1  2  0.02  0.25"), "bus row 2: bus number 2 repeats bus row 1"),
    "gen-without-gencost": (CASE3.replace("1  40  0  30  -30  1.0  100  1  80  0;",
                                          "1  40  0  30  -30  1.0  100  1  80  0;\n"
                                          "    2  10  0  30  -30  1.0  100  1  20  0;"),
                            "gen row 1 has no gencost row"),
    "negative-ncost": (CASE3.replace("2  0  0  3  0.02", "2  0  0  -1  0.02"),
                       "gencost row 0: NCOST -1 is not a whole number of coefficients"),
    "fractional-ncost": (CASE3.replace("2  0  0  3  0.02", "2  0  0  2.5  0.02"),
                         "gencost row 0: NCOST 2.5 is not a whole number of coefficients"),
    "nan-bus-number": (CASE3.replace("    1  3  50", "    NaN  3  50"),
                       "bus row 0: bus number nan is not a whole number"),
    "fractional-bus-number": (CASE3.replace("    2  1  30", "    2.5  1  30"),
                              r"bus row 1: bus number 2\.5 is not a whole number"),
    "nan-branch-end": (CASE3.replace("1  2  0.01  0.5", "1  NaN  0.01  0.5"),
                       "branch row 0: bus number nan is not a whole number"),
    "fractional-branch-end": (CASE3.replace("2  3  0.02  0.25", "2  3.5  0.02  0.25"),
                              r"branch row 1: bus number 3\.5 is not a whole number"),
    "infinite-gen-bus": (CASE3.replace("1  40  0  30", "Inf  40  0  30"),
                         "gen row 0: bus number inf is not a whole number"),
    "fractional-model": (CASE3.replace("2  0  0  3  0.02", "2.5  0  0  3  0.02"),
                         r"gencost row 0: model 2\.5 is not polynomial \(model 2\)"),
}

# CASE3 in the other layouts the reader accepts; each gives CASE3's tables
LAYOUTS = {
    "close-on-last-row": CASE3.replace(";\n];", "];"),
    "comma-separated": re.sub(r"(?<=[\d.]) +(?=[-\d])", ", ", CASE3),
    "rows-without-semicolons": "\n".join(line.replace(";", "") for line in CASE3.splitlines()),
    "first-row-on-opening-line": re.sub(r"= \[\n\s*", "= [", CASE3),
    "bare-base-mva": CASE3.replace("mpc.baseMVA = 100;", "mpc.baseMVA=100"),
}


def test_parse_counts_match_the_fixture():
    case = matpower.parse_case(CASE3)
    assert case.base_mva == 100.0
    assert case.bus.shape == (3, 13)
    assert case.branch.shape == (2, 13)
    assert case.gen.shape == (1, 10)
    assert case.gencost.shape == (1, 7)


def test_parse_is_comment_invariant():
    reference = matpower.parse_case(CASE3)
    bare = matpower.parse_case("\n".join(line.split("%")[0] for line in CASE3.splitlines()))
    assert np.array_equal(reference.bus, bare.bus)
    assert np.array_equal(reference.branch, bare.branch)
    assert np.array_equal(reference.gen, bare.gen)
    assert np.array_equal(reference.gencost, bare.gencost)


@pytest.mark.parametrize("name", LAYOUTS)
def test_every_layout_gives_the_fixture_tables(name):
    reference = matpower.parse_case(CASE3)
    case = matpower.parse_case(LAYOUTS[name])
    assert case.base_mva == reference.base_mva
    for table in ("bus", "branch", "gen", "gencost"):
        assert np.array_equal(getattr(case, table), getattr(reference, table)), table


def test_parse_is_whitespace_insensitive():
    squeezed = CASE3.replace("  ", " ").replace("\t", " ")
    padded = CASE3.replace(";", " ;  ")
    for variant in (squeezed, padded):
        case = matpower.parse_case(variant)
        assert np.array_equal(case.bus, matpower.parse_case(CASE3).bus)


def test_parse_rejects_ragged_rows_with_line_number():
    bad = CASE3.replace("2  3  0.02  0.25  0  250  250  250  0  0  1  -360  360;",
                        "2  3  0.02  0.25  0  250;")
    with pytest.raises(matpower.MatpowerParseError, match=r"line \d+.*ragged") as info:
        matpower.parse_case(bad)
    assert info.value.line is not None


def test_parse_rejects_non_numeric_token():
    bad = CASE3.replace("mpc.baseMVA = 100;", "mpc.baseMVA = hundred;")
    with pytest.raises(matpower.MatpowerParseError, match="non-numeric"):
        matpower.parse_case(bad)


def test_parse_reports_missing_required_fields():
    with pytest.raises(matpower.MatpowerParseError, match="mpc.branch"):
        matpower.parse_case("mpc.baseMVA = 100;\nmpc.bus = [1 1 0 0;];")
    with pytest.raises(matpower.MatpowerParseError, match="mpc.baseMVA"):
        matpower.parse_case("mpc.bus = [1 1 0 0;];\nmpc.branch = [1 1 0 1 0;];")


def test_parse_rejects_unterminated_matrix():
    with pytest.raises(matpower.MatpowerParseError, match="not terminated"):
        matpower.parse_case("mpc.baseMVA = 100;\nmpc.bus = [\n 1 2 3;")


def test_parse_skips_unknown_fields():
    extended = CASE3 + "\nmpc.unknown_table = [\n 1 2 3;\n 4 5 6;\n];\nmpc.scalar_thing = 7;\n"
    case = matpower.parse_case(extended)
    assert case.bus.shape == (3, 13)


def test_numeric_tokens_roundtrip_at_full_precision():
    value = 0.123456789012345678
    text = f"mpc.baseMVA = 100;\nmpc.bus = [1 1 {value!r} 0;];\nmpc.branch = [1 1 0 {0.5} 0;];"
    case = matpower.parse_case(text)
    assert case.bus[0, 2] == value


def test_to_dcopf_case_conversions():
    case = matpower.to_dcopf_case(matpower.parse_case(CASE3))
    assert (case.gamma, case.eta) == (matpower.GAMMA, matpower.ETA) == (80.0, 900.0)
    assert np.allclose(case.demand, [0.5, 0.3, 0.2])
    assert case.lines == ((0, 1, 1.0 / 0.5), (1, 2, 1.0 / 0.25))
    # cost in pu-power units: a = c2 * base^2, b = c1 * base, c = c0
    assert case.gen_cost_a[0] == pytest.approx(0.02 * 100 * 100)
    assert case.gen_cost_b[0] == pytest.approx(2.0 * 100)
    assert case.gen_cost_c[0] == pytest.approx(10.0)
    assert np.all(case.gen_cost_a[1:] == 0.0)
    assert case.gen_capacity[0] == pytest.approx(0.8)
    assert case.pv_capacity == pytest.approx(800.0 / 1000.0 / 100.0)
    assert case.line_limit == pytest.approx(3000.0 / 1000.0 / 100.0)


def test_round_trip_row_count():
    case = matpower.to_dcopf_case(matpower.parse_case(CASE3))
    problem = dcopf.build_problem(case)
    assert problem.p == 9 * 3 + 4 + 1 == 32


def test_zero_reactance_branch_is_rejected():
    bad = CASE3.replace("1  2  0.01  0.5 ", "1  2  0.01  0.0 ")
    with pytest.raises(matpower.MatpowerParseError, match="reactance"):
        matpower.to_dcopf_case(matpower.parse_case(bad))


def test_non_quadratic_gencost_is_rejected():
    piecewise = CASE3.replace("2  0  0  3  0.02  2.0  10;", "1  0  0  2  0.0  1.0  2.0;")
    with pytest.raises(matpower.MatpowerParseError, match="row 0"):
        matpower.to_dcopf_case(matpower.parse_case(piecewise))
    cubic = CASE3.replace("2  0  0  3  0.02  2.0  10;", "2  0  0  4  1  0.02  2.0  10;")
    with pytest.raises(matpower.MatpowerParseError, match="not quadratic"):
        matpower.to_dcopf_case(matpower.parse_case(cubic))


def test_parallel_branches_sum_their_susceptances():
    doubled = CASE3.replace(
        "2  3  0.02  0.25  0  250  250  250  0  0  1  -360  360;",
        "2  3  0.02  0.25  0  250  250  250  0  0  1  -360  360;\n"
        "    3  2  0.02  0.25  0  250  250  250  0  0  1  -360  360;",
    )
    case = matpower.to_dcopf_case(matpower.parse_case(doubled))
    table = case.susceptance()
    assert table[(1, 2)] == pytest.approx(8.0)
    assert table[(2, 1)] == pytest.approx(8.0)


def test_multiple_generators_on_one_bus_warns_and_keeps_first():
    doubled = CASE3.replace(
        "mpc.gen = [\n    1  40  0  30  -30  1.0  100  1  80  0;\n];",
        "mpc.gen = [\n    1  40  0  30  -30  1.0  100  1  80  0;\n"
        "    1  10  0  30  -30  1.0  100  1  20  0;\n];",
    ).replace(
        "mpc.gencost = [\n    2  0  0  3  0.02  2.0  10;\n];",
        "mpc.gencost = [\n    2  0  0  3  0.02  2.0  10;\n    2  0  0  3  0.5  1.0  1;\n];",
    )
    with pytest.warns(UserWarning, match="multiple generators"):
        case = matpower.to_dcopf_case(matpower.parse_case(doubled))
    assert case.gen_capacity[0] == pytest.approx(0.8)
    assert case.gen_cost_a[0] == pytest.approx(0.02 * 100 * 100)


def test_out_of_service_branches_are_not_lines():
    offline = "2  3  0.02  0.25  0  250  250  250  0  0  0  -360  360;"
    case = matpower.to_dcopf_case(matpower.parse_case(CASE3.replace(
        "2  3  0.02  0.25  0  250  250  250  0  0  1  -360  360;", offline)))
    assert case.lines == ((0, 1, 1.0 / 0.5),)
    # an offline parallel branch adds no susceptance
    doubled = CASE3.replace("1  2  0.01  0.5   0  250  250  250  0  0  1  -360  360;",
                            "1  2  0.01  0.5   0  250  250  250  0  0  1  -360  360;\n"
                            "    2  1  0.01  0.5   0  250  250  250  0  0  0  -360  360;")
    case = matpower.to_dcopf_case(matpower.parse_case(doubled))
    assert case.lines == ((0, 1, 1.0 / 0.5), (1, 2, 1.0 / 0.25))


def test_out_of_service_generators_get_no_capacity_and_shadow_nothing():
    offline = CASE3.replace("1  40  0  30  -30  1.0  100  1  80  0;",
                            "1  40  0  30  -30  1.0  100  0  80  0;")
    case = matpower.to_dcopf_case(matpower.parse_case(offline))
    assert np.all(case.gen_capacity == 0.0)
    assert np.all(case.gen_cost_a == 0.0) and np.all(case.gen_cost_b == 0.0)
    # an offline first generator at bus 1 leaves the bus to the in-service
    # second one, with its own gencost row, and no warning
    second = offline.replace(
        "mpc.gen = [\n    1  40  0  30  -30  1.0  100  0  80  0;\n];",
        "mpc.gen = [\n    1  40  0  30  -30  1.0  100  0  80  0;\n"
        "    1  10  0  30  -30  1.0  100  1  20  0;\n];",
    ).replace(
        "mpc.gencost = [\n    2  0  0  3  0.02  2.0  10;\n];",
        "mpc.gencost = [\n    2  0  0  3  0.02  2.0  10;\n    2  0  0  3  0.5  1.0  1;\n];",
    )
    case = matpower.to_dcopf_case(matpower.parse_case(second))
    assert case.gen_capacity[0] == pytest.approx(0.2)
    assert case.gen_cost_a[0] == pytest.approx(0.5 * 100 * 100)
    assert case.gen_cost_b[0] == pytest.approx(1.0 * 100)


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_case_is_a_parse_error_naming_the_field_or_row(name):
    text, message = MALFORMED[name]
    with pytest.raises(matpower.MatpowerParseError, match=message):
        matpower.to_dcopf_case(matpower.parse_case(text))


def test_linear_gencost_maps_to_zero_quadratic_term():
    linear = CASE3.replace("2  0  0  3  0.02  2.0  10;", "2  0  0  2  2.0  10;")
    case = matpower.to_dcopf_case(matpower.parse_case(linear))
    assert case.gen_cost_a[0] == 0.0
    assert case.gen_cost_b[0] == pytest.approx(200.0)
    assert case.gen_cost_c[0] == pytest.approx(10.0)
