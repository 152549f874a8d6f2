"""Reader for MATPOWER case files into the power flow model's case data.

MATPOWER cases are MATLAB data scripts with a rigid shape: scalar
assignments like ``mpc.baseMVA = 100;`` and bracketed numeric matrices like
``mpc.bus = [ ... ];`` with ``%`` comments and semicolon- or
newline-separated rows.  The parser here is a line-oriented tokenizer for
exactly that idiom, not a MATLAB interpreter; unknown ``mpc`` fields are
consumed and dropped, and anything that is not an ``mpc`` assignment is
ignored.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .dcopf import DcOpfCase

# column indices of the standard MATPOWER tables
BUS_ID, BUS_PD = 0, 2
BRANCH_FROM, BRANCH_TO, BRANCH_X, BRANCH_STATUS = 0, 1, 3, 10
GEN_BUS, GEN_STATUS, GEN_PMAX = 0, 7, 8
COST_MODEL, COST_NCOEF = 0, 3

# the PV unit cost, and the PV capacity and line limit in kW, of every case
PV_COST = 1.0
PV_CAPACITY_KW = 800.0
LINE_LIMIT_KW = 3000.0


class MatpowerParseError(ValueError):
    """Malformed case text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class MatpowerCase:
    """The numeric tables of one case; optional tables may be None."""

    base_mva: float
    bus: np.ndarray
    branch: np.ndarray
    gen: np.ndarray | None = None
    gencost: np.ndarray | None = None
    version: str | None = None


def _strip_comment(line: str) -> str:
    """Drop a % comment, respecting single-quoted strings."""
    in_quote = False
    for k, ch in enumerate(line):
        if ch == "'":
            in_quote = not in_quote
        elif ch == "%" and not in_quote:
            return line[:k]
    return line


def _parse_number(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MatpowerParseError(f"non-numeric token {token!r}", line_no) from None


def _finish_matrix(name: str, rows: list, row_lines: list, start_line: int) -> np.ndarray:
    if not rows:
        raise MatpowerParseError(f"matrix {name} is empty", start_line)
    width = len(rows[0])
    for values, line_no in zip(rows, row_lines):
        if len(values) != width:
            raise MatpowerParseError(
                f"ragged row in {name}: {len(values)} values, expected {width}", line_no
            )
    return np.array(rows, dtype=float)


def parse_case(text: str) -> MatpowerCase:
    """Parse MATPOWER case text into its numeric tables.

    Raises MatpowerParseError with a line number for ragged rows or
    non-numeric tokens, and a named error when a required field is missing
    or of the wrong kind (baseMVA a scalar, bus and branch matrices).
    """
    scalars: dict = {}
    strings: dict = {}
    matrices: dict = {}

    matrix_name = None
    matrix_rows: list = []
    matrix_row_lines: list = []
    matrix_start = 0

    def consume_rows(body: str, line_no: int):
        # rows end at each ';'; the line break also ends a row
        for segment in body.split(";"):
            tokens = segment.replace(",", " ").split()
            if tokens:
                matrix_rows.append([_parse_number(t, line_no) for t in tokens])
                matrix_row_lines.append(line_no)

    def close_matrix():
        nonlocal matrix_name, matrix_rows, matrix_row_lines
        matrices[matrix_name] = _finish_matrix(
            matrix_name, matrix_rows, matrix_row_lines, matrix_start
        )
        matrix_name = None
        matrix_rows = []
        matrix_row_lines = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if matrix_name is not None:
            closing = line.find("]")
            consume_rows(line[:closing] if closing >= 0 else line, line_no)
            if closing >= 0:
                close_matrix()
            continue

        if not line.startswith("mpc."):
            continue  # function header or unrelated code
        eq = line.find("=")
        if eq < 0:
            continue
        name = line[4:eq].strip()
        rest = line[eq + 1 :].strip()
        if rest.startswith("["):
            matrix_name = name
            matrix_rows = []
            matrix_row_lines = []
            matrix_start = line_no
            remainder = rest[1:]
            closing = remainder.find("]")
            consume_rows(remainder[:closing] if closing >= 0 else remainder, line_no)
            if closing >= 0:
                close_matrix()
        elif rest.startswith("'"):
            end = rest.find("'", 1)
            strings[name] = rest[1:end] if end > 0 else rest[1:]
        else:
            token = rest.rstrip(";").strip()
            if name == "baseMVA":
                scalars[name] = _parse_number(token, line_no)
            else:
                try:
                    scalars[name] = float(token)
                except ValueError:
                    pass  # unknown non-numeric field, skip it

    if matrix_name is not None:
        raise MatpowerParseError(f"matrix {matrix_name} is not terminated", matrix_start)
    for required, table, kind in (("baseMVA", scalars, "scalar"), ("bus", matrices, "matrix"),
                                  ("branch", matrices, "matrix")):
        if required not in table:
            raise MatpowerParseError(f"required field mpc.{required} is missing or not a {kind}")
    return MatpowerCase(
        base_mva=float(scalars["baseMVA"]),
        bus=matrices["bus"],
        branch=matrices["branch"],
        gen=matrices.get("gen"),
        gencost=matrices.get("gencost"),
        version=strings.get("version"),
    )


def _gencost_coefficients(row: np.ndarray, row_index: int) -> tuple[float, float, float]:
    """Quadratic (c2, c1, c0) from one polynomial gencost row."""
    model = int(row[COST_MODEL])
    if model != 2:
        raise MatpowerParseError(
            f"gencost row {row_index}: model {model} is not polynomial (model 2)"
        )
    ncoef = int(row[COST_NCOEF])
    if ncoef > 3:
        raise MatpowerParseError(
            f"gencost row {row_index}: degree {ncoef - 1} cost is not quadratic"
        )
    values = row[4 : 4 + ncoef]
    if len(values) < ncoef:
        raise MatpowerParseError(
            f"gencost row {row_index}: {ncoef} cost coefficients declared, {len(values)} given"
        )
    coeffs = [0.0, 0.0, 0.0]  # c2, c1, c0
    for offset, value in enumerate(values):
        coeffs[3 - ncoef + offset] = float(value)
    return coeffs[0], coeffs[1], coeffs[2]


def to_dcopf_case(mp: MatpowerCase, gamma: float = 80.0, eta: float = 900.0) -> DcOpfCase:
    """Normalize a parsed case into per-unit model data.

    Conventions: demand D_i = Pd / baseMVA; line susceptance b_ij = 1/x in
    pu with parallel branches summed; generator cost coefficients are
    rescaled so the cost of pu power matches the cost of MW power (a =
    c2*base^2, b = c1*base, c = c0); the PV capacity ``PV_CAPACITY_KW`` and
    line limit ``LINE_LIMIT_KW`` are converted at the case base; branch
    and generator rows out of service (status not positive) are skipped.
    A table too narrow for a column read here, a branch from a bus to
    itself, or a gencost row holding fewer coefficients than it declares
    raises MatpowerParseError naming the table or row.
    """
    if mp.base_mva <= 0:
        raise MatpowerParseError(f"baseMVA must be positive, got {mp.base_mva}")
    for name, table, column in (("bus", mp.bus, BUS_PD), ("branch", mp.branch, BRANCH_STATUS),
                                ("gen", mp.gen, GEN_PMAX), ("gencost", mp.gencost, COST_NCOEF)):
        if table is not None and table.shape[1] <= column:
            raise MatpowerParseError(f"mpc.{name} has {table.shape[1]} columns, too few for "
                                     f"column {column + 1}")
    base = mp.base_mva
    bus_ids = [int(v) for v in mp.bus[:, BUS_ID]]
    index = {bus_id: k for k, bus_id in enumerate(bus_ids)}
    n = len(bus_ids)
    demand = np.asarray(mp.bus[:, BUS_PD], dtype=float) / base

    line_map: dict = {}
    for row_index, row in enumerate(mp.branch):
        if not row[BRANCH_STATUS] > 0:
            continue
        i_id, j_id = int(row[BRANCH_FROM]), int(row[BRANCH_TO])
        if i_id not in index or j_id not in index:
            raise MatpowerParseError(
                f"branch row {row_index}: endpoint {i_id}-{j_id} references an unknown bus"
            )
        if i_id == j_id:
            raise MatpowerParseError(f"branch row {row_index}: bus {i_id} connects to itself")
        x = float(row[BRANCH_X])
        if x == 0.0:
            raise MatpowerParseError(
                f"branch row {row_index}: zero reactance gives infinite susceptance"
            )
        i, j = sorted((index[i_id], index[j_id]))
        line_map[(i, j)] = line_map.get((i, j), 0.0) + 1.0 / x
    lines = tuple((i, j, b) for (i, j), b in sorted(line_map.items()))

    cost_a = np.zeros(n)
    cost_b = np.zeros(n)
    cost_c = np.zeros(n)
    gen_capacity = np.zeros(n)
    seen: set = set()
    if mp.gen is not None:
        for row_index, row in enumerate(mp.gen):
            if not row[GEN_STATUS] > 0:
                continue
            bus_id = int(row[GEN_BUS])
            if bus_id not in index:
                raise MatpowerParseError(
                    f"gen row {row_index}: bus {bus_id} does not exist"
                )
            k = index[bus_id]
            if k in seen:
                warnings.warn(
                    f"bus {bus_id} has multiple generators; keeping the first",
                    stacklevel=2,
                )
                continue
            seen.add(k)
            gen_capacity[k] = float(row[GEN_PMAX]) / base
            if mp.gencost is not None and row_index < len(mp.gencost):
                c2, c1, c0 = _gencost_coefficients(mp.gencost[row_index], row_index)
                cost_a[k] = c2 * base * base
                cost_b[k] = c1 * base
                cost_c[k] = c0

    return DcOpfCase(
        demand=demand,
        lines=lines,
        pv_cost=PV_COST,
        gen_cost_a=cost_a,
        gen_cost_b=cost_b,
        gen_cost_c=cost_c,
        pv_capacity=PV_CAPACITY_KW / 1000.0 / base,
        gen_capacity=gen_capacity,
        line_limit=LINE_LIMIT_KW / 1000.0 / base,
        gamma=gamma,
        eta=eta,
    )
