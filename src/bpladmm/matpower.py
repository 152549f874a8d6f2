"""Reader for MATPOWER case files into the power flow model's case data.

MATPOWER cases are MATLAB data scripts with a rigid shape: scalar
assignments like ``mpc.baseMVA = 100;`` and bracketed numeric matrices like
``mpc.bus = [ ... ];`` with semicolon- or newline-separated rows.  The
parser here is a line-oriented reader for exactly that idiom, not a MATLAB
interpreter.  It reads only numeric scalars and bracketed numeric tables;
``%`` always starts a comment, even inside quotes; quoted strings, cell
arrays and other ``mpc`` fields it does not use are skipped, and anything
that is not an ``mpc`` assignment is ignored.
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

# the PV unit cost, the PV capacity and line limit in kW, and the placement
# penalty gamma and slack penalty eta of every case
PV_COST = 1.0
PV_CAPACITY_KW = 800.0
LINE_LIMIT_KW = 3000.0
GAMMA = 80.0
ETA = 900.0


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


def _parse_number(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MatpowerParseError(f"non-numeric token {token!r}", line_no) from None


def _finish_matrix(name: str, start_line: int, rows: list, row_lines: list) -> np.ndarray:
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
    base_mva = None
    matrices: dict = {}
    table = None  # the open table: name, first line, rows, each row's line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if table is None:
            name, eq, rest = line.partition("=")
            if not (name.startswith("mpc.") and eq):
                continue  # function header, unrelated code or a blank line
            name, rest = name[4:].strip(), rest.strip()
            if not rest.startswith("["):
                if name == "baseMVA" and not rest.startswith("'"):
                    base_mva = _parse_number(rest.rstrip(";").strip(), line_no)
                continue  # other scalars, quoted strings and cell arrays
            table = (name, line_no, [], [])
            line = rest[1:]
        # rows end at each ';' and at the line break; ']' closes the table
        name, _, rows, row_lines = table
        body, closing, _ = line.partition("]")
        for segment in body.split(";"):
            tokens = segment.replace(",", " ").split()
            if tokens:
                rows.append([_parse_number(t, line_no) for t in tokens])
                row_lines.append(line_no)
        if closing:
            matrices[name] = _finish_matrix(*table)
            table = None

    if table is not None:
        raise MatpowerParseError(f"matrix {table[0]} is not terminated", table[1])
    if base_mva is None:
        raise MatpowerParseError("required field mpc.baseMVA is missing or not a scalar")
    for required in ("bus", "branch"):
        if required not in matrices:
            raise MatpowerParseError(f"required field mpc.{required} is missing or not a matrix")
    return MatpowerCase(
        base_mva=base_mva,
        bus=matrices["bus"],
        branch=matrices["branch"],
        gen=matrices.get("gen"),
        gencost=matrices.get("gencost"),
    )


def _gencost_coefficients(row: np.ndarray, row_index: int) -> tuple[float, float, float]:
    """Quadratic (c2, c1, c0) from one polynomial gencost row."""
    if row[COST_MODEL] != 2:
        raise MatpowerParseError(
            f"gencost row {row_index}: model {row[COST_MODEL]:g} is not polynomial (model 2)"
        )
    ncoef = float(row[COST_NCOEF])
    if not (ncoef >= 0 and ncoef.is_integer()):
        raise MatpowerParseError(
            f"gencost row {row_index}: NCOST {ncoef:g} is not a whole number of coefficients"
        )
    ncoef = int(ncoef)
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


def to_dcopf_case(mp: MatpowerCase) -> DcOpfCase:
    """Normalize a parsed case into per-unit model data, with the penalties
    ``GAMMA`` and ``ETA``.

    Conventions: demand D_i = Pd / baseMVA; line susceptance b_ij = 1/x in
    pu with parallel branches summed; generator cost coefficients are
    rescaled so the cost of pu power matches the cost of MW power (a =
    c2*base^2, b = c1*base, c = c0); the PV capacity ``PV_CAPACITY_KW`` and
    line limit ``LINE_LIMIT_KW`` are converted at the case base; branch
    and generator rows out of service (status not positive) are skipped.
    A baseMVA that is not finite and positive, a table too narrow for a
    column read here, a repeated bus number, a branch from a bus to itself,
    a generator without a gencost row (when there is a gencost table), a
    gencost row whose NCOST is not a whole number or that holds fewer
    coefficients than it declares, or data the ``DcOpfCase`` rejects raises
    MatpowerParseError naming the field, table or row.
    """
    if not 0.0 < mp.base_mva < np.inf:  # NaN fails this too
        raise MatpowerParseError(f"baseMVA must be finite and positive, got {mp.base_mva}")
    for name, table, column in (("bus", mp.bus, BUS_PD), ("branch", mp.branch, BRANCH_STATUS),
                                ("gen", mp.gen, GEN_PMAX), ("gencost", mp.gencost, COST_NCOEF)):
        if table is not None and table.shape[1] <= column:
            raise MatpowerParseError(f"mpc.{name} has {table.shape[1]} columns, too few for "
                                     f"column {column + 1}")
    base = mp.base_mva
    index: dict = {}
    for k, bus_id in enumerate(int(v) for v in mp.bus[:, BUS_ID]):
        if bus_id in index:
            raise MatpowerParseError(f"bus row {k}: bus number {bus_id} repeats bus row "
                                     f"{index[bus_id]}")
        index[bus_id] = k
    n = len(mp.bus)
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
        if mp.gencost is not None and len(mp.gencost) < len(mp.gen):
            raise MatpowerParseError(f"gen row {len(mp.gencost)} has no gencost row")
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
            if mp.gencost is not None:
                c2, c1, c0 = _gencost_coefficients(mp.gencost[row_index], row_index)
                cost_a[k] = c2 * base * base
                cost_b[k] = c1 * base
                cost_c[k] = c0

    try:
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
            gamma=GAMMA,
            eta=ETA,
        )
    except ValueError as exc:  # bad case content, like a parse error
        raise MatpowerParseError(str(exc)) from exc
