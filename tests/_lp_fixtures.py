"""LP helpers only the tests use: objectives and programs written with
Fraction coefficients or variable names, the reader for `--dump-lp` text,
a distortion-embedding feasibility system built on the full r-round LP,
and readers of a solution's set masks and pair values."""

from fractions import Fraction
from math import lcm

from treecut.errors import InputError
from treecut.instance import as_weight
from treecut.relaxation import (LpProgram, every_set_blocks, full_family, lifted_rows,
                                pair_sum)


def scaled(coeffs: dict) -> tuple:
    """(scale, {column: scale * coefficient}) over the nonzero
    coefficients, with the smallest integer scale: the form of each of an
    LpProgram's objectives."""
    coeffs = {j: Fraction(c) for j, c in coeffs.items() if c}
    scale = lcm(1, *(c.denominator for c in coeffs.values()))
    return scale, {j: c.numerator * (scale // c.denominator) for j, c in coeffs.items()}


def unscaled(objective: tuple) -> dict:
    """{column: coefficient} of a (scale, {column: int}) objective."""
    scale, ints = objective
    return {j: Fraction(c, scale) for j, c in ints.items()}


def mask_of(elems: tuple, subset) -> int:
    """The mask over elems that picks out subset."""
    return sum(1 << elems.index(v) for v in subset)


def y_value(solution, u, v) -> Fraction:
    """y_uv of an SaSolution: the mass of the first block holding {u, v}
    on the sides that separate u and v."""
    table = solution.block_table((u, v))[1]
    return table[1] + table[2]


def named_program(names, constraints, objective: dict, sense="min", name="lp") -> LpProgram:
    """An LpProgram from rows and its one objective keyed by variable name;
    the names become the columns 0, 1, ... in the order given."""
    col = {v: j for j, v in enumerate(names)}
    rows = [({col[v]: c for v, c in coeffs.items()}, s, rhs) for coeffs, s, rhs in constraints]
    return LpProgram(range(len(col)), rows, (scaled({col[v]: c for v, c in objective.items()}),),
                     sense=sense, name=name)


def build_distortion_lp(vertices, metric: dict, distortion, scale,
                        r: int) -> LpProgram:
    """Feasibility system for a distortion-D cut embedding of a metric:
    the full r-round system over the vertices plus scale*d <= y <= D*scale*d
    per pair."""
    family = full_family(vertices, r)
    carriers, ties = every_set_blocks(family)
    offset, constraints = lifted_rows(family, carriers, ties)
    D = as_weight(distortion)
    C = as_weight(scale)
    for (u, v), d in metric.items():
        d = as_weight(d)
        _, expr = pair_sum(family, offset, [(u, v, 1)])
        constraints.append((dict(expr), ">=", C * d))
        constraints.append((dict(expr), "<=", D * C * d))
    ncols = sum(1 << len(s) for s in family.sets)
    return LpProgram(range(ncols), constraints, ((1, {}),), sense="min",
                     name=f"distortion_{distortion}", family=family, blocks=tuple(carriers))


def parse_lp(text: str) -> LpProgram:
    sense = "min"
    objective: dict = {}
    constraints = []
    variables: dict = {}
    section = None
    body_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "maximize"):
            sense = "min" if low == "minimize" else "max"
            section = "obj"
            continue
        if low == "subject to":
            section = "cons"
            continue
        if low in ("bounds", "end"):
            section = None
            continue
        if section:
            body_lines.append((section, line))

    def parse_terms(s: str) -> dict:
        toks = s.replace("+", " + ").replace("-", " - ").split()
        out: dict = {}
        sign, coeff = 1, None
        for tok in toks:
            if tok == "+":
                sign, coeff = 1, None
            elif tok == "-":
                sign, coeff = -1, None
            else:
                try:
                    c = Fraction(tok)
                    coeff = c
                except ValueError:
                    c = coeff if coeff is not None else Fraction(1)
                    out[tok] = out.get(tok, Fraction(0)) + sign * c
                    variables[tok] = True
                    sign, coeff = 1, None
        return out

    for section, line in body_lines:
        if ":" in line:
            line = line.split(":", 1)[1].strip()
        if section == "obj":
            objective.update(parse_terms(line))
        else:
            for op, sense_tok in (("<=", "<="), (">=", ">="), ("=", "==")):
                if op in line:
                    lhs, rhs = line.rsplit(op, 1)
                    constraints.append((parse_terms(lhs), sense_tok, Fraction(rhs.strip())))
                    break
            else:
                raise InputError(f"constraint without relation: {line!r}")
    return named_program(variables, constraints, objective, sense=sense, name="parsed")
