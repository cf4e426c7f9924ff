"""The CLI's exit-code contract under fuzzing.

Malformed `.ssc` instances, `.td` decompositions and ULC JSON files, and
odd flag values, go through `treecut.cli.main` in-process.  Whatever the
input, the run ends with exit code 0 (ok), 2 (input), 3 (budget) or 4
(invariant), and nothing escapes as an exception, so the command line
never shows a traceback.  The examples are derandomized, so each run draws
the same inputs, and few enough to keep the whole file to a few seconds.
The pools hold a few huge numbers where a budget refuses them before any
work: a `p ssc` vertex count, `--levels`, `--labels`, `--delta`,
`--ulc-vertices`, `--samples` and a ULC's "d".  They also hold weights of
more than 1000 digits (`1e5000`, `1e-5000`, `1e100000000`), which are input
errors before their integers are built.  The other numbers stay small,
since a large valid one only costs time.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from treecut.cli import main
from treecut.generators import MaxCutInstance, building_block
from treecut.instance import format_instance

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

VALID_SSC = format_instance(building_block(MaxCutInstance.named("k3"), True)[0])
# a valid three-bag decomposition of the K_3 block
VALID_TD = "s td 3 3 5\nb 1 1 2 5\nb 2 1 2 4\nb 3 1 2 3\n1 2\n1 3\n"
VALID_ULC = json.dumps({"vertices": [1, 2, 3], "d": 2,
                        "edges": [[1, 2, [0, 1]], [2, 3, [0, 1]], [1, 3, [0, 1]]],
                        "cliques": [[0], [1], [2]]})

HUGE = str(10**9)
TOKEN = st.sampled_from(["0", "1", "2", "3", "5", "6", "-1", "99", "1/3", "-2/3", "1/0",
                         "0.5", "1e3", "abc", "nan", "inf", "p", "e", "d", "t", "s", "b",
                         "c", "ssc", "td", "#", str(10**12), "1e5000", "1e-5000",
                         "1e100000000"])
JSON_VALUE = st.sampled_from([0, 1, 2, 3, -1, 99, 2.5, "2", "", None, True, [], {}, [0],
                              [0, 1], [1, 0], [[0]], [[0, 1]], [1, 2, [0, 1]], 10**9])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@st.composite
def mutated_lines(draw, text):
    """text with up to three line edits: a token replaced or appended, a
    line deleted or duplicated, or a line of pool tokens inserted."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("replace", "delete", "duplicate", "insert")))
        i = draw(st.integers(0, len(lines)))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(st.lists(TOKEN, min_size=1, max_size=5)))
        elif op == "replace":
            j = draw(st.integers(0, len(lines[i])))
            lines[i][j:j + 1] = [draw(TOKEN)]
        elif op == "delete":
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    return "".join(" ".join(line) + "\n" for line in lines)


def _paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_ulc(draw):
    """The triangle ULC with up to three entries replaced or deleted, and
    its JSON text perhaps cut short."""
    doc = json.loads(VALID_ULC)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(JSON_VALUE))  # later edits must not reach the pool
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = value
        else:
            del parent[path[-1]]
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def flag(name, *values):
    """[] or [name, value]: an optional flag with a value from the pool."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


SEEDED = ("solve", "verify", "round", "embed")  # oracle and decompose take no --seed


@FUZZ
@given(text=mutated_lines(VALID_SSC),
       command=st.sampled_from(["oracle", "solve", "decompose", "verify", "round", "embed"]),
       budget=flag("--budget-vertices", "-1", "0", "1", "5", "x"),
       seed=flag("--seed", "0", "3", "-1", "x"),
       fmt=flag("--format", "json", "csv", "text", "xml"),
       samples=flag("--samples", "0", "1", "5", "-1", "x", HUGE))
def test_malformed_instances_keep_the_exit_contract(text, command, budget, seed, fmt, samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.ssc")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command, path] + budget
        if command in SEEDED:
            argv += seed
        # decompose writes a `.td` and embed a CSV: neither takes --format
        if command == "embed":
            argv += samples
        elif command != "decompose":
            argv += fmt
        assert_contract(argv)


@FUZZ
@given(text=mutated_lines(VALID_TD), root=flag("--root", "0", "1", "2", "3", "-1", "99", "x"))
def test_malformed_decompositions_keep_the_exit_contract(text, root):
    with tempfile.TemporaryDirectory() as tmp:
        inst, td = os.path.join(tmp, "in.ssc"), os.path.join(tmp, "in.td")
        with open(inst, "w") as fh:
            fh.write(VALID_SSC)
        with open(td, "w") as fh:
            fh.write(text)
        assert_contract(["solve", inst, "--decomposition", td, "--format", "json"] + root)


@FUZZ
@given(text=mutated_ulc(), alpha=flag("--alpha", "1/25", "0", "-1", "abc", "1/0", "2"))
def test_malformed_ulc_json_keeps_the_exit_contract(text, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ulc.json")
        with open(path, "w") as fh:
            fh.write(text)
        assert_contract(["gen", "gadget", "--ulc", path, "-o", os.path.join(tmp, "g.ssc"),
                         "--sidecar", os.path.join(tmp, "g.json")] + alpha)


SMALL = ("-1", "0", "1", "2", "3", "x", "2.5")


@FUZZ
@given(what=st.sampled_from(["block", "power", "gadget", "ulc", "bogus"]),
       labels=flag("--labels", *SMALL, HUGE),
       flags=st.tuples(flag("--maxcut", "k3", "p3", "c5", "k2", "k1", "p1", "c2", "x3", "k", ""),
                       flag("--levels", *SMALL, "99", "6000", HUGE),
                       flag("--alpha", "1/25", "0", "-1", "abc", "1/0"),
                       flag("--delta", *SMALL, HUGE),
                       flag("--ulc-vertices", *SMALL, "4", HUGE),
                       flag("--seed", "0", "-1", "x"),
                       st.sampled_from([[], ["--st-demand"], ["--random-ulc"], ["--plant"]])))
def test_generator_flags_keep_the_exit_contract(what, labels, flags):
    with tempfile.TemporaryDirectory() as tmp:
        assert_contract(["gen", what, "-o", os.path.join(tmp, "out"),
                         "--td-out", os.path.join(tmp, "out.td"),
                         "--sidecar", os.path.join(tmp, "out.json")]
                        + labels + [a for f in flags for a in f])


@FUZZ
@given(base=st.sampled_from(["p3", "k3", "k4", "c5", "k2", "k1", "p1", "c2", "x3", "k", ""]),
       rounds=st.sampled_from([*SMALL, "99"]),
       levels=st.sampled_from([*SMALL, "99", "6000", HUGE]),
       fmt=flag("--format", "json", "csv", "text", "xml"))
def test_gap_flags_keep_the_exit_contract(base, rounds, levels, fmt):
    assert_contract(["gap", "--base", base, "--rounds", rounds, "--levels", levels] + fmt)
