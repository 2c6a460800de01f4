"""Command-line interface: parsing, exit codes, JSON schema stability."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from lieinduct import cli
from lieinduct import induction as ind_mod
from lieinduct.cli import parse_weight, run, weight_label, UsageError

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def cli_env():
    """The environment for running the CLI in a subprocess from this tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_json(capsys, *args):
    code = run([*args, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_weight_parsing():
    assert parse_weight("w3", 5) == (0, 0, 1, 0, 0)
    assert parse_weight("w0", 3) == (0, 0, 0)
    assert parse_weight("2w1", 4) == (2, 0, 0, 0)
    assert parse_weight("[1,0,2]", 3) == (1, 0, 2)
    assert parse_weight("[-1, 2]", 2) == (-1, 2)
    with pytest.raises(UsageError):
        parse_weight("w9", 4)
    with pytest.raises(UsageError):
        parse_weight("[1,2]", 3)
    with pytest.raises(UsageError):
        parse_weight("omega3", 4)


@pytest.mark.parametrize("text", ["[1,,2]", "[-,1,2]", "[1-2,0,0]", "[,]", "[1 2,0]"])
def test_malformed_weight_list_is_a_usage_error(capsys, text):
    assert run(["dim", "A3", text]) == 2
    assert f"cannot parse weight {text!r}" in capsys.readouterr().err


def test_weight_labels():
    assert weight_label((0, 0, 1)) == "w3"
    assert weight_label((0, 0)) == "w0"
    assert weight_label((2, 0)) == "2w1"
    assert weight_label((1, 1)) == "[1,1]"


def test_highest_root_json(capsys):
    code, doc = run_json(capsys, "highest-root", "E8")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["result"]["coordinates"] == [2, 3, 4, 6, 5, 4, 3, 2]
    assert doc["result"]["height"] == "29"


def test_dim_text(capsys):
    assert run(["dim", "A5", "w3"]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_dim_roundtrip_precision(capsys):
    # a dimension beyond 2^53 must survive the decimal-string serialization
    code, doc = run_json(capsys, "dim", "E8", "[1,1,1,1,1,1,1,1]")
    assert code == 0
    value = int(doc["result"]["dimension"])
    assert value > 2 ** 53
    from lieinduct.rep_theory import weyl_dim
    from lieinduct.root_system import build_root_system, parse_dynkin

    assert value == weyl_dim(build_root_system(parse_dynkin("E8")), (1,) * 8)


def test_delete_text(capsys):
    assert run(["delete", "G2", "--node", "1"]) == 0
    out = capsys.readouterr().out
    assert "m_d = 3" in out
    assert out.count("w1") == 2 and "w0" in out


def test_delete_iota_forms(capsys):
    assert run(["delete", "F4", "--node", "1", "--iota", "1:4,2:3,3:2"]) == 0
    capsys.readouterr()
    assert run(["delete", "F4", "--node", "1", "--iota", "table2"]) == 0
    capsys.readouterr()
    assert run(["delete", "F4", "--node", "1", "--iota", "1:2,2:3,3:4"]) == 1
    assert "BadEmbedding" in capsys.readouterr().err
    assert run(["delete", "F4", "--node", "1", "--iota", "1:4"]) == 1
    assert "BadEmbedding" in capsys.readouterr().err


@pytest.mark.parametrize("argv,labels", [
    (["delete", "A3", "--node", "3", "--iota", "1:1,2:2,3:3"], [3]),  # 3 is the deleted node
    (["delete", "A3", "--node", "3", "--iota", "1:1,2:2,9:7"], [9]),
    (["delete", "A1", "--node", "1", "--iota", "1:1"], [1]),
    (["equivalences", "A4", "--node", "4", "--iota", "1:1,2:2,3:3,4:4"], [4]),
])
def test_iota_labels_outside_the_residual_are_refused(capsys, argv, labels):
    assert run(argv) == 1
    assert f"BadEmbedding]: the rank-{int(argv[1][1:]) - 1} residual has no labels {labels}" \
        in capsys.readouterr().err


def test_iota_label_given_twice_is_a_usage_error(capsys):
    assert run(["delete", "F4", "--node", "1", "--iota", "1:2,1:4,2:3,3:2"]) == 2
    assert "residual label 1 is given twice" in capsys.readouterr().err


def test_out_of_range_node_is_a_domain_error_with_any_iota(capsys):
    # the node is range-checked before the summary table is consulted
    for verb in ("delete", "equivalences"):
        for typ, node in (("A1", "0"), ("C4", "5")):
            for extra in ([], ["--iota", "table2"]):
                assert run([verb, typ, "--node", node, *extra]) == 1
                err = capsys.readouterr().err
                assert f"InvalidType]: node {node} out of range for {typ}" in err
        # a valid node with no summary-table row stays a usage error
        assert run([verb, "A1", "--node", "1", "--iota", "table2"]) == 2
        assert "no summary-table row for A1 at node 1" in capsys.readouterr().err


def test_report_e9(capsys):
    code, doc = run_json(capsys, "report", "E9")
    assert code == 0
    assert doc["result"]["consistent"] is False
    assert doc["result"]["base_dimensions"]["D8"] == ["377"]
    assert "249" in doc["result"]["base_dimensions"]["A8"]
    assert "417" in doc["result"]["base_dimensions"]["A8"]


def test_table2_exit_code(capsys):
    assert run(["table2"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "FAIL" not in out


def test_domain_error_exit_code(capsys):
    assert run(["dim", "C2", "w1"]) == 1
    assert "InvalidType" in capsys.readouterr().err
    assert run(["dim", "A2", "[-1,0]"]) == 1
    assert "NotDominant" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run(["dim", "A2", "w7"]) == 2
    capsys.readouterr()
    assert run(["no-such-verb"]) == 2
    capsys.readouterr()
    assert run(["induct", "A2", "w1", "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


# Command lines with more than one fault, and the one fault that is
# reported: the type before the weights, the weights in order before the
# depth, the node before the embedding.
ERROR_PRECEDENCE = [
    ("dim E9 w9", 1, "error [InvalidType]: E9 out of range: E accepts rank 6..8"),
    ("tensor E8 w9 [1]", 2, "usage error: w9 does not exist at rank 8"),
    ("tensor E8 w1 [1,2]", 2, "usage error: weight [1,2] has 2 coordinates, need 8"),
    ("dim E8 [-1,0,0,0,0,0,0,0]", 1,
     "error [NotDominant]: weight (-1, 0, 0, 0, 0, 0, 0, 0) is not dominant"),
    ("induct G2 w9 --depth 0", 2, "usage error: w9 does not exist at rank 2"),
    ("induct G2 w0", 1,
     "error [TrivialFirstLevel]: the first level over G2 must be a non-trivial module"),
    ("report E9 --depth 0", 2, "usage error: depth must be at least 1, got 0"),
    ("delete E8 --node 9 --iota 1:1", 1, "error [InvalidType]: node 9 out of range for E8"),
    ("delete B8 --node 5 --iota table2", 2, "usage error: no summary-table row for B8 at node 5"),
    ("automorphisms A33", 1, "error [InvalidType]: A33 out of range: A accepts rank 1..32"),
    ("equivalences D4 --node 5", 1, "error [InvalidType]: node 5 out of range for D4"),
    # rho's orbit is refused from its exact size; tensor and the squares
    # refuse it before the character of V(rho), past the dominant-weight cap
    *((op, 1, "error [BudgetExceeded]: the orbit of [1, 1, 1, 1, 1, 1, 1, 1] has "
       "696729600 weights, more than 2000000")
      for op in ["orbit E8 [1,1,1,1,1,1,1,1]",
                 "tensor E8 [1,1,1,1,1,1,1,1] [1,1,1,1,1,1,1,1]",
                 "wedge2 E8 [1,1,1,1,1,1,1,1]",
                 "sym2 E8 [1,1,1,1,1,1,1,1]"]),
]


@pytest.mark.parametrize("op,code,err", ERROR_PRECEDENCE)
def test_error_precedence(capsys, op, code, err):
    assert run(op.split()) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", err + "\n")


def test_depth_defaults_to_12_and_flag_is_honoured(capsys):
    code, doc = run_json(capsys, "induct", "A2", "w1")
    assert code == 0
    assert doc["result"]["max_depth"] == 12
    code, doc = run_json(capsys, "induct", "D8", "w7", "--depth", "5")
    assert code == 0
    assert doc["result"]["max_depth"] == 5
    code, doc = run_json(capsys, "report", "G3", "--depth", "5")
    assert code == 0
    assert doc["result"]["max_depth"] == 5
    assert run(["induct", "A2", "w1", "--depth", "0"]) == 2
    assert "depth must be at least 1" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lieinduct.cli", "dim", "E7", "w7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "56"


def test_optimized_interpreter_gives_same_output():
    # invariant checks are typed errors, not asserts, so -O changes nothing
    env = cli_env()
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "lieinduct.cli", "tensor", "E6", "w1", "w6"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "V([1,0,0,0,0,1]) dim 650" in outs[0]


def test_closed_pipe_exits_quietly():
    # far more output than a pipe buffer holds, so writing meets the closed end
    env = cli_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "lieinduct.cli", "induct", "G2", "w1", "--depth", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


def test_oversized_orbit_fails_fast(capsys):
    # 696,729,600 weights in the orbit of rho: refused up front from the exact
    # orbit size, before any weight is enumerated or any multiplicity computed
    rho = "[1,1,1,1,1,1,1,1]"
    for argv in (["orbit", "E8", rho], ["tensor", "E8", rho, rho],
                 ["wedge2", "E8", rho], ["sym2", "E8", rho]):
        start = time.perf_counter()
        assert run(argv) == 1, argv
        assert time.perf_counter() - start < 1.0, argv
        assert "BudgetExceeded" in capsys.readouterr().err, argv


def test_oversized_character_fails_fast():
    # 14,870 dominant weights for E8 rho and 357,855 for A8 9rho: the
    # dominant-weight closure stops at MAX_DOMINANT_WEIGHTS, before any
    # multiplicity is computed
    env = cli_env()
    for argv in (["E8", "[1,1,1,1,1,1,1,1]"], ["E8", "[2,2,2,2,2,2,2,2]"],
                 ["A8", "[9,9,9,9,9,9,9,9]"]):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "lieinduct.cli", "character", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert time.perf_counter() - start < 2.0, argv
        assert proc.returncode == 1, argv
        assert "BudgetExceeded" in proc.stderr, argv
        assert "Traceback" not in proc.stderr, argv


def test_deep_induction_search_fails_fast():
    # one open chain per depth, each as long as its depth: about depth^2 / 2
    # levels, so the search stops at MAX_SEARCH_LEVELS near depth 2,000
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lieinduct.cli", "induct", "A2", "w1", "--depth", "100000"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 1
    assert "BudgetExceeded" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rank_past_the_classical_cap_fails_fast():
    # the root closure of A_n costs about n^4: A100 took seconds, A300 hung
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lieinduct.cli", "highest-root", "A33"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 1
    assert "InvalidType" in proc.stderr and "rank 1..32" in proc.stderr
    assert "Traceback" not in proc.stderr


def _fuzz_weight(rng, rank):
    pick = rng.random()
    if pick < 0.4:
        return f"w{rng.randint(0, rank)}"
    if pick < 0.5:
        return f"{rng.randint(2, 3)}w{rng.randint(1, rank)}"
    return "[" + ",".join(str(rng.choice([0, 0, 0, 1, 1, 2, -1])) for _ in range(rank)) + "]"


def _fuzz_op(rng):
    """A random induct/report/delete/equivalences command line; invalid
    types, nodes, weights, embeddings and depths included."""
    label = rng.choice(["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                        "D4", "F4", "G2", "B1", "D3", "E5"])
    rank = int(label[1:])
    verb = rng.choice(["induct", "report", "delete", "equivalences"])
    if verb == "induct":
        argv = [verb, label, _fuzz_weight(rng, rank)]
        if rng.random() < 0.8:
            depth = rng.choice([1, 2, 7, 12, 40, 300, 100_000, rng.randint(-1, 100_000)])
            argv += ["--depth", str(depth)]
    elif verb == "report":
        depth = rng.choice([1, 5, 30, 100_000, rng.randint(0, 100_000)])
        argv = [verb, rng.choice(["E9", "F5", "G3", "g3"]), "--depth", str(depth)]
    else:
        argv = [verb, label, "--node", str(rng.randint(0, rank + 1))]
        if rng.random() < 0.3:
            pairs = ",".join(f"{i}:{rng.randint(1, rank + 1)}" for i in range(1, rank))
            argv += ["--iota", rng.choice(["table2", pairs])]
    if rng.random() < 0.3:
        argv += ["--format", "json"]
    return argv


def _fuzz_closure_op(rng, verb):
    """A random command line of a verb whose first step is the root
    closure, at ranks up to 32; invalid types and weights included."""
    label = rng.choice(["A1", "A8", "A32", "B2", "B8", "B32", "C3", "C32", "D4", "D32",
                        "E6", "E7", "E8", "F4", "G2", "A33", "B1", "C2", "E9"])
    argv = [verb, label]
    if verb in ("dim", "orbit"):
        argv.append(_fuzz_weight(rng, int(label[1:])))
    if rng.random() < 0.3:
        argv += ["--format", "json"]
    return argv


def test_seeded_cli_fuzz_never_hangs_or_crashes():
    rng = random.Random(8808)
    ops = [_fuzz_op(rng) for _ in range(30)] + [
        _fuzz_closure_op(rng, verb)
        for verb in ["roots", "highest-root", "dim", "orbit", "automorphisms"] * 3
    ]
    for argv in ops:
        proc = subprocess.run(
            [sys.executable, "-m", "lieinduct.cli", *argv],
            capture_output=True, text=True, env=cli_env(), timeout=30,
        )
        assert proc.returncode in (0, 1, 2), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


def test_induct_past_character_budget_admits_no_chains(capsys):
    # V(5000w1) of A1 has 2,501 dominant weights, past MAX_DOMINANT_WEIGHTS;
    # more than two means not defining, so the search admits no chain
    start = time.perf_counter()
    assert run(["induct", "A1", "[5000]"]) == 0
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr()
    assert out.out == "0 chains from V(5000w1; A1) to depth 12\n"
    assert out.err == ""


def test_library_has_no_assert_statements():
    import ast
    import lieinduct

    pkg = os.path.dirname(lieinduct.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            assert not any(isinstance(n, ast.Assert) for n in ast.walk(tree)), name


def test_every_library_name_has_one_owner():
    # No module imports a sibling's underscore name (from .x import _y) or
    # reads one as an attribute (del_mod._summary_rows): a name another
    # module needs is public in its owner.  Same-module access is fine.
    import ast
    import lieinduct

    pkg = os.path.dirname(lieinduct.__file__)
    leaks = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        siblings = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        leaks.append(f"{name} imports {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                leaks.append(f"{name} reads {node.value.id}.{node.attr}")
    assert leaks == []
    # the package root binds __version__ alone and loads no submodule
    script = (
        "import sys, lieinduct\n"
        "print(sorted(m for m in sys.modules if m.startswith('lieinduct.')))\n"
        "print(sorted(k for k in vars(lieinduct) if not k.startswith('__')))\n"
        "print(lieinduct.__version__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    loaded, public, version = proc.stdout.splitlines()
    assert (loaded, public) == ("[]", "[]")
    assert version


# Public library names that nothing in the package or the benchmark names,
# each with the reason it stays.
CALLERLESS = {
    "tensor_ops.DecompositionResult.as_multiset":
        "the one reader of a whole decomposition, which the tests compare",
}


def _mentions(tree, identifiers=True) -> Counter:
    """How often tree names each name: as an identifier (unless identifiers
    is false), an attribute or a string constant.  A dict display's key is
    an output field, not a name."""
    import ast

    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += identifiers
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in keys):
            found[node.value] += 1
    return found


def test_every_public_library_name_has_a_caller():
    # Every public module-level function and class, and every public method
    # or property of a public class, is named in the package outside its own
    # definition, or in the benchmark harness: the library keeps no answer
    # that only the tests ask for.  A string counts, since cli finds
    # sym2_decompose by getattr and perfbench patches CharacterTable.expand
    # by name.  The harness reaches the library through module attributes
    # and strings alone, so its own identifiers do not count.
    import ast
    import lieinduct

    pkg = os.path.dirname(lieinduct.__file__)
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    trees = {}
    for folder in (pkg, bench):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    trees[folder, name[:-3]] = ast.parse(fh.read())
    in_package = sum((_mentions(t) for (f, _), t in trees.items() if f == pkg), Counter())
    in_bench = sum((_mentions(t, identifiers=False) for (f, _), t in trees.items()
                    if f == bench), Counter())
    public = []  # (qualified name, definition)
    for (folder, module), tree in trees.items():
        if folder != pkg:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public.append((f"{module}.{node.name}", node))
                if isinstance(node, ast.ClassDef):
                    public += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_")]
    assert len(public) > 100
    uncalled = sorted(
        qualname for qualname, node in public
        if in_package[node.name] == _mentions(node)[node.name] and not in_bench[node.name]
    )
    assert uncalled == sorted(CALLERLESS)


def test_no_library_function_takes_a_true_or_false_option():
    # A parameter defaulting to True or False is an option; the library has
    # one path per result, so none takes such a parameter.
    import ast
    import lieinduct

    pkg = os.path.dirname(lieinduct.__file__)
    options = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args
                defaults = list(zip(params[len(params) - len(args.defaults):], args.defaults))
                defaults += zip(args.kwonlyargs, args.kw_defaults)
                options += [
                    f"{name}: {node.name}({arg.arg}={default.value})"
                    for arg, default in defaults
                    if isinstance(default, ast.Constant) and isinstance(default.value, bool)
                ]
    assert options == []


GOLDEN_COMMANDS = {
    "highest_root_e8.json": ["highest-root", "E8"],
    "dim_a5_w3.json": ["dim", "A5", "w3"],
    "defining_c3.json": ["defining", "C3"],
    "wedge2_d8_w7.json": ["wedge2", "D8", "w7"],
    "delete_g2_node1.json": ["delete", "G2", "--node", "1"],
    "delete_b8_node4.json": ["delete", "B8", "--node", "4"],
    "equivalences_d4.json": ["equivalences", "D4", "--node", "1"],
    "report_f5.json": ["report", "F5"],
    "report_e9.json": ["report", "E9"],
    "report_g3.json": ["report", "G3"],
    "roots_f4.json": ["roots", "F4"],
}


def test_json_output_matches_golden_files(capsys):
    for name, argv in GOLDEN_COMMANDS.items():
        code, doc = run_json(capsys, *argv)
        assert code == 0, name
        with open(os.path.join(GOLDEN_DIR, name)) as fh:
            expected = json.load(fh)
        assert doc == expected, name


def test_every_verb_runs(capsys):
    commands = [
        ["roots", "G2"],
        ["highest-root", "F4"],
        ["automorphisms", "D4"],
        ["dim", "E6", "w6"],
        ["character", "B3", "w3"],
        ["orbit", "A2", "w1"],
        ["defining", "B4"],
        ["tensor", "A2", "w1", "w2"],
        ["wedge2", "C3", "w1"],
        ["sym2", "A3", "w1"],
        ["delete", "E6", "--node", "2"],
        ["equivalences", "A4", "--node", "4"],
        ["table2"],
        ["induct", "G2", "w1", "--depth", "4"],
        ["report", "G3"],
    ]
    for argv in commands:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out, argv
        code, doc = run_json(capsys, *argv)
        assert code == 0 and "result" in doc, argv


def test_delete_rank_one(capsys):
    code, doc = run_json(capsys, "delete", "A1", "--node", "1")
    assert code == 0
    assert doc["result"]["residual"] == []
    assert doc["result"]["m_d"] == 1
    assert doc["result"]["levels"][0]["dimension"] == "1"


def test_orbit_and_character_values(capsys):
    code, doc = run_json(capsys, "orbit", "A1", "w1")
    assert code == 0
    assert doc["result"]["size"] == "2"
    code, doc = run_json(capsys, "character", "F4", "w4")
    rows = {tuple(r["weight"]): r for r in doc["result"]["dominant_weights"]}
    assert rows[(0, 0, 0, 0)]["multiplicity"] == "2"
    assert doc["result"]["dimension"] == "26"


# One valid command line per verb, exercising its options.
PARSER_SAMPLES = {
    "roots": ["roots", "G2"],
    "highest-root": ["highest-root", "F4", "--format", "json"],
    "automorphisms": ["automorphisms", "D4"],
    "dim": ["dim", "E6", "w6"],
    "character": ["character", "B3", "w3", "--format", "json"],
    "orbit": ["orbit", "A2", "w1"],
    "defining": ["defining", "B4"],
    "tensor": ["tensor", "A2", "w1", "w2"],
    "wedge2": ["wedge2", "C3", "w1"],
    "sym2": ["sym2", "A3", "w1"],
    "delete": ["delete", "E6", "--node", "2", "--iota", "table2"],
    "equivalences": ["equivalences", "A4", "--node", "4"],
    "table2": ["table2"],
    "induct": ["induct", "G2", "w1", "--depth", "4"],
    "report": ["report", "g3", "--depth", "9", "--format", "json"],
}


def _verbs(parser):
    """The registered subparsers, by verb."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _subparser(parser, verb):
    return _verbs(parser)[verb]


def _parse_failure(parser, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, err.getvalue()


def test_single_verb_parser_matches_full_parser():
    assert set(PARSER_SAMPLES) == set(cli._VERBS)
    full = cli._build_parser()
    for verb, argv in PARSER_SAMPLES.items():
        single = cli._build_parser([verb])
        assert single.parse_args(argv) == full.parse_args(argv), verb
        assert _subparser(single, verb).format_help() == _subparser(full, verb).format_help()
        # errors the verb's own subparser reports; leftover arguments are
        # reported by the parser with every verb (see the next test)
        for bad in ([verb, "--format", "xml"], [verb, "--format"]):
            code, err = _parse_failure(single, bad)
            assert code == 2 and err
            assert (code, err) == _parse_failure(full, bad), bad


def test_run_reports_leftover_arguments_with_every_verb(capsys):
    argv = ["dim", "A2", "w1", "extra"]
    expected = _parse_failure(cli._build_parser(), argv)
    assert run(argv) == 2
    assert capsys.readouterr().err == expected[1]
    assert "highest-root" in expected[1] and "unrecognized arguments: extra" in expected[1]


def test_run_builds_a_parser_only_for_what_parse_defers(capsys, monkeypatch):
    built = []  # the verbs of each parser built, in order
    real = cli._build_parser

    def spy(*args):
        parser = real(*args)
        built.append(list(_verbs(parser)))
        return parser

    monkeypatch.setattr(cli, "_build_parser", spy)
    for argv in PARSER_SAMPLES.values():
        assert run(argv) == 0, argv
    assert built == []
    capsys.readouterr()
    # '--format=json' is valid but not canonical: the verb's own parser reads it
    assert run(["dim", "A2", "w1", "--format=json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["dimension"] == "3"
    assert built == [["dim"]]
    built.clear()
    assert run(["dim", "A2"]) == 2
    assert "required: weight" in capsys.readouterr().err
    assert built == [["dim"]]
    built.clear()
    assert run(["no-such-verb"]) == 2
    assert "no-such-verb" in capsys.readouterr().err
    assert built == [list(cli._VERBS)]
    built.clear()
    assert run(["dim", "A2", "w1", "extra"]) == 2
    assert "unrecognized arguments: extra" in capsys.readouterr().err
    assert built == [["dim"], list(cli._VERBS)]


def _argparse_vars(parser, argv):
    """vars of the parser's namespace, or None when it rejects argv."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


# Valid command lines that _parse leaves to argparse.
DEFERRED = [
    ["tensor", "E8", "w1", "w1", "--format=json"],
    ["induct", "A2", "w1", "--dep", "3"],
    ["dim", "E8", "-1"],
    ["induct", "A2", "w1", "--depth", "-5"],
    ["dim", "--", "E8", "w1"],
    ["induct", "A2", "w1", "--depth", "3", "--depth", "4"],
]


def test_parse_agrees_with_argparse_or_defers():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "reference.json")) as fh:
        corpus = [op.split() for op in json.load(fh)]
    corpus += PARSER_SAMPLES.values()
    rng = random.Random(8808)
    corpus += [_fuzz_op(rng) for _ in range(2000)]
    corpus += [
        ["tensor", "E8", "--format", "json", "w1", "w1"],
        ["delete", "--node", "2", "E6", "--format", "json"],
        ["report", "G3", "--depth", "5"],
    ]
    full = cli._build_parser()
    deferred = []
    for argv in corpus:
        ns = cli._parse(argv)
        if ns is None:
            deferred.append(argv)
        else:
            assert vars(ns) == _argparse_vars(full, argv), argv
    # of what argparse accepts, only a value such as '-1' is deferred here
    assert all(any(t[:1] == "-" and t[1:].isdigit() for t in argv)
               for argv in deferred if _argparse_vars(full, argv) is not None)
    for argv in DEFERRED:
        assert _argparse_vars(full, argv) is not None, argv
        assert cli._parse(argv) is None, argv
    for argv in ([], ["-h"], ["report", "--help"], ["no-such-verb"], ["delete", "E6"],
                 ["dim", "A2"], ["dim", "A2", "w1", "extra"], ["report", "X9"],
                 ["dim", "A2", "w1", "--format", "xml"], ["induct", "A2", "w1", "--depth", "x"],
                 ["induct", "A2", "w1", "--depth"]):
        assert cli._parse(argv) is None, argv


def test_report_help_names_the_targets_of_the_table(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert f"obstruction report for {ind_mod.target_names()}" in out
    assert "obstruction report for E9, F5 or G3" in out


def test_cli_loads_no_argparse_dataclasses_or_inspect():
    # The records are tuples and plain classes: importing dataclasses, and
    # inspect which it pulls in, would add tens of milliseconds to every CLI
    # start.  argparse is imported only to print help or a usage error, so
    # neither the import nor a valid command line loads it.  The child
    # reports by its exit code, so the check also runs under python -O, with
    # the same optimization level as this process.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lieinduct.cli\n"
        "lieinduct.cli.run(['dim', 'A2', 'w1'])\n"
        "added = sorted({'argparse', 'dataclasses', 'inspect'} & (set(sys.modules) - before))\n"
        "sys.exit(f'lieinduct.cli loaded {added}' if added else 0)\n"
    )
    flags = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, env=cli_env())
    if proc.returncode != 0:
        pytest.fail(proc.stderr)
    assert proc.stdout == "3\n"
