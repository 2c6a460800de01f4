"""Replay of the benchmark's behaviour contract: every op recorded in
perfbench/reference.json must give the same exit code and the same SHA-256
of stdout and of stderr when run through the CLI in process."""

import contextlib
import hashlib
import io
import json
import os

from lieinduct.cli import run

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_reference_ops_replay():
    with open(REFERENCE) as fh:
        recorded = json.load(fh)
    assert len(recorded) > 100
    mismatches = []
    for op, want in sorted(recorded.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(op.split())
        got = {"exit": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}
        mismatches += [f"{op}: {key} differs" for key in want if got[key] != want[key]]
    assert mismatches == []
