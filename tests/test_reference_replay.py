"""Replay of the benchmark's behaviour contract: every op recorded in
perfbench/reference.json must give the same exit code and the same SHA-256
of stdout and of stderr when run through the CLI in process.  Deep induction
ops, which the benchmark does not run, are pinned here by the SHA-256 of
their stdout."""

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


# stdout SHA-256 of induction ops deeper than any benchmark op, recorded
# before the search moved to interned module ids and bracket bitmasks
DEEP_OPS = {
    "report G3 --depth 96":
        "8098f07ac44ed6d82878597e5243e30d07c42fe95cf2346b0252b8468f799ee9",
    "report G3 --depth 192":
        "fced93c48bef8dcf9b4335fe33b2219a407d6b828abb8d0e7825748de4960c84",
    "induct G2 w1 --depth 64":
        "a14cf0248b029ed03bb64c861ac6b84c89a6e61faae730cd7947659ebe5ac7d4",
    "induct G2 w1 --depth 64 --format json":
        "50122fa67489e4541247476e719f1da5ac9d8c7055801c6a5c00466790841c1a",
    "induct A8 w3 --format json":
        "ab3b520698507490d9a161ab64c12742029a2fe55bc92ceaea090e29b5eaa81c",
}


def test_deep_induction_ops_replay():
    mismatches = []
    for op, want in DEEP_OPS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(op.split())
        if code != 0 or digest(out.getvalue()) != want:
            mismatches.append(f"{op}: exit {code}, stdout {digest(out.getvalue())}")
    assert mismatches == []
