"""The output contract: every job of the recorded corpus gives its bytes.

tests/golden/corpus.json holds, for each job of tests/golden/record.py,
the exit code, stdout and stderr (output directory as ``<out>``) and the
SHA-256 of every file written, recorded on numpy 2.4.6 and Python 3.11.7
on the machine and SIMD targets it names.  On that platform the test is
byte-strict.  On any other, the bits of exp, log and the FFT may differ in
the last place, so the test checks only that every job keeps its exit code
and writes the same files, and then skips the byte comparison, saying why.

An intended change of outputs re-records the corpus (the recorder's
docstring says how) and lists the jobs that moved.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_every_job_keeps_its_bytes(tmp_path):
    corpus = json.loads(record.CORPUS.read_text(encoding="utf-8"))
    assert set(corpus["jobs"]) == set(record.JOBS)
    strict = corpus["platform"] == record.platform_key()
    moved = []
    for name, job in record.JOBS.items():
        workdir = tmp_path / name.replace(":", "_")
        workdir.mkdir(parents=True)
        got, want = record.run(job, workdir), corpus["jobs"][name]
        if got["exit"] != want["exit"]:
            moved.append(f"{name}: exit {got['exit']}, recorded {want['exit']}")
        if set(got["files"]) != set(want["files"]):
            moved.append(f"{name}: wrote {sorted(got['files'])}, recorded {sorted(want['files'])}")
        if not strict:
            continue
        for stream in ("stdout", "stderr"):
            lines = zip(got[stream].splitlines(True) + [""], want[stream].splitlines(True) + [""])
            moved += [f"{name}: {stream} line {i} {new!r}, recorded {old!r}"
                      for i, (new, old) in enumerate(lines, 1) if new != old][:1]
        moved += [f"{name}: {file} moved" for file in sorted(got["files"])
                  if file in want["files"] and got["files"][file] != want["files"][file]]
    assert not moved, "\n".join(moved)
    if not strict:
        pytest.skip(f"bytes recorded on {corpus['platform']}, not {record.platform_key()}")
