"""Output checks: a run's files against references recorded at a known commit.

The rule is ROADMAP aim 1: byte-identical, or every number within 1e-12
relative. `runtime_seconds` is dropped from JSON reports first, because it
differs on every run. References are stored gzipped to keep them small.
"""
from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-12

# Output file name -> how it is compared.
KINDS = {
    "report.csv": "csv",
    "report.json": "json",
    "plot_report.py": "text",
    "suites.txt": "suites",
}

_SUITE_LINE = re.compile(
    r"^(\S+)\s+samples=(\d+)\s+violations=(\d+)\s+worst=(\S+)\s+(ok|FAIL)$"
)


def strip_runtime(text: str) -> str:
    """JSON report text without its top-level `runtime_seconds`, re-dumped
    the way imlab dumps it."""
    payload = json.loads(text)
    payload.pop("runtime_seconds", None)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def suite_lines(stdout: str) -> str:
    """The self-test suite result lines of a run's stdout."""
    return "".join(line + "\n" for line in stdout.splitlines() if _SUITE_LINE.match(line))


def canonical(name: str, text: str) -> str:
    return strip_runtime(text) if KINDS[name] == "json" else text


def _num_close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_close(ref: str, out: str) -> bool:
    if ref == out:
        return True
    a, b = _as_float(ref), _as_float(out)
    return a is not None and b is not None and _num_close(a, b)


def _json_close(ref, out) -> bool:
    if isinstance(ref, dict):
        return (isinstance(out, dict) and ref.keys() == out.keys()
                and all(_json_close(ref[k], out[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(out, list) and len(ref) == len(out)
                and all(_json_close(a, b) for a, b in zip(ref, out)))
    if isinstance(ref, bool) or isinstance(out, bool):
        return ref is out
    if isinstance(ref, (int, float)) and isinstance(out, (int, float)):
        return _num_close(float(ref), float(out))
    return ref == out


def _fields(kind: str, line: str) -> list:
    if kind == "csv":
        return line.split(",")
    match = _SUITE_LINE.match(line)
    return list(match.groups()) if match else [line]


def same_output(name: str, ref: str, out: str) -> bool:
    """True when `out` matches the reference `ref` under the aim 1 rule.
    Both are canonical texts (see `canonical`)."""
    if ref == out:
        return True
    kind = KINDS[name]
    if kind == "json":
        return _json_close(json.loads(ref), json.loads(out))
    if kind == "text":
        return False
    a = [_fields(kind, line) for line in ref.splitlines()]
    b = [_fields(kind, line) for line in out.splitlines()]
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(_cells_close(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def collect(out_dir: Path, names) -> dict:
    """Canonical texts of the named outputs of one run that exist; `suites.txt`
    is cut from the run's saved stdout."""
    texts = {}
    for name in names:
        if name == "suites.txt":
            texts[name] = suite_lines((out_dir / "stdout.txt").read_text())
        elif (out_dir / name).is_file():
            texts[name] = canonical(name, (out_dir / name).read_text())
    return texts


def save_reference(ref_dir: Path, texts: dict) -> None:
    ref_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        data = gzip.compress(text.encode(), compresslevel=9, mtime=0)
        (ref_dir / (name + ".gz")).write_bytes(data)


def load_reference(ref_dir: Path, names) -> dict:
    return {
        name: gzip.decompress((ref_dir / (name + ".gz")).read_bytes()).decode()
        for name in names
    }


def mismatches(ref: dict, out: dict) -> list:
    """Names of outputs that differ from the reference or are missing."""
    return [name for name in ref if name not in out or not same_output(name, ref[name], out[name])]
