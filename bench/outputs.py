"""Compact summaries of the CLI's output files, and their comparison.

A summary keeps, per file and per record group (JSONL ``kind``, plus
``ledger`` or ``report`` where present; TSV rows; text lines):

- the record count and a hash of each record's key set, so skip and censor
  decisions (which optional fields a record carries) must match exactly;
- for integer and string fields, a hash of the value sequence (exact);
- for float fields, every value, each matched to ``REL_TOL`` relative.

The simulator's tape and price path (``AGGREGATED``) are the exception: their
float columns hold tens of thousands of prices per scenario seed, so only the
sum, the sum of absolute values and ``PICKS`` evenly spaced values are kept.
Every float downstream of them (p-values, Fisher statistics and
``combined_p``, slippage, report and ``power`` values) is held one by one.

Text files (the scenario echo, ``power``'s stdout) are compared with their
numbers masked, and the numbers compared as floats.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-12
AGGREGATED = ("sim/tape.jsonl", "sim/path.jsonl")
PICKS = 5

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _digest(values) -> str:
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _floats(values: list[float], aggregate: bool) -> dict:
    if not aggregate:
        return {"all": values}
    n = len(values)
    picks = [values[(n - 1) * i // (PICKS - 1)] for i in range(PICKS)] if n else []
    return {
        "n": n,
        "sum": math.fsum(values),
        "abs": math.fsum(abs(v) for v in values),
        "at": picks,
    }


def _summarize_records(records, aggregate: bool) -> dict:
    groups: dict[str, list[dict]] = {}
    for obj in records:
        key = "/".join(str(obj[k]) for k in ("kind", "ledger", "report") if k in obj) or "rows"
        groups.setdefault(key, []).append(obj)
    out = {}
    for key, objs in groups.items():
        columns: dict[str, list] = {}
        for obj in objs:
            for name, value in obj.items():
                columns.setdefault(name, []).append(value)
        fields = {}
        for name, values in columns.items():
            if all(_is_int(v) for v in values):
                fields[name] = {"int": _digest(values)}
            elif all(_is_number(v) for v in values):
                fields[name] = {"float": _floats([float(v) for v in values], aggregate)}
            else:
                fields[name] = {"hash": _digest(values)}
        out[key] = {
            "n": len(objs),
            "keys": _digest([sorted(obj) for obj in objs]),
            "fields": fields,
        }
    return out


def _cell(text: str):
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def summarize_file(path: Path, aggregate: bool = False) -> dict:
    if path.suffix == ".jsonl":
        with open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        return _summarize_records(records, aggregate)
    text = path.read_text()
    if path.suffix == ".tsv":
        header, *rows = [line.split("\t") for line in text.splitlines()]
        records = [
            {h: _cell(c) for h, c in zip(header, row) if c != ""} for row in rows
        ]
        summary = _summarize_records(records, aggregate)
        summary["header"] = {"n": 1, "keys": _digest(header), "fields": {}}
        return summary
    numbers = [float(m) for m in _NUMBER.findall(text)]
    return {"text": {"n": 1, "keys": _digest(_NUMBER.sub("#", text)),
                     "fields": {"numbers": {"float": _floats(numbers, aggregate)}}}}


def summarize(run_dir: Path, files) -> dict:
    return {rel: summarize_file(run_dir / rel, rel in AGGREGATED)
            for rel in files if (run_dir / rel).is_file()}


def _close(a: float, b: float, scale: float | None = None) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if scale is None:
        scale = max(abs(a), abs(b))
    return abs(a - b) <= REL_TOL * scale


def _compare_floats(ref: dict, got: dict) -> bool:
    if "all" in ref or "all" in got:
        a, b = ref.get("all"), got.get("all")
        return a is not None and b is not None and len(a) == len(b) and all(
            _close(x, y) for x, y in zip(a, b)
        )
    return (
        ref["n"] == got["n"]
        and _close(ref["abs"], got["abs"])
        and _close(ref["sum"], got["sum"], max(ref["abs"], got["abs"]))
        and all(_close(x, y) for x, y in zip(ref["at"], got["at"]))
    )


def compare(reference: dict, candidate: dict) -> list[tuple[str, str]]:
    """Mismatches between two summaries of the same files, as (file, message)."""
    problems = []
    for rel, ref_groups in reference.items():
        got_groups = candidate.get(rel)
        if got_groups is None:
            problems.append((rel, "missing"))
            continue
        if sorted(ref_groups) != sorted(got_groups):
            problems.append((rel, f"record groups {sorted(got_groups)} != {sorted(ref_groups)}"))
            continue
        for key, ref in ref_groups.items():
            got = got_groups[key]
            if ref["n"] != got["n"] or ref["keys"] != got["keys"]:
                problems.append((rel, f"[{key}] record count or field presence differs"))
                continue
            if sorted(ref["fields"]) != sorted(got["fields"]):
                problems.append((rel, f"[{key}] field names differ"))
                continue
            for name, ref_field in ref["fields"].items():
                got_field = got["fields"][name]
                if ref_field.keys() != got_field.keys():
                    problems.append((rel, f"[{key}].{name} value type differs"))
                elif "float" in ref_field:
                    if not _compare_floats(ref_field["float"], got_field["float"]):
                        problems.append((rel, f"[{key}].{name} values differ beyond {REL_TOL:g}"))
                elif ref_field != got_field:
                    problems.append((rel, f"[{key}].{name} values differ"))
    return problems


def file_digests(run_dir: Path, files) -> dict[str, str]:
    """Exact content hashes, to hold later repetitions to the first one."""
    out = {}
    for rel in files:
        path = run_dir / rel
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[rel] = h.hexdigest()
    return out
