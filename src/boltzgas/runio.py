"""File formats for runs: event logs, trajectories, snapshots, reports.

Every writer is deterministic given its inputs: floats are rendered with
``repr`` (the shortest round-tripping form), rows keep the order of the
data, and JSON objects are emitted with sorted keys.  Re-running the
same computation therefore reproduces every data file byte for byte;
only the manifest carries a timestamp.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

import numpy as np

from . import __version__

__all__ = [
    "config_digest",
    "write_event_log",
    "read_event_log",
    "write_trajectory_csv",
    "read_csv_columns",
    "write_snapshot_csv",
    "write_distance_csv",
    "document",
    "report_document",
    "write_report_json",
    "write_manifest",
]


def _canonical_json(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def config_digest(mapping):
    """Hex digest of the canonical JSON form of a config mapping."""
    payload = _canonical_json(mapping).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _float(x):
    return repr(float(x))


def write_event_log(path, log):
    """Write one JSONL record per proposed candidate event.

    Record keys: ``s`` (proposal time), ``v`` (candidate velocity),
    ``theta``, ``phi``, ``r`` (the absolute threshold ``u * bound``,
    accepted when it lies below the jump intensity), ``accepted``,
    ``level``.  Requires a log kept with full records.
    """
    lines = []
    for rec in log.records:
        doc = {
            "s": float(rec.time),
            "v": [float(c) for c in rec.velocity],
            "theta": float(rec.theta),
            "phi": float(rec.phi),
            "r": float(rec.r),
            "accepted": bool(rec.accepted),
            "level": float(rec.level),
        }
        lines.append(_canonical_json(doc))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def read_event_log(path):
    """Read a JSONL event log back into a list of dictionaries."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_trajectory_csv(path, trajectory, grid_times=None):
    """Write ``t, x1..x3, v1..v3`` at jump times plus an output grid.

    The velocity column is the right-continuous value, so a row at a
    jump time shows the post-collision velocity.  Grid times outside
    ``[0, horizon]`` are rejected by the trajectory itself.
    """
    times = [np.asarray(trajectory.times, dtype=np.float64)]
    if grid_times is not None:
        times.append(np.asarray(grid_times, dtype=np.float64).ravel())
    times.append(np.array([trajectory.horizon]))
    merged = np.unique(np.concatenate(times))
    pos = trajectory.position(merged)
    vel = trajectory.velocity(merged)
    rows = (
        [_float(t)] + [_float(c) for c in x] + [_float(c) for c in z]
        for t, x, z in zip(merged, pos, vel)
    )
    _write_csv(path, ["t", "x1", "x2", "x3", "v1", "v2", "v3"], rows)


def read_csv_columns(path):
    """Read a numeric CSV with a header into ``{name: array}``."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names or ()
    return {name: np.atleast_1d(data[name]) for name in names}


def write_snapshot_csv(path, positions, velocities):
    """Write a particle snapshot with columns ``x1..x3, v1..v3``."""
    positions = np.asarray(positions, dtype=np.float64)
    velocities = np.asarray(velocities, dtype=np.float64)
    if positions.shape != velocities.shape or positions.shape[1:] != (3,):
        raise ValueError("snapshot arrays must both have shape (n, 3)")
    rows = (
        [_float(c) for c in x] + [_float(c) for c in v]
        for x, v in zip(positions, velocities)
    )
    _write_csv(path, ["x1", "x2", "x3", "v1", "v2", "v3"], rows)


def write_distance_csv(path, report):
    """Write the iterate-distance profile as ``n, d_n, stderr``.

    Row ``n`` is the uniform distance between iterates ``n`` and
    ``n - 1``, averaged over realizations.
    """
    means = report.mean()
    errs = report.stderr()
    rows = (
        [str(n + 1), _float(means[n]), _float(errs[n])]
        for n in range(report.n_steps)
    )
    _write_csv(path, ["n", "d_n", "stderr"], rows)


def document(operation, inputs_digest, value, stderr, tolerance, verdict, details):
    """The JSON report shape: six fixed keys, the rest under ``details``."""
    return {
        "operation": operation,
        "inputs_digest": inputs_digest,
        "value": value,
        "stderr": stderr,
        "tolerance": tolerance,
        "verdict": verdict,
        "details": details,
    }


def report_document(report, inputs_digest):
    """Normalize any report object into the JSON report shape.

    Every document carries ``operation``, ``inputs_digest``, ``value``,
    ``stderr``, ``tolerance`` and ``verdict``; whatever else the report
    knows lands under ``details``.
    """
    details = report.as_dict()
    operation = details.pop("operation")
    verdict = details.pop("verdict", None)
    inner = details.pop("details", None)
    if inner:
        details.update(inner)
    if hasattr(report, "difference"):
        value = report.difference
        stderr = report.stderr
        tolerance = report.tolerance
    elif hasattr(report, "bias_budget"):
        value = report.value
        stderr = report.stderr
        tolerance = report.bias_budget
        verdict = "PASS" if report.consistent_with_zero else "FAIL"
        for key in ("value", "stderr"):
            details.pop(key, None)
    else:
        value = None
        stderr = None
        tolerance = None
    return document(
        operation, inputs_digest, value, stderr, tolerance, verdict, details
    )


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    return obj


def write_report_json(path, documents):
    """Write a list of report documents as one indented JSON array."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(documents), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(path, digest, seed, outputs, mode=None):
    """Write the run manifest referencing every produced file.

    The timestamp is the only field allowed to differ between reruns of
    an identical config.
    """
    doc = {
        "config_digest": digest,
        "seed": int(seed),
        "version": __version__,
        "mode": mode,
        "outputs": sorted(outputs),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
