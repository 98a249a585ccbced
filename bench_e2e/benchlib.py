"""Pure helpers of the end-to-end benchmark: percentiles, span analysis,
metric names, failure counting and dataset digests.  run.py drives the
chain; everything here is unit-tested in tests/test_benchlib.py."""

import hashlib
import json
import math
import os
import re

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Candidate percentiles for a timing's tail, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def valid_metric_name(name):
    return bool(METRIC_NAME.match(name))


def _rank(n, p):
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(values):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, as (p, value, beyond); None when even the median lacks them."""
    best = None
    for p in TAIL_CANDIDATES:
        beyond = samples_beyond(len(values), p)
        if beyond >= MIN_BEYOND:
            best = (p, percentile(values, p), beyond)
    return best


# --- spans -------------------------------------------------------------------


def load_chrome_trace(path):
    """Complete ("X") events of a Chrome Trace Event file as span dicts:
    id, parent, name, phase (the tid), start and end in microseconds."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        spans.append({
            "id": ev["args"]["id"],
            "parent": ev["args"]["parent"],
            "name": ev["name"],
            "phase": ev["tid"],
            "start": float(ev["ts"]),
            "end": float(ev["ts"]) + float(ev["dur"]),
        })
    return spans


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span id: its duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def phase_summary(spans):
    """Per phase (root span) name: wall time, self time per layer name, and
    the unattributed time (the root's own self time), in microseconds.  The
    layer self times plus the unattributed time add up to the wall time."""
    selfs = self_times(spans)
    roots = {s["phase"]: s for s in spans if s["parent"] < 0}
    out = {}
    for phase, root in roots.items():
        layers = {}
        for s in spans:
            if s["phase"] == phase and s["parent"] >= 0:
                layers[s["name"]] = layers.get(s["name"], 0.0) + selfs[s["id"]]
        out[root["name"]] = {
            "wall": root["end"] - root["start"],
            "layers": layers,
            "unattributed": selfs[root["id"]],
        }
    return out


def durations(spans, phase_name, span_name):
    """Durations (microseconds) of every span called span_name in a phase."""
    phases = {s["phase"] for s in spans
              if s["parent"] < 0 and s["name"] == phase_name}
    return [s["end"] - s["start"] for s in spans
            if s["phase"] in phases and s["name"] == span_name]


# --- failures ----------------------------------------------------------------


class Tally:
    """Operations attempted and failed: tool phases, queries and checks.
    Every failure also keeps a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def count(self, what, attempted, failed):
        """Record `attempted` operations of which `failed` failed; true when
        none did."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{what}: {failed} of {attempted} failed")
        return failed == 0

    def check(self, ok, what):
        """Record one operation or check."""
        return self.count(what, 1, 0 if ok else 1)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


# --- datasets ----------------------------------------------------------------

# Provenance only: it carries wall-clock timestamps, so it differs per run.
DIGEST_SKIP = {"run_manifest.json"}


def dataset_digest(root):
    """BLAKE2b over every file of a dataset directory (relative path, size
    and bytes, in path order), skipping DIGEST_SKIP."""
    h = hashlib.blake2b(digest_size=16)
    paths = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name not in DIGEST_SKIP:
                paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(paths):
        full = os.path.join(root, rel)
        h.update(rel.encode() + b"\0" + str(os.path.getsize(full)).encode() + b"\0")
        with open(full, "rb") as f:
            while True:
                chunk = f.read(1 << 20)
                if not chunk:
                    break
                h.update(chunk)
    return h.hexdigest()


def export_error_count(export):
    """Coalesced errors in an export JSON document: every code, both
    periods."""
    return sum(v["pre"]["count"] + v["op"]["count"]
               for v in export["error_stats"]["by_code"].values())
