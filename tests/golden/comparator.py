"""How a fresh run of a golden case is compared with its record.

``tests/test_golden.py`` asserts that a fresh run moves nothing, and
``regenerate.py`` rewrites only what moved, both through
``reconcile_record``.

The argument list, the configuration, the exit code and the first line of
standard error must match exactly; so must a report that is missing on
either side.  A report is compared field by field (a CSV report cell by
cell, keyed by its column): strings, integers and booleans exactly, floats
to 1e-12 relative.

Two kinds of fields are rounding noise by construction and are compared with
an absolute tolerance at their rounding level instead:

* ``discrepancy`` and ``max_discrepancy`` of the transform suite, relative
  differences of two equal quadratic forms (about 2e-15): to 1e-14;
* the quadrature error estimates ``error_estimate`` and ``quad_err``, whose
  last digits follow the rounding of the integrand: to 1e-9, about 1e-12 of
  the largest bound pinned here.
"""

import math

REL = 1e-12
NOISE_ABS = {
    "discrepancy": 1e-14,
    "max_discrepancy": 1e-14,
    "error_estimate": 1e-9,
    "quad_err": 1e-9,
}
EXACT_FIELDS = ("argv", "config", "exit", "stderr")


def _float(x):
    """x as a float if it is a number or a numeric CSV cell, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def close(key, want, got) -> bool:
    """Whether ``got`` matches ``want`` at a field named ``key``."""
    a, b = _float(want), _float(got)
    if a is None or b is None or isinstance(want, int) and isinstance(got, int):
        return want == got
    if math.isinf(a) or math.isinf(b):
        return a == b
    if key in NOISE_ABS:
        return abs(a - b) <= NOISE_ABS[key]
    return abs(a - b) <= REL * max(abs(a), abs(b))


def reconcile(want, got, path="", key=None) -> tuple[object, list]:
    """``want`` with each value that ``got`` moves beyond the tolerances
    taken from ``got``, and the paths at which that happened: a key added or
    removed, a list whose length changed, a leaf that is not ``close``."""
    if isinstance(want, dict) and isinstance(got, dict):
        out, moved = {}, []
        for k in got:
            if k in want:
                out[k], more = reconcile(want[k], got[k], f"{path}.{k}", k)
                moved += more
            else:
                out[k] = got[k]
                moved.append(f"{path}.{k}: added")
        return out, moved + [f"{path}.{k}: removed" for k in want if k not in got]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return got, [f"{path}: length {len(want)} != {len(got)}"]
        pairs = [reconcile(w, g, f"{path}[{i}]", key) for i, (w, g) in enumerate(zip(want, got))]
        return [v for v, _ in pairs], [m for _, more in pairs for m in more]
    if close(key, want, got):
        return want, []
    return got, [f"{path}: {want!r} != {got!r}"]


def reconcile_csv(want, got) -> tuple[list, list]:
    """``reconcile`` for CSV rows, cell by cell, each cell keyed by its
    column. Any change to the header, its order included, is reported;
    the cells of the columns both headers hold are still compared."""
    if len(want) != len(got):
        return got, [f"row count: {len(want)} != {len(got)}"]
    head_w, head = want[0], got[0]
    moved = [f"header: {head_w} != {head}"] if head_w != head else []
    rows = [head]
    for i, (rw, rg) in enumerate(zip(want[1:], got[1:]), 1):
        if len(rw) != len(head_w) or len(rg) != len(head):
            rows.append(rg)
            moved.append(f"row {i}: length {len(rw)} != {len(rg)}")
            continue
        recorded = dict(zip(head_w, rw))
        row = []
        for col, g in zip(head, rg):
            w = recorded.get(col, g)
            if close(col, w, g):
                row.append(w)
            else:
                row.append(g)
                moved.append(f"row {i} {col}: {w!r} != {g!r}")
        rows.append(row)
    return rows, moved


def reconcile_record(want: dict, got: dict, fmt: str) -> tuple[dict, list]:
    """``reconcile`` for the record of a case whose report is in ``fmt``
    ("json" or "csv"): its exact fields, then its report."""
    out, moved = dict(want), []
    for k in EXACT_FIELDS:
        if want[k] != got[k]:
            out[k] = got[k]
            moved.append(f"{k}: {want[k]!r} != {got[k]!r}")
    if want["report"] is None or got["report"] is None:
        out["report"], more = reconcile(want["report"], got["report"], "report")
    elif fmt == "csv":
        out["report"], more = reconcile_csv(want["report"], got["report"])
    else:
        out["report"], more = reconcile(want["report"], got["report"])
    return out, moved + more
