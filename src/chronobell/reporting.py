"""Canonical, byte-stable serialization of reports and tables.

One serialization rule everywhere: JSON with sorted keys, two-space indent,
trailing newline, floats via Python repr (shortest round-trip). Reports never
embed timestamps, hostnames, or paths-of-the-day, so identical inputs yield
identical bytes.
"""

from __future__ import annotations

import io
import json


def canonical_json(data: dict) -> str:
    """Deterministic-key-order JSON of plain Python values, the package's one report format."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def correlation_table_csv(table) -> str:
    """CSV form of a CorrelationTable: one row per setting pair.

    Columns: setting indices, probabilities over (++, +-, -+, --), the
    correlator, and standard errors when the table is empirical.
    """
    out = io.StringIO()
    header = "a_index,b_index,p_pp,p_pm,p_mp,p_mm,correlator"
    if table.stderr is not None:
        header += ",se_pp,se_pm,se_mp,se_mm"
    out.write(header + "\n")
    n_a, n_b = table.shape
    for i in range(n_a):
        for j in range(n_b):
            cell = table.cells[i, j]
            row = [str(i), str(j)] + [repr(float(x)) for x in cell.ravel()]
            row.append(repr(table.correlator(i, j)))
            if table.stderr is not None:
                row += [repr(float(x)) for x in table.stderr[i, j].ravel()]
            out.write(",".join(row) + "\n")
    return out.getvalue()


def correlation_table_dict(table) -> dict:
    data = {
        "settings_a": [s.vector.tolist() for s in table.settings_a],
        "settings_b": [s.vector.tolist() for s in table.settings_b],
        "probabilities": table.cells.tolist(),
    }
    if table.trials is not None:
        data["trials"] = table.trials
    if table.stderr is not None:
        data["stderr"] = table.stderr.tolist()
    return data
