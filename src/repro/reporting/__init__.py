"""Regeneration of the paper's tables and figures.

* :mod:`repro.reporting.tables` — Tables I–V as structured rows.
* :mod:`repro.reporting.figures` — Fig 6 (SBR curves) and Fig 7
  (bandwidth saturation) as numeric series.
* :mod:`repro.reporting.artifacts` — the one layout (stem, title,
  headers, cells) of every table and figure, and the one writer.
* :mod:`repro.reporting.render` — plain-text and markdown rendering.
* :mod:`repro.reporting.paper_values` — the numbers the paper printed,
  for side-by-side comparison and tolerance checks.
"""

from __future__ import annotations

from repro.reporting.figures import Fig6Series, fig6_series, fig7_series
from repro.reporting.render import render_table
from repro.reporting.tables import (
    Table1Row,
    Table2Row,
    Table3Row,
    Table4Row,
    Table5Row,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)

__all__ = [
    "Fig6Series",
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "Table5Row",
    "fig6_series",
    "fig7_series",
    "render_table",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
]
