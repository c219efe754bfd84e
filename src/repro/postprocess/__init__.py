"""Full-field post-processing: reconstruction, export and hotspot analytics.

The solver stack produces reduced solutions; this package turns them into the
artifacts downstream consumers need:

* :func:`reconstruct_array_field` — memory-bounded reconstruction of the
  whole-array displacement / Voigt-stress / von Mises field on a structured
  per-block sample grid (one sampling operator per block *kind*, applied to
  chunks of blocks),
* :class:`ArrayField` — the resulting structured grid, with lossless ``.npz``
  persistence and a legacy ``.vtk`` export readable by ParaView/VisIt,
* :func:`analyze_hotspots` — per-TSV peak von Mises stress, its 3-D location,
  per-block keep-out radii and an array-level top-K hotspot table.
"""

from repro.postprocess.fields import ArrayField, reconstruct_array_field
from repro.postprocess.hotspots import HotspotReport, TSVHotspot, analyze_hotspots
from repro.postprocess.vtk import read_vtk_rectilinear, write_vtk_rectilinear

__all__ = [
    "ArrayField",
    "reconstruct_array_field",
    "HotspotReport",
    "TSVHotspot",
    "analyze_hotspots",
    "read_vtk_rectilinear",
    "write_vtk_rectilinear",
]
