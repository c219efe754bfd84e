"""Sub-model placement: TSV arrays embedded anywhere in a package (paper §4.4).

A sub-model run combines three pieces:

1. a solved coarse package model supplying the cut-boundary displacements,
2. a padded array layout (the TSV array plus rings of dummy blocks keeping
   the cut boundary away from the region of interest), placed at a package
   location by :func:`place_submodel`, and
3. the global stage, which applies the coarse displacements to the outer
   interpolation nodes through the lifting procedure and solves the reduced
   problem.

:func:`repro.api.run` executes a :class:`~repro.api.SimulationSpec` with a
:class:`~repro.api.SubModelSpec` that way.  The same coarse displacements can
be applied to a fine full-FEM sub-model
(:class:`~repro.baselines.full_fem.FullFEMReference` with
``boundary="submodel"``) to obtain the ground truth of the second paper
scenario.
"""

from __future__ import annotations

from repro.geometry.array_layout import TSVArrayLayout
from repro.geometry.package import ChipletPackage, SubModelLocation
from repro.geometry.tsv import TSVGeometry


def place_submodel(
    tsv: TSVGeometry,
    package: ChipletPackage,
    rows: int,
    cols: int | None,
    ring_width: int,
    location: str | SubModelLocation,
) -> tuple[SubModelLocation, TSVArrayLayout]:
    """Resolve a package location and build the padded sub-model layout there.

    The single source of truth for sub-model placement, shared by the spec
    executor (:mod:`repro.api.executor`) and the scenario-2 experiment
    driver: a probe layout (array plus ``ring_width`` dummy rings at the
    origin) sizes the footprint, the named location is resolved against the
    package, and the same layout is placed at the resolved origin.
    """
    probe = TSVArrayLayout.with_dummy_ring(tsv, rows=rows, cols=cols, ring_width=ring_width)
    if isinstance(location, str):
        location = package.location(location, probe)
    return location, probe.translated(location.origin)


__all__ = ["place_submodel"]
