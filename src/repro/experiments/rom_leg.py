"""The MORE-Stress leg of the method comparisons (Tables 1 and 2).

The paper accounts MORE-Stress in two parts: a one-shot local stage per TSV
technology, and a global stage per array that is compared against the
reference methods.  The drivers therefore

1. build the pitch's ROMs once, outside any memory bracket, into one shared
   :class:`~repro.rom.cache.ROMCache` (:func:`build_local_stage`), and
2. run every case as its own single-case spec inside the same
   :class:`~repro.utils.memory.PeakMemoryTracker` the baselines use
   (:func:`run_tracked_case`), so the memory columns compare like with like.
"""

from __future__ import annotations

import dataclasses
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.api import CaseResult, LoadCase, SimulationSpec, run
from repro.api.executor import build_simulator
from repro.materials.library import MaterialLibrary
from repro.rom.cache import ROMCache
from repro.utils.memory import PeakMemoryTracker


@contextmanager
def shared_rom_cache(rom_cache: "ROMCache | str | Path | None") -> Iterator[ROMCache]:
    """The caller's ROM cache, or a temporary one removed on exit."""
    if rom_cache is not None:
        yield ROMCache.from_spec(rom_cache)
        return
    with tempfile.TemporaryDirectory(prefix="repro-roms-") as directory:
        yield ROMCache(directory)


def build_local_stage(
    spec: SimulationSpec,
    materials: MaterialLibrary,
    cache: ROMCache,
    jobs: int | None,
    include_dummy: bool,
) -> float:
    """Build ``spec``'s ROMs into ``cache``; return the local-stage wall time."""
    simulator = build_simulator(spec, materials=materials, rom_cache=cache, jobs=jobs)
    simulator.build_roms(include_dummy=include_dummy)
    return simulator.local_stage_seconds


def run_tracked_case(
    spec: SimulationSpec, case: LoadCase, **run_kwargs
) -> tuple[CaseResult, int]:
    """Run one case of ``spec`` on its own; return it and its peak traced bytes.

    The bracket covers the whole single-case :func:`repro.api.run`: building
    the simulator, loading the ROMs from the (warm) cache, the global stage
    and the mid-plane stress sampling.
    """
    single = dataclasses.replace(spec, load_cases=(case,))
    with PeakMemoryTracker() as tracker:
        result = run(single, **run_kwargs)
    return result.cases[0], tracker.peak_bytes


__all__ = ["build_local_stage", "run_tracked_case", "shared_rom_cache"]
