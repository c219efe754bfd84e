"""The MORE-Stress algorithm: local stage, reduced order models, ROM cache, global stage."""

from repro.rom.interpolation import InterpolationScheme, lagrange_1d_values
from repro.rom.rom_model import ReducedOrderModel
from repro.rom.cache import ROMCache, rom_cache_key
from repro.rom.local_stage import LocalStage
from repro.rom.global_dofs import GlobalDofManager
from repro.rom.global_stage import GlobalStage, GlobalSolution
from repro.rom.reconstruction import BlockFieldSampler, block_midplane_points
from repro.rom.workflow import MoreStressSimulator, SimulationResult

__all__ = [
    "InterpolationScheme",
    "lagrange_1d_values",
    "ReducedOrderModel",
    "ROMCache",
    "rom_cache_key",
    "LocalStage",
    "GlobalDofManager",
    "GlobalStage",
    "GlobalSolution",
    "BlockFieldSampler",
    "block_midplane_points",
    "MoreStressSimulator",
    "SimulationResult",
]
