"""The abstract machine model.

The paper evaluates on a quad-core Xeon W3520 and an NVIDIA Tesla C2070.  This
package replaces that hardware with a static cost model: it walks the lowered
pipeline and converts operation counts, estimated cache traffic, vector
widths and parallel structure into cycles for a configurable machine profile.
The model reproduces the *shape* of the paper's performance results (which
schedule wins and by roughly how much), not absolute times.
"""

from repro.machine.profiles import MachineProfile, GPU_LIKE, SMALL_CACHE_CPU, XEON_W3520
from repro.machine.cost_model import CacheStats, CostReport, estimate_cost

__all__ = [
    "CacheStats",
    "MachineProfile",
    "XEON_W3520",
    "GPU_LIKE",
    "SMALL_CACHE_CPU",
    "CostReport",
    "estimate_cost",
]
