"""Synthetic program model — the reproduction's benchmark stand-in.

The paper instruments 122 real Alpha binaries.  Those binaries (and the
Alpha machines to run them) are unavailable, so this package provides a
*statistical program model*: a :class:`WorkloadProfile` holds
interpretable knobs (instruction mix, code footprint and loop structure,
data-access behavior mix, branch predictability, register-dataflow
locality), and :func:`generate_trace` expands a profile into a coherent
dynamic instruction trace:

* a static code image (functions, basic blocks, fixed PCs) is built
  first, then *executed* by a control-flow interpreter, so the
  instruction stream has real loop/call structure;
* branch outcomes are derived from the actual control flow (loop
  back-edges, diamond skips), so predictability is consistent with the
  PC stream;
* every static memory instruction owns a data-access behavior (scalar,
  sequential, strided, random, pointer-chase) over its own region, so
  local/global stride distributions and the data working set follow the
  profile;
* register operands are drawn with a geometric age distribution over the
  recent-writer window, shaping dependency distances and hence ILP.
"""

from .rng import stable_seed, make_rng
from .memory import (
    AccessBehavior,
    ScalarStream,
    SequentialStream,
    StridedStream,
    RandomStream,
    PointerChase,
    BEHAVIOR_KINDS,
    make_behavior,
)
from .branches import BranchModel, PatternBranch, BiasedBranch, make_branch_model
from .code import CodeSpec, StaticCode, BasicBlock, build_code
from .profiles import (
    MixSpec,
    MemorySpec,
    RegisterSpec,
    BranchSpec,
    WorkloadProfile,
)
from .generator import (
    TRACE_GEN_VERSION,
    TraceRecipe,
    clear_code_cache,
    code_for_profile,
    generate_trace,
    generation_call_count,
)

__all__ = [
    "stable_seed",
    "make_rng",
    "AccessBehavior",
    "ScalarStream",
    "SequentialStream",
    "StridedStream",
    "RandomStream",
    "PointerChase",
    "BEHAVIOR_KINDS",
    "make_behavior",
    "BranchModel",
    "PatternBranch",
    "BiasedBranch",
    "make_branch_model",
    "CodeSpec",
    "StaticCode",
    "BasicBlock",
    "build_code",
    "MixSpec",
    "MemorySpec",
    "RegisterSpec",
    "BranchSpec",
    "WorkloadProfile",
    "TRACE_GEN_VERSION",
    "TraceRecipe",
    "clear_code_cache",
    "code_for_profile",
    "generate_trace",
    "generation_call_count",
]
