"""Plan-IR optimisation passes: treat the flat step list as a program.

A finalized :class:`~repro.tensor.plan.ExecutionPlan` is a flat IR —
numbered value slots, a step list of registered kernels, a liveness
analysis.  This module optimises that IR with one structural pass,
**peephole fusion** (:func:`fuse_elementwise`): adjacent
producer/consumer step pairs from a fixed pattern table collapse into
single registered kernels — the GEMM→bias ``iadd`` that follows every
``Linear``, the bias/BN-affine→GELU chains of the MLP blocks, and
attention's scale→mask→softmax score pipeline.  Each fused kernel
replays the *exact* NumPy ufunc sequence of the pair it replaces (same
calls, same buffers disjointness, fewer Python dispatches), so fusion
preserves the plan's bitwise-vs-eager guarantee.  Fused kernels that
need the intermediate value keep it in a *scratch* slot
(``Step.scratch``) — an arena buffer scoped to that one step, placed
by :func:`~repro.tensor.plan.repack`.  Fusion is the only pass a
traced plan needs: the tracer folds constant subgraphs itself and
records no unused op.

Batch-shape **bucketing** (:func:`plan_buckets`) is the policy side of
the same layer: compile plans at a few canonical batch sizes, pad
undersized micro-batches up to the nearest bucket and slice outputs
back (row-independence of the forward makes the sliced result
bitwise-identical to the unpadded run), so the plan cache hits at any
arrival pattern instead of falling back to eager.

:func:`optimize` mutates the plan in place and finishes with
:func:`~repro.tensor.plan.repack`, so liveness, arena offsets and
release lists always describe the rewritten program.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from .plan import ExecutionPlan, KERNELS, Step, register_kernel, repack

__all__ = [
    "plan_buckets",
    "optimize",
    "fuse_elementwise",
    "FUSION_PATTERNS",
]


# ----------------------------------------------------------------------
# batch-shape bucketing policy
# ----------------------------------------------------------------------
def plan_buckets(max_batch: int) -> Tuple[int, ...]:
    """Canonical batch sizes to compile for a ``max_batch`` scheduler.

    Powers of two up to ``max_batch``, plus ``max_batch`` itself
    (e.g. ``8 → (1, 2, 4, 8)``, ``6 → (1, 2, 4, 6)``).  An undersized
    micro-batch pads to the nearest bucket above it, so the worst-case
    padding overhead is bounded at just under 2× rows while the plan
    cache stays small.
    """
    max_batch = int(max_batch)
    if max_batch < 1:
        raise ValueError("plan_buckets() needs max_batch >= 1")
    sizes = {max_batch}
    b = 1
    while b < max_batch:
        sizes.add(b)
        b *= 2
    return tuple(sorted(sizes))


# ----------------------------------------------------------------------
# fused kernels
#
# Every kernel reproduces the exact ufunc sequence of the step pair it
# replaces, so replay stays bitwise identical to the unfused plan — and
# therefore to the eager path.  The multi-ufunc tails (GELU, softmax,
# the SW-MSA mask add) are not restated: the fused kernel calls the
# registered body the unfused step runs, looked up by name at call time
# because repro.nn registers after this module is imported.
# Kernels taking a scratch buffer receive it appended to ``ins``.
# ----------------------------------------------------------------------
@register_kernel("matmul_bias", "compute")
def _k_matmul_bias(out, ins, consts):
    # matmul ; iadd — the Linear layer's GEMM with its bias add
    y = np.matmul(ins[0], ins[1], out=out)
    y += ins[2]
    return y


@register_kernel("matmul_scale", "compute")
def _k_matmul_scale(out, ins, consts):
    # matmul ; imul_scalar — attention's scaled q·kᵀ scores
    y = np.matmul(ins[0], ins[1], out=out)
    y *= consts["scale"]
    return y


@register_kernel("matmul_scale_mask", "compute")
def _k_matmul_scale_mask(out, ins, consts):
    # matmul ; imul_scalar ; add_window_mask — shifted-window scores
    y = np.matmul(ins[0], ins[1], out=out)
    y *= consts["scale"]
    return KERNELS["add_window_mask"].fn(None, (y,), consts)


@register_kernel("matmul_bias_gelu", "compute")
def _k_matmul_bias_gelu(out, ins, consts):
    # matmul ; iadd ; gelu — a whole MLP fc1 in one dispatch; the
    # biased GEMM result lives in the scratch buffer (gelu re-reads it)
    a, b, bias, tmp = ins
    t = np.matmul(a, b, out=tmp)
    t += bias
    return KERNELS["gelu"].fn(out, (t,), None)


@register_kernel("bn_affine_gelu", "compute")
def _k_bn_affine_gelu(out, ins, consts):
    # bn_affine ; gelu — folded BatchNorm into its activation
    x, tmp = ins
    t = np.multiply(x, consts["scale"], out=tmp)
    t += consts["shift"]
    return KERNELS["gelu"].fn(out, (t,), None)


@register_kernel("matmul_scale_softmax", "compute")
def _k_matmul_scale_softmax(out, ins, consts):
    # matmul ; imul_scalar ; softmax — unmasked attention scores
    a, b, tmp = ins
    t = np.matmul(a, b, out=tmp)
    t *= consts["scale"]
    return KERNELS["softmax"].fn(out, (t,), consts)


@register_kernel("matmul_scale_mask_softmax", "compute")
def _k_matmul_scale_mask_softmax(out, ins, consts):
    # matmul ; imul_scalar ; add_window_mask ; softmax — the whole
    # shifted-window attention score pipeline in one dispatch
    a, b, tmp = ins
    t = np.matmul(a, b, out=tmp)
    t *= consts["scale"]
    KERNELS["add_window_mask"].fn(None, (t,), consts)
    return KERNELS["softmax"].fn(out, (t,), consts)


#: (first kernel, second kernel) -> (fused kernel, needs scratch slot).
#: Pairs fuse iteratively, so chains collapse through intermediate
#: fused names: matmul → imul_scalar → add_window_mask → softmax
#: becomes matmul_scale, then matmul_scale_mask, then
#: matmul_scale_mask_softmax.
FUSION_PATTERNS: Dict[Tuple[str, str], Tuple[str, bool]] = {
    ("matmul", "iadd"): ("matmul_bias", False),
    ("matmul", "imul_scalar"): ("matmul_scale", False),
    ("matmul_scale", "add_window_mask"): ("matmul_scale_mask", False),
    ("matmul_bias", "gelu"): ("matmul_bias_gelu", True),
    ("bn_affine", "gelu"): ("bn_affine_gelu", True),
    ("matmul_scale", "softmax"): ("matmul_scale_softmax", True),
    ("matmul_scale_mask", "softmax"): ("matmul_scale_mask_softmax", True),
}


# ----------------------------------------------------------------------
# pass helpers
# ----------------------------------------------------------------------
def _slot_reads(plan: ExecutionPlan) -> Dict[int, int]:
    """How many times each slot id is referenced (step inputs, scratch,
    plan outputs)."""
    reads: Dict[int, int] = {}
    for st in plan.steps:
        for tag, ref in st.ins:
            if tag == "s":
                reads[ref] = reads.get(ref, 0) + 1
        for sid in st.scratch:
            reads[sid] = reads.get(sid, 0) + 1
    for sid in plan.outputs:
        reads[sid] = reads.get(sid, 0) + 1
    return reads


def _merge_consts(a: Dict[str, Any], b: Dict[str, Any]
                  ) -> Optional[Dict[str, Any]]:
    """Union of two const dicts; ``None`` if a key collides (the pair
    is then left unfused rather than guessed at)."""
    merged = dict(a)
    for k, v in b.items():
        if k in merged and merged[k] is not v:
            return None
        merged[k] = v
    return merged


# ----------------------------------------------------------------------
# peephole fusion
# ----------------------------------------------------------------------
def fuse_elementwise(plan: ExecutionPlan) -> Dict[str, int]:
    """Fuse adjacent step pairs from :data:`FUSION_PATTERNS` in place.

    A pair ``(i, i+1)`` fuses only when the second step is the *sole*
    reader of the first step's output slot (which is not a plan
    output), so the intermediate value is provably dead outside the
    pair.  Two shapes exist:

    * second step **in-place** on the first's output — the fused
      kernel writes the second step's (alias) slot directly, which
      becomes a storage-owning compute slot of the same alias group;
    * second step a **compute** consumer — the first's output slot
      becomes the fused step's scratch buffer, scoped to the step.

    Runs to a fixpoint so chains collapse through intermediate fused
    names.  Returns ``{fused kernel name: count}``.  The caller must
    :func:`~repro.tensor.plan.repack` afterwards.
    """
    counts: Dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        reads = _slot_reads(plan)
        i = 0
        while i + 1 < len(plan.steps):
            first, second = plan.steps[i], plan.steps[i + 1]
            pattern = FUSION_PATTERNS.get((first.name, second.name))
            if pattern is None or first.kind != "compute":
                i += 1
                continue
            fused_name, needs_scratch = pattern
            x = first.out
            # the second step must consume X as its primary input, and
            # nothing else may ever read X (or alias into its group)
            if not second.ins or second.ins[0] != ("s", x) \
                    or reads.get(x, 0) != 1:
                i += 1
                continue
            xroot = plan.slots[x].root
            if any(tag == "s" and plan.slots[ref].root == xroot
                   for tag, ref in second.ins[1:]):
                i += 1
                continue
            consts = _merge_consts(first.consts, second.consts)
            if consts is None:
                i += 1
                continue
            kernel = KERNELS[fused_name]
            ins = first.ins + second.ins[1:]
            if second.kind == "inplace":
                # fused kernel writes the alias slot directly; it
                # becomes the group's storage-owning buffer
                out = second.out
                scratch = first.scratch + second.scratch
                plan.slots[out].kind = "compute"
            elif second.kind == "compute" and needs_scratch:
                out = second.out
                scratch = first.scratch + second.scratch + (x,)
            else:
                i += 1
                continue
            plan.steps[i] = Step(fused_name, kernel.fn, "compute", out,
                                 ins, consts, scratch)
            del plan.steps[i + 1]
            counts[fused_name] = counts.get(fused_name, 0) + 1
            changed = True
            reads = _slot_reads(plan)
            # stay at i: the fused step may itself start a new pattern
        # sweep again from the top until a full pass fuses nothing
    return counts


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def optimize(plan: ExecutionPlan
             ) -> Tuple[ExecutionPlan, Dict[str, Any]]:
    """Fuse the step list and re-pack the arena.

    Mutates ``plan`` in place (it must not be executing) and returns it
    with a stats dict recording what fusion did — surfaced through
    ``engine.plan_stats()['pass_stats']``.
    """
    stats: Dict[str, Any] = {
        "steps_before": plan.n_steps,
        "arena_bytes_before": plan.arena_total,
    }
    stats["fused"] = fuse_elementwise(plan)
    repack(plan)
    stats["steps_after"] = plan.n_steps
    stats["arena_bytes_after"] = plan.arena_total
    return plan, stats
