"""Spans and counters recorded around the public functions of rspb's modules.

`Tracer.install` wraps every public function defined in each layer module
and puts the wrapper under every name that binds the original, because the
modules import each other with `from .x import f`. A span is
(name, start, end, parent, error, extra); spans stay in memory until
`aggregate` turns them into the per-layer metrics. Only stdlib is imported
here, so a traced child process can load this before timing its own import
of rspb.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "measures", "augustin", "spe", "symmetric", "htbe",
    "gaussian", "refined", "cli", "oracle", "verify",
)
# The per-layer metrics name these eight; oracle and verify are wrapped too,
# so that the suites' own work is not counted as CLI parse-and-emit time.
REPORTED_LAYERS = LAYERS[:8]

FIXED_POINT = "augustin.augustin_fixed_point"
CAPACITY = "augustin.augustin_capacity"
SPE_POINT = "spe.spe_parametric"
PRODUCT_BOUND = "refined.rspb_symmetric"
CERTIFICATION = "symmetric.check_renyi_symmetry"


def _extra(name, args, result):
    """What a span keeps from its call, where something is counted."""
    if name == FIXED_POINT:
        return [args[0], result.iterations]
    if name == CAPACITY:
        return int(bool(result.certified))
    if name == "measures.product_log_ratio":
        return int(result.values.size)
    return None


class Tracer:
    """Spans of every call into a public rspb function while installed."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patched = []
        self._wrappers = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[4] = True
                raise
            finally:
                stack.pop()
            span[2] = clock()
            span[5] = _extra(name, args, result)
            return result

        return wrapper

    def install(self):
        # keyed by id, because module namespaces hold unhashable values; the
        # entry keeps the function alive, so no other object can share its id
        wrappers = self._wrappers
        for layer in LAYERS:
            module = importlib.import_module(f"rspb.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rspb" and not mod_name.startswith("rspb."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def wrapped(self, fn):
        """The installed wrapper of `fn`, for callers that hold the original."""
        hit = self._wrappers.get(id(fn))
        return fn if hit is None else hit[1]

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def aggregate(spans) -> dict:
    """Per-layer calls, errors, self time and the named solver counters.

    Parents precede their children in `spans`, so one forward pass can tag
    each span with its nearest enclosing capacity, spe point and product
    bound. Spans of separate processes may be concatenated as long as each
    list's parent indices are shifted by its offset.
    """
    n = len(spans)
    covered = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    layer = {k: {"calls": 0, "errors": 0, "self_s": 0.0} for k in LAYERS}
    count = dict.fromkeys(
        ("fp", "fp_iter", "cap", "cap_ok", "fp_in_cap", "spe", "fp_in_spe",
         "products", "certs_in_product", "bounds", "div", "tilt", "atoms", "tests"), 0)
    in_cap = [False] * n
    in_spe = [False] * n
    in_product = [False] * n
    in_refined = [False] * n
    for i, (name, start, end, parent, error, extra) in enumerate(spans):
        lay = name.split(".", 1)[0]
        stats = layer[lay]
        stats["calls"] += 1
        stats["errors"] += int(error)
        stats["self_s"] += (end - start) - covered[i]
        up = parent >= 0
        in_cap[i] = name == CAPACITY or (up and in_cap[parent])
        in_spe[i] = name == SPE_POINT or (up and in_spe[parent])
        in_product[i] = name == PRODUCT_BOUND or (up and in_product[parent])
        in_refined[i] = lay == "refined" or (up and in_refined[parent])
        if name == FIXED_POINT:
            count["fp"] += 1
            count["fp_iter"] += extra[1] if extra else 0
            count["fp_in_cap"] += int(up and in_cap[parent])
            count["fp_in_spe"] += int(up and in_spe[parent])
        elif name == CAPACITY:
            count["cap"] += 1
            count["cap_ok"] += extra or 0
        elif name == SPE_POINT:
            count["spe"] += 1
        elif name == PRODUCT_BOUND:
            count["products"] += 1
        elif name == CERTIFICATION:
            count["certs_in_product"] += int(up and in_product[parent])
        elif name == "measures.renyi_divergence":
            count["div"] += 1
        elif name == "measures.tilted_measure":
            count["tilt"] += 1
        elif name == "measures.product_log_ratio":
            count["atoms"] += extra or 0
        elif name == "htbe.threshold_test":
            count["tests"] += 1
        if lay == "refined" and not error and not (up and in_refined[parent]):
            count["bounds"] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for lay in REPORTED_LAYERS:
        out[f"{lay}.calls"] = layer[lay]["calls"]
        out[f"{lay}.errors"] = layer[lay]["errors"]
        out[f"{lay}.self_s"] = layer[lay]["self_s"]
    out.update({
        "augustin.fp_solves": count["fp"],
        "augustin.fp_iterations": count["fp_iter"],
        "augustin.capacity_certified_ratio": ratio(count["cap_ok"], count["cap"]),
        "augustin.fp_solves_per_capacity": ratio(count["fp_in_cap"], count["cap"]),
        "spe.points": count["spe"],
        "spe.fp_solves_per_point": ratio(count["fp_in_spe"], count["spe"]),
        "symmetric.certifications_per_product": ratio(
            count["certs_in_product"], count["products"]),
        "refined.bounds": count["bounds"],
        "measures.divergence_calls": count["div"],
        "measures.tilt_calls": count["tilt"],
        "measures.atoms_out": count["atoms"],
        "htbe.threshold_tests": count["tests"],
        "trace.spans": n,
    })
    return out


def concat(span_lists):
    """Join the span lists of several processes into one, fixing parents."""
    out = []
    for spans in span_lists:
        base = len(out)
        out.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]]
                   for s in spans)
    return out
