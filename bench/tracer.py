"""Per-layer tracing of spinrad from outside the package.

The traced run replaces each layer's entry points with wrappers: every public
function of a layer module, every public method of its public classes, and
every private function that another module imports.  Each replacement is made
at every binding site (``radiation.bose_occupation`` as well as
``material.bose_occupation``, ``DielectricModel.epsilon`` on the class) and
undone by :meth:`Tracer.uninstall`.  Wrappers pass arguments and results
through untouched, so tracing cannot change a number.

A call opens a span when its span name differs from the innermost open one;
calls within the same span only bump counters.  Spans are aggregated per op
into a tree keyed by the path of span names, so hot leaves (material, bessel
and scattering, once per quadrature node) become counts and time totals under
their parent instead of millions of records, and the trace stays bounded.
"""

import dataclasses
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "photonstats", "testbody", "rotor", "radiation", "quadrature",
          "scattering", "bessel", "material")

# units is pure arithmetic at the CLI boundary, so it is folded into cli;
# errors and acceptance are not layers
LAYER_OF_MODULE = {
    "spinrad.cli": "cli",
    "spinrad.units": "cli",
    "spinrad.photonstats": "photonstats",
    "spinrad.testbody": "testbody",
    "spinrad.rotor": "rotor",
    "spinrad.radiation": "radiation",
    "spinrad.quadrature": "quadrature",
    "spinrad.scattering": "scattering",
    "spinrad.bessel": "bessel",
    "spinrad.material": "material",
}

# functions with a span of their own inside their layer (keyed by module, qualname)
OWN_SPANS = {
    ("spinrad.rotor", "simulate_ensemble"): "rotor.simulate",
    ("spinrad.rotor", "langevin_step"): "rotor.langevin_step",
    ("spinrad.rotor", "fokker_planck_stationary"): "rotor.fokker_planck",
}

# counted on every call, also from inside their own layer
CALL_COUNTERS = {
    ("spinrad.material", "DielectricModel.epsilon"): "material.epsilon.calls",
    ("spinrad.radiation", "integrate_power"): "radiation.integrate_power.calls",
    ("spinrad.radiation", "mode_flux"): "radiation.mode_flux.calls",
    ("spinrad.quadrature", "adaptive_integral"): "quadrature.integrals",
}

# counted only when the call enters the layer from outside (recursion is not a call)
_FLUX = "scattering.flux.calls"
ENTRY_COUNTERS = {
    ("spinrad.material", "bose_occupation"): "material.bose.calls",
    ("spinrad.scattering", "ChannelTable.flux"): _FLUX,
    ("spinrad.scattering", "DiskTable.flux"): _FLUX,
    ("spinrad.scattering", "SphereTable.flux"): _FLUX,
    ("spinrad.scattering", "disk_flux"): _FLUX,
    ("spinrad.scattering", "sphere_flux_dipole"): _FLUX,
    ("spinrad.scattering", "cylinder_flux_block"): _FLUX,
    ("spinrad.scattering", "_cyl_response"): _FLUX,
}


class Node:
    """Aggregate of every span reached by one path of span names within an op."""

    __slots__ = ("span", "layer", "count", "total", "self_time", "children")

    def __init__(self, span, layer):
        self.span = span
        self.layer = layer
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = {}

    def child(self, span, layer):
        node = self.children.get(span)
        if node is None:
            node = self.children[span] = Node(span, layer)
        return node

    def walk(self, ancestors=()):
        """Yield (node, spans of its ancestors, layers of its ancestors)."""
        spans = tuple(a.span for a in ancestors)
        layers = tuple(a.layer for a in ancestors)
        yield self, spans, layers
        for node in self.children.values():
            yield from node.walk(ancestors + (self,))

    def as_dict(self):
        return {"span": self.span, "count": self.count, "total_s": self.total,
                "self_s": self.self_time,
                "children": [c.as_dict() for c in self.children.values()]}


class Tracer:
    """Installs the wrappers, keeps the span trees and counters of each op."""

    def __init__(self):
        self.counts = Counter()
        self.ops = []          # (op name, root node), in the order the ops ran
        self._stack = []       # open frames: [node, time spent in child spans]
        self._patches = []     # (owner, attribute, original)

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, name):
        root = Node("op", None)
        self.ops.append((name, root))
        self._stack[:] = [[root, 0.0]]
        return root

    def end_op(self, root, seconds):
        root.count += 1
        root.total += seconds
        root.self_time += seconds - self._stack[0][1]
        self._stack.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, span, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        node = parent[0].child(span, layer)
        frame = [node, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            node.count += 1
            node.total += dt
            node.self_time += dt - frame[1]
            parent[1] += dt

    def _wrap(self, fn, span, layer, call_key, entry_key):
        counts = self.counts
        enter = self._enter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if call_key is not None:
                counts[call_key] += 1
            if not stack or stack[-1][0].span == span:
                return fn(*args, **kwargs)
            if entry_key is not None:
                counts[entry_key] += 1
            return enter(span, layer, fn, args, kwargs)

        return wrapper

    # -- hooks: count work inside arguments the layer receives ---------------

    def _hook_adaptive_integral(self, fn):
        """Count integrand evaluations; run the integrand in its caller's span."""
        counts = self.counts

        def hooked(f, *args, **kwargs):
            owner = next((fr[0] for fr in reversed(self._stack)
                          if fr[0].layer != "quadrature"), None)

            def integrand(x):
                counts["quadrature.integrand_evals"] += 1
                if owner is None:
                    return f(x)
                return self._enter(owner.span, owner.layer, f, (x,), {})

            try:
                return fn(integrand, *args, **kwargs)
            except Exception:
                counts["quadrature.failed"] += 1
                raise

        return hooked

    def _hook_tabulate(self, fn):
        """Count torque-law moment evaluations and the distinct rates they ask for."""
        counts = self.counts

        def hooked(moments, *args, **kwargs):
            seen = set()

            def counted(W):
                counts["rotor.moments.evals"] += 1
                seen.add(float(W))
                return moments(W)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                counts["rotor.moments.distinct"] += len(seen)

        return hooked

    def _hook_simulate(self, fn):
        """Count evaluations of the torque law inside the Langevin loop."""
        counts = self.counts

        def counted(f):
            if f is None:
                return None

            def law_eval(w):
                counts["rotor.law.evals"] += 1
                return f(w)
            return law_eval

        def hooked(law, *args, **kwargs):
            law = dataclasses.replace(
                law, drift=counted(law.drift), diffusion=counted(law.diffusion),
                drift_derivative_fn=counted(law.drift_derivative_fn))
            return fn(law, *args, **kwargs)

        return hooked

    def _hook_langevin_step(self, fn):
        counts = self.counts

        def hooked(omega, *args, **kwargs):
            counts["rotor.langevin.traj_steps"] += int(np.size(omega))
            return fn(omega, *args, **kwargs)

        return hooked

    _HOOKS = {
        ("spinrad.quadrature", "adaptive_integral"): _hook_adaptive_integral,
        ("spinrad.rotor", "tabulate_torque_law"): _hook_tabulate,
        ("spinrad.rotor", "simulate_ensemble"): _hook_simulate,
        ("spinrad.rotor", "langevin_step"): _hook_langevin_step,
    }

    # -- install / uninstall ------------------------------------------------

    def _make(self, modname, qualname, fn):
        key = (modname, qualname)
        layer = LAYER_OF_MODULE[modname]
        hook = self._HOOKS.get(key)
        target = hook(self, fn) if hook else fn
        return self._wrap(target, OWN_SPANS.get(key, layer), layer,
                          CALL_COUNTERS.get(key), ENTRY_COUNTERS.get(key))

    def install(self):
        """Wrap every entry point of every layer at all of its binding sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "spinrad" or name.startswith("spinrad.")]
        imported = {id(obj) for mod in package for obj in vars(mod).values()
                    if inspect.isfunction(obj) and obj.__module__ != mod.__name__}
        wrappers = {}
        for modname in LAYER_OF_MODULE:
            mod = sys.modules[modname]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    if not name.startswith("_") or id(obj) in imported:
                        wrappers[id(obj)] = (obj, self._make(modname, name, obj))
                elif (inspect.isclass(obj) and obj.__module__ == modname
                      and not name.startswith("_")):
                    for attr, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not attr.startswith("_"):
                            wrapper = self._make(modname, f"{name}.{attr}", meth)
                            self._patches.append((obj, attr, meth))
                            setattr(obj, attr, wrapper)
        for mod in package:
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, entry[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    @staticmethod
    def layer_times(roots):
        """calls, busy and self time per layer, and busy/self per span name.

        A layer's calls and busy time count its outermost spans only (those
        with no ancestor in the same layer); its self time is the span time
        not covered by child spans, summed over all of its spans.
        """
        out = Counter()
        for root in roots:
            for node, spans, layers in root.walk():
                if node.layer is None:
                    continue
                out[f"{node.layer}.self_s"] += node.self_time
                if node.layer not in layers:
                    out[f"{node.layer}.calls"] += node.count
                    out[f"{node.layer}.busy_s"] += node.total
                if node.span != node.layer:
                    out[f"{node.span}.self_s"] += node.self_time
                    if node.span not in spans:
                        out[f"{node.span}.busy_s"] += node.total
        return out
