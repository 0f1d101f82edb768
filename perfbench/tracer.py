"""Layer spans for the traced run, recorded at the import sites callers use.

``Tracer.install`` replaces each probed function, in every bitorsion module
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent). Spans stay in memory until the run ends. A layer's
self time is its span's duration minus the time covered by its child spans.
Nothing in ``src/`` changes; ``uninstall`` puts the originals back.
"""

import functools
import importlib
import os
import time
from collections import defaultdict

SITES = ("numkernel", "circle", "complexes", "morse", "turaev", "spectral", "serialize",
         "acceptance", "cli")


def _n3_of_matrix(args, kwargs, result):
    n = len(args[0])
    return {"n3_sum": n**3}


def _n3_of_channel(args, kwargs, result):
    return {"n3_sum": args[0].n_grid ** 3}


def _dense_bytes(args, kwargs, result):
    # computed, not measured: each channel holds dense N x N complex d and k_sym
    return {"dense_bytes": 2 * result.n_grid**2 * 16 * len(result.channels)}


def _input_bytes(args, kwargs, result):
    src = args[0] if args else None
    return {"bytes": os.path.getsize(src) if isinstance(src, str) else 0}


# (span name, home module, attribute or Class.method, extra counters)
PROBES = (
    ("numkernel.schur_decomposition", "numkernel", "schur_decomposition", _n3_of_matrix),
    ("numkernel.lu_det", "numkernel", "lu_det", None),
    ("circle.eigenvalues", "circle", "ChannelOperators.eigenvalues", _n3_of_channel),
    ("circle.build_discrete", "circle", "build_discrete", _dense_bytes),
    ("circle.critical_points", "circle", "CircleModel.critical_points", None),
    ("circle.phi_derivative", "circle", "CircleModel.phi_derivative", None),
    ("circle.gelfand_yaglom_det", "circle", "gelfand_yaglom_det", None),
    ("circle.zeta_det_exact", "circle", "zeta_det_exact", None),
    ("spectral.spectral_cut", "spectral", "spectral_cut", None),
    ("spectral.rs_torsion", "spectral", "rs_torsion", None),
    ("spectral.small_spectrum_dims", "spectral", "small_spectrum_dims", None),
    ("spectral.theorem33_experiment", "spectral", "theorem33_experiment", None),
    ("spectral.conjugation_isospectral_check", "spectral", "conjugation_isospectral_check",
     None),
    ("spectral.bz_compare", "spectral", "bz_compare", None),
    ("spectral.milnor_from_model", "spectral", "milnor_from_model", None),
    ("complexes.cohomology", "complexes", "cohomology", None),
    ("complexes.torsion_form", "complexes", "torsion_form", None),
    ("complexes.BilinearStructure", "complexes", "BilinearStructure.__post_init__", None),
    ("morse.build_thom_smale", "morse", "build_thom_smale", None),
    ("morse.milnor_torsion", "morse", "milnor_torsion", None),
    ("morse.CriticalForms", "morse", "CriticalForms.__post_init__", None),
    ("turaev.turaev_torsion", "turaev", "turaev_torsion", None),
    ("turaev.fox_alexander", "turaev", "fox_alexander", None),
    ("turaev.knot_from_braid", "turaev", "knot_from_braid", None),
    ("serialize.load", "serialize", "load_graded_complex", _input_bytes),
    ("serialize.load", "serialize", "load_morse_system", _input_bytes),
    ("serialize.load", "serialize", "load_knot", _input_bytes),
    ("serialize.load", "serialize", "load_circle_model", _input_bytes),
    ("serialize.write_rows_csv", "serialize", "write_rows_csv", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [importlib.import_module(f"bitorsion.{m}") for m in SITES]
        modules.append(importlib.import_module("bitorsion"))
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for name, home, attr, count in PROBES:
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(by_name[home], cls_name)
                self._patch(owner, method, self.wrap(name, getattr(owner, method), count))
                continue
            original = getattr(by_name[home], attr)
            traced = self.wrap(name, original, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)
        acceptance = by_name["acceptance"]
        self._patch(acceptance, "CRITERIA", tuple(
            self.wrap(f"acceptance.criterion_{fn.__name__.split('_')[1]}", fn)
            for fn in acceptance.CRITERIA))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_stats(self):
        """name -> {"calls", "s" (inclusive), "self_s"}, plus the counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return dict(stats), dict(self.counters)

    def dump(self):
        """Spans as plain lists (name, start, end, parent) for the trace file."""
        return [list(s) for s in self.spans]
