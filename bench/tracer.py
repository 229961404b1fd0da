"""Layer spans and counters recorded from outside the program.

The tracer wraps public functions of each ``metatx`` module for the length
of one traced job and restores the originals afterwards. A name is patched
everywhere it is looked up: in its defining module and in every ``metatx``
module that bound it at import (``simulator`` imports
``phase_difference_matrix`` by name, ``_ascend`` finds ``sum_sinr`` as a
module global). Methods and classmethods are patched on their class.

Most targets record a span (name, job, parent span, start, end). A layer's
self time is its span's duration minus the time of its child spans. Hot leaf
functions (``sum_sinr`` and its helpers, QAM constellation construction)
record only a call count and total time, which still count as child time of
the enclosing span, so self times stay exact without a span per call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def _size(x) -> int:
    return int(getattr(x, "size", 0))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _measure_gamma(args, kwargs, result):
    return {"reflection.gamma_bytes": result.nbytes}


def _measure_demap(args, kwargs, result):
    return {"modem.qam_demap.symbols": _size(_first_arg(args, kwargs, "symbols"))}


def _measure_duc(args, kwargs, result):
    return {"modem.samples": result.samples.size}


def _measure_ddc(args, kwargs, result):
    return {"modem.samples": _first_arg(args, kwargs, "waveform").samples.size}


def _measure_inverse(args, kwargs, result):
    return {"mixer.inverse.samples": _size(_first_arg(args, kwargs, "m")) or 1}


def _measure_solver(args, kwargs, result):
    return {
        "precoder.outer_iterations": result.trace.size - 1,
        "precoder.converged": int(result.converged),
    }


def _measure_outputs(args, kwargs, result):
    return {"cli.output_bytes": sum(entry["bytes"] for entry in result.outputs)}


# (module, attribute, layer name, leaf?, measure). An attribute "Cls.meth"
# patches a method on its class.
TARGETS = (
    ("geometry", "phase_difference_matrix", "geometry.phase_difference_matrix", False, None),
    ("geometry", "transform_matrix", "geometry.transform_matrix", False, None),
    ("reflection", "SurfaceConfig.reflection_coefficients", "reflection.reflection_coefficients", False, _measure_gamma),
    ("reflection", "SurfaceConfig.uniform", "reflection.surface_uniform", False, None),
    ("channel", "selection_vector", "channel.selection_vector", False, None),
    ("channel", "effective_channels", "channel.effective_channels", False, None),
    ("channel", "rayleigh_matrix", "channel.rayleigh_matrix", False, None),
    ("channel", "add_noise", "channel.add_noise", False, None),
    ("modem", "QamConstellation.__post_init__", "modem.QamConstellation", True, None),
    ("modem", "qam_map", "modem.qam_map", False, None),
    ("modem", "qam_demap", "modem.qam_demap", False, _measure_demap),
    ("modem", "duc", "modem.duc", False, _measure_duc),
    ("modem", "ddc", "modem.ddc", False, _measure_ddc),
    ("mixer", "calibrate_predistortion", "mixer.calibrate_predistortion", False, None),
    ("mixer", "reflect_magnitude", "mixer.reflect_magnitude", False, None),
    ("precoder", "closed_form_phases", "precoder.closed_form_phases", False, None),
    ("precoder", "alternating_optimize", "precoder.alternating_optimize", False, _measure_solver),
    ("precoder", "sum_sinr", "precoder.sum_sinr", True, None),
    ("precoder", "euclidean_gradient_phi1", "precoder.euclidean_gradient", True, None),
    ("precoder", "riemannian_project", "precoder.riemannian_project", True, None),
    ("precoder", "retract", "precoder.retract", True, None),
    ("simulator", "build_link", "simulator.build_link", False, None),
    ("simulator", "simulate_rx", "simulator.simulate_rx", False, None),
    ("simulator", "ber_sweep", "simulator.ber_sweep", False, None),
    ("simulator", "two_stream_experiment", "simulator.two_stream_experiment", False, None),
    ("simulator", "doppler_spoof_experiment", "simulator.doppler_spoof_experiment", False, None),
    ("sensing", "istft_synthesize", "sensing.istft_synthesize", False, None),
    ("sensing", "stft", "sensing.stft", False, None),
    ("sensing", "doppler_signature", "sensing.doppler_signature", False, None),
    ("sensing", "signature_fidelity", "sensing.signature_fidelity", False, None),
    ("cli", "parse_config", "cli.parse_config", False, None),
    ("cli", "run", "cli.run", False, _measure_outputs),
)


def _per_job(total, jobs):
    return total / jobs if jobs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters of the traced jobs of one benchmark run."""

    def __init__(self):
        self.spans = []     # (name, job, parent index or -1, start, end, self_s)
        self.jobs = []      # (job, start, end, self-time total)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []    # open frames: [span index, start, child time]
        self._job = None
        self._leaf_s = 0.0

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, measure=None, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                own = duration - frame[2]
                stack[-1][2] += duration
                tracer.spans[index] = (name, tracer._job, stack[-1][0], frame[1], end, own)
                tracer.self_s[name] += own
                tracer.calls[name] += 1
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    tracer.counts[key] += value
            return post(result) if post is not None else result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                tracer.self_s[name] += duration
                tracer.calls[name] += 1
                tracer._leaf_s += duration
                if tracer._stack:
                    tracer._stack[-1][2] += duration

        return wrapper

    # -- patching ----------------------------------------------------------

    def _wrapper_for(self, name, fn, leaf, measure):
        if leaf:
            return self._leaf(name, fn)
        post = None
        if name == "mixer.calibrate_predistortion":
            # The inverse is a closure; wrap each one as it is handed out.
            post = lambda inverse: self._span("mixer.inverse", inverse, _measure_inverse)
        return self._span(name, fn, measure, post)

    def install(self):
        """Patch every target; returns the undo list for :meth:`uninstall`."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "metatx" or key.startswith("metatx."))
        ]
        undo = []
        for module_name, attr, name, leaf, measure in TARGETS:
            module = importlib.import_module(f"metatx.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrapper_for(name, original.__func__, leaf, measure))
                else:
                    patched = self._wrapper_for(name, original, leaf, measure)
                undo.append((cls, meth, original))
                setattr(cls, meth, patched)
                continue
            original = getattr(module, attr)
            patched = self._wrapper_for(name, original, leaf, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, patched)
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    # -- jobs --------------------------------------------------------------

    def run_job(self, job, fn):
        """Run ``fn()`` as traced job ``job``; returns (result, wall seconds)."""
        undo = self.install()
        first_span = len(self.spans)
        self._job = job
        self._leaf_s = 0.0
        root = [-1, perf(), 0.0]
        self._stack = [root]
        try:
            result = fn()
        finally:
            end = perf()
            self._stack = []
            self.uninstall(undo)
        self._verify(job, first_span, root[1], end)
        return result, end - root[1]

    def _verify(self, job, first_span, start, end):
        """Every span lies inside its parent; self times fit in the job."""
        spans = self.spans
        total_self = self._leaf_s
        for span in spans[first_span:]:
            name, _, parent, s0, s1, own = span
            p0, p1 = (start, end) if parent < 0 else spans[parent][3:5]
            if not (p0 <= s0 <= s1 <= p1):
                raise AssertionError(f"span {name} of job {job} lies outside its parent")
            total_self += own
        wall = end - start
        if total_self > wall * (1 + 1e-9):
            raise AssertionError(
                f"job {job}: layer self times {total_self:.6f} s exceed wall {wall:.6f} s"
            )
        self.jobs.append((job, start, end, total_self))

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values, each averaged over the traced jobs."""
        n = len(self.jobs)
        out = {}
        for name in [target[2] for target in TARGETS] + ["mixer.inverse"]:
            out[f"{name}.self_s"] = _per_job(self.self_s[name], n)
            out[f"{name}.calls"] = _per_job(self.calls[name], n)
        for key in ("reflection.gamma_bytes", "modem.qam_demap.symbols", "modem.samples",
                    "mixer.inverse.samples", "precoder.outer_iterations", "cli.output_bytes"):
            out[key] = _per_job(self.counts[key], n)
        out["precoder.converged_ratio"] = _ratio(
            self.counts["precoder.converged"], self.calls["precoder.alternating_optimize"]
        )
        out["precoder.trials_per_step"] = _ratio(
            self.calls["precoder.retract"], self.calls["precoder.riemannian_project"]
        )
        wall = sum(end - start for _, start, end, _ in self.jobs)
        attributed = sum(own for _, _, _, own in self.jobs)
        out["trace.unattributed_share"] = _ratio(wall - attributed, wall)
        return out
