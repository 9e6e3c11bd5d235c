"""Instrumentation installed by rebinding public names of the arzest modules.

The program looks its layer functions up as module globals at call time
(``solve_box_qp`` inside ``MheSession.step``, ``linearize_model`` inside
``ekf_step``, ``run_estimation`` inside the sweep cells), so binding a
wrapper to every module attribute that holds the original reaches every
call site without editing the program.  Sweep workers are forked from this
process and inherit the wrappers; they spool what they record to files
that the parent reads back after the sweep.
"""
from __future__ import annotations

import inspect
import os
import pickle
import resource
import time
from pathlib import Path

import arzest
from arzest import kalman, linearize, mhe, model, scenarios, sensing

import calibrate
from checks import check_covariance, check_qp_solve

MODULES = (arzest, model, linearize, sensing, kalman, mhe, scenarios)

CHECK_SPAN = "perfbench.check"
CALIBRATE_SPAN = "perfbench.calibrate"


def rebind(original, wrapper) -> None:
    """Point every arzest module attribute that holds ``original`` at
    ``wrapper``."""
    for mod in MODULES:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


class Tracer:
    """In-memory spans: [name, start, end, parent index, counters].

    A span's parent is the span open when it started.  After a fork the
    worker starts its own list; its top-level spans take as parent the
    span that was open in the parent process at the fork.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self.fork_parent = -1

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self.fork_parent = self._stack[-1] if self._stack else -1
            self._pid = pid
            self.spans = []
            self._stack = []

    def call(self, name: str, fn, args=(), kwargs=None, counters=None):
        """Run ``fn`` inside a span; ``counters(result)`` gives the span's
        counts."""
        self._check_fork()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            span[1], span[2] = t0, time.perf_counter()
            self._stack.pop()
        if counters is not None:
            span[4] = counters(out)
        return out

    def take(self) -> list[list]:
        """Hand over the finished spans (only at top level)."""
        self._check_fork()
        spans, self.spans = self.spans, []
        return spans

    def merge(self, spans: list[list], fork_parent: int) -> None:
        """Append spans recorded in a worker, re-indexing their parents."""
        base = len(self.spans)
        for name, t0, t1, parent, counters in spans:
            p = fork_parent if parent < 0 else parent + base
            self.spans.append([name, t0, t1, p, counters])


class _RunProbe:
    """Per-run step latencies, host-speed meter and unconverged MHE steps
    (1-based)."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.times: list[float] = []
        self.meter = calibrate.Meter()
        self.unconverged: list[int] = []


class Recorder:
    """One record per ``run_estimation`` call, kept in memory in this
    process and spooled to ``spool_dir`` from sweep workers."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.main_pid = os.getpid()
        self.records: list[dict] = []
        self.violations: list[str] = []
        self.tracer: Tracer | None = None
        self._probe: _RunProbe | None = None

    # -- estimator runs, always installed ---------------------------------

    def install(self) -> None:
        calibrate.sample()  # warm the kernel before the first timed step
        make = scenarios.make_estimator
        run = scenarios.run_estimation
        rebind(make, self._wrap_make(make))
        rebind(run, self._wrap_run(run))

    def _wrap_make(self, orig):
        def make_estimator(spec, x0, topo, params, rng):
            est = orig(spec, x0, topo, params, rng)
            probe = _RunProbe(est)
            self._probe = probe
            inner = est.step
            is_mhe = isinstance(est, mhe.MheSession)
            name = "mhe.MheSession.step" if is_mhe else "kalman.KalmanRunner.step"

            def step(u, y, C_sel):
                tracer = self.tracer
                t0 = time.perf_counter()
                if tracer is None:
                    x = inner(u, y, C_sel)
                else:
                    x = tracer.call(name, inner, (u, y, C_sel))
                dt = time.perf_counter() - t0
                probe.times.append(dt)
                probe.meter.add(dt)
                if probe.meter.due:
                    self._calibrate(probe.meter)
                if is_mhe and not est.last_info.converged:
                    probe.unconverged.append(len(probe.times))
                return x

            est.step = step
            return est
        return make_estimator

    def _wrap_run(self, orig):
        def run_estimation(sc, truth, spec, seed):
            self._probe = None
            rec = {"kind": spec.kind, "noise_std": float(sc.noise_std),
                   "seed": seed, "t_f": sc.t_f, "pid": os.getpid()}
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    res = orig(sc, truth, spec, seed)
                else:
                    res = self.tracer.call("scenarios.run_estimation", orig,
                                           (sc, truth, spec, seed))
            except Exception as exc:
                rec["error"] = repr(exc)
                self._emit(rec)
                raise
            probe = self._probe
            if probe.meter.pending_s > 0:
                self._calibrate(probe.meter)
            rec["wall_s"] = time.perf_counter() - t0
            rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            meter = probe.meter
            rec.update(work_s=meter.work_s, scaled_s=meter.scaled_s,
                       kernel_s=meter.kernel_s, kernel_samples=meter.samples)
            est = probe.estimator
            rec.update(est=res.est, rmse_rho=res.rmse_rho, times=probe.times,
                       unconverged=probe.unconverged,
                       failed_solves=getattr(est, "failed_solves", None),
                       jitter_events=(est.state.jitter_events
                                      if isinstance(est, kalman.KalmanRunner)
                                      else 0))
            self._emit(rec)
            return res
        return run_estimation

    def _calibrate(self, meter) -> None:
        """Sample the host's speed, in a span of its own when tracing so
        that the kernel is not charged to a layer."""
        if self.tracer is None:
            meter.sample()
        else:
            self.tracer.call(CALIBRATE_SPAN, meter.sample)

    def _emit(self, rec: dict) -> None:
        if os.getpid() == self.main_pid:
            self.records.append(rec)
            return
        spans, fork_parent = [], -1
        if self.tracer is not None:
            spans = self.tracer.take()
            fork_parent = self.tracer.fork_parent
        item = {"record": rec, "spans": spans, "fork_parent": fork_parent,
                "violations": self.violations}
        self.violations = []
        path = self.spool_dir / f"worker-{os.getpid()}.pkl"
        with open(path, "ab") as fh:
            pickle.dump(item, fh)

    def collect_spool(self) -> None:
        """Read back and delete what sweep workers spooled."""
        items = []
        for path in sorted(self.spool_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        items.append(pickle.load(fh))
                    except EOFError:
                        break
            path.unlink()
        for it in items:
            self.records.append(it["record"])
            self.violations.extend(it["violations"])
            if self.tracer is not None and it["spans"]:
                self.tracer.merge(it["spans"], it["fork_parent"])

    # -- layer spans, installed for the traced round ----------------------

    def install_tracing(self) -> Tracer:
        tracer = self.tracer = Tracer()
        layers = [
            (scenarios, "generate_truth", None),
            (scenarios, "sweep_noise", None),
            (sensing, "positions_at", None),
            (sensing, "build_observation", None),
            (model, "step", None),
            (model, "step_batch", lambda out: {"rows": int(out.shape[0])}),
            (linearize, "linearize_model", None),
            (linearize, "linearize_measurement", None),
            (mhe, "assemble_qp", lambda qp: {"n_z": int(qp.H.shape[0])}),
            (kalman, "enkf_step", None),
        ]
        for mod, attr, counters in layers:
            self._trace(mod, attr, counters)
        self._trace_solver()
        for attr in ("ekf_step", "ukf_step"):
            self._trace_filter(attr)
        return tracer

    def _trace(self, mod, attr, counters) -> None:
        orig = getattr(mod, attr)
        name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            return self.tracer.call(name, orig, args, kwargs, counters)

        rebind(orig, traced)

    def _check(self, fn, *args) -> None:
        """Run an independent check in its own span, so that its time is
        not charged to the layer that called it."""
        found, _ = self.tracer.call(CHECK_SPAN, fn, args,
                                    counters=lambda out: out[1])
        self.violations.extend(found)

    def _trace_solver(self) -> None:
        orig = mhe.solve_box_qp
        sig = inspect.signature(orig)

        def counters(out):
            info = out[1]
            return {"iters": info.iterations, "restarts": info.restarts,
                    "converged": bool(info.converged)}

        def solve_box_qp(*args, **kwargs):
            z, info = self.tracer.call("mhe.solve_box_qp", orig, args, kwargs,
                                       counters)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self._check(check_qp_solve, a["qp"], a["tol_kkt"], a["z0"], z, info)
            return z, info

        rebind(orig, solve_box_qp)

    def _trace_filter(self, attr: str) -> None:
        orig = getattr(kalman, attr)
        name = f"kalman.{attr}"

        def traced(*args, **kwargs):
            state = self.tracer.call(name, orig, args, kwargs)
            self._check(check_covariance, state.P, name)
            return state

        rebind(orig, traced)
