"""Per-layer tracing of the ilekoop package from outside.

``Tracer.install()`` wraps the public functions of each package module
(``cli``, ``expr``, ``vectorfield``, ``strain``, ``flowmap``, ``koopman``,
``families``, ``series``) in place and ``uninstall()`` puts the originals
back.  Per-request and per-grid calls record spans (name, request, start,
end, parent) in memory; per-point hot calls (``Poly2.evaluate``,
``VectorField2D.evaluate``) only bump counters so tracing does not swamp
them.  ``layer_metrics()`` turns one traced pass into the per-layer metrics
listed in ``PER_LAYER``, each with the end-to-end metric and workload it is
expected to move; their units are in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from ilekoop import cli, expr, families, flowmap, koopman, series, strain, vectorfield
from ilekoop.errors import NoCrossingError

# name -> the end-to-end metric and workload/family the layer metric should
# move; per-family figures are in each untraced run's record
PER_LAYER = {
    "trace.overhead_ratio": "traced / untraced wall_s of the same requests",
    "cli.self_ms_per_req": "req_p50_ms on points_algebra/exact_algebra",
    "expr.parse_polynomial.calls": "req_p50_ms on points_algebra/exact_algebra",
    "expr.parse_polynomial.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "expr.poly_algebra.calls": "req_p50_ms on points_algebra/exact_algebra",
    "expr.poly_algebra.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "expr.Poly2.evaluate.calls": "wall_s on points_algebra/pullback_points",
    "expr.Poly2.eval_array.calls": "wall_s, req_p90_ms on grids/ftle_grid",
    "expr.Poly2.eval_array.elements": "wall_s, req_p90_ms on grids/ftle_grid",
    "expr.Poly2.eval_array.busy_ms": "wall_s, req_p90_ms on grids/ftle_grid",
    "vectorfield.construct.calls": "req_p50_ms on points_algebra/exact_algebra",
    "vectorfield.construct.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "vectorfield.evaluate.calls": "wall_s on points_algebra/pullback_points",
    "vectorfield.evaluate_arrays.calls": "wall_s on grids/ftle_grid",
    "vectorfield.evaluate_arrays.elements": "wall_s on grids/ftle_grid",
    "vectorfield.evaluate_arrays.busy_ms": "wall_s on grids/ftle_grid",
    "vectorfield.jacobian_arrays.busy_ms": "wall_s on grids/ile_grid, slightly",
    "strain.rate_field.busy_ms": "wall_s on grids/ile_grid, slightly",
    "strain.rate_field.nodes": "wall_s on grids/ile_grid, slightly",
    "strain.extract_extremal_set.busy_ms": "req_p90_ms, wall_s on grids/ile_grid",
    "strain.extract_extremal_set.nodes": "req_p90_ms, wall_s on grids/ile_grid",
    "strain.extract_extremal_set.hit_ratio": "req_p90_ms, wall_s on grids/ile_grid",
    "strain.write_csv.busy_ms": "wall_s on grids/ile_grid, less on grids/ftle_grid",
    "strain.write_csv.bytes": "wall_s on grids/ile_grid, less on grids/ftle_grid",
    "strain.write_pgm.busy_ms": "wall_s on grids/ile_grid",
    "strain.write_pgm.bytes": "wall_s on grids/ile_grid",
    "flowmap.ftle_field.busy_ms": "wall_s, req_p90_ms on grids/ftle_grid",
    "flowmap.ftle_field.nodes": "wall_s, req_p90_ms on grids/ftle_grid",
    "flowmap.ftle_field.rk4_steps": "wall_s, req_p90_ms on grids/ftle_grid",
    "flowmap.ftle_field.ns_per_rk4_step": "wall_s, req_p90_ms on grids/ftle_grid",
    "koopman.pullback_eigenfunction.calls": "wall_s on points_algebra/pullback_points",
    "koopman.pullback_eigenfunction.busy_ms": "req_p90_ms, wall_s on points_algebra/pullback_points",
    "koopman.pullback_eigenfunction.p90_ms": "req_p90_ms on points_algebra/pullback_points",
    "koopman.pullback_eigenfunction.field_evals_per_point": "wall_s on points_algebra/pullback_points",
    "koopman.pullback_eigenfunction.no_crossing": "correctness of points_algebra/pullback_points",
    "koopman.pullback_eigenfunction.tangential_warnings": "trust in pullback_points",
    "koopman.keig_residual.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "koopman.residual_report.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "families.carleman_solve.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "families.make_family.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "families.one_d_residual.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "series.busy_ms": "req_p50_ms on points_algebra/exact_algebra",
    "flowmap.ftle_field.threads2_over_threads1": "none; threads stay out of the gate",
    "flowmap.ftle_field.cpu_over_wall": "none; threads stay out of the gate",
}

_PULLBACK = "koopman.pullback_eigenfunction"


def _rk4_steps(args) -> int:
    """RK4 steps of one ftle_field call, counted per trajectory (4 per node)."""
    grid, t, cfg = args[1], args[2], args[4]
    n, r = flowmap._step_plan(t, cfg.step)
    return 4 * grid.nx * grid.ny * (n + (1 if r > 0.0 else 0))


class _CountingStream:
    """Forwards writes and counts the characters written (ASCII = bytes)."""

    def __init__(self, stream, tracer, key):
        self._stream, self._tracer, self._key = stream, tracer, key

    def write(self, text):
        self._tracer.counts[self._key] += len(text)
        return self._stream.write(text)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, request, start_ns, end_ns, parent index)
        self.counts = defaultdict(int)
        self.busy_ns = defaultdict(int)  # outermost calls only
        self.request = -1
        self._stack = []
        self._depth = defaultdict(int)
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, extra=None, stream_key=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if stream_key is not None:
                args = args[:1] + (_CountingStream(args[1], tracer, stream_key),) + args[2:]
            tracer.counts[name + ".calls"] += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._depth[name] += 1
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except NoCrossingError:
                tracer.counts[name + ".no_crossing"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.spans[idx] = (name, tracer.request, start, end, parent)
                if tracer._depth[name] == 0:
                    tracer.busy_ns[name] += end - start
            if extra is not None:
                extra(tracer.counts, args, out)
            return out

        return wrapper

    def _counter(self, name, fn, field_eval=False):
        """Counts calls; a field evaluation inside a pullback also counts
        toward that pullback's field_evals."""
        counts, depth = self.counts, self._depth

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if field_eval and depth[_PULLBACK]:
                counts[_PULLBACK + ".field_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        poly, vf = expr.Poly2, vectorfield.VectorField2D
        parse = self._span("expr.parse_polynomial", expr.parse_polynomial)
        self._patch(expr, "parse_polynomial", parse)
        self._patch(cli, "parse_polynomial", parse)
        for attr in ("__mul__", "__add__", "__sub__", "diff"):
            self._patch(poly, attr, self._span("expr.poly_algebra", poly.__dict__[attr]))
        self._patch(poly, "evaluate", self._counter("expr.Poly2.evaluate.calls", poly.evaluate))

        def array_elements(name):
            def extra(counts, args, out):
                counts[name + ".elements"] += args[1].size

            return extra

        self._patch(poly, "eval_array", self._span(
            "expr.Poly2.eval_array", poly.eval_array, array_elements("expr.Poly2.eval_array")))
        self._patch(vf, "__init__", self._span("vectorfield.construct", vf.__init__))
        self._patch(vf, "evaluate", self._counter("vectorfield.evaluate.calls", vf.evaluate,
                                                  field_eval=True))
        self._patch(vf, "evaluate_arrays", self._span(
            "vectorfield.evaluate_arrays", vf.evaluate_arrays,
            array_elements("vectorfield.evaluate_arrays")))
        self._patch(vf, "jacobian_arrays", self._span("vectorfield.jacobian_arrays",
                                                      vf.jacobian_arrays))

        def grid_nodes(counts, args, out):
            counts["strain.rate_field.nodes"] += args[1].nx * args[1].ny

        def extremal(counts, args, out):
            g = args[0].grid
            counts["strain.extract_extremal_set.nodes"] += (g.nx - 2) * (g.ny - 2)
            counts["strain.extract_extremal_set.hits"] += len(out)

        def ftle_work(counts, args, out):
            counts["flowmap.ftle_field.nodes"] += args[1].nx * args[1].ny
            counts["flowmap.ftle_field.rk4_steps"] += _rk4_steps(args)

        self._patch(strain, "rate_field", self._span("strain.rate_field", strain.rate_field,
                                                     grid_nodes))
        self._patch(strain, "extract_extremal_set", self._span(
            "strain.extract_extremal_set", strain.extract_extremal_set, extremal))
        for attr in ("write_csv", "write_pgm"):
            name = "strain." + attr
            self._patch(strain, attr, self._span(name, getattr(strain, attr),
                                                 stream_key=name + ".bytes"))
        self._patch(flowmap, "ftle_field", self._span("flowmap.ftle_field", flowmap.ftle_field,
                                                      ftle_work))
        for attr in ("pullback_eigenfunction", "keig_residual", "residual_report"):
            self._patch(koopman, attr, self._span("koopman." + attr, getattr(koopman, attr)))
        self._patch(families, "carleman_solve", self._span("families.carleman_solve",
                                                           families.carleman_solve))
        self._patch(families, "one_d_residual", self._span("families.one_d_residual",
                                                           families.one_d_residual))
        for attr in ("make_quadratic_family", "make_cubic_family", "make_transformed_family"):
            self._patch(families, attr, self._span("families.make_family",
                                                   getattr(families, attr)))
        for attr in ("attraction_series_coefficients", "partial_sum_check",
                     "decompose_monomial", "monomial_partial_sum"):
            self._patch(series, attr, self._span("series", getattr(series, attr)))
        run_span = self._span("cli.run_command", cli.run_command)

        def run_command(argv):
            self.request += 1  # spans of one request share this identifier
            return run_span(argv)

        self._patch(cli, "run_command", run_command)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, tangential_warnings: int) -> dict:
        """Per-layer metrics of everything recorded so far (one pass)."""
        c, busy = self.counts, self.busy_ns
        child_ns = defaultdict(int)
        pullback_ms = []
        for name, _, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == "cli.run_command":
                child_ns[parent] += end - start
            if name == _PULLBACK:
                pullback_ms.append((end - start) / 1e6)
        self_ns = [
            end - start - child_ns[i]
            for i, (name, _, start, end, _) in enumerate(self.spans)
            if name == "cli.run_command"
        ]
        rk4 = c["flowmap.ftle_field.rk4_steps"]
        extremal_nodes = c["strain.extract_extremal_set.nodes"]
        pullbacks = c[_PULLBACK + ".calls"]
        out = {
            "cli.self_ms_per_req": sum(self_ns) / 1e6 / max(1, len(self_ns)),
            "expr.Poly2.evaluate.calls": c["expr.Poly2.evaluate.calls"],
            "vectorfield.evaluate.calls": c["vectorfield.evaluate.calls"],
            "strain.extract_extremal_set.hit_ratio":
                c["strain.extract_extremal_set.hits"] / extremal_nodes if extremal_nodes else 0.0,
            "flowmap.ftle_field.ns_per_rk4_step":
                busy["flowmap.ftle_field"] / rk4 if rk4 else 0.0,
            _PULLBACK + ".p90_ms":
                statistics.quantiles(pullback_ms, n=10)[-1] if len(pullback_ms) > 1 else 0.0,
            _PULLBACK + ".field_evals_per_point":
                c[_PULLBACK + ".field_evals"] / pullbacks if pullbacks else 0.0,
            _PULLBACK + ".no_crossing": c[_PULLBACK + ".no_crossing"],
            _PULLBACK + ".tangential_warnings": tangential_warnings,
        }
        for name in PER_LAYER:
            if name in out or "." not in name:
                continue
            layer, _, stat = name.rpartition(".")
            if stat == "busy_ms":
                out[name] = busy[layer] / 1e6
            elif stat in ("calls", "elements", "nodes", "bytes", "rk4_steps"):
                out[name] = c[name]
        return out

